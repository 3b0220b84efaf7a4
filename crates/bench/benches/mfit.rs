//! Micro-benchmarks of the placement substrate's hot paths: the m-fit
//! predicate, worst-failover queries, and the robustness checker.

use criterion::{criterion_group, criterion_main, Criterion};
use cubefit_core::{mfit, validity, BinId, Consolidator, CubeFit, CubeFitConfig, Placement};
use cubefit_sim::experiment::sequence_for;
use cubefit_sim::{ComparisonConfig, DistributionSpec};

/// A realistic mid-size placement to query against.
fn build_placement() -> Placement {
    let config = ComparisonConfig { tenants: 2_000, runs: 1, base_seed: 7, max_clients: 52 };
    let sequence = sequence_for(&DistributionSpec::Uniform { min: 1, max: 15 }, &config, 0);
    let mut cubefit =
        CubeFit::new(CubeFitConfig::builder().replication(2).classes(10).build().expect("valid"));
    for tenant in sequence.tenants() {
        cubefit.place(tenant).expect("placement succeeds");
    }
    cubefit.placement().clone()
}

fn bench_queries(c: &mut Criterion) {
    let placement = build_placement();
    let bins: Vec<BinId> = placement.bins().filter(|b| !b.is_empty()).map(|b| b.id()).collect();

    c.bench_function("m_fits/no_siblings", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % bins.len();
            mfit::m_fits_with_growth(&placement, bins[i], 0.05, &[], &[], 0.0)
        });
    });

    c.bench_function("m_fits/with_sibling", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 2) % (bins.len() - 1);
            mfit::m_fits_with_growth(&placement, bins[i], 0.05, &[bins[i + 1]], &[], 0.0)
        });
    });

    c.bench_function("worst_failover", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % bins.len();
            placement.worst_failover(bins[i])
        });
    });

    c.bench_function("robustness_check/full", |b| {
        b.iter(|| validity::check(&placement).is_robust());
    });

    c.bench_function("simulate_failures/pair", |b| {
        let failed = [bins[0], bins[1]];
        b.iter(|| {
            validity::simulate_failures(&placement, &failed, validity::FailoverSemantics::EvenSplit)
                .max_load()
        });
    });
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
