//! End-to-end integration tests spanning every crate: workload generation
//! → placement → failure analysis → cluster simulation → reporting.

use cubefit::cluster::{sim::assignments_from_placement, ClusterSim, QueryMix, SimConfig};
use cubefit::core::validity::{self, FailoverSemantics};
use cubefit::core::TenantId;
use cubefit::sim::experiment::sequence_for;
use cubefit::sim::runner::run_sequence;
use cubefit::sim::{
    compare, run_failure_experiment, AlgorithmSpec, ComparisonConfig, CostModel, DistributionSpec,
    FailureExperimentConfig,
};
use cubefit::workload::LoadModel;
use std::collections::HashMap;

#[test]
fn headline_result_cubefit_beats_rfi() {
    // The paper's central claim at reduced scale: CubeFit uses fewer
    // servers than RFI on both evaluation distributions.
    let config = ComparisonConfig { tenants: 4_000, runs: 2, base_seed: 5, max_clients: 52 };
    for distribution in
        [DistributionSpec::Uniform { min: 1, max: 15 }, DistributionSpec::Zipf { exponent: 3.0 }]
    {
        let result = compare(
            &AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 },
            &AlgorithmSpec::CubeFit { gamma: 2, classes: 10 },
            &distribution,
            &config,
        )
        .unwrap();
        assert!(
            result.relative_difference_pct.mean > 5.0,
            "{}: relative difference {:?}",
            result.distribution,
            result.relative_difference_pct
        );
        assert!(result.servers_saved() > 0.0);
    }
}

#[test]
fn every_algorithm_handles_the_same_sequence() {
    let config = ComparisonConfig { tenants: 800, runs: 1, base_seed: 9, max_clients: 52 };
    let sequence = sequence_for(&DistributionSpec::Uniform { min: 1, max: 52 }, &config, 0);
    let lower_bound = sequence.total_load().ceil() as usize;
    for spec in [
        AlgorithmSpec::CubeFit { gamma: 2, classes: 10 },
        AlgorithmSpec::CubeFit { gamma: 3, classes: 5 },
        AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 },
        AlgorithmSpec::BestFit { gamma: 2 },
        AlgorithmSpec::FirstFit { gamma: 2 },
        AlgorithmSpec::WorstFit { gamma: 2 },
        AlgorithmSpec::NextFit { gamma: 2 },
        AlgorithmSpec::RandomFit { gamma: 2, seed: 3 },
    ] {
        let result = run_sequence(&spec, &sequence).unwrap();
        assert_eq!(result.tenants, 800, "{}", result.algorithm);
        assert!(result.servers >= lower_bound, "{} undercut the volume bound", result.algorithm);
        assert!(result.utilization > 0.0 && result.utilization <= 1.0);
    }
}

#[test]
fn placement_to_cluster_pipeline() {
    // Place a workload, hand it to the DES, and verify the latency of the
    // healthy cluster respects the SLA (every server load ≤ 1 by
    // construction).
    let (consolidator, specs) = cubefit::sim::failure::fill_servers(
        &AlgorithmSpec::CubeFit { gamma: 2, classes: 5 },
        &DistributionSpec::Uniform { min: 1, max: 15 },
        10,
        77,
    )
    .unwrap();
    let placement = consolidator.placement();
    assert!(placement.open_bins() <= 10);
    assert!(placement.is_robust());

    let clients: HashMap<TenantId, u32> =
        specs.iter().map(|s| (s.tenant.id(), s.clients)).collect();
    let assignments = assignments_from_placement(placement, &|id| clients[&id]);
    let model = LoadModel::tpch_xeon();
    let mix = QueryMix::tpch_like(&model, 5.0);
    let mut sim =
        ClusterSim::new(placement.created_bins(), assignments, &mix, &model, SimConfig::quick(77));
    let report = sim.run();
    assert!(!report.is_empty());
    assert!(!report.violates_sla(5.0), "healthy cluster p99 {} exceeds SLA", report.p99());
}

#[test]
fn figure5_shape_rfi_fails_two_failures_cubefit3_survives() {
    // The Fig. 5 discriminator at small scale: with two failures, CubeFit
    // γ=3 meets the SLA while RFI (single-failure reserve) violates it.
    let run = |algorithm: AlgorithmSpec| {
        run_failure_experiment(&FailureExperimentConfig {
            algorithm,
            distribution: DistributionSpec::Uniform { min: 1, max: 15 },
            servers: 14,
            failures: 2,
            sla_seconds: 5.0,
            seed: 31,
            sim: SimConfig { warmup_seconds: 4.0, measure_seconds: 20.0, seed: 31 },
        })
        .unwrap()
    };
    let cubefit3 = run(AlgorithmSpec::CubeFit { gamma: 3, classes: 5 });
    assert!(!cubefit3.sla_violated, "cubefit γ=3 p99 {}", cubefit3.p99_seconds);
    assert!(cubefit3.worst_model_load <= 1.0 + 1e-9);

    let rfi = run(AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 });
    assert!(
        rfi.worst_model_load > 1.0,
        "RFI should overload under 2 failures (got {})",
        rfi.worst_model_load
    );
    assert!(rfi.sla_violated, "RFI p99 {}", rfi.p99_seconds);
    assert!(rfi.p99_seconds > cubefit3.p99_seconds);
}

#[test]
fn worst_failure_set_is_worse_than_random_set() {
    let (consolidator, _) = cubefit::sim::failure::fill_servers(
        &AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 },
        &DistributionSpec::Uniform { min: 1, max: 15 },
        12,
        13,
    )
    .unwrap();
    let p = consolidator.placement();
    let worst = validity::worst_failure_set(p, 2, FailoverSemantics::EvenSplit);
    let worst_load =
        validity::simulate_failures(p, &worst, FailoverSemantics::EvenSplit).max_load();
    let bins: Vec<_> = p.bins().filter(|b| !b.is_empty()).map(|b| b.id()).collect();
    for pair in bins.windows(2).take(10) {
        let load = validity::simulate_failures(p, pair, FailoverSemantics::EvenSplit).max_load();
        assert!(worst_load + 1e-9 >= load);
    }
}

#[test]
fn cost_model_tracks_comparison() {
    let config = ComparisonConfig { tenants: 2_000, runs: 1, base_seed: 21, max_clients: 52 };
    let result = compare(
        &AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 },
        &AlgorithmSpec::CubeFit { gamma: 2, classes: 10 },
        &DistributionSpec::Zipf { exponent: 3.0 },
        &config,
    )
    .unwrap();
    let cost = CostModel::c4_4xlarge();
    let savings = cost.yearly_savings(
        result.baseline_servers.mean.round() as usize,
        result.candidate_servers.mean.round() as usize,
    );
    assert!(savings > 0.0);
    // Sanity: savings equal saved servers × hourly × hours.
    let saved = result.baseline_servers.mean.round() - result.candidate_servers.mean.round();
    assert!((savings - saved * 0.822 * 8760.0).abs() < 1.0);
}

#[test]
fn analysis_bounds_cover_observed_ratio() {
    // The empirical servers/LB ratio of CubeFit stays under the analytic
    // Theorem-2 bound once instances are large (here: generously under
    // 2× the bound to allow LB slack).
    use cubefit::analysis::{empirical_ratio, maximize_bin_weight, IpConfig};
    let config = ComparisonConfig { tenants: 3_000, runs: 1, base_seed: 2, max_clients: 52 };
    let sequence = sequence_for(&DistributionSpec::Uniform { min: 1, max: 15 }, &config, 0);
    let mut cf = cubefit::core::CubeFit::new(
        cubefit::core::CubeFitConfig::builder().replication(2).classes(10).build().unwrap(),
    );
    let tenants: Vec<_> = sequence.tenants().collect();
    let observed = empirical_ratio(&mut cf, &tenants).unwrap();
    let analytic = maximize_bin_weight(&IpConfig::new(2, 10)).objective;
    assert!(
        observed.ratio < 2.0 * analytic,
        "observed {} vs analytic {}",
        observed.ratio,
        analytic
    );
}
