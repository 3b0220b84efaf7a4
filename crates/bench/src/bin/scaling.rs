//! Extension experiment: asymptotic scaling (§V.C prose).
//!
//! The paper notes that CubeFit's "asymptotic performance … is
//! significantly better when there is a large number of tenants to
//! consolidate on a large number of servers". Two sweeps quantify that:
//!
//! 1. the comparative sweep — servers used, savings over RFI, and
//!    placement wall time as the tenant count grows from 1,000 to
//!    100,000 (per-op placement, as in the paper);
//! 2. the batched throughput sweep — CubeFit through the batch placement
//!    API, up to 1,000,000 tenants, each run cross-checked by the
//!    parallel oracle audit. The sweep pins a placements/second floor;
//!    dropping below it fails the run so a fast-path regression cannot
//!    land silently.
//!
//! Run: `cargo run --release -p cubefit-bench --bin scaling [-- --quick]`

use cubefit_bench::{write_json, Mode};
use cubefit_core::oracle;
use cubefit_sim::experiment::sequence_for;
use cubefit_sim::report::TextTable;
use cubefit_sim::runner::run_sequence;
use cubefit_sim::{AlgorithmSpec, ComparisonConfig, DistributionSpec};
use std::time::Instant;

/// Tenants per `place_batch` call in the throughput sweep.
const BATCH: usize = 4096;
/// Pinned placement-throughput floor for the largest sweep size,
/// placements/second. Release builds on the reference machine sustain
/// well above this; the margin absorbs CI-machine noise while still
/// catching an order-of-magnitude fast-path regression.
const THROUGHPUT_FLOOR: f64 = 20_000.0;

fn main() {
    let mode = Mode::from_args();
    let sizes: &[usize] = if mode.is_quick() {
        &[1_000, 5_000, 10_000]
    } else {
        &[1_000, 5_000, 10_000, 25_000, 50_000, 100_000]
    };
    let distribution = DistributionSpec::Uniform { min: 1, max: 15 };
    let cubefit = AlgorithmSpec::CubeFit { gamma: 2, classes: 10 };
    let rfi = AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 };

    println!("Scaling sweep — {} (γ=2, K=10)\n", distribution.label());
    let mut table = TextTable::new(vec![
        "tenants",
        "cubefit servers",
        "rfi servers",
        "savings %",
        "cubefit util",
        "cf place (ms)",
        "rfi place (ms)",
    ]);
    let mut json_rows = Vec::new();

    for &tenants in sizes {
        let config = ComparisonConfig { tenants, runs: 1, base_seed: 17, max_clients: 52 };
        let sequence = sequence_for(&distribution, &config, 0);
        let cf = run_sequence(&cubefit, &sequence).expect("valid spec");
        let bf = run_sequence(&rfi, &sequence).expect("valid spec");
        let savings = (bf.servers as f64 - cf.servers as f64) / cf.servers as f64 * 100.0;
        table.row(vec![
            tenants.to_string(),
            cf.servers.to_string(),
            bf.servers.to_string(),
            format!("{savings:.1}"),
            format!("{:.3}", cf.utilization),
            format!("{:.1}", cf.wall.as_secs_f64() * 1e3),
            format!("{:.1}", bf.wall.as_secs_f64() * 1e3),
        ]);
        json_rows.push(serde_json::json!({
            "tenants": tenants,
            "cubefit_servers": cf.servers,
            "rfi_servers": bf.servers,
            "savings_pct": savings,
            "cubefit_utilization": cf.utilization,
            "cubefit_wall_ms": cf.wall.as_secs_f64() * 1e3,
            "rfi_wall_ms": bf.wall.as_secs_f64() * 1e3,
        }));
    }

    println!("{}", table.render());
    println!("paper (§V.C): asymptotic performance improves with scale; savings grow");
    println!("with the tenant population while CubeFit's placement cost stays near-linear.");
    write_json("scaling", &serde_json::json!({ "mode": format!("{mode:?}"), "rows": json_rows }));

    // ---- Batched throughput sweep -------------------------------------
    let sweep_sizes: &[usize] =
        if mode.is_quick() { &[100_000] } else { &[250_000, 500_000, 1_000_000] };
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "\nBatched throughput sweep — batch {BATCH}, parallel oracle audit ({workers} workers)\n"
    );
    let mut sweep_table = TextTable::new(vec![
        "tenants",
        "servers",
        "place (s)",
        "placements/s",
        "audit (s)",
        "robust",
    ]);
    let mut sweep_rows = Vec::new();
    let mut last_throughput = 0.0f64;

    for &tenants in sweep_sizes {
        let config = ComparisonConfig { tenants, runs: 1, base_seed: 23, max_clients: 52 };
        let sequence = sequence_for(&distribution, &config, 0);
        let mut algorithm = cubefit.build().expect("valid spec");
        let stream: Vec<_> = sequence.tenants().collect();
        let start = Instant::now();
        for chunk in stream.chunks(BATCH) {
            algorithm.place_batch(chunk.to_vec()).expect("placement succeeds");
        }
        let wall = start.elapsed();
        let throughput = tenants as f64 / wall.as_secs_f64();
        last_throughput = throughput;

        let audit_start = Instant::now();
        if let Err(d) = oracle::audit_parallel(algorithm.placement(), workers) {
            panic!("audit at {tenants} tenants: {} divergences, first: {}", d.len(), d[0]);
        }
        let audit_wall = audit_start.elapsed();
        let robust = algorithm.placement().is_robust();
        assert!(robust, "batched CubeFit placement must stay robust at {tenants} tenants");

        sweep_table.row(vec![
            tenants.to_string(),
            algorithm.placement().open_bins().to_string(),
            format!("{:.2}", wall.as_secs_f64()),
            format!("{throughput:.0}"),
            format!("{:.2}", audit_wall.as_secs_f64()),
            robust.to_string(),
        ]);
        sweep_rows.push(serde_json::json!({
            "tenants": tenants,
            "servers": algorithm.placement().open_bins(),
            "batch": BATCH,
            "place_seconds": wall.as_secs_f64(),
            "placements_per_second": throughput,
            "audit_seconds": audit_wall.as_secs_f64(),
            "robust": robust,
        }));
    }

    println!("{}", sweep_table.render());
    let floor_met = last_throughput >= THROUGHPUT_FLOOR;
    println!(
        "throughput floor: {THROUGHPUT_FLOOR:.0} placements/s — measured {last_throughput:.0} \
         at the largest size ({})",
        if floor_met { "PASS" } else { "FAIL" }
    );
    write_json(
        "BENCH_scaling",
        &serde_json::json!({
            "mode": format!("{mode:?}"),
            "batch": BATCH,
            "audit_workers": workers,
            "rows": sweep_rows,
            "placements_per_second": last_throughput,
            "throughput_floor": THROUGHPUT_FLOOR,
            "floor_met": floor_met,
        }),
    );
    if !floor_met {
        eprintln!(
            "FAIL: batched placement throughput {last_throughput:.0}/s fell below the pinned \
             floor {THROUGHPUT_FLOOR:.0}/s"
        );
        std::process::exit(1);
    }
}
