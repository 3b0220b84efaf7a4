//! Serve-bench: the overload-safe service loop under calm and storm load.
//!
//! Runs the deterministic DES harness twice with the same seed — once at
//! the baseline arrival rate, once with a 4× burst storm — and gates the
//! robustness claims of the service loop:
//!
//! 1. the storm run **sheds** (the admission controller engages),
//! 2. completed-request p99 **holds the latency SLO** even mid-storm,
//! 3. storm goodput stays within 15% of baseline goodput (load shedding
//!    protects throughput instead of collapsing it),
//! 4. every admitted mutation stays **oracle-auditable**: zero audit
//!    divergences in both runs and both final placements replay clean.
//!
//! Run: `cargo run --release -p cubefit-bench --bin serve [-- --quick]`

use cubefit_bench::{write_json, Mode};
use cubefit_core::oracle;
use cubefit_sim::report::TextTable;
use cubefit_sim::serve::{run_serve, ServeConfig, ServeReport, ServeRun};
use cubefit_sim::RunOptions;
use std::time::Instant;

fn run_profile(label: &str, config: ServeConfig) -> (ServeRun, f64) {
    let started = Instant::now();
    let run = run_serve(config, &RunOptions::default()).expect("serve run");
    let wall = started.elapsed().as_secs_f64();
    let report = &run.report;
    assert_eq!(report.audit_divergences, 0, "{label}: admitted mutations must audit clean");
    let placement = run.dump.to_placement().expect("dump rebuilds");
    oracle::audit(&placement).unwrap_or_else(|divergences| {
        panic!("{label}: final placement diverges from the oracle: {divergences:?}")
    });
    (run, wall)
}

fn report_json(report: &ServeReport, wall_seconds: f64) -> serde_json::Value {
    serde_json::json!({
        "wall_seconds": wall_seconds,
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "queue_full": report.queue_full,
        "deadline_expired": report.deadline_expired,
        "shed_rate": report.shed_rate,
        "goodput_per_sec": report.goodput_per_sec,
        "p50_ms": report.latency.p50_ms,
        "p99_ms": report.latency.p99_ms,
        "p999_ms": report.latency.p999_ms,
        "slo_p99_ms": report.slo_p99_ms,
        "p99_within_slo": report.p99_within_slo,
        "batches": report.batches,
        "audits": report.audits,
        "audit_divergences": report.audit_divergences,
        "ladder_down": report.ladder_down,
        "ladder_up": report.ladder_up,
        "final_audit_mode": report.final_audit_mode,
        "final_limit": report.final_limit,
        "tenants": report.tenants,
        "bins": report.bins,
        "robust": report.robust,
    })
}

fn main() {
    let mode = Mode::from_args();
    let seed = 7u64;
    let horizon_ms: f64 = if mode.is_quick() { 4_000.0 } else { 20_000.0 };

    let mut baseline_config = ServeConfig::bench(seed, false);
    baseline_config.horizon_ms = horizon_ms;
    let mut storm_config = ServeConfig::bench(seed, true);
    storm_config.horizon_ms = horizon_ms;
    if let Some(storm) = &mut storm_config.storm {
        storm.start_ms = horizon_ms * 0.25;
        storm.duration_ms = horizon_ms * 0.50;
    }
    let limiter = baseline_config.service.limiter.label();
    let slo = baseline_config.service.slo_p99_ms;

    println!(
        "Serve benchmark — service loop over {horizon_ms:.0}ms simulated \
         (seed {seed}, limiter {limiter}, p99 SLO {slo:.0}ms), baseline vs 4x storm\n"
    );

    let (baseline, baseline_wall) = run_profile("baseline", baseline_config);
    let (storm, storm_wall) = run_profile("storm", storm_config);

    // The robustness gates the CI smoke asserts, checked here too so a
    // local `cargo run` fails loudly on a regression.
    assert!(storm.report.shed > 0, "storm must engage the admission controller");
    assert!(
        storm.report.latency.p99_ms <= slo,
        "storm p99 {:.1}ms breaches the {slo:.0}ms SLO",
        storm.report.latency.p99_ms
    );
    let goodput_drop =
        1.0 - storm.report.goodput_per_sec / baseline.report.goodput_per_sec.max(1e-9);
    assert!(
        goodput_drop <= 0.15,
        "storm goodput {:.1}/s dropped {:.1}% below baseline {:.1}/s (allowed 15%)",
        storm.report.goodput_per_sec,
        goodput_drop * 100.0,
        baseline.report.goodput_per_sec
    );

    let mut table = TextTable::new(vec!["measure", "baseline", "storm"]);
    let row = |t: &mut TextTable, name: &str, f: &dyn Fn(&ServeReport) -> String| {
        t.row(vec![name.into(), f(&baseline.report), f(&storm.report)]);
    };
    row(&mut table, "offered", &|r| r.offered.to_string());
    row(&mut table, "completed", &|r| r.completed.to_string());
    row(&mut table, "shed", &|r| r.shed.to_string());
    row(&mut table, "shed rate", &|r| format!("{:.1}%", r.shed_rate * 100.0));
    row(&mut table, "goodput/s", &|r| format!("{:.1}", r.goodput_per_sec));
    row(&mut table, "p50 (ms)", &|r| format!("{:.1}", r.latency.p50_ms));
    row(&mut table, "p99 (ms)", &|r| format!("{:.1}", r.latency.p99_ms));
    row(&mut table, "p999 (ms)", &|r| format!("{:.1}", r.latency.p999_ms));
    row(&mut table, "audits", &|r| r.audits.to_string());
    row(&mut table, "ladder -/+", &|r| format!("{}/{}", r.ladder_down, r.ladder_up));
    row(&mut table, "final limit", &|r| r.final_limit.to_string());
    row(&mut table, "final audit mode", &|r| r.final_audit_mode.clone());
    println!("{}", table.render());
    println!("storm goodput drop: {:.1}% (allowed 15%)", goodput_drop * 100.0);
    println!("both final placements replay clean against the oracle.");

    write_json(
        "BENCH_serve",
        &serde_json::json!({
            "mode": format!("{mode:?}"),
            "seed": seed,
            "horizon_ms": horizon_ms,
            "limiter": limiter,
            "slo_p99_ms": slo,
            "goodput_drop": goodput_drop,
            "baseline": report_json(&baseline.report, baseline_wall),
            "storm": report_json(&storm.report, storm_wall),
        }),
    );
}
