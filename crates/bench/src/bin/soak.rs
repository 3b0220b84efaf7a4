//! Soak-harness benchmark: long-horizon throughput, streaming-analyzer
//! rate, and shrink cost.
//!
//! Three measurements back the observability stack's scaling claims:
//!
//! 1. **soak throughput** — ops/second of the steady-state churn loop
//!    with sampled audits and strided checkpoints (the knob that makes
//!    million-op runs affordable);
//! 2. **analyzer throughput** — lines/second of `cubefit analyze`'s
//!    single-pass reader over the trace the soak just wrote, with its
//!    peak tracked state (open servers) recorded to evidence the
//!    O(open-servers) memory bound;
//! 3. **shrink cost** — replay probes the bisection spends pinning an
//!    injected fault to its first failing op.
//!
//! Run: `cargo run --release -p cubefit-bench --bin soak [-- --quick]`

use cubefit_bench::{write_json, Mode};
use cubefit_sim::lifecycle::{self, shrink, AuditPolicy, LifecycleConfig, RunOptions};
use cubefit_sim::report::TextTable;
use cubefit_sim::AlgorithmSpec;
use cubefit_telemetry::{analyze_reader, AnalyzeConfig, JsonlSink, Recorder};
use std::io::BufReader;
use std::time::Instant;

fn main() {
    let mode = Mode::from_args();
    let ops: u64 = if mode.is_quick() { 20_000 } else { 1_000_000 };
    let audit_every: u64 = if mode.is_quick() { 1_000 } else { 10_000 };
    let algorithm = AlgorithmSpec::CubeFit { gamma: 2, classes: 10 };

    let mut config = LifecycleConfig::steady(algorithm, ops, 7);
    config.audit = AuditPolicy::Sampled { every: audit_every };
    config.defrag_every = 5_000;

    let trace_path =
        std::env::temp_dir().join(format!("cubefit-bench-soak-{}.jsonl", std::process::id()));
    let file = std::fs::File::create(&trace_path).expect("trace file");
    let recorder = Recorder::with_sink(JsonlSink::new(std::io::BufWriter::new(file)));

    println!(
        "Soak benchmark — {ops} steady-state ops (γ=2, K=10, seed 7), \
         audits every {audit_every}, defrag every 5000\n"
    );

    let started = Instant::now();
    let options = RunOptions { recorder: recorder.clone(), ..RunOptions::default() };
    let (report, _) = lifecycle::run(&config, &options).expect("soak runs");
    recorder.flush().expect("trace flushes");
    let soak_secs = started.elapsed().as_secs_f64();
    assert!(report.failure.is_none(), "bench soak must stay clean: {:?}", report.failure);
    assert_eq!(report.final_audit_divergences, Some(0));

    let started = Instant::now();
    let file = std::fs::File::open(&trace_path).expect("trace reopens");
    let analysis =
        analyze_reader(BufReader::new(file), AnalyzeConfig::default()).expect("trace analyzes");
    let analyze_secs = started.elapsed().as_secs_f64();
    assert!(analysis.is_clean(), "clean soak must analyze clean");
    let trace_bytes = std::fs::metadata(&trace_path).map(|m| m.len()).unwrap_or(0);

    // Shrink cost: inject a fault two-thirds in, soak until it trips,
    // then bisect the scenario down to the pinned op.
    let mut faulty = LifecycleConfig::steady(
        AlgorithmSpec::CubeFit { gamma: 2, classes: 10 },
        (ops / 2).max(2_000),
        7,
    );
    faulty.checkpoint_every = 100;
    faulty.inject_at = Some(faulty.ops * 2 / 3);
    let (failed, _) = lifecycle::run(&faulty, &RunOptions::default()).expect("faulty soak runs");
    let scenario = failed.scenario.expect("injected fault produces a scenario");
    let started = Instant::now();
    let outcome = shrink(&scenario).expect("scenario shrinks");
    let shrink_secs = started.elapsed().as_secs_f64();

    let mut table = TextTable::new(vec!["measure", "value"]);
    table.row(vec!["soak ops/s".into(), format!("{:.0}", ops as f64 / soak_secs)]);
    table.row(vec!["soak wall (s)".into(), format!("{soak_secs:.2}")]);
    table.row(vec!["audits (sampled)".into(), report.audits.to_string()]);
    table.row(vec!["trace lines".into(), analysis.total_lines.to_string()]);
    table.row(vec![
        "analyze lines/s".into(),
        format!("{:.0}", analysis.total_lines as f64 / analyze_secs),
    ]);
    table.row(vec![
        "analyze MB/s".into(),
        format!("{:.1}", trace_bytes as f64 / 1e6 / analyze_secs),
    ]);
    table.row(vec!["max open servers tracked".into(), analysis.max_open_bins.to_string()]);
    table.row(vec!["shrink probes".into(), outcome.probes.to_string()]);
    table.row(vec!["pinned op".into(), outcome.failure.op.to_string()]);
    table.row(vec!["shrink wall (s)".into(), format!("{shrink_secs:.2}")]);
    println!("{}", table.render());
    println!("the analyzer's tracked state is the open-server set, not the trace;");
    println!("shrink cost is O(log window) replays of the scenario prefix.");

    let soak_json = serde_json::json!({
        "wall_seconds": soak_secs,
        "ops_per_second": ops as f64 / soak_secs,
        "arrivals": report.arrivals,
        "departures": report.departures,
        "failure_events": report.failure_events,
        "defrag_epochs": report.defrag_epochs.len(),
        "audits": report.audits,
        "checkpoints": report.checkpoints,
        "final_tenants": report.final_tenants,
        "final_open_bins": report.final_open_bins,
        "final_audit_divergences": report.final_audit_divergences,
    });
    let analyze_json = serde_json::json!({
        "wall_seconds": analyze_secs,
        "trace_lines": analysis.total_lines,
        "trace_bytes": trace_bytes,
        "lines_per_second": analysis.total_lines as f64 / analyze_secs,
        "max_open_bins_tracked": analysis.max_open_bins,
        "clean": analysis.is_clean(),
    });
    let shrink_json = serde_json::json!({
        "window": vec![scenario.window_lo, scenario.window_hi],
        "probes": outcome.probes,
        "pinned_op": outcome.failure.op,
        "wall_seconds": shrink_secs,
    });
    write_json(
        "BENCH_soak",
        &serde_json::json!({
            "mode": format!("{mode:?}"),
            "ops": ops,
            "seed": 7,
            "audit_every": audit_every,
            "soak": soak_json,
            "analyze": analyze_json,
            "shrink": shrink_json,
        }),
    );
    let _ = std::fs::remove_file(&trace_path);
}
