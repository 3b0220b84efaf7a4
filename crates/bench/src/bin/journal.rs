//! Journal-overhead benchmark: soak throughput with and without the
//! write-ahead mutation journal, under each fsync policy.
//!
//! The durability layer's headline claim is that journaling every
//! mutation (place/remove/migrate/update_load) before ack costs little:
//! the acceptance bar is **≤15% soak-throughput overhead** for the
//! journaling mechanism — serialize, checksum, and `write(2)` each frame
//! before the op is acknowledged (`fsync never`), which is exactly the
//! process-crash durability the crash harness proves. This binary runs
//! the same steady-state soak four ways — unjournaled baseline, then
//! journaled under `never`, `interval:1024`, and `always` — and records
//! ops/second plus the overhead versus baseline for each policy.
//!
//! The fsync policies are reported but not gated: a policy sync's cost
//! is synchronous writeback of the dirty log — it prices the *disk*
//! (≈10 µs/KB on a cloud block device, nearly free on a desktop NVMe),
//! not the code. A code regression shows up identically in the gated
//! `never` run, and the CI trend gate tracks the interval policy's
//! throughput across runs on like hardware.
//!
//! Configurations run interleaved — one rep of each, [`REPS`] rounds —
//! with a disk `sync` between runs, so page-cache writeback from one
//! configuration cannot bleed into the next and drifting machine load
//! penalizes all configurations alike. Each keeps its fastest wall time,
//! so a one-off scheduler hiccup does not fail the in-binary gate.
//! The ≤15% assert fires only in the full run: at quick scale the
//! baseline loop is cache-resident and a fixed per-append syscall reads
//! as an outsized relative cost. Quick runs print the overhead as
//! advisory and feed the CI trend gate, which compares quick against
//! quick.
//!
//! Run: `cargo run --release -p cubefit-bench --bin journal [-- --quick]`

use cubefit_bench::{write_json, Mode};
use cubefit_durability::{FsyncPolicy, Journal};
use cubefit_sim::lifecycle::{self, AuditPolicy, LifecycleConfig, LifecycleReport, RunOptions};
use cubefit_sim::report::TextTable;
use cubefit_sim::AlgorithmSpec;
use cubefit_telemetry::{JsonlSink, Recorder};
use std::time::Instant;

/// Overhead (percent of baseline throughput) the gated policy may cost.
const MAX_OVERHEAD_PERCENT: f64 = 15.0;
/// Runs per configuration; the fastest wall time wins.
const REPS: u32 = 3;

struct Measured {
    report: LifecycleReport,
    ops: u64,
    secs: f64,
    wal_bytes: u64,
}

impl Measured {
    fn ops_per_second(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

fn soak_config(ops: u64, audit_every: u64) -> LifecycleConfig {
    // Exactly the shape BENCH_soak measures — sampled audits, defrag
    // epochs, and the 500-op trace/monitor checkpoint stride included —
    // so "overhead" means overhead on the soak throughput the repo
    // already tracks, not on a stripped-down loop. Only the journal
    // checkpoint stride is set on top: a full-snapshot fsync every 500
    // ops would be checkpoint-bound, so journaled deployments run them
    // orders of magnitude rarer and pay with a longer (still small)
    // replay at recovery.
    let mut config =
        LifecycleConfig::steady(AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, ops, 7);
    config.audit = AuditPolicy::Sampled { every: audit_every };
    config.defrag_every = 5_000;
    config.journal_checkpoint_every = Some(25_000);
    config
}

/// A trace recorder streaming to disk, exactly as `BENCH_soak` runs —
/// "soak throughput" is the traced loop, so overhead is measured against
/// the configuration the trend gate already tracks.
fn trace_recorder(tag: &str) -> (Recorder, std::path::PathBuf) {
    let path = std::env::temp_dir()
        .join(format!("cubefit-bench-journal-{tag}-{}.jsonl", std::process::id()));
    let file = std::fs::File::create(&path).expect("trace file");
    (Recorder::with_sink(JsonlSink::new(std::io::BufWriter::new(file))), path)
}

/// Flushes dirty pages so the next run does not inherit this one's
/// writeback debt. Best-effort: a missing `sync` binary just skips it.
fn settle_disks() {
    let _ = std::process::Command::new("sync").status();
}

fn run_baseline_once(ops: u64, audit_every: u64) -> Measured {
    let config = soak_config(ops, audit_every);
    settle_disks();
    let (recorder, trace) = trace_recorder("baseline");
    let started = Instant::now();
    let options = RunOptions { recorder: recorder.clone(), ..RunOptions::default() };
    let (report, _) = lifecycle::run(&config, &options).expect("baseline soak runs");
    recorder.flush().expect("trace flushes");
    let secs = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&trace);
    assert!(report.failure.is_none(), "bench soak must stay clean: {:?}", report.failure);
    Measured { report, ops, secs, wal_bytes: 0 }
}

fn run_journaled_once(ops: u64, audit_every: u64, policy: FsyncPolicy, tag: &str) -> Measured {
    let config = soak_config(ops, audit_every);
    let dir =
        std::env::temp_dir().join(format!("cubefit-bench-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    settle_disks();
    let journal = Journal::create(&dir, 2, policy).expect("journal creates");
    let (recorder, trace) = trace_recorder(tag);
    let started = Instant::now();
    let options = RunOptions {
        recorder: recorder.clone(),
        journal: Some(journal.clone()),
        ..RunOptions::default()
    };
    let (report, _) = lifecycle::run(&config, &options).expect("journaled soak");
    recorder.flush().expect("trace flushes");
    let secs = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&trace);
    assert!(report.failure.is_none(), "bench soak must stay clean: {:?}", report.failure);
    let wal_bytes = journal.appended_bytes();
    let _ = std::fs::remove_dir_all(&dir);
    Measured { report, ops, secs, wal_bytes }
}

/// Keeps the faster of the incumbent and the fresh measurement.
fn keep_best(best: &mut Option<Measured>, fresh: Measured) {
    if best.as_ref().is_none_or(|b| fresh.secs < b.secs) {
        *best = Some(fresh);
    }
}

fn overhead_percent(baseline: &Measured, journaled: &Measured) -> f64 {
    // Throughput loss versus baseline; per-op rates, so runs of different
    // op counts compare fairly.
    (1.0 - journaled.ops_per_second() / baseline.ops_per_second()) * 100.0
}

fn policy_json(baseline: &Measured, m: &Measured) -> serde_json::Value {
    serde_json::json!({
        "ops": m.ops,
        "wall_seconds": m.secs,
        "ops_per_second": m.ops_per_second(),
        "overhead_percent": overhead_percent(baseline, m),
        "wal_bytes": m.wal_bytes,
        "bytes_per_op": m.wal_bytes as f64 / m.ops as f64,
    })
}

fn main() {
    let mode = Mode::from_args();
    let ops: u64 = if mode.is_quick() { 50_000 } else { 1_000_000 };
    let audit_every: u64 = if mode.is_quick() { 1_000 } else { 10_000 };

    println!(
        "Journal-overhead benchmark — {ops} steady-state ops (γ=2, K=10, seed 7), \
         best of {REPS} reps per configuration\n"
    );

    // `always` fsyncs per frame (~100 µs each on commodity disks), so the
    // full run caps its op count: it is context, not the gated policy.
    let always_ops = if mode.is_quick() { ops } else { ops / 20 };

    let (mut b, mut n, mut i, mut a) = (None, None, None, None);
    for round in 0..REPS {
        println!("round {}/{REPS}...", round + 1);
        keep_best(&mut b, run_baseline_once(ops, audit_every));
        keep_best(&mut n, run_journaled_once(ops, audit_every, FsyncPolicy::Never, "never"));
        keep_best(
            &mut i,
            run_journaled_once(ops, audit_every, FsyncPolicy::Interval(1024), "interval"),
        );
        keep_best(
            &mut a,
            run_journaled_once(always_ops, audit_every, FsyncPolicy::Always, "always"),
        );
    }
    let (baseline, never, interval, always) =
        (b.expect("reps"), n.expect("reps"), i.expect("reps"), a.expect("reps"));

    // Journaling is a pure observer: same-length runs must follow the
    // exact trajectory of the unjournaled baseline.
    for (name, m) in [("never", &never), ("interval:1024", &interval)] {
        assert_eq!(
            (m.report.final_tenants, m.report.final_open_bins),
            (baseline.report.final_tenants, baseline.report.final_open_bins),
            "journaled run ({name}) must end in the baseline's state"
        );
    }

    let mut table = TextTable::new(vec!["configuration", "ops/s", "overhead", "WAL bytes/op"]);
    table.row(vec![
        "unjournaled".into(),
        format!("{:.0}", baseline.ops_per_second()),
        "—".into(),
        "—".into(),
    ]);
    for (name, m) in
        [("fsync never", &never), ("fsync interval:1024", &interval), ("fsync always", &always)]
    {
        table.row(vec![
            format!("journal, {name}"),
            format!("{:.0}", m.ops_per_second()),
            format!("{:+.1}%", overhead_percent(&baseline, m)),
            format!("{:.0}", m.wal_bytes as f64 / m.ops as f64),
        ]);
    }
    println!("{}", table.render());
    println!(
        "the gate holds the journaling mechanism (fsync never) to          ≤{MAX_OVERHEAD_PERCENT:.0}% overhead;"
    );
    println!("sync policies are reported for context — their cost is disk writeback, not code.");

    let gated = overhead_percent(&baseline, &never);
    let baseline_json = serde_json::json!({
        "ops": baseline.ops,
        "wall_seconds": baseline.secs,
        "ops_per_second": baseline.ops_per_second(),
    });
    let journaled_json = serde_json::json!({
        "never": policy_json(&baseline, &never),
        "interval": policy_json(&baseline, &interval),
        "always": policy_json(&baseline, &always),
    });
    // `headroom_percent` is the trend-gate metric (higher is better):
    // how far under the overhead ceiling the default policy lands.
    let gate_json = serde_json::json!({
        "policy": "never",
        "overhead_percent": gated,
        "max_overhead_percent": MAX_OVERHEAD_PERCENT,
        "headroom_percent": MAX_OVERHEAD_PERCENT - gated,
    });
    write_json(
        "BENCH_journal",
        &serde_json::json!({
            "mode": format!("{mode:?}"),
            "ops": ops,
            "seed": 7,
            "reps": REPS,
            "baseline": baseline_json,
            "journaled": journaled_json,
            "gate": gate_json,
        }),
    );
    if mode.is_quick() {
        // At quick scale the unjournaled loop runs a few hundred tenants
        // entirely from cache (~4 µs/op), so the fixed per-append syscall
        // reads as a large *relative* overhead. The ≤15% budget is a
        // paper-scale claim — enforced in the full run, where per-op work
        // is real — while quick runs feed the CI trend gate, which
        // catches regressions by comparing like against like.
        println!(
            "\njournal overhead (quick): {gated:.1}% — advisory only; \
             the {MAX_OVERHEAD_PERCENT:.0}% budget is enforced at full scale"
        );
    } else {
        assert!(
            gated <= MAX_OVERHEAD_PERCENT,
            "journaling overhead {gated:.1}% exceeds the {MAX_OVERHEAD_PERCENT:.0}% budget \
             (fsync never policy)"
        );
        println!("\njournal overhead gate: PASS ({gated:.1}% ≤ {MAX_OVERHEAD_PERCENT:.0}%)");
    }
}
