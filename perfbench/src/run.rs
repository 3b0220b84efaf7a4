//! One benchmark run: a warm-up repetition, then as many measured
//! repetitions as fit the time budget at the workload's nominal
//! repetition length, then the metrics.

use crate::report::{self, Provenance};
use crate::trace::{self, Profile};
use crate::{machine, stats, Ctx, Rep, Workload};
use std::path::PathBuf;

/// Fewest measured repetitions of a run (per stack in a traced run).
pub const MIN_REPS: usize = 3;
/// Most measured repetitions of a run.
pub const MAX_REPS: usize = 40;
/// Spans preallocated per traced repetition.
const SPAN_CAPACITY: usize = 1 << 18;
/// Largest tolerated gap between the layers' summed self time and the
/// timed windows' wall time.
const SELF_SUM_TOLERANCE: f64 = 0.05;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Report the per-layer breakdown instead of the end-to-end metrics.
    pub trace: bool,
    /// Scale inputs down (tests).
    pub smoke: bool,
    /// Directory for the trace file and scratch journals.
    pub out: PathBuf,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Failed checks.
    pub failures: Vec<String>,
    /// The record line: provenance and every metric's spread.
    pub record: String,
    /// The result line.
    pub result: String,
}

/// Runs the workload.
///
/// # Errors
///
/// An operation of the system under test failed, or the output directory
/// is unusable.
pub fn run(options: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("create {}: {e}", options.out.display()))?;
    let dir = options.out.join(format!("tmp-{}-{}", options.workload.name(), std::process::id()));
    let outcome = run_in(options, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Measured repetitions for a budget of `seconds`: as many as fit at the
/// workload's nominal repetition length, at least [`MIN_REPS`] per stack.
///
/// The count depends on nothing measured. Sizing it from a timed
/// repetition would give a run on a busy machine fewer repetitions, and
/// the fastest-over-repetitions estimators in [`report::end_to_end`]
/// fewer chances to see an undisturbed one, so a slowdown of the machine
/// would show amplified in the result.
#[must_use]
pub fn repetitions(workload: Workload, seconds: f64, trace: bool) -> usize {
    let stacks = if trace { 2 } else { 1 };
    ((seconds / workload.rep_seconds()).round() as usize).clamp(MIN_REPS * stacks, MAX_REPS)
}

fn run_in(options: &Options, dir: &std::path::Path) -> Result<Outcome, String> {
    let ctx = |rep: usize, traced: bool| Ctx {
        seed: options.seed,
        smoke: options.smoke,
        traced,
        rep: rep as u64,
        dir: dir.to_path_buf(),
    };
    // The warm-up repetition pays first-touch page faults and allocator
    // growth; it is checked but not measured.
    let warmup = options.workload.run_rep(&ctx(0, false))?;
    let reps = repetitions(options.workload, options.seconds, options.trace);

    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut profile = Profile::default();
    let mut last_spans = Vec::new();
    for index in 1..=reps {
        // Traced and untraced repetitions alternate, so drift in the
        // machine's speed cannot masquerade as tracing overhead.
        let tracing = options.trace && index % 2 == 0;
        if tracing {
            trace::start(SPAN_CAPACITY);
        }
        let rep = options.workload.run_rep(&ctx(index, tracing));
        if tracing {
            let spans = trace::finish();
            profile.absorb(&spans);
            last_spans = spans;
        }
        let rep = rep?;
        if tracing { &mut traced } else { &mut untraced }.push(rep);
    }

    let measured: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let mut failures: Vec<String> = warmup.failures.clone();
    failures.extend(measured.iter().flat_map(|r| r.failures.iter().cloned()));
    if measured.iter().any(|r| r.final_state != warmup.final_state) {
        failures.push(
            "final placement differs between repetitions of one seed (traced or not)".to_owned(),
        );
    }
    let metrics = if options.trace {
        let overhead = stats::median(&traced.iter().map(|r| r.busy_s).collect::<Vec<_>>())
            / stats::median(&untraced.iter().map(|r| r.busy_s).collect::<Vec<_>>())
            - 1.0;
        let wall_ns: f64 = traced.iter().map(|r| r.timed_s).sum::<f64>() * 1e9;
        let self_ns: f64 = profile.layer_self_ns.iter().sum();
        if (self_ns / wall_ns - 1.0).abs() > SELF_SUM_TOLERANCE {
            failures.push(format!(
                "layer self times sum to {:.1}% of the timed wall time",
                self_ns / wall_ns * 100.0
            ));
        }
        let path = options.out.join(format!("trace_{}.jsonl", options.workload.name()));
        trace::write_jsonl(&path, &last_spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report::per_layer(&profile, &traced, overhead)
    } else {
        report::end_to_end(&untraced, machine::peak_rss_mib())
    };
    let provenance = Provenance {
        workload: options.workload.name(),
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        smoke: options.smoke,
        reps,
    };
    let correct = failures.is_empty();
    let attempted = measured.iter().map(|r| r.ops).sum();
    let failed = measured.iter().map(|r| r.failed).sum();
    Ok(Outcome {
        correct,
        failures,
        record: report::record_line(&provenance, &metrics),
        result: report::result_line(correct, attempted, failed, &metrics),
    })
}
