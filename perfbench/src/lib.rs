//! # cubefit-perfbench
//!
//! The repository's performance benchmark: four workloads that drive the
//! public APIs of `cubefit-core`, `cubefit-defrag`, `cubefit-durability`
//! and `cubefit-service` from one thread, the end-to-end metrics an
//! operator sees, and — in a separate traced run — a per-layer breakdown
//! from spans recorded around every call into those crates. See
//! `README.md` next to this crate for the workloads, the metric names and
//! how to read the breakdown.

pub mod bulk_place;
pub mod churn;
pub mod inputs;
pub mod machine;
pub mod recover;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod timed;
pub mod trace;

use cubefit_core::{oracle, Placement, PlacementDump};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Initial consolidation of a fleet through `place_batch`.
    BulkPlace,
    /// Journaled steady-state lifecycle with defrag epochs.
    Churn,
    /// The placement service under open-loop real-time load.
    Serve,
    /// Crash restart from a checkpoint plus write-ahead-log tail.
    Recover,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::BulkPlace, Workload::Churn, Workload::Serve, Workload::Recover];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkPlace => "bulk-place",
            Workload::Churn => "churn",
            Workload::Serve => "serve",
            Workload::Recover => "recover",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal length of one repetition, s, set-up and checks included:
    /// what a repetition takes on a 2-vCPU Sapphire Rapids guest while
    /// other guests load the host moderately (unloaded, all but `serve`,
    /// whose schedule is fixed, run about a quarter faster). It sizes
    /// runs (see [`run::repetitions`]).
    #[must_use]
    pub fn rep_seconds(self) -> f64 {
        match self {
            Workload::BulkPlace => 2.5,
            Workload::Churn => 2.5,
            Workload::Serve => 3.0,
            Workload::Recover => 3.0,
        }
    }

    /// Runs one repetition.
    ///
    /// # Errors
    ///
    /// An operation of the system under test returned an error.
    pub fn run_rep(self, ctx: &Ctx) -> Result<Rep, String> {
        match self {
            Workload::BulkPlace => bulk_place::run_rep(ctx),
            Workload::Churn => churn::run_rep(ctx),
            Workload::Serve => serve::run_rep(ctx),
            Workload::Recover => recover::run_rep(ctx),
        }
    }
}

/// What a repetition runs with.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed; equal seeds give equal inputs.
    pub seed: u64,
    /// Scale inputs down to a few hundred milliseconds (tests).
    pub smoke: bool,
    /// Build decorated stacks and record spans.
    pub traced: bool,
    /// Repetition number (0 = warm-up), the id of its root spans.
    pub rep: u64,
    /// Scratch directory for journals, private to this run.
    pub dir: PathBuf,
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Time to build the repetition's inputs and initial state, s.
    pub setup_s: f64,
    /// Work completed in the timed window (tenants, ops, requests or
    /// records — the numerator of `ops_per_s`).
    pub work: f64,
    /// Time the work took, s, split into blocks whose positions repeat
    /// from one repetition of a seed to the next (one block when the
    /// time is a fixed schedule).
    pub work_s: Vec<f64>,
    /// Per-request latencies, ms, in request order.
    pub latency_ms: Vec<f64>,
    /// Wall time of the timed window, s.
    pub timed_s: f64,
    /// Time the system under test was busy: the timed window for the
    /// closed loops, the time spent inside service calls for `serve`. The
    /// traced/untraced ratio of this is the tracing overhead.
    pub busy_s: f64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed or were refused where refusal is a failure,
    /// plus failed checks.
    pub failed: u64,
    /// Open servers in the final state.
    pub servers_used: f64,
    /// [`fingerprint`] of the final placement, for workloads whose final
    /// state is a pure function of the seed: equal across repetitions and
    /// across traced and untraced stacks.
    pub final_state: Option<u64>,
    /// Per-layer counts the workload measured itself.
    pub counters: BTreeMap<&'static str, f64>,
    /// Per-layer distributions the workload measured itself.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Failed checks, one message each.
    pub failures: Vec<String>,
}

impl Rep {
    /// Records a failed check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// Oracle audit (incremental indexes = from-scratch recomputation)
    /// and the Theorem-1 robustness check on `placement`.
    pub fn check_placement(&mut self, placement: &Placement) {
        let audit = trace::enter("core.audit");
        let result = oracle::audit(placement);
        audit.exit(placement.open_bins() as u64);
        if let Err(divergences) = result {
            self.fail(format!("oracle audit found {} divergences", divergences.len()));
        }
        if !trace::span("core.is_robust", || placement.is_robust()) {
            self.fail("placement is not robust to γ−1 failures".to_owned());
        }
    }

    /// Rebuilds `placement`'s indexes from its dump (the checkpoint-load
    /// path) and checks the rebuilt placement dumps identically.
    pub fn check_index_rebuild(&mut self, placement: &Placement) {
        let dump = PlacementDump::from_placement(placement);
        let rebuild = trace::enter("core.index_rebuild");
        let rebuilt = dump.to_placement();
        rebuild.exit(dump.tenants.len() as u64);
        match rebuilt {
            Ok(rebuilt) if PlacementDump::from_placement(&rebuilt) == dump => {}
            Ok(_) => self.fail("rebuilt placement dumps differently".to_owned()),
            Err(e) => self.fail(format!("placement does not rebuild from its dump: {e}")),
        }
    }
}

/// Hash of everything a [`PlacementDump`] holds — γ, servers ever opened,
/// and each tenant's id, load bits and servers in arrival order — so
/// equal fingerprints mean byte-identical dumps, without serializing.
#[must_use]
pub fn fingerprint(placement: &Placement) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    hasher.write_usize(placement.gamma());
    hasher.write_usize(placement.created_bins());
    for (tenant, load, bins) in placement.tenants() {
        hasher.write_u64(tenant.get());
        hasher.write_u64(load.to_bits());
        for bin in bins {
            hasher.write_usize(bin.index());
        }
    }
    hasher.finish()
}

/// The timed window of a repetition. It pauses for checks, and each
/// running stretch is one [`trace::TIMED`] root span; [`Window::lap`]
/// closes a block of [`Rep::work_s`].
#[derive(Debug)]
pub struct Window {
    rep: u64,
    done: Duration,
    running: Option<(Instant, trace::Guard)>,
    lapped: Duration,
    laps: Vec<f64>,
}

impl Window {
    /// A stopped window for repetition `rep`.
    #[must_use]
    pub fn new(rep: u64) -> Self {
        Window {
            rep,
            done: Duration::ZERO,
            running: None,
            lapped: Duration::ZERO,
            laps: Vec::new(),
        }
    }

    /// Starts (or continues) timing.
    pub fn resume(&mut self) {
        if self.running.is_none() {
            let guard = trace::enter_id(trace::TIMED, self.rep);
            self.running = Some((Instant::now(), guard));
        }
    }

    /// Stops timing.
    pub fn pause(&mut self) {
        if let Some((started, guard)) = self.running.take() {
            self.done += started.elapsed();
            guard.exit(1);
        }
    }

    fn elapsed(&self) -> Duration {
        self.done + self.running.as_ref().map_or(Duration::ZERO, |(started, _)| started.elapsed())
    }

    /// Ends a block: its timed seconds since the previous lap.
    pub fn lap(&mut self) {
        let now = self.elapsed();
        self.laps.push((now - self.lapped).as_secs_f64());
        self.lapped = now;
    }

    /// Stops timing and stores the window in `rep`: the laps as
    /// [`Rep::work_s`] (time after the last lap joins it, so the block
    /// count is the lap count) and the total as the timed and busy time.
    pub fn finish(mut self, rep: &mut Rep) {
        self.pause();
        let rest = (self.done - self.lapped).as_secs_f64();
        match self.laps.last_mut() {
            Some(last) => *last += rest,
            None => self.laps.push(rest),
        }
        rep.timed_s = self.done.as_secs_f64();
        rep.busy_s = rep.timed_s;
        rep.work_s = self.laps;
    }
}
