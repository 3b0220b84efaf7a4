//! Deterministic crash-injection harness for the durability layer.
//!
//! A [`CrashPlan`] runs a journaled lifecycle for a prefix of its ops
//! ([`LifecycleConfig::crash_at`]) and then simulates a crash: the
//! journal is simply *not sealed* (a dead process writes no more bytes),
//! optionally with a fault injected into the log — tearing the final
//! frame mid-write or flipping a bit in acknowledged territory.
//! [`run_crash_plan`] then recovers the journal exactly as
//! `cubefit recover` would and reports whether the recovered placement is
//! bit-identical (as a serialized [`cubefit_core::PlacementDump`]) to the
//! state the live process had acknowledged, and whether it passes the
//! differential audit oracle.
//!
//! Everything is a pure function of the plan: the lifecycle loop is
//! seeded, the journal records decisions (never randomness), and the fault
//! offsets are computed from the log's own framing — no wall clocks, no
//! entropy, so a failing plan is its own repro.

use crate::lifecycle::{self, LifecycleConfig, RunOptions};
use cubefit_core::{oracle, Error, PlacementDump, Result};
use cubefit_durability::frame::{self, FrameParse, HEADER_LEN};
use cubefit_durability::{recover, recover_up_to, FsyncPolicy, Journal, WAL_FILE};
use std::fs;
use std::path::Path;

/// The damage a simulated crash inflicts on the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CrashFault {
    /// The process dies between appends: the log is intact but unsealed.
    CleanKill,
    /// The process dies *mid-append*: the final frame is truncated
    /// partway through, the expected torn-tail signature. Recovery must
    /// drop the torn frame with a warning and rewind to the previous one.
    TearTail,
    /// A bit flips inside an already-acknowledged frame (disk rot, a
    /// misdirected write). Recovery must refuse with a typed corruption
    /// error naming the byte offset — never silently replay damaged state.
    FlipBit,
}

/// One deterministic crash experiment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CrashPlan {
    /// The journaled run to crash; its [`LifecycleConfig::crash_at`] is
    /// the op count executed before the simulated kill.
    pub config: LifecycleConfig,
    /// Damage inflicted at the kill point.
    pub fault: CrashFault,
}

/// What recovery produced for one plan.
#[derive(Debug, Clone, PartialEq)]
pub enum CrashOutcome {
    /// Recovery succeeded; the fields grade it against the live run.
    Recovered {
        /// Recovered placement as serialized dump JSON.
        dump_json: String,
        /// Whether the recovered dump is byte-identical to the expected
        /// state (the live placement for [`CrashFault::CleanKill`]; the
        /// last durable prefix for [`CrashFault::TearTail`]).
        identical: bool,
        /// Whether recovery reported a torn tail.
        torn_tail: bool,
        /// Frames replayed on top of the checkpoint.
        frames_replayed: u64,
        /// Highest sequence number folded into the recovered state.
        last_seq: u64,
        /// Whether the differential audit oracle accepts the recovered
        /// placement.
        audit_clean: bool,
    },
    /// Recovery refused the journal with a typed error (the *correct*
    /// outcome for [`CrashFault::FlipBit`]).
    CorruptionDetected {
        /// The error text (includes the byte offset).
        error: String,
    },
}

/// The full result of one crash experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashVerdict {
    /// Ops the journaled prefix actually executed.
    pub ops_run: u64,
    /// The live (pre-crash) placement as serialized dump JSON.
    pub live_dump_json: String,
    /// Sequence number of the last journaled frame before the fault.
    pub journal_seq: u64,
    /// What recovery did.
    pub outcome: CrashOutcome,
}

impl CrashVerdict {
    /// Whether the experiment proved what its fault demands: byte-exact,
    /// audit-clean recovery for kills and tears; typed refusal for
    /// corruption.
    #[must_use]
    pub fn holds(&self) -> bool {
        match &self.outcome {
            CrashOutcome::Recovered { identical, audit_clean, .. } => *identical && *audit_clean,
            CrashOutcome::CorruptionDetected { .. } => true,
        }
    }
}

fn durability_err(detail: impl std::fmt::Display) -> Error {
    Error::Durability { detail: detail.to_string() }
}

/// Byte ranges of every complete frame in the log, in order.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = HEADER_LEN;
    while let FrameParse::Frame { next, .. } = frame::next_frame(bytes, pos) {
        spans.push((pos, next));
        pos = next;
    }
    spans
}

/// Runs one crash experiment in `dir` (created fresh; any previous
/// journal there is discarded).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the plan has no
/// [`LifecycleConfig::crash_at`] (the run would complete and seal, so
/// there is no crash to grade). Propagates run/journal errors from the
/// live prefix, I/O errors injecting the fault, and recovery errors
/// *other than* the corruption a [`CrashFault::FlipBit`] plan
/// deliberately provokes.
pub fn run_crash_plan(plan: &CrashPlan, dir: &Path) -> Result<CrashVerdict> {
    if plan.config.crash_at.is_none() {
        return Err(Error::invalid_config("a crash plan needs crash_at (the op to kill at)"));
    }
    // 1. The live prefix: a journaled run, killed (never sealed) after
    //    `crash_at` ops.
    let journal = Journal::create(dir, plan.config.algorithm.gamma(), FsyncPolicy::Never)?;
    let options = RunOptions { journal: Some(journal.clone()), ..RunOptions::default() };
    let (report, consolidator) = lifecycle::run(&plan.config, &options)?;
    let live_dump_json =
        serde_json::to_string(&PlacementDump::from_placement(consolidator.placement()))
            .map_err(durability_err)?;
    let journal_seq = journal.last_seq();
    drop((journal, options, consolidator));

    // 2. Preserve a pristine copy: the torn-tail grader needs the intact
    //    log to reconstruct "the state after the last surviving frame".
    let pristine = dir.join("pristine");
    fs::create_dir_all(&pristine).map_err(durability_err)?;
    for file in [WAL_FILE, cubefit_durability::CHECKPOINT_FILE] {
        let src = dir.join(file);
        if src.exists() {
            fs::copy(&src, pristine.join(file)).map_err(durability_err)?;
        }
    }

    // 3. Inject the fault.
    let wal_path = dir.join(WAL_FILE);
    let bytes = fs::read(&wal_path).map_err(durability_err)?;
    let spans = frame_spans(&bytes);
    match plan.fault {
        CrashFault::CleanKill => {}
        CrashFault::TearTail => {
            // Truncate midway through the final frame. A log with no
            // frames (killed right at a checkpoint) has nothing to tear;
            // that plan degenerates to a clean kill, which is still a
            // valid recovery case.
            if let Some(&(start, end)) = spans.last() {
                let torn_len = start + (end - start) / 2;
                fs::write(&wal_path, &bytes[..torn_len]).map_err(durability_err)?;
            }
        }
        CrashFault::FlipBit => {
            // Flip a payload bit of the FIRST frame: acknowledged
            // territory, well clear of the tail.
            if let Some(&(start, end)) = spans.first() {
                let mut damaged = bytes.clone();
                damaged
                    [start + frame::FRAME_OVERHEAD + (end - start - frame::FRAME_OVERHEAD) / 2] ^=
                    0x10;
                fs::write(&wal_path, &damaged).map_err(durability_err)?;
            }
        }
    }

    // 4. Recover and grade.
    let outcome = match recover(dir) {
        Err(e) => CrashOutcome::CorruptionDetected { error: e.to_string() },
        Ok(state) => {
            let dump_json = serde_json::to_string(&state.dump()).map_err(durability_err)?;
            let expected = match plan.fault {
                // The torn suffix was never durable: the ground truth is
                // the pristine log replayed to the same last seq.
                CrashFault::TearTail => {
                    let prefix = recover_up_to(&pristine, state.last_seq)?;
                    serde_json::to_string(&prefix.dump()).map_err(durability_err)?
                }
                _ => live_dump_json.clone(),
            };
            CrashOutcome::Recovered {
                identical: dump_json == expected,
                torn_tail: state.torn_tail,
                frames_replayed: state.frames_replayed,
                last_seq: state.last_seq,
                audit_clean: oracle::audit(&state.placement).is_ok(),
                dump_json,
            }
        }
    };

    Ok(CrashVerdict { ops_run: report.ops_run, live_dump_json, journal_seq, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::AuditPolicy;
    use crate::spec::AlgorithmSpec;
    use std::path::PathBuf;

    /// A scratch directory private to this process, removed on drop.
    struct TmpDir(PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn tmp_dir(name: &str) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("cubefit-crash-tests-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TmpDir(dir)
    }

    fn all_algorithms(gamma: usize) -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::CubeFit { gamma, classes: 5 },
            AlgorithmSpec::Rfi { gamma, mu: 0.85 },
            AlgorithmSpec::BestFit { gamma },
            AlgorithmSpec::FirstFit { gamma },
            AlgorithmSpec::WorstFit { gamma },
            AlgorithmSpec::NextFit { gamma },
            AlgorithmSpec::RandomFit { gamma, seed: 7 },
        ]
    }

    fn plan(algorithm: AlgorithmSpec, crash_at: u64, fault: CrashFault) -> CrashPlan {
        let config = LifecycleConfig {
            audit: AuditPolicy::Off, // the harness audits the recovered state itself
            checkpoint_every: 100,
            // Durability is orthogonal to robustness: weaker baselines
            // (e.g. RFI at γ = 3) legitimately trip the Theorem-1 monitor
            // under failure injection, and stopping there would cut the
            // run short of its crash point.
            fail_on_violation: false,
            crash_at: Some(crash_at),
            ..LifecycleConfig::steady(algorithm, 1_000, 23)
        };
        CrashPlan { config, fault }
    }

    #[test]
    fn clean_kill_recovers_bit_identically_for_all_algorithms() {
        for algorithm in all_algorithms(2) {
            let label = algorithm.label();
            let plan = plan(algorithm, 337, CrashFault::CleanKill);
            let verdict = run_crash_plan(&plan, &tmp_dir(&format!("kill-{label}"))).unwrap();
            assert_eq!(verdict.ops_run, 337);
            let CrashOutcome::Recovered { identical, torn_tail, audit_clean, .. } =
                &verdict.outcome
            else {
                panic!("{label}: clean kill must recover, got {:?}", verdict.outcome);
            };
            assert!(identical, "{label}: recovered state must be bit-identical");
            assert!(!torn_tail, "{label}: intact log has no torn tail");
            assert!(audit_clean, "{label}: recovered state must pass the oracle");
            assert!(verdict.holds());
        }
    }

    #[test]
    fn torn_tail_rewinds_to_the_last_durable_frame() {
        for algorithm in all_algorithms(3) {
            let label = algorithm.label();
            let plan = plan(algorithm, 251, CrashFault::TearTail);
            let verdict = run_crash_plan(&plan, &tmp_dir(&format!("tear-{label}"))).unwrap();
            let CrashOutcome::Recovered { identical, torn_tail, last_seq, audit_clean, .. } =
                &verdict.outcome
            else {
                panic!("{label}: a torn tail must still recover, got {:?}", verdict.outcome);
            };
            assert!(torn_tail, "{label}: the tear must be reported");
            assert!(*last_seq < verdict.journal_seq, "{label}: the torn frame is rewound");
            assert!(identical, "{label}: recovery must match the last durable prefix");
            assert!(audit_clean, "{label}: rewound state must pass the oracle");
            assert!(verdict.holds());
        }
    }

    #[test]
    fn flipped_bit_is_refused_with_the_byte_offset() {
        let plan = plan(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 180, CrashFault::FlipBit);
        let verdict = run_crash_plan(&plan, &tmp_dir("flip")).unwrap();
        let CrashOutcome::CorruptionDetected { error } = &verdict.outcome else {
            panic!("mid-log corruption must be refused, got {:?}", verdict.outcome);
        };
        assert!(error.contains("corrupt journal frame at byte"), "{error}");
        assert!(verdict.holds());
    }

    #[test]
    fn crashes_straddling_checkpoints_recover() {
        // Strides of 100 with crashes just before, at, and just after a
        // checkpoint boundary exercise every interleaving of "checkpoint
        // written" × "log truncated".
        for crash_at in [99, 100, 101, 250, 300] {
            let plan = plan(
                AlgorithmSpec::CubeFit { gamma: 2, classes: 5 },
                crash_at,
                CrashFault::CleanKill,
            );
            let verdict = run_crash_plan(&plan, &tmp_dir(&format!("straddle-{crash_at}"))).unwrap();
            assert!(verdict.holds(), "crash at op {crash_at}: {:?}", verdict.outcome);
        }
    }

    #[test]
    fn plans_without_a_crash_point_are_rejected() {
        let mut plan = plan(AlgorithmSpec::FirstFit { gamma: 2 }, 42, CrashFault::TearTail);
        plan.config.crash_at = None;
        let dir = tmp_dir("no-crash");
        let err = run_crash_plan(&plan, &dir).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
        assert!(!dir.exists(), "a rejected plan must not create a journal");
    }

    #[test]
    fn crash_plans_round_trip_through_json() {
        let plan = plan(AlgorithmSpec::FirstFit { gamma: 2 }, 42, CrashFault::TearTail);
        let json = serde_json::to_string(&plan).unwrap();
        let back: CrashPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
