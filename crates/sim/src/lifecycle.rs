//! The seeded lifecycle driver: arrivals, departures and server failures
//! (each immediately followed by online re-replication), with optional
//! load drift and mitigation, defragmentation epochs, rent accounting,
//! oracle audits, journaling, and failure scenarios that replay and shrink
//! to pinned regressions.
//!
//! One loop serves every use, from a 2 000-op differential fuzz to a
//! million-op soak; [`LifecycleConfig`] selects the shape:
//!
//! - [`LifecycleConfig::churn`] — a growing population, the invariant
//!   monitor after every op, and (with [`AuditPolicy::EveryMutation`])
//!   every mutation replayed against the quadratic oracle;
//! - [`LifecycleConfig::steady`] — departures ≈ arrivals so the population
//!   random-walks, the monitor at a 500-op stride, and
//!   [`AuditPolicy::Sampled`] audits that keep a million ops affordable.
//!
//! Per op, the mutations run in a fixed order: the arrival, departure or
//! failure event; the drift step and any mitigation epoch; any defrag
//! epoch; any injected fault. Only then, at the `checkpoint_every`
//! stride, does the invariant monitor grade the placement, the rent
//! ledger reconcile, a [`TraceEvent::SoakCheckpoint`] go out, and — at its
//! own stride — the journal checkpoint. The ledger also reconciles just
//! before each defrag epoch, so cost-objective planning sees current
//! leases.
//!
//! On the first audit divergence (or, with
//! [`LifecycleConfig::fail_on_violation`], the first monitor violation)
//! the run stops and hands back a [`Scenario`] — full config plus suspect
//! op window — that [`replay`] reproduces and [`shrink`] bisects down to
//! the first failing op.
//!
//! Determinism contract: a run is a pure function of its
//! [`LifecycleConfig`]. The op mix, loads and failure picks come from one
//! seeded RNG; drift draws from its own stream; audits, the monitor,
//! telemetry, rent and journaling never draw randomness. Replays and
//! shrink probes drive the same loop, so a scenario reproduces
//! byte-for-byte, and a journaled run follows the exact trajectory of an
//! unjournaled one.

use crate::spec::{AlgorithmSpec, DistributionSpec};
use cubefit_core::monitor::{classify_with, DEFAULT_AT_RISK_SLACK};
use cubefit_core::oracle::{self, AuditedConsolidator};
use cubefit_core::recovery::{self, RecoveryReport};
use cubefit_core::{BinId, Consolidator, FragmentationStats, Placement, Result, Tenant, TenantId};
use cubefit_defrag::{DefragObjective, DefragOutcome, MigrationBudget, MitigationOutcome};
use cubefit_durability::{Journal, JournaledConsolidator};
use cubefit_economics::{
    CostReport, LeaseLedger, RentConfig, LOAD_TRANSFER_SECONDS, REPLICA_RESTORE_SECONDS,
};
use cubefit_service::ShutdownFlag;
use cubefit_telemetry::{Recorder, TraceEvent};
use cubefit_workload::{DriftEngine, DriftProfile, LoadModel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic degraded-window model for one failure event: replicas are
/// rebuilt sequentially, each paying a fixed setup cost plus transfer time
/// proportional to its load. Wall-clock-free by design so runs are
/// reproducible byte-for-byte.
#[must_use]
pub fn degraded_seconds(recovery: &RecoveryReport) -> f64 {
    recovery.replicas_migrated as f64 * REPLICA_RESTORE_SECONDS
        + recovery.moved_load * LOAD_TRANSFER_SECONDS
}

/// How a run checks its placements against the from-scratch oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AuditPolicy {
    /// No oracle audits.
    Off,
    /// Every mutation runs inside [`AuditedConsolidator`], which replays
    /// it against the oracle and panics on the first divergence — the
    /// driver as a differential fuzzer. The final state is audited too.
    EveryMutation,
    /// A full oracle audit every `every` ops, on every invariant edge (the
    /// monitor's robust/at-risk/violated state changing between
    /// checkpoints), after every op inside a replay window, and of the
    /// final state. A divergence stops the run with a [`Scenario`].
    Sampled {
        /// Audit stride in ops.
        every: u64,
    },
}

/// Configuration of one run — the whole struct is the repro.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LifecycleConfig {
    /// Algorithm under test.
    pub algorithm: AlgorithmSpec,
    /// Client-count distribution for arriving tenants.
    pub distribution: DistributionSpec,
    /// Total ops (arrivals + departures + failure events).
    pub ops: u64,
    /// Seed driving the op mix, arrival loads, departure and failure picks.
    pub seed: u64,
    /// Percent of ops that are departures (when any tenant is alive).
    pub departure_percent: u32,
    /// Percent of ops that are failure events (when any tenant is alive).
    pub failure_percent: u32,
    /// Servers failed per event, clamped to `0..=γ−1` at run time. The
    /// Theorem-1 reserve only covers `γ−1` simultaneous failures, so at
    /// `γ = 1` the effective value is 0 and failure ops degrade to
    /// departures/arrivals — the model never promised to survive them.
    pub max_failures: usize,
    /// Oracle audit policy.
    pub audit: AuditPolicy,
    /// Grade the placement with the invariant monitor, reconcile rent and
    /// emit a [`TraceEvent::SoakCheckpoint`] every N ops (`0` falls back
    /// to 1 000).
    pub checkpoint_every: u64,
    /// Journal checkpoint stride for journaled runs: `None` rides
    /// [`LifecycleConfig::checkpoint_every`], `Some(0)` takes none (the
    /// log alone is replayed at recovery). Journal checkpoints write and
    /// fsync a full placement snapshot, so long runs want them far rarer
    /// than the monitor checkpoints.
    pub journal_checkpoint_every: Option<u64>,
    /// Run a defragmentation epoch every N ops (`0` disables defrag).
    pub defrag_every: u64,
    /// Migration budget for each defrag epoch.
    pub defrag_budget: MigrationBudget,
    /// What defrag epochs optimize for: open bins, or dollars (the cost
    /// objective needs [`LifecycleConfig::rent`]; without a ledger it
    /// falls back to bin count).
    pub defrag_objective: DefragObjective,
    /// Per-tenant load drift between ops (`None` keeps loads static).
    pub drift: Option<DriftConfig>,
    /// Renting model (`None` keeps servers free to hold open). Each op
    /// advances simulated time by `rent.ms_per_op`, and the lease ledger
    /// bills every open server in blocks. The ledger reconciles at the
    /// checkpoint stride and before each defrag epoch, so a server that
    /// opens and closes entirely between two reconciliations is never
    /// billed — documented imprecision that keeps the loop O(1)
    /// amortized per op.
    pub rent: Option<RentConfig>,
    /// Deliberately break Theorem 1 at this op by re-estimating a few
    /// tenants to full-server load — the hook proving the
    /// scenario/replay/shrink loop finds real injected faults.
    pub inject_at: Option<u64>,
    /// Whether a monitor-detected violation stops the run with a
    /// [`Scenario`]. Keep `true` for static loads, where a violation is
    /// always a bug; drifted runs expect transient violations.
    pub fail_on_violation: bool,
    /// Stop dead after this many ops without sealing the journal — the
    /// state a process killed at that op leaves on disk, which `cubefit
    /// recover` must reconstruct.
    pub crash_at: Option<u64>,
}

/// Load-drift settings: how tenant loads evolve, how often a mitigation
/// epoch runs, and under what migration budget.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftConfig {
    /// How tracked client counts evolve each op.
    pub profile: DriftProfile,
    /// Run a mitigation epoch (monitor + plan + atomic apply) every N ops;
    /// `0` leaves drift unmitigated (the monitor still records violations).
    pub mitigate_every: usize,
    /// Migration budget for each mitigation epoch.
    pub budget: MigrationBudget,
    /// Margin below which the invariant monitor flags a server as at risk.
    pub at_risk_slack: f64,
}

impl DriftConfig {
    /// A symmetric client-count random walk with no mitigation — the
    /// "watch it break" configuration.
    #[must_use]
    pub fn random_walk(max_step: u32) -> Self {
        DriftConfig {
            profile: DriftProfile::RandomWalk { max_step },
            mitigate_every: 0,
            budget: MigrationBudget::unlimited(),
            at_risk_slack: DEFAULT_AT_RISK_SLACK,
        }
    }

    /// The same walk with a mitigation epoch every `every` ops.
    #[must_use]
    pub fn mitigated(max_step: u32, every: usize, budget: MigrationBudget) -> Self {
        DriftConfig { mitigate_every: every, budget, ..DriftConfig::random_walk(max_step) }
    }
}

impl LifecycleConfig {
    /// Churn defaults: 25% departures, 10% failure events (so the
    /// population grows), the monitor after every op, no audits, and no
    /// intermediate journal checkpoints.
    #[must_use]
    pub fn churn(algorithm: AlgorithmSpec, ops: u64, seed: u64) -> Self {
        LifecycleConfig {
            departure_percent: 25,
            failure_percent: 10,
            audit: AuditPolicy::Off,
            checkpoint_every: 1,
            journal_checkpoint_every: Some(0),
            fail_on_violation: false,
            ..LifecycleConfig::steady(algorithm, ops, seed)
        }
    }

    /// Steady-state defaults: arrivals ≈ departures (47% each), 6%
    /// failure events, audits every 1 000 ops, checkpoints every 500.
    #[must_use]
    pub fn steady(algorithm: AlgorithmSpec, ops: u64, seed: u64) -> Self {
        LifecycleConfig {
            max_failures: algorithm.gamma().saturating_sub(1),
            algorithm,
            distribution: DistributionSpec::Uniform { min: 1, max: 15 },
            ops,
            seed,
            departure_percent: 47,
            failure_percent: 6,
            audit: AuditPolicy::Sampled { every: 1_000 },
            checkpoint_every: 500,
            journal_checkpoint_every: None,
            defrag_every: 0,
            defrag_budget: MigrationBudget::default(),
            defrag_objective: DefragObjective::Bins,
            drift: None,
            rent: None,
            inject_at: None,
            fail_on_violation: true,
            crash_at: None,
        }
    }

    fn checkpoint_stride(&self) -> u64 {
        if self.checkpoint_every == 0 {
            1_000
        } else {
            self.checkpoint_every
        }
    }
}

/// Wiring for one run: where telemetry goes, what stops it early, and
/// what journals it. The default is a disabled recorder, a shutdown flag
/// nothing trips, and no journal.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Receives the run's trace events and metrics.
    pub recorder: Recorder,
    /// Polled between ops (between events for serve runs): when it trips
    /// (Ctrl-C in the CLI), the run stops cleanly, the report covers the
    /// work done so far, and `interrupted` is set.
    pub shutdown: ShutdownFlag,
    /// Journals every mutation before acknowledgement. The journal is
    /// sealed when the run finishes — on a cooperative shutdown too — so
    /// an unsealed journal on disk always means the process was killed.
    pub journal: Option<Journal>,
}

/// Mutable renting state threaded through the loop: the live lease
/// ledger plus the migration spend, predicted-vs-realized defrag savings,
/// and demand integrals accumulated so far.
#[derive(Debug, Clone)]
struct RentState {
    config: RentConfig,
    ledger: LeaseLedger,
    defrag_migration_usd: f64,
    recovery_migration_usd: f64,
    predicted_savings_usd: f64,
    realized_savings_usd: f64,
    load_ms_integral: f64,
    need_ms_integral: f64,
    /// Ops the ledger clock has advanced through.
    billed_ops: u64,
}

impl RentState {
    fn new(config: RentConfig) -> Self {
        RentState {
            ledger: LeaseLedger::new(config.terms),
            config,
            defrag_migration_usd: 0.0,
            recovery_migration_usd: 0.0,
            predicted_savings_usd: 0.0,
            realized_savings_usd: 0.0,
            load_ms_integral: 0.0,
            need_ms_integral: 0.0,
            billed_ops: 0,
        }
    }

    /// Advances the clock through op `ops_done`, accumulates the demand
    /// integrals over the elapsed interval, and reconciles the ledger
    /// against the currently open bins, emitting
    /// [`TraceEvent::RentAccrued`] when new blocks were billed.
    fn reconcile(&mut self, ops_done: u64, placement: &Placement, recorder: &Recorder) {
        let dt_ms = (ops_done - self.billed_ops) * self.config.ms_per_op;
        self.billed_ops = ops_done;
        let load = placement.total_load();
        self.load_ms_integral += load * dt_ms as f64;
        self.need_ms_integral += load.ceil() * dt_ms as f64;
        let now = self.ledger.now_ms() + dt_ms;
        let open = placement.bins().filter(|b| b.level() > 0.0).map(|b| b.id());
        let billed = self.ledger.advance(now, open);
        if billed > 0 {
            recorder.emit(|| TraceEvent::RentAccrued {
                now_ms: now,
                blocks: billed,
                open_servers: self.ledger.active_leases(),
                accrued_usd: self.ledger.accrued_usd(),
            });
        }
    }

    /// Prices planner-driven (defrag/mitigation) migration streaming.
    fn price_moves(&mut self, replicas: usize, moved_load: f64) {
        self.defrag_migration_usd += self.config.pricing.migration_usd(replicas, moved_load);
    }

    fn report(&self) -> CostReport {
        CostReport::from_ledger(
            &self.ledger,
            self.config.ms_per_op,
            self.defrag_migration_usd,
            self.recovery_migration_usd,
            self.predicted_savings_usd,
            self.realized_savings_usd,
            self.load_ms_integral,
            self.need_ms_integral,
        )
    }
}

/// One defragmentation epoch, as it happened.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DefragEpoch {
    /// Zero-based op index after which the epoch ran.
    pub at_op: u64,
    /// Steps the planner scheduled.
    pub planned_steps: usize,
    /// What applying the plan actually did (atomic abort included).
    pub outcome: DefragOutcome,
    /// Open bins before the epoch.
    pub open_bins_before: usize,
    /// Open bins after the epoch.
    pub open_bins_after: usize,
}

/// One invariant-mitigation epoch, as it happened. Epochs where the
/// monitor found nothing to repair are not recorded.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MitigationEpoch {
    /// Zero-based op index after which the epoch ran.
    pub at_op: u64,
    /// Servers the monitor flagged (violated + at risk) at planning time.
    pub attention_before: usize,
    /// Servers violated at planning time.
    pub violated_before: usize,
    /// Steps the planner scheduled under the epoch budget.
    pub planned_steps: usize,
    /// What applying the plan actually did, including the honest residue.
    pub outcome: MitigationOutcome,
}

/// First failure a run (or replay) hit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunFailure {
    /// Op index (0-based) at which the failure was detected.
    pub op: u64,
    /// What failed: audit divergences or monitor violations.
    pub reason: String,
}

/// A compact, replayable repro: the config (with its seed) plus the op
/// window suspected to contain the fault. Written to disk by `cubefit
/// soak` on failure; consumed by `cubefit replay`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// Full run configuration (a pure function of which is the run).
    pub config: LifecycleConfig,
    /// First op of the suspect window (the last op known clean, plus 1,
    /// saturating to 0).
    pub window_lo: u64,
    /// Last op of the suspect window (the op the failure was detected at).
    pub window_hi: u64,
    /// What the original run reported.
    pub reason: String,
}

impl Scenario {
    /// Pretty JSON for the scenario file.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }

    /// Parses a scenario file.
    ///
    /// # Errors
    ///
    /// Returns the deserialization error text for malformed files.
    pub fn from_json(text: &str) -> std::result::Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad scenario file: {e}"))
    }
}

/// Everything a run produced, JSON-serializable for reports.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LifecycleReport {
    /// Algorithm label.
    pub algorithm: String,
    /// Replication factor.
    pub gamma: usize,
    /// Seed that reproduces the run.
    pub seed: u64,
    /// Ops requested.
    pub ops_requested: u64,
    /// Ops actually executed (fewer when the run failed, crashed or was
    /// interrupted).
    pub ops_run: u64,
    /// Tenant arrivals.
    pub arrivals: u64,
    /// Tenant departures.
    pub departures: u64,
    /// Total load removed by departures.
    pub departed_load: f64,
    /// Server-failure events. Each one streams as
    /// [`TraceEvent::ServersFailed`] + [`TraceEvent::RecoveryCompleted`].
    pub failure_events: u64,
    /// Failure events after whose recovery Theorem 1 did not hold.
    pub non_robust_recoveries: u64,
    /// Run-level aggregate recovery cost.
    pub recovery: RecoveryReport,
    /// Sum of all degraded windows (modeled seconds).
    pub degraded_seconds_total: f64,
    /// Longest single degraded window (modeled seconds).
    pub degraded_seconds_max: f64,
    /// Each defragmentation epoch in order (empty when defrag is off).
    pub defrag_epochs: Vec<DefragEpoch>,
    /// Servers closed by defragmentation across the whole run.
    pub servers_closed_by_defrag: usize,
    /// Load-drift updates applied through `Consolidator::update_load`.
    pub drift_updates: u64,
    /// Servers the invariant monitor newly caught in violation (each
    /// emitted once as [`TraceEvent::InvariantViolated`]).
    pub drift_violations: u64,
    /// Each mitigation epoch that found work, in order.
    pub mitigation_epochs: Vec<MitigationEpoch>,
    /// Flagged servers restored to safe margins by mitigation, run-wide.
    pub servers_cured_by_mitigation: usize,
    /// Sampled + edge audits run (excluding the final full audit).
    pub audits: u64,
    /// Audits that found divergences.
    pub audit_failures: u64,
    /// Checkpoints emitted.
    pub checkpoints: u64,
    /// Tenants alive at the end.
    pub final_tenants: usize,
    /// Servers in use at the end.
    pub final_open_bins: usize,
    /// Total placed load at the end.
    pub final_load: f64,
    /// Fragmentation statistics of the final placement.
    pub fragmentation: FragmentationStats,
    /// Servers violated in the final placement (monitor view).
    pub final_violated: usize,
    /// Servers at risk in the final placement (monitor view).
    pub final_at_risk: usize,
    /// Whether the final placement satisfies Theorem 1.
    pub robust: bool,
    /// Divergences the final full audit found (`None` when audits are off
    /// or the run stopped early).
    pub final_audit_divergences: Option<usize>,
    /// True when the run was cut short by a shutdown request.
    pub interrupted: bool,
    /// First failure, when the run did not stay clean.
    pub failure: Option<RunFailure>,
    /// Replayable repro for the failure, when there is one.
    pub scenario: Option<Scenario>,
    /// Renting economics, when [`LifecycleConfig::rent`] was set.
    pub cost: Option<CostReport>,
}

impl LifecycleReport {
    fn new(config: &LifecycleConfig) -> Self {
        LifecycleReport {
            algorithm: config.algorithm.label(),
            gamma: config.algorithm.gamma(),
            seed: config.seed,
            ops_requested: config.ops,
            ops_run: 0,
            arrivals: 0,
            departures: 0,
            departed_load: 0.0,
            failure_events: 0,
            non_robust_recoveries: 0,
            recovery: RecoveryReport::default(),
            degraded_seconds_total: 0.0,
            degraded_seconds_max: 0.0,
            defrag_epochs: Vec::new(),
            servers_closed_by_defrag: 0,
            drift_updates: 0,
            drift_violations: 0,
            mitigation_epochs: Vec::new(),
            servers_cured_by_mitigation: 0,
            audits: 0,
            audit_failures: 0,
            checkpoints: 0,
            final_tenants: 0,
            final_open_bins: 0,
            final_load: 0.0,
            fragmentation: FragmentationStats {
                open_bins: 0,
                total_load: 0.0,
                mean_fill: 0.0,
                p10_fill: 0.0,
                fragmentation_ratio: 1.0,
            },
            final_violated: 0,
            final_at_risk: 0,
            robust: false,
            final_audit_divergences: None,
            interrupted: false,
            failure: None,
            scenario: None,
            cost: None,
        }
    }

    /// Pretty JSON rendering for the CLI.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }

    /// Records the first failure and its replayable scenario. The window
    /// opens just past the last checkpoint the monitor graded clean (op 0
    /// when there was none) and closes at the detection op.
    fn fail(&mut self, config: &LifecycleConfig, op: u64, last_clean_op: u64, reason: String) {
        if self.failure.is_some() {
            return;
        }
        self.failure = Some(RunFailure { op, reason: reason.clone() });
        let window_lo = if last_clean_op == 0 { 0 } else { (last_clean_op + 1).min(op) };
        self.scenario = Some(Scenario { config: config.clone(), window_lo, window_hi: op, reason });
    }
}

/// Runs one lifecycle experiment and hands back the consolidator in its
/// final state, so callers (e.g. `cubefit defrag`) can keep mutating the
/// placement the report describes. A journaled run seals its journal on
/// return unless [`LifecycleConfig::crash_at`] asked for a simulated kill.
///
/// # Errors
///
/// Propagates algorithm construction, mutation, and journal I/O errors.
/// A detected invariant or audit failure is NOT an error: it is reported
/// in [`LifecycleReport::failure`] with a replayable scenario.
pub fn run(
    config: &LifecycleConfig,
    options: &RunOptions,
) -> Result<(LifecycleReport, Box<dyn Consolidator>)> {
    let outcome = drive(config, options, u64::MAX, None)?;
    if let (Some(journal), None) = (&options.journal, config.crash_at) {
        journal.seal()?;
    }
    Ok(outcome)
}

/// Replays a scenario: re-runs the deterministic prefix up to
/// `window_hi`, grading after every op inside the window, and returns the
/// first failure found (or `None` if the scenario does not reproduce).
///
/// # Errors
///
/// Propagates algorithm construction and mutation errors.
pub fn replay(scenario: &Scenario) -> Result<Option<RunFailure>> {
    let (report, _) = drive(
        &scenario.config,
        &RunOptions::default(),
        scenario.window_hi.saturating_add(1),
        Some((scenario.window_lo, scenario.window_hi)),
    )?;
    Ok(report.failure)
}

/// Outcome of shrinking a scenario.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShrinkOutcome {
    /// The minimal pinned regression: a one-op window containing the
    /// first op whose prefix fails.
    pub pinned: Scenario,
    /// The failure the pinned op produces.
    pub failure: RunFailure,
    /// Replay probes the bisection spent.
    pub probes: u32,
}

/// Bisects a scenario's op window down to the first failing op.
///
/// The predicate "replaying ops `0..=n` (checking inside
/// `[window_lo, n]`) fails" is monotone in `n` — checks never mutate
/// state, so a failure detected at op `k` is detected by every probe with
/// `n ≥ k` — which makes binary search sound.
///
/// # Errors
///
/// Returns an error string when the scenario does not reproduce at its
/// own upper bound (a stale or corrupted scenario file), and propagates
/// mutation errors.
pub fn shrink(scenario: &Scenario) -> std::result::Result<ShrinkOutcome, String> {
    let probe = |n: u64| -> std::result::Result<Option<RunFailure>, String> {
        replay(&Scenario { window_hi: n, ..scenario.clone() }).map_err(|e| e.to_string())
    };

    let mut probes = 1u32;
    let Some(mut failure) = probe(scenario.window_hi)? else {
        return Err(format!(
            "scenario does not reproduce: replay of ops {}..={} found no failure",
            scenario.window_lo, scenario.window_hi
        ));
    };

    // Invariant: P(hi) fails (with `failure` its report), P(lo − 1) is
    // unknown-but-assumed-clean below window_lo.
    let mut lo = scenario.window_lo;
    let mut hi = failure.op;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        match probe(mid)? {
            Some(found) => {
                hi = found.op.min(mid);
                failure = found;
            }
            None => lo = mid + 1,
        }
    }

    Ok(ShrinkOutcome {
        pinned: Scenario {
            config: scenario.config.clone(),
            window_lo: hi,
            window_hi: hi,
            reason: failure.reason.clone(),
        },
        failure,
        probes,
    })
}

/// The one loop behind [`run`], [`replay`] and [`shrink`] probes.
/// `limit` caps the ops executed; inside `window` the monitor grades (and
/// sampled audits check) after every op.
#[allow(clippy::too_many_lines)]
fn drive(
    config: &LifecycleConfig,
    options: &RunOptions,
    limit: u64,
    window: Option<(u64, u64)>,
) -> Result<(LifecycleReport, Box<dyn Consolidator>)> {
    let recorder = &options.recorder;
    let mut consolidator: Box<dyn Consolidator> = if config.audit == AuditPolicy::EveryMutation {
        Box::new(AuditedConsolidator::new(config.algorithm.build()?))
    } else {
        config.algorithm.build()?
    };
    consolidator.set_recorder(recorder.clone());
    if let Some(journal) = &options.journal {
        consolidator = Box::new(JournaledConsolidator::new(consolidator, journal.clone()));
    }

    let model = LoadModel::tpch_xeon();
    let distribution = config.distribution.build(model.max_clients());
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    // Drift draws from its own seeded stream so enabling it never perturbs
    // the op mix: a drifted run replays the exact arrival/departure/failure
    // sequence of its static twin.
    let mut drift = config.drift.map(|d| {
        (d, DriftEngine::new(model, d.profile, config.seed.wrapping_add(0x9e37_79b9_7f4a_7c15)))
    });
    let mut rent = config.rent.map(RentState::new);
    let mut report = LifecycleReport::new(config);

    let slack = config.drift.map_or(DEFAULT_AT_RISK_SLACK, |d| d.at_risk_slack);
    let checkpoint_stride = config.checkpoint_stride();
    let journal_stride = config.journal_checkpoint_every.unwrap_or(checkpoint_stride);
    let audit_every = match config.audit {
        AuditPolicy::Sampled { every } => every,
        AuditPolicy::Off | AuditPolicy::EveryMutation => 0,
    };
    let effective_failures = config.max_failures.min(report.gamma.saturating_sub(1));
    let depart_band = config.failure_percent + config.departure_percent;
    let total = config.ops.min(limit).min(config.crash_at.unwrap_or(u64::MAX));

    let mut alive: Vec<TenantId> = Vec::new();
    let mut next_id: u64 = 0;
    let mut known_violated: Vec<BinId> = Vec::new();
    // Invariant-edge detection: 0 = robust, 1 = at risk, 2 = violated.
    let mut last_state: u8 = 0;
    let mut last_clean_op: u64 = 0;

    for op in 0..total {
        if options.shutdown.is_set() {
            report.interrupted = true;
            break;
        }
        let roll = rng.gen_range(0..100u32);
        // `alive` non-empty ⇔ some bin is loaded (every live tenant keeps
        // γ positive-load replicas), so the O(bins) loaded-bin scan only
        // runs on ops that actually fail servers.
        if roll < config.failure_percent && effective_failures > 0 && !alive.is_empty() {
            let loaded_bins: Vec<BinId> = consolidator
                .placement()
                .bins()
                .filter(|bin| bin.level() > 0.0)
                .map(|bin| bin.id())
                .collect();
            let recovered = fail_and_recover(
                &mut *consolidator,
                &loaded_bins,
                effective_failures,
                &mut rng,
                recorder,
            )?;
            let window = degraded_seconds(&recovered);
            report.failure_events += 1;
            if !consolidator.placement().is_robust() {
                report.non_robust_recoveries += 1;
            }
            report.recovery.absorb(&recovered);
            report.degraded_seconds_total += window;
            report.degraded_seconds_max = report.degraded_seconds_max.max(window);
            if let Some(state) = rent.as_mut() {
                state.recovery_migration_usd += state
                    .config
                    .pricing
                    .migration_usd(recovered.replicas_migrated, recovered.moved_load);
            }
        } else if roll < depart_band && !alive.is_empty() {
            let tenant = alive.swap_remove(rng.gen_range(0..alive.len()));
            let outcome = consolidator.remove(tenant)?;
            if let Some((_, engine)) = drift.as_mut() {
                engine.forget(tenant);
            }
            report.departures += 1;
            report.departed_load += outcome.load;
        } else {
            let clients = distribution.sample_clients(&mut rng);
            let tenant = Tenant::new(TenantId::new(next_id), model.load(clients));
            next_id += 1;
            consolidator.place(tenant)?;
            if let Some((_, engine)) = drift.as_mut() {
                engine.track(tenant.id(), clients);
            }
            alive.push(tenant.id());
            report.arrivals += 1;
        }
        report.ops_run = op + 1;

        if let Some((settings, engine)) = drift.as_mut() {
            for update in engine.step() {
                let outcome = consolidator.update_load(update.tenant, update.load)?;
                recorder.emit(|| TraceEvent::LoadDrifted {
                    tenant: update.tenant.get(),
                    old_load: outcome.old_load,
                    new_load: outcome.new_load,
                    at: update.at,
                });
                report.drift_updates += 1;
            }
            if settings.mitigate_every > 0 && (op + 1) % settings.mitigate_every as u64 == 0 {
                let plan = cubefit_defrag::plan_mitigation_with(
                    consolidator.placement(),
                    settings.budget,
                    settings.at_risk_slack,
                );
                if plan.attention_before > 0 {
                    let outcome =
                        cubefit_defrag::apply_mitigation(&mut *consolidator, &plan, recorder)?;
                    report.servers_cured_by_mitigation += outcome.cured;
                    if let Some(state) = rent.as_mut() {
                        state.price_moves(outcome.applied_steps, outcome.moved_load);
                    }
                    report.mitigation_epochs.push(MitigationEpoch {
                        at_op: op,
                        attention_before: plan.attention_before,
                        violated_before: plan.violated_before,
                        planned_steps: plan.steps.len(),
                        outcome,
                    });
                }
            }
        }

        if config.defrag_every > 0 && (op + 1) % config.defrag_every == 0 {
            // Cost-objective planning consults the ledger, so reconcile
            // it up to the current op before the epoch runs.
            if let Some(state) = rent.as_mut() {
                state.reconcile(op + 1, consolidator.placement(), recorder);
            }
            let epoch = defrag_epoch(
                &mut *consolidator,
                config.defrag_budget,
                op,
                recorder,
                config.defrag_objective,
                rent.as_mut(),
            )?;
            report.servers_closed_by_defrag += epoch.outcome.servers_closed;
            report.defrag_epochs.push(epoch);
        }

        // Deliberate fault injection: re-estimate the three lowest-id
        // alive tenants to full-server load. A legal mutation (drift
        // tracks reality) that puts every hosting bin past the Theorem-1
        // margin. The inflated tenants leave the departure pool so the
        // fault persists until a checkpoint catches it — a runaway
        // workload, not a blip that self-heals before detection.
        if config.inject_at == Some(op) {
            let mut targets: Vec<TenantId> = alive.clone();
            targets.sort_unstable();
            for tenant in targets.into_iter().take(3) {
                consolidator.update_load(tenant, 1.0)?;
                alive.retain(|&t| t != tenant);
            }
        }

        let in_window = window.is_some_and(|(lo, hi)| (lo..=hi).contains(&op));
        let at_checkpoint = (op + 1) % checkpoint_stride == 0 || op + 1 == total;

        // Invariant monitor: every op inside a replay window, else at the
        // checkpoint stride.
        let mut edge = false;
        if in_window || at_checkpoint {
            let monitor = classify_with(consolidator.placement(), slack);
            // Emit each violated server once, when the monitor first
            // catches it; a server that recovers and relapses is emitted
            // again.
            for &(bin, deficit) in &monitor.violated {
                if !known_violated.contains(&bin) {
                    recorder.emit(|| TraceEvent::InvariantViolated {
                        bin: bin.index(),
                        level: consolidator.placement().level(bin),
                        deficit,
                    });
                    report.drift_violations += 1;
                }
            }
            known_violated = monitor.violated.iter().map(|&(bin, _)| bin).collect();
            let state = if !monitor.violated.is_empty() {
                2u8
            } else if !monitor.at_risk.is_empty() {
                1
            } else {
                0
            };
            edge = state != last_state;
            last_state = state;

            if at_checkpoint {
                if let Some(state) = rent.as_mut() {
                    state.reconcile(op + 1, consolidator.placement(), recorder);
                }
                let placement = consolidator.placement();
                recorder.emit(|| TraceEvent::SoakCheckpoint {
                    op,
                    tenants: placement.tenant_count(),
                    open_bins: placement.open_bins(),
                    fragmentation: placement.fragmentation().fragmentation_ratio,
                    at_risk: monitor.at_risk.len(),
                    violated: monitor.violated.len(),
                });
                report.checkpoints += 1;
            }

            // Journal checkpoints ride their own stride, and only the
            // *strict* stride — the `op + 1 == total` tail checkpoint is
            // skipped so a crash-capped run leaves its journal exactly as
            // a mid-run kill would.
            if journal_stride > 0 && (op + 1) % journal_stride == 0 {
                if let Some(journal) = &options.journal {
                    let info = journal.checkpoint(consolidator.placement())?;
                    let tenants = consolidator.placement().tenant_count();
                    recorder.emit(|| TraceEvent::JournalCheckpoint {
                        seq: info.seq,
                        tenants,
                        wal_bytes: info.wal_bytes,
                    });
                }
            }

            if config.fail_on_violation && !monitor.violated.is_empty() {
                report.fail(
                    config,
                    op,
                    last_clean_op,
                    format!(
                        "invariant violated: {} server(s) past the Theorem-1 margin \
                         (worst deficit {:.6})",
                        monitor.violated.len(),
                        monitor.violated.first().map_or(0.0, |&(_, d)| d),
                    ),
                );
                break;
            }
            if state == 0 && !in_window {
                last_clean_op = op;
            }
        }

        // Sampled oracle audit: at the stride, on every invariant edge,
        // and per-op inside a replay window.
        if audit_every > 0 && (in_window || edge || (op + 1) % audit_every == 0) {
            let divergences =
                oracle::audit(consolidator.placement()).map_or_else(|l| l.len(), |()| 0);
            report.audits += 1;
            recorder.emit(|| TraceEvent::AuditCompleted { op, divergences, full: false });
            if divergences > 0 {
                report.audit_failures += 1;
                report.fail(
                    config,
                    op,
                    last_clean_op,
                    format!("oracle audit found {divergences} divergence(s)"),
                );
                break;
            }
        }
    }

    let placement = consolidator.placement();
    report.final_tenants = placement.tenant_count();
    report.final_open_bins = placement.open_bins();
    report.final_load = placement.total_load();
    report.fragmentation = placement.fragmentation();
    let monitor = classify_with(placement, slack);
    report.final_violated = monitor.violated.len();
    report.final_at_risk = monitor.at_risk.len();
    report.robust = placement.is_robust();
    report.cost = rent.as_ref().map(RentState::report);

    // Full audit of the final state — only when the run survived to the
    // end with audits enabled (a failed run already carries its repro).
    if config.audit != AuditPolicy::Off && report.failure.is_none() && report.ops_run == config.ops
    {
        let divergences = oracle::audit(placement).map_or_else(|l| l.len(), |()| 0);
        report.final_audit_divergences = Some(divergences);
        let at_op = report.ops_run.saturating_sub(1);
        recorder.emit(|| TraceEvent::AuditCompleted { op: at_op, divergences, full: true });
        if divergences > 0 {
            report.audit_failures += 1;
            report.fail(
                config,
                at_op,
                last_clean_op,
                format!("final full audit found {divergences} divergence(s)"),
            );
        }
    }
    Ok((report, consolidator))
}

/// Plans and atomically applies one defragmentation pass. Under
/// [`AuditPolicy::EveryMutation`] every migration it applies is replayed
/// against the oracle. With the cost objective and a live rent ledger,
/// planning goes through [`cubefit_defrag::plan_economic`] — drains taken
/// only when profitable, predicted-vs-realized savings settled into the
/// rent state; the cost objective without a ledger falls back to bin
/// count.
fn defrag_epoch(
    consolidator: &mut dyn Consolidator,
    budget: MigrationBudget,
    at_op: u64,
    recorder: &Recorder,
    objective: DefragObjective,
    mut rent: Option<&mut RentState>,
) -> Result<DefragEpoch> {
    let open_bins_before = consolidator.placement().open_bins();
    let (planned_steps, outcome) = if let (DefragObjective::Cost { horizon_ms }, Some(state)) =
        (objective, rent.as_deref_mut())
    {
        let plan = cubefit_defrag::plan_economic(
            consolidator.placement(),
            budget,
            &state.ledger,
            &state.config.pricing,
            horizon_ms,
        );
        let outcome = cubefit_defrag::apply_economic(
            consolidator,
            &plan,
            &state.ledger,
            &state.config.pricing,
            recorder,
        )?;
        if let (Some(forecast), Some(econ)) = (plan.economics, outcome.economics) {
            state.predicted_savings_usd += forecast.net_usd;
            state.realized_savings_usd += econ.realized_net_usd;
        }
        (plan.steps.len(), outcome)
    } else {
        let plan = cubefit_defrag::plan(consolidator.placement(), budget);
        let outcome = cubefit_defrag::apply(consolidator, &plan, recorder)?;
        (plan.steps.len(), outcome)
    };
    if let Some(state) = rent {
        state.price_moves(outcome.applied_steps, outcome.moved_load);
    }
    Ok(DefragEpoch {
        at_op,
        planned_steps,
        outcome,
        open_bins_before,
        open_bins_after: consolidator.placement().open_bins(),
    })
}

/// Fails up to `max_failures` distinct loaded bins and immediately runs
/// online re-replication, emitting the failure/recovery trace events.
fn fail_and_recover(
    consolidator: &mut dyn Consolidator,
    loaded_bins: &[BinId],
    max_failures: usize,
    rng: &mut ChaCha8Rng,
    recorder: &Recorder,
) -> Result<RecoveryReport> {
    let count = rng.gen_range(1..=max_failures.min(loaded_bins.len()));
    let mut pool: Vec<BinId> = loaded_bins.to_vec();
    let mut failed: Vec<BinId> = Vec::with_capacity(count);
    for _ in 0..count {
        failed.push(pool.swap_remove(rng.gen_range(0..pool.len())));
    }
    failed.sort_unstable();

    let orphaned = recovery::orphans(consolidator.placement(), &failed).len();
    recorder.emit(|| TraceEvent::ServersFailed {
        bins: failed.iter().map(|b| b.index()).collect(),
        orphaned,
    });
    let recovered = consolidator.recover(&failed)?;
    recorder.emit(|| TraceEvent::RecoveryCompleted {
        replicas_migrated: recovered.replicas_migrated,
        moved_load: recovered.moved_load,
        bins_opened: recovered.bins_opened,
    });
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_telemetry::VecSink;
    use std::sync::Arc;

    fn run_plain(config: &LifecycleConfig) -> LifecycleReport {
        run(config, &RunOptions::default()).unwrap().0
    }

    fn traced(config: &LifecycleConfig) -> (LifecycleReport, Vec<TraceEvent>) {
        let sink = Arc::new(VecSink::new());
        let recorder = Recorder::with_sink(Arc::clone(&sink));
        let (report, _) = run(config, &RunOptions { recorder, ..RunOptions::default() }).unwrap();
        (report, sink.events())
    }

    fn count(events: &[TraceEvent], pred: impl Fn(&TraceEvent) -> bool) -> u64 {
        events.iter().filter(|e| pred(e)).count() as u64
    }

    /// The audited churn shape: every mutation replayed against the oracle.
    fn churn(algorithm: AlgorithmSpec, seed: u64) -> LifecycleConfig {
        LifecycleConfig {
            audit: AuditPolicy::EveryMutation,
            ..LifecycleConfig::churn(algorithm, 120, seed)
        }
    }

    fn steady(ops: u64, seed: u64) -> LifecycleConfig {
        LifecycleConfig {
            audit: AuditPolicy::Sampled { every: 200 },
            checkpoint_every: 100,
            ..LifecycleConfig::steady(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, ops, seed)
        }
    }

    fn all_algorithms(gamma: usize) -> [AlgorithmSpec; 7] {
        [
            AlgorithmSpec::CubeFit { gamma, classes: 5 },
            AlgorithmSpec::Rfi { gamma, mu: 0.85 },
            AlgorithmSpec::BestFit { gamma },
            AlgorithmSpec::FirstFit { gamma },
            AlgorithmSpec::WorstFit { gamma },
            AlgorithmSpec::NextFit { gamma },
            AlgorithmSpec::RandomFit { gamma, seed: 9 },
        ]
    }

    #[test]
    fn tripped_shutdown_flag_stops_the_run_with_a_partial_report() {
        let flag = ShutdownFlag::new();
        flag.trigger();
        let tripped = RunOptions { shutdown: flag, ..RunOptions::default() };
        for config in [churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 7), steady(2_000, 11)]
        {
            let (report, _) = run(&config, &tripped).unwrap();
            assert!(report.interrupted);
            assert_eq!(report.ops_run, 0, "flag was set before the first op");
            assert!(report.failure.is_none());
            assert!(report.final_audit_divergences.is_none(), "final audit skipped when cut short");
            // An untripped flag changes nothing.
            assert_eq!(run_plain(&config).ops_run, config.ops);
        }
    }

    #[test]
    fn journaled_runs_match_seal_and_recover() {
        let root =
            std::env::temp_dir().join(format!("cubefit-lifecycle-tests-{}", std::process::id()));
        for (name, config) in [
            ("churn", churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 7)),
            ("steady", steady(800, 5)),
        ] {
            let dir = root.join(name);
            let _ = std::fs::remove_dir_all(&dir);
            let journal = Journal::create(
                &dir,
                config.algorithm.gamma(),
                cubefit_durability::FsyncPolicy::Never,
            )
            .unwrap();
            let options = RunOptions { journal: Some(journal), ..RunOptions::default() };
            let (journaled, consolidator) = run(&config, &options).unwrap();
            // Journaling is an observer: the report is identical...
            assert_eq!(journaled, run_plain(&config));
            // ...the journal is sealed, and recovery is bit-identical to the
            // live final placement.
            let state = cubefit_durability::recover(&dir).unwrap();
            assert!(state.sealed, "a finished run must seal its journal");
            let live = serde_json::to_string(&cubefit_core::PlacementDump::from_placement(
                consolidator.placement(),
            ))
            .unwrap();
            assert_eq!(serde_json::to_string(&state.dump()).unwrap(), live);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn churn_is_deterministic_for_a_seed() {
        let config = churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 7);
        let a = run_plain(&config);
        assert_eq!(a, run_plain(&config));
        assert_eq!(a.arrivals + a.departures + a.failure_events, config.ops);
        assert_eq!(a.checkpoints, config.ops, "the churn preset grades every op");
    }

    /// Regression: seed 9 at γ = 3 used to leave 11 of 96 failure events
    /// non-robust — after a recovery migrated replicas, stage-2 cube-slot
    /// assignments landed on perturbed bins without a feasibility check and
    /// broke Theorem 1 by ~5e-2. Every recovery must now end robust.
    #[test]
    fn stage2_placements_after_recovery_stay_robust() {
        let config = LifecycleConfig {
            ops: 800,
            ..churn(AlgorithmSpec::CubeFit { gamma: 3, classes: 5 }, 9)
        };
        let report = run_plain(&config);
        assert!(report.failure_events > 0);
        assert_eq!(report.non_robust_recoveries, 0, "non-robust recoveries");
        assert!(report.robust);
    }

    #[test]
    fn gamma1_defaults_to_zero_failures_and_zero_skips_failure_ops() {
        // Regression: the presets used to clamp `max_failures` to `.max(1)`,
        // and the run loop's `clamp(1, gamma - 1)` forced ≥1 failure per
        // event — at γ = 1 that fails a server against an empty reserve.
        let gamma1 = AlgorithmSpec::CubeFit { gamma: 1, classes: 5 };
        assert_eq!(LifecycleConfig::churn(gamma1.clone(), 50, 3).max_failures, 0);
        assert_eq!(LifecycleConfig::steady(gamma1, 50, 3).max_failures, 0);
        // With failures clamped to zero, the failure band degrades to
        // departures/arrivals instead of calling `fail_and_recover` (whose
        // `gen_range(1..=0)` would panic).
        for config in [churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 7), steady(1_000, 11)]
        {
            let zero = LifecycleConfig { max_failures: 0, ..config };
            let report = run_plain(&zero);
            assert_eq!(report.failure_events, 0);
            assert_eq!(report.arrivals + report.departures, zero.ops);
            assert!(report.failure.is_none());
            assert!(report.robust);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_plain(&churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 1));
        let b = run_plain(&churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 2));
        assert_ne!(
            (a.arrivals, a.final_open_bins, a.final_tenants),
            (b.arrivals, b.final_open_bins, b.final_tenants),
            "two seeds should not replay the same run"
        );
    }

    #[test]
    fn every_algorithm_survives_audited_churn() {
        let mut specs = all_algorithms(2).to_vec();
        specs.extend([
            AlgorithmSpec::CubeFit { gamma: 3, classes: 5 },
            AlgorithmSpec::BestFit { gamma: 3 },
            AlgorithmSpec::NextFit { gamma: 3 },
        ]);
        for spec in specs {
            let (report, events) = traced(&churn(spec, 13));
            assert!(report.robust, "{} not robust after churn", report.algorithm);
            assert_eq!(report.non_robust_recoveries, 0, "{} degraded", report.algorithm);
            assert_eq!(report.final_audit_divergences, Some(0));
            // Every orphaned replica is re-homed by its recovery.
            let orphaned: usize = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::ServersFailed { orphaned, .. } => Some(*orphaned),
                    _ => None,
                })
                .sum();
            assert_eq!(report.recovery.replicas_migrated, orphaned, "{}", report.algorithm);
        }
    }

    #[test]
    fn degraded_window_model_is_linear_in_cost() {
        let small = RecoveryReport {
            tenants_affected: 1,
            replicas_migrated: 1,
            moved_load: 0.1,
            bins_opened: 0,
        };
        let mut big = small;
        big.replicas_migrated = 4;
        big.moved_load = 0.4;
        assert!((degraded_seconds(&small) - (30.0 + 60.0)).abs() < 1e-12);
        assert!((degraded_seconds(&big) - 4.0 * degraded_seconds(&small)).abs() < 1e-9);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_plain(&churn(AlgorithmSpec::FirstFit { gamma: 2 }, 21));
        assert!(report.failure_events > 0, "seed 21 should inject failures");
        let json = report.to_json();
        let back: LifecycleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(json.contains("degraded_seconds_total"));
        assert!(json.contains("fragmentation_ratio"), "fragmentation stats belong in the report");
        assert!(json.contains("\"seed\""), "the seed makes reports replayable");
        let report = run_plain(&steady(400, 5));
        let back: LifecycleReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn steady_run_is_clean_and_deterministic() {
        let config = steady(2_000, 11);
        let a = run_plain(&config);
        assert_eq!(a, run_plain(&config));
        assert_eq!(a.ops_run, 2_000);
        assert!(a.failure.is_none(), "clean seed must stay clean: {:?}", a.failure);
        assert_eq!(a.final_audit_divergences, Some(0));
        assert!(a.robust);
        assert!(a.audits >= 2_000 / 200);
        assert!(a.checkpoints >= 2_000 / 100);
        // Steady-state mix keeps the population bounded (the whole point).
        assert!(a.final_tenants < 600, "population must stay bounded: {}", a.final_tenants);
    }

    #[test]
    fn injected_violation_produces_replayable_scenario() {
        let config = LifecycleConfig { inject_at: Some(731), ..steady(2_000, 11) };
        let report = run_plain(&config);
        let failure = report.failure.expect("injection must be detected");
        assert!(failure.reason.contains("invariant violated"), "{}", failure.reason);
        // Detection happens at the first checkpoint at or after the
        // injection, never before it.
        assert!(failure.op >= 731);
        assert!(report.ops_run < config.ops, "the run stops at the failure");

        let scenario = report.scenario.expect("failure must carry a scenario");
        assert!(scenario.window_lo <= 731 && 731 <= scenario.window_hi);
        let replayed = replay(&scenario).unwrap().expect("scenario must reproduce");
        // Replay checks every op in the window, so it catches the fault at
        // the injection op itself, no later than the run's detection.
        assert_eq!(replayed.op, 731);
    }

    #[test]
    fn shrink_pins_the_first_failing_op() {
        let config = LifecycleConfig { inject_at: Some(731), ..steady(2_000, 11) };
        let scenario = run_plain(&config).scenario.expect("failure must carry a scenario");
        let outcome = shrink(&scenario).unwrap();
        assert_eq!(outcome.pinned.window_lo, outcome.pinned.window_hi);
        assert_eq!(outcome.pinned.window_hi, 731, "shrink must land on the injection op");
        assert!(outcome.probes >= 2);
        // The pinned one-op scenario still reproduces.
        let confirmed = replay(&outcome.pinned).unwrap().expect("pinned repro");
        assert_eq!(confirmed.op, 731);
        // And it round-trips through its file format.
        let back = Scenario::from_json(&outcome.pinned.to_json()).unwrap();
        assert_eq!(back, outcome.pinned);
    }

    #[test]
    fn shrink_rejects_a_scenario_that_does_not_reproduce() {
        let clean = Scenario {
            config: steady(500, 11),
            window_lo: 0,
            window_hi: 499,
            reason: "stale".to_owned(),
        };
        let err = shrink(&clean).expect_err("clean runs must not shrink");
        assert!(err.contains("does not reproduce"), "{err}");
    }

    #[test]
    fn telemetry_streams_checkpoints_audits_failures_and_recoveries() {
        let (report, events) = traced(&steady(600, 3));
        let is_audit = |full| move |e: &TraceEvent| matches!(e, TraceEvent::AuditCompleted { full: f, .. } if *f == full);
        assert_eq!(
            count(&events, |e| matches!(e, TraceEvent::SoakCheckpoint { .. })),
            report.checkpoints
        );
        assert_eq!(count(&events, is_audit(false)), report.audits);
        assert_eq!(count(&events, is_audit(true)), 1);

        let (report, events) = traced(&churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 21));
        assert!(report.failure_events > 0);
        assert_eq!(
            count(&events, |e| matches!(e, TraceEvent::ServersFailed { .. })),
            report.failure_events
        );
        assert_eq!(
            count(&events, |e| matches!(e, TraceEvent::RecoveryCompleted { .. })),
            report.failure_events
        );
    }

    #[test]
    fn defrag_and_failures_interleave_without_divergence() {
        let config = LifecycleConfig {
            defrag_every: 250,
            defrag_budget: MigrationBudget::moves(32),
            ..steady(1_500, 29)
        };
        let report = run_plain(&config);
        assert!(report.failure_events > 0, "seed 29 must inject failures");
        assert!(report.defrag_epochs.len() >= 5);
        assert!(report.failure.is_none(), "audited run must stay clean: {:?}", report.failure);
        assert_eq!(report.final_audit_divergences, Some(0));
    }

    /// A departure-heavy config that fragments placements: 40% of ops are
    /// departures, no failures (defrag effects stay isolated).
    fn fragmenting(algorithm: AlgorithmSpec, seed: u64) -> LifecycleConfig {
        LifecycleConfig {
            departure_percent: 40,
            failure_percent: 0,
            audit: AuditPolicy::EveryMutation,
            ..LifecycleConfig::churn(algorithm, 300, seed)
        }
    }

    /// Deterministic regression pinning a fragmented seed: with ≥30%
    /// departures, periodic defrag epochs must close at least one server
    /// under a finite migration budget, stay robust, and never increase
    /// the open-bin count.
    #[test]
    fn defrag_epochs_close_servers_in_fragmented_runs() {
        let config = LifecycleConfig {
            defrag_every: 50,
            defrag_budget: MigrationBudget { max_moves: Some(64), max_load: Some(4.0) },
            ..fragmenting(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 17)
        };
        let report = run_plain(&config);
        assert!(!report.defrag_epochs.is_empty());
        assert!(
            report.servers_closed_by_defrag >= 1,
            "seed 17 must stay a fragmented regression scenario"
        );
        for epoch in &report.defrag_epochs {
            assert!(!epoch.outcome.aborted, "nothing mutates between plan and apply here");
            assert!(epoch.open_bins_after <= epoch.open_bins_before);
            assert_eq!(
                epoch.open_bins_before - epoch.open_bins_after,
                epoch.outcome.servers_closed
            );
        }
        assert!(report.robust);
        // Defrag must strictly improve on the same run without it.
        let without = run_plain(&LifecycleConfig { defrag_every: 0, ..config });
        assert!(report.final_open_bins <= without.final_open_bins);
        assert!(
            report.fragmentation.fragmentation_ratio <= without.fragmentation.fragmentation_ratio
        );
    }

    /// Renting economics: the ledger accrues rent deterministically, bills
    /// every op exactly once, the cost report balances, and it survives a
    /// JSON round trip inside the report.
    #[test]
    fn rent_accrual_is_deterministic_and_balanced() {
        let config = LifecycleConfig {
            defrag_every: 50,
            defrag_budget: MigrationBudget { max_moves: Some(64), max_load: Some(4.0) },
            rent: Some(RentConfig::c4_4xlarge(600_000)),
            ..fragmenting(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 17)
        };
        let a = run_plain(&config);
        assert_eq!(a, run_plain(&config), "rent accounting must not perturb determinism");
        let cost = a.cost.expect("rent config must produce a cost report");
        assert!(cost.rent_usd > 0.0, "300 ops of open servers must accrue rent");
        assert!(cost.blocks_billed > 0);
        assert!(cost.leases_opened > 0);
        assert!(cost.peak_servers > 0);
        assert!(
            (cost.total_usd
                - (cost.rent_usd + cost.defrag_migration_usd + cost.recovery_migration_usd))
                .abs()
                < 1e-9,
            "total must be the sum of its parts"
        );
        assert_eq!(cost.sim_ms, config.ops * cost.ms_per_op);
        assert!(cost.load_ms_integral <= cost.need_ms_integral);
        // No failures in the fragmenting mix, so no recovery streaming.
        assert_eq!(cost.recovery_migration_usd, 0.0);
        // Bins-objective epochs migrate, and migration is priced.
        assert!(cost.defrag_migration_usd > 0.0);
        let back: LifecycleReport = serde_json::from_str(&a.to_json()).unwrap();
        assert_eq!(back, a);
        // The same run without rent reports no cost and is otherwise
        // identical: the ledger is an observer, never an actor.
        let without = run_plain(&LifecycleConfig { rent: None, ..config });
        assert!(without.cost.is_none());
        assert_eq!(without.final_open_bins, a.final_open_bins);
        assert_eq!(without.arrivals, a.arrivals);
    }

    /// Rent at a sparse stride: the steady preset reconciles at its
    /// checkpoints, still bills every op exactly once, prices recovery
    /// streaming, and under the bins objective never perturbs the
    /// placement trajectory.
    #[test]
    fn rent_is_reconciled_at_the_checkpoint_stride() {
        let rent = RentConfig::c4_4xlarge(600_000);
        let config = LifecycleConfig {
            defrag_every: 250,
            defrag_budget: MigrationBudget::moves(32),
            defrag_objective: DefragObjective::Cost { horizon_ms: rent.horizon_ms },
            rent: Some(rent),
            ..steady(1_500, 29)
        };
        let a = run_plain(&config);
        assert_eq!(a, run_plain(&config), "rent accounting must not perturb determinism");
        assert!(a.failure.is_none(), "audited cost-aware run must stay clean: {:?}", a.failure);
        let cost = a.cost.expect("rent config must produce a cost report");
        assert!(cost.rent_usd > 0.0);
        // The final checkpoint lands on the last op, so the ledger clock
        // covers the whole run.
        assert_eq!(cost.sim_ms, a.ops_run * cost.ms_per_op);
        assert!(cost.recovery_migration_usd > 0.0, "failures price their re-replication");
        // Under the *bins* objective the ledger is a pure observer. (The
        // cost objective above legitimately steers defrag decisions.)
        let bins = LifecycleConfig { defrag_objective: DefragObjective::Bins, ..config };
        let observed = run_plain(&bins);
        let without = run_plain(&LifecycleConfig { rent: None, ..bins });
        assert!(without.cost.is_none());
        assert_eq!(without.final_open_bins, observed.final_open_bins);
        assert_eq!(without.defrag_epochs, observed.defrag_epochs);
        assert_eq!(without.arrivals, observed.arrivals);
    }

    /// Cost-objective defrag with day-long fully-paid blocks: closing a
    /// server saves no rent inside the horizon, so the economic planner
    /// must refuse every drain the bins planner would have taken.
    #[test]
    fn cost_objective_skips_drains_that_save_no_rent() {
        let base = LifecycleConfig {
            defrag_every: 50,
            defrag_budget: MigrationBudget { max_moves: Some(64), max_load: Some(4.0) },
            ..fragmenting(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 17)
        };
        // 300 ops × 1 min/op = 5 h of sim time, all inside one 24 h
        // pre-paid block; the 2 h horizon never reaches the next block.
        let day_block = RentConfig::c4_4xlarge(86_400_000);
        let frugal = LifecycleConfig {
            defrag_objective: DefragObjective::Cost { horizon_ms: day_block.horizon_ms },
            rent: Some(day_block),
            ..base.clone()
        };
        let eager = LifecycleConfig { rent: Some(day_block), ..base };
        let frugal_report = run_plain(&frugal);
        let eager_report = run_plain(&eager);
        let frugal_cost = frugal_report.cost.unwrap();
        let eager_cost = eager_report.cost.unwrap();
        assert_eq!(
            frugal_cost.defrag_migration_usd, 0.0,
            "no drain can be profitable inside a paid-up day block"
        );
        assert_eq!(frugal_report.servers_closed_by_defrag, 0);
        assert!(eager_report.servers_closed_by_defrag > 0, "the bins planner still drains");
        assert!(
            frugal_cost.total_usd < eager_cost.total_usd,
            "skipping unprofitable migration must cost less: {} vs {}",
            frugal_cost.total_usd,
            eager_cost.total_usd
        );
        assert_eq!(frugal_cost.predicted_savings_usd, 0.0);
        assert_eq!(frugal_cost.realized_savings_usd, 0.0);
    }

    /// Cost-objective defrag with short cheap blocks behaves like the
    /// bins objective where draining pays, and settles its forecast:
    /// predicted net equals realized net on every clean epoch.
    #[test]
    fn cost_objective_settles_predicted_vs_realized() {
        let rent = RentConfig::c4_4xlarge(60_000);
        let config = LifecycleConfig {
            defrag_every: 50,
            defrag_budget: MigrationBudget::unlimited(),
            defrag_objective: DefragObjective::Cost { horizon_ms: rent.horizon_ms },
            rent: Some(rent),
            ..fragmenting(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 17)
        };
        let report = run_plain(&config);
        let cost = report.cost.unwrap();
        assert!(
            report.servers_closed_by_defrag > 0,
            "minute-blocks make thin drains profitable on the fragmented seed"
        );
        assert!(cost.predicted_savings_usd > 0.0);
        assert!(
            (cost.predicted_savings_usd - cost.realized_savings_usd).abs() < 1e-9,
            "nothing mutates between plan and apply, so forecasts settle exactly: \
             predicted {} vs realized {}",
            cost.predicted_savings_usd,
            cost.realized_savings_usd
        );
    }

    #[test]
    fn defrag_and_drift_are_deterministic_and_audited_for_every_algorithm() {
        for spec in all_algorithms(2) {
            let defragged = LifecycleConfig {
                ops: 150,
                defrag_every: 30,
                defrag_budget: MigrationBudget::moves(32),
                ..fragmenting(spec.clone(), 23)
            };
            let a = run_plain(&defragged);
            assert_eq!(a, run_plain(&defragged), "{} defrag must be deterministic", a.algorithm);
            assert!(a.robust, "{} not robust after defragged churn", a.algorithm);

            let drifted = LifecycleConfig {
                ops: 120,
                drift: Some(DriftConfig::mitigated(4, 15, MigrationBudget::moves(16))),
                ..drifting(spec, 37)
            };
            let a = run_plain(&drifted);
            assert_eq!(a, run_plain(&drifted), "{} drift must be deterministic", a.algorithm);
            assert!(a.drift_updates > 0, "{} saw no drift", a.algorithm);
        }
    }

    /// Flash-crowd drift: tenants burst well above baseline and decay
    /// back, so packed-tight bins drift into Theorem-1 violations while
    /// total load stays bounded (a curable scenario — unlike an unbounded
    /// random walk, which eventually overloads the cluster globally).
    fn bursty(mitigate_every: usize, budget: MigrationBudget) -> DriftConfig {
        DriftConfig {
            profile: DriftProfile::Burst { magnitude: 20, probability: 0.01 },
            mitigate_every,
            budget,
            at_risk_slack: DEFAULT_AT_RISK_SLACK,
        }
    }

    fn drifting(algorithm: AlgorithmSpec, seed: u64) -> LifecycleConfig {
        LifecycleConfig {
            departure_percent: 15,
            failure_percent: 0,
            audit: AuditPolicy::EveryMutation,
            drift: Some(bursty(0, MigrationBudget::unlimited())),
            ..LifecycleConfig::churn(algorithm, 200, seed)
        }
    }

    /// Pinned regression for the drift acceptance scenario: seed 31 under
    /// unmitigated burst drift must leave the final placement violated
    /// (the monitor caught servers mid-run), and the same run with
    /// sufficient mitigation budget must end with zero violated servers.
    #[test]
    fn unmitigated_drift_violates_and_mitigation_cures() {
        let unmitigated = drifting(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 31);
        let broken = run_plain(&unmitigated);
        assert!(broken.drift_updates > 0, "seed 31 must actually drift");
        assert!(
            broken.drift_violations > 0 && broken.final_violated > 0 && !broken.robust,
            "seed 31 must stay a drift-violation regression scenario: {} violations, {} final",
            broken.drift_violations,
            broken.final_violated
        );

        let mitigated = LifecycleConfig {
            drift: Some(bursty(10, MigrationBudget::unlimited())),
            ..unmitigated
        };
        let cured = run_plain(&mitigated);
        assert!(!cured.mitigation_epochs.is_empty());
        assert!(cured.servers_cured_by_mitigation > 0);
        assert_eq!(
            cured.final_violated,
            0,
            "sufficient budget must clear every violation: {:?}",
            cured.mitigation_epochs.last()
        );
        // Same op mix: drift never perturbs the arrival/departure sequence.
        assert_eq!((broken.arrivals, broken.departures), (cured.arrivals, cured.departures));
    }

    #[test]
    fn insufficient_mitigation_budget_degrades_gracefully() {
        let config = LifecycleConfig {
            drift: Some(bursty(10, MigrationBudget::moves(1))),
            ..drifting(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 31)
        };
        let report = run_plain(&config);
        assert!(!report.mitigation_epochs.is_empty());
        for epoch in &report.mitigation_epochs {
            assert!(epoch.planned_steps <= 1, "budget caps every epoch");
            assert!(!epoch.outcome.aborted, "nothing drifts between plan and apply");
        }
        // The honest residue matches the monitor's view of the run's end.
        let last = report.mitigation_epochs.last().unwrap();
        if last.at_op + 1 == report.ops_run {
            assert_eq!(last.outcome.residual.violated.len(), report.final_violated);
        }
    }

    #[test]
    fn drift_telemetry_emits_load_and_violation_events() {
        let config = LifecycleConfig {
            drift: Some(bursty(10, MigrationBudget::unlimited())),
            ..drifting(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, 31)
        };
        let (report, events) = traced(&config);
        let drifted = count(&events, |e| matches!(e, TraceEvent::LoadDrifted { .. }));
        let violated = count(&events, |e| matches!(e, TraceEvent::InvariantViolated { .. }));
        let planned = count(&events, |e| matches!(e, TraceEvent::MitigationPlanned { .. }));
        assert_eq!(drifted, report.drift_updates);
        assert_eq!(violated, report.drift_violations);
        assert_eq!(planned, report.mitigation_epochs.len() as u64);
        assert!(violated > 0 && planned > 0);
    }
}
