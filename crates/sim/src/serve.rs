//! Deterministic discrete-event load harness for the placement service.
//!
//! Drives a [`PlacementService`] under seeded open-loop (Poisson) and
//! closed-loop client traffic, optionally with a burst storm that
//! multiplies the arrival rate for a window — the overload scenario the
//! admission controller exists for. Everything runs on a simulated clock:
//! service times come from a synthetic [`ServiceCost`] model (never wall
//! clock), interarrivals from a seeded `ChaCha8Rng`, so a run is a pure
//! function of its [`ServeConfig`] and reproduces byte-for-byte on any
//! machine.
//!
//! The harness reports the metrics the service's contract is written in:
//! p50/p99/p999 admitted-request latency, goodput, shed rate, the typed
//! rejection split, degradation-ladder transitions — plus the final
//! placement dump so `cubefit check --audit` can replay every admitted
//! mutation against the oracle after the fact.
//!
//! A [`cubefit_service::ShutdownFlag`] is polled between events: when it trips (Ctrl-C in
//! the CLI, or the `interrupt_at_ms` test hook), arrivals stop, the
//! admitted queue drains, and the run returns a partial report flagged
//! `interrupted` instead of dying mid-write.

use crate::lifecycle::RunOptions;
use crate::spec::{AlgorithmSpec, DistributionSpec};
use cubefit_core::{PlacementDump, Result, Tenant, TenantId};
use cubefit_service::{PlacementService, Request, ServiceConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Normalization constant for the client→load model (the paper's C=52).
const LOAD_C: u32 = 52;

/// Synthetic decision-cost model, in simulated milliseconds. Batch
/// service time is
/// `per_batch_ms + ops×per_op_ms + audited_bins×audit_per_bin_ms`,
/// scaled by a seeded jitter factor in `[1−jitter, 1+jitter)`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServiceCost {
    /// Cost per executed mutation.
    pub per_op_ms: f64,
    /// Fixed cost per batch (dispatch overhead).
    pub per_batch_ms: f64,
    /// Cost per open bin walked by an oracle audit — what makes the
    /// full-audit rung expensive as the cluster grows, and the
    /// degradation ladder worth having.
    pub audit_per_bin_ms: f64,
    /// Relative jitter amplitude (0 = deterministic costs).
    pub jitter: f64,
}

impl Default for ServiceCost {
    fn default() -> Self {
        ServiceCost { per_op_ms: 1.0, per_batch_ms: 2.0, audit_per_bin_ms: 0.02, jitter: 0.1 }
    }
}

impl ServiceCost {
    fn batch_ms(&self, ops: usize, audited_bins: usize, rng: &mut ChaCha8Rng) -> f64 {
        let base = self.per_batch_ms
            + ops as f64 * self.per_op_ms
            + audited_bins as f64 * self.audit_per_bin_ms;
        let factor = if self.jitter > 0.0 {
            1.0 + self.jitter * (2.0 * rng.gen_range(0.0..1.0) - 1.0)
        } else {
            1.0
        };
        (base * factor).max(0.01)
    }
}

/// A burst storm: the open-loop arrival rate is multiplied by
/// `rate_multiplier` inside `[start_ms, start_ms + duration_ms)`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StormProfile {
    /// Storm onset, ms into the run.
    pub start_ms: f64,
    /// Storm length, ms.
    pub duration_ms: f64,
    /// Arrival-rate multiplier during the storm.
    pub rate_multiplier: f64,
}

/// Configuration of one service-loop load run — the whole struct is the
/// repro.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeConfig {
    /// Algorithm behind the service.
    pub algorithm: AlgorithmSpec,
    /// Client-count distribution for arriving tenants.
    pub distribution: DistributionSpec,
    /// Seed driving interarrivals, op mix, loads, and cost jitter.
    pub seed: u64,
    /// Arrivals stop after this much simulated time; the run then drains.
    pub horizon_ms: f64,
    /// Open-loop (Poisson) arrival rate, requests per simulated second.
    pub open_rate_per_sec: f64,
    /// Closed-loop clients, each with one request outstanding.
    pub closed_clients: usize,
    /// Closed-loop think time between a response and the next request.
    pub think_ms: f64,
    /// Optional burst storm on the open-loop rate.
    pub storm: Option<StormProfile>,
    /// Percent of arrivals that remove an existing tenant.
    pub depart_percent: u32,
    /// Percent of arrivals that re-estimate an existing tenant's load.
    pub update_percent: u32,
    /// Synthetic decision-cost model.
    pub cost: ServiceCost,
    /// The service under test.
    pub service: ServiceConfig,
    /// Test hook: trip the shutdown flag at this simulated time, as if
    /// Ctrl-C arrived mid-run.
    pub interrupt_at_ms: Option<f64>,
    /// Journal checkpoint stride in batches, for journaled runs.
    pub journal_checkpoint_batches: u64,
}

impl ServeConfig {
    /// The standard serve-bench profile: CubeFit (γ=2, K=10) under mixed
    /// open/closed load. With `storm` set, a 4× burst between 5 s and
    /// 10 s pushes offered load past service capacity so the admission
    /// controller must shed to hold the latency SLO.
    #[must_use]
    pub fn bench(seed: u64, storm: bool) -> Self {
        ServeConfig {
            algorithm: AlgorithmSpec::CubeFit { gamma: 2, classes: 10 },
            distribution: DistributionSpec::Uniform { min: 1, max: 15 },
            seed,
            horizon_ms: 20_000.0,
            open_rate_per_sec: 300.0,
            closed_clients: 8,
            think_ms: 50.0,
            storm: storm.then_some(StormProfile {
                start_ms: 5_000.0,
                duration_ms: 5_000.0,
                rate_multiplier: 4.0,
            }),
            depart_percent: 35,
            update_percent: 25,
            cost: ServiceCost::default(),
            service: ServiceConfig {
                limiter: cubefit_service::LimiterSpec::aimd(4, 64),
                ..ServiceConfig::default()
            },
            interrupt_at_ms: None,
            journal_checkpoint_batches: 256,
        }
    }

    fn validate(&self) -> std::result::Result<(), String> {
        if self.horizon_ms.is_nan() || self.horizon_ms <= 0.0 {
            return Err("horizon must be positive".to_owned());
        }
        if self.open_rate_per_sec < 0.0 {
            return Err("open-loop rate must be >= 0".to_owned());
        }
        if self.open_rate_per_sec == 0.0 && self.closed_clients == 0 {
            return Err("no load: zero open-loop rate and zero closed clients".to_owned());
        }
        if self.depart_percent + self.update_percent > 90 {
            return Err("depart + update percent must leave >= 10% placements".to_owned());
        }
        if let Some(storm) = self.storm {
            if storm.rate_multiplier.is_nan() || storm.rate_multiplier < 1.0 {
                return Err("storm multiplier must be >= 1".to_owned());
            }
            if storm.duration_ms.is_nan() || storm.duration_ms <= 0.0 {
                return Err("storm duration must be positive".to_owned());
            }
        }
        Ok(())
    }
}

/// Latency summary over every completed (admitted) request, exact — not
/// bucketed — since the harness owns all samples.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Median, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// 99.9th percentile, ms.
    pub p999_ms: f64,
    /// Mean, ms.
    pub mean_ms: f64,
    /// Worst completed request, ms.
    pub max_ms: f64,
}

impl LatencySummary {
    fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable_by(f64::total_cmp);
        let rank = |q: f64| -> f64 {
            let idx = ((samples.len() as f64) * q).ceil() as usize;
            samples[idx.clamp(1, samples.len()) - 1]
        };
        LatencySummary {
            p50_ms: rank(0.50),
            p99_ms: rank(0.99),
            p999_ms: rank(0.999),
            mean_ms: samples.iter().sum::<f64>() / samples.len() as f64,
            max_ms: *samples.last().unwrap(),
        }
    }
}

/// Everything one serve run produced.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeReport {
    /// Algorithm label.
    pub algorithm: String,
    /// Admission-limiter label.
    pub limiter: String,
    /// Seed of the run.
    pub seed: u64,
    /// Whether a storm profile was active.
    pub storm: bool,
    /// Simulated duration actually covered (≥ horizon unless
    /// interrupted).
    pub duration_ms: f64,
    /// Requests offered (admitted or not).
    pub offered: u64,
    /// Admitted requests executed to completion.
    pub completed: u64,
    /// Rejections by the admission limiter.
    pub shed: u64,
    /// Rejections by the queue backstop.
    pub queue_full: u64,
    /// Admitted requests that expired while queued.
    pub deadline_expired: u64,
    /// `shed / offered` (0 when nothing was offered).
    pub shed_rate: f64,
    /// Completed requests per simulated second.
    pub goodput_per_sec: f64,
    /// Latency over completed requests.
    pub latency: LatencySummary,
    /// The service's p99 SLO, for the gate.
    pub slo_p99_ms: f64,
    /// Whether completed-request p99 held the SLO.
    pub p99_within_slo: bool,
    /// Batches executed.
    pub batches: u64,
    /// Oracle audits the degradation ladder ran.
    pub audits: u64,
    /// Divergences those audits found (must be 0).
    pub audit_divergences: u64,
    /// Ladder steps toward less auditing.
    pub ladder_down: u64,
    /// Ladder steps toward more auditing.
    pub ladder_up: u64,
    /// Audit rung at the end of the run.
    pub final_audit_mode: String,
    /// Admission limit at the end of the run.
    pub final_limit: usize,
    /// Tenants placed at the end of the run.
    pub tenants: usize,
    /// Open bins at the end of the run.
    pub bins: usize,
    /// Whether the final placement holds the Theorem-1 reserve.
    pub robust: bool,
    /// True when the run was cut short by the shutdown flag; the report
    /// covers everything admitted before the interrupt.
    pub interrupted: bool,
}

/// A finished run: the report plus the final placement dump, ready for
/// `cubefit check --audit`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeRun {
    /// Metrics of the run.
    pub report: ServeReport,
    /// Final placement, replayable against the oracle.
    pub dump: PlacementDump,
}

/// Discrete event kinds, ordered by time through [`Event`].
#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    /// Open-loop Poisson arrival.
    OpenArrival,
    /// Closed-loop client issues its next request.
    ClosedArrival { client: usize },
    /// The executing batch finishes.
    BatchDone,
    /// The `interrupt_at_ms` hook fires.
    Interrupt,
}

#[derive(Debug, Clone, PartialEq)]
struct Event {
    at_ms: f64,
    seq: u64,
    kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first, with the insertion sequence as a deterministic tiebreak.
        other.at_ms.total_cmp(&self.at_ms).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Who is waiting on an admitted request, and what it will do.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    /// `Some` for closed-loop requests: the client to wake on completion.
    client: Option<usize>,
    /// For `Place` requests, the tenant to add to the live pool once the
    /// placement has actually executed.
    places: Option<TenantId>,
}

struct Harness {
    config: ServeConfig,
    rng: ChaCha8Rng,
    events: BinaryHeap<Event>,
    next_seq: u64,
    service: PlacementService,
    pending: HashMap<u64, PendingOp>,
    /// Tenants whose placement completed and who are not yet targeted by
    /// a remove/update — the pool departures and updates draw from.
    pool: Vec<TenantId>,
    next_tenant: u64,
    latencies: Vec<f64>,
    draining: bool,
    interrupted: bool,
    now_ms: f64,
}

impl Harness {
    fn push(&mut self, at_ms: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event { at_ms, seq, kind });
    }

    fn open_rate_per_ms(&self, at_ms: f64) -> f64 {
        let mut rate = self.config.open_rate_per_sec / 1_000.0;
        if let Some(storm) = self.config.storm {
            if at_ms >= storm.start_ms && at_ms < storm.start_ms + storm.duration_ms {
                rate *= storm.rate_multiplier;
            }
        }
        rate
    }

    fn schedule_next_open_arrival(&mut self, from_ms: f64) {
        let rate = self.open_rate_per_ms(from_ms);
        if rate <= 0.0 {
            return;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let gap = -(1.0 - u).ln() / rate;
        let at = from_ms + gap;
        if at < self.config.horizon_ms {
            self.push(at, EventKind::OpenArrival);
        }
    }

    /// Draws the next request from the op mix. Removes and updates target
    /// live pool members; an empty pool falls back to placements.
    fn draw_request(&mut self) -> Request {
        let roll = self.rng.gen_range(0..100u32);
        if roll < self.config.depart_percent && !self.pool.is_empty() {
            let idx = self.rng.gen_range(0..self.pool.len());
            // Leave the pool at *offer* time so no later draw targets a
            // tenant with a pending removal.
            return Request::Remove(self.pool.swap_remove(idx));
        }
        if roll < self.config.depart_percent + self.config.update_percent && !self.pool.is_empty() {
            let idx = self.rng.gen_range(0..self.pool.len());
            let tenant = self.pool[idx];
            let load = self.sample_load();
            return Request::UpdateLoad(tenant, load);
        }
        let id = TenantId::new(self.next_tenant);
        self.next_tenant += 1;
        let load = self.sample_load();
        Request::Place(Tenant::new(id, cubefit_core::Load::new(load).expect("model load")))
    }

    fn sample_load(&mut self) -> f64 {
        let distribution = self.config.distribution.build(LOAD_C);
        let model = DistributionSpec::normalized_model(LOAD_C);
        let clients = distribution.sample_clients(&mut self.rng);
        f64::from(model.load(clients))
    }

    /// Offers one request; on admission, records who waits on it.
    fn arrive(&mut self, client: Option<usize>) -> Result<()> {
        let request = self.draw_request();
        let places = match &request {
            Request::Place(tenant) => Some(tenant.id()),
            _ => None,
        };
        match self.service.offer(request, self.now_ms) {
            Ok(id) => {
                self.pending.insert(id, PendingOp { client, places });
            }
            Err(_rejected) => {
                // Typed rejection already accounted inside the service;
                // a closed-loop client backs off one think time.
                if let Some(client) = client {
                    self.push(
                        self.now_ms + self.config.think_ms.max(1.0),
                        EventKind::ClosedArrival { client },
                    );
                }
            }
        }
        self.dispatch()
    }

    /// Starts a batch if the service is idle and has live work, charging
    /// the cost model for its simulated duration.
    fn dispatch(&mut self) -> Result<()> {
        if self.service.busy() {
            return Ok(());
        }
        let work = self.service.start_batch(self.now_ms)?;
        for id in &work.expired {
            if let Some(op) = self.pending.remove(id) {
                if let Some(client) = op.client {
                    self.push(
                        self.now_ms + self.config.think_ms.max(1.0),
                        EventKind::ClosedArrival { client },
                    );
                }
            }
        }
        if work.ops > 0 {
            let cost = self.config.cost;
            let duration = cost.batch_ms(work.ops, work.audited_bins, &mut self.rng);
            self.push(self.now_ms + duration, EventKind::BatchDone);
        }
        Ok(())
    }

    fn batch_done(&mut self) -> Result<()> {
        let completed = self.service.complete_batch(self.now_ms);
        for op in completed {
            self.latencies.push(op.latency_ms);
            if let Some(pending) = self.pending.remove(&op.id) {
                if let Some(tenant) = pending.places {
                    self.pool.push(tenant);
                }
                if let Some(client) = pending.client {
                    if !self.draining {
                        self.push(
                            self.now_ms + self.config.think_ms.max(1.0),
                            EventKind::ClosedArrival { client },
                        );
                    }
                }
            }
        }
        self.dispatch()
    }
}

/// Runs the harness. With a journal in `options`, every mutation the
/// service applies is journaled before acknowledgement, the journal is
/// checkpointed every [`ServeConfig::journal_checkpoint_batches`] batches,
/// and it is sealed when the run finishes — including a cooperative
/// Ctrl-C drain — so an unsealed journal on disk always means the process
/// was killed.
///
/// # Errors
///
/// Propagates configuration, consolidator, and journal I/O errors.
pub fn run_serve(config: ServeConfig, options: &RunOptions) -> Result<ServeRun> {
    config.validate().map_err(cubefit_core::Error::invalid_config)?;
    let consolidator = config.algorithm.build()?;
    let recorder = options.recorder.clone();
    let service = match &options.journal {
        Some(journal) => PlacementService::journaled(
            consolidator,
            config.service,
            recorder,
            journal.clone(),
            config.journal_checkpoint_batches,
        ),
        None => PlacementService::new(consolidator, config.service, recorder),
    }
    .map_err(cubefit_core::Error::invalid_config)?;

    let mut harness = Harness {
        rng: ChaCha8Rng::seed_from_u64(config.seed),
        events: BinaryHeap::new(),
        next_seq: 0,
        service,
        pending: HashMap::new(),
        pool: Vec::new(),
        next_tenant: 0,
        latencies: Vec::new(),
        draining: false,
        interrupted: false,
        now_ms: 0.0,
        config,
    };

    if let Some(at) = harness.config.interrupt_at_ms {
        harness.push(at, EventKind::Interrupt);
    }
    harness.schedule_next_open_arrival(0.0);
    for client in 0..harness.config.closed_clients {
        // Stagger the first closed-loop wave so clients do not arrive in
        // one burst at t=0.
        let jitter: f64 = harness.rng.gen_range(0.0..harness.config.think_ms.max(1.0));
        harness.push(jitter, EventKind::ClosedArrival { client });
    }

    while let Some(event) = harness.events.pop() {
        harness.now_ms = harness.now_ms.max(event.at_ms);
        if !harness.draining && options.shutdown.is_set() {
            harness.draining = true;
            harness.interrupted = true;
        }
        match event.kind {
            EventKind::OpenArrival => {
                if !harness.draining {
                    let at = event.at_ms;
                    harness.schedule_next_open_arrival(at);
                    harness.arrive(None)?;
                }
            }
            EventKind::ClosedArrival { client } => {
                if !harness.draining && event.at_ms < harness.config.horizon_ms {
                    harness.arrive(Some(client))?;
                }
            }
            EventKind::BatchDone => {
                harness.batch_done()?;
            }
            EventKind::Interrupt => {
                harness.draining = true;
                harness.interrupted = true;
            }
        }
        // After the horizon or an interrupt, only BatchDone events remain
        // relevant; the heap drains naturally because closed-loop clients
        // stop rescheduling and open arrivals stop being pushed.
    }

    // Drain whatever is still queued: admitted work must either execute
    // or be accounted as expired before the report is written.
    while harness.service.queue_depth() > 0 || harness.service.busy() {
        if harness.service.busy() {
            // Jump the clock to completion: cost-model time for the
            // executing batch is unknowable here, so charge one per-op
            // cost per outstanding op, jitter-free.
            harness.now_ms += harness.config.cost.per_batch_ms
                + harness.config.cost.per_op_ms * harness.config.service.batch_max as f64;
            harness.batch_done()?;
        } else {
            harness.dispatch()?;
            if !harness.service.busy() && harness.service.queue_depth() == 0 {
                break;
            }
        }
    }

    let stats = harness.service.stats();
    debug_assert!(harness.service.accounting_balanced());
    harness.service.seal_journal()?;
    let duration_ms = harness.now_ms.max(harness.config.horizon_ms.min(harness.now_ms + 1.0));
    let latency = LatencySummary::from_samples(&mut harness.latencies);
    let placement = harness.service.consolidator().placement();
    let slo = harness.config.service.slo_p99_ms;
    let report = ServeReport {
        algorithm: harness.config.algorithm.label(),
        limiter: harness.config.service.limiter.label(),
        seed: harness.config.seed,
        storm: harness.config.storm.is_some(),
        duration_ms,
        offered: stats.offered,
        completed: stats.completed,
        shed: stats.shed,
        queue_full: stats.queue_full,
        deadline_expired: stats.deadline_expired,
        shed_rate: if stats.offered == 0 { 0.0 } else { stats.shed as f64 / stats.offered as f64 },
        goodput_per_sec: if duration_ms > 0.0 {
            stats.completed as f64 / (duration_ms / 1_000.0)
        } else {
            0.0
        },
        latency,
        slo_p99_ms: slo,
        p99_within_slo: latency.p99_ms <= slo,
        batches: stats.batches,
        audits: stats.audits,
        audit_divergences: stats.audit_divergences,
        ladder_down: stats.ladder_down,
        ladder_up: stats.ladder_up,
        final_audit_mode: harness.service.audit_mode().label().to_owned(),
        final_limit: harness.service.limit(),
        tenants: placement.tenant_count(),
        bins: placement.open_bins(),
        robust: placement.is_robust(),
        interrupted: harness.interrupted,
    };
    let dump = harness.service.dump();
    Ok(ServeRun { report, dump })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::oracle;

    fn quick(seed: u64, storm: bool) -> ServeConfig {
        let mut config = ServeConfig::bench(seed, storm);
        config.horizon_ms = 3_000.0;
        config
    }

    #[test]
    fn baseline_run_is_deterministic_and_auditable() {
        let a = run_serve(quick(7, false), &RunOptions::default()).unwrap();
        let b = run_serve(quick(7, false), &RunOptions::default()).unwrap();
        assert_eq!(a, b, "same config must reproduce byte-for-byte");
        assert!(a.report.completed > 0);
        assert!(!a.report.interrupted);
        assert_eq!(
            a.report.offered,
            a.report.completed + a.report.shed + a.report.queue_full + a.report.deadline_expired,
            "every offered request is accounted after the drain"
        );
        let placement = a.dump.to_placement().unwrap();
        assert!(oracle::audit(&placement).is_ok(), "final dump replays clean");
    }

    #[test]
    fn journaled_serve_matches_and_recovers_even_when_interrupted() {
        let dir = std::env::temp_dir()
            .join(format!("cubefit-serve-journal-tests-{}-interrupt", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = quick(7, false);
        // Cooperative Ctrl-C mid-run: the drain must still seal the log.
        config.interrupt_at_ms = Some(1_500.0);
        config.journal_checkpoint_batches = 16;
        let plain = run_serve(config.clone(), &RunOptions::default()).unwrap();
        assert!(plain.report.interrupted);
        let journal =
            cubefit_durability::Journal::create(&dir, 2, cubefit_durability::FsyncPolicy::Never)
                .unwrap();
        let options = RunOptions { journal: Some(journal), ..RunOptions::default() };
        let run = run_serve(config, &options).unwrap();
        assert_eq!(run, plain, "journaling must not perturb the run");
        let state = cubefit_durability::recover(&dir).unwrap();
        assert!(state.sealed, "an interrupted drain still seals the journal");
        assert_eq!(
            serde_json::to_string(&state.dump()).unwrap(),
            serde_json::to_string(&run.dump).unwrap(),
            "recovered placement must equal the final dump byte-for-byte"
        );
        assert!(oracle::audit(&state.placement).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_serve(quick(1, false), &RunOptions::default()).unwrap();
        let b = run_serve(quick(2, false), &RunOptions::default()).unwrap();
        assert_ne!(a.report.offered, b.report.offered);
    }

    #[test]
    fn storm_sheds_while_holding_the_slo() {
        let mut config = ServeConfig::bench(11, true);
        config.horizon_ms = 8_000.0;
        config.storm =
            Some(StormProfile { start_ms: 2_000.0, duration_ms: 4_000.0, rate_multiplier: 6.0 });
        let run = run_serve(config, &RunOptions::default()).unwrap();
        assert!(run.report.shed > 0, "overload must shed: {:?}", run.report);
        assert!(
            run.report.p99_within_slo,
            "admitted p99 must hold the SLO: {:?}",
            run.report.latency
        );
        assert_eq!(run.report.audit_divergences, 0);
    }

    #[test]
    fn interrupt_drains_and_flags_the_report() {
        let mut config = quick(3, false);
        config.interrupt_at_ms = Some(1_000.0);
        let run = run_serve(config, &RunOptions::default()).unwrap();
        assert!(run.report.interrupted);
        assert!(run.report.duration_ms < 3_000.0, "run stopped early");
        assert!(run.report.completed > 0, "work admitted before the interrupt completed");
        assert_eq!(
            run.report.offered,
            run.report.completed
                + run.report.shed
                + run.report.queue_full
                + run.report.deadline_expired,
            "the drain leaves no request unaccounted"
        );
        let placement = run.dump.to_placement().unwrap();
        assert!(oracle::audit(&placement).is_ok());
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut config = quick(1, false);
        config.horizon_ms = 0.0;
        assert!(run_serve(config, &RunOptions::default()).is_err());
        let mut config = quick(1, false);
        config.open_rate_per_sec = 0.0;
        config.closed_clients = 0;
        assert!(run_serve(config, &RunOptions::default()).is_err());
        let mut config = quick(1, false);
        config.depart_percent = 60;
        config.update_percent = 40;
        assert!(run_serve(config, &RunOptions::default()).is_err());
    }
}
