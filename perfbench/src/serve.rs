//! `serve`: the placement service under real time.
//!
//! `PlacementService` runs the serve-bench profile (AIMD limiter 4–64,
//! batch 16, queue 256, 500 ms deadline, 100 ms p99 SLO, audit ladder
//! starting at Full) over a journaled CubeFit (γ = 2) prefilled with
//! [`Params::prefill`] uniform tenants; the journal fsyncs every 1024
//! appends and is checkpointed every [`CHECKPOINT_MS`] of the schedule.
//! Open-loop Poisson arrivals (40% place, 35% remove, 25% load
//! re-estimate) come at [`LIGHT_RATE`]/s for the light phase, then at
//! [`OVERLOAD_RATE`]/s for the overload phase. Each request is timed from
//! its scheduled send time, so a stalled loop charges later requests for
//! their wait. The per-batch Full-rung oracle audit and the service loop
//! set capacity; the decision and the journal barely register.
//!
//! The journal wrapper is composed here (not by
//! `PlacementService::journaled`) so a traced run can put a span between
//! the service and the journal; the checkpoint runs on the same batch
//! stride, right after the batch it follows.

use crate::inputs;
use crate::timed::{Timed, CORE, DURABILITY};
use crate::{trace, Ctx, Rep};
use cubefit_core::{Consolidator, Tenant, TenantId};
use cubefit_durability::{Journal, JournaledConsolidator};
use cubefit_service::{LimiterSpec, PlacementService, Rejected, Request, ServiceConfig};
use cubefit_telemetry::Recorder;
use cubefit_workload::ClientDistribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Arrival rate of the light phase, requests/s: a fifth of capacity, so
/// a stall of the host must last ~70 ms to fill the admission limit.
pub const LIGHT_RATE: f64 = 500.0;
/// Arrival rate of the overload phase, requests/s.
pub const OVERLOAD_RATE: f64 = 16_000.0;
/// Schedule time between journal checkpoints, ms. A checkpoint runs
/// after the first batch that completes past each multiple of this, so
/// every repetition checkpoints as often in each phase however fast the
/// machine runs it. (A stride in batches would not: on a fast machine the
/// light phase would hold one more checkpoint stall, and its ~1% of
/// delayed requests would move the p99 by the stall's length.)
pub const CHECKPOINT_MS: f64 = 500.0;

/// Sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tenants placed before the service starts.
    pub prefill: usize,
    /// Light phase length, ms.
    pub light_ms: f64,
    /// Overload phase length, ms.
    pub overload_ms: f64,
}

impl Params {
    /// Benchmark or smoke scale.
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Params { prefill: 2_000, light_ms: 300.0, overload_ms: 200.0 }
        } else {
            Params { prefill: 20_000, light_ms: 2_000.0, overload_ms: 1_000.0 }
        }
    }
}

/// The serve-bench service profile.
#[must_use]
pub fn service_config() -> ServiceConfig {
    ServiceConfig { limiter: LimiterSpec::aimd(4, 64), ..ServiceConfig::default() }
}

/// Per-phase span names, so the breakdown can tell the phases apart.
struct PhaseNames {
    offer: &'static str,
    start_batch: &'static str,
    complete_batch: &'static str,
}

const LIGHT: PhaseNames = PhaseNames {
    offer: "service.offer.light",
    start_batch: "service.start_batch.light",
    complete_batch: "service.complete_batch.light",
};
const OVERLOAD: PhaseNames = PhaseNames {
    offer: "service.offer.overload",
    start_batch: "service.start_batch.overload",
    complete_batch: "service.complete_batch.overload",
};

/// Per-phase counters, keyed `service.<what>.<phase>`.
const COUNTS: [[&str; 6]; 2] = [
    [
        "service.shed.light",
        "service.queue_full.light",
        "service.deadline_expired.light",
        "service.audits.light",
        "service.ladder_down.light",
        "service.final_limit.light",
    ],
    [
        "service.shed.overload",
        "service.queue_full.overload",
        "service.deadline_expired.overload",
        "service.audits.overload",
        "service.ladder_down.overload",
        "service.final_limit.overload",
    ],
];

/// Open-loop request generator: tenants become eligible for removal and
/// re-estimates once their placement completed, and leave the pool when
/// their removal is offered, so no generated request can fail.
struct Generator {
    rng: ChaCha8Rng,
    /// Placed tenants with the load last requested for them (≤ their
    /// actual load, so every re-estimate drifts downward).
    pool: Vec<(TenantId, f64)>,
    next_id: u64,
}

impl Generator {
    fn request(&mut self) -> Request {
        let roll = self.rng.gen_range(0..100u32);
        if roll < 35 && !self.pool.is_empty() {
            let index = self.rng.gen_range(0..self.pool.len());
            return Request::Remove(self.pool.swap_remove(index).0);
        }
        if roll < 60 && !self.pool.is_empty() {
            let index = self.rng.gen_range(0..self.pool.len());
            let (tenant, old) = self.pool[index];
            let load = inputs::drifted(old, &mut self.rng);
            self.pool[index].1 = load;
            return Request::UpdateLoad(tenant, load);
        }
        let clients = inputs::uniform().sample_clients(&mut self.rng);
        let tenant = Tenant::new(TenantId::new(self.next_id), inputs::model().load(clients));
        self.next_id += 1;
        Request::Place(tenant)
    }
}

/// Appends Poisson arrival times at `rate`/s in `[from_ms, to_ms)`.
fn poisson(times: &mut Vec<f64>, rng: &mut ChaCha8Rng, from_ms: f64, to_ms: f64, rate: f64) {
    let mut t = from_ms;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() * 1e3 / rate;
        if t >= to_ms {
            return;
        }
        times.push(t);
    }
}

/// Runs one repetition.
///
/// # Errors
///
/// The journal could not be written or the service failed a batch.
#[allow(clippy::too_many_lines)]
pub fn run_rep(ctx: &Ctx) -> Result<Rep, String> {
    let params = Params::new(ctx.smoke);
    let dir = ctx.dir.join(format!("serve-{}", ctx.rep));
    let mut rep = Rep::default();

    let setup = trace::enter_id(trace::SETUP, ctx.rep);
    let started = Instant::now();
    let prefill = inputs::tenants(inputs::uniform(), params.prefill, ctx.seed);
    let mut cubefit = inputs::cubefit(2);
    if ctx.traced {
        cubefit = Box::new(Timed::new(cubefit, &CORE));
    }
    inputs::fill(&mut *cubefit, &prefill).map_err(|e| format!("prefill: {e}"))?;
    let journal =
        Journal::create(&dir, 2, crate::churn::FSYNC).map_err(|e| format!("journal: {e}"))?;
    journal.checkpoint(cubefit.placement()).map_err(|e| format!("checkpoint: {e}"))?;
    let mut stack: Box<dyn Consolidator> =
        Box::new(JournaledConsolidator::new(cubefit, journal.clone()));
    if ctx.traced {
        stack = Box::new(Timed::new(stack, &DURABILITY));
    }
    let mut service = PlacementService::new(stack, service_config(), Recorder::disabled())?;
    let mut generator = Generator {
        pool: prefill.iter().map(|t| (t.id(), t.load().get())).collect(),
        next_id: params.prefill as u64,
        rng: ChaCha8Rng::seed_from_u64(ctx.seed ^ 0x5e7e),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
    let mut arrivals = Vec::new();
    poisson(&mut arrivals, &mut rng, 0.0, params.light_ms, LIGHT_RATE);
    let boundary = arrivals.len();
    let end_ms = params.light_ms + params.overload_ms;
    poisson(&mut arrivals, &mut rng, params.light_ms, end_ms, OVERLOAD_RATE);
    rep.setup_s = started.elapsed().as_secs_f64();
    setup.exit(1);

    // Per admitted request id: (scheduled ms, arrival index).
    let mut admitted: Vec<(f64, usize)> = Vec::with_capacity(arrivals.len());
    let mut fifo: VecDeque<u64> = VecDeque::new();
    let mut placing: HashMap<u64, (TenantId, f64)> = HashMap::new();
    // Per light-phase arrival, so repetitions line up request by request.
    let mut light_latency = vec![f64::NAN; boundary];
    let mut counts = [[0.0f64; 6]; 2];
    let mut queue_wait: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut late = Vec::with_capacity(arrivals.len());
    let mut overload_done = 0u64;
    let mut light_end = None;
    let (frames_before, bytes_before) = (journal.last_seq(), journal.appended_bytes());
    let mut busy = Duration::ZERO;
    let mut batch_id = 0u64;
    let mut next_checkpoint_ms = CHECKPOINT_MS;

    let timed = trace::enter_id(trace::TIMED, ctx.rep);
    let origin = Instant::now();
    let clock = || origin.elapsed().as_secs_f64() * 1e3;
    let mut next = 0usize;
    loop {
        let now = clock();
        while next < arrivals.len() && arrivals[next] <= now {
            let light = next < boundary;
            if !light && light_end.is_none() {
                light_end = Some((service.stats(), service.limit()));
            }
            let names = if light { &LIGHT } else { &OVERLOAD };
            let scheduled = arrivals[next];
            late.push(clock() - scheduled);
            let request = generator.request();
            let span = trace::enter_id(names.offer, next as u64);
            let call = Instant::now();
            let offered = service.offer(request.clone(), scheduled);
            busy += call.elapsed();
            span.exit(1);
            match offered {
                Ok(id) => {
                    debug_assert_eq!(id as usize, admitted.len());
                    admitted.push((scheduled, next));
                    fifo.push_back(id);
                    if let Request::Place(tenant) = request {
                        placing.insert(id, (tenant.id(), tenant.load().get()));
                    }
                }
                Err(rejected) => {
                    let slot = usize::from(!light);
                    match rejected {
                        Rejected::Shed { .. } => counts[slot][0] += 1.0,
                        Rejected::QueueFull { .. } => counts[slot][1] += 1.0,
                        Rejected::DeadlineExceeded { .. } => counts[slot][2] += 1.0,
                    }
                    if light {
                        light_latency[next] = service_config().deadline_ms;
                    }
                }
            }
            next += 1;
        }

        if service.queue_depth() > 0 {
            let now = clock();
            let names = if now < params.light_ms { &LIGHT } else { &OVERLOAD };
            batch_id += 1;
            let span = trace::enter_id(names.start_batch, batch_id);
            let call = Instant::now();
            let work = service.start_batch(now).map_err(|e| format!("batch: {e}"))?;
            busy += call.elapsed();
            span.exit(work.ops as u64);
            for _ in 0..work.ops + work.expired.len() {
                let id = fifo.pop_front().expect("the service dequeues admitted requests");
                let (scheduled, index) = admitted[id as usize];
                let light = index < boundary;
                if work.expired.contains(&id) {
                    counts[usize::from(!light)][2] += 1.0;
                    placing.remove(&id);
                    if light {
                        light_latency[index] = service_config().deadline_ms;
                    }
                } else {
                    queue_wait[usize::from(!light)].push(now - scheduled);
                }
            }
            if work.ops > 0 {
                let call = Instant::now();
                if clock() >= next_checkpoint_ms {
                    crate::churn::checkpoint(&journal, service.consolidator())?;
                    next_checkpoint_ms += CHECKPOINT_MS;
                }
                let span = trace::enter_id(names.complete_batch, batch_id);
                let done_ms = clock();
                let done = service.complete_batch(done_ms);
                busy += call.elapsed();
                span.exit(done.len() as u64);
                for op in done {
                    let (_, index) = admitted[op.id as usize];
                    if index < boundary {
                        light_latency[index] = op.latency_ms;
                    } else if done_ms <= end_ms {
                        overload_done += 1;
                    }
                    if let Some(placed) = placing.remove(&op.id) {
                        generator.pool.push(placed);
                    }
                }
            }
        } else if next == arrivals.len() {
            break;
        } else {
            // Spin rather than sleep: a sleeping guest CPU wakes late, and
            // by an amount that varies with the host's load.
            let idle = trace::enter("bench.idle");
            while clock() < arrivals[next] {
                std::hint::spin_loop();
            }
            idle.exit(1);
        }
    }
    rep.timed_s = origin.elapsed().as_secs_f64();
    timed.exit(arrivals.len() as u64);

    let stats = service.stats();
    let (light_stats, light_limit) = light_end.unwrap_or((stats, service.limit()));
    counts[0][3] = light_stats.audits as f64;
    counts[0][4] = light_stats.ladder_down as f64;
    counts[0][5] = light_limit as f64;
    counts[1][3] = (stats.audits - light_stats.audits) as f64;
    counts[1][4] = (stats.ladder_down - light_stats.ladder_down) as f64;
    counts[1][5] = service.limit() as f64;
    for (names, values) in COUNTS.iter().zip(counts) {
        for (name, value) in names.iter().zip(values) {
            rep.counters.insert(name, value);
        }
    }
    let frames = journal.last_seq() - frames_before;
    rep.counters.insert("durability.frames", frames as f64);
    rep.counters.insert(
        "durability.bytes_per_op",
        (journal.appended_bytes() - bytes_before) as f64 / stats.completed.max(1) as f64,
    );
    let [light_wait, overload_wait] = queue_wait;
    rep.samples.insert("service.queue_wait.light", light_wait);
    rep.samples.insert("service.queue_wait.overload", overload_wait);
    rep.samples.insert("bench.gen_late", late);

    rep.busy_s = busy.as_secs_f64();
    rep.ops = stats.offered;
    // Refusals under light load are failed requests, but not wrong
    // output: they count against `failed` without failing a check.
    rep.failed += counts[0][..3].iter().sum::<f64>() as u64;
    rep.work = overload_done as f64;
    rep.work_s = vec![params.overload_ms / 1e3];
    rep.latency_ms = light_latency;

    let check = trace::enter_id(trace::CHECK, ctx.rep);
    if stats.offered != arrivals.len() as u64 {
        rep.fail(format!("{} requests offered, {} scheduled", stats.offered, arrivals.len()));
    }
    if service.pending() != 0
        || stats.offered != stats.completed + stats.shed + stats.queue_full + stats.deadline_expired
    {
        rep.fail(format!("service accounting does not balance: {stats:?}"));
    }
    let unanswered = rep.latency_ms.iter().filter(|l| l.is_nan()).count();
    if unanswered != 0 {
        rep.fail(format!("{unanswered} light-phase requests were never answered"));
    }
    if stats.audit_divergences != 0 {
        rep.fail(format!("ladder audits found {} divergences", stats.audit_divergences));
    }
    let placement = service.consolidator().placement();
    rep.check_placement(placement);
    rep.servers_used = placement.open_bins() as f64;
    check.exit(1);
    drop(service);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(rep)
}
