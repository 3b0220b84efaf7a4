//! `churn`: the steady-state lifecycle of a mid-size region.
//!
//! CubeFit (γ = 3, K = 10) with zipf(1.0) clients is prefilled to
//! [`Params::prefill`] tenants, then one closed-loop caller runs the churn
//! mix — 45% place, 45% remove, 9.5% load re-estimate, 0.5% single-server
//! failure + recovery — with every mutation journaled through
//! `JournaledConsolidator` (fsync `interval:1024`, the CLI default). Every
//! [`Params::epoch`] ops a defrag epoch (plan + apply, 64 moves) and a
//! journal checkpoint run inside the timed window and an oracle audit runs
//! outside it. Mutation on a fragmented placement gives every layer but
//! the service a visible share of the time. A request is one op.

use crate::inputs::{self, ChurnMix};
use crate::timed::{Timed, CORE, DURABILITY};
use crate::{fingerprint, trace, Ctx, Rep, Window};
use cubefit_core::Consolidator;
use cubefit_defrag::MigrationBudget;
use cubefit_durability::{FsyncPolicy, Journal, JournaledConsolidator};
use cubefit_telemetry::Recorder;
use std::path::Path;
use std::time::Instant;

/// Replication factor.
pub const GAMMA: usize = 3;
/// Journal fsync policy (the CLI default).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Interval(1024);
/// Replica moves per defrag epoch.
pub const DEFRAG_MOVES: usize = 64;
/// Ops per block of [`Rep::work_s`].
const BLOCK_OPS: u64 = 1_000;

/// Sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tenants placed before the timed window.
    pub prefill: usize,
    /// Ops in the timed window.
    pub ops: u64,
    /// Ops between defrag epochs.
    pub epoch: u64,
}

impl Params {
    /// Benchmark or smoke scale.
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Params { prefill: 2_000, ops: 3_000, epoch: 1_000 }
        } else {
            Params { prefill: 20_000, ops: 60_000, epoch: 20_000 }
        }
    }
}

/// Builds the journaled stack in `dir`: `JournaledConsolidator(CubeFit)`,
/// or `Timed(JournaledConsolidator(Timed(CubeFit)))` when traced.
///
/// # Errors
///
/// The journal could not be created.
pub fn journaled_stack(
    gamma: usize,
    dir: &Path,
    traced: bool,
) -> Result<(Box<dyn Consolidator>, Journal), String> {
    let journal = Journal::create(dir, gamma, FSYNC).map_err(|e| format!("journal: {e}"))?;
    let mut cubefit = inputs::cubefit(gamma);
    if traced {
        cubefit = Box::new(Timed::new(cubefit, &CORE));
    }
    let mut stack: Box<dyn Consolidator> =
        Box::new(JournaledConsolidator::new(cubefit, journal.clone()));
    if traced {
        stack = Box::new(Timed::new(stack, &DURABILITY));
    }
    Ok((stack, journal))
}

/// Checkpoints `journal` inside a `durability.checkpoint` span.
///
/// # Errors
///
/// The checkpoint could not be written.
pub fn checkpoint(journal: &Journal, stack: &dyn Consolidator) -> Result<u64, String> {
    let span = trace::enter("durability.checkpoint");
    let info = journal.checkpoint(stack.placement()).map_err(|e| format!("checkpoint: {e}"))?;
    span.exit(stack.placement().tenant_count() as u64);
    Ok(info.seq)
}

/// Runs one repetition.
///
/// # Errors
///
/// A mutation, defrag apply or journal operation failed.
pub fn run_rep(ctx: &Ctx) -> Result<Rep, String> {
    let params = Params::new(ctx.smoke);
    let dir = ctx.dir.join(format!("churn-{}", ctx.rep));
    let mut rep = Rep::default();

    let setup = trace::enter_id(trace::SETUP, ctx.rep);
    let started = Instant::now();
    let (mut stack, journal) = journaled_stack(GAMMA, &dir, ctx.traced)?;
    inputs::fill(&mut *stack, &inputs::tenants(inputs::zipf(), params.prefill, ctx.seed))
        .map_err(|e| format!("prefill: {e}"))?;
    checkpoint(&journal, &*stack)?;
    let mut mix = ChurnMix::new(ctx.seed ^ 0x5eed, Box::new(inputs::zipf()), stack.placement());
    rep.setup_s = started.elapsed().as_secs_f64();
    setup.exit(1);

    let (frames_before, bytes_before) = (journal.last_seq(), journal.appended_bytes());
    rep.latency_ms.reserve(params.ops as usize);
    let mut window = Window::new(ctx.rep);
    window.resume();
    for n in 1..=params.ops {
        let op = mix.next_op(stack.placement());
        let call = Instant::now();
        op.apply(&mut *stack).map_err(|e| format!("op {n} ({op:?}): {e}"))?;
        rep.latency_ms.push(call.elapsed().as_secs_f64() * 1e3);
        if n % params.epoch == 0 {
            defrag_epoch(&mut *stack, &mut rep)?;
            checkpoint(&journal, &*stack)?;
            window.pause();
            let check = trace::enter_id(trace::CHECK, ctx.rep);
            rep.check_placement(stack.placement());
            check.exit(1);
            window.resume();
        }
        if n % BLOCK_OPS == 0 {
            window.lap();
        }
    }
    window.finish(&mut rep);
    rep.ops = params.ops;
    rep.work = params.ops as f64;

    let frames = journal.last_seq() - frames_before;
    rep.counters.insert("durability.frames", frames as f64);
    rep.counters.insert(
        "durability.bytes_per_op",
        (journal.appended_bytes() - bytes_before) as f64 / frames.max(1) as f64,
    );
    let placement = stack.placement();
    rep.servers_used = placement.open_bins() as f64;
    rep.final_state = Some(fingerprint(placement));
    if ctx.traced {
        let check = trace::enter_id(trace::CHECK, ctx.rep);
        rep.check_index_rebuild(placement);
        check.exit(1);
    }
    drop(stack);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(rep)
}

/// One defrag epoch: plan with a 64-move budget, then apply through the
/// journaled stack (each migration is journaled).
fn defrag_epoch(stack: &mut dyn Consolidator, rep: &mut Rep) -> Result<(), String> {
    let span = trace::enter("defrag.plan");
    let plan = cubefit_defrag::plan(stack.placement(), MigrationBudget::moves(DEFRAG_MOVES));
    span.exit(plan.steps.len() as u64);
    let span = trace::enter("defrag.apply");
    let outcome = cubefit_defrag::apply(stack, &plan, &Recorder::disabled())
        .map_err(|e| format!("defrag apply: {e}"))?;
    span.exit(outcome.applied_steps as u64);
    for (key, value) in [
        ("defrag.steps_planned", plan.steps.len() as f64),
        ("defrag.steps_applied", outcome.applied_steps as f64),
        ("defrag.servers_closed", outcome.servers_closed as f64),
        ("defrag.aborts", f64::from(u8::from(outcome.aborted))),
    ] {
        *rep.counters.entry(key).or_default() += value;
    }
    Ok(())
}
