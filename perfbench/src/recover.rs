//! `recover`: crash restart.
//!
//! Set-up journals (fsync `interval:1024`) a [`Params::fill`]-tenant
//! uniform CubeFit (γ = 2) fill, one checkpoint and a [`Params::tail`]-op
//! churn-mix tail that includes server failures, then drops the handle
//! without sealing — a crash. The timed work is `recover(dir)`,
//! [`Params::recoveries`] times on the unchanged directory: the
//! durability layer's read path (checkpoint parse, frame decode and CRC,
//! replay into the placement index), where `churn` exercises its write
//! path. A request is one recovery; every recovered dump must be
//! byte-identical to the live one, with no torn tail and a clean audit.

use crate::churn::{checkpoint, journaled_stack};
use crate::inputs::{self, ChurnMix};
use crate::{fingerprint, trace, Ctx, Rep, Window};
use cubefit_core::PlacementDump;
use cubefit_durability::{recover, recover_up_to, RecoveredState};
use std::path::Path;
use std::time::Instant;

/// Sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tenants in the checkpoint.
    pub fill: usize,
    /// Journaled ops after the checkpoint.
    pub tail: u64,
    /// Timed recoveries of the directory.
    pub recoveries: usize,
}

impl Params {
    /// Benchmark or smoke scale.
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Params { fill: 3_000, tail: 1_500, recoveries: 2 }
        } else {
            Params { fill: 50_000, tail: 10_000, recoveries: 8 }
        }
    }
}

/// What set-up left on disk.
#[derive(Debug)]
pub struct Crashed {
    /// JSON of the placement the crashed process had acknowledged.
    pub live_dump: String,
    /// Tenants the checkpoint holds.
    pub checkpoint_tenants: usize,
    /// Sequence number the checkpoint covers.
    pub checkpoint_seq: u64,
    /// Frames journaled after the checkpoint.
    pub tail_frames: u64,
    /// Bytes those frames take in the write-ahead log.
    pub tail_bytes: u64,
}

/// Journals a fill, a checkpoint and a churn tail into `dir`, then drops
/// the journal without sealing it.
///
/// # Errors
///
/// A mutation or journal operation failed.
pub fn crash(params: &Params, seed: u64, dir: &Path, traced: bool) -> Result<Crashed, String> {
    let (mut stack, journal) = journaled_stack(2, dir, traced)?;
    inputs::fill(&mut *stack, &inputs::tenants(inputs::uniform(), params.fill, seed))
        .map_err(|e| format!("fill: {e}"))?;
    let checkpoint_seq = checkpoint(&journal, &*stack)?;
    let bytes_before = journal.appended_bytes();
    let mut mix = ChurnMix::new(seed ^ 0x5eed, Box::new(inputs::uniform()), stack.placement());
    for n in 1..=params.tail {
        let op = mix.next_op(stack.placement());
        op.apply(&mut *stack).map_err(|e| format!("tail op {n} ({op:?}): {e}"))?;
    }
    let live = PlacementDump::from_placement(stack.placement());
    Ok(Crashed {
        live_dump: serde_json::to_string(&live).map_err(|e| format!("dump: {e}"))?,
        checkpoint_tenants: params.fill,
        checkpoint_seq,
        tail_frames: journal.last_seq() - checkpoint_seq,
        tail_bytes: journal.appended_bytes() - bytes_before,
    })
}

/// The timed call: recovers the journal in `dir`.
///
/// # Errors
///
/// `recover` refused the journal; a corrupt journal fails the run
/// instead of reporting a time.
pub fn replay(dir: &Path) -> Result<RecoveredState, String> {
    recover(dir).map_err(|e| format!("recover: {e}"))
}

/// Runs one repetition.
///
/// # Errors
///
/// Set-up failed, or [`replay`] did.
pub fn run_rep(ctx: &Ctx) -> Result<Rep, String> {
    let params = Params::new(ctx.smoke);
    let dir = ctx.dir.join(format!("recover-{}", ctx.rep));
    let mut rep = Rep::default();

    let setup = trace::enter_id(trace::SETUP, ctx.rep);
    let started = Instant::now();
    let crashed = crash(&params, ctx.seed, &dir, ctx.traced)?;
    rep.setup_s = started.elapsed().as_secs_f64();
    setup.exit(1);

    let mut window = Window::new(ctx.rep);
    for n in 0..params.recoveries {
        window.resume();
        let span = trace::enter("durability.recover");
        let call = Instant::now();
        let state = replay(&dir)?;
        rep.latency_ms.push(call.elapsed().as_secs_f64() * 1e3);
        span.exit(state.frames_replayed);
        window.lap();
        window.pause();

        let check = trace::enter_id(trace::CHECK, ctx.rep);
        if state.torn_tail || state.frames_replayed != crashed.tail_frames {
            rep.fail(format!(
                "recovered {} of {} frames (torn tail: {})",
                state.frames_replayed, crashed.tail_frames, state.torn_tail
            ));
        }
        let dump = serde_json::to_string(&state.dump()).map_err(|e| format!("dump: {e}"))?;
        if dump != crashed.live_dump {
            rep.fail("recovered placement differs from the acknowledged one".to_owned());
        }
        if n == 0 {
            rep.servers_used = state.placement.open_bins() as f64;
            rep.final_state = Some(fingerprint(&state.placement));
            rep.check_placement(&state.placement);
            if ctx.traced {
                rep.check_index_rebuild(&state.placement);
            }
        }
        check.exit(1);
    }
    window.finish(&mut rep);
    rep.ops = params.recoveries as u64;
    let records = crashed.checkpoint_tenants as u64 + crashed.tail_frames;
    rep.work = (records * params.recoveries as u64) as f64;
    rep.counters.insert("durability.recover.frames", crashed.tail_frames as f64);
    rep.counters.insert("durability.frames", crashed.tail_frames as f64);
    rep.counters.insert(
        "durability.bytes_per_op",
        crashed.tail_bytes as f64 / crashed.tail_frames.max(1) as f64,
    );

    if ctx.traced {
        let check = trace::enter_id(trace::CHECK, ctx.rep);
        let span = trace::enter("durability.recover_checkpoint");
        let state = recover_up_to(&dir, crashed.checkpoint_seq)
            .map_err(|e| format!("recover to the checkpoint: {e}"))?;
        span.exit(state.placement.tenant_count() as u64);
        check.exit(1);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(rep)
}
