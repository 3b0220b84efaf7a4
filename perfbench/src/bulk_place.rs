//! `bulk-place`: initial consolidation of a fleet.
//!
//! One closed-loop caller places [`TENANTS`] uniform(1–15)-client tenants
//! with CubeFit (γ = 2, K = 10) through `place_batch` in chunks of 4096 on
//! the default backend. No journal, defrag or service runs, so the
//! decision (m-fit scan, cube slot) and index maintenance do all the work,
//! on ~178k servers — a working set far beyond the CPU caches. A request
//! is one `place_batch` call.

use crate::timed::{Timed, CORE};
use crate::{fingerprint, inputs, trace, Ctx, Rep, Window};
use std::time::Instant;

/// Tenants placed per repetition.
pub const TENANTS: usize = 1_000_000;
/// Tenants placed per repetition at smoke scale.
pub const SMOKE_TENANTS: usize = 20_000;

/// Runs one repetition. The warm-up and traced repetitions audit the
/// fleet in full; every repetition's final state must match the
/// warm-up's (checked by the caller through [`Rep::final_state`]).
///
/// # Errors
///
/// A `place_batch` call failed.
pub fn run_rep(ctx: &Ctx) -> Result<Rep, String> {
    let count = if ctx.smoke { SMOKE_TENANTS } else { TENANTS };
    let mut rep = Rep::default();

    let setup = trace::enter_id(trace::SETUP, ctx.rep);
    let started = Instant::now();
    let chunks = inputs::chunked(&inputs::tenants(inputs::uniform(), count, ctx.seed));
    let mut cubefit = inputs::cubefit(2);
    if ctx.traced {
        cubefit = Box::new(Timed::new(cubefit, &CORE));
    }
    rep.setup_s = started.elapsed().as_secs_f64();
    setup.exit(1);

    rep.latency_ms.reserve(chunks.len());
    let mut window = Window::new(ctx.rep);
    window.resume();
    for chunk in chunks {
        let call = Instant::now();
        cubefit.place_batch(chunk).map_err(|e| format!("place_batch: {e}"))?;
        rep.latency_ms.push(call.elapsed().as_secs_f64() * 1e3);
        window.lap();
    }
    window.finish(&mut rep);
    rep.ops = count as u64;
    rep.work = count as f64;

    let check = trace::enter_id(trace::CHECK, ctx.rep);
    let placement = cubefit.placement();
    if placement.tenant_count() != count {
        rep.fail(format!("{} of {count} tenants placed", placement.tenant_count()));
    }
    if ctx.rep == 0 || ctx.traced {
        rep.check_placement(placement);
    }
    if ctx.traced {
        rep.check_index_rebuild(placement);
    }
    rep.servers_used = placement.open_bins() as f64;
    rep.final_state = Some(fingerprint(placement));
    check.exit(1);
    Ok(rep)
}
