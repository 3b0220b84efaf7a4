//! Service-loop differential suite: every mutation the
//! [`cubefit_service::PlacementService`] admits — under queueing,
//! shedding, deadline expiry, and the audit degradation ladder — must
//! leave a placement the from-scratch oracle reproduces exactly.
//!
//! The churn suite covers the consolidator's mutating paths directly;
//! this one covers the *service wrapper*: admission control must only
//! ever drop whole requests (never half-apply one), so whatever subset
//! of the offered stream gets admitted, the resulting placement is
//! indistinguishable from replaying that subset from scratch.

use cubefit_core::{oracle, Consolidator, CubeFit, CubeFitConfig, Load, Tenant, TenantId};
use cubefit_service::{PlacementService, Request, ServiceConfig};
use cubefit_sim::serve::{run_serve, ServeConfig};
use cubefit_sim::RunOptions;
use cubefit_telemetry::Recorder;
use proptest::prelude::*;

fn cubefit(gamma: usize, classes: usize) -> Box<dyn Consolidator> {
    Box::new(CubeFit::new(
        CubeFitConfig::builder().replication(gamma).classes(classes).build().unwrap(),
    ))
}

/// Self-contained LCG (the proptest shim draws scalars, not sequences).
struct OpRng(u64);

impl OpRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() % (1u64 << 53)) as f64 / (1u64 << 53) as f64
    }
}

/// Drives `ops` seeded requests through a service under pressure (small
/// queue, tight limiter window) so a healthy share gets shed or expires,
/// then checks the surviving placement against the oracle.
fn drive(seed: u64, ops: usize, deadline_ms: f64) {
    let config = ServiceConfig {
        limiter: cubefit_service::LimiterSpec::aimd(2, 8),
        queue_capacity: 8,
        batch_max: 4,
        deadline_ms,
        ..ServiceConfig::default()
    };
    let mut service = PlacementService::new(cubefit(2, 5), config, Recorder::disabled()).unwrap();
    let mut rng = OpRng(seed | 1);
    // A tenant is only a valid Remove/UpdateLoad target once its Place
    // COMPLETED (same pool semantics as the DES harness): a queued Place
    // may still be shed by expiry, and executing a Remove for a tenant
    // that was never placed is a caller error, not a service one.
    let mut pending_place: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut alive: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut now_ms = 0.0f64;
    let serve_step = |service: &mut PlacementService,
                      now_ms: &mut f64,
                      rng: &mut OpRng,
                      pending_place: &mut std::collections::HashMap<u64, u64>,
                      alive: &mut Vec<u64>| {
        let work = service.start_batch(*now_ms).unwrap();
        for id in &work.expired {
            pending_place.remove(id);
        }
        if work.ops > 0 {
            *now_ms += 1.0 + 10.0 * rng.unit();
            for op in service.complete_batch(*now_ms) {
                if let Some(tenant) = pending_place.remove(&op.id) {
                    alive.push(tenant);
                }
            }
        }
    };
    for op in 0..ops {
        // Periodic same-instant burst past the queue capacity, so every
        // seed exercises the rejection paths.
        let offers = if op % 31 == 0 { 12 } else { 1 };
        for _ in 0..offers {
            let roll = rng.below(100);
            let request = if roll < 30 && !alive.is_empty() {
                Request::Remove(TenantId::new(alive.swap_remove(rng.below(alive.len()))))
            } else if roll < 50 && !alive.is_empty() {
                let id = alive[rng.below(alive.len())];
                Request::UpdateLoad(TenantId::new(id), 0.05 + 0.9 * rng.unit())
            } else {
                next_id += 1;
                Request::Place(Tenant::new(
                    TenantId::new(next_id),
                    Load::new(0.05 + 0.9 * rng.unit()).unwrap(),
                ))
            };
            let placing = matches!(request, Request::Place(_));
            if let Ok(id) = service.offer(request, now_ms) {
                if placing {
                    pending_place.insert(id, next_id);
                }
            }
        }
        // Irregular service cadence: sometimes the worker lags so the
        // queue builds (and deadlines fire), sometimes it keeps up.
        if !service.busy() && rng.below(100) < 60 {
            serve_step(&mut service, &mut now_ms, &mut rng, &mut pending_place, &mut alive);
        }
        now_ms += rng.unit();
        assert!(service.accounting_balanced(), "accounting drifted at t={now_ms:.2}");
    }
    // Drain whatever is still queued.
    while service.queue_depth() > 0 || service.busy() {
        serve_step(&mut service, &mut now_ms, &mut rng, &mut pending_place, &mut alive);
        now_ms += 5.0;
    }
    let stats = service.stats();
    assert!(service.accounting_balanced(), "final accounting must balance: {stats:?}");
    assert!(stats.rejected() > 0, "pressure profile should reject something (seed {seed})");

    let placement = service.dump().to_placement().expect("dump rebuilds");
    oracle::audit(&placement).unwrap_or_else(|divergences| {
        panic!("admitted mutations diverge from the oracle (seed {seed}): {divergences:?}")
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever subset of a random request stream survives admission
    /// control, the placement replays clean from scratch.
    #[test]
    fn admitted_subset_always_replays_clean(seed in 0u64..1_000_000, ops in 100usize..400) {
        drive(seed, ops, 50.0);
    }

    /// Same contract with deadlines so tight that queued requests expire
    /// at dequeue — expiry must also drop whole requests only.
    #[test]
    fn deadline_expiry_never_half_applies(seed in 0u64..1_000_000) {
        drive(seed, 250, 2.0);
    }
}

/// End-to-end: the DES harness's storm profile — shedding, ladder moves,
/// drain — ends in a placement the oracle reproduces, for several seeds.
#[test]
fn storm_runs_end_oracle_clean_across_seeds() {
    for seed in [1u64, 7, 23] {
        let mut config = ServeConfig::bench(seed, true);
        config.horizon_ms = 3_000.0;
        config.storm = config.storm.map(|mut s| {
            s.start_ms = 750.0;
            s.duration_ms = 1_500.0;
            s
        });
        let run = run_serve(config, &RunOptions::default()).expect("serve runs");
        assert_eq!(run.report.audit_divergences, 0, "seed {seed}");
        assert_eq!(
            run.report.offered,
            run.report.completed
                + run.report.shed
                + run.report.queue_full
                + run.report.deadline_expired,
            "offered must decompose exactly (seed {seed})"
        );
        let placement = run.dump.to_placement().expect("dump rebuilds");
        oracle::audit(&placement)
            .unwrap_or_else(|d| panic!("seed {seed}: storm run diverged: {d:?}"));
    }
}
