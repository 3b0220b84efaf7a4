//! Cost-aware defragmentation: drain a server only when the rent it
//! saves beats the migration it costs.
//!
//! The bin-count planner ([`crate::plan()`]) treats every closable server
//! as worth closing. Under a renting model that is wrong twice over: a
//! server whose current paid lease block already covers the planning
//! horizon saves *nothing* when closed (blocks are non-refundable), while
//! the drain itself streams real data. The economic planner scores every
//! candidate drain by *net-present saving* — the marginal rent of keeping
//! the bin open until the horizon (from the [`LeaseLedger`]) minus the
//! streaming cost of its replicas (from [`MigrationPricing`]) — and
//! drains best-net-first, skipping anything unprofitable.

use crate::budget::MigrationBudget;
use crate::plan::{drain_bin, DefragPlan, PlannedClose};
use cubefit_core::{BinId, Consolidator, Placement, Result};
use cubefit_economics::{LeaseLedger, MigrationPricing};
use cubefit_telemetry::{Recorder, TraceEvent};

/// What a defrag epoch optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum DefragObjective {
    /// Minimize open bins: drain every feasible low-fill server
    /// (the original planner, and the default).
    #[default]
    Bins,
    /// Minimize dollars: drain a server only when the rent saved over the
    /// next `horizon_ms` of simulated time exceeds the migration's
    /// streaming cost.
    Cost {
        /// Horizon the marginal rent of staying open is scored over.
        horizon_ms: u64,
    },
}

/// The economics of one candidate drain, scored against a live ledger.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DrainScore {
    /// Bin under consideration.
    pub bin: BinId,
    /// Marginal rent of keeping the bin open until the horizon.
    pub rent_saved_usd: f64,
    /// Streaming cost of draining all its replicas.
    pub migration_usd: f64,
    /// `rent_saved_usd - migration_usd`; the drain is worth taking only
    /// when this is positive.
    pub net_usd: f64,
}

/// Scores draining `bin` out of `placement`: the rent its closure saves
/// over `horizon_ms` minus the streaming cost of its current replicas.
///
/// Pure in the inputs — raising the ledger's rent rate raises
/// `rent_saved_usd` and leaves `migration_usd` untouched (pricing is
/// rent-independent by design), so a drain profitable at some rate stays
/// profitable at every higher rate. The planner monotonicity property
/// test pins exactly this.
#[must_use]
pub fn drain_score(
    placement: &Placement,
    bin: BinId,
    ledger: &LeaseLedger,
    pricing: &MigrationPricing,
    horizon_ms: u64,
) -> DrainScore {
    let contents = placement.bin(bin).contents();
    let replicas = contents.len();
    let load: f64 = contents.iter().map(|(_, l)| l).sum();
    let rent_saved_usd = ledger.keep_open_usd(bin, horizon_ms);
    let migration_usd = pricing.migration_usd(replicas, load);
    DrainScore { bin, rent_saved_usd, migration_usd, net_usd: rent_saved_usd - migration_usd }
}

/// Aggregate forecast attached to a cost-objective [`DefragPlan`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EconomicForecast {
    /// Horizon the plan was scored over.
    pub horizon_ms: u64,
    /// Rent the planned closes save over the horizon.
    pub rent_saved_usd: f64,
    /// Streaming cost of the planned migrations.
    pub migration_usd: f64,
    /// Predicted net saving (`rent_saved_usd - migration_usd`); every
    /// committed drain contributes positively, so this is ≥ 0.
    pub net_usd: f64,
    /// Candidate bins skipped because their drain was unprofitable.
    pub skipped_unprofitable: usize,
}

/// Computes a cost-objective defragmentation plan.
///
/// Identical safety story to [`crate::plan()`] — every step validated with
/// `move_feasible` in the simulated state it executes in, whole-bin
/// atomicity, never opens a bin — but candidate selection is economic:
/// each round scores every remaining open bin with [`drain_score`] and
/// drains the highest positive net first. Unprofitable bins are ruled out
/// permanently, which is sound because a candidate's score can only get
/// *worse* while planning (its rent saving is fixed by the ledger and its
/// contents only grow if survivors receive replicas).
#[must_use]
pub fn plan_economic(
    placement: &Placement,
    budget: MigrationBudget,
    ledger: &LeaseLedger,
    pricing: &MigrationPricing,
    horizon_ms: u64,
) -> DefragPlan {
    let fragmentation_before = placement.fragmentation();
    let mut sim = placement.clone();
    let mut steps = Vec::new();
    let mut closes: Vec<PlannedClose> = Vec::new();
    let mut moved_load = 0.0;
    let mut ruled_out: Vec<BinId> = Vec::new();
    let mut forecast = EconomicForecast {
        horizon_ms,
        rent_saved_usd: 0.0,
        migration_usd: 0.0,
        net_usd: 0.0,
        skipped_unprofitable: 0,
    };

    loop {
        if !budget.admits(steps.len(), moved_load, 1, 0.0) {
            break;
        }
        // Score the surviving candidates and rule out the unprofitable
        // ones — their nets cannot improve later (see above).
        let mut best: Option<DrainScore> = None;
        let candidates: Vec<BinId> = sim
            .bins()
            .filter(|b| b.level() > 0.0 && !ruled_out.contains(&b.id()))
            .map(|b| b.id())
            .collect();
        for bin in candidates {
            let score = drain_score(&sim, bin, ledger, pricing, horizon_ms);
            if score.net_usd <= 0.0 {
                ruled_out.push(bin);
                forecast.skipped_unprofitable += 1;
            } else if best.is_none_or(|b| {
                score.net_usd > b.net_usd || (score.net_usd == b.net_usd && score.bin < b.bin)
            }) {
                best = Some(score);
            }
        }
        let Some(score) = best else { break };
        ruled_out.push(score.bin);
        let level = sim.level(score.bin);
        if let Some((drained, bin_steps, bin_load)) =
            drain_bin(&sim, score.bin, &budget, steps.len(), moved_load)
        {
            sim = drained;
            moved_load += bin_load;
            steps.extend(bin_steps);
            closes.push(PlannedClose { bin: score.bin, level });
            forecast.rent_saved_usd += score.rent_saved_usd;
            forecast.migration_usd += score.migration_usd;
            forecast.net_usd += score.net_usd;
        }
    }

    let fragmentation_after = sim.fragmentation();
    DefragPlan {
        gamma: placement.gamma(),
        budget,
        steps,
        closes,
        moved_load,
        open_bins_before: placement.open_bins(),
        open_bins_after: sim.open_bins(),
        fragmentation_before,
        fragmentation_after,
        economics: Some(forecast),
    }
}

/// Predicted-vs-realized accounting for an applied economic plan.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EconomicOutcome {
    /// Net saving the plan predicted.
    pub predicted_net_usd: f64,
    /// Rent saving re-scored against the live ledger for the bins the
    /// apply actually closed.
    pub realized_rent_saved_usd: f64,
    /// Streaming cost of the steps actually applied and kept.
    pub realized_migration_usd: f64,
    /// `realized_rent_saved_usd - realized_migration_usd`.
    pub realized_net_usd: f64,
}

/// Applies an economic plan through [`crate::apply`] and settles its
/// predicted-vs-realized accounting against the live ledger.
///
/// The realized side is honest about staleness: rent savings are
/// re-scored at apply time for the bins that actually drained to empty,
/// and migration cost covers only the steps that were applied and kept —
/// an aborted plan realizes exactly zero on both sides. Emits
/// [`TraceEvent::EconomicDefragApplied`] alongside the events
/// [`crate::apply`] already produces.
///
/// # Errors
///
/// Propagates [`crate::apply`] errors.
pub fn apply_economic(
    consolidator: &mut dyn Consolidator,
    plan: &DefragPlan,
    ledger: &LeaseLedger,
    pricing: &MigrationPricing,
    recorder: &Recorder,
) -> Result<crate::execute::DefragOutcome> {
    let horizon_ms = plan.economics.map_or(0, |f| f.horizon_ms);
    // Score the planned closes against the live ledger *before* applying:
    // keep-open queries are only meaningful while the bin is still open.
    let close_savings: Vec<(BinId, f64)> =
        plan.closes.iter().map(|c| (c.bin, ledger.keep_open_usd(c.bin, horizon_ms))).collect();

    let mut outcome = crate::execute::apply(consolidator, plan, recorder)?;

    let realized_rent_saved_usd: f64 = if outcome.aborted {
        0.0
    } else {
        close_savings
            .iter()
            .filter(|(bin, _)| consolidator.placement().level(*bin) == 0.0)
            .map(|(_, saved)| saved)
            .sum()
    };
    let realized_migration_usd = pricing.migration_usd(outcome.applied_steps, outcome.moved_load);
    let economics = EconomicOutcome {
        predicted_net_usd: plan.economics.map_or(0.0, |f| f.net_usd),
        realized_rent_saved_usd,
        realized_migration_usd,
        realized_net_usd: realized_rent_saved_usd - realized_migration_usd,
    };
    outcome.economics = Some(economics);
    recorder.emit(|| TraceEvent::EconomicDefragApplied {
        predicted_net_usd: economics.predicted_net_usd,
        realized_net_usd: economics.realized_net_usd,
        servers_closed: outcome.servers_closed,
        skipped_unprofitable: plan.economics.map_or(0, |f| f.skipped_unprofitable),
    });
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::recovery::move_feasible;
    use cubefit_core::{Load, Tenant, TenantId};
    use cubefit_economics::{CostModel, LeaseTerms};

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    /// Two half-full bin pairs plus one thin pair (same shape as the
    /// bin-count planner's fixture).
    fn fragmented_placement() -> Placement {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..6).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.8), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.8), &[b[2], b[3]]).unwrap();
        p.place_tenant(&tenant(2, 0.1), &[b[4], b[5]]).unwrap();
        p
    }

    /// A ledger that has just opened a lease on every open bin of `p`.
    fn ledger_over(p: &Placement, block_ms: u64, hourly: f64) -> LeaseLedger {
        let terms = LeaseTerms::new(block_ms, CostModel::with_hourly_usd(hourly));
        let mut ledger = LeaseLedger::new(terms);
        let open: Vec<BinId> = p.bins().filter(|b| b.level() > 0.0).map(|b| b.id()).collect();
        ledger.advance(0, open);
        ledger
    }

    #[test]
    fn short_blocks_make_thin_drains_profitable() {
        let p = fragmented_placement();
        // 1-minute blocks at a steep rate: a 2-hour horizon needs ~120
        // more blocks per bin, dwarfing the thin replicas' streaming cost.
        let ledger = ledger_over(&p, 60_000, 10.0);
        let plan = plan_economic(
            &p,
            MigrationBudget::unlimited(),
            &ledger,
            &MigrationPricing::reference(),
            7_200_000,
        );
        assert_eq!(plan.servers_closed(), 2);
        assert_eq!(plan.steps.len(), 2);
        let forecast = plan.economics.unwrap();
        assert!(forecast.net_usd > 0.0);
        assert!(forecast.rent_saved_usd > forecast.migration_usd);
        // Steps still replay robustly, exactly like bin-count plans.
        let mut replay = p;
        for step in &plan.steps {
            assert!(move_feasible(&replay, step.tenant, step.from, step.to));
            replay.move_replica(step.tenant, step.from, step.to).unwrap();
            assert!(replay.is_robust());
        }
        assert_eq!(replay.open_bins(), plan.open_bins_after);
    }

    #[test]
    fn paid_up_blocks_make_every_drain_unprofitable() {
        let p = fragmented_placement();
        // One huge block, already paid: closing saves nothing within the
        // horizon, so the economic planner refuses to move anything.
        let ledger = ledger_over(&p, 86_400_000, 0.822);
        let plan = plan_economic(
            &p,
            MigrationBudget::unlimited(),
            &ledger,
            &MigrationPricing::reference(),
            7_200_000,
        );
        assert!(plan.is_empty());
        assert_eq!(plan.servers_closed(), 0);
        let forecast = plan.economics.unwrap();
        assert_eq!(forecast.net_usd, 0.0);
        assert!(forecast.skipped_unprofitable >= 1);
    }

    #[test]
    fn raising_rent_never_shrinks_the_plan() {
        // End-to-end monotonicity across a rate sweep: more rent can only
        // enlarge the profitable set, and with it the planned steps.
        let p = fragmented_placement();
        let mut last_steps = 0;
        for hourly in [0.01, 0.1, 1.0, 10.0, 100.0] {
            let ledger = ledger_over(&p, 600_000, hourly);
            let plan = plan_economic(
                &p,
                MigrationBudget::unlimited(),
                &ledger,
                &MigrationPricing::reference(),
                7_200_000,
            );
            assert!(
                plan.steps.len() >= last_steps,
                "steps shrank from {last_steps} to {} at rate {hourly}",
                plan.steps.len()
            );
            last_steps = plan.steps.len();
        }
        assert!(last_steps > 0, "the steep end of the sweep must migrate");
    }

    #[test]
    fn respects_migration_budget() {
        let p = fragmented_placement();
        let ledger = ledger_over(&p, 60_000, 10.0);
        let plan = plan_economic(
            &p,
            MigrationBudget::moves(1),
            &ledger,
            &MigrationPricing::reference(),
            7_200_000,
        );
        assert!(plan.steps.len() <= 1);
        assert_eq!(plan.servers_closed(), plan.steps.len());
    }

    #[test]
    fn apply_economic_settles_predicted_vs_realized() {
        use cubefit_core::{CubeFit, CubeFitConfig};
        let config = CubeFitConfig::builder().replication(2).classes(5).build().unwrap();
        let mut cubefit = CubeFit::new(config);
        for id in 0..40 {
            cubefit.place(tenant(id, 0.05 + 0.02 * (id % 10) as f64)).unwrap();
        }
        for id in 0..40 {
            if id % 3 != 0 {
                cubefit.remove(TenantId::new(id)).unwrap();
            }
        }
        let ledger = ledger_over(cubefit.placement(), 60_000, 10.0);
        let pricing = MigrationPricing::reference();
        let plan = plan_economic(
            cubefit.placement(),
            MigrationBudget::unlimited(),
            &ledger,
            &pricing,
            7_200_000,
        );
        assert!(!plan.is_empty(), "fragmented cubefit must have profitable drains");
        let outcome =
            apply_economic(&mut cubefit, &plan, &ledger, &pricing, &Recorder::disabled()).unwrap();
        assert!(!outcome.aborted);
        let econ = outcome.economics.unwrap();
        // Plan applied fresh: realized must match predicted exactly
        // (same ledger, same placement, nothing drifted in between).
        let forecast = plan.economics.unwrap();
        assert!((econ.realized_rent_saved_usd - forecast.rent_saved_usd).abs() < 1e-9);
        assert!((econ.realized_migration_usd - forecast.migration_usd).abs() < 1e-9);
        assert!((econ.realized_net_usd - econ.predicted_net_usd).abs() < 1e-9);
        assert!(cubefit.placement().is_robust());
    }

    #[test]
    fn aborted_economic_plan_realizes_zero() {
        use cubefit_core::{CubeFit, CubeFitConfig};
        let config = CubeFitConfig::builder().replication(2).classes(5).build().unwrap();
        let mut cubefit = CubeFit::new(config);
        for id in 0..40 {
            cubefit.place(tenant(id, 0.05 + 0.02 * (id % 10) as f64)).unwrap();
        }
        for id in 0..40 {
            if id % 3 != 0 {
                cubefit.remove(TenantId::new(id)).unwrap();
            }
        }
        let ledger = ledger_over(cubefit.placement(), 60_000, 10.0);
        let pricing = MigrationPricing::reference();
        let plan = plan_economic(
            cubefit.placement(),
            MigrationBudget::unlimited(),
            &ledger,
            &pricing,
            7_200_000,
        );
        assert!(plan.steps.len() >= 2, "need a multi-step plan for a mid-plan abort");
        // Invalidate a later step, exactly like the bin-count abort test.
        let victim = plan.steps.last().unwrap().tenant;
        cubefit.remove(victim).unwrap();
        let outcome =
            apply_economic(&mut cubefit, &plan, &ledger, &pricing, &Recorder::disabled()).unwrap();
        assert!(outcome.aborted);
        let econ = outcome.economics.unwrap();
        assert_eq!(econ.realized_rent_saved_usd, 0.0);
        assert_eq!(econ.realized_migration_usd, 0.0);
        assert_eq!(econ.realized_net_usd, 0.0);
    }

    #[test]
    fn objective_serde_round_trip() {
        for objective in [DefragObjective::Bins, DefragObjective::Cost { horizon_ms: 7_200_000 }] {
            let json = serde_json::to_string(&objective).unwrap();
            let back: DefragObjective = serde_json::from_str(&json).unwrap();
            assert_eq!(back, objective);
        }
        assert_eq!(DefragObjective::default(), DefragObjective::Bins);
    }
}
