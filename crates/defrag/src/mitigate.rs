//! Graceful-degradation mitigation: draining load off servers the
//! invariant monitor flags, under a migration budget.
//!
//! Load drift can push a consolidated placement out of its Theorem-1
//! envelope: a tenant's measured load grows in place, and suddenly some
//! server's worst-case failover exceeds capacity. Mitigation is the repair
//! pass: given a [`cubefit_core::monitor`] classification, it plans replica
//! migrations that drain the worst servers first — every violated server
//! (deepest deficit first), then every at-risk server (smallest slack
//! first) — until each is safe again or the [`MigrationBudget`] runs out.
//!
//! The planner **degrades gracefully** rather than panicking or
//! over-promising: when budget or feasibility runs out mid-repair it
//! returns the partial plan it has, plus an explicit [`ResidualRisk`]
//! report naming every server still violated or at risk in the planned
//! end-state, with its remaining deficit/slack. Callers decide what to do
//! with the residue (raise the budget, shed tenants, page an operator).
//!
//! Every planned move passes [`move_feasible`] when the neighborhood it
//! touches is robust. Starting from a *violated* state that predicate is
//! too strong — it rejects any move whose sibling bin is still (less)
//! violated afterwards, which is exactly what the first repair move of a
//! drifted pair looks like. Mitigation therefore falls back to a
//! **monotone-improvement** check ([`move_repairs`]): the move may not
//! push any Theorem-1-satisfying bin into violation, and may not make any
//! still-violated bin worse (unchanged is fine — a violated sibling is
//! repaired on its own turn, not blocked on this one). Draining always
//! strictly improves the server being drained, so total violation never
//! grows and a repair sequence composes. Unlike defrag, mitigation may also move
//! replicas onto *empty* (but previously created) servers: re-opening a
//! drained server is the cheap way to buy slack, and safety outranks
//! consolidation here.

use crate::budget::MigrationBudget;
use crate::plan::DefragStep;
use cubefit_core::monitor::{classify_bin, classify_with, MonitorReport};
use cubefit_core::recovery::move_feasible;
use cubefit_core::{validity, BinId, Consolidator, Placement, Result, TenantId, EPSILON};
use cubefit_telemetry::{Recorder, TraceEvent};

/// Servers a mitigation pass could not (fully) repair, with how bad each
/// still is in the planned end-state.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ResidualRisk {
    /// Servers still violated, worst (largest deficit) first.
    pub violated: Vec<(BinId, f64)>,
    /// Servers still at risk, worst (smallest slack) first.
    pub at_risk: Vec<(BinId, f64)>,
    /// Total overload depth across the still-violated servers (the
    /// `residual_risk_load` gauge).
    pub residual_load: f64,
}

impl ResidualRisk {
    /// Whether mitigation left nothing behind.
    #[must_use]
    pub fn is_clear(&self) -> bool {
        self.violated.is_empty() && self.at_risk.is_empty()
    }

    /// The still-violated servers, worst first.
    #[must_use]
    pub fn violated_bins(&self) -> Vec<BinId> {
        self.violated.iter().map(|&(bin, _)| bin).collect()
    }

    fn from_report(report: &MonitorReport) -> Self {
        ResidualRisk {
            violated: report.violated.clone(),
            at_risk: report.at_risk.clone(),
            residual_load: report.violated.iter().map(|&(_, deficit)| deficit).sum(),
        }
    }
}

/// An executable mitigation plan plus its honest residue.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MitigationPlan {
    /// Replication factor of the placement the plan was computed for.
    pub gamma: usize,
    /// Budget the plan was computed under.
    pub budget: MigrationBudget,
    /// At-risk slack threshold the monitor classification used.
    pub at_risk_slack: f64,
    /// Migration steps in execution order.
    pub steps: Vec<DefragStep>,
    /// Total replica load the plan moves.
    pub moved_load: f64,
    /// Servers needing attention before the plan (violated + at risk).
    pub attention_before: usize,
    /// Servers violated before the plan.
    pub violated_before: usize,
    /// Flagged servers the plan restores to a safe margin.
    pub cured: Vec<BinId>,
    /// What the plan could not repair.
    pub residual: ResidualRisk,
}

impl MitigationPlan {
    /// Whether the plan contains no migrations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Pretty JSON rendering for reports.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }
}

/// Plans a mitigation pass over `placement` under `budget`, using the
/// monitor's default at-risk threshold
/// ([`cubefit_core::monitor::DEFAULT_AT_RISK_SLACK`]).
#[must_use]
pub fn plan_mitigation(placement: &Placement, budget: MigrationBudget) -> MitigationPlan {
    plan_mitigation_with(placement, budget, cubefit_core::monitor::DEFAULT_AT_RISK_SLACK)
}

/// Plans a mitigation pass with an explicit at-risk slack threshold.
///
/// The planner simulates on a clone. Flagged servers are visited worst
/// first; each is drained replica-by-replica (largest replica first, so
/// margins recover in the fewest moves) into the fullest target that both
/// passes [`move_repairs`] and stays *safe* after the move — falling back
/// to the admissible target with the most post-move headroom when no
/// target can absorb the replica safely. A server whose replicas have no
/// admissible target at all, or whose next move no longer fits the budget,
/// is left to the [`ResidualRisk`] report.
#[must_use]
pub fn plan_mitigation_with(
    placement: &Placement,
    budget: MigrationBudget,
    at_risk_slack: f64,
) -> MitigationPlan {
    let before = classify_with(placement, at_risk_slack);
    let mut sim = placement.clone();
    let mut steps: Vec<DefragStep> = Vec::new();
    let mut moved_load = 0.0;

    'bins: for bin in before.attention_order() {
        while classify_bin(&sim, bin, at_risk_slack).state.needs_attention() {
            if !budget.admits(steps.len(), moved_load, 1, 0.0) {
                break 'bins;
            }
            let Some((tenant, replica, to)) = best_move(&sim, bin, at_risk_slack) else {
                // Nothing on this server can move anywhere — residual risk.
                continue 'bins;
            };
            if !budget.admits(steps.len(), moved_load, 1, replica) {
                break 'bins;
            }
            sim.move_replica(tenant, bin, to).expect("admissible moves have valid endpoints");
            steps.push(DefragStep { tenant, from: bin, to, load: replica });
            moved_load += replica;
        }
    }

    let after = classify_with(&sim, at_risk_slack);
    let cured = before
        .attention_order()
        .into_iter()
        .filter(|bin| !classify_bin(&sim, *bin, at_risk_slack).state.needs_attention())
        .collect();
    MitigationPlan {
        gamma: placement.gamma(),
        budget,
        at_risk_slack,
        steps,
        moved_load,
        attention_before: before.attention_order().len(),
        violated_before: before.violated.len(),
        cured,
        residual: ResidualRisk::from_report(&after),
    }
}

/// Whether moving `tenant`'s replica from `from` to `to` makes the
/// placement monotonically safer.
///
/// The fast path is [`move_feasible`] — a robust-to-robust move. When that
/// fails (repairs of a violated neighborhood always do at first, because
/// the conservative predicate demands full Theorem-1 margins on bins that
/// are still mid-repair), the move is simulated and accepted iff every
/// affected bin either satisfies Theorem 1 afterwards or is no worse off
/// than before. Only `from`, `to`, and the tenant's sibling bins can
/// change margin, so only those are compared.
#[must_use]
pub fn move_repairs(placement: &Placement, tenant: TenantId, from: BinId, to: BinId) -> bool {
    if move_feasible(placement, tenant, from, to) {
        return true;
    }
    let Some(bins) = placement.tenant_bins(tenant) else { return false };
    let mut affected: Vec<BinId> = bins.to_vec();
    affected.push(to);
    affected.sort_unstable();
    affected.dedup();
    let margin = |p: &Placement, b: BinId| validity::margin(p.level(b), p.worst_failover(b));
    let before: Vec<f64> = affected.iter().map(|&b| margin(placement, b)).collect();
    let mut trial = placement.clone();
    if trial.move_replica(tenant, from, to).is_err() {
        return false;
    }
    affected.iter().zip(before).all(|(&b, old)| {
        let new = margin(&trial, b);
        !validity::is_violation(new) || new >= old - EPSILON
    })
}

/// The best single drain move off `bin`: the largest replica that has any
/// admissible target, paired with the fullest target left safe by the
/// move (or, failing that, the admissible target with the most post-move
/// margin).
fn best_move(sim: &Placement, bin: BinId, at_risk_slack: f64) -> Option<(TenantId, f64, BinId)> {
    let mut replicas: Vec<(TenantId, f64)> = sim.bin(bin).contents().to_vec();
    replicas.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    // Fullest first: mitigation prefers not to spread load, but will.
    let mut targets: Vec<(BinId, f64)> =
        sim.bins().filter(|b| b.id() != bin).map(|b| (b.id(), b.level())).collect();
    targets.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    for (tenant, replica) in replicas {
        let mut fallback: Option<(BinId, f64)> = None;
        for &(to, _) in &targets {
            if !move_repairs(sim, tenant, bin, to) {
                continue;
            }
            let mut trial = sim.clone();
            trial.move_replica(tenant, bin, to).expect("admissible move");
            let margin = classify_bin(&trial, to, at_risk_slack).margin;
            if margin >= at_risk_slack {
                // Fullest target that stays safe — take it.
                return Some((tenant, replica, to));
            }
            if fallback.is_none_or(|(_, best)| margin > best) {
                fallback = Some((to, margin));
            }
        }
        if let Some((to, _)) = fallback {
            return Some((tenant, replica, to));
        }
    }
    None
}

/// What applying a [`MitigationPlan`] actually did.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MitigationOutcome {
    /// Steps applied and kept (0 after an abort — the rollback undid them).
    pub applied_steps: usize,
    /// Replica load moved and kept.
    pub moved_load: f64,
    /// Whether the plan was aborted and rolled back.
    pub aborted: bool,
    /// Step index that failed its feasibility re-check, if any.
    pub aborted_at: Option<usize>,
    /// Flagged servers actually restored to safe margins, measured on the
    /// live placement after the apply.
    pub cured: usize,
    /// Risk remaining on the live placement after the apply.
    pub residual: ResidualRisk,
}

/// Applies `plan` through the consolidator's [`Consolidator::migrate`]
/// primitive, atomically.
///
/// Every step is re-checked with [`move_repairs`] against the *live*
/// placement immediately before it runs — the placement may have drifted
/// since planning. The first step that fails the re-check aborts the whole
/// plan: the applied prefix is rolled back in reverse order with inverse
/// migrations and the consolidator ends where it started (with the
/// then-current risk reported as residual).
///
/// Emits [`TraceEvent::MitigationPlanned`] once and updates the
/// `at_risk_servers` / `violated_servers` / `residual_risk_load` gauges
/// from the final live placement.
///
/// # Errors
///
/// Propagates [`Consolidator::migrate`] errors — endpoint invariant
/// violations the feasibility re-check cannot see, not a planned abort.
pub fn apply_mitigation(
    consolidator: &mut dyn Consolidator,
    plan: &MitigationPlan,
    recorder: &Recorder,
) -> Result<MitigationOutcome> {
    recorder.emit(|| TraceEvent::MitigationPlanned {
        steps: plan.steps.len(),
        moved_load: plan.moved_load,
        cured: plan.cured.len(),
        residual: plan.residual.violated.len() + plan.residual.at_risk.len(),
    });

    let mut applied_steps = 0;
    let mut moved_load = 0.0;
    let mut aborted = false;
    let mut aborted_at = None;
    for (index, step) in plan.steps.iter().enumerate() {
        if !move_repairs(consolidator.placement(), step.tenant, step.from, step.to) {
            for undone in plan.steps[..index].iter().rev() {
                consolidator.migrate(undone.tenant, undone.to, undone.from)?;
            }
            applied_steps = 0;
            moved_load = 0.0;
            aborted = true;
            aborted_at = Some(index);
            break;
        }
        consolidator.migrate(step.tenant, step.from, step.to)?;
        applied_steps += 1;
        moved_load += step.load;
    }

    let after = classify_with(consolidator.placement(), plan.at_risk_slack);
    let residual = ResidualRisk::from_report(&after);
    let cured = plan
        .cured
        .iter()
        .filter(|bin| {
            !classify_bin(consolidator.placement(), **bin, plan.at_risk_slack)
                .state
                .needs_attention()
        })
        .count();
    recorder.gauge("at_risk_servers", &[]).set(after.at_risk.len() as f64);
    recorder.gauge("violated_servers", &[]).set(after.violated.len() as f64);
    recorder.gauge("residual_risk_load", &[]).set(residual.residual_load);
    Ok(MitigationOutcome { applied_steps, moved_load, aborted, aborted_at, cured, residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::monitor::DEFAULT_AT_RISK_SLACK;
    use cubefit_core::{Load, Tenant};
    use cubefit_telemetry::VecSink;
    use std::sync::Arc;

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    /// γ = 2: a crowded pair pushed into violation by drift, plus two
    /// near-empty pairs with plenty of headroom.
    fn drifted_placement() -> (Placement, Vec<BinId>) {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..6).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.8), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.6), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(2, 0.2), &[b[2], b[3]]).unwrap();
        p.place_tenant(&tenant(3, 0.2), &[b[4], b[5]]).unwrap();
        // Drift tenant 1 upward: bins 0/1 now carry level 0.8 with a
        // worst-case failover of 0.8 — violated by 0.6.
        p.update_load(TenantId::new(1), 0.8).unwrap();
        assert!(!p.is_robust());
        (p, b)
    }

    #[test]
    fn cures_a_drift_violation_with_enough_budget() {
        let (p, b) = drifted_placement();
        let plan = plan_mitigation(&p, MigrationBudget::unlimited());
        assert!(!plan.is_empty());
        assert_eq!(plan.violated_before, 2);
        assert!(plan.residual.violated.is_empty(), "residual: {:?}", plan.residual);
        assert!(plan.cured.contains(&b[0]) && plan.cured.contains(&b[1]));
        // Replaying the steps lands on a robust placement.
        let mut replay = p;
        for step in &plan.steps {
            assert!(move_repairs(&replay, step.tenant, step.from, step.to));
            replay.move_replica(step.tenant, step.from, step.to).unwrap();
        }
        assert!(replay.is_robust());
        assert!(cubefit_core::oracle::audit(&replay).is_ok());
    }

    #[test]
    fn zero_budget_reports_full_residual_instead_of_panicking() {
        let (p, _) = drifted_placement();
        let before = classify_with(&p, DEFAULT_AT_RISK_SLACK);
        let plan = plan_mitigation(&p, MigrationBudget::moves(0));
        assert!(plan.is_empty());
        assert!(plan.cured.is_empty());
        assert_eq!(plan.residual.violated, before.violated);
        assert_eq!(plan.residual.at_risk, before.at_risk);
        assert!(plan.residual.residual_load > 0.0);
    }

    #[test]
    fn partial_budget_degrades_gracefully() {
        let (p, _) = drifted_placement();
        let full = plan_mitigation(&p, MigrationBudget::unlimited());
        assert!(full.steps.len() >= 2, "need a multi-move repair");
        let partial = plan_mitigation(&p, MigrationBudget::moves(1));
        assert_eq!(partial.steps.len(), 1);
        // Fewer bins cured than the full plan, and the residue says which.
        assert!(partial.cured.len() < full.cured.len() + full.residual.at_risk.len() + 2);
        let residual_total = partial.residual.violated.len() + partial.residual.at_risk.len();
        assert!(residual_total >= 1, "one move cannot cure both violated bins safely");
    }

    #[test]
    fn infeasible_repairs_are_reported_not_forced() {
        // Every server is pinned at capacity: nothing can move anywhere.
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..4).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 1.0), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 1.0), &[b[2], b[3]]).unwrap();
        let plan = plan_mitigation(&p, MigrationBudget::unlimited());
        assert!(plan.is_empty());
        // All four bins are at-risk (slack 0) and stay residual.
        assert_eq!(plan.residual.at_risk.len(), 4);
        assert!(plan.residual.violated.is_empty());
    }

    #[test]
    fn safe_placement_yields_empty_plan_and_clear_residual() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..2).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.4), &[b[0], b[1]]).unwrap();
        let plan = plan_mitigation(&p, MigrationBudget::unlimited());
        assert!(plan.is_empty());
        assert!(plan.residual.is_clear());
        assert_eq!(plan.attention_before, 0);
    }

    #[test]
    fn apply_cures_live_consolidator_and_sets_gauges() {
        use cubefit_core::{CubeFit, CubeFitConfig};
        let config = CubeFitConfig::builder().replication(2).classes(5).build().unwrap();
        let mut cf = CubeFit::new(config);
        for id in 0..12u64 {
            cf.place(tenant(id, 0.3)).unwrap();
        }
        // Departed heavy tenants leave empty created servers behind —
        // mitigation may drain into them (re-opening trades consolidation
        // for safety).
        for id in 100..108u64 {
            cf.place(tenant(id, 0.9)).unwrap();
        }
        for id in 100..108u64 {
            cf.remove(TenantId::new(id)).unwrap();
        }
        // Drift a few tenants sharply upward to manufacture violations.
        for id in 0..3u64 {
            cf.update_load(TenantId::new(id), 0.9).unwrap();
        }
        let report = classify_with(cf.placement(), DEFAULT_AT_RISK_SLACK);
        assert!(!report.is_robust(), "drift must manufacture a violation");

        let plan = plan_mitigation(cf.placement(), MigrationBudget::unlimited());
        let sink = Arc::new(VecSink::new());
        let recorder = Recorder::with_sink(Arc::clone(&sink));
        let outcome = apply_mitigation(&mut cf, &plan, &recorder).unwrap();
        assert!(!outcome.aborted);
        assert_eq!(outcome.applied_steps, plan.steps.len());
        assert_eq!(outcome.residual.violated, plan.residual.violated);
        assert!(cf.placement().is_robust());
        assert!(cubefit_core::oracle::audit(cf.placement()).is_ok());

        let events = sink.events();
        assert_eq!(
            events.iter().filter(|e| matches!(e, TraceEvent::MitigationPlanned { .. })).count(),
            1
        );
        let snapshot = recorder.snapshot();
        assert!(snapshot.gauges.iter().any(|g| g.name == "violated_servers" && g.value == 0.0));
    }

    #[test]
    fn stale_plan_aborts_atomically() {
        use cubefit_core::{CubeFit, CubeFitConfig};
        let config = CubeFitConfig::builder().replication(2).classes(5).build().unwrap();
        let mut cf = CubeFit::new(config);
        for id in 0..12u64 {
            cf.place(tenant(id, 0.3)).unwrap();
        }
        for id in 0..3u64 {
            cf.update_load(TenantId::new(id), 0.9).unwrap();
        }
        let plan = plan_mitigation(cf.placement(), MigrationBudget::unlimited());
        assert!(plan.steps.len() >= 2, "need a multi-step plan");
        // Invalidate a later step after planning: its tenant departs.
        let victim = plan.steps.last().unwrap().tenant;
        cf.remove(victim).unwrap();
        let before: Vec<f64> = cf.placement().bins().map(|b| b.level()).collect();
        let outcome = apply_mitigation(&mut cf, &plan, &Recorder::disabled()).unwrap();
        assert!(outcome.aborted);
        assert_eq!(outcome.applied_steps, 0);
        let after: Vec<f64> = cf.placement().bins().map(|b| b.level()).collect();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-12, "rollback must restore pre-apply levels");
        }
        assert!(cubefit_core::oracle::audit(cf.placement()).is_ok());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let (p, _) = drifted_placement();
        let plan = plan_mitigation(&p, MigrationBudget::moves(3));
        let json = plan.to_json();
        let back: MitigationPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
