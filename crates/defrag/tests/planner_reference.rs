//! The planners against a clone-per-candidate reference.
//!
//! `plan` and `plan_economic` drain bins on one working copy and undo a
//! drain that fails part-way. The reference below is the planner as it
//! was before that: it clones the placement for every drain it tries,
//! scans every bin for the next candidate and sorts every open bin for
//! every replica. On churned placements of all seven algorithms at
//! γ ∈ {2, 3}, under four budgets and the cost objective, both must
//! return the same `DefragPlan`, and some of those plans must have
//! abandoned a drain after moving a replica, so the undo path is
//! exercised rather than passed vacuously.

use cubefit_baselines::{BestFit, FirstFit, NextFit, RandomFit, Rfi, WorstFit};
use cubefit_core::recovery::move_feasible;
use cubefit_core::{
    BinId, Consolidator, CubeFit, CubeFitConfig, Load, Placement, Tenant, TenantId,
};
use cubefit_defrag::{
    drain_score, plan, plan_economic, DefragPlan, DefragStep, DrainScore, EconomicForecast,
    MigrationBudget, PlannedClose,
};
use cubefit_economics::{CostModel, LeaseLedger, LeaseTerms, MigrationPricing};

const HORIZON_MS: u64 = 3_600_000;

/// The reference bin-count planner.
fn reference_plan(
    placement: &Placement,
    budget: MigrationBudget,
    rollbacks: &mut usize,
) -> DefragPlan {
    let fragmentation_before = placement.fragmentation();
    let mut sim = placement.clone();
    let mut steps: Vec<DefragStep> = Vec::new();
    let mut closes: Vec<PlannedClose> = Vec::new();
    let mut moved_load = 0.0;
    let mut ruled_out: Vec<BinId> = Vec::new();
    loop {
        if !budget.admits(steps.len(), moved_load, 1, 0.0) {
            break;
        }
        let candidate = sim
            .bins()
            .filter(|b| b.level() > 0.0 && !ruled_out.contains(&b.id()))
            .min_by(|a, b| a.level().total_cmp(&b.level()).then(a.id().cmp(&b.id())))
            .map(|b| (b.id(), b.level()));
        let Some((bin, level)) = candidate else { break };
        ruled_out.push(bin);
        if let Some((drained, bin_steps, bin_load)) =
            reference_drain_bin(&sim, bin, &budget, steps.len(), moved_load, rollbacks)
        {
            sim = drained;
            moved_load += bin_load;
            steps.extend(bin_steps);
            closes.push(PlannedClose { bin, level });
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
        economics: None,
    }
}

/// The reference drain: every replica of `bin`, largest first, into the
/// fullest feasible bin (lowest id among equals), on a trial clone.
fn reference_drain_bin(
    sim: &Placement,
    bin: BinId,
    budget: &MigrationBudget,
    used_moves: usize,
    used_load: f64,
    rollbacks: &mut usize,
) -> Option<(Placement, Vec<DefragStep>, f64)> {
    let mut replicas: Vec<(TenantId, f64)> = sim.bin(bin).contents().to_vec();
    if !budget.admits(
        used_moves,
        used_load,
        replicas.len(),
        replicas.iter().map(|(_, load)| load).sum(),
    ) {
        return None;
    }
    replicas.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut trial = sim.clone();
    let mut steps = Vec::with_capacity(replicas.len());
    let mut bin_load = 0.0;
    for (tenant, replica) in replicas {
        let mut targets: Vec<(BinId, f64)> = trial
            .bins()
            .filter(|b| b.level() > 0.0 && b.id() != bin)
            .map(|b| (b.id(), b.level()))
            .collect();
        targets.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let Some(to) =
            targets.iter().map(|&(id, _)| id).find(|&to| move_feasible(&trial, tenant, bin, to))
        else {
            *rollbacks += usize::from(!steps.is_empty());
            return None;
        };
        trial.move_replica(tenant, bin, to).expect("move_feasible implies valid endpoints");
        steps.push(DefragStep { tenant, from: bin, to, load: replica });
        bin_load += replica;
    }
    Some((trial, steps, bin_load))
}

/// The reference cost-objective planner.
fn reference_plan_economic(
    placement: &Placement,
    budget: MigrationBudget,
    ledger: &LeaseLedger,
    pricing: &MigrationPricing,
    rollbacks: &mut usize,
) -> DefragPlan {
    let fragmentation_before = placement.fragmentation();
    let mut sim = placement.clone();
    let mut steps = Vec::new();
    let mut closes: Vec<PlannedClose> = Vec::new();
    let mut moved_load = 0.0;
    let mut ruled_out: Vec<BinId> = Vec::new();
    let mut forecast = EconomicForecast {
        horizon_ms: HORIZON_MS,
        rent_saved_usd: 0.0,
        migration_usd: 0.0,
        net_usd: 0.0,
        skipped_unprofitable: 0,
    };
    loop {
        if !budget.admits(steps.len(), moved_load, 1, 0.0) {
            break;
        }
        let mut best: Option<DrainScore> = None;
        let candidates: Vec<BinId> = sim
            .bins()
            .filter(|b| b.level() > 0.0 && !ruled_out.contains(&b.id()))
            .map(|b| b.id())
            .collect();
        for bin in candidates {
            let score = drain_score(&sim, bin, ledger, pricing, HORIZON_MS);
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
            reference_drain_bin(&sim, score.bin, &budget, steps.len(), moved_load, rollbacks)
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

/// Self-contained LCG, so each placement is a pure function of its seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 11) % bound as u64) as usize
    }

    /// A skewed load: mostly small tenants, a few up to a full server.
    fn load(&mut self) -> f64 {
        let u = self.below(1 << 20) as f64 / f64::from(1 << 20);
        (0.004 / (1.0 - 0.996 * u)).min(1.0)
    }
}

fn algorithms(gamma: usize, seed: u64) -> Vec<Box<dyn Consolidator>> {
    let config = CubeFitConfig::builder().replication(gamma).classes(5).build().unwrap();
    vec![
        Box::new(CubeFit::new(config)),
        Box::new(Rfi::new(gamma, 0.85).unwrap()),
        Box::new(BestFit::new(gamma).unwrap()),
        Box::new(FirstFit::new(gamma).unwrap()),
        Box::new(WorstFit::new(gamma).unwrap()),
        Box::new(NextFit::new(gamma).unwrap()),
        Box::new(RandomFit::new(gamma, seed).unwrap()),
    ]
}

/// A fill of `tenants`, then as many churn ops (half departures) with a
/// server failure every 200 ops, so recovered replicas sit out of
/// arrival order in their bins.
fn churn(algo: &mut dyn Consolidator, tenants: usize, seed: u64) {
    let mut rng = Lcg(seed);
    let mut live: Vec<TenantId> = Vec::new();
    let mut next_id = 0u64;
    let mut place = |algo: &mut dyn Consolidator, rng: &mut Lcg, live: &mut Vec<TenantId>| {
        let tenant = Tenant::new(TenantId::new(next_id), Load::new(rng.load()).unwrap());
        next_id += 1;
        algo.place(tenant).unwrap();
        live.push(tenant.id());
    };
    for _ in 0..tenants {
        place(algo, &mut rng, &mut live);
    }
    for op in 1..=tenants {
        if rng.below(5) < 3 && live.len() > 1 {
            let gone = live.swap_remove(rng.below(live.len()));
            algo.remove(gone).unwrap();
        } else {
            place(algo, &mut rng, &mut live);
        }
        if op % 200 == 0 {
            let open: Vec<BinId> =
                algo.placement().bins().filter(|b| b.level() > 0.0).map(|b| b.id()).collect();
            algo.recover(&[open[rng.below(open.len())]]).unwrap();
        }
    }
}

#[test]
fn planners_match_the_clone_per_candidate_reference() {
    let budgets = [
        MigrationBudget::moves(1),
        MigrationBudget::moves(64),
        MigrationBudget::load(0.8),
        MigrationBudget::unlimited(),
    ];
    let pricing = MigrationPricing::reference();
    // Drains that moved at least one replica before failing.
    let mut rollbacks = 0;
    let mut plans = 0;
    for gamma in [2, 3] {
        let seed = 0xdef0 + gamma as u64;
        for mut algo in algorithms(gamma, seed) {
            churn(&mut *algo, 1_500, seed);
            let placement = algo.placement();
            for budget in budgets {
                let got = plan(placement, budget);
                assert_eq!(got, reference_plan(placement, budget, &mut rollbacks), "{budget:?}");
                let terms = LeaseTerms::new(60_000, CostModel::with_hourly_usd(0.822));
                let mut ledger = LeaseLedger::new(terms);
                let open: Vec<BinId> =
                    placement.bins().filter(|b| b.level() > 0.0).map(|b| b.id()).collect();
                ledger.advance(45_000, open);
                let got = plan_economic(placement, budget, &ledger, &pricing, HORIZON_MS);
                let want =
                    reference_plan_economic(placement, budget, &ledger, &pricing, &mut rollbacks);
                assert_eq!(got, want, "economic, {budget:?}");
                plans += usize::from(!got.is_empty());
            }
            let unlimited = plan(placement, MigrationBudget::unlimited());
            assert!(
                unlimited.servers_closed() > 0,
                "{} at γ = {gamma} closes nothing",
                algo.name()
            );
        }
    }
    assert!(plans > 0);
    assert!(rollbacks > 0, "no drain was abandoned after moving a replica");
}
