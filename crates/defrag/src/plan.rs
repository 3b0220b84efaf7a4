//! The migration planner: turning a fragmented placement into an ordered
//! list of Theorem-1-safe drain moves.

use crate::budget::MigrationBudget;
use cubefit_core::recovery::move_feasible;
use cubefit_core::{BinId, FragmentationStats, Placement, TenantId};
use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Unbounded};

/// One planned replica migration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DefragStep {
    /// The tenant whose replica moves.
    pub tenant: TenantId,
    /// The bin being drained.
    pub from: BinId,
    /// The mature bin receiving the replica.
    pub to: BinId,
    /// Replica load moved (`tenant_load / γ`).
    pub load: f64,
}

/// A bin the plan drains to empty, with its pre-drain level.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlannedClose {
    /// The bin scheduled for closing.
    pub bin: BinId,
    /// Its load level before the drain.
    pub level: f64,
}

/// An executable defragmentation plan.
///
/// Steps are ordered so that applying them sequentially through
/// [`cubefit_core::Placement::move_replica`] keeps every intermediate
/// placement Theorem-1 robust: each step was validated with
/// [`move_feasible`] against the simulated state it executes in, and a
/// drain move only ever shrinks the source bin's own reserve. Whole-bin
/// atomicity is decided at *planning* time — a bin appears in
/// [`DefragPlan::closes`] only if every one of its replicas drains within
/// the budget, so a plan never half-empties a server.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DefragPlan {
    /// Replication factor of the placement the plan was computed for.
    pub gamma: usize,
    /// Budget the plan was computed under.
    pub budget: MigrationBudget,
    /// Migration steps in execution order.
    pub steps: Vec<DefragStep>,
    /// Bins the plan empties, in drain order.
    pub closes: Vec<PlannedClose>,
    /// Total replica load the plan moves.
    pub moved_load: f64,
    /// Open bins before the plan.
    pub open_bins_before: usize,
    /// Open bins once the plan has been applied.
    pub open_bins_after: usize,
    /// Fragmentation statistics before the plan.
    pub fragmentation_before: FragmentationStats,
    /// Predicted fragmentation statistics after the plan.
    pub fragmentation_after: FragmentationStats,
    /// Economic forecast, present when the plan was computed under
    /// [`crate::DefragObjective::Cost`] (absent — and serialized as
    /// `null` — for bin-count plans).
    pub economics: Option<crate::economic::EconomicForecast>,
}

impl DefragPlan {
    /// Whether the plan contains no migrations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Servers the plan closes.
    #[must_use]
    pub fn servers_closed(&self) -> usize {
        self.closes.len()
    }

    /// Pretty JSON rendering for reports.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }
}

/// Computes a defragmentation plan for `placement` under `budget`.
///
/// The planner simulates on one working copy: it repeatedly picks the
/// lowest-fill open bin not yet ruled out (lowest id among equals) and
/// tries to drain *all* of its replicas into the fullest feasible
/// survivors (largest replica first, so an undrainable bin fails fast). A
/// bin whose drain does not complete — some replica has no feasible
/// target, or the remaining budget cannot cover the whole bin — is
/// abandoned, and the moves it made are undone exactly. Draining only
/// ever removes bins, and no step opens one, so the planned placement
/// never has more open bins than the input.
#[must_use]
pub fn plan(placement: &Placement, budget: MigrationBudget) -> DefragPlan {
    let mut planner = Planner::new(placement);
    // Once a bin is tried, every bin still untried is fuller or ties it
    // at a higher id, and drains only make untried bins fuller, so the
    // next candidate is the first untried bin after the last one.
    let mut last = None;
    while budget.admits(planner.steps.len(), planner.moved_load, 1, 0.0) {
        let after = last.map_or(Unbounded, Excluded);
        let Some(&key) =
            planner.by_level.range((after, Unbounded)).find(|(_, b)| !planner.ruled_out[b.index()])
        else {
            break;
        };
        last = Some(key);
        planner.ruled_out[key.1.index()] = true;
        planner.drain(key.1, &budget);
    }
    planner.finish(placement, budget, None)
}

/// The planners' working state: one copy of the input placement that
/// drains move replicas on, and an index of its open bins by level.
pub(crate) struct Planner {
    pub(crate) sim: Placement,
    /// `(level bits, bin)` for every bin with a level above 0. Levels are
    /// non-negative, so their bits order like the values.
    by_level: BTreeSet<(u64, BinId)>,
    /// Bins already tried, or scored out, as drain candidates: a bin
    /// whose drain failed cannot succeed later, because survivors only
    /// get fuller.
    pub(crate) ruled_out: Vec<bool>,
    pub(crate) steps: Vec<DefragStep>,
    closes: Vec<PlannedClose>,
    pub(crate) moved_load: f64,
}

impl Planner {
    pub(crate) fn new(placement: &Placement) -> Self {
        let sim = placement.clone();
        let by_level =
            sim.bins().filter(|b| b.level() > 0.0).map(|b| (b.level().to_bits(), b.id())).collect();
        Planner {
            ruled_out: vec![false; sim.created_bins()],
            by_level,
            sim,
            steps: Vec::new(),
            closes: Vec::new(),
            moved_load: 0.0,
        }
    }

    /// Drains every replica of `bin` into the fullest feasible survivors
    /// and records the steps and the close; or, when the whole bin does
    /// not fit the remaining budget or some replica has no feasible
    /// target, undoes what it moved and returns `false` (whole-bin
    /// atomicity).
    pub(crate) fn drain(&mut self, bin: BinId, budget: &MigrationBudget) -> bool {
        let mut replicas: Vec<(TenantId, f64)> = self.sim.bin(bin).contents().to_vec();
        let bin_load: f64 = replicas.iter().map(|(_, load)| load).sum();
        if !budget.admits(self.steps.len(), self.moved_load, replicas.len(), bin_load) {
            return false;
        }
        // Largest replica first: the hardest move fails before cheap ones
        // are simulated, and big replicas get first pick of the space.
        replicas.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let level = self.sim.level(bin);
        let mut moves = Vec::with_capacity(replicas.len());
        for &(tenant, _) in &replicas {
            let Some(to) = self.target(tenant, bin) else {
                while let Some((to, undo)) = moves.pop() {
                    self.rekeyed([bin, to], |sim| sim.undo_move(undo));
                }
                return false;
            };
            let undo = self
                .rekeyed([bin, to], |sim| sim.move_replica_undoable(tenant, bin, to))
                .expect("move_feasible implies valid endpoints");
            moves.push((to, undo));
        }
        let mut moved = 0.0;
        for (&(tenant, load), &(to, _)) in replicas.iter().zip(&moves) {
            self.steps.push(DefragStep { tenant, from: bin, to, load });
            moved += load;
        }
        self.moved_load += moved;
        self.closes.push(PlannedClose { bin, level });
        true
    }

    /// The fullest open bin other than `bin`, lowest id among equals,
    /// that `tenant`'s replica can move to from `bin`.
    fn target(&self, tenant: TenantId, bin: BinId) -> Option<BinId> {
        let mut unvisited = self.by_level.range(..);
        while let Some(&(level, _)) = unvisited.next_back() {
            let ties = (level, BinId::new(0))..=(level, BinId::new(usize::MAX));
            let found = self
                .by_level
                .range(ties)
                .map(|&(_, to)| to)
                .find(|&to| to != bin && move_feasible(&self.sim, tenant, bin, to));
            if found.is_some() {
                return found;
            }
            unvisited = self.by_level.range(..(level, BinId::new(0)));
        }
        None
    }

    /// Runs `change` on the working copy and re-files `bins`, the only
    /// bins whose levels it changes, in the level index.
    fn rekeyed<R>(&mut self, bins: [BinId; 2], change: impl FnOnce(&mut Placement) -> R) -> R {
        let old = bins.map(|bin| self.sim.level(bin));
        let result = change(&mut self.sim);
        for (bin, old) in bins.into_iter().zip(old) {
            if old > 0.0 {
                self.by_level.remove(&(old.to_bits(), bin));
            }
            let new = self.sim.level(bin);
            if new > 0.0 {
                self.by_level.insert((new.to_bits(), bin));
            }
        }
        result
    }

    /// The plan of everything drained so far.
    pub(crate) fn finish(
        self,
        placement: &Placement,
        budget: MigrationBudget,
        economics: Option<crate::economic::EconomicForecast>,
    ) -> DefragPlan {
        DefragPlan {
            gamma: placement.gamma(),
            budget,
            steps: self.steps,
            closes: self.closes,
            moved_load: self.moved_load,
            open_bins_before: placement.open_bins(),
            open_bins_after: self.sim.open_bins(),
            fragmentation_before: placement.fragmentation(),
            fragmentation_after: self.sim.fragmentation(),
            economics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::{Load, Tenant};

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    /// Two half-full bin pairs plus one thin pair: the thin pair drains
    /// into the fuller pairs and both of its bins close.
    fn fragmented_placement() -> Placement {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..6).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.8), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.8), &[b[2], b[3]]).unwrap();
        p.place_tenant(&tenant(2, 0.1), &[b[4], b[5]]).unwrap();
        p
    }

    #[test]
    fn drains_thin_bins_and_closes_them() {
        let p = fragmented_placement();
        let plan = plan(&p, MigrationBudget::unlimited());
        assert_eq!(plan.open_bins_before, 6);
        assert_eq!(plan.open_bins_after, 4);
        assert_eq!(plan.servers_closed(), 2);
        assert_eq!(plan.steps.len(), 2);
        assert!((plan.moved_load - 0.1).abs() < 1e-12);
        assert!(
            plan.fragmentation_after.fragmentation_ratio
                < plan.fragmentation_before.fragmentation_ratio
        );
        // Replaying the plan on the substrate lands on a robust placement
        // with the predicted bin count.
        let mut replay = p;
        for step in &plan.steps {
            assert!(move_feasible(&replay, step.tenant, step.from, step.to));
            replay.move_replica(step.tenant, step.from, step.to).unwrap();
            assert!(replay.is_robust(), "intermediate state must stay robust");
        }
        assert_eq!(replay.open_bins(), plan.open_bins_after);
    }

    #[test]
    fn zero_move_budget_yields_empty_plan() {
        let plan = plan(&fragmented_placement(), MigrationBudget::moves(0));
        assert!(plan.is_empty());
        assert_eq!(plan.open_bins_after, plan.open_bins_before);
    }

    #[test]
    fn whole_bin_atomicity_under_move_budget() {
        // One move of budget cannot fully drain the 2-replica-wide thin
        // pair's bins... but each thin *bin* holds a single replica, so one
        // move drains exactly one bin and the second bin must be left
        // entirely alone.
        let plan = plan(&fragmented_placement(), MigrationBudget::moves(1));
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.servers_closed(), 1);
        assert_eq!(plan.open_bins_after, 5);
    }

    #[test]
    fn load_budget_caps_total_moved_load() {
        let plan = plan(&fragmented_placement(), MigrationBudget::load(0.05));
        // Each thin replica is 0.05; both fit only if the cap were 0.1.
        assert_eq!(plan.steps.len(), 1);
        assert!((plan.moved_load - 0.05).abs() < 1e-12);
    }

    #[test]
    fn never_increases_bin_count_or_opens_bins() {
        let mut p = Placement::new(3);
        let b: Vec<BinId> = (0..9).map(|_| p.open_bin(None)).collect();
        for i in 0..3 {
            let bins = [b[3 * i], b[3 * i + 1], b[3 * i + 2]];
            p.place_tenant(&tenant(i as u64, 0.3 + 0.2 * i as f64), &bins).unwrap();
        }
        let created = p.created_bins();
        let plan = plan(&p, MigrationBudget::unlimited());
        assert!(plan.open_bins_after <= plan.open_bins_before);
        for step in &plan.steps {
            assert!(step.to.index() < created, "plans must never open bins");
        }
    }

    #[test]
    fn full_placement_produces_empty_plan() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..2).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 1.0), &[b[0], b[1]]).unwrap();
        let plan = plan(&p, MigrationBudget::unlimited());
        assert!(plan.is_empty());
        assert_eq!(plan.servers_closed(), 0);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = plan(&fragmented_placement(), MigrationBudget::moves(8));
        let json = plan.to_json();
        let back: DefragPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
