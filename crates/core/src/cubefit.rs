//! The CubeFit consolidation algorithm (paper §III, Algorithm 1).

use crate::algorithm::{
    Consolidator, LoadUpdateOutcome, PlacementOutcome, PlacementStage, RemovalOutcome,
};
use crate::bin::BinId;
use crate::bin_index::BinIndex;
use crate::class::{Classifier, ReplicaClass};
use crate::config::CubeFitConfig;
use crate::cube::{ClassGroups, SlotTarget};
use crate::error::{Error, Result};
use crate::mfit;
use crate::multireplica::MultiReplicaState;
use crate::placement::Placement;
use crate::recovery::{self, RecoveryReport};
use crate::tenant::{Tenant, TenantId};
use crate::validity;
use cubefit_telemetry::{Counter, Recorder, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// Online robust consolidator that places replicas of almost-equal size into
/// the same bins via cube addressing, and reuses mature-bin leftover space
/// via the m-fit predicate.
///
/// For every tenant, CubeFit:
///
/// 1. (*stage 1*) tries to Best-Fit all `γ` replicas into **mature** bins
///    that *m-fit* them — bins whose payload slots are full but whose spare
///    space can absorb the replica while preserving the failover reserve;
/// 2. (*stage 2*) otherwise assigns the replicas to the next cube cell of
///    the tenant's size class, so that no two bins ever share replicas of
///    more than one tenant (Lemma 1), which bounds failover load and yields
///    Theorem 1: no failure of up to `γ − 1` servers overloads any bin.
///
/// Tiny tenants (class `K`) are aggregated into multi-replicas first
/// (see [`crate::multireplica`]).
///
/// ```
/// use cubefit_core::{Consolidator, CubeFit, CubeFitConfig, Load, Tenant};
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let mut cubefit = CubeFit::new(CubeFitConfig::builder().replication(3).classes(10).build()?);
/// for i in 0..100 {
///     let load = 0.01 + 0.009 * (i % 100) as f64;
///     cubefit.place(Tenant::with_load(Load::new(load)?))?;
/// }
/// // Robust against any two simultaneous server failures.
/// assert!(cubefit.placement().is_robust());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CubeFit {
    config: CubeFitConfig,
    classifier: Classifier,
    placement: Placement,
    /// Cube groups per class index (shared between regular replicas and
    /// multi-replicas of the tiny target class).
    groups: BTreeMap<usize, ClassGroups>,
    /// Stage-2 payload slots occupied, per bin.
    slots_filled: Vec<usize>,
    mature: BinIndex,
    multi: MultiReplicaState,
    /// Which path placed each live tenant, so a departure knows what to
    /// reclaim (cube tenants release their whole cell to the free list).
    placed_via: HashMap<TenantId, PlacedVia>,
    /// Reclaimed cube cells per class index: the `γ`-bin tuples departed
    /// stage-2 tenants vacated. A later tenant of the same class reuses a
    /// whole cell — inheriting the departed tenant's sharing structure, so
    /// Lemma 1's "no two bins share more than one tenant" survives reuse —
    /// after an explicit m-fit-style re-check, because stage-1 guests may
    /// have consumed the vacated space in the meantime.
    free_cells: BTreeMap<usize, Vec<Vec<BinId>>>,
    /// Whether a recovery has ever migrated replicas. Migration re-points a
    /// tenant's shared loads at bins outside its cube cell, which can merge
    /// two of a sibling's failover partners into one — so cube tuples are no
    /// longer robust *by construction* and every stage-2 assignment must
    /// pass the same predicate stage 1 uses (see [`CubeFit::place`]).
    cube_perturbed: bool,
    counters: CubeFitStats,
    instruments: Instruments,
}

/// How a live tenant was placed (what its departure must undo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlacedVia {
    /// Stage 1: guest in mature-bin leftover space; nothing to reclaim
    /// beyond the load itself.
    MatureFit,
    /// Stage 2: owns a whole cube cell of this class.
    Cube(usize),
    /// Member of a (possibly sealed) multi-replica; the cell is shared
    /// with the other members, so no cell is reclaimed.
    Multi,
}

/// Telemetry handles resolved once at [`Consolidator::set_recorder`] time so
/// the hot path pays one branch per metric when telemetry is disabled.
#[derive(Debug, Clone, Default)]
struct Instruments {
    recorder: Recorder,
    stage1: Counter,
    stage2: Counter,
    tiny: Counter,
    mfit_hits: Counter,
    mfit_misses: Counter,
    mfit_candidates: Counter,
    bins_opened: Counter,
}

/// Counters describing how CubeFit placed its tenants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CubeFitStats {
    /// Tenants placed in stage 1 (mature-bin reuse).
    pub stage1_placements: usize,
    /// Tenants placed in stage 2 (cube slots).
    pub stage2_placements: usize,
    /// Tiny tenants placed via multi-replicas.
    pub tiny_placements: usize,
    /// Bins that have matured so far.
    pub mature_bins: usize,
    /// Multi-replicas sealed so far.
    pub sealed_multis: usize,
    /// Stage-2 placements that reused a cell reclaimed from a departed
    /// tenant instead of advancing the cube counter.
    pub cells_reused: usize,
}

impl CubeFit {
    /// Creates a CubeFit consolidator from a validated configuration.
    #[must_use]
    pub fn new(config: CubeFitConfig) -> Self {
        let (_, cap) = config.tiny_target();
        CubeFit {
            classifier: config.classifier(),
            placement: Placement::new(config.gamma()),
            groups: BTreeMap::new(),
            slots_filled: Vec::new(),
            mature: BinIndex::default(),
            multi: MultiReplicaState::new(cap),
            placed_via: HashMap::new(),
            free_cells: BTreeMap::new(),
            cube_perturbed: false,
            counters: CubeFitStats::default(),
            instruments: Instruments::default(),
            config,
        }
    }

    /// The configuration this instance runs with.
    #[must_use]
    pub fn config(&self) -> &CubeFitConfig {
        &self.config
    }

    /// Placement-path counters.
    #[must_use]
    pub fn stats(&self) -> CubeFitStats {
        CubeFitStats {
            mature_bins: self.mature.len(),
            sealed_multis: self.multi.sealed(),
            ..self.counters
        }
    }

    /// Stage 1: Best Fit of all `γ` replicas into mature bins that m-fit
    /// them, or `None` to fall through. The active multi-replica's
    /// remaining growth is charged to its host bins so a guest admitted now
    /// still fits once that growth lands. A departing stage-1 guest has
    /// nothing to reclaim, so it gets no `placed_via` entry.
    fn place_mature(
        &mut self,
        tenant: &Tenant,
        class: ReplicaClass,
        size: f64,
    ) -> Result<Option<PlacementOutcome>> {
        let growth_hosts = self.multi.active_hosts();
        let scan = mfit::try_stage1(
            &self.placement,
            &self.mature,
            self.config.stage1_eligibility(),
            class,
            size,
            self.config.gamma(),
            &growth_hosts,
            self.multi.headroom(),
        );
        self.note_mfit(tenant, class.index(), &scan);
        let Some(bins) = scan.bins else { return Ok(None) };
        self.commit(tenant, &bins)?;
        self.counters.stage1_placements += 1;
        self.instruments.stage1.inc();
        self.emit_placed(tenant, &bins, PlacementStage::MatureFit, 0);
        let stage = PlacementStage::MatureFit;
        Ok(Some(PlacementOutcome { tenant: tenant.id(), bins, opened: 0, stage }))
    }

    /// Places a tiny (class-`K`) tenant: stage-1 reuse of mature-bin
    /// leftover space when enabled (§V.A), else the multi-replica path.
    fn place_tiny(&mut self, tenant: &Tenant, size: f64) -> Result<PlacementOutcome> {
        if self.config.tiny_stage1() {
            let class = ReplicaClass::new(self.config.classes());
            if let Some(outcome) = self.place_mature(tenant, class, size)? {
                return Ok(outcome);
            }
        }
        let (target_class, _) = self.config.tiny_target();
        let gamma = self.config.gamma();
        if self.cube_perturbed && self.multi.needs_new(size) {
            // A fresh multi-replica grows in place up to its cap, so on a
            // perturbed cube its cell must afford the full cap up front.
            let targets = self.checked_cube_tuple(target_class, self.multi.cap());
            self.multi.open_with(targets);
        }
        // Multi-replicas draw slots from the same cube groups as regular
        // replicas of the target class, preserving Lemma 1 across both.
        let groups = self
            .groups
            .entry(target_class)
            .or_insert_with(|| ClassGroups::new(target_class, gamma));
        let decision = self.multi.assign(size, &mut self.placement, groups);
        let opened = decision
            .new_slots
            .as_ref()
            .map_or(0, |slots| slots.iter().filter(|t| t.opened).count());
        if let Some(targets) = &decision.new_slots {
            self.emit_slots(tenant, target_class, targets);
        }
        self.commit(tenant, &decision.bins)?;
        self.placed_via.insert(tenant.id(), PlacedVia::Multi);
        if let Some(targets) = &decision.new_slots {
            let bins: Vec<BinId> = targets.iter().map(|t| t.bin).collect();
            self.note_slots(&bins);
        }
        self.counters.tiny_placements += 1;
        self.instruments.tiny.inc();
        self.emit_placed(tenant, &decision.bins, PlacementStage::MultiReplica, opened);
        Ok(PlacementOutcome {
            tenant: tenant.id(),
            bins: decision.bins,
            opened,
            stage: PlacementStage::MultiReplica,
        })
    }

    /// Commits a tenant to its bins, keeping the mature-set margin keys
    /// consistent (placement changes both the levels and the shared loads
    /// of exactly these bins).
    fn commit(&mut self, tenant: &Tenant, bins: &[BinId]) -> Result<()> {
        // Snapshot empty→non-empty transitions before placing: one
        // `BinOpened` event per bin that receives its first replica here,
        // so a trace's `BinOpened` count equals the servers a run reports.
        let newly_opened: Vec<(BinId, Option<usize>)> = if self.instruments.recorder.is_enabled() {
            bins.iter()
                .filter(|&&bin| self.placement.bin(bin).is_empty())
                .map(|&bin| (bin, self.placement.bin(bin).class().map(|c| c.index())))
                .collect()
        } else {
            Vec::new()
        };
        self.placement.place_tenant(tenant, bins)?;
        rekey(&mut self.mature, &self.placement, bins);
        if !newly_opened.is_empty() {
            self.instruments.bins_opened.add(newly_opened.len() as u64);
            let total = self.placement.open_bins();
            let pending = newly_opened.len();
            for (i, (bin, class)) in newly_opened.into_iter().enumerate() {
                self.instruments.recorder.emit(|| TraceEvent::BinOpened {
                    bin: bin.index(),
                    class,
                    total_open: total - (pending - 1 - i),
                });
            }
        }
        Ok(())
    }

    /// Records the outcome of one stage-1 m-fit scan.
    fn note_mfit(&self, tenant: &Tenant, class: usize, scan: &mfit::Stage1Scan) {
        let hit = scan.bins.is_some();
        if hit {
            self.instruments.mfit_hits.inc();
        } else {
            self.instruments.mfit_misses.inc();
        }
        self.instruments.mfit_candidates.add(scan.scanned as u64);
        self.instruments.recorder.emit(|| TraceEvent::MfitOutcome {
            tenant: tenant.id().get(),
            class,
            candidates_scanned: scan.scanned,
            hit,
        });
    }

    /// Emits the terminal `Placed` event for a tenant.
    fn emit_placed(&self, tenant: &Tenant, bins: &[BinId], stage: PlacementStage, opened: usize) {
        self.instruments.recorder.emit(|| TraceEvent::Placed {
            tenant: tenant.id().get(),
            bins: bins.iter().map(|b| b.index()).collect(),
            stage: format!("{stage:?}"),
            opened,
        });
    }

    /// Emits one `SlotAssigned` event per stage-2 cube slot.
    fn emit_slots(&self, tenant: &Tenant, class: usize, targets: &[SlotTarget]) {
        for (level, target) in targets.iter().enumerate() {
            self.instruments.recorder.emit(|| TraceEvent::SlotAssigned {
                tenant: tenant.id().get(),
                class,
                level,
                bin: target.bin.index(),
                slot: target.slot,
            });
        }
    }

    /// Records stage-2 slot occupancy, for fresh cube slots and reused
    /// cells alike, and promotes bins whose payload slots are now all
    /// filled to the mature set. Already-mature bins (possible once
    /// departures decrement and cell reuse re-increments the counts) are
    /// left alone so their key is not duplicated. A reused cell can hold a
    /// classless bin that a recovery opened; it never matures.
    fn note_slots(&mut self, bins: &[BinId]) {
        for &bin in bins {
            let index = bin.index();
            if index >= self.slots_filled.len() {
                self.slots_filled.resize(index + 1, 0);
            }
            self.slots_filled[index] += 1;
            let Some(class) = self.placement.bin(bin).class() else { continue };
            if self.slots_filled[index] == self.classifier.payload_slots(class)
                && !self.mature.contains(bin)
            {
                let level = self.placement.level(bin);
                self.mature
                    .insert(bin, validity::margin(level, self.placement.worst_failover(bin)));
            }
        }
    }

    /// The first reclaimed cell of class `tau` whose every bin still
    /// m-fits a replica of `size` (stage-1 guests may have eaten the
    /// vacated space). Infeasible cells stay in the list — a later, lighter
    /// tenant or a departure can make them viable again.
    fn take_free_cell(&mut self, tau: usize, size: f64) -> Option<Vec<BinId>> {
        let growth_hosts = self.multi.active_hosts();
        let headroom = self.multi.headroom();
        let placement = &self.placement;
        let cells = self.free_cells.get_mut(&tau)?;
        let pos = cells.iter().position(|cell| {
            validity::tuple_fits(cell, |bin, siblings| {
                mfit::m_fits_with_growth(placement, bin, size, siblings, &growth_hosts, headroom)
            })
        })?;
        Some(cells.swap_remove(pos))
    }

    /// Draws the next class-`tau` cube tuple whose every bin m-fits a
    /// replica of `size` alongside the rest of the tuple (the check cell
    /// reuse performs), used instead of a bare `groups.assign` once recovery
    /// has perturbed the cube. Infeasible tuples are banked as reclaimed
    /// cells (a departure or a lighter tenant can revive them) and the cube
    /// advances; if no tuple passes within the scan limit the caller gets a
    /// dedicated tuple of fresh bins, which trivially satisfies the
    /// reserve.
    fn checked_cube_tuple(&mut self, tau: usize, size: f64) -> Vec<SlotTarget> {
        let gamma = self.config.gamma();
        let growth_hosts = self.multi.active_hosts();
        let headroom = self.multi.headroom();
        for _ in 0..mfit::SCAN_LIMIT {
            let groups = self.groups.entry(tau).or_insert_with(|| ClassGroups::new(tau, gamma));
            let targets = groups.assign(&mut self.placement);
            let bins: Vec<BinId> = targets.iter().map(|t| t.bin).collect();
            let placement = &self.placement;
            if validity::tuple_fits(&bins, |bin, siblings| {
                mfit::m_fits_with_growth(placement, bin, size, siblings, &growth_hosts, headroom)
            }) {
                return targets;
            }
            self.free_cells.entry(tau).or_default().push(bins);
        }
        (0..gamma)
            .map(|_| SlotTarget {
                bin: self.placement.open_bin(Some(ReplicaClass::new(tau))),
                slot: 0,
                opened: true,
            })
            .collect()
    }
}

impl Consolidator for CubeFit {
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        if self.placement.tenant_bins(tenant.id()).is_some() {
            return Err(Error::DuplicateTenant { tenant: tenant.id() });
        }
        let gamma = self.config.gamma();
        let size = tenant.replica_size(gamma);
        let class = self.classifier.classify(size);
        let seq = self.placement.tenant_count() as u64;
        self.instruments.recorder.emit(|| TraceEvent::TenantArrived {
            tenant: tenant.id().get(),
            load: tenant.load().get(),
            seq,
        });

        if class.index() == self.config.classes() {
            return self.place_tiny(&tenant, size);
        }

        // Stage 1, if every replica m-fits. Class-1 replicas have no
        // strictly-smaller class to reuse, so the scan is skipped outright
        // under the default eligibility rule.
        let stage1_possible = class.index() > 1
            || self.config.stage1_eligibility()
                != crate::config::Stage1Eligibility::SmallerClassBins;
        if stage1_possible {
            if let Some(outcome) = self.place_mature(&tenant, class, size)? {
                return Ok(outcome);
            }
        }

        // Stage 2: cube-addressed slots of the tenant's class — reusing a
        // reclaimed cell of the class when one still robustly fits. The
        // reused tuple reproduces the departed tenant's pairwise sharing
        // structure, so Lemma 1 is preserved without advancing the cube.
        let tau = class.index();
        if let Some(bins) = self.take_free_cell(tau, size) {
            let opened = bins.iter().filter(|&&b| self.placement.bin(b).is_empty()).count();
            self.commit(&tenant, &bins)?;
            self.note_slots(&bins);
            self.placed_via.insert(tenant.id(), PlacedVia::Cube(tau));
            self.counters.stage2_placements += 1;
            self.counters.cells_reused += 1;
            self.instruments.stage2.inc();
            self.emit_placed(&tenant, &bins, PlacementStage::Cube, opened);
            return Ok(PlacementOutcome {
                tenant: tenant.id(),
                bins,
                opened,
                stage: PlacementStage::Cube,
            });
        }
        // Until a recovery migrates replicas, cube tuples are robust by
        // construction (Lemma 1) and the next tuple is taken as-is; after
        // one, each tuple must pass the m-fit predicate first.
        let targets = if self.cube_perturbed {
            self.checked_cube_tuple(tau, size)
        } else {
            let groups = self.groups.entry(tau).or_insert_with(|| ClassGroups::new(tau, gamma));
            groups.assign(&mut self.placement)
        };
        let bins: Vec<BinId> = targets.iter().map(|t| t.bin).collect();
        let opened = targets.iter().filter(|t| t.opened).count();
        self.emit_slots(&tenant, tau, &targets);
        self.commit(&tenant, &bins)?;
        self.note_slots(&bins);
        self.placed_via.insert(tenant.id(), PlacedVia::Cube(tau));
        self.counters.stage2_placements += 1;
        self.instruments.stage2.inc();
        self.emit_placed(&tenant, &bins, PlacementStage::Cube, opened);
        Ok(PlacementOutcome { tenant: tenant.id(), bins, opened, stage: PlacementStage::Cube })
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let (load, bins) = self.placement.remove_tenant(tenant)?;
        let via = self.placed_via.remove(&tenant).unwrap_or(PlacedVia::MatureFit);
        // Removal shrinks levels and shared loads of exactly these bins.
        rekey(&mut self.mature, &self.placement, &bins);
        if let PlacedVia::Cube(tau) = via {
            // The vacated cell (the tenant's bins at departure time, which
            // after migrations may differ from the original cube tuple —
            // reuse re-checks feasibility either way) becomes available to
            // future same-class tenants. Slot counts drop with it; a bin
            // whose count falls below payload stays in the mature set — its
            // margin key already reflects the freed space, and every stage-1
            // admission is predicate-checked.
            for &bin in &bins {
                let index = bin.index();
                if index < self.slots_filled.len() {
                    self.slots_filled[index] = self.slots_filled[index].saturating_sub(1);
                }
            }
            self.free_cells.entry(tau).or_default().push(bins.clone());
        }
        // Departed multi members keep their reservation in the active
        // multi-replica's size on purpose: the cap-based growth accounting
        // stays an upper bound, which only errs toward extra reserve.
        self.instruments
            .recorder
            .emit(|| TraceEvent::TenantDeparted { tenant: tenant.get(), load });
        Ok(RemovalOutcome { tenant, load, bins })
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        let (old_load, bins) = self.placement.update_load(tenant, new_load)?;
        // The drift changes exactly these bins' levels and the shared loads
        // among them; their mature keys must follow.
        rekey(&mut self.mature, &self.placement, &bins);
        if new_load > old_load {
            // Upward drift inflates replica sizes beyond what the cube's
            // by-construction feasibility priced in: predicate-check every
            // future cube tuple and stop the active multi-replica's growth.
            // Downward drift only adds slack, so the fast path survives it.
            self.cube_perturbed = true;
            self.multi.seal_active();
        }
        Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
    }

    fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
        // Placement decisions query the failover reserve per tenant, so the
        // loop stays sequential (identical decisions); the batch only
        // amortizes the tenant-table growth.
        self.placement.reserve_tenants(tenants.len());
        tenants.into_iter().map(|tenant| self.place(tenant)).collect()
    }

    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        let CubeFit { placement, mature, multi, instruments, .. } = self;
        // Re-home through the stage-1 host set: mature bins, tightest
        // feasible first, skipping the active multi-replica's hosts (whose
        // pending growth the move predicate does not price in).
        let growth_hosts = multi.active_hosts();
        let report = recovery::recover_replicas(
            placement,
            failed,
            mature,
            |mature, p, tenant, from, replica| {
                let candidates = mature
                    .iter_asc_at_least(replica)
                    .filter(|bin| !growth_hosts.contains(bin))
                    .take(mfit::SCAN_LIMIT);
                recovery::pick_target(p, tenant, from, failed, candidates)
            },
            |mature, p, tenant, from, to, replica| {
                rekey_move(mature, p, tenant, from);
                instruments.recorder.emit(|| TraceEvent::ReplicaMigrated {
                    tenant: tenant.get(),
                    from: from.index(),
                    to: to.index(),
                    load: replica,
                });
            },
        )?;
        if report.replicas_migrated > 0 {
            // The moves above re-pointed shared loads outside cube cells:
            // stage 2 must predicate-check every tuple from now on, and the
            // active multi-replica — whose future growth was priced against
            // the pre-failure sharing structure — stops growing.
            self.cube_perturbed = true;
            self.multi.seal_active();
        }
        Ok(report)
    }

    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        let gamma = self.config.gamma() as f64;
        let load = self.placement.tenant_load(tenant).ok_or(Error::UnknownTenant { tenant })?;
        let replica = load / gamma;
        self.placement.move_replica(tenant, from, to)?;
        rekey_move(&mut self.mature, &self.placement, tenant, from);
        self.instruments.recorder.emit(|| TraceEvent::ReplicaMigrated {
            tenant: tenant.get(),
            from: from.index(),
            to: to.index(),
            load: replica,
        });
        // A planned migration re-points shared loads outside cube cells
        // exactly like a recovery move does, so the same guard applies:
        // predicate-check future cube tuples and stop the active
        // multi-replica's growth.
        self.cube_perturbed = true;
        self.multi.seal_active();
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        Box::new(self.clone())
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn name(&self) -> &'static str {
        "cubefit"
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        let gamma = self.config.gamma().to_string();
        let base = [("algorithm", "cubefit"), ("gamma", gamma.as_str())];
        let staged = |stage: &str| {
            let mut labels = base.to_vec();
            labels.push(("stage", stage));
            recorder.counter("placements", &labels)
        };
        let outcome = |hit: &str| {
            let mut labels = base.to_vec();
            labels.push(("hit", hit));
            recorder.counter("mfit_outcomes", &labels)
        };
        self.instruments = Instruments {
            stage1: staged("mature_fit"),
            stage2: staged("cube"),
            tiny: staged("multi_replica"),
            mfit_hits: outcome("true"),
            mfit_misses: outcome("false"),
            mfit_candidates: recorder.counter("mfit_candidates_scanned", &base),
            bins_opened: recorder.counter("bins_opened", &base),
            recorder,
        };
    }
}

/// Re-keys each of `bins` the mature set tracks by its Theorem-1 margin:
/// the guest headroom a stage-1 scan reads.
fn rekey(mature: &mut BinIndex, placement: &Placement, bins: &[BinId]) {
    for &bin in bins {
        mature.update(bin, validity::margin(placement.level(bin), placement.worst_failover(bin)));
    }
}

/// Re-keys the mature bins a move of `tenant`'s replica off `from`
/// touched: the source's and target's levels change, plus the shared loads
/// between the target and every sibling.
fn rekey_move(mature: &mut BinIndex, placement: &Placement, tenant: TenantId, from: BinId) {
    rekey(mature, placement, &[from]);
    rekey(mature, placement, placement.tenant_bins(tenant).expect("still placed"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Stage1Eligibility, TinyPolicy};
    use crate::load::Load;
    use crate::tenant::TenantId;

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    fn cubefit(gamma: usize, classes: usize) -> CubeFit {
        CubeFit::new(CubeFitConfig::builder().replication(gamma).classes(classes).build().unwrap())
    }

    #[test]
    fn single_tenant_opens_gamma_bins() {
        let mut cf = cubefit(3, 10);
        let outcome = cf.place(tenant(0, 0.9)).unwrap();
        assert_eq!(outcome.bins.len(), 3);
        assert_eq!(outcome.opened, 3);
        assert_eq!(outcome.stage, PlacementStage::Cube);
        assert_eq!(cf.placement().open_bins(), 3);
    }

    #[test]
    fn duplicate_rejected_without_state_damage() {
        let mut cf = cubefit(2, 5);
        cf.place(tenant(0, 0.5)).unwrap();
        let before = cf.placement().open_bins();
        assert!(matches!(cf.place(tenant(0, 0.5)), Err(Error::DuplicateTenant { .. })));
        assert_eq!(cf.placement().open_bins(), before);
        assert_eq!(cf.placement().tenant_count(), 1);
    }

    #[test]
    fn same_class_tenants_share_cube_bins() {
        // γ=2, class 2 (replica ∈ (1/4, 1/3]): bins hold 2 payload slots,
        // groups of 2 bins, cube of 4 cells.
        let mut cf = cubefit(2, 10);
        for id in 0..4 {
            cf.place(tenant(id, 0.6)).unwrap(); // replicas 0.3 → class 2
        }
        // 4 tenants fill one full generation: 2 groups × 2 bins = 4 bins.
        assert_eq!(cf.placement().open_bins(), 4);
        assert!(cf.placement().is_robust());
        let stats = cf.stats();
        assert_eq!(stats.stage2_placements + stats.stage1_placements, 4);
    }

    #[test]
    fn update_load_rekeys_mature_slack_and_stays_auditable() {
        let mut cf = cubefit(2, 10);
        for id in 0..8 {
            cf.place(tenant(id, 0.3 + 0.05 * (id % 4) as f64)).unwrap();
        }
        // Upward drift: mature slack shrinks and the cube fast path is off.
        cf.update_load(TenantId::new(0), 0.7).unwrap();
        assert!(cf.cube_perturbed, "upward drift must perturb the cube");
        assert!(crate::oracle::audit(cf.placement()).is_ok());
        // Downward drift: slack grows back; placements still work and the
        // incremental indexes stay consistent with the oracle.
        cf.update_load(TenantId::new(1), 0.05).unwrap();
        assert!(crate::oracle::audit(cf.placement()).is_ok());
        for id in 8..20 {
            cf.place(tenant(id, 0.2 + 0.04 * (id % 5) as f64)).unwrap();
        }
        assert!(cf.placement().is_robust());
        assert!(crate::oracle::audit(cf.placement()).is_ok());
        let drifted = cf.placement().tenant_load(TenantId::new(0));
        assert_eq!(drifted, Some(0.7));
    }

    #[test]
    fn downward_drift_alone_keeps_cube_fast_path() {
        let mut cf = cubefit(2, 5);
        for id in 0..4 {
            cf.place(tenant(id, 0.6)).unwrap();
        }
        cf.update_load(TenantId::new(2), 0.4).unwrap();
        assert!(!cf.cube_perturbed, "shrinking loads only add slack");
        assert!(crate::oracle::audit(cf.placement()).is_ok());
    }

    #[test]
    fn figure2_stage1_behaviour() {
        // Fig. 2: class-1 tenants a, b mature four bins; small tenant c
        // m-fits the fullest pair; d no longer fits there and lands on the
        // other pair.
        let config = CubeFitConfig::builder()
            .replication(2)
            .classes(10)
            .stage1_eligibility(Stage1Eligibility::SmallerClassBins)
            .build()
            .unwrap();
        let mut cf = CubeFit::new(config);
        let a = cf.place(tenant(0, 0.70)).unwrap(); // class 1, matures 2 bins
        let b = cf.place(tenant(1, 0.72)).unwrap(); // class 1, matures 2 more
        assert_eq!(a.stage, PlacementStage::Cube);
        assert_eq!(b.stage, PlacementStage::Cube);
        assert_eq!(cf.stats().mature_bins, 4);

        let c = cf.place(tenant(2, 0.20)).unwrap(); // replicas 0.10
        assert_eq!(c.stage, PlacementStage::MatureFit);
        // Best Fit: c goes to b's (fuller) bins.
        let b_bins: Vec<BinId> = b.bins.clone();
        let mut c_bins = c.bins.clone();
        c_bins.sort_unstable();
        let mut expected = b_bins.clone();
        expected.sort_unstable();
        assert_eq!(c_bins, expected);

        let d = cf.place(tenant(3, 0.24)).unwrap(); // replicas 0.12
        assert_eq!(d.stage, PlacementStage::MatureFit);
        let mut d_bins = d.bins.clone();
        d_bins.sort_unstable();
        let mut a_bins = a.bins.clone();
        a_bins.sort_unstable();
        assert_eq!(d_bins, a_bins, "d only m-fits the emptier pair");
        assert!(cf.placement().is_robust());
    }

    #[test]
    fn robust_for_random_uniform_loads_gamma2() {
        let mut cf = cubefit(2, 10);
        let mut state = 0x1234_5678_u64;
        for id in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let load = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-6);
            cf.place(tenant(id, load)).unwrap();
        }
        let report = validity::check(cf.placement());
        assert!(report.is_robust(), "worst margin {}", report.worst_margin);
    }

    #[test]
    fn robust_for_random_uniform_loads_gamma3() {
        let mut cf = cubefit(3, 5);
        let mut state = 0x8765_4321_u64;
        for id in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let load = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-6);
            cf.place(tenant(id, load)).unwrap();
        }
        let report = validity::check(cf.placement());
        assert!(report.is_robust(), "worst margin {}", report.worst_margin);
    }

    #[test]
    fn tiny_tenants_aggregate() {
        let mut cf = cubefit(2, 5);
        // Tiny threshold (K=5, γ=2): replica ≤ 1/6. Load 0.05 → replica
        // 0.025; target class 4 slots are 0.2 → 8 replicas per multi.
        for id in 0..8 {
            let outcome = cf.place(tenant(id, 0.05)).unwrap();
            assert_eq!(outcome.stage, PlacementStage::MultiReplica);
        }
        // All 8 tenants share the same two bins.
        let bins = cf.placement().tenant_bins(TenantId::new(0)).unwrap().to_vec();
        for id in 1..8 {
            assert_eq!(cf.placement().tenant_bins(TenantId::new(id)).unwrap(), &bins[..]);
        }
        assert_eq!(cf.placement().open_bins(), 2);
        assert!(cf.placement().is_robust());
        // The ninth overflows the 0.2 cap and opens a fresh multi-replica.
        cf.place(tenant(8, 0.05)).unwrap();
        assert_eq!(cf.stats().sealed_multis, 1);
    }

    #[test]
    fn theoretical_tiny_policy_is_robust() {
        let config = CubeFitConfig::builder()
            .replication(2)
            .classes(10)
            .tiny_policy(TinyPolicy::Theoretical)
            .build()
            .unwrap();
        let mut cf = CubeFit::new(config);
        let mut state = 7_u64;
        for id in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Mostly tiny loads.
            let load = 0.002 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 0.15;
            cf.place(tenant(id, load)).unwrap();
        }
        assert!(cf.placement().is_robust());
        assert!(cf.stats().tiny_placements > 0);
    }

    #[test]
    fn mixed_workload_stats_partition_tenants() {
        let mut cf = cubefit(2, 5);
        let loads = [0.9, 0.8, 0.3, 0.25, 0.05, 0.04, 0.6, 0.02];
        for (id, &load) in loads.iter().enumerate() {
            cf.place(tenant(id as u64, load)).unwrap();
        }
        let stats = cf.stats();
        assert_eq!(
            stats.stage1_placements + stats.stage2_placements + stats.tiny_placements,
            loads.len()
        );
        assert!(cf.placement().is_robust());
    }

    #[test]
    fn survives_worst_case_failures_gamma3() {
        // End-to-end Theorem 1 exercise: place, fail the worst pair of
        // servers, verify no overload under conservative semantics.
        let mut cf = cubefit(3, 5);
        let mut state = 99_u64;
        for id in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let load = 0.05 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 0.9;
            cf.place(tenant(id, load)).unwrap();
        }
        let worst = validity::worst_failure_set(
            cf.placement(),
            2,
            validity::FailoverSemantics::Conservative,
        );
        let impact = validity::simulate_failures(
            cf.placement(),
            &worst,
            validity::FailoverSemantics::Conservative,
        );
        assert!(
            !impact.has_overload(),
            "worst-case 2-failure overloads: max load {}",
            impact.max_load()
        );
    }

    #[test]
    fn boundary_load_one_is_class1() {
        let mut cf = cubefit(2, 10);
        let outcome = cf.place(tenant(0, 1.0)).unwrap();
        assert_eq!(outcome.stage, PlacementStage::Cube);
        // Replica size exactly 1/2 → class 1; bin level 0.5 with reserve.
        assert!((cf.placement().level(outcome.bins[0]) - 0.5).abs() < 1e-12);
        assert!(cf.placement().is_robust());
    }

    #[test]
    fn recorder_traces_every_placement_and_bin_open() {
        use cubefit_telemetry::VecSink;
        use std::sync::Arc;

        let sink = Arc::new(VecSink::new());
        let recorder = Recorder::with_sink(Arc::clone(&sink));
        let mut cf = cubefit(2, 5);
        cf.set_recorder(recorder.clone());
        let loads = [0.9, 0.8, 0.3, 0.25, 0.05, 0.04, 0.6, 0.02];
        for (id, &load) in loads.iter().enumerate() {
            cf.place(tenant(id as u64, load)).unwrap();
        }

        let events = sink.events();
        let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
        // One BinOpened per server the placement reports — the trace-level
        // invariant the CLI acceptance check relies on.
        assert_eq!(
            count(|e| matches!(e, TraceEvent::BinOpened { .. })),
            cf.placement().open_bins()
        );
        assert_eq!(count(|e| matches!(e, TraceEvent::TenantArrived { .. })), loads.len());
        assert_eq!(count(|e| matches!(e, TraceEvent::Placed { .. })), loads.len());
        // Running totals in BinOpened events are strictly increasing.
        let totals: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BinOpened { total_open, .. } => Some(*total_open),
                _ => None,
            })
            .collect();
        assert!(totals.windows(2).all(|w| w[0] < w[1]), "totals {totals:?}");

        // Counters mirror the stage partition in `stats()`.
        let snap = recorder.snapshot();
        let stats = cf.stats();
        let stage = |s: &str| snap.counter("placements", &[("stage", s)]) as usize;
        assert_eq!(stage("mature_fit"), stats.stage1_placements);
        assert_eq!(stage("cube"), stats.stage2_placements);
        assert_eq!(stage("multi_replica"), stats.tiny_placements);
        assert_eq!(
            snap.counter("bins_opened", &[("algorithm", "cubefit")]) as usize,
            cf.placement().open_bins()
        );
        let hits = snap.counter("mfit_outcomes", &[("hit", "true")]) as usize;
        assert_eq!(hits, stats.stage1_placements);
    }

    #[test]
    fn disabled_recorder_changes_nothing() {
        let mut traced = cubefit(2, 5);
        traced.set_recorder(Recorder::disabled());
        let mut plain = cubefit(2, 5);
        for id in 0..50_u64 {
            let load = 0.01 + 0.019 * (id % 50) as f64;
            let a = traced.place(tenant(id, load)).unwrap();
            let b = plain.place(tenant(id, load)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(traced.stats(), plain.stats());
    }

    #[test]
    fn consolidator_trait_name() {
        let cf = cubefit(2, 5);
        assert_eq!(cf.name(), "cubefit");
        assert_eq!(cf.gamma(), 2);
    }

    #[test]
    fn departed_cube_cell_is_reused_by_same_class() {
        // γ=2, class 2 (replica ∈ (1/4, 1/3]). Fill one full generation of
        // 4 tenants, remove one, and the next same-class arrival must land
        // in the vacated cell instead of advancing the cube.
        let mut cf = cubefit(2, 10);
        for id in 0..4 {
            cf.place(tenant(id, 0.6)).unwrap();
        }
        let bins_before = cf.placement().open_bins();
        let removed = cf.remove(TenantId::new(1)).unwrap();
        assert!((removed.load - 0.6).abs() < 1e-12);
        let outcome = cf.place(tenant(10, 0.6)).unwrap();
        assert_eq!(outcome.stage, PlacementStage::Cube);
        assert_eq!(outcome.opened, 0, "reuse must not open bins");
        let mut got = outcome.bins.clone();
        got.sort_unstable();
        let mut vacated = removed.bins.clone();
        vacated.sort_unstable();
        assert_eq!(got, vacated, "new tenant lands in the vacated cell");
        assert_eq!(cf.placement().open_bins(), bins_before);
        assert_eq!(cf.stats().cells_reused, 1);
        assert!(cf.placement().is_robust());
        assert!(crate::oracle::audit(cf.placement()).is_ok());
    }

    #[test]
    fn infeasible_free_cell_is_skipped_not_lost() {
        // Mature a cell's bins with stage-1 guests after the owner departs;
        // if the guests consumed the slack, reuse must fall back to fresh
        // cube slots rather than overload the cell.
        let mut cf = cubefit(2, 10);
        for id in 0..4 {
            cf.place(tenant(id, 0.6)).unwrap();
        }
        cf.remove(TenantId::new(0)).unwrap();
        // Occupy the vacated pair's slack via stage-1 guests (replica 0.1
        // each m-fits the now-emptier bins).
        for id in 20..26 {
            cf.place(tenant(id, 0.2)).unwrap();
        }
        // Whatever path the next class-2 tenant takes, the invariants hold.
        cf.place(tenant(30, 0.6)).unwrap();
        assert!(cf.placement().is_robust());
        assert!(crate::oracle::audit(cf.placement()).is_ok());
    }

    #[test]
    fn removal_keeps_indexes_consistent_under_interleaving() {
        let mut cf = cubefit(3, 5);
        let mut state = 0xfeed_u64;
        let mut alive: Vec<u64> = Vec::new();
        let mut departed: Vec<u64> = Vec::new();
        for id in 0..300_u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let load = 0.01 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 0.95;
            cf.place(tenant(id, load)).unwrap();
            alive.push(id);
            // Depart roughly every third arrival, from the middle.
            if id % 3 == 2 {
                let victim = alive.remove(alive.len() / 2);
                cf.remove(TenantId::new(victim)).unwrap();
                departed.push(victim);
            }
        }
        assert_eq!(cf.placement().tenant_count(), alive.len());
        assert!(cf.placement().is_robust());
        assert!(crate::oracle::audit(cf.placement()).is_ok());
        // Departed ids are re-admissible.
        cf.place(tenant(departed[0], 0.4)).unwrap();
        assert!(crate::oracle::audit(cf.placement()).is_ok());
    }

    #[test]
    fn recovery_restores_theorem1_after_gamma_minus_one_failures() {
        let mut cf = cubefit(3, 5);
        let mut state = 0xbeef_u64;
        for id in 0..120 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let load = 0.05 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 0.9;
            cf.place(tenant(id, load)).unwrap();
        }
        // Fail the worst γ−1 = 2 servers the validity checker can find.
        let failed = validity::worst_failure_set(
            cf.placement(),
            2,
            validity::FailoverSemantics::Conservative,
        );
        let orphaned = recovery::orphans(cf.placement(), &failed).len();
        let report = cf.recover(&failed).unwrap();
        assert_eq!(report.replicas_migrated, orphaned);
        assert!(report.moved_load > 0.0);
        for &bin in &failed {
            assert_eq!(cf.placement().level(bin), 0.0, "failed bin {bin} must end empty");
        }
        for (_, _, bins) in cf.placement().tenants() {
            assert_eq!(bins.len(), 3, "every tenant keeps γ distinct replicas");
            assert!(failed.iter().all(|f| !bins.contains(f)));
        }
        assert!(cf.placement().is_robust(), "recovery must re-establish Theorem 1");
        assert!(crate::oracle::audit(cf.placement()).is_ok());
        // The substrate stays placeable after recovery.
        cf.place(tenant(500, 0.5)).unwrap();
        assert!(cf.placement().is_robust());
    }

    #[test]
    fn clone_box_forks_cube_state_independently() {
        let mut cf = cubefit(2, 10);
        for id in 0..4 {
            cf.place(tenant(id, 0.6)).unwrap();
        }
        let mut fork = cf.clone_box();
        fork.remove(TenantId::new(0)).unwrap();
        fork.place(tenant(9, 0.6)).unwrap();
        assert_eq!(cf.placement().tenant_count(), 4);
        assert_eq!(fork.placement().tenant_count(), 4);
        assert!(cf.placement().tenant_bins(TenantId::new(0)).is_some());
        assert!(fork.placement().tenant_bins(TenantId::new(0)).is_none());
        assert!(crate::oracle::audit(cf.placement()).is_ok());
        assert!(crate::oracle::audit(fork.placement()).is_ok());
    }

    #[test]
    fn churn_emits_departure_and_migration_events() {
        use cubefit_telemetry::VecSink;
        use std::sync::Arc;

        let sink = Arc::new(VecSink::new());
        let mut cf = cubefit(2, 5);
        cf.set_recorder(Recorder::with_sink(Arc::clone(&sink)));
        let a = cf.place(tenant(0, 0.5)).unwrap();
        cf.place(tenant(1, 0.7)).unwrap();
        cf.remove(TenantId::new(1)).unwrap();
        cf.recover(&[a.bins[0]]).unwrap();
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(e, TraceEvent::TenantDeparted { tenant: 1, .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::ReplicaMigrated { tenant: 0, .. })));
    }
}
