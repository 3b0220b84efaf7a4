//! The one engine behind every baseline packer.
//!
//! [`Baseline`] owns the placement, a keyed [`BinIndex`], the reserve it
//! places with, the telemetry handles and the fallback count, and
//! implements [`Consolidator`] once. What tells Best Fit from RFI or
//! Random Fit apart is a small [`Rule`]: the order it offers candidate
//! servers in and the index key that order reads, RFI's interleaving cap,
//! Next Fit's window. Placement and recovery scan the same candidates, so
//! every packer re-homes orphaned replicas in its own preference order.

use crate::common::{
    assignment_feasible, extends_assignment, feasible, BaselineTelemetry, ReserveMode,
};
use cubefit_core::algorithm::{LoadUpdateOutcome, RemovalOutcome};
use cubefit_core::bin_index::BinIndex;
use cubefit_core::recovery::{self, RecoveryReport};
use cubefit_core::{
    BinId, Consolidator, Error, Placement, PlacementOutcome, PlacementStage, Result, Tenant,
    TenantId,
};
use cubefit_telemetry::{Recorder, TraceEvent};
use std::fmt;

/// What distinguishes one baseline packer from another.
pub trait Rule: Clone + fmt::Debug + 'static {
    /// The packer's [`Consolidator::name`] label.
    const NAME: &'static str;

    /// Whether a candidate must also keep the servers already chosen for
    /// the tenant feasible ([`extends_assignment`]) rather than only
    /// itself ([`feasible`]).
    const CHECKS_CHOSEN: bool = true;

    /// The key `bin` is indexed by; `None` (the default) for rules whose
    /// candidate order reads no index.
    fn key(&self, placement: &Placement, bin: BinId) -> Option<f64> {
        let _ = (placement, bin);
        None
    }

    /// Candidate servers for a replica of `size`, in preference order; by
    /// default every server in opening order.
    fn candidates<'a>(
        &'a mut self,
        index: &'a BinIndex,
        placement: &'a Placement,
        size: f64,
    ) -> impl Iterator<Item = BinId> + 'a {
        let _ = (index, size);
        (0..placement.created_bins()).map(BinId::new)
    }

    /// A cap on a candidate's plain level (RFI's `μ`). Fresh servers are
    /// exempt: a replica must land somewhere.
    fn fill_cap(&self) -> Option<f64> {
        None
    }

    /// Chooses the tenant's `γ` servers, returning them with how many were
    /// opened for it. By default each replica takes the first candidate
    /// that admits it, or a fresh server when none does; a set that then
    /// fails as a whole falls back to `γ` fresh servers.
    fn choose(packer: &mut Baseline<Self>, tenant: &Tenant, size: f64) -> (Vec<BinId>, usize) {
        packer.fit_each_replica(tenant, size)
    }

    /// Runs before `bins` lose replicas to a failure or a migration.
    fn drain(&mut self, bins: &[BinId]) {
        let _ = bins;
    }
}

/// A baseline packer: the placement plus what its [`Rule`] needs to
/// choose servers. The public packers are aliases of this type, such as
/// [`crate::BestFit`] and [`crate::Rfi`].
#[derive(Debug, Clone)]
pub struct Baseline<R> {
    pub(crate) placement: Placement,
    /// Every server the placement created, at its [`Rule::key`] (empty
    /// for rules that key nothing).
    pub(crate) index: BinIndex,
    pub(crate) reserve: ReserveMode,
    pub(crate) rule: R,
    fallbacks: usize,
    pub(crate) telemetry: BaselineTelemetry,
}

impl<R: Rule> Baseline<R> {
    /// A packer placing with `reserve` under `rule`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidReplication`] if `gamma < 2`.
    pub(crate) fn with_rule(gamma: usize, reserve: ReserveMode, rule: R) -> Result<Self> {
        if gamma < 2 {
            return Err(Error::InvalidReplication { gamma });
        }
        Ok(Baseline {
            placement: Placement::new(gamma),
            index: BinIndex::default(),
            reserve,
            rule,
            fallbacks: 0,
            telemetry: BaselineTelemetry::default(),
        })
    }

    /// How many tenants required the all-fresh-servers fallback (whole
    /// assignments that turned infeasible after sibling placement).
    #[must_use]
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    fn open(&mut self) -> BinId {
        let bin = self.placement.open_bin(None);
        rekey(&mut self.index, &self.rule, &self.placement, &[bin]);
        bin
    }

    /// Places each replica on the first candidate that admits it, opening
    /// a fresh server when none does. Later replicas raise earlier
    /// servers' shared loads, so the set is then re-validated as a whole
    /// (capacity and reserve only); if it fails, the tenant falls back to
    /// `γ` fresh servers, which is always feasible.
    pub(crate) fn fit_each_replica(&mut self, tenant: &Tenant, size: f64) -> (Vec<BinId>, usize) {
        let gamma = self.placement.gamma();
        let mut chosen: Vec<BinId> = Vec::with_capacity(gamma);
        let mut opened = 0;
        for replica in 0..gamma {
            let (pick, scanned) = self.pick(size, &chosen);
            self.telemetry.recorder.emit(|| TraceEvent::FitAttempt {
                tenant: tenant.id().get(),
                replica,
                scanned,
                opened_new: pick.is_none(),
            });
            match pick {
                Some(bin) => chosen.push(bin),
                None => {
                    chosen.push(self.open());
                    opened += 1;
                }
            }
        }
        if !assignment_feasible(&self.placement, &chosen, size, self.reserve, None) {
            self.fallbacks += 1;
            self.telemetry.fallbacks.inc();
            chosen = (0..gamma).map(|_| self.open()).collect();
            opened = gamma;
        }
        (chosen, opened)
    }

    /// The first candidate that admits a replica of `size` next to
    /// `chosen`, plus how many candidates the scan inspected (for
    /// `FitAttempt` trace events).
    fn pick(&mut self, size: f64, chosen: &[BinId]) -> (Option<BinId>, usize) {
        let Baseline { placement, index, reserve, rule, .. } = self;
        let (reserve, cap) = (*reserve, rule.fill_cap());
        let mut scanned = 0;
        let hit = rule.candidates(index, placement, size).find(|&bin| {
            scanned += 1;
            !chosen.contains(&bin)
                && if R::CHECKS_CHOSEN {
                    extends_assignment(placement, chosen, bin, size, reserve, cap)
                } else {
                    feasible(placement, bin, size, chosen, reserve, cap)
                }
        });
        (hit, scanned)
    }
}

/// Moves each of `bins` to its current key.
fn rekey<R: Rule>(index: &mut BinIndex, rule: &R, placement: &Placement, bins: &[BinId]) {
    for &bin in bins {
        if let Some(key) = rule.key(placement, bin) {
            index.insert(bin, key);
        }
    }
}

/// Re-keys the bins a move of `tenant`'s replica off `from` touched: the
/// source's and target's levels change, plus the shared loads between the
/// target and every sibling.
fn rekey_move<R: Rule>(
    index: &mut BinIndex,
    rule: &R,
    placement: &Placement,
    tenant: TenantId,
    from: BinId,
) {
    rekey(index, rule, placement, &[from]);
    rekey(index, rule, placement, placement.tenant_bins(tenant).expect("still placed"));
}

impl<R: Rule> Consolidator for Baseline<R> {
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        if self.placement.tenant_bins(tenant.id()).is_some() {
            return Err(Error::DuplicateTenant { tenant: tenant.id() });
        }
        let size = tenant.replica_size(self.placement.gamma());
        self.telemetry.arrival(&tenant, self.placement.tenant_count());
        let (bins, opened) = R::choose(self, &tenant, size);
        let pending = self.telemetry.pending_opens(&self.placement, &bins);
        self.placement.place_tenant(&tenant, &bins)?;
        rekey(&mut self.index, &self.rule, &self.placement, &bins);
        self.telemetry.opened(&self.placement, &pending);
        self.telemetry.placed(&tenant, &bins, opened);
        Ok(PlacementOutcome { tenant: tenant.id(), bins, opened, stage: PlacementStage::Direct })
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let (load, bins) = self.placement.remove_tenant(tenant)?;
        // Emptied bins stay indexed, so later arrivals reuse them before
        // opening new servers.
        rekey(&mut self.index, &self.rule, &self.placement, &bins);
        self.telemetry.recorder.emit(|| TraceEvent::TenantDeparted { tenant: tenant.get(), load });
        Ok(RemovalOutcome { tenant, load, bins })
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        // Only the tenant's bins change level, and only pairs among them
        // change shared load: the same re-key footprint as a removal.
        let (old_load, bins) = self.placement.update_load(tenant, new_load)?;
        rekey(&mut self.index, &self.rule, &self.placement, &bins);
        Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
    }

    /// Placement decisions query the reserve per replica, so the loop
    /// stays sequential; the batch only amortizes the tenant-table growth.
    fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
        self.placement.reserve_tenants(tenants.len());
        tenants.into_iter().map(|tenant| self.place(tenant)).collect()
    }

    /// Re-homes orphaned replicas in the rule's candidate order through
    /// the full `γ − 1` move predicate, whatever reserve the rule places
    /// with, so recovery never weakens robustness (for RFI at `γ = 2` the
    /// two coincide).
    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        self.rule.drain(failed);
        let Baseline { placement, index, rule, telemetry, .. } = self;
        recovery::recover_replicas(
            placement,
            failed,
            (index, rule),
            |(index, rule), p, tenant, from, replica| {
                recovery::pick_target(p, tenant, from, failed, rule.candidates(index, p, replica))
            },
            |(index, rule), p, tenant, from, to, replica| {
                rekey_move(index, &**rule, p, tenant, from);
                telemetry.migrated(tenant, from, to, replica);
            },
        )
    }

    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        let load = self.placement.tenant_load(tenant).ok_or(Error::UnknownTenant { tenant })?;
        self.rule.drain(&[from]);
        self.placement.move_replica(tenant, from, to)?;
        rekey_move(&mut self.index, &self.rule, &self.placement, tenant, from);
        self.telemetry.migrated(tenant, from, to, load / self.placement.gamma() as f64);
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        Box::new(self.clone())
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn name(&self) -> &'static str {
        R::NAME
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.telemetry = BaselineTelemetry::resolve(recorder, R::NAME, self.placement.gamma());
    }
}
