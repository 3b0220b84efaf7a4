//! The [`Consolidator`] trait implemented by every placement algorithm.

use crate::bin::BinId;
use crate::error::Result;
use crate::placement::Placement;
use crate::recovery::RecoveryReport;
use crate::tenant::{Tenant, TenantId};
use cubefit_telemetry::Recorder;

/// Which path of an algorithm placed a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PlacementStage {
    /// CubeFit stage 1: reuse of mature-bin leftover space via m-fit.
    MatureFit,
    /// CubeFit stage 2: cube-addressed slot placement.
    Cube,
    /// CubeFit stage 2 via the tiny-tenant multi-replica path.
    MultiReplica,
    /// Baseline algorithms place directly without stages.
    Direct,
}

/// Where an accepted tenant's replicas went.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlacementOutcome {
    /// The placed tenant.
    pub tenant: TenantId,
    /// The `γ` bins hosting the tenant's replicas.
    pub bins: Vec<BinId>,
    /// How many new bins the placement opened.
    pub opened: usize,
    /// Which algorithm path handled the tenant.
    pub stage: PlacementStage,
}

/// What a tenant's departure released.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RemovalOutcome {
    /// The departed tenant.
    pub tenant: TenantId,
    /// The tenant's full load (now released).
    pub load: f64,
    /// The `γ` bins that hosted the tenant's replicas.
    pub bins: Vec<BinId>,
}

/// What an in-place load re-estimation changed.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LoadUpdateOutcome {
    /// The drifting tenant.
    pub tenant: TenantId,
    /// The load the placement tracked before the update.
    pub old_load: f64,
    /// The re-estimated load now in effect.
    pub new_load: f64,
    /// The `γ` bins hosting the tenant's replicas (unchanged by the
    /// update).
    pub bins: Vec<BinId>,
}

impl LoadUpdateOutcome {
    /// Signed full-tenant load change (`new − old`).
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.new_load - self.old_load
    }
}

/// An online consolidation algorithm.
///
/// Implementations receive tenants one at a time (the online model of
/// paper §II) and must immediately and irrevocably assign all `γ` replicas.
/// Tenants may also *depart* ([`Consolidator::remove`]), and servers may
/// fail ([`Consolidator::recover`]); implementations keep their derived
/// indexes consistent through both so robustness holds under churn.
/// The trait is object-safe so harnesses can drive a heterogeneous set of
/// algorithms:
///
/// ```
/// use cubefit_core::{Consolidator, CubeFit, CubeFitConfig, Load, Tenant};
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let config = CubeFitConfig::builder().replication(2).classes(5).build()?;
/// let mut algorithms: Vec<Box<dyn Consolidator>> = vec![Box::new(CubeFit::new(config))];
/// for algorithm in &mut algorithms {
///     algorithm.place(Tenant::with_load(Load::new(0.4)?))?;
///     assert_eq!(algorithm.placement().tenant_count(), 1);
/// }
/// # Ok(())
/// # }
/// ```
pub trait Consolidator {
    /// Places all `γ` replicas of `tenant`.
    ///
    /// # Errors
    ///
    /// Returns an error if the tenant id was already placed or an internal
    /// invariant is violated; well-formed tenants are otherwise always
    /// accepted (algorithms may always open fresh servers).
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome>;

    /// Removes a departed tenant's `γ` replicas, releasing their load and
    /// updating any internal indexes the algorithm keeps.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::UnknownTenant`] if the tenant is not
    /// currently placed.
    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome>;

    /// Re-places every replica orphaned by the simultaneous failure of the
    /// given bins onto surviving (or newly opened) bins, through the same
    /// robustness predicate the algorithm places with, so that Theorem 1
    /// holds again once recovery completes.
    ///
    /// Failed bins end up hosting nothing; callers model them as repaired
    /// (or decommissioned and their ids recycled) afterwards.
    ///
    /// # Errors
    ///
    /// Propagates placement-substrate invariant violations; a recovery
    /// target always exists because fresh bins accept any replica.
    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport>;

    /// Re-estimates `tenant`'s load in place (its replicas stay where they
    /// are), keeping every derived index the algorithm maintains
    /// consistent — the load-drift primitive.
    ///
    /// An upward drift can push hosting bins past the Theorem-1 reserve;
    /// the method still applies the measurement (declared loads track
    /// reality, not the other way around) and callers watch the resulting
    /// health with [`crate::monitor::classify`] and react with the
    /// mitigation planner.
    ///
    /// # Errors
    ///
    /// * [`crate::Error::InvalidLoad`] if `new_load` is not a finite number
    ///   in `(0, 1]`;
    /// * [`crate::Error::UnknownTenant`] if the tenant is not currently
    ///   placed.
    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome>;

    /// Places a batch of tenants, in order, as if [`Consolidator::place`]
    /// had been called once per tenant.
    ///
    /// The three `*_batch` methods default to that sequential loop, and
    /// algorithms keep the defaults: a batch is the per-op path, so batch ≡
    /// sequential holds by construction. (CubeFit, RFI and the greedy
    /// packers override this method only to pre-size the tenant table
    /// before the same loop.) Layers override the batch methods to treat a
    /// batch as one unit — the journal runs the inner algorithm's per-op
    /// methods in the same fail-fast loop and writes the ops that applied
    /// as one WAL frame.
    ///
    /// # Errors
    ///
    /// Fail-fast: the first per-tenant error aborts the batch. Tenants
    /// placed before the failing one stay placed (exactly as if the caller
    /// had looped manually).
    fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
        tenants.into_iter().map(|tenant| self.place(tenant)).collect()
    }

    /// Removes a batch of departed tenants, in order, as if
    /// [`Consolidator::remove`] had been called once per tenant. Same
    /// equivalence and fail-fast contract as [`Consolidator::place_batch`].
    ///
    /// # Errors
    ///
    /// Fail-fast on the first [`crate::Error::UnknownTenant`]; earlier
    /// removals in the batch stay applied.
    fn remove_batch(&mut self, tenants: &[TenantId]) -> Result<Vec<RemovalOutcome>> {
        tenants.iter().map(|tenant| self.remove(*tenant)).collect()
    }

    /// Applies a batch of load re-estimations, in order, as if
    /// [`Consolidator::update_load`] had been called once per entry. Same
    /// equivalence and fail-fast contract as [`Consolidator::place_batch`].
    ///
    /// # Errors
    ///
    /// Fail-fast on the first invalid load or unknown tenant; earlier
    /// updates in the batch stay applied.
    fn update_load_batch(&mut self, updates: &[(TenantId, f64)]) -> Result<Vec<LoadUpdateOutcome>> {
        updates.iter().map(|(tenant, load)| self.update_load(*tenant, *load)).collect()
    }

    /// Does nothing: a [`Placement`] has one shared-load index, so there is
    /// nothing to partition. The method outlives the sharded index only
    /// because perfbench's `Timed` decorator still forwards it; it goes
    /// away together with that forward.
    fn set_shards(&mut self, shards: usize) {
        let _ = shards;
    }

    /// Moves one live replica of `tenant` from bin `from` to bin `to`,
    /// keeping every derived index the algorithm maintains consistent —
    /// the planned-migration primitive behind defragmentation.
    ///
    /// Unlike [`Consolidator::recover`], the source bin is healthy: the
    /// caller (e.g. a defrag executor) is responsible for checking
    /// [`crate::recovery::move_feasible`] *before* migrating; the method
    /// itself applies the move unconditionally so that a rollback (the
    /// inverse move sequence) is always possible.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::Placement::move_replica`] endpoint violations
    /// (unknown tenant, `from` not hosting it, `to` already hosting it).
    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()>;

    /// Clones the algorithm — placement, indexes, RNG state and all — into
    /// a new boxed trait object. Harnesses use this for tentative
    /// placements (e.g. overflow probing) without replaying history.
    fn clone_box(&self) -> Box<dyn Consolidator>;

    /// Read access to the placement built so far.
    fn placement(&self) -> &Placement;

    /// Replication factor `γ` the algorithm was configured with.
    fn gamma(&self) -> usize {
        self.placement().gamma()
    }

    /// Short human-readable algorithm name (for reports and plots).
    fn name(&self) -> &'static str;

    /// Attaches a telemetry recorder. Instrumented algorithms resolve
    /// their counters and stream [`cubefit_telemetry::TraceEvent`]s into
    /// it; the default implementation ignores the recorder, so plain
    /// algorithms need no telemetry code.
    fn set_recorder(&mut self, recorder: Recorder) {
        let _ = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Load;

    /// Minimal consolidator used to exercise trait defaults: every tenant
    /// gets γ fresh bins.
    #[derive(Clone)]
    struct FreshBins {
        placement: Placement,
    }

    impl Consolidator for FreshBins {
        fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
            let gamma = self.placement.gamma();
            let bins: Vec<BinId> = (0..gamma).map(|_| self.placement.open_bin(None)).collect();
            self.placement.place_tenant(&tenant, &bins)?;
            Ok(PlacementOutcome {
                tenant: tenant.id(),
                opened: bins.len(),
                bins,
                stage: PlacementStage::Direct,
            })
        }

        fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
            let (load, bins) = self.placement.remove_tenant(tenant)?;
            Ok(RemovalOutcome { tenant, load, bins })
        }

        fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
            crate::recovery::recover_replicas(
                &mut self.placement,
                failed,
                (),
                |_, p, t, from, _| {
                    crate::recovery::pick_target(
                        p,
                        t,
                        from,
                        failed,
                        (0..p.created_bins()).map(BinId::new),
                    )
                },
                |_, _, _, _, _, _| {},
            )
        }

        fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
            let (old_load, bins) = self.placement.update_load(tenant, new_load)?;
            Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
        }

        fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
            self.placement.move_replica(tenant, from, to)
        }

        fn clone_box(&self) -> Box<dyn Consolidator> {
            Box::new(self.clone())
        }

        fn placement(&self) -> &Placement {
            &self.placement
        }

        fn name(&self) -> &'static str {
            "fresh-bins"
        }
    }

    #[test]
    fn trait_defaults_and_object_safety() {
        let mut boxed: Box<dyn Consolidator> = Box::new(FreshBins { placement: Placement::new(3) });
        assert_eq!(boxed.gamma(), 3);
        // The default recorder hook is a no-op and keeps the trait
        // object-safe.
        boxed.set_recorder(Recorder::enabled());
        let outcome = boxed.place(Tenant::with_load(Load::new(0.3).unwrap())).unwrap();
        assert_eq!(outcome.bins.len(), 3);
        assert_eq!(outcome.opened, 3);
        assert_eq!(outcome.stage, PlacementStage::Direct);
        assert_eq!(boxed.name(), "fresh-bins");
        assert!(boxed.placement().is_robust());
    }

    #[test]
    fn churn_methods_through_trait_objects() {
        let mut boxed: Box<dyn Consolidator> = Box::new(FreshBins { placement: Placement::new(2) });
        let a = boxed.place(Tenant::with_load(Load::new(0.4).unwrap())).unwrap();
        let b = boxed.place(Tenant::with_load(Load::new(0.6).unwrap())).unwrap();
        // A clone is an independent fork of the whole state.
        let mut fork = boxed.clone_box();
        fork.remove(a.tenant).unwrap();
        assert_eq!(fork.placement().tenant_count(), 1);
        assert_eq!(boxed.placement().tenant_count(), 2);
        // Removal through the box delegates and reports the freed replicas.
        let removed = boxed.remove(b.tenant).unwrap();
        assert_eq!(removed.bins, b.bins);
        assert!((removed.load - 0.6).abs() < 1e-12);
        assert!(matches!(boxed.remove(b.tenant), Err(crate::error::Error::UnknownTenant { .. })));
        // Recovery through the box re-homes the orphaned replica.
        let report = boxed.recover(&[a.bins[0]]).unwrap();
        assert_eq!(report.replicas_migrated, 1);
        assert!(boxed.placement().is_robust());
        assert_eq!(boxed.placement().level(a.bins[0]), 0.0);
    }

    #[test]
    fn update_load_through_trait_objects() {
        let mut boxed: Box<dyn Consolidator> = Box::new(FreshBins { placement: Placement::new(2) });
        let a = boxed.place(Tenant::with_load(Load::new(0.4).unwrap())).unwrap();
        let outcome = boxed.update_load(a.tenant, 0.6).unwrap();
        assert!((outcome.old_load - 0.4).abs() < 1e-12);
        assert!((outcome.new_load - 0.6).abs() < 1e-12);
        assert!((outcome.delta() - 0.2).abs() < 1e-12);
        assert_eq!(outcome.bins, a.bins);
        assert!((boxed.placement().level(a.bins[0]) - 0.3).abs() < 1e-12);
        // Typed validation propagates through the box.
        assert!(matches!(
            boxed.update_load(a.tenant, f64::NAN),
            Err(crate::error::Error::InvalidLoad { .. })
        ));
        assert!(matches!(
            boxed.update_load(TenantId::new(77), 0.5),
            Err(crate::error::Error::UnknownTenant { .. })
        ));
    }

    #[test]
    fn batch_defaults_match_sequential_loops() {
        let mut batched: Box<dyn Consolidator> =
            Box::new(FreshBins { placement: Placement::new(2) });
        let mut sequential = batched.clone_box();
        let tenants: Vec<Tenant> =
            [0.4, 0.2, 0.7].iter().map(|l| Tenant::with_load(Load::new(*l).unwrap())).collect();
        let batch = batched.place_batch(tenants.clone()).unwrap();
        let seq: Vec<PlacementOutcome> =
            tenants.into_iter().map(|t| sequential.place(t).unwrap()).collect();
        assert_eq!(batch, seq);
        let ids: Vec<TenantId> = batch.iter().map(|o| o.tenant).collect();
        let updates: Vec<(TenantId, f64)> = ids.iter().map(|id| (*id, 0.5)).collect();
        let batch_updates = batched.update_load_batch(&updates).unwrap();
        let seq_updates: Vec<LoadUpdateOutcome> =
            ids.iter().map(|id| sequential.update_load(*id, 0.5).unwrap()).collect();
        assert_eq!(batch_updates, seq_updates);
        let batch_removals = batched.remove_batch(&ids[..2]).unwrap();
        let seq_removals: Vec<RemovalOutcome> =
            ids[..2].iter().map(|id| sequential.remove(*id).unwrap()).collect();
        assert_eq!(batch_removals, seq_removals);
        assert_eq!(batched.placement().tenant_count(), 1);
    }

    #[test]
    fn batch_defaults_fail_fast_keeping_prior_ops() {
        let mut boxed: Box<dyn Consolidator> = Box::new(FreshBins { placement: Placement::new(2) });
        let a = Tenant::with_load(Load::new(0.4).unwrap());
        let b = Tenant::with_load(Load::new(0.2).unwrap());
        // Re-placing `a` mid-batch errors, but `a` and `b` placed before the
        // duplicate stay placed.
        let result = boxed.place_batch(vec![a, b, a]);
        assert!(matches!(result, Err(crate::error::Error::DuplicateTenant { .. })));
        assert_eq!(boxed.placement().tenant_count(), 2);
        assert!(matches!(
            boxed.remove_batch(&[a.id(), TenantId::new(9999)]),
            Err(crate::error::Error::UnknownTenant { .. })
        ));
        assert_eq!(boxed.placement().tenant_count(), 1);
    }

    #[test]
    fn migrate_through_trait_objects() {
        let mut boxed: Box<dyn Consolidator> = Box::new(FreshBins { placement: Placement::new(2) });
        let a = boxed.place(Tenant::with_load(Load::new(0.4).unwrap())).unwrap();
        let b = boxed.place(Tenant::with_load(Load::new(0.2).unwrap())).unwrap();
        boxed.migrate(a.tenant, a.bins[0], b.bins[0]).unwrap();
        assert_eq!(boxed.placement().level(a.bins[0]), 0.0);
        assert!((boxed.placement().level(b.bins[0]) - 0.3).abs() < 1e-12);
        // Endpoint misuse propagates as an error through the box.
        assert!(boxed.migrate(a.tenant, a.bins[0], b.bins[1]).is_err());
        // The inverse move restores the original placement.
        boxed.migrate(a.tenant, b.bins[0], a.bins[0]).unwrap();
        assert!((boxed.placement().level(a.bins[0]) - 0.2).abs() < 1e-12);
    }
}
