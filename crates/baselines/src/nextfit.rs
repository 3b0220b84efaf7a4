//! Next Fit adapted to replicated tenants.

use crate::common::{assignment_feasible, BaselineTelemetry, ReserveMode};
use cubefit_core::algorithm::{LoadUpdateOutcome, RemovalOutcome};
use cubefit_core::recovery::{self, RecoveryReport};
use cubefit_core::{
    BinId, Consolidator, Error, Placement, PlacementOutcome, PlacementStage, Result, Tenant,
    TenantId,
};
use cubefit_telemetry::{Recorder, TraceEvent};

/// **Next Fit**: keeps only the current window of `γ` servers open; a
/// tenant that does not fit in the window closes it and opens a fresh one.
///
/// The classic bounded-space baseline — `O(1)` state and the weakest
/// packing quality, bounding the other algorithms from below.
///
/// ```
/// use cubefit_baselines::NextFit;
/// use cubefit_core::{Consolidator, Load, Tenant};
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let mut packer = NextFit::new(2)?;
/// for load in [0.3, 0.3, 0.8] {
///     packer.place(Tenant::with_load(Load::new(load)?))?;
/// }
/// // The 0.8 tenant did not fit in the first window.
/// assert_eq!(packer.placement().open_bins(), 4);
/// assert!(packer.placement().is_robust());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NextFit {
    placement: Placement,
    window: Option<Vec<BinId>>,
    reserve: ReserveMode,
    telemetry: BaselineTelemetry,
}

impl NextFit {
    /// Creates a Next Fit packer with the full `γ − 1`-failure reserve.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidReplication`] if `gamma < 2`.
    pub fn new(gamma: usize) -> Result<Self> {
        if gamma < 2 {
            return Err(Error::InvalidReplication { gamma });
        }
        Ok(NextFit {
            placement: Placement::new(gamma),
            window: None,
            reserve: ReserveMode::GammaMinusOne,
            telemetry: BaselineTelemetry::default(),
        })
    }
}

impl Consolidator for NextFit {
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        if self.placement.tenant_bins(tenant.id()).is_some() {
            return Err(Error::DuplicateTenant { tenant: tenant.id() });
        }
        let gamma = self.placement.gamma();
        let size = tenant.replica_size(gamma);
        self.telemetry.arrival(&tenant, self.placement.tenant_count());

        let fits_window = self.window.as_ref().is_some_and(|window| {
            assignment_feasible(&self.placement, window, size, self.reserve, None)
        });
        self.telemetry.recorder.emit(|| TraceEvent::FitAttempt {
            tenant: tenant.id().get(),
            replica: 0,
            scanned: self.window.as_ref().map_or(0, Vec::len),
            opened_new: !fits_window,
        });
        let mut opened = 0;
        if !fits_window {
            // Bounded space: the outgoing window is closed for good.
            if let Some(old) = self.window.take() {
                for bin in old {
                    let level = self.placement.level(bin);
                    self.telemetry
                        .recorder
                        .emit(|| TraceEvent::BinClosed { bin: bin.index(), level });
                }
            }
            let fresh: Vec<BinId> = (0..gamma).map(|_| self.placement.open_bin(None)).collect();
            opened = gamma;
            self.window = Some(fresh);
        }
        let bins = self.window.clone().expect("window exists after refresh");
        let pending = self.telemetry.pending_opens(&self.placement, &bins);
        self.placement.place_tenant(&tenant, &bins)?;
        self.telemetry.opened(&self.placement, &pending);
        self.telemetry.placed(&tenant, &bins, opened);
        Ok(PlacementOutcome { tenant: tenant.id(), bins, opened, stage: PlacementStage::Direct })
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        // Next Fit keeps no derived index; the window stays put (bounded
        // space never revisits closed bins, even freshly emptied ones).
        let (load, bins) = self.placement.remove_tenant(tenant)?;
        self.telemetry.recorder.emit(|| TraceEvent::TenantDeparted { tenant: tenant.get(), load });
        Ok(RemovalOutcome { tenant, load, bins })
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        // No derived index to re-key; the window stays put.
        let (old_load, bins) = self.placement.update_load(tenant, new_load)?;
        Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
    }

    /// Re-homes orphans scanning all bins in opening order (recovery is an
    /// offline repair pass, exempt from the bounded-space window). A failed
    /// window server closes the window for good.
    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        if self.window.as_ref().is_some_and(|w| w.iter().any(|b| failed.contains(b))) {
            self.window = None;
        }
        let telemetry = &self.telemetry;
        recovery::recover_replicas(
            &mut self.placement,
            failed,
            |p, t, from, _| {
                recovery::pick_target(p, t, from, failed, (0..p.created_bins()).map(BinId::new))
            },
            |_, tenant, from, to, replica| {
                telemetry.recorder.emit(|| TraceEvent::ReplicaMigrated {
                    tenant: tenant.get(),
                    from: from.index(),
                    to: to.index(),
                    load: replica,
                });
            },
        )
    }

    /// Applies a planned migration. Draining a window server closes the
    /// window for good — bounded space never re-places into a bin a defrag
    /// pass is emptying.
    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        let gamma = self.placement.gamma() as f64;
        let load = self.placement.tenant_load(tenant).ok_or(Error::UnknownTenant { tenant })?;
        if self.window.as_ref().is_some_and(|w| w.contains(&from)) {
            self.window = None;
        }
        self.placement.move_replica(tenant, from, to)?;
        self.telemetry.recorder.emit(|| TraceEvent::ReplicaMigrated {
            tenant: tenant.get(),
            from: from.index(),
            to: to.index(),
            load: load / gamma,
        });
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        Box::new(self.clone())
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn name(&self) -> &'static str {
        "nextfit"
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.telemetry = BaselineTelemetry::resolve(recorder, "nextfit", self.placement.gamma());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::{Load, TenantId};

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    #[test]
    fn window_reuse_until_full() {
        let mut nf = NextFit::new(2).unwrap();
        let a = nf.place(tenant(0, 0.4)).unwrap();
        let b = nf.place(tenant(1, 0.4)).unwrap();
        assert_eq!(a.bins, b.bins);
        assert_eq!(b.opened, 0);
        // 0.4-level bins sharing 0.4: another 0.4 tenant violates the
        // reserve, so a new window opens.
        let c = nf.place(tenant(2, 0.4)).unwrap();
        assert_ne!(a.bins, c.bins);
        assert_eq!(c.opened, 2);
        assert_eq!(nf.placement().open_bins(), 4);
    }

    #[test]
    fn old_windows_are_never_revisited() {
        let mut nf = NextFit::new(2).unwrap();
        nf.place(tenant(0, 0.9)).unwrap(); // window A nearly full
        nf.place(tenant(1, 0.9)).unwrap(); // window B
                                           // A tiny tenant would fit in window A, but Next Fit only looks at B.
        let c = nf.place(tenant(2, 0.05)).unwrap();
        let b_bins = nf.placement().tenant_bins(TenantId::new(1)).unwrap();
        assert_eq!(c.bins.as_slice(), b_bins);
    }

    #[test]
    fn stays_robust_gamma3() {
        let mut nf = NextFit::new(3).unwrap();
        let mut state = 42u64;
        for id in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let load = (((state >> 11) as f64 / (1u64 << 53) as f64) * 0.999).max(1e-6);
            nf.place(tenant(id, load)).unwrap();
        }
        assert!(nf.placement().is_robust());
    }

    #[test]
    fn rejects_gamma_below_two() {
        assert!(NextFit::new(1).is_err());
    }

    #[test]
    fn removal_does_not_reopen_closed_windows() {
        let mut nf = NextFit::new(2).unwrap();
        let a = nf.place(tenant(0, 0.9)).unwrap(); // window A
        nf.place(tenant(1, 0.9)).unwrap(); // window B
        nf.remove(TenantId::new(0)).unwrap();
        // Window A is empty again, but bounded space ignores it.
        let c = nf.place(tenant(2, 0.9)).unwrap();
        assert!(c.bins.iter().all(|b| !a.bins.contains(b)));
        assert!(cubefit_core::oracle::audit(nf.placement()).is_ok());
    }

    #[test]
    fn failed_window_is_closed_and_recovery_restores_robustness() {
        let mut nf = NextFit::new(2).unwrap();
        nf.place(tenant(0, 0.6)).unwrap();
        let b = nf.place(tenant(1, 0.9)).unwrap(); // current window
        let failed = vec![b.bins[0]];
        let report = nf.recover(&failed).unwrap();
        assert_eq!(report.replicas_migrated, 1);
        assert_eq!(nf.placement().level(failed[0]), 0.0);
        assert!(nf.placement().is_robust());
        assert!(cubefit_core::oracle::audit(nf.placement()).is_ok());
        // The next arrival opens a fresh window rather than touching the
        // half-failed one.
        let c = nf.place(tenant(2, 0.1)).unwrap();
        assert_eq!(c.opened, 2);
        assert!(!c.bins.contains(&failed[0]));
    }
}
