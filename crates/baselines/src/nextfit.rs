//! Next Fit adapted to replicated tenants.

use crate::common::{assignment_feasible, ReserveMode};
use crate::engine::{Baseline, Rule};
use cubefit_core::{BinId, Result, Tenant};
use cubefit_telemetry::TraceEvent;

/// Next Fit's rule: the current window of `γ` servers, if one is open.
/// Recovery scans every server in opening order (the default candidates):
/// it is an offline repair pass, exempt from the bounded-space window.
#[derive(Debug, Clone, Default)]
pub struct Window(Option<Vec<BinId>>);

impl Rule for Window {
    const NAME: &'static str = "nextfit";

    /// The tenant takes the whole window if it fits there; otherwise the
    /// window closes for good and a fresh one opens.
    fn choose(packer: &mut NextFit, tenant: &Tenant, size: f64) -> (Vec<BinId>, usize) {
        let Baseline { placement, reserve, rule: Window(window), telemetry, .. } = packer;
        let fits = window
            .as_ref()
            .is_some_and(|window| assignment_feasible(placement, window, size, *reserve, None));
        telemetry.recorder.emit(|| TraceEvent::FitAttempt {
            tenant: tenant.id().get(),
            replica: 0,
            scanned: window.as_ref().map_or(0, Vec::len),
            opened_new: !fits,
        });
        let mut opened = 0;
        if !fits {
            for bin in window.take().unwrap_or_default() {
                let level = placement.level(bin);
                telemetry.recorder.emit(|| TraceEvent::BinClosed { bin: bin.index(), level });
            }
            opened = placement.gamma();
            *window = Some((0..opened).map(|_| placement.open_bin(None)).collect());
        }
        (window.clone().expect("window exists after refresh"), opened)
    }

    /// A window server that fails or is drained by a migration closes the
    /// window for good: bounded space never re-places into a bin a defrag
    /// pass is emptying.
    fn drain(&mut self, bins: &[BinId]) {
        if self.0.as_ref().is_some_and(|window| window.iter().any(|b| bins.contains(b))) {
            self.0 = None;
        }
    }
}

/// **Next Fit**: keeps only the current window of `γ` servers open; a
/// tenant that does not fit in the window closes it and opens a fresh one.
///
/// The classic bounded-space baseline — `O(1)` state and the weakest
/// packing quality, bounding the other algorithms from below. Removals
/// and load updates leave the window put: bounded space never revisits
/// closed bins, even freshly emptied ones.
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
pub type NextFit = Baseline<Window>;

impl NextFit {
    /// Creates a Next Fit packer with the full `γ − 1`-failure reserve.
    ///
    /// # Errors
    ///
    /// Returns [`cubefit_core::Error::InvalidReplication`] if `gamma < 2`.
    pub fn new(gamma: usize) -> Result<Self> {
        Baseline::with_rule(gamma, ReserveMode::GammaMinusOne, Window::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::{Consolidator, Load, TenantId};

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
