//! Failover-aware greedy packers: Best Fit, First Fit, Worst Fit.
//!
//! Classic online bin-packing heuristics lifted to replicated tenants: each
//! replica is placed greedily on a *feasible* server — one that stays within
//! capacity and keeps the failover reserve demanded by the configured
//! [`ReserveMode`] — and a fresh server is opened when none qualifies.
//! After selecting all `γ` servers the assignment is re-validated as a
//! whole (later replicas raise earlier servers' shared loads); if the
//! combination fails, the tenant falls back to `γ` fresh servers, which is
//! always feasible. The three differ only in their [`Rule`]'s candidate
//! order.

use crate::common::ReserveMode;
use crate::engine::{Baseline, Rule};
use cubefit_core::bin_index::BinIndex;
use cubefit_core::{BinId, Placement, Result};

/// Best Fit's rule: the fullest feasible server, scanning the level index
/// downward from the highest level the replica could still fit at.
#[derive(Debug, Clone, Copy)]
pub struct Fullest;

impl Rule for Fullest {
    const NAME: &'static str = "bestfit";

    fn key(&self, placement: &Placement, bin: BinId) -> Option<f64> {
        Some(placement.level(bin))
    }

    fn candidates<'a>(
        &'a mut self,
        index: &'a BinIndex,
        _: &'a Placement,
        size: f64,
    ) -> impl Iterator<Item = BinId> + 'a {
        index.iter_desc_at_most(1.0 - size)
    }
}

/// First Fit's rule: the oldest feasible server, in opening order.
#[derive(Debug, Clone, Copy)]
pub struct Oldest;

impl Rule for Oldest {
    const NAME: &'static str = "firstfit";
}

/// Worst Fit's rule: the emptiest feasible server, scanning the level
/// index upward.
#[derive(Debug, Clone, Copy)]
pub struct Emptiest;

impl Rule for Emptiest {
    const NAME: &'static str = "worstfit";

    fn key(&self, placement: &Placement, bin: BinId) -> Option<f64> {
        Some(placement.level(bin))
    }

    fn candidates<'a>(
        &'a mut self,
        index: &'a BinIndex,
        _: &'a Placement,
        _: f64,
    ) -> impl Iterator<Item = BinId> + 'a {
        index.iter_asc_at_least(0.0)
    }
}

/// Failover-aware **Best Fit**: each replica goes to the fullest feasible
/// server.
///
/// ```
/// use cubefit_baselines::BestFit;
/// use cubefit_core::{Consolidator, Load, Tenant};
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let mut packer = BestFit::new(2)?;
/// for load in [0.4, 0.4, 0.2] {
///     packer.place(Tenant::with_load(Load::new(load)?))?;
/// }
/// assert!(packer.placement().is_robust());
/// # Ok(())
/// # }
/// ```
pub type BestFit = Baseline<Fullest>;

/// Failover-aware **First Fit**: each replica goes to the oldest feasible
/// server.
pub type FirstFit = Baseline<Oldest>;

/// Failover-aware **Worst Fit**: each replica goes to the emptiest feasible
/// server (spreads load; a utilization-unfriendly strawman).
pub type WorstFit = Baseline<Emptiest>;

impl BestFit {
    /// Creates the packer with the full `γ − 1`-failure reserve.
    ///
    /// # Errors
    ///
    /// Returns [`cubefit_core::Error::InvalidReplication`] if `gamma < 2`.
    pub fn new(gamma: usize) -> Result<Self> {
        Self::with_reserve(gamma, ReserveMode::GammaMinusOne)
    }

    /// Creates the packer with an explicit [`ReserveMode`].
    ///
    /// # Errors
    ///
    /// Returns [`cubefit_core::Error::InvalidReplication`] if `gamma < 2`.
    pub fn with_reserve(gamma: usize, reserve: ReserveMode) -> Result<Self> {
        Baseline::with_rule(gamma, reserve, Fullest)
    }
}

impl FirstFit {
    /// Creates the packer with the full `γ − 1`-failure reserve.
    ///
    /// # Errors
    ///
    /// Returns [`cubefit_core::Error::InvalidReplication`] if `gamma < 2`.
    pub fn new(gamma: usize) -> Result<Self> {
        Baseline::with_rule(gamma, ReserveMode::GammaMinusOne, Oldest)
    }
}

impl WorstFit {
    /// Creates the packer with the full `γ − 1`-failure reserve.
    ///
    /// # Errors
    ///
    /// Returns [`cubefit_core::Error::InvalidReplication`] if `gamma < 2`.
    pub fn new(gamma: usize) -> Result<Self> {
        Baseline::with_rule(gamma, ReserveMode::GammaMinusOne, Emptiest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::validity;
    use cubefit_core::{Consolidator, Error, Load, Tenant, TenantId};

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    fn lcg_loads(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((state >> 11) as f64 / (1u64 << 53) as f64) * 0.999).max(1e-6)
            })
            .collect()
    }

    #[test]
    fn best_fit_reuses_fullest_bin() {
        let mut bf = BestFit::new(2).unwrap();
        bf.place(tenant(0, 0.5)).unwrap(); // two bins at 0.25
        bf.place(tenant(1, 0.3)).unwrap(); // fits on the same two bins
        assert_eq!(bf.placement().open_bins(), 2);
        let outcome = bf.place(tenant(2, 0.1)).unwrap();
        assert_eq!(outcome.opened, 0);
        assert_eq!(bf.placement().open_bins(), 2);
    }

    #[test]
    fn all_greedy_packers_stay_robust_gamma2() {
        for loads in [lcg_loads(1, 400), lcg_loads(2, 400)] {
            let mut packers: Vec<Box<dyn Consolidator>> = vec![
                Box::new(BestFit::new(2).unwrap()),
                Box::new(FirstFit::new(2).unwrap()),
                Box::new(WorstFit::new(2).unwrap()),
            ];
            for packer in &mut packers {
                for (id, &load) in loads.iter().enumerate() {
                    packer.place(tenant(id as u64, load)).unwrap();
                }
                let report = validity::check(packer.placement());
                assert!(
                    report.is_robust(),
                    "{} violated: margin {}",
                    packer.name(),
                    report.worst_margin
                );
            }
        }
    }

    #[test]
    fn all_greedy_packers_stay_robust_gamma3() {
        let loads = lcg_loads(3, 300);
        let mut packers: Vec<Box<dyn Consolidator>> = vec![
            Box::new(BestFit::new(3).unwrap()),
            Box::new(FirstFit::new(3).unwrap()),
            Box::new(WorstFit::new(3).unwrap()),
        ];
        for packer in &mut packers {
            for (id, &load) in loads.iter().enumerate() {
                packer.place(tenant(id as u64, load)).unwrap();
            }
            assert!(packer.placement().is_robust(), "{}", packer.name());
        }
    }

    #[test]
    fn single_failure_reserve_admits_more_but_risks_two_failures() {
        let loads = lcg_loads(9, 300);
        let mut strict = BestFit::new(3).unwrap();
        let mut lax = BestFit::with_reserve(3, ReserveMode::SingleFailure).unwrap();
        for (id, &load) in loads.iter().enumerate() {
            strict.place(tenant(id as u64, load)).unwrap();
            lax.place(tenant(id as u64, load)).unwrap();
        }
        assert!(lax.placement().open_bins() <= strict.placement().open_bins());
        // The strict packer survives the robustness check; the lax one
        // (reserving for one failure with γ=3) generally does not.
        assert!(strict.placement().is_robust());
        assert!(!lax.placement().is_robust());
    }

    #[test]
    fn worst_fit_spreads_wider_than_best_fit() {
        let loads = lcg_loads(4, 200);
        let mut best = BestFit::new(2).unwrap();
        let mut worst = WorstFit::new(2).unwrap();
        for (id, &load) in loads.iter().enumerate() {
            best.place(tenant(id as u64, load)).unwrap();
            worst.place(tenant(id as u64, load)).unwrap();
        }
        assert!(worst.placement().open_bins() >= best.placement().open_bins());
    }

    #[test]
    fn duplicate_tenant_rejected() {
        let mut bf = BestFit::new(2).unwrap();
        bf.place(tenant(0, 0.2)).unwrap();
        assert!(matches!(bf.place(tenant(0, 0.2)), Err(Error::DuplicateTenant { .. })));
    }

    #[test]
    fn rejects_gamma_below_two() {
        assert!(BestFit::new(1).is_err());
        assert!(FirstFit::new(0).is_err());
    }

    #[test]
    fn recorder_traces_fit_attempts_and_bin_opens() {
        use cubefit_telemetry::{Recorder, TraceEvent, VecSink};
        use std::sync::Arc;

        let sink = Arc::new(VecSink::new());
        let recorder = Recorder::with_sink(Arc::clone(&sink));
        let mut bf = BestFit::new(2).unwrap();
        bf.set_recorder(recorder.clone());
        for (id, load) in lcg_loads(11, 60).into_iter().enumerate() {
            bf.place(tenant(id as u64, load)).unwrap();
        }
        let events = sink.events();
        let opened = events.iter().filter(|e| matches!(e, TraceEvent::BinOpened { .. })).count();
        assert_eq!(opened, bf.placement().open_bins());
        // γ fit attempts per tenant (the fallback path adds none).
        let attempts = events.iter().filter(|e| matches!(e, TraceEvent::FitAttempt { .. })).count();
        assert_eq!(attempts, 60 * 2);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("placements", &[("algorithm", "bestfit")]), 60);
        assert_eq!(
            snap.counter("bins_opened", &[("algorithm", "bestfit")]) as usize,
            bf.placement().open_bins()
        );
    }

    #[test]
    fn removal_frees_bins_for_reuse() {
        let mut bf = BestFit::new(2).unwrap();
        bf.place(tenant(0, 0.9)).unwrap();
        bf.place(tenant(1, 0.9)).unwrap();
        let before = bf.placement().created_bins();
        bf.remove(cubefit_core::TenantId::new(0)).unwrap();
        // The freed servers absorb the next tenant without opening more.
        let outcome = bf.place(tenant(2, 0.9)).unwrap();
        assert_eq!(outcome.opened, 0);
        assert_eq!(bf.placement().created_bins(), before);
        assert!(bf.placement().is_robust());
        assert!(cubefit_core::oracle::audit(bf.placement()).is_ok());
        assert!(matches!(
            bf.remove(cubefit_core::TenantId::new(0)),
            Err(Error::UnknownTenant { .. })
        ));
    }

    #[test]
    fn all_greedy_packers_recover_robustly() {
        let loads = lcg_loads(17, 120);
        let mut packers: Vec<Box<dyn Consolidator>> = vec![
            Box::new(BestFit::new(3).unwrap()),
            Box::new(FirstFit::new(3).unwrap()),
            Box::new(WorstFit::new(3).unwrap()),
        ];
        for packer in &mut packers {
            for (id, &load) in loads.iter().enumerate() {
                packer.place(tenant(id as u64, load)).unwrap();
            }
            // Fail the two fullest bins (worst case for γ=3).
            let mut bins: Vec<(f64, cubefit_core::BinId)> =
                packer.placement().bins().map(|b| (b.level(), b.id())).collect();
            bins.sort_by(|a, b| b.0.total_cmp(&a.0));
            let failed: Vec<cubefit_core::BinId> = bins.iter().take(2).map(|&(_, b)| b).collect();
            let report = packer.recover(&failed).unwrap();
            assert!(report.replicas_migrated > 0, "{}", packer.name());
            for &bin in &failed {
                assert_eq!(packer.placement().level(bin), 0.0, "{}", packer.name());
            }
            assert!(packer.placement().is_robust(), "{}", packer.name());
            assert!(cubefit_core::oracle::audit(packer.placement()).is_ok());
        }
    }

    #[test]
    fn clone_box_forks_greedy_state() {
        let mut ff = FirstFit::new(2).unwrap();
        ff.place(tenant(0, 0.4)).unwrap();
        let mut fork = ff.clone_box();
        fork.place(tenant(1, 0.4)).unwrap();
        assert_eq!(ff.placement().tenant_count(), 1);
        assert_eq!(fork.placement().tenant_count(), 2);
    }

    #[test]
    fn first_fit_prefers_oldest() {
        let mut ff = FirstFit::new(2).unwrap();
        let first = ff.place(tenant(0, 0.8)).unwrap();
        // 0.5-replicas cannot share the 0.4-level bins (reserve) → fresh,
        // fuller bins that Best Fit would prefer.
        ff.place(tenant(1, 1.0)).unwrap();
        let third = ff.place(tenant(2, 0.2)).unwrap();
        // First Fit returns to tenant 0's (oldest) bins regardless.
        assert_eq!(third.bins, first.bins);
    }
}
