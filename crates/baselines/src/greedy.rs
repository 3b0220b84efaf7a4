//! Failover-aware greedy packers: Best Fit, First Fit, Worst Fit.
//!
//! Classic online bin-packing heuristics lifted to replicated tenants: each
//! replica is placed greedily on a *feasible* server — one that stays within
//! capacity and keeps the failover reserve demanded by the configured
//! [`ReserveMode`] — and a fresh server is opened when none qualifies.
//! After selecting all `γ` servers the assignment is re-validated as a
//! whole (later replicas raise earlier servers' shared loads); if the
//! combination fails, the tenant falls back to `γ` fresh servers, which is
//! always feasible.

use crate::common::{assignment_feasible, extends_assignment, BaselineTelemetry, ReserveMode};
use cubefit_core::algorithm::{LoadUpdateOutcome, RemovalOutcome};
use cubefit_core::level_index::LevelIndex;
use cubefit_core::recovery::{self, RecoveryReport};
use cubefit_core::{
    BinId, Consolidator, Error, Placement, PlacementOutcome, PlacementStage, Result, Tenant,
    TenantId,
};
use cubefit_telemetry::{Recorder, TraceEvent};
use std::cell::Cell;

/// Which feasible server a greedy packer prefers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Preference {
    /// Fullest feasible server (minimum leftover) — Best Fit.
    Fullest,
    /// Lowest-numbered feasible server — First Fit.
    Oldest,
    /// Emptiest feasible server — Worst Fit.
    Emptiest,
}

/// Shared machinery behind the greedy packers.
#[derive(Debug, Clone)]
struct Greedy {
    placement: Placement,
    index: LevelIndex,
    /// Bins in opening order (for First Fit scans).
    order: Vec<BinId>,
    reserve: ReserveMode,
    preference: Preference,
    fallbacks: usize,
    telemetry: BaselineTelemetry,
}

impl Greedy {
    fn new(gamma: usize, reserve: ReserveMode, preference: Preference) -> Result<Self> {
        if gamma < 2 {
            return Err(Error::InvalidReplication { gamma });
        }
        Ok(Greedy {
            placement: Placement::new(gamma),
            index: LevelIndex::new(),
            order: Vec::new(),
            reserve,
            preference,
            fallbacks: 0,
            telemetry: BaselineTelemetry::default(),
        })
    }

    /// Returns the preferred feasible server plus how many candidates the
    /// scan inspected (for `FitAttempt` trace events).
    fn pick(&self, size: f64, chosen: &[BinId]) -> (Option<BinId>, usize) {
        let scanned = Cell::new(0_usize);
        let ok = |bin: &BinId| {
            scanned.set(scanned.get() + 1);
            !chosen.contains(bin)
                && extends_assignment(&self.placement, chosen, *bin, size, self.reserve, None)
        };
        let hit = match self.preference {
            Preference::Fullest => self.index.iter_desc_at_most(1.0 - size).find(|b| ok(b)),
            Preference::Emptiest => self.index.iter_asc().find(|b| ok(b)),
            Preference::Oldest => self.order.iter().copied().find(|b| ok(b)),
        };
        (hit, scanned.get())
    }

    fn open(&mut self) -> BinId {
        let bin = self.placement.open_bin(None);
        self.index.insert(bin, 0.0);
        self.order.push(bin);
        bin
    }

    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        if self.placement.tenant_bins(tenant.id()).is_some() {
            return Err(Error::DuplicateTenant { tenant: tenant.id() });
        }
        let gamma = self.placement.gamma();
        let size = tenant.replica_size(gamma);
        self.telemetry.arrival(&tenant, self.placement.tenant_count());

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
            // Later replicas invalidated an earlier server's reserve; the
            // always-feasible fallback uses γ fresh servers.
            self.fallbacks += 1;
            self.telemetry.fallbacks.inc();
            chosen = (0..gamma).map(|_| self.open()).collect();
            opened = gamma;
        }
        let pending = self.telemetry.pending_opens(&self.placement, &chosen);
        self.commit(&tenant, &chosen)?;
        self.telemetry.opened(&self.placement, &pending);
        self.telemetry.placed(&tenant, &chosen, opened);
        Ok(PlacementOutcome {
            tenant: tenant.id(),
            bins: chosen,
            opened,
            stage: PlacementStage::Direct,
        })
    }

    fn commit(&mut self, tenant: &Tenant, bins: &[BinId]) -> Result<()> {
        let old: Vec<(BinId, f64)> = bins.iter().map(|&b| (b, self.placement.level(b))).collect();
        self.placement.place_tenant(tenant, bins)?;
        for (bin, old_level) in old {
            self.index.update(bin, old_level, self.placement.level(bin));
        }
        Ok(())
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let old: Vec<(BinId, f64)> = self
            .placement
            .tenant_bins(tenant)
            .ok_or(Error::UnknownTenant { tenant })?
            .iter()
            .map(|&b| (b, self.placement.level(b)))
            .collect();
        let (load, bins) = self.placement.remove_tenant(tenant)?;
        // Emptied bins stay in the level index (at level 0) and in the
        // opening order, so later arrivals reuse them before opening new
        // servers.
        for (bin, old_level) in old {
            self.index.update(bin, old_level, self.placement.level(bin));
        }
        self.telemetry.recorder.emit(|| TraceEvent::TenantDeparted { tenant: tenant.get(), load });
        Ok(RemovalOutcome { tenant, load, bins })
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        // Only the tenant's own bins change level, so only their index keys
        // move — the same footprint as a removal.
        let old: Vec<(BinId, f64)> = self
            .placement
            .tenant_bins(tenant)
            .ok_or(Error::UnknownTenant { tenant })?
            .iter()
            .map(|&b| (b, self.placement.level(b)))
            .collect();
        let (old_load, bins) = self.placement.update_load(tenant, new_load)?;
        for (bin, old_level) in old {
            self.index.update(bin, old_level, self.placement.level(bin));
        }
        Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
    }

    /// Placement decisions query the reserve per replica, so batched
    /// placement keeps the sequential decision loop and only amortizes the
    /// tenant-table growth.
    fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
        self.placement.reserve_tenants(tenants.len());
        tenants.into_iter().map(|tenant| self.place(tenant)).collect()
    }

    /// Re-homes orphaned replicas using the packer's own preference order
    /// (fullest / oldest / emptiest feasible survivor), under the full
    /// `γ − 1` reserve so recovery never weakens robustness regardless of
    /// the configured [`ReserveMode`].
    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        let orphan_list = recovery::orphans(&self.placement, failed);
        let mut report = RecoveryReport::default();
        let mut affected: Vec<TenantId> = Vec::new();
        let gamma = self.placement.gamma() as f64;
        for (tenant, from) in orphan_list {
            if !affected.contains(&tenant) {
                affected.push(tenant);
            }
            let load = self.placement.tenant_load(tenant).expect("orphaned tenants are placed");
            let replica = load / gamma;
            let candidates: Vec<BinId> = match self.preference {
                Preference::Fullest => self.index.iter_desc_at_most(1.0 - replica).collect(),
                Preference::Emptiest => self.index.iter_asc().collect(),
                Preference::Oldest => self.order.clone(),
            };
            let target = recovery::pick_target(&self.placement, tenant, from, failed, candidates);
            let to = match target {
                Some(bin) => bin,
                None => {
                    report.bins_opened += 1;
                    self.open()
                }
            };
            let old_from = self.placement.level(from);
            let old_to = self.placement.level(to);
            self.placement.move_replica(tenant, from, to)?;
            self.index.update(from, old_from, self.placement.level(from));
            self.index.update(to, old_to, self.placement.level(to));
            report.replicas_migrated += 1;
            report.moved_load += replica;
            self.telemetry.recorder.emit(|| TraceEvent::ReplicaMigrated {
                tenant: tenant.get(),
                from: from.index(),
                to: to.index(),
                load: replica,
            });
        }
        report.tenants_affected = affected.len();
        Ok(report)
    }

    /// Applies a planned migration. Only the level-keyed index entries of
    /// the two endpoints move — shared loads are not part of the key.
    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        let gamma = self.placement.gamma() as f64;
        let load = self.placement.tenant_load(tenant).ok_or(Error::UnknownTenant { tenant })?;
        let old_from = self.placement.level(from);
        let old_to = self.placement.level(to);
        self.placement.move_replica(tenant, from, to)?;
        self.index.update(from, old_from, self.placement.level(from));
        self.index.update(to, old_to, self.placement.level(to));
        self.telemetry.recorder.emit(|| TraceEvent::ReplicaMigrated {
            tenant: tenant.get(),
            from: from.index(),
            to: to.index(),
            load: load / gamma,
        });
        Ok(())
    }
}

macro_rules! greedy_packer {
    ($(#[$doc:meta])* $name:ident, $preference:expr, $label:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            inner: Greedy,
        }

        impl $name {
            /// Creates the packer with the full `γ − 1`-failure reserve.
            ///
            /// # Errors
            ///
            /// Returns [`Error::InvalidReplication`] if `gamma < 2`.
            pub fn new(gamma: usize) -> Result<Self> {
                Self::with_reserve(gamma, ReserveMode::GammaMinusOne)
            }

            /// Creates the packer with an explicit [`ReserveMode`].
            ///
            /// # Errors
            ///
            /// Returns [`Error::InvalidReplication`] if `gamma < 2`.
            pub fn with_reserve(gamma: usize, reserve: ReserveMode) -> Result<Self> {
                Ok($name { inner: Greedy::new(gamma, reserve, $preference)? })
            }

            /// How many tenants required the all-fresh-servers fallback.
            #[must_use]
            pub fn fallbacks(&self) -> usize {
                self.inner.fallbacks
            }
        }

        impl Consolidator for $name {
            fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
                self.inner.place(tenant)
            }

            fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
                self.inner.remove(tenant)
            }

            fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
                self.inner.update_load(tenant, new_load)
            }

            fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
                self.inner.place_batch(tenants)
            }

            fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
                self.inner.recover(failed)
            }

            fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
                self.inner.migrate(tenant, from, to)
            }

            fn clone_box(&self) -> Box<dyn Consolidator> {
                Box::new(self.clone())
            }

            fn placement(&self) -> &Placement {
                &self.inner.placement
            }

            fn name(&self) -> &'static str {
                $label
            }

            fn set_recorder(&mut self, recorder: Recorder) {
                self.inner.telemetry = crate::common::BaselineTelemetry::resolve(
                    recorder,
                    $label,
                    self.inner.placement.gamma(),
                );
            }
        }
    };
}

greedy_packer!(
    /// Failover-aware **Best Fit**: each replica goes to the fullest
    /// feasible server.
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
    BestFit,
    Preference::Fullest,
    "bestfit"
);

greedy_packer!(
    /// Failover-aware **First Fit**: each replica goes to the oldest
    /// feasible server.
    FirstFit,
    Preference::Oldest,
    "firstfit"
);

greedy_packer!(
    /// Failover-aware **Worst Fit**: each replica goes to the emptiest
    /// feasible server (spreads load; a utilization-unfriendly strawman).
    WorstFit,
    Preference::Emptiest,
    "worstfit"
);

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::validity;
    use cubefit_core::{Load, TenantId};

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
