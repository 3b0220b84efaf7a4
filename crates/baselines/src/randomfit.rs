//! Random Fit: a randomized sanity-check baseline.

use crate::common::{assignment_feasible, feasible, ReserveMode};
use cubefit_core::algorithm::{LoadUpdateOutcome, RemovalOutcome};
use cubefit_core::recovery::{self, RecoveryReport};
use cubefit_core::{
    BinId, Consolidator, Error, Placement, PlacementOutcome, PlacementStage, Result, Tenant,
    TenantId,
};
use rand::{Rng, SeedableRng};

/// **Random Fit**: each replica is placed on a uniformly random feasible
/// server, probing up to a bounded number of candidates before opening a
/// fresh server.
///
/// Deliberately unsophisticated — it provides a floor that any reasonable
/// policy should beat, and doubles as a randomized robustness fuzzer (every
/// placement it produces still honours the `γ − 1`-failure reserve).
#[derive(Debug, Clone)]
pub struct RandomFit {
    placement: Placement,
    rng: rand_chacha::ChaCha8Rng,
    /// Random probes per replica before giving up and opening a server.
    probes: usize,
    fallbacks: usize,
}

impl RandomFit {
    /// Default number of random probes per replica.
    pub const DEFAULT_PROBES: usize = 32;

    /// Creates a Random Fit packer with the given RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidReplication`] if `gamma < 2`.
    pub fn new(gamma: usize, seed: u64) -> Result<Self> {
        if gamma < 2 {
            return Err(Error::InvalidReplication { gamma });
        }
        Ok(RandomFit {
            placement: Placement::new(gamma),
            rng: rand_chacha::ChaCha8Rng::seed_from_u64(seed),
            probes: Self::DEFAULT_PROBES,
            fallbacks: 0,
        })
    }

    /// Overrides the probe budget per replica.
    #[must_use]
    pub fn with_probes(mut self, probes: usize) -> Self {
        self.probes = probes.max(1);
        self
    }

    /// How many tenants fell back to all-fresh servers.
    #[must_use]
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }
}

impl Consolidator for RandomFit {
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        if self.placement.tenant_bins(tenant.id()).is_some() {
            return Err(Error::DuplicateTenant { tenant: tenant.id() });
        }
        let gamma = self.placement.gamma();
        let size = tenant.replica_size(gamma);
        let reserve = ReserveMode::GammaMinusOne;

        let mut chosen: Vec<BinId> = Vec::with_capacity(gamma);
        let mut opened = 0;
        for _ in 0..gamma {
            let existing = self.placement.created_bins();
            let mut picked = None;
            if existing > 0 {
                for _ in 0..self.probes {
                    let bin = BinId::new(self.rng.gen_range(0..existing));
                    if !chosen.contains(&bin)
                        && feasible(&self.placement, bin, size, &chosen, reserve, None)
                    {
                        picked = Some(bin);
                        break;
                    }
                }
            }
            match picked {
                Some(bin) => chosen.push(bin),
                None => {
                    chosen.push(self.placement.open_bin(None));
                    opened += 1;
                }
            }
        }
        if !assignment_feasible(&self.placement, &chosen, size, reserve, None) {
            self.fallbacks += 1;
            chosen = (0..gamma).map(|_| self.placement.open_bin(None)).collect();
            opened = gamma;
        }
        self.placement.place_tenant(&tenant, &chosen)?;
        Ok(PlacementOutcome {
            tenant: tenant.id(),
            bins: chosen,
            opened,
            stage: PlacementStage::Direct,
        })
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let (load, bins) = self.placement.remove_tenant(tenant)?;
        Ok(RemovalOutcome { tenant, load, bins })
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        let (old_load, bins) = self.placement.update_load(tenant, new_load)?;
        Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
    }

    /// Re-homes orphans onto randomly probed feasible survivors (same probe
    /// budget as placement), opening a fresh server when every probe misses.
    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        let RandomFit { placement, rng, probes, .. } = self;
        recovery::recover_replicas(
            placement,
            failed,
            |p, t, from, _| {
                let existing = p.created_bins();
                (0..*probes)
                    .map(|_| BinId::new(rng.gen_range(0..existing)))
                    .find(|&bin| !failed.contains(&bin) && recovery::move_feasible(p, t, from, bin))
            },
            |_, _, _, _, _| {},
        )
    }

    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        // No derived index to re-key; the placement substrate does it all.
        self.placement.move_replica(tenant, from, to)
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        Box::new(self.clone())
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn name(&self) -> &'static str {
        "randomfit"
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
    fn stays_robust_across_seeds() {
        for seed in 0..3 {
            let mut rf = RandomFit::new(2, seed).unwrap();
            let mut state = seed + 100;
            for id in 0..300 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let load = (((state >> 11) as f64 / (1u64 << 53) as f64) * 0.999).max(1e-6);
                rf.place(tenant(id, load)).unwrap();
            }
            assert!(rf.placement().is_robust(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut rf = RandomFit::new(2, seed).unwrap();
            for id in 0..100 {
                rf.place(tenant(id, 0.1 + (id % 7) as f64 * 0.1)).unwrap();
            }
            rf.placement().open_bins()
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn reuses_bins_for_small_tenants() {
        let mut rf = RandomFit::new(2, 7).unwrap();
        for id in 0..50 {
            rf.place(tenant(id, 0.02)).unwrap();
        }
        // 50 tiny tenants (total load 1.0) should not need 100 servers.
        assert!(rf.placement().open_bins() < 40);
    }

    #[test]
    fn probe_budget_is_configurable() {
        let rf = RandomFit::new(2, 0).unwrap().with_probes(0);
        assert_eq!(rf.probes, 1);
    }

    #[test]
    fn rejects_gamma_below_two() {
        assert!(RandomFit::new(1, 0).is_err());
    }

    #[test]
    fn churn_stays_robust_and_audited() {
        let mut rf = RandomFit::new(3, 11).unwrap();
        let mut state = 5u64;
        for id in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let load = (((state >> 11) as f64 / (1u64 << 53) as f64) * 0.999).max(1e-6);
            rf.place(tenant(id, load)).unwrap();
            if id % 4 == 3 {
                rf.remove(TenantId::new(id - 2)).unwrap();
            }
        }
        assert!(rf.placement().is_robust());
        assert!(cubefit_core::oracle::audit(rf.placement()).is_ok());
        let failed = vec![BinId::new(0), BinId::new(1)];
        rf.recover(&failed).unwrap();
        for &bin in &failed {
            assert_eq!(rf.placement().level(bin), 0.0);
        }
        assert!(rf.placement().is_robust());
        assert!(cubefit_core::oracle::audit(rf.placement()).is_ok());
    }

    #[test]
    fn clone_box_forks_rng_state() {
        let mut rf = RandomFit::new(2, 3).unwrap();
        for id in 0..20 {
            rf.place(tenant(id, 0.3)).unwrap();
        }
        let mut fork = rf.clone_box();
        // Identical continued streams: same RNG state ⇒ same decisions.
        for id in 20..40 {
            let a = rf.place(tenant(id, 0.25)).unwrap();
            let b = fork.place(tenant(id, 0.25)).unwrap();
            assert_eq!(a.bins, b.bins);
        }
    }
}
