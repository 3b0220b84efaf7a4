//! Random Fit: a randomized sanity-check baseline.

use crate::common::ReserveMode;
use crate::engine::{Baseline, Rule};
use cubefit_core::bin_index::BinIndex;
use cubefit_core::{BinId, Placement, Result};
use rand::{Rng, SeedableRng};

/// Random Fit's rule: [`RandomFit::PROBES`] uniformly random servers.
#[derive(Debug, Clone)]
pub struct Probes {
    rng: rand_chacha::ChaCha8Rng,
}

impl Rule for Probes {
    const NAME: &'static str = "randomfit";
    const CHECKS_CHOSEN: bool = false;

    fn candidates<'a>(
        &'a mut self,
        _: &'a BinIndex,
        placement: &'a Placement,
        _: f64,
    ) -> impl Iterator<Item = BinId> + 'a {
        let existing = placement.created_bins();
        let probes = if existing == 0 { 0 } else { RandomFit::PROBES };
        (0..probes).map(move |_| BinId::new(self.rng.gen_range(0..existing)))
    }
}

/// **Random Fit**: each replica is placed on a uniformly random feasible
/// server, probing up to [`RandomFit::PROBES`] candidates before opening a
/// fresh server; recovery probes the same way.
///
/// Deliberately unsophisticated — it provides a floor that any reasonable
/// policy should beat, and doubles as a randomized robustness fuzzer (every
/// placement it produces still honours the `γ − 1`-failure reserve).
pub type RandomFit = Baseline<Probes>;

impl RandomFit {
    /// Random probes per replica.
    pub const PROBES: usize = 32;

    /// Creates a Random Fit packer with the given RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`cubefit_core::Error::InvalidReplication`] if `gamma < 2`.
    pub fn new(gamma: usize, seed: u64) -> Result<Self> {
        let rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        Baseline::with_rule(gamma, ReserveMode::GammaMinusOne, Probes { rng })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::{Consolidator, Load, Tenant, TenantId};

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
