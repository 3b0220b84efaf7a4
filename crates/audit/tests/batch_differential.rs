//! Differential proptest suite for the batch mutation API.
//!
//! **Batch == sequential**, checked across all seven algorithms:
//! `place_batch` / `update_load_batch` / `remove_batch` must leave exactly
//! the state a hand-written per-op loop leaves (same [`PlacementDump`],
//! same robustness verdict).

use cubefit_audit::algorithms;
use cubefit_core::{Load, PlacementDump, Tenant, TenantId};
use proptest::prelude::*;

fn load_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![0.0001f64..=1.0, Just(1.0), Just(0.5), Just(1.0 / 3.0), 0.001f64..0.1,]
}

fn gamma_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2), Just(3), Just(12)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batch mutation API is state-equivalent to per-op loops for every
    /// algorithm.
    #[test]
    fn batch_apis_match_sequential_loops(
        loads in prop::collection::vec(load_strategy(), 4..24),
        updates in prop::collection::vec(load_strategy(), 1..8),
        gamma in gamma_strategy(),
        seed in any::<u64>(),
    ) {
        let tenants: Vec<Tenant> = loads
            .iter()
            .enumerate()
            .map(|(i, &l)| Tenant::new(TenantId::new(i as u64), Load::new(l).unwrap()))
            .collect();
        // Update the first `updates.len()` tenants, remove every third one.
        let update_ops: Vec<(TenantId, f64)> = updates
            .iter()
            .enumerate()
            .map(|(i, &l)| (TenantId::new((i % loads.len()) as u64), l))
            .collect();
        let removals: Vec<TenantId> = (0..loads.len())
            .step_by(3)
            .map(|i| TenantId::new(i as u64))
            .collect();

        for baseline in algorithms(gamma, seed) {
            let name = baseline.name();
            let mut sequential = baseline;
            for t in tenants.clone() {
                sequential.place(t).unwrap();
            }
            for &(tenant, load) in &update_ops {
                sequential.update_load(tenant, load).unwrap();
            }
            for &tenant in &removals {
                sequential.remove(tenant).unwrap();
            }

            let mut batched = algorithms(gamma, seed)
                .into_iter()
                .find(|a| a.name() == name)
                .expect("algorithm present in registry");
            let outcomes = batched.place_batch(tenants.clone()).unwrap();
            prop_assert_eq!(outcomes.len(), tenants.len());
            // Duplicate update targets deliberately stay in the stream:
            // a tenant re-estimated twice in one batch must end at its
            // last load, exactly as in the sequential loop.
            batched.update_load_batch(&update_ops).unwrap();
            batched.remove_batch(&removals).unwrap();

            prop_assert_eq!(
                PlacementDump::from_placement(batched.placement()),
                PlacementDump::from_placement(sequential.placement()),
                "{} at gamma {}: batch APIs diverged from sequential loops",
                name, gamma
            );
            prop_assert_eq!(
                batched.placement().is_robust(),
                sequential.placement().is_robust()
            );
        }
    }
}
