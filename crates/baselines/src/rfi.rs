//! The RFI baseline (Schaffner et al., RTP — SIGMOD'13), as described in
//! §V of the CubeFit paper.

use crate::common::ReserveMode;
use crate::engine::{Baseline, Rule};
use cubefit_core::bin_index::BinIndex;
use cubefit_core::{validity, BinId, Error, Placement, Result};

/// RFI's rule: servers keyed by *robust slack* `min(μ, 1 − maxShared) −
/// level`, the largest replica a server can accept under both the
/// interleaving cap and the single-failure reserve (before sibling
/// adjustments). Scanning slack-ascending from the replica size yields the
/// server with the least capacity left over after placement — the
/// Best-Fit criterion of §V read against the failover-aware headroom — in
/// a handful of probes instead of a scan over every reserve-saturated
/// server.
#[derive(Debug, Clone, Copy)]
pub struct Tightest {
    mu: f64,
}

impl Rule for Tightest {
    const NAME: &'static str = "rfi";

    fn key(&self, placement: &Placement, bin: BinId) -> Option<f64> {
        let level = placement.level(bin);
        let reserve = placement.top_shared_sum_with(bin, &[], 1);
        Some((self.mu - level).min(validity::margin(level, reserve)).max(0.0))
    }

    fn candidates<'a>(
        &'a mut self,
        index: &'a BinIndex,
        _: &'a Placement,
        size: f64,
    ) -> impl Iterator<Item = BinId> + 'a {
        index.iter_asc_at_least(size)
    }

    fn fill_cap(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// **RFI**: replica-level Best Fit with a *single-failure* failover reserve
/// and an interleaving cap `μ`.
///
/// For each replica, RFI "searches for the server that would have the least
/// load left over after a tenant is placed on it, including having enough
/// reserved capacity for additional load from any single failed server
/// (overload capacity) and a μ value that governs how much of the
/// server's total capacity to use for interleaving. If no such server is
/// found, a new server is provisioned" (§V). Subsequent replicas repeat the
/// search over the remaining servers. The paper recommends `μ = 0.85`.
///
/// Because the reserve only covers one failed server, RFI placements
/// generally violate the SLA under two simultaneous failures — the
/// behaviour Fig. 5 of the paper demonstrates against CubeFit with `γ = 3`.
///
/// ```
/// use cubefit_baselines::Rfi;
/// use cubefit_core::{Consolidator, Load, Tenant};
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let mut rfi = Rfi::new(2, 0.85)?;
/// for load in [0.6, 0.3, 0.6] {
///     rfi.place(Tenant::with_load(Load::new(load)?))?;
/// }
/// // With γ = 2 the single-failure reserve equals full robustness.
/// assert!(rfi.placement().is_robust());
/// # Ok(())
/// # }
/// ```
pub type Rfi = Baseline<Tightest>;

impl Rfi {
    /// Creates an RFI packer with replication factor `gamma` and
    /// interleaving parameter `mu` (the paper uses `γ = 2`, `μ = 0.85`).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidReplication`] if `gamma < 2`;
    /// * [`Error::InvalidMu`] if `mu` is not in `(0, 1]`.
    pub fn new(gamma: usize, mu: f64) -> Result<Self> {
        let rfi = Baseline::with_rule(gamma, ReserveMode::SingleFailure, Tightest { mu })?;
        if !(mu.is_finite() && mu > 0.0 && mu <= 1.0) {
            return Err(Error::InvalidMu { mu });
        }
        Ok(rfi)
    }

    /// The interleaving parameter `μ`.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.rule.mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::validity::{self, FailoverSemantics};
    use cubefit_core::{Consolidator, Load, Tenant, TenantId};

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
    fn rejects_bad_parameters() {
        assert!(matches!(Rfi::new(1, 0.85), Err(Error::InvalidReplication { .. })));
        assert!(matches!(Rfi::new(2, 0.0), Err(Error::InvalidMu { .. })));
        assert!(matches!(Rfi::new(2, 1.2), Err(Error::InvalidMu { .. })));
        assert_eq!(Rfi::new(2, 0.85).unwrap().mu(), 0.85);
    }

    #[test]
    fn gamma2_is_single_failure_robust() {
        let mut rfi = Rfi::new(2, 0.85).unwrap();
        for (id, load) in lcg_loads(5, 400).into_iter().enumerate() {
            rfi.place(tenant(id as u64, load)).unwrap();
        }
        // γ = 2 ⇒ single-failure reserve = γ−1 reserve: fully robust.
        assert!(rfi.placement().is_robust());
    }

    #[test]
    fn mu_caps_levels() {
        let mut rfi = Rfi::new(2, 0.7).unwrap();
        for (id, load) in lcg_loads(6, 300).into_iter().enumerate() {
            rfi.place(tenant(id as u64, load)).unwrap();
        }
        for bin in rfi.placement().bins() {
            // Multi-replica bins can exceed μ only via the fresh-server
            // path, whose first replica is at most 0.5 < 0.7.
            assert!(bin.level() <= 0.7 + 1e-9, "{} at level {}", bin.id(), bin.level());
        }
    }

    #[test]
    fn two_failures_can_overload_rfi_but_not_gamma3_reserve() {
        // Dense small tenants force heavy sharing; failing the worst pair
        // of servers overloads some RFI survivor under conservative
        // semantics (the effect behind Fig. 5's two-failure bars).
        let mut rfi = Rfi::new(2, 0.85).unwrap();
        for (id, load) in lcg_loads(7, 500).into_iter().enumerate() {
            // Loads in [0.2, 0.7): enough sharing per server pair.
            rfi.place(tenant(id as u64, 0.2 + load * 0.5)).unwrap();
        }
        let worst =
            validity::worst_failure_set(rfi.placement(), 2, FailoverSemantics::Conservative);
        let impact =
            validity::simulate_failures(rfi.placement(), &worst, FailoverSemantics::Conservative);
        assert!(
            impact.has_overload(),
            "expected 2-failure overload, max load {}",
            impact.max_load()
        );
    }

    #[test]
    fn uses_more_servers_than_load_requires() {
        // RFI reserves capacity, so it must use strictly more servers than
        // the load lower bound.
        let mut rfi = Rfi::new(2, 0.85).unwrap();
        let loads = lcg_loads(8, 200);
        let total: f64 = loads.iter().sum();
        for (id, load) in loads.into_iter().enumerate() {
            rfi.place(tenant(id as u64, load)).unwrap();
        }
        assert!(rfi.placement().open_bins() as f64 > total);
    }

    #[test]
    fn duplicate_rejected() {
        let mut rfi = Rfi::new(2, 0.85).unwrap();
        rfi.place(tenant(0, 0.4)).unwrap();
        assert!(matches!(rfi.place(tenant(0, 0.4)), Err(Error::DuplicateTenant { .. })));
    }

    #[test]
    fn fallback_abandons_fresh_bins_without_counting_them() {
        use cubefit_telemetry::{Recorder, TraceEvent, VecSink};
        use std::sync::Arc;

        // Hand-built fallback trigger (γ = 2, μ = 0.85):
        // t0, t1 (load 1.0) fill two saturated pairs; t2 (0.6) opens the
        // pair (4, 5) at level 0.3 sharing 0.3. t3 (0.72, replica 0.36):
        // replica 1 fits bin 4 (0.3+0.36+0.3 = 0.96) but replica 2 finds
        // no partner (bin 5 would reach 0.3+0.36+0.66 = 1.32), so the
        // per-replica loop opens fresh bin 6 — and the whole-assignment
        // check then rejects [4, 6] (0.3+0.36+0.36 = 1.02 > 1), forcing
        // the all-fresh fallback onto bins 7 and 8. Bin 6 is abandoned.
        let sink = Arc::new(VecSink::new());
        let mut rfi = Rfi::new(2, 0.85).unwrap();
        rfi.set_recorder(Recorder::with_sink(Arc::clone(&sink)));
        for (id, load) in [1.0, 1.0, 0.6].into_iter().enumerate() {
            rfi.place(tenant(id as u64, load)).unwrap();
        }
        let outcome = rfi.place(tenant(3, 0.72)).unwrap();

        assert_eq!(rfi.fallbacks(), 1);
        // The outcome reports only the fallback pair; the abandoned bin 6
        // is excluded from both the bin list and the opened count.
        assert_eq!(outcome.bins, vec![BinId::new(7), BinId::new(8)]);
        assert_eq!(outcome.opened, 2);
        let p = rfi.placement();
        assert_eq!(p.created_bins(), 9);
        assert_eq!(p.open_bins(), 8);
        assert!(p.bin(BinId::new(6)).is_empty(), "abandoned bin must stay empty");
        // The abandoned bin stays in the index at full fresh slack, so
        // later tenants can still use it.
        assert_eq!(rfi.index.key(BinId::new(6)), Some(0.85));
        // PR-1 invariant: the trace's BinOpened count equals the final
        // open-server count — abandoned bins never emit BinOpened.
        let events = sink.events();
        let opened = events.iter().filter(|e| matches!(e, TraceEvent::BinOpened { .. })).count();
        assert_eq!(opened, p.open_bins());
        // And a later tenant whose replica (0.45) exceeds every used bin's
        // slack reuses the abandoned bin instead of opening two more.
        let outcome = rfi.place(tenant(4, 0.9)).unwrap();
        assert!(outcome.bins.contains(&BinId::new(6)), "bins {:?}", outcome.bins);
        assert_eq!(outcome.opened, 1);
    }

    #[test]
    fn removal_rekeys_slack_index() {
        let mut rfi = Rfi::new(2, 0.85).unwrap();
        for (id, load) in lcg_loads(12, 150).into_iter().enumerate() {
            rfi.place(tenant(id as u64, load)).unwrap();
        }
        for id in (0..150).step_by(3) {
            rfi.remove(TenantId::new(id)).unwrap();
        }
        // Every slack key in the index must match a fresh recomputation.
        for bin in rfi.placement().bins() {
            assert_eq!(
                rfi.index.key(bin.id()),
                rfi.rule.key(rfi.placement(), bin.id()),
                "stale slack key for {}",
                bin.id()
            );
        }
        assert!(cubefit_core::oracle::audit(rfi.placement()).is_ok());
        assert!(rfi.placement().is_robust());
        // Freed capacity is actually reusable.
        let before = rfi.placement().created_bins();
        rfi.place(tenant(1000, 0.2)).unwrap();
        assert_eq!(rfi.placement().created_bins(), before);
    }

    #[test]
    fn gamma2_recovery_restores_robustness() {
        let mut rfi = Rfi::new(2, 0.85).unwrap();
        for (id, load) in lcg_loads(13, 200).into_iter().enumerate() {
            rfi.place(tenant(id as u64, load)).unwrap();
        }
        let mut bins: Vec<(f64, BinId)> =
            rfi.placement().bins().map(|b| (b.level(), b.id())).collect();
        bins.sort_by(|a, b| b.0.total_cmp(&a.0));
        let failed = vec![bins[0].1];
        let report = rfi.recover(&failed).unwrap();
        assert!(report.replicas_migrated > 0);
        assert_eq!(rfi.placement().level(failed[0]), 0.0);
        assert!(rfi.placement().is_robust());
        assert!(cubefit_core::oracle::audit(rfi.placement()).is_ok());
        for bin in rfi.placement().bins() {
            assert_eq!(rfi.index.key(bin.id()), rfi.rule.key(rfi.placement(), bin.id()));
        }
    }

    #[test]
    fn replicas_land_on_distinct_servers() {
        let mut rfi = Rfi::new(3, 0.85).unwrap();
        let outcome = rfi.place(tenant(0, 0.9)).unwrap();
        assert_eq!(outcome.bins.len(), 3);
        let mut bins = outcome.bins.clone();
        bins.dedup();
        assert_eq!(bins.len(), 3);
    }
}
