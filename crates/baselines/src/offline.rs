//! Offline Best-Fit-Decreasing: a near-optimal comparator.
//!
//! Online algorithms are judged against the offline optimum, which is
//! NP-hard to compute. Best Fit Decreasing — sort tenants by load
//! descending, then run the failover-aware Best Fit — is the classic
//! offline heuristic; its server count upper-bounds OPT far more tightly
//! than the volume bound lower-bounds it, which makes the pair useful for
//! sandwiching empirical competitive ratios (see `cubefit-analysis`).

use crate::greedy::BestFit;
use cubefit_core::{Consolidator, Placement, Result, Tenant};

/// Packs `tenants` offline with Best Fit Decreasing under the full
/// `γ − 1`-failure reserve, returning the final placement.
///
/// # Errors
///
/// Propagates configuration and placement errors.
pub fn best_fit_decreasing(tenants: &[Tenant], gamma: usize) -> Result<Placement> {
    let mut sorted: Vec<Tenant> = tenants.to_vec();
    sorted.sort_by(|a, b| b.load().get().total_cmp(&a.load().get()));
    let mut packer = BestFit::new(gamma)?;
    for tenant in sorted {
        packer.place(tenant)?;
    }
    Ok(packer.placement().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::{Load, TenantId};

    fn tenants(loads: &[f64]) -> Vec<Tenant> {
        loads
            .iter()
            .enumerate()
            .map(|(i, &l)| Tenant::new(TenantId::new(i as u64), Load::new(l).unwrap()))
            .collect()
    }

    fn lcg_loads(seed: u64, n: usize, scale: f64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((state >> 11) as f64 / (1u64 << 53) as f64) * scale).max(1e-6)
            })
            .collect()
    }

    #[test]
    fn offline_result_is_robust() {
        let ts = tenants(&lcg_loads(1, 300, 0.999));
        let placement = best_fit_decreasing(&ts, 2).unwrap();
        assert!(placement.is_robust());
        assert_eq!(placement.tenant_count(), 300);
    }

    #[test]
    fn offline_beats_or_matches_online_best_fit() {
        // Sorting can only help Best Fit: BFD ≤ BF on servers used (not a
        // theorem for every instance, but holds on generic random input —
        // any regression here signals a packing bug).
        let ts = tenants(&lcg_loads(2, 400, 0.6));
        let offline = best_fit_decreasing(&ts, 2).unwrap().open_bins();
        let mut online = BestFit::new(2).unwrap();
        for t in &ts {
            online.place(*t).unwrap();
        }
        assert!(
            offline <= online.placement().open_bins(),
            "offline {} vs online {}",
            offline,
            online.placement().open_bins()
        );
    }

    #[test]
    fn offline_is_order_invariant() {
        let ts = tenants(&lcg_loads(3, 100, 0.9));
        let mut reversed = ts.clone();
        reversed.reverse();
        let a = best_fit_decreasing(&ts, 2).unwrap().open_bins();
        let b = best_fit_decreasing(&reversed, 2).unwrap().open_bins();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_uses_no_servers() {
        let placement = best_fit_decreasing(&[], 3).unwrap();
        assert_eq!(placement.open_bins(), 0);
    }
}
