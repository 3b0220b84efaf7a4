//! Bounded exhaustive soundness of Theorem 1's fit and tuple tests.
//!
//! The bound: γ ∈ {2, 3}, four bins opened up front and empty, and every
//! sequence of at most four tenants whose loads come from
//! {0.2, 0.4, 0.6, 0.8, 1.0}, each offered on every γ-subset of the bins.
//! An offer is accepted when the tuple test over the fit test accepts it,
//! at `k = γ − 1` (Theorem 1) and, as a separate run, at `k = 1` (RFI's
//! single-failure reserve); only accepted offers are applied and extended.
//!
//! After every accepted offer the from-scratch [`Oracle`] must find every
//! bin within `level + top-k ≤ 1 + ε`, and the margin primitive must equal
//! the oracle's margin within [`AUDIT_TOLERANCE`]. A rejected offer,
//! applied to a copy instead, must make some bin exceed that bound: the
//! tests are exact at the prospective state, not merely conservative.

use cubefit_core::oracle::{Oracle, AUDIT_TOLERANCE};
use cubefit_core::{validity, BinId, Load, Placement, Tenant, TenantId, EPSILON};

const BINS: usize = 4;
const MAX_TENANTS: usize = 4;
const LOADS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Every `gamma`-subset of the bins, in lexicographic order.
fn subsets(gamma: usize) -> Vec<Vec<BinId>> {
    let mut out = Vec::new();
    for mask in 0u32..(1 << BINS) {
        if mask.count_ones() as usize == gamma {
            out.push((0..BINS).filter(|i| mask & (1 << i) != 0).map(BinId::new).collect());
        }
    }
    out
}

/// Whether the tuple test over the fit test, at depth `k`, admits a tenant
/// of `load` on `bins`.
fn accepts(p: &Placement, bins: &[BinId], load: f64, k: usize) -> bool {
    let size = load / p.gamma() as f64;
    validity::tuple_fits(bins, |bin, siblings| {
        let adjustments = siblings.iter().map(|&sibling| (sibling, size));
        validity::fits(p, bin, p.level(bin) + size, adjustments, k)
    })
}

/// Whether every bin keeps `level + top-k ≤ 1 + ε` by the oracle's numbers,
/// after checking that the margin primitive matches the oracle's margin.
fn oracle_within_bound(p: &Placement, k: usize) -> bool {
    let oracle = Oracle::rebuild(p);
    (0..BINS).map(BinId::new).all(|bin| {
        let reference = oracle.top_shared_sum(bin, k);
        let margin = validity::margin(p.level(bin), p.top_shared_sum_with(bin, &[], k));
        let expected = 1.0 - oracle.level(bin) - reference;
        assert!(
            (margin - expected).abs() <= AUDIT_TOLERANCE,
            "{bin}: margin {margin} vs oracle {expected}"
        );
        oracle.level(bin) + reference <= 1.0 + EPSILON
    })
}

/// Extends `p` by one more tenant in every way, recursing on the accepted
/// offers; returns how many offers were accepted in the subtree.
fn explore(p: &Placement, depth: usize, k: usize, tuples: &[Vec<BinId>]) -> usize {
    if depth == MAX_TENANTS {
        return 0;
    }
    let mut accepted = 0;
    for &load in &LOADS {
        for bins in tuples {
            let tenant = Tenant::new(TenantId::new(depth as u64), Load::new(load).unwrap());
            let admitted = accepts(p, bins, load, k);
            let mut next = p.clone();
            next.place_tenant(&tenant, bins).unwrap();
            assert_eq!(
                oracle_within_bound(&next, k),
                admitted,
                "k = {k}: offer of {load} on {bins:?} after {:?}",
                p.tenants().map(|(_, l, b)| (l, b.to_vec())).collect::<Vec<_>>()
            );
            if admitted {
                accepted += 1 + explore(&next, depth + 1, k, tuples);
            }
        }
    }
    accepted
}

#[test]
fn tuple_test_over_fit_test_is_exactly_theorem1_on_small_instances() {
    for gamma in [2, 3] {
        let tuples = subsets(gamma);
        let mut depths = vec![gamma - 1, 1];
        depths.dedup();
        for k in depths {
            let mut p = Placement::new(gamma);
            for _ in 0..BINS {
                p.open_bin(None);
            }
            let accepted = explore(&p, 0, k, &tuples);
            assert!(accepted > LOADS.len() * tuples.len(), "γ = {gamma}, k = {k}: {accepted}");
        }
    }
}
