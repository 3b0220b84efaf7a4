//! The *m-fit* predicate and stage-1 (mature-bin) placement.
//!
//! A mature bin `B` **m-fits** a replica `r` if `B` has room for `r` and,
//! after placing `r`, the empty space of `B` is at least the total size of
//! replicas shared between `B` and any set of `γ − 1` bins (paper §III):
//! Theorem 1's fit test ([`validity::fits`]) at `B`'s level plus `r`.
//! Stage 1 of CubeFit places a tenant's replicas into mature bins by Best
//! Fit when *all* `γ` replicas m-fit; otherwise the tenant falls through
//! to stage 2. Best Fit here selects the *tightest* robustly fitting bin —
//! the bin whose remaining robust slack exceeds the replica by the least —
//! which coincides with the paper's highest-level rule among bins of equal
//! reserve and scales to data-center bin counts (see [`BinIndex`]).

use crate::bin::BinId;
use crate::bin_index::BinIndex;
use crate::class::ReplicaClass;
use crate::config::Stage1Eligibility;
use crate::placement::Placement;
use crate::validity;

/// Most mature-bin candidates a stage-1 Best-Fit scan inspects per
/// replica. The bound keeps placement `O(1)` amortized at data-center
/// scale; it only affects which of several *feasible* mature bins is
/// chosen, and only once the mature population exceeds it. CubeFit bounds
/// its recovery scans and perturbed-cube tuple draws by the same number.
pub(crate) const SCAN_LIMIT: usize = 512;

/// Whether `bin` m-fits a replica of size `size`, assuming the tenant's
/// other replicas are (tentatively) placed on `siblings` (which may list
/// `bin` itself), with pending-growth accounting.
///
/// Placing the tenant raises the shared load between `bin` and each
/// sibling by `size`. The active multi-replica (see
/// [`crate::multireplica`]) keeps growing on its `γ` host bins after they
/// mature, by up to `headroom` (its cap minus its current size). A guest
/// admitted now must still fit once that growth materializes, so a host in
/// `growth_hosts` enters Theorem 1's fit test ([`validity::fits`]) at its
/// level bumped by `headroom`, with its shared load to every other host
/// raised by `headroom` too.
#[must_use]
pub fn m_fits_with_growth(
    placement: &Placement,
    bin: BinId,
    size: f64,
    siblings: &[BinId],
    growth_hosts: &[BinId],
    headroom: f64,
) -> bool {
    let is_host = growth_hosts.contains(&bin);
    let level = placement.level(bin) + if is_host { headroom } else { 0.0 };
    let growth = if is_host { growth_hosts } else { &[] };
    let adjustments = siblings
        .iter()
        .map(|&sibling| (sibling, size))
        .chain(growth.iter().map(|&host| (host, headroom)));
    validity::fits(placement, bin, level + size, adjustments, placement.gamma() - 1)
}

/// What a stage-1 attempt did: the chosen bins (if any) and how much scan
/// work it cost, for decision tracing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stage1Scan {
    /// The chosen bins (one per replica, distinct, tightest-fit order) if
    /// every replica m-fit; `None` to fall through to stage 2.
    pub bins: Option<Vec<BinId>>,
    /// Mature candidate bins examined before the scan stopped.
    pub scanned: usize,
}

/// Attempts stage 1 for a tenant whose `γ` replicas each have size `size`
/// and class `class`.
///
/// Does not mutate the placement; the caller commits the assignment.
// Eight orthogonal knobs, all flowing straight from `CubeFit`'s state; a
// one-use parameter struct would only rename them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_stage1(
    placement: &Placement,
    mature: &BinIndex,
    eligibility: Stage1Eligibility,
    class: ReplicaClass,
    size: f64,
    gamma: usize,
    growth_hosts: &[BinId],
    headroom: f64,
) -> Stage1Scan {
    let mut scanned = 0usize;
    let mut chosen: Vec<BinId> = Vec::with_capacity(gamma);
    for _ in 0..gamma {
        let candidate = mature.iter_asc_at_least(size).take(SCAN_LIMIT).find(|&bin| {
            scanned += 1;
            if chosen.contains(&bin) {
                return false;
            }
            if !eligible(placement, bin, class, eligibility) {
                return false;
            }
            m_fits_with_growth(placement, bin, size, &chosen, growth_hosts, headroom)
        });
        match candidate {
            Some(bin) => chosen.push(bin),
            None => return Stage1Scan { bins: None, scanned },
        }
    }
    // Re-validate every chosen bin against the *complete* sibling set:
    // later choices increase the shared load of earlier ones, which the
    // per-replica scan could not yet see.
    let fits = validity::tuple_fits(&chosen, |bin, siblings| {
        m_fits_with_growth(placement, bin, size, siblings, growth_hosts, headroom)
    });
    Stage1Scan { bins: fits.then_some(chosen), scanned }
}

fn eligible(
    placement: &Placement,
    bin: BinId,
    class: ReplicaClass,
    eligibility: Stage1Eligibility,
) -> bool {
    match eligibility {
        Stage1Eligibility::AnyMatureBin => true,
        Stage1Eligibility::SmallerClassBins => {
            placement.bin(bin).class().is_some_and(|bin_class| bin_class < class)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Load;
    use crate::tenant::{Tenant, TenantId};

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    /// Theorem 1's fit test for a replica of `size` joining `bin` beside
    /// `siblings` at the `γ − 1` reserve: m-fit without growth hosts.
    fn fits_beside(p: &Placement, bin: BinId, size: f64, siblings: &[BinId]) -> bool {
        let adjustments = siblings.iter().map(|&sibling| (sibling, size));
        validity::fits(p, bin, p.level(bin) + size, adjustments, p.gamma() - 1)
    }

    /// Two mature class-1 bins each holding one 0.35 replica of the same
    /// tenant (γ=2), mirroring a post-stage-2 state.
    fn mature_pair() -> (Placement, BinIndex, Vec<BinId>) {
        let mut p = Placement::new(2);
        let b1 = p.open_bin(Some(ReplicaClass::new(1)));
        let b2 = p.open_bin(Some(ReplicaClass::new(1)));
        p.place_tenant(&tenant(0, 0.7), &[b1, b2]).unwrap();
        let mut mature = BinIndex::default();
        mature.insert(b1, validity::margin(p.level(b1), p.worst_failover(b1)));
        mature.insert(b2, validity::margin(p.level(b2), p.worst_failover(b2)));
        (p, mature, vec![b1, b2])
    }

    #[test]
    fn m_fit_respects_shared_reserve() {
        let (p, _, b) = mature_pair();
        // level 0.35, shared 0.35 with peer: slack for m-fit is 0.3.
        assert!(fits_beside(&p, b[0], 0.3, &[]));
        assert!(!fits_beside(&p, b[0], 0.31, &[]));
    }

    #[test]
    fn m_fit_accounts_for_tentative_siblings() {
        let (p, _, b) = mature_pair();
        // Placing both replicas of a 0.4 tenant (replicas 0.2) on b1, b2
        // raises their mutual share to 0.55; 0.35+0.2+0.55 > 1.
        assert!(fits_beside(&p, b[0], 0.2, &[]));
        assert!(!fits_beside(&p, b[1], 0.2, &[b[0]]));
        // A smaller tenant works: replicas 0.1, share 0.45, total 0.9.
        assert!(fits_beside(&p, b[1], 0.1, &[b[0]]));
    }

    #[test]
    fn m_fit_rejects_plain_overflow() {
        let (p, _, b) = mature_pair();
        assert!(!fits_beside(&p, b[0], 0.7, &[]));
    }

    #[test]
    fn stage1_places_pair_on_distinct_bins() {
        let (p, mature, b) = mature_pair();
        let chosen = try_stage1(
            &p,
            &mature,
            Stage1Eligibility::AnyMatureBin,
            ReplicaClass::new(5),
            0.1,
            2,
            &[],
            0.0,
        )
        .bins
        .expect("0.1 replicas m-fit");
        assert_eq!(chosen.len(), 2);
        assert_ne!(chosen[0], chosen[1]);
        assert!(b.contains(&chosen[0]) && b.contains(&chosen[1]));
    }

    #[test]
    fn stage1_full_sibling_revalidation_rejects() {
        let (p, mature, _) = mature_pair();
        // 0.2 replicas pass the sequential scan for the first bin but the
        // pair violates the mutual-share reserve (caught by either the
        // sibling-aware scan or the final re-validation).
        assert!(try_stage1(
            &p,
            &mature,
            Stage1Eligibility::AnyMatureBin,
            ReplicaClass::new(3),
            0.2,
            2,
            &[],
            0.0,
        )
        .bins
        .is_none());
    }

    #[test]
    fn stage1_respects_class_eligibility() {
        let (p, mature, _) = mature_pair();
        // Bins are class 1; a class-1 replica is not "smaller".
        assert!(try_stage1(
            &p,
            &mature,
            Stage1Eligibility::SmallerClassBins,
            ReplicaClass::new(1),
            0.1,
            2,
            &[],
            0.0,
        )
        .bins
        .is_none());
        assert!(try_stage1(
            &p,
            &mature,
            Stage1Eligibility::SmallerClassBins,
            ReplicaClass::new(2),
            0.1,
            2,
            &[],
            0.0,
        )
        .bins
        .is_some());
    }

    #[test]
    fn stage1_prefers_higher_level_bins() {
        // Fig. 2 scenario: four mature class-1 bins, two fuller than the
        // others; Best Fit picks the fuller pair.
        let mut p = Placement::new(2);
        let bins: Vec<BinId> = (0..4).map(|_| p.open_bin(Some(ReplicaClass::new(1)))).collect();
        p.place_tenant(&tenant(0, 0.70), &[bins[0], bins[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.72), &[bins[2], bins[3]]).unwrap();
        let mut mature = BinIndex::default();
        for &b in &bins {
            mature.insert(b, validity::margin(p.level(b), p.worst_failover(b)));
        }
        let chosen = try_stage1(
            &p,
            &mature,
            Stage1Eligibility::AnyMatureBin,
            ReplicaClass::new(8),
            0.05,
            2,
            &[],
            0.0,
        )
        .bins
        .unwrap();
        let mut sorted = chosen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![bins[2], bins[3]]);
    }

    #[test]
    fn growth_headroom_blocks_otherwise_fitting_guest() {
        let (p, _, b) = mature_pair();
        // Without growth a 0.25 replica fails anyway; a 0.2 replica passes
        // on b1 alone but must fail once b1 can still grow by 0.15 (raising
        // both its level and its share with b2).
        assert!(m_fits_with_growth(&p, b[0], 0.2, &[], &[], 0.0));
        assert!(!m_fits_with_growth(&p, b[0], 0.2, &[], &[b[0], b[1]], 0.15));
        // A bin that is not a growth host is unaffected.
        assert!(m_fits_with_growth(&p, b[0], 0.2, &[], &[b[1]], 0.15));
    }

    #[test]
    fn m_fit_keeps_all_siblings_at_large_gamma() {
        // Regression for the 8-entry adjustment truncation: at γ = 12 a
        // full sibling set has 11 entries. A tenant of load 0.4 occupies
        // all 12 bins (replica 1/30 each, every pair sharing 1/30); adding
        // a guest of replica size s to all of them makes every bin's true
        // worst case 12·(0.4/12 + s) = 0.4 + 12s. With s = 0.06 that is
        // 1.12 > 1, but counting only 8 of the 11 siblings gives
        // 0.4 + 9·0.06 = 0.94 ≤ 1 — a silent robustness violation.
        let gamma = 12;
        let mut p = Placement::new(gamma);
        let bins: Vec<BinId> = (0..gamma).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.4), &bins).unwrap();
        assert!(
            !fits_beside(&p, bins[0], 0.06, &bins[1..]),
            "truncated reserve admitted an overload"
        );
        // A guest that genuinely fits is still admitted: 0.4 + 12s ≤ 1
        // for s = 0.05.
        assert!(fits_beside(&p, bins[0], 0.05, &bins[1..]));
    }

    #[test]
    fn growth_adjustments_survive_large_sibling_sets() {
        // Siblings plus growth hosts past the inline capacity must all be
        // counted. γ = 10: 6 siblings + 9 growth-host adjustments = 15.
        let gamma = 10;
        let mut p = Placement::new(gamma);
        let bins: Vec<BinId> = (0..gamma).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.3), &bins).unwrap();
        // All bins are growth hosts with headroom h: the target's level and
        // its shares with the other 9 hosts rise by h; 6 siblings add s.
        // Worst case on bins[0] with s = 0.04, h = 0.03:
        //   level 0.03 + h + s
        //   + 6·(0.03 + s + h)  (sibling hosts)
        //   + 3·(0.03 + h)     (remaining hosts)
        // = 0.3 + 10h + 7s = 0.88 ≤ 1, so it fits — but only barely:
        // s = 0.06 gives 1.02 and must be rejected even though dropping
        // the adjustments past entry 8 would accept it.
        let siblings = &bins[1..7];
        assert!(m_fits_with_growth(&p, bins[0], 0.04, siblings, &bins, 0.03));
        assert!(!m_fits_with_growth(&p, bins[0], 0.06, siblings, &bins, 0.03));
    }

    #[test]
    fn stage1_fails_with_no_mature_bins() {
        let p = Placement::new(2);
        let mature = BinIndex::default();
        assert!(try_stage1(
            &p,
            &mature,
            Stage1Eligibility::AnyMatureBin,
            ReplicaClass::new(2),
            0.1,
            2,
            &[],
            0.0,
        )
        .bins
        .is_none());
    }
}
