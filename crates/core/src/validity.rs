//! Robustness checking and failure simulation (paper §II, Theorem 1).
//!
//! A placement is *robust* when, for every bin `Sᵢ` and every set `S*` of at
//! most `γ − 1` other bins, `|Sᵢ| + Σ_{Sⱼ∈S*} |Sᵢ ∩ Sⱼ| ≤ 1`. Because shared
//! loads are non-negative, the worst `S*` for a bin is simply its `γ − 1`
//! largest shared-load peers, so the condition can be checked per bin in
//! `O(1)` given the shared-load index.
//!
//! CubeFit, the baselines, recovery, the monitor and mitigation all decide
//! robustness with this module's three primitives: the fit test [`fits`],
//! the tuple test [`tuple_fits`], and the margin [`margin`] with its
//! violation test [`is_violation`].
//!
//! It also simulates *concrete* failure events, with two redistribution
//! semantics:
//!
//! * [`FailoverSemantics::Conservative`] — a failed replica's full load
//!   lands on every surviving sibling (the bound used by the robustness
//!   condition);
//! * [`FailoverSemantics::EvenSplit`] — a failed replica's load is divided
//!   evenly among surviving siblings (what a real load balancer does; used
//!   by the cluster experiments of §V.B).

use crate::bin::BinId;
use crate::placement::Placement;
use crate::smallbuf::SmallBuf;
use crate::tenant::TenantId;
use crate::EPSILON;
use std::collections::{HashMap, HashSet};

/// Theorem 1's fit test for one bin: whether `bin`, at the prospective
/// `level` and with its shared loads raised by `adjustments`, keeps
/// `level + (sum of its k largest shared loads) ≤ 1 + ε`.
///
/// `k = γ − 1` is the paper's robustness reserve and `k = 1` RFI's
/// single-failure reserve. Callers pass the level the bin would reach, for
/// example its current level plus an incoming replica. Adjustments that
/// name the same peer add up, and one that names `bin` itself is ignored
/// (a bin shares no load with itself), so a whole tentative server set can
/// stand for a bin's siblings. Adjustments are collected only once `level`
/// alone fits, so a bin that is already too full costs no reserve query;
/// their buffer spills to the heap past its inline capacity, because
/// dropping an entry at large `γ` would shrink the reserve (DESIGN.md §9).
///
/// ```
/// use cubefit_core::{validity, Load, Placement, Tenant, TenantId};
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let mut p = Placement::new(2);
/// let (s1, s2) = (p.open_bin(None), p.open_bin(None));
/// p.place_tenant(&Tenant::new(TenantId::new(0), Load::new(0.7)?), &[s1, s2])?;
/// // s1 is at level 0.35 sharing 0.35 with s2: a 0.3 replica still fits
/// // (0.35+0.3+0.35 ≤ 1) but a 0.31 replica does not.
/// assert!(validity::fits(&p, s1, p.level(s1) + 0.3, [], 1));
/// assert!(!validity::fits(&p, s1, p.level(s1) + 0.31, [], 1));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn fits(
    placement: &Placement,
    bin: BinId,
    level: f64,
    adjustments: impl IntoIterator<Item = (BinId, f64)>,
    k: usize,
) -> bool {
    if level > 1.0 + EPSILON {
        return false;
    }
    let mut buffer: SmallBuf<(BinId, f64), 8> = SmallBuf::new((BinId::new(0), 0.0));
    for (peer, delta) in adjustments {
        if peer != bin {
            buffer.push((peer, delta));
        }
    }
    level + placement.top_shared_sum_with(bin, buffer.as_slice(), k) <= 1.0 + EPSILON
}

/// Theorem 1's tuple test: whether every bin of the tentative set `bins`
/// passes `fits_beside(bin, bins)`, the per-bin test with the whole set as
/// the bin's siblings ([`fits`] ignores the bin itself among them).
///
/// Placing a tenant raises the shared load between every pair of its
/// bins, so a set is only admissible if each bin fits beside all the
/// others. Bins are tested in order and the first failure ends the test.
pub fn tuple_fits(bins: &[BinId], mut fits_beside: impl FnMut(BinId, &[BinId]) -> bool) -> bool {
    bins.iter().all(|&bin| fits_beside(bin, bins))
}

/// Theorem 1's margin of a bin at `level` with failover `reserve`:
/// `1 − level − reserve`, the load it can still take before some failure
/// set overloads it. [`is_violation`] says when a margin breaks Theorem 1.
#[must_use]
pub fn margin(level: f64, reserve: f64) -> f64 {
    1.0 - level - reserve
}

/// Whether a [`margin`] breaks Theorem 1 by more than the capacity
/// tolerance [`EPSILON`].
#[must_use]
pub fn is_violation(margin: f64) -> bool {
    margin < -EPSILON
}

/// How a failed replica's load is redirected to surviving replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FailoverSemantics {
    /// Full replica load lands on each survivor (worst-case bound of §II).
    #[default]
    Conservative,
    /// Load splits evenly among survivors (realistic client redistribution).
    EvenSplit,
}

/// One robustness violation: a bin that can be overloaded by some set of at
/// most `γ − 1` failures.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The bin that would overload.
    pub bin: BinId,
    /// Its current level.
    pub level: f64,
    /// Worst-case failover load onto it.
    pub failover: f64,
}

impl Violation {
    /// Total load the bin would carry in the worst case.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.level + self.failover
    }
}

/// Result of checking the robustness condition over a whole placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Bins violating the condition (empty for robust placements).
    pub violations: Vec<Violation>,
    /// Number of non-empty bins checked.
    pub checked_bins: usize,
    /// Smallest margin `1 − level − worst_failover` over all bins; negative
    /// iff the placement is not robust.
    pub worst_margin: f64,
}

impl RobustnessReport {
    /// Whether the placement satisfies the robustness condition everywhere.
    #[must_use]
    pub fn is_robust(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks the robustness condition for every non-empty bin of `placement`.
#[must_use]
pub fn check(placement: &Placement) -> RobustnessReport {
    let mut violations = Vec::new();
    let mut checked = 0;
    let mut worst_margin = f64::INFINITY;
    for bin in placement.bins() {
        if bin.is_empty() {
            continue;
        }
        checked += 1;
        let level = bin.level();
        let failover = placement.worst_failover(bin.id());
        let margin = margin(level, failover);
        worst_margin = worst_margin.min(margin);
        if is_violation(margin) {
            violations.push(Violation { bin: bin.id(), level, failover });
        }
    }
    if checked == 0 {
        worst_margin = 1.0;
    }
    RobustnessReport { violations, checked_bins: checked, worst_margin }
}

/// Outcome of a concrete failure event.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureImpact {
    /// Post-failure load of every surviving bin (non-empty bins only),
    /// including redirected load.
    pub loads: Vec<(BinId, f64)>,
    /// The surviving bin carrying the highest load, if any survive.
    pub hottest: Option<(BinId, f64)>,
    /// Surviving bins whose post-failure load exceeds unit capacity — each
    /// is an SLA violation.
    pub overloaded: Vec<BinId>,
    /// Tenants whose replicas were all lost.
    pub unavailable_tenants: Vec<TenantId>,
}

impl FailureImpact {
    /// Whether any surviving server exceeds capacity.
    #[must_use]
    pub fn has_overload(&self) -> bool {
        !self.overloaded.is_empty()
    }

    /// The maximum post-failure load (0 if nothing survives).
    #[must_use]
    pub fn max_load(&self) -> f64 {
        self.hottest.map_or(0.0, |(_, l)| l)
    }
}

/// Simulates the simultaneous failure of `failed` bins.
///
/// Duplicated and empty entries in `failed` are tolerated; failed bins do
/// not appear in the result.
#[must_use]
pub fn simulate_failures(
    placement: &Placement,
    failed: &[BinId],
    semantics: FailoverSemantics,
) -> FailureImpact {
    let failed_set: HashSet<BinId> = failed.iter().copied().collect();
    let gamma = placement.gamma();

    // Extra load per surviving bin.
    let mut extra: HashMap<BinId, f64> = HashMap::new();
    let mut unavailable = Vec::new();
    let mut seen: HashSet<TenantId> = HashSet::new();

    for &fb in &failed_set {
        for &(tenant, replica_load) in placement.bin(fb).contents() {
            if !seen.insert(tenant) {
                continue;
            }
            let bins =
                placement.tenant_bins(tenant).expect("bin contents reference placed tenants");
            let failed_replicas = bins.iter().filter(|b| failed_set.contains(b)).count();
            let survivors: Vec<BinId> =
                bins.iter().copied().filter(|b| !failed_set.contains(b)).collect();
            if survivors.is_empty() {
                unavailable.push(tenant);
                continue;
            }
            debug_assert_eq!(bins.len(), gamma);
            let redirected = replica_load * failed_replicas as f64;
            let per_survivor = match semantics {
                FailoverSemantics::Conservative => redirected,
                FailoverSemantics::EvenSplit => redirected / survivors.len() as f64,
            };
            for s in survivors {
                *extra.entry(s).or_insert(0.0) += per_survivor;
            }
        }
    }

    let mut loads = Vec::new();
    let mut hottest: Option<(BinId, f64)> = None;
    let mut overloaded = Vec::new();
    for bin in placement.bins() {
        if bin.is_empty() || failed_set.contains(&bin.id()) {
            continue;
        }
        let load = bin.level() + extra.get(&bin.id()).copied().unwrap_or(0.0);
        if hottest.is_none_or(|(_, l)| load > l) {
            hottest = Some((bin.id(), load));
        }
        if load > 1.0 + EPSILON {
            overloaded.push(bin.id());
        }
        loads.push((bin.id(), load));
    }
    unavailable.sort_unstable();
    FailureImpact { loads, hottest, overloaded, unavailable_tenants: unavailable }
}

/// Finds the set of `count` servers whose simultaneous failure pushes the
/// highest load onto a single surviving server — the paper's "worst overload
/// case" used in the Fig. 5 experiments.
///
/// Uses exhaustive search while the number of candidate combinations stays
/// below an internal budget, and a greedy one-at-a-time selection beyond
/// that.
#[must_use]
pub fn worst_failure_set(
    placement: &Placement,
    count: usize,
    semantics: FailoverSemantics,
) -> Vec<BinId> {
    let candidates: Vec<BinId> =
        placement.bins().filter(|b| !b.is_empty()).map(|b| b.id()).collect();
    if count == 0 || candidates.len() <= 1 {
        // With at most one non-empty bin there is no failure set that
        // leaves a survivor to overload: failing the only bin would leave
        // nothing to measure, so the worst set is empty.
        return Vec::new();
    }
    let count = count.min(candidates.len() - 1);

    const BUDGET: u128 = 100_000;
    if combinations(candidates.len(), count) <= BUDGET {
        let mut best: Option<(f64, Vec<BinId>)> = None;
        let mut chosen = Vec::with_capacity(count);
        exhaustive(placement, semantics, &candidates, count, 0, &mut chosen, &mut best);
        best.map(|(_, set)| set).unwrap_or_default()
    } else {
        greedy(placement, semantics, &candidates, count)
    }
}

fn combinations(n: usize, k: usize) -> u128 {
    let mut result: u128 = 1;
    for i in 0..k.min(n) {
        result = result.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if result > u128::MAX / 2 {
            return u128::MAX;
        }
    }
    result
}

fn exhaustive(
    placement: &Placement,
    semantics: FailoverSemantics,
    candidates: &[BinId],
    count: usize,
    from: usize,
    chosen: &mut Vec<BinId>,
    best: &mut Option<(f64, Vec<BinId>)>,
) {
    if chosen.len() == count {
        let impact = simulate_failures(placement, chosen, semantics);
        let score = impact.max_load();
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            *best = Some((score, chosen.clone()));
        }
        return;
    }
    let remaining = count - chosen.len();
    for i in from..=candidates.len().saturating_sub(remaining) {
        chosen.push(candidates[i]);
        exhaustive(placement, semantics, candidates, count, i + 1, chosen, best);
        chosen.pop();
    }
}

fn greedy(
    placement: &Placement,
    semantics: FailoverSemantics,
    candidates: &[BinId],
    count: usize,
) -> Vec<BinId> {
    let mut chosen: Vec<BinId> = Vec::with_capacity(count);
    for _ in 0..count {
        let mut best: Option<(f64, BinId)> = None;
        for &cand in candidates {
            if chosen.contains(&cand) {
                continue;
            }
            chosen.push(cand);
            let score = simulate_failures(placement, &chosen, semantics).max_load();
            chosen.pop();
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, cand));
            }
        }
        match best {
            Some((_, bin)) => chosen.push(bin),
            None => break,
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Load;
    use crate::tenant::Tenant;

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    /// Builds the γ=2 packing of paper Fig. 1(a):
    /// σ = ⟨a=0.6, b=0.3, c=0.6, d=0.78, e=0.12, f=0.36⟩, with the
    /// caption's failover structure (a→S2, b and e→S3, f→S5 when S1 fails).
    fn figure_1a() -> (Placement, Vec<BinId>) {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..5).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1]]).unwrap(); // a: S1, S2
        p.place_tenant(&tenant(1, 0.3), &[b[0], b[2]]).unwrap(); // b: S1, S3
        p.place_tenant(&tenant(2, 0.6), &[b[1], b[2]]).unwrap(); // c: S2, S3
        p.place_tenant(&tenant(3, 0.78), &[b[3], b[4]]).unwrap(); // d: S4, S5
        p.place_tenant(&tenant(4, 0.12), &[b[0], b[2]]).unwrap(); // e: S1, S3
        p.place_tenant(&tenant(5, 0.36), &[b[0], b[4]]).unwrap(); // f: S1, S5
        (p, b)
    }

    #[test]
    fn figure_1a_is_robust() {
        let (p, _) = figure_1a();
        let report = check(&p);
        assert!(report.is_robust(), "violations: {:?}", report.violations);
        assert_eq!(report.checked_bins, 5);
        assert!(report.worst_margin >= -EPSILON);
    }

    #[test]
    fn figure_1a_single_failure_loads_match_caption() {
        let (p, b) = figure_1a();
        // "if S1 fails, the load of replica a redirects to S2; this gives a
        // total load of 0.6 + 0.3 ≤ 1 for S2" — S2's own level is
        // a/2 + c/2 = 0.6, plus a's failed replica 0.3.
        let impact = simulate_failures(&p, &[b[0]], FailoverSemantics::EvenSplit);
        let s2 = impact.loads.iter().find(|(id, _)| *id == b[1]).unwrap().1;
        assert!((s2 - 0.9).abs() < 1e-12);
        // "loads of b and e redirect to S3": S3 = 0.15+0.3+0.06 = 0.51 own,
        // plus 0.15 + 0.06 redirected.
        let s3 = impact.loads.iter().find(|(id, _)| *id == b[2]).unwrap().1;
        assert!((s3 - 0.72).abs() < 1e-12);
        assert!(!impact.has_overload());
        assert!(impact.unavailable_tenants.is_empty());
    }

    #[test]
    fn overload_detected_when_reserve_missing() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..3).map(|_| p.open_bin(None)).collect();
        // Two large tenants share a pair of bins: each bin at level 0.9,
        // sharing 0.9 with its peer — failure overloads the survivor.
        p.place_tenant(&tenant(0, 0.9), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.9), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(2, 0.2), &[b[1], b[2]]).unwrap();
        let report = check(&p);
        assert!(!report.is_robust());
        assert!(report.worst_margin < 0.0);
        let impact = simulate_failures(&p, &[b[0]], FailoverSemantics::EvenSplit);
        assert!(impact.has_overload());
        assert!(impact.overloaded.contains(&b[1]));
    }

    #[test]
    fn conservative_vs_even_split_gamma3() {
        let mut p = Placement::new(3);
        let b: Vec<BinId> = (0..4).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1], b[2]]).unwrap();
        // One failure: replica load 0.2 splits across 2 survivors (0.1
        // each) under EvenSplit, lands whole under Conservative.
        let even = simulate_failures(&p, &[b[0]], FailoverSemantics::EvenSplit);
        let cons = simulate_failures(&p, &[b[0]], FailoverSemantics::Conservative);
        let even_b1 = even.loads.iter().find(|(id, _)| *id == b[1]).unwrap().1;
        let cons_b1 = cons.loads.iter().find(|(id, _)| *id == b[1]).unwrap().1;
        assert!((even_b1 - 0.3).abs() < 1e-12);
        assert!((cons_b1 - 0.4).abs() < 1e-12);
        // Bin 3 never hosted anything: excluded from loads.
        assert!(!even.loads.iter().any(|(id, _)| *id == b[3]));
    }

    #[test]
    fn two_failures_concentrate_on_last_survivor() {
        let mut p = Placement::new(3);
        let b: Vec<BinId> = (0..3).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1], b[2]]).unwrap();
        let impact = simulate_failures(&p, &[b[0], b[1]], FailoverSemantics::EvenSplit);
        // Both failed replicas (0.2 each) land on the sole survivor.
        let s3 = impact.loads.iter().find(|(id, _)| *id == b[2]).unwrap().1;
        assert!((s3 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn all_replicas_failed_marks_tenant_unavailable() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..3).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(7, 0.4), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(8, 0.4), &[b[1], b[2]]).unwrap();
        let impact = simulate_failures(&p, &[b[0], b[1]], FailoverSemantics::EvenSplit);
        assert_eq!(impact.unavailable_tenants, vec![TenantId::new(7)]);
    }

    #[test]
    fn worst_failure_set_finds_the_hot_pair() {
        let (p, b) = figure_1a();
        let worst = worst_failure_set(&p, 1, FailoverSemantics::EvenSplit);
        assert_eq!(worst.len(), 1);
        // Verify the returned server is actually the argmax.
        let best_score = simulate_failures(&p, &worst, FailoverSemantics::EvenSplit).max_load();
        for &cand in &b {
            let score = simulate_failures(&p, &[cand], FailoverSemantics::EvenSplit).max_load();
            assert!(score <= best_score + EPSILON);
        }
    }

    #[test]
    fn worst_failure_set_empty_inputs() {
        let p = Placement::new(2);
        assert!(worst_failure_set(&p, 2, FailoverSemantics::Conservative).is_empty());
        let (p, _) = figure_1a();
        assert!(worst_failure_set(&p, 0, FailoverSemantics::Conservative).is_empty());
    }

    #[test]
    fn worst_failure_set_always_leaves_a_survivor() {
        // The clamp's intent is "at least one survivor". A one-candidate
        // state is unreachable via `place_tenant` (every tenant fills
        // γ ≥ 2 bins) but guarded against regardless: it returns the
        // empty set instead of failing the only bin. With two candidates,
        // any requested count must fail exactly one bin.
        let mut p = Placement::new(2);
        let a = p.open_bin(None);
        let b = p.open_bin(None);
        p.place_tenant(&tenant(0, 0.5), &[a, b]).unwrap();
        for count in 1..=5 {
            let set = worst_failure_set(&p, count, FailoverSemantics::Conservative);
            assert_eq!(set.len(), 1, "count {count} must leave a survivor");
        }
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instance() {
        let (p, _) = figure_1a();
        let candidates: Vec<BinId> = p.bins().filter(|b| !b.is_empty()).map(|b| b.id()).collect();
        let greedy_set = greedy(&p, FailoverSemantics::EvenSplit, &candidates, 1);
        let exhaustive_set = worst_failure_set(&p, 1, FailoverSemantics::EvenSplit);
        let g = simulate_failures(&p, &greedy_set, FailoverSemantics::EvenSplit).max_load();
        let e = simulate_failures(&p, &exhaustive_set, FailoverSemantics::EvenSplit).max_load();
        assert!((g - e).abs() < 1e-12);
    }

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(5, 2), 10);
        assert_eq!(combinations(69, 2), 2346);
        assert_eq!(combinations(3, 0), 1);
    }

    #[test]
    fn empty_placement_report() {
        let p = Placement::new(2);
        let report = check(&p);
        assert!(report.is_robust());
        assert_eq!(report.checked_bins, 0);
        assert_eq!(report.worst_margin, 1.0);
    }
}
