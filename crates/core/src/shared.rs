//! Incremental shared-load bookkeeping.
//!
//! For robustness checks, every algorithm needs the quantity
//! `|Sᵢ ∩ Sⱼ|` — the total load, on bin `Sᵢ`, of replicas whose tenant also
//! has a replica on bin `Sⱼ` (paper §II). Because replica loads within a
//! tenant are equal, the matrix is symmetric. `SharedIndex` answers "sum
//! of the `γ−1` largest shared loads" — the failover reserve a bin must
//! keep — in `O(1)` via a per-bin top-`k` cache. Placements grow an entry
//! in `O(k)` (`SharedIndex::add`); tenant departures and replica
//! migrations shrink entries (`SharedIndex::sub`), which rebuilds the two
//! affected caches from their full matrix rows — churn is rare relative to
//! the reserve queries issued on every placement scan, so the asymmetric
//! cost lands on the right side.

use crate::bin::BinId;
use crate::smallbuf::SmallBuf;
use std::collections::HashMap;

/// Per-bin cache of the `k` largest shared-load entries.
#[derive(Debug, Clone, Default)]
struct TopK {
    /// `(load, peer)` pairs sorted descending by load; length ≤ k.
    entries: Vec<(f64, BinId)>,
}

impl TopK {
    /// Records that the shared load with `peer` is now `value`
    /// (monotonically non-decreasing updates only).
    ///
    /// Maintains the descending-order invariant with at most one bubble
    /// pass: updates only grow an entry, so the touched entry can only move
    /// toward the front, and the minimum is always the last entry.
    fn update(&mut self, k: usize, peer: BinId, value: f64) {
        debug_assert!(k >= 1, "γ ≥ 2 implies a non-empty top cache");
        let pos = if let Some(i) = self.entries.iter().position(|(_, p)| *p == peer) {
            self.entries[i].0 = value;
            i
        } else if self.entries.len() < k {
            self.entries.push((value, peer));
            self.entries.len() - 1
        } else {
            // Entries only grow, so every non-cached entry is ≤ the cached
            // minimum (the last entry); replacing it preserves the top-k
            // invariant.
            let last = self.entries.len() - 1;
            if value <= self.entries[last].0 {
                return;
            }
            self.entries[last] = (value, peer);
            last
        };
        let mut i = pos;
        while i > 0 && self.entries[i - 1].0 < self.entries[i].0 {
            self.entries.swap(i - 1, i);
            i -= 1;
        }
        debug_assert!(
            self.entries.windows(2).all(|w| w[0].0 >= w[1].0),
            "top cache must stay sorted descending"
        );
    }

    /// Rebuilds the cache from a bin's full matrix row after a decrement.
    ///
    /// A shrinking entry can fall out of the top `k` and let a previously
    /// uncached peer in, which the bubble maintenance of [`TopK::update`]
    /// cannot discover; a full re-sort of the row is the only sound answer.
    fn rebuild<'a>(&mut self, k: usize, row: impl Iterator<Item = (&'a BinId, &'a f64)>) {
        self.entries.clear();
        self.entries.extend(row.map(|(p, v)| (*v, *p)));
        self.entries.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        self.entries.truncate(k);
    }

    fn sum(&self) -> f64 {
        self.entries.iter().map(|(v, _)| v).sum()
    }
}

/// What a replica move is about to overwrite in a [`SharedIndex`]: the
/// entries it touches (`None` where an entry is absent) and the top
/// caches of the bins it touches.
#[derive(Debug)]
pub(crate) struct SharedUndo {
    entries: Vec<(BinId, BinId, Option<f64>)>,
    tops: Vec<(BinId, TopK)>,
}

/// Symmetric shared-load matrix with `O(1)` worst-failover queries.
#[derive(Debug, Clone, Default)]
pub(crate) struct SharedIndex {
    /// `γ − 1`: how many simultaneous peer failures a bin must absorb.
    k: usize,
    /// `map[i][j] = |Sᵢ ∩ Sⱼ|` (stored for both orders).
    map: Vec<HashMap<BinId, f64>>,
    tops: Vec<TopK>,
}

impl SharedIndex {
    pub(crate) fn new(gamma: usize) -> Self {
        SharedIndex { k: gamma - 1, map: Vec::new(), tops: Vec::new() }
    }

    /// Registers a newly opened bin.
    pub(crate) fn push_bin(&mut self) {
        self.map.push(HashMap::new());
        self.tops.push(TopK::default());
    }

    /// Number of bins tracked.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Adds `delta` to the shared load between `a` and `b` (both orders).
    pub(crate) fn add(&mut self, a: BinId, b: BinId, delta: f64) {
        debug_assert_ne!(a, b, "a bin does not share load with itself");
        for (x, y) in [(a, b), (b, a)] {
            let entry = self.map[x.0].entry(y).or_insert(0.0);
            *entry += delta;
            let value = *entry;
            self.tops[x.0].update(self.k, y, value);
        }
    }

    /// Subtracts `delta` from the shared load between `a` and `b` (both
    /// orders), rebuilding the two affected top caches.
    ///
    /// Entries that reach zero (within float drift) are dropped from the
    /// matrix so churned-out peers do not accumulate as dead weight.
    pub(crate) fn sub(&mut self, a: BinId, b: BinId, delta: f64) {
        debug_assert_ne!(a, b, "a bin does not share load with itself");
        for (x, y) in [(a, b), (b, a)] {
            let entry = self.map[x.0].entry(y).or_insert(0.0);
            *entry -= delta;
            debug_assert!(
                *entry > -1e-9,
                "shared load {x}↔{y} went negative ({}): decrement exceeds recorded share",
                *entry
            );
            if *entry <= 1e-12 {
                self.map[x.0].remove(&y);
            }
            let (row, tops) = (&self.map[x.0], &mut self.tops[x.0]);
            tops.rebuild(self.k, row.iter());
        }
    }

    /// Shared load `|a ∩ b|`.
    pub(crate) fn get(&self, a: BinId, b: BinId) -> f64 {
        self.map[a.0].get(&b).copied().unwrap_or(0.0)
    }

    /// Sum of the `γ − 1` largest shared loads of `bin`: the worst-case
    /// extra load redirected to `bin` by any `γ − 1` simultaneous failures.
    pub(crate) fn worst_failover(&self, bin: BinId) -> f64 {
        self.tops[bin.0].sum()
    }

    /// Sum of the `k` largest shared loads of `bin` (`k ≤ γ − 1`), as if the
    /// shared loads with each peer in `adjustments` had already been
    /// increased by the given deltas.
    ///
    /// `k = γ − 1` is the robustness reserve; `k = 1` is the single-failure
    /// reserve used by the RFI baseline.
    pub(crate) fn top_shared_sum_with(
        &self,
        bin: BinId,
        adjustments: &[(BinId, f64)],
        k: usize,
    ) -> f64 {
        debug_assert!(k <= self.k, "top cache only holds γ−1 entries");
        let top = &self.tops[bin.0].entries;
        // Fast path: no adjustments — the cache already holds the answer.
        if adjustments.is_empty() {
            return top.iter().take(k).map(|(v, _)| v).sum();
        }
        // Candidate set: cached top entries plus every adjusted peer; any
        // other peer is ≤ the cached minimum and unadjusted, so it cannot
        // enter the adjusted top-k. The buffer holds *every* candidate —
        // up to γ−1 cached entries plus one per adjustment — staying on the
        // stack for the paper's small γ and spilling to the heap when γ
        // outgrows the inline capacity (γ is unbounded; see DESIGN.md §9).
        let mut candidates: SmallBuf<(f64, BinId), 16> = SmallBuf::new((0.0, BinId(usize::MAX)));
        for &(v, p) in top {
            let adj: f64 = adjustments.iter().filter(|(b, _)| *b == p).map(|(_, d)| d).sum();
            candidates.push((v + adj, p));
        }
        for (i, &(p, _)) in adjustments.iter().enumerate() {
            // Aggregate every delta targeting the same peer (a sibling
            // adjustment and a growth-headroom adjustment can name the
            // same bin) and emit one candidate per peer.
            if p == bin
                || top.iter().any(|(_, q)| *q == p)
                || adjustments[..i].iter().any(|(q, _)| *q == p)
            {
                continue;
            }
            let total: f64 = adjustments.iter().filter(|(q, _)| *q == p).map(|(_, d)| d).sum();
            candidates.push((self.get(bin, p) + total, p));
        }
        let slice = candidates.as_mut_slice();
        slice.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        slice.iter().take(k).map(|(v, _)| v).sum()
    }

    /// Saves what moving a replica from `from` to `to` changes: the shares
    /// between either endpoint and each of `siblings`, in both rows, and
    /// the top caches of all of those bins.
    pub(crate) fn save_move(&self, from: BinId, to: BinId, siblings: &[BinId]) -> SharedUndo {
        let mut entries = Vec::with_capacity(4 * siblings.len());
        for &s in siblings {
            for (x, y) in [(from, s), (s, from), (to, s), (s, to)] {
                entries.push((x, y, self.map[x.0].get(&y).copied()));
            }
        }
        let tops =
            [from, to].iter().chain(siblings).map(|&b| (b, self.tops[b.0].clone())).collect();
        SharedUndo { entries, tops }
    }

    /// Puts back what [`SharedIndex::save_move`] saved.
    pub(crate) fn restore(&mut self, undo: SharedUndo) {
        for (x, y, value) in undo.entries {
            match value {
                Some(v) => self.map[x.0].insert(y, v),
                None => self.map[x.0].remove(&y),
            };
        }
        for (bin, top) in undo.tops {
            self.tops[bin.0] = top;
        }
    }

    /// The top cache of `bin`, as `(load, peer)` pairs.
    #[cfg(test)]
    pub(crate) fn top_entries(&self, bin: BinId) -> &[(f64, BinId)] {
        &self.tops[bin.0].entries
    }

    /// Iterates over `(peer, shared_load)` entries of `bin`.
    pub(crate) fn peers(&self, bin: BinId) -> impl Iterator<Item = (BinId, f64)> + '_ {
        self.map[bin.0].iter().map(|(b, v)| (*b, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid(i: usize) -> BinId {
        BinId::new(i)
    }

    fn index_with_bins(gamma: usize, bins: usize) -> SharedIndex {
        let mut idx = SharedIndex::new(gamma);
        for _ in 0..bins {
            idx.push_bin();
        }
        idx
    }

    #[test]
    fn add_is_symmetric() {
        let mut idx = index_with_bins(2, 3);
        idx.add(bid(0), bid(1), 0.3);
        assert_eq!(idx.get(bid(0), bid(1)), 0.3);
        assert_eq!(idx.get(bid(1), bid(0)), 0.3);
        assert_eq!(idx.get(bid(0), bid(2)), 0.0);
    }

    #[test]
    fn worst_failover_gamma2_takes_max() {
        let mut idx = index_with_bins(2, 4);
        idx.add(bid(0), bid(1), 0.2);
        idx.add(bid(0), bid(2), 0.5);
        idx.add(bid(0), bid(3), 0.1);
        assert!((idx.worst_failover(bid(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn worst_failover_gamma3_takes_top_two() {
        let mut idx = index_with_bins(3, 4);
        idx.add(bid(0), bid(1), 0.2);
        idx.add(bid(0), bid(2), 0.5);
        idx.add(bid(0), bid(3), 0.3);
        assert!((idx.worst_failover(bid(0)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn increments_accumulate_in_top_cache() {
        let mut idx = index_with_bins(2, 3);
        idx.add(bid(0), bid(1), 0.1);
        idx.add(bid(0), bid(2), 0.15);
        // Bump bin 1 past bin 2 through repeated increments.
        idx.add(bid(0), bid(1), 0.1);
        assert!((idx.worst_failover(bid(0)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sub_is_symmetric_and_drops_spent_entries() {
        let mut idx = index_with_bins(2, 3);
        idx.add(bid(0), bid(1), 0.3);
        idx.sub(bid(0), bid(1), 0.1);
        assert!((idx.get(bid(0), bid(1)) - 0.2).abs() < 1e-12);
        assert!((idx.get(bid(1), bid(0)) - 0.2).abs() < 1e-12);
        idx.sub(bid(1), bid(0), 0.2);
        assert_eq!(idx.get(bid(0), bid(1)), 0.0);
        assert_eq!(idx.worst_failover(bid(0)), 0.0);
        assert_eq!(idx.peers(bid(0)).count(), 0, "spent entries must leave the matrix");
    }

    #[test]
    fn sub_promotes_previously_uncached_peer() {
        // γ = 2 caches a single entry; shrinking it below an uncached peer
        // must surface that peer — impossible without the row rebuild.
        let mut idx = index_with_bins(2, 4);
        idx.add(bid(0), bid(1), 0.5);
        idx.add(bid(0), bid(2), 0.4);
        idx.add(bid(0), bid(3), 0.3);
        assert!((idx.worst_failover(bid(0)) - 0.5).abs() < 1e-12);
        idx.sub(bid(0), bid(1), 0.5);
        assert!((idx.worst_failover(bid(0)) - 0.4).abs() < 1e-12);
        idx.sub(bid(0), bid(2), 0.2);
        assert!((idx.worst_failover(bid(0)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn interleaved_add_sub_matches_exhaustive_scan() {
        // Randomized churn cross-check: adds and bounded subs against a
        // dense truth matrix, for both a small and a large top cache.
        for (gamma, bins) in [(3usize, 8usize), (14, 16)] {
            let k = gamma - 1;
            let mut idx = index_with_bins(gamma, bins);
            let mut truth = vec![vec![0.0f64; bins]; bins];
            let mut seed = 0x1234_5678_9abc_def0u64 ^ (gamma as u64);
            let mut next = || {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                seed
            };
            for _ in 0..900 {
                let a = (next() % bins as u64) as usize;
                let mut b = (next() % bins as u64) as usize;
                if a == b {
                    b = (b + 1) % bins;
                }
                if next() % 3 == 0 && truth[a][b] > 0.0 {
                    // Subtract an exact recorded fraction (half or all of
                    // the current share) so entries can hit zero.
                    let d = if next() % 2 == 0 { truth[a][b] } else { truth[a][b] / 2.0 };
                    idx.sub(bid(a), bid(b), d);
                    truth[a][b] -= d;
                    truth[b][a] = truth[a][b];
                } else {
                    let d = ((next() % 100) as f64 + 1.0) / 1000.0;
                    idx.add(bid(a), bid(b), d);
                    truth[a][b] += d;
                    truth[b][a] = truth[a][b];
                }
            }
            for (i, truth_row) in truth.iter().enumerate() {
                let mut row: Vec<f64> = truth_row.clone();
                row.sort_by(|x, y| y.total_cmp(x));
                let expected: f64 = row.iter().take(k).sum();
                assert!(
                    (idx.worst_failover(bid(i)) - expected).abs() < 1e-9,
                    "γ={gamma} bin {i}: cache {} vs truth {expected}",
                    idx.worst_failover(bid(i))
                );
            }
        }
    }

    #[test]
    fn top_cache_matches_exhaustive_scan() {
        // Randomized cross-check of the increase-only top-k maintenance.
        let mut idx = index_with_bins(3, 8);
        let mut truth = vec![vec![0.0f64; 8]; 8];
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed
        };
        for _ in 0..500 {
            let a = (next() % 8) as usize;
            let mut b = (next() % 8) as usize;
            if a == b {
                b = (b + 1) % 8;
            }
            let d = ((next() % 100) as f64 + 1.0) / 1000.0;
            idx.add(bid(a), bid(b), d);
            truth[a][b] += d;
            truth[b][a] += d;
        }
        for (i, truth_row) in truth.iter().enumerate() {
            let mut row: Vec<f64> = truth_row.clone();
            row.sort_by(|x, y| y.total_cmp(x));
            let expected: f64 = row.iter().take(2).sum();
            assert!(
                (idx.worst_failover(bid(i)) - expected).abs() < 1e-9,
                "bin {i}: cache {} vs truth {expected}",
                idx.worst_failover(bid(i))
            );
        }
    }

    #[test]
    fn top_cache_matches_exhaustive_scan_large_gamma() {
        // Same cross-check at γ = 14 (k = 13): exercises the single-swap
        // bubble maintenance and the spill path of the candidate buffer.
        const BINS: usize = 16;
        let mut idx = index_with_bins(14, BINS);
        let mut truth = vec![vec![0.0f64; BINS]; BINS];
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed
        };
        for _ in 0..800 {
            let a = (next() % BINS as u64) as usize;
            let mut b = (next() % BINS as u64) as usize;
            if a == b {
                b = (b + 1) % BINS;
            }
            let d = ((next() % 100) as f64 + 1.0) / 1000.0;
            idx.add(bid(a), bid(b), d);
            truth[a][b] += d;
            truth[b][a] += d;
        }
        for (i, truth_row) in truth.iter().enumerate() {
            let mut row: Vec<f64> = truth_row.clone();
            row.sort_by(|x, y| y.total_cmp(x));
            let expected: f64 = row.iter().take(13).sum();
            assert!(
                (idx.worst_failover(bid(i)) - expected).abs() < 1e-9,
                "bin {i}: cache {} vs truth {expected}",
                idx.worst_failover(bid(i))
            );
            // Tentative queries agree with a from-scratch adjusted scan.
            let adj = [(bid((i + 1) % BINS), 0.017), (bid((i + 2) % BINS), 0.031)];
            let mut adjusted = truth[i].clone();
            for &(p, d) in &adj {
                adjusted[p.0] += d;
            }
            adjusted.sort_by(|x, y| y.total_cmp(x));
            let expected: f64 = adjusted.iter().take(13).sum();
            let got = idx.top_shared_sum_with(bid(i), &adj, idx.k);
            assert!((got - expected).abs() < 1e-9, "bin {i}: adjusted {got} vs {expected}");
        }
    }

    #[test]
    fn candidate_set_grows_past_twelve_entries() {
        // Regression for the fixed 12-slot candidate buffer: with γ = 14
        // the top cache holds k = 13 entries, so even a single adjustment
        // overflowed the old buffer and dropped the smallest candidates,
        // under-estimating the reserve.
        let mut idx = index_with_bins(14, 15);
        for p in 1..=13usize {
            idx.add(bid(0), bid(p), p as f64 / 100.0);
        }
        // Adjust the smallest cached peer upward by 0.001.
        let got = idx.top_shared_sum_with(bid(0), &[(bid(1), 0.001)], idx.k);
        let expected: f64 = (1..=13).map(|p| p as f64 / 100.0).sum::<f64>() + 0.001;
        assert!((got - expected).abs() < 1e-9, "got {got}, expected {expected}");
        // A new 14th peer below every cached entry must still be ranked
        // (it loses to the cached ones, not to buffer truncation).
        let got = idx.top_shared_sum_with(bid(0), &[(bid(14), 0.005)], idx.k);
        let expected: f64 = (1..=13).map(|p| p as f64 / 100.0).sum::<f64>();
        assert!((got - expected).abs() < 1e-9, "got {got}, expected {expected}");
    }

    #[test]
    fn tentative_adjustments_do_not_mutate() {
        let mut idx = index_with_bins(2, 3);
        idx.add(bid(0), bid(1), 0.2);
        let with = idx.top_shared_sum_with(bid(0), &[(bid(2), 0.3)], idx.k);
        assert!((with - 0.3).abs() < 1e-12);
        assert!((idx.worst_failover(bid(0)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tentative_adjustment_on_existing_peer() {
        let mut idx = index_with_bins(2, 3);
        idx.add(bid(0), bid(1), 0.2);
        idx.add(bid(0), bid(2), 0.25);
        let with = idx.top_shared_sum_with(bid(0), &[(bid(1), 0.1)], idx.k);
        assert!((with - 0.3).abs() < 1e-12);
    }

    #[test]
    fn duplicate_adjustments_for_one_peer_are_summed() {
        // A sibling adjustment and a growth-headroom adjustment can target
        // the same peer; the failover estimate must add them, not take the
        // larger of the two.
        let mut idx = index_with_bins(2, 3);
        idx.add(bid(0), bid(2), 0.05);
        let f = idx.top_shared_sum_with(bid(0), &[(bid(1), 0.04), (bid(1), 0.03)], idx.k);
        assert!((f - 0.07).abs() < 1e-12, "got {f}");
        // With an existing entry for the peer, the base is included too.
        idx.add(bid(0), bid(1), 0.1);
        let f = idx.top_shared_sum_with(bid(0), &[(bid(1), 0.04), (bid(1), 0.03)], idx.k);
        assert!((f - 0.17).abs() < 1e-12, "got {f}");
    }
}
