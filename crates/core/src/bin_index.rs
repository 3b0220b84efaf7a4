//! Ordered index of bins by a per-bin key.

use crate::bin::BinId;
use std::collections::{BTreeSet, HashMap};

/// Bins ordered by a non-negative key, with bounded ascending and
/// descending scans in `O(log n)` per update.
///
/// One index serves every keyed scan in the workspace: CubeFit keys its
/// mature bins by *robust slack* `1 − level − worst_failover` (stage 1
/// scans slack-ascending from the replica size, so the tightest robust fit
/// comes first and saturated bins are never visited), RFI keys every bin
/// by its slack under the μ cap and single-failure reserve, and Best/Worst
/// Fit key by level.
///
/// Keys are clamped non-negative, so their IEEE-754 bit patterns order
/// identically to the values themselves. The index remembers each bin's
/// key, so callers re-key a bin with its new key alone.
///
/// ```
/// use cubefit_core::bin_index::BinIndex;
/// use cubefit_core::BinId;
///
/// let mut index = BinIndex::default();
/// index.insert(BinId::new(0), 0.3);
/// index.insert(BinId::new(1), 0.7);
/// assert_eq!(index.iter_desc_at_most(1.0).next(), Some(BinId::new(1)));
/// index.update(BinId::new(0), 0.9);
/// assert_eq!(index.iter_desc_at_most(1.0).next(), Some(BinId::new(0)));
/// assert_eq!(index.iter_asc_at_least(0.5).next(), Some(BinId::new(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BinIndex {
    /// `(key_bits, bin)`.
    by_key: BTreeSet<(u64, BinId)>,
    key_of: HashMap<BinId, f64>,
}

impl BinIndex {
    fn bits(key: f64) -> u64 {
        key.max(0.0).to_bits()
    }

    /// Tracks `bin` at `key`, replacing the key it had.
    pub fn insert(&mut self, bin: BinId, key: f64) {
        let clamped = key.max(0.0);
        if let Some(old) = self.key_of.insert(bin, clamped) {
            self.by_key.remove(&(Self::bits(old), bin));
        }
        self.by_key.insert((Self::bits(clamped), bin));
    }

    /// Re-keys `bin` if it is tracked; no-op for untracked bins.
    pub fn update(&mut self, bin: BinId, key: f64) {
        if self.contains(bin) {
            self.insert(bin, key);
        }
    }

    /// Whether `bin` is tracked.
    #[must_use]
    pub fn contains(&self, bin: BinId) -> bool {
        self.key_of.contains_key(&bin)
    }

    /// The (clamped) key `bin` is tracked at.
    #[must_use]
    pub fn key(&self, bin: BinId) -> Option<f64> {
        self.key_of.get(&bin).copied()
    }

    /// Number of tracked bins.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no bin is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Bins with key at least `min_key`, in ascending key order: the
    /// tightest fits first when keys are slacks.
    pub fn iter_asc_at_least(&self, min_key: f64) -> impl Iterator<Item = BinId> + '_ {
        self.by_key.range((Self::bits(min_key), BinId::new(0))..).map(|&(_, bin)| bin)
    }

    /// Bins with key at most `max_key`, in descending key order: the
    /// fullest bins a capacity check alone does not rule out, when keys
    /// are levels.
    pub fn iter_desc_at_most(&self, max_key: f64) -> impl Iterator<Item = BinId> + '_ {
        self.by_key
            .range(..=(Self::bits(max_key), BinId::new(usize::MAX)))
            .rev()
            .map(|&(_, bin)| bin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(entries: &[(usize, f64)]) -> BinIndex {
        let mut index = BinIndex::default();
        for &(bin, key) in entries {
            index.insert(BinId::new(bin), key);
        }
        index
    }

    fn ids(bins: impl Iterator<Item = BinId>) -> Vec<usize> {
        bins.map(BinId::index).collect()
    }

    #[test]
    fn orders_by_key_then_updates() {
        let mut idx = index(&[(0, 0.5), (1, 0.4), (2, 0.6)]);
        assert_eq!(ids(idx.iter_desc_at_most(1.0)), [2, 0, 1]);
        assert_eq!(ids(idx.iter_asc_at_least(0.0)), [1, 0, 2]);
        idx.update(BinId::new(1), 0.7);
        assert_eq!(idx.iter_desc_at_most(1.0).next(), Some(BinId::new(1)));
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn keys_are_remembered_and_replaced() {
        let mut idx = index(&[(3, 0.25)]);
        assert_eq!(idx.key(BinId::new(3)), Some(0.25));
        assert!(idx.contains(BinId::new(3)) && !idx.contains(BinId::new(4)));
        // Re-inserting a tracked bin moves it rather than duplicating it.
        idx.insert(BinId::new(3), 0.5);
        assert_eq!(idx.key(BinId::new(3)), Some(0.5));
        assert_eq!(ids(idx.iter_asc_at_least(0.0)), [3]);
        // Updating an untracked bin is a no-op.
        idx.update(BinId::new(9), 0.3);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty() && BinIndex::default().is_empty());
    }

    #[test]
    fn bounded_descending_scan() {
        let idx = index(&[(0, 0.2), (1, 0.5), (2, 0.8)]);
        assert_eq!(ids(idx.iter_desc_at_most(0.6)), [1, 0]);
        // Inclusive bound.
        assert_eq!(ids(idx.iter_desc_at_most(0.5)), [1, 0]);
        assert!(idx.iter_desc_at_most(0.1).next().is_none());
    }

    #[test]
    fn ascending_bounded_scan() {
        let idx = index(&[(0, 0.2), (1, 0.5), (2, 0.8)]);
        assert_eq!(ids(idx.iter_asc_at_least(0.4)), [1, 2]);
        assert_eq!(idx.iter_asc_at_least(0.0).count(), 3);
        assert!(idx.iter_asc_at_least(0.9).next().is_none());
    }

    #[test]
    fn equal_keys_are_both_kept() {
        let idx = index(&[(0, 0.5), (1, 0.5)]);
        assert_eq!(idx.len(), 2);
        assert_eq!(ids(idx.iter_desc_at_most(1.0)), [1, 0]);
    }

    #[test]
    fn orders_by_slack_and_updates() {
        let mut idx = index(&[(0, 0.5), (1, 0.4)]);
        // Tightest (smallest key ≥ request) first.
        assert_eq!(idx.iter_asc_at_least(0.1).next(), Some(BinId::new(1)));
        // Requests above a bin's key skip it.
        assert_eq!(idx.iter_asc_at_least(0.45).next(), Some(BinId::new(0)));
        assert!(idx.iter_asc_at_least(0.6).next().is_none());
        idx.update(BinId::new(1), 0.7);
        assert_eq!(idx.iter_asc_at_least(0.6).next(), Some(BinId::new(1)));
        // Negative keys clamp to zero and drop out of positive queries.
        idx.update(BinId::new(0), -0.2);
        assert_eq!(idx.key(BinId::new(0)), Some(0.0));
        assert!(idx.iter_asc_at_least(0.01).next() != Some(BinId::new(0)));
        assert_eq!(idx.len(), 2);
    }
}
