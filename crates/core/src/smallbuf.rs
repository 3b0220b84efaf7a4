//! A tiny inline-first buffer for hot-path adjustment lists.
//!
//! Theorem 1's fit test ([`crate::validity::fits`]) builds a short list of
//! tentative adjustments inside every candidate scan. For the paper's
//! `γ ∈ {2, 3}` these lists hold a handful of entries, so a stack array
//! avoids allocation on the hot path — but `γ` is unbounded, and silently
//! dropping entries past a fixed capacity under-estimates the failover
//! reserve (the truncation bug this type exists to prevent). [`SmallBuf`]
//! keeps the first `N` entries inline and transparently spills the whole
//! list to a heap `Vec` when a push would overflow, so correctness never
//! depends on the inline capacity.

/// An append-only buffer holding up to `N` entries inline, spilling to the
/// heap beyond that.
///
/// ```
/// use cubefit_core::smallbuf::SmallBuf;
///
/// let mut buf: SmallBuf<usize, 2> = SmallBuf::new(0);
/// for i in 0..5 {
///     buf.push(i);
/// }
/// // All five entries survive the spill past the inline capacity.
/// assert_eq!(buf.as_slice(), &[0, 1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct SmallBuf<T, const N: usize> {
    /// Inline storage; only `inline[..len]` is meaningful while `spill`
    /// is empty.
    inline: [T; N],
    len: usize,
    /// Heap storage holding *all* entries once the inline capacity
    /// overflows (the inline prefix is copied over on first spill).
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> SmallBuf<T, N> {
    /// Creates an empty buffer; `fill` seeds the inline slots (its value is
    /// never observed — slots are overwritten before they enter
    /// [`Self::as_slice`]).
    #[must_use]
    pub fn new(fill: T) -> Self {
        SmallBuf { inline: [fill; N], len: 0, spill: Vec::new() }
    }

    /// Appends `value`, spilling every entry to the heap if the inline
    /// capacity is exhausted.
    pub fn push(&mut self, value: T) {
        if !self.spill.is_empty() {
            self.spill.push(value);
        } else if self.len < N {
            self.inline[self.len] = value;
            self.len += 1;
        } else {
            self.spill.reserve(N * 2);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(value);
        }
    }

    /// Number of entries pushed.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.len
        } else {
            self.spill.len()
        }
    }

    /// Whether no entries have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries, in push order.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// All entries, in push order, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_within_capacity() {
        let mut buf: SmallBuf<u32, 4> = SmallBuf::new(0);
        assert!(buf.is_empty());
        for i in 0..4 {
            buf.push(i);
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn spills_past_capacity_without_losing_entries() {
        let mut buf: SmallBuf<u32, 3> = SmallBuf::new(0);
        for i in 0..10 {
            buf.push(i);
        }
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
        assert!(!buf.is_empty());
    }

    #[test]
    fn mutable_slice_covers_both_modes() {
        let mut inline: SmallBuf<i32, 4> = SmallBuf::new(0);
        inline.push(3);
        inline.push(1);
        inline.as_mut_slice().sort_unstable();
        assert_eq!(inline.as_slice(), &[1, 3]);

        let mut spilled: SmallBuf<i32, 2> = SmallBuf::new(0);
        for v in [5, 2, 9, 1] {
            spilled.push(v);
        }
        spilled.as_mut_slice().sort_unstable();
        assert_eq!(spilled.as_slice(), &[1, 2, 5, 9]);
    }
}
