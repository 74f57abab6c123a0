//! Outstanding-response tracking for one protocol round.

use adca_hexgrid::CellId;

/// The region members a round still waits on, as a bitmask over *region
/// slots* (indices into the node's sorted `IN_i`; see
/// [`NeighborView::slot`](crate::NeighborView::slot)). Interference
/// regions are small — 18 members at the paper's radius 2 — so one word
/// replaces a per-round `BTreeSet<CellId>`. Iteration is in slot order,
/// which is ascending cell-id order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegionMask(u64);

impl RegionMask {
    /// The largest region a mask can track.
    pub const WIDTH: usize = 64;

    /// Panics unless a region of `n` members fits the mask. Nodes call
    /// this once at construction, so the per-round [`full`](Self::full)
    /// needs no check of its own in release builds.
    pub fn assert_fits(cell: CellId, n: usize) {
        assert!(
            n <= Self::WIDTH,
            "interference region of {cell} has {n} members; RegionMask holds {}",
            Self::WIDTH
        );
    }

    /// All `n` region members outstanding.
    #[inline]
    pub fn full(n: usize) -> Self {
        debug_assert!(n <= Self::WIDTH, "interference region exceeds mask width");
        RegionMask(if n >= 64 { u64::MAX } else { (1u64 << n) - 1 })
    }

    /// The raw bits (bit `s` = slot `s` outstanding).
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Marks slot `slot` outstanding.
    #[inline]
    pub fn insert(&mut self, slot: usize) {
        debug_assert!(slot < Self::WIDTH);
        self.0 |= 1u64 << slot;
    }

    /// Clears slot `slot`; returns whether it was still outstanding.
    #[inline]
    pub fn remove(&mut self, slot: usize) -> bool {
        debug_assert!(slot < Self::WIDTH);
        let bit = 1u64 << slot;
        let had = self.0 & bit != 0;
        self.0 &= !bit;
        had
    }

    /// Whether every member has responded.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Outstanding member count.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The outstanding slots, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        set_bits(self.0)
    }
}

/// The positions of the set bits of `word`, ascending.
pub(crate) fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_remove_and_iterate_in_slot_order() {
        let mut m = RegionMask::full(5);
        assert_eq!(m.len(), 5);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(m.remove(3));
        assert!(!m.remove(3), "second removal is a no-op");
        assert!(!m.remove(7), "never-outstanding slot");
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        for s in [0, 1, 2, 4] {
            assert!(!m.is_empty());
            assert!(m.remove(s));
        }
        assert!(m.is_empty());
        assert_eq!(m.iter().next(), None);
    }

    #[test]
    fn empty_region() {
        let m = RegionMask::full(0);
        assert!(m.is_empty());
        assert_eq!(m, RegionMask::default());
        assert_eq!(m.len(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn full_width_region() {
        let mut m = RegionMask::full(64);
        assert_eq!(m.bits(), u64::MAX);
        assert_eq!(m.len(), 64);
        assert_eq!(m.iter().collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
        assert!(m.remove(63) && m.remove(0));
        assert_eq!(m.iter().next(), Some(1));
        assert_eq!(m.iter().last(), Some(62));
    }

    #[test]
    fn insert_builds_subsets() {
        let mut m = RegionMask::default();
        m.insert(9);
        m.insert(2);
        m.insert(9);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 9]);
    }

    #[test]
    fn fits_up_to_the_width() {
        RegionMask::assert_fits(CellId(0), 64);
    }

    #[test]
    #[should_panic(expected = "RegionMask holds 64")]
    fn oversized_region_is_refused() {
        RegionMask::assert_fits(CellId(3), 65);
    }
}
