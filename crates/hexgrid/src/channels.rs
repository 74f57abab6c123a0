//! Channel identifiers and compact channel sets.
//!
//! The wireless spectrum is divided into `n` channels numbered `0..n`
//! (the paper numbers them `1..=n`; we use zero-based ids). Every protocol
//! manipulates sets of channels (`Use_i`, `I_i`, `PR_i`, …) on its hot path,
//! so [`ChannelSet`] is a dense bitset with word-at-a-time set algebra.

use std::fmt;

/// A wireless channel identifier, `0 <= id < Spectrum::len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Channel(pub u16);

impl Channel {
    /// The channel id as an index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// The full set of channels in the system: `Spectrum = {0, 1, …, n-1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spectrum {
    len: u16,
}

impl Spectrum {
    /// Creates a spectrum of `n` channels.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: u16) -> Self {
        assert!(n > 0, "spectrum must contain at least one channel");
        Spectrum { len: n }
    }

    /// The number of channels.
    #[inline]
    pub const fn len(self) -> u16 {
        self.len
    }

    /// Whether the spectrum is empty (never true by construction).
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Iterates over every channel id.
    pub fn iter(self) -> impl Iterator<Item = Channel> {
        (0..self.len).map(Channel)
    }

    /// A set containing every channel of this spectrum.
    pub fn full_set(self) -> ChannelSet {
        let mut s = ChannelSet::new(self.len);
        for ch in self.iter() {
            s.insert(ch);
        }
        s
    }

    /// An empty set sized for this spectrum.
    pub fn empty_set(self) -> ChannelSet {
        ChannelSet::new(self.len)
    }
}

const WORD_BITS: usize = 64;

/// Spectra up to `INLINE_WORDS * 64` channels store their bits inline —
/// no heap allocation for the set, so `clone()` (protocol messages carry
/// set snapshots on the simulation hot path) is a plain memcpy.
const INLINE_WORDS: usize = 2;

/// Bit storage: inline array for small spectra, heap for large ones.
///
/// The unused tail of an inline array (words past the spectrum, and bits
/// past `nbits` in the last word) is kept zero by every operation, so the
/// derived `PartialEq`/`Hash` agree with set semantics.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Spill(Vec<u64>),
}

impl Default for Words {
    fn default() -> Self {
        Words::Inline([0; INLINE_WORDS])
    }
}

/// A dense bitset over the channel spectrum.
///
/// All binary operations require both operands to be sized for the same
/// spectrum (same channel capacity); this is checked with `debug_assert!`
/// on the hot paths and is structurally guaranteed by constructing all sets
/// through one [`Spectrum`].
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct ChannelSet {
    /// Number of valid channel bits.
    nbits: u16,
    words: Words,
}

impl ChannelSet {
    /// Creates an empty set able to hold channels `0..nbits`.
    pub fn new(nbits: u16) -> Self {
        let nwords = (nbits as usize).div_ceil(WORD_BITS);
        ChannelSet {
            nbits,
            words: if nwords <= INLINE_WORDS {
                Words::Inline([0; INLINE_WORDS])
            } else {
                Words::Spill(vec![0; nwords])
            },
        }
    }

    /// Number of storage words covering `0..nbits`.
    #[inline]
    fn nwords(&self) -> usize {
        (self.nbits as usize).div_ceil(WORD_BITS)
    }

    /// The live storage words, least-significant channel first: exactly
    /// `capacity().div_ceil(64)` of them, bits past `capacity()` zero.
    /// For callers that keep many sets in one flat block (`adca-core`'s
    /// per-cell `NeighborView`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(a) => &a[..self.nwords()],
            Words::Spill(v) => v,
        }
    }

    /// Mutable view of the live storage words.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let n = self.nwords();
        match &mut self.words {
            Words::Inline(a) => &mut a[..n],
            Words::Spill(v) => v,
        }
    }

    /// Builds a set from its storage words (the inverse of
    /// [`words`](Self::words)); missing words are empty, bits past
    /// `nbits` are dropped.
    ///
    /// # Examples
    ///
    /// ```
    /// use adca_hexgrid::{Channel, ChannelSet};
    ///
    /// let s = ChannelSet::from_iter_sized(70, [1, 64, 69].map(Channel));
    /// assert_eq!(ChannelSet::from_words(70, s.words().iter().copied()), s);
    /// ```
    pub fn from_words<I: IntoIterator<Item = u64>>(nbits: u16, words: I) -> Self {
        let mut s = ChannelSet::new(nbits);
        for (dst, w) in s.words_mut().iter_mut().zip(words) {
            *dst = w;
        }
        s.mask_tail();
        s
    }

    /// Builds a set from an iterator of channels.
    pub fn from_iter_sized<I: IntoIterator<Item = Channel>>(nbits: u16, iter: I) -> Self {
        let mut s = ChannelSet::new(nbits);
        for ch in iter {
            s.insert(ch);
        }
        s
    }

    /// Number of channel slots (the spectrum size this set was built for).
    #[inline]
    pub fn capacity(&self) -> u16 {
        self.nbits
    }

    /// Inserts a channel. Returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, ch: Channel) -> bool {
        debug_assert!(
            ch.0 < self.nbits,
            "channel {ch} out of range {}",
            self.nbits
        );
        let (w, b) = (ch.index() / WORD_BITS, ch.index() % WORD_BITS);
        let mask = 1u64 << b;
        let word = &mut self.words_mut()[w];
        let was = *word & mask != 0;
        *word |= mask;
        !was
    }

    /// Removes a channel. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, ch: Channel) -> bool {
        debug_assert!(ch.0 < self.nbits);
        let (w, b) = (ch.index() / WORD_BITS, ch.index() % WORD_BITS);
        let mask = 1u64 << b;
        let word = &mut self.words_mut()[w];
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, ch: Channel) -> bool {
        if ch.0 >= self.nbits {
            return false;
        }
        let (w, b) = (ch.index() / WORD_BITS, ch.index() % WORD_BITS);
        self.words()[w] & (1u64 << b) != 0
    }

    /// Number of channels in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Removes every channel.
    pub fn clear(&mut self) {
        self.words_mut().iter_mut().for_each(|w| *w = 0);
    }

    /// In-place union: `self ∪= other`.
    #[inline]
    pub fn union_with(&mut self, other: &ChannelSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &ChannelSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// In-place difference: `self −= other`.
    #[inline]
    pub fn subtract(&mut self, other: &ChannelSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Allocating union.
    pub fn union(&self, other: &ChannelSet) -> ChannelSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Allocating difference.
    pub fn difference(&self, other: &ChannelSet) -> ChannelSet {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// Complement within the spectrum: `Spectrum − self`.
    pub fn complement(&self) -> ChannelSet {
        let mut out = ChannelSet::new(self.nbits);
        for (o, w) in out.words_mut().iter_mut().zip(self.words()) {
            *o = !w;
        }
        out.mask_tail();
        out
    }

    /// Whether `self` and `other` share no channel.
    #[inline]
    pub fn is_disjoint(&self, other: &ChannelSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == 0)
    }

    /// The lowest-numbered channel in the set, if any. Protocols use this
    /// as the deterministic "pick one of the free channels" rule.
    #[inline]
    pub fn first(&self) -> Option<Channel> {
        for (i, &w) in self.words().iter().enumerate() {
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                return Some(Channel((i * WORD_BITS + bit) as u16));
            }
        }
        None
    }

    /// The highest-numbered channel in the set, if any.
    #[inline]
    pub fn last(&self) -> Option<Channel> {
        for (i, &w) in self.words().iter().enumerate().rev() {
            if w != 0 {
                let bit = WORD_BITS - 1 - w.leading_zeros() as usize;
                return Some(Channel((i * WORD_BITS + bit) as u16));
            }
        }
        None
    }

    /// The lowest channel in `self − a − b`, without materializing the
    /// difference. This is the protocols' "pick the first free channel"
    /// rule fused into one word-at-a-time pass.
    ///
    /// # Examples
    ///
    /// ```
    /// use adca_hexgrid::{Channel, ChannelSet};
    ///
    /// let free = ChannelSet::from_iter_sized(8, [0, 1, 4, 6].map(Channel));
    /// let in_use = ChannelSet::from_iter_sized(8, [0, 4].map(Channel));
    /// let locked = ChannelSet::from_iter_sized(8, [1].map(Channel));
    ///
    /// // Equivalent to free.difference(&in_use).difference(&locked).first(),
    /// // with no intermediate sets.
    /// assert_eq!(free.first_excluding(&in_use, &locked), Some(Channel(6)));
    /// assert_eq!(free.first_excluding(&free, &locked), None);
    /// ```
    #[inline]
    pub fn first_excluding(&self, a: &ChannelSet, b: &ChannelSet) -> Option<Channel> {
        debug_assert_eq!(self.nbits, a.nbits);
        debug_assert_eq!(self.nbits, b.nbits);
        for (i, ((&s, &wa), &wb)) in self
            .words()
            .iter()
            .zip(a.words())
            .zip(b.words())
            .enumerate()
        {
            let w = s & !wa & !wb;
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                return Some(Channel((i * WORD_BITS + bit) as u16));
            }
        }
        None
    }

    /// `|self − a − b|`, without materializing the difference.
    ///
    /// # Examples
    ///
    /// ```
    /// use adca_hexgrid::{Channel, ChannelSet};
    ///
    /// let free = ChannelSet::from_iter_sized(8, [0, 1, 4, 6].map(Channel));
    /// let in_use = ChannelSet::from_iter_sized(8, [0, 4].map(Channel));
    /// let locked = ChannelSet::from_iter_sized(8, [1].map(Channel));
    ///
    /// assert_eq!(free.count_excluding(&in_use, &locked), 1); // only ch6
    /// assert_eq!(free.count_excluding(&free, &locked), 0);
    /// ```
    #[inline]
    pub fn count_excluding(&self, a: &ChannelSet, b: &ChannelSet) -> usize {
        debug_assert_eq!(self.nbits, a.nbits);
        debug_assert_eq!(self.nbits, b.nbits);
        self.words()
            .iter()
            .zip(a.words())
            .zip(b.words())
            .map(|((&s, &wa), &wb)| (s & !wa & !wb).count_ones() as usize)
            .sum()
    }

    /// The lowest channel of the spectrum in **neither** `self` nor
    /// `other` — `(self ∪ other).complement().first()` without the two
    /// allocations.
    ///
    /// # Examples
    ///
    /// ```
    /// use adca_hexgrid::{Channel, ChannelSet, Spectrum};
    ///
    /// let used = ChannelSet::from_iter_sized(6, [0, 1].map(Channel));
    /// let interfered = ChannelSet::from_iter_sized(6, [2].map(Channel));
    /// assert_eq!(used.first_absent(&interfered), Some(Channel(3)));
    ///
    /// // A fully occupied spectrum has no absent channel.
    /// let full = Spectrum::new(6).full_set();
    /// assert_eq!(full.first_absent(&used), None);
    /// ```
    #[inline]
    pub fn first_absent(&self, other: &ChannelSet) -> Option<Channel> {
        debug_assert_eq!(self.nbits, other.nbits);
        let tail = self.nbits as usize % WORD_BITS;
        let last = self.nwords().wrapping_sub(1);
        for (i, (&a, &b)) in self.words().iter().zip(other.words()).enumerate() {
            let mut w = !(a | b);
            if i == last && tail != 0 {
                w &= (1u64 << tail) - 1;
            }
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                return Some(Channel((i * WORD_BITS + bit) as u16));
            }
        }
        None
    }

    /// Iterates over member channels in increasing id order.
    pub fn iter(&self) -> ChannelSetIter<'_> {
        let words = self.words();
        ChannelSetIter {
            words,
            word_idx: 0,
            cur: words.first().copied().unwrap_or(0),
        }
    }

    /// Zeroes any bits above `nbits` (after a complement).
    fn mask_tail(&mut self) {
        let tail = self.nbits as usize % WORD_BITS;
        if tail != 0 {
            if let Some(w) = self.words_mut().last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for ChannelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|c| c.0)).finish()
    }
}

impl FromIterator<Channel> for ChannelSet {
    /// Collects channels into a set sized by the maximum id seen.
    /// Prefer [`ChannelSet::from_iter_sized`] when the spectrum is known.
    fn from_iter<I: IntoIterator<Item = Channel>>(iter: I) -> Self {
        let chans: Vec<Channel> = iter.into_iter().collect();
        let nbits = chans.iter().map(|c| c.0 + 1).max().unwrap_or(0);
        ChannelSet::from_iter_sized(nbits, chans)
    }
}

/// Iterator over the channels of a [`ChannelSet`].
pub struct ChannelSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    cur: u64,
}

impl Iterator for ChannelSetIter<'_> {
    type Item = Channel;

    #[inline]
    fn next(&mut self) -> Option<Channel> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(Channel((self.word_idx * WORD_BITS + bit) as u16));
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(nbits: u16, ids: &[u16]) -> ChannelSet {
        ChannelSet::from_iter_sized(nbits, ids.iter().map(|&i| Channel(i)))
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ChannelSet::new(70);
        assert!(s.insert(Channel(0)));
        assert!(!s.insert(Channel(0)));
        assert!(s.insert(Channel(69)));
        assert!(s.contains(Channel(0)));
        assert!(s.contains(Channel(69)));
        assert!(!s.contains(Channel(35)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(Channel(0)));
        assert!(!s.remove(Channel(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = set(70, &[1, 2, 3, 64]);
        let b = set(70, &[3, 4, 64, 69]);
        assert_eq!(a.union(&b), set(70, &[1, 2, 3, 4, 64, 69]));
        assert_eq!(a.difference(&b), set(70, &[1, 2]));
        assert!(!a.is_disjoint(&b));
        assert!(set(70, &[1]).is_disjoint(&set(70, &[2])));
    }

    #[test]
    fn complement_respects_spectrum_bound() {
        let s = set(70, &[0, 1, 68]);
        let c = s.complement();
        assert_eq!(c.len(), 67);
        assert!(!c.contains(Channel(0)));
        assert!(c.contains(Channel(69)));
        // No phantom bits above the spectrum.
        assert!(!c.contains(Channel(70)));
        assert!(!c.contains(Channel(127)));
        // Complement twice is identity.
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn first_last_iter() {
        let s = set(130, &[5, 64, 127, 129]);
        assert_eq!(s.first(), Some(Channel(5)));
        assert_eq!(s.last(), Some(Channel(129)));
        let ids: Vec<u16> = s.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![5, 64, 127, 129]);
        assert_eq!(ChannelSet::new(10).first(), None);
        assert_eq!(ChannelSet::new(10).last(), None);
    }

    #[test]
    fn spectrum_full_set() {
        let sp = Spectrum::new(70);
        assert_eq!(sp.len(), 70);
        let full = sp.full_set();
        assert_eq!(full.len(), 70);
        assert_eq!(full.complement().len(), 0);
        assert_eq!(sp.iter().count(), 70);
    }

    #[test]
    fn empty_set_behaviour() {
        let s = ChannelSet::new(64);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let a = set(70, &[1, 9, 33, 65]);
        let b = set(70, &[9, 10, 65]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, set(70, &[9, 65]));
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d, a.difference(&b));
    }

    #[test]
    #[should_panic]
    fn zero_spectrum_panics() {
        let _ = Spectrum::new(0);
    }

    #[test]
    fn fused_ops_match_composed_ops() {
        let s = set(130, &[0, 2, 9, 64, 127, 129]);
        let a = set(130, &[0, 64]);
        let b = set(130, &[2, 129]);
        let composed = s.difference(&a).difference(&b);
        assert_eq!(s.first_excluding(&a, &b), composed.first());
        assert_eq!(s.count_excluding(&a, &b), composed.len());
        // Everything excluded.
        assert_eq!(s.first_excluding(&s, &b), None);
        assert_eq!(s.count_excluding(&s, &b), 0);
    }

    #[test]
    fn first_absent_matches_union_complement() {
        let a = set(70, &[0, 1, 2, 69]);
        let b = set(70, &[3, 4]);
        assert_eq!(a.first_absent(&b), a.union(&b).complement().first());
        assert_eq!(a.first_absent(&b), Some(Channel(5)));
        // A full spectrum has no absent channel, and the tail mask must
        // not invent phantom channels above nbits.
        let full = Spectrum::new(70).full_set();
        let none = ChannelSet::new(70);
        assert_eq!(full.first_absent(&none), None);
        // Word-aligned spectrum exercises the tail == 0 branch.
        let full64 = Spectrum::new(64).full_set();
        assert_eq!(full64.first_absent(&ChannelSet::new(64)), None);
    }
}
