//! The interference view: per-neighbor used sets `U_j` and the derived
//! interference set `I_i`.
//!
//! Two deviations from the paper's plain-set bookkeeping, both required
//! for safety (see `DESIGN.md` §3):
//!
//! 1. **Reference counting.** The paper maintains `I_i` with
//!    `I_i ∪ {r}` / `I_i − {r}` on ACQUISITION/RELEASE. Two neighbors
//!    `j, k ∈ IN_i` that are *not* in each other's interference regions
//!    may legitimately hold the same channel `r`; the first RELEASE would
//!    strip `r` from `I_i` while `k` still uses it. [`NeighborView`]
//!    reference-counts per channel instead.
//!
//! 2. **Pledges.** When node `i` *grants* an update request for `r` from
//!    `j`, the paper records `U_j ∪= {r}` immediately — before `j` has
//!    actually acquired `r`. If a full-snapshot response from `j`
//!    (`RESPONSE(2/3)` carrying `Use_j`, which cannot contain `r` yet)
//!    arrives while `j`'s round is still collecting grants, naively
//!    replacing `U_j` erases the record and `i` may hand the same channel
//!    to someone else (or take it itself) — a genuine interference bug
//!    reachable in simulation. Granted-but-unconfirmed channels are
//!    therefore tracked as *pledges*: they count toward `I_i`, survive
//!    snapshot replacement, and are resolved by the requester's
//!    ACQUISITION (upgrade to a real use) or RELEASE (cancelled round).
//!
//! # Layout
//!
//! A member's index in the sorted `IN_i` is its **region slot** — the one
//! address for per-neighbour state here and in [`RegionMask`](crate::RegionMask).
//! Every receive in an update-style scheme resolves a sender to its slot
//! and touches that member's words, one refcount and `I_i`, so all of it
//! sits in one `u64` block per cell (bytes packed eight to a word):
//!
//! ```text
//! [ (U_j, pledged_j) word pairs, slot-major | refcount bytes | slot bytes ]
//! ```
//!
//! The slot bytes cover only the region's *id span* (`max − min + 1` ids:
//! `4·cols + 5` on an open grid, about `n` on a torus), not every cell
//! id, so a run's views grow linearly with the grid.

use crate::mask::set_bits;
use adca_hexgrid::{CellId, Channel, ChannelSet, Spectrum};
use std::sync::Arc;

/// Tracks `U_j` (uses + pledges) for every `j ∈ IN_i` and derives
/// `I_i = ∪_j (U_j ∪ pledged_j)` with per-channel reference counts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NeighborView {
    /// Region members, sorted by id; shared by clones (it never changes).
    members: Arc<[CellId]>,
    /// The flat state block (see the module docs).
    block: Box<[u64]>,
    /// Words per channel set.
    set_words: usize,
    /// Word offset of the refcount bytes: how many members currently
    /// use-or-hold each channel.
    rc_off: usize,
    /// Word offset of the slot bytes: `slot + 1` for the member whose id
    /// is `lo + i`, `0` for a foreign id.
    slot_off: usize,
    /// Lowest member id and the number of ids the slot bytes cover.
    lo: usize,
    span: usize,
    /// Cached `I_i`: channels with a non-zero refcount.
    interference: ChannelSet,
}

/// Slots and refcounts are bytes (`slot + 1 ≤ 255`, refcount ≤ members).
const MAX_MEMBERS: usize = 255;

#[inline]
fn byte_at(block: &[u64], base: usize, i: usize) -> u8 {
    (block[base + i / 8] >> (i % 8 * 8)) as u8
}

impl NeighborView {
    /// Creates an empty view over a sorted region membership list.
    ///
    /// # Panics
    /// Panics if `region` is not strictly ascending or has more than 255
    /// members.
    pub fn new(spectrum: Spectrum, region: &[CellId]) -> Self {
        assert!(
            region.windows(2).all(|w| w[0] < w[1]),
            "region must be sorted"
        );
        assert!(
            region.len() <= MAX_MEMBERS,
            "interference region has {} members; NeighborView packs slots and refcounts into bytes",
            region.len()
        );
        let set_words = (spectrum.len() as usize).div_ceil(64);
        let lo = region.first().map_or(0, |c| c.index());
        let span = region.last().map_or(0, |c| c.index() - lo + 1);
        let rc_off = 2 * set_words * region.len();
        let slot_off = rc_off + (spectrum.len() as usize).div_ceil(8);
        let mut block = vec![0u64; slot_off + span.div_ceil(8)].into_boxed_slice();
        for (s, j) in region.iter().enumerate() {
            let i = j.index() - lo;
            block[slot_off + i / 8] |= (s as u64 + 1) << (i % 8 * 8);
        }
        NeighborView {
            members: region.into(),
            block,
            set_words,
            rc_off,
            slot_off,
            lo,
            span,
            interference: spectrum.empty_set(),
        }
    }

    /// The region slot of `j` (its index in [`members`](Self::members)),
    /// or `None` for a cell outside the region. O(1).
    #[inline]
    pub fn slot(&self, j: CellId) -> Option<usize> {
        let i = j.index().wrapping_sub(self.lo);
        if i >= self.span {
            return None;
        }
        (byte_at(&self.block, self.slot_off, i) as usize).checked_sub(1)
    }

    #[inline]
    fn member_slot(&self, j: CellId) -> usize {
        self.slot(j)
            .unwrap_or_else(|| panic!("{j} is not in this interference region"))
    }

    /// Block index of the `U_j` word holding `ch` for slot `s` (its
    /// pledged twin is the next word) and the channel's bit in it.
    #[inline]
    fn locate(&self, s: usize, ch: Channel) -> (usize, u64) {
        debug_assert!(
            ch.0 < self.interference.capacity(),
            "channel {ch} out of range {}",
            self.interference.capacity()
        );
        let i = 2 * (s * self.set_words + ch.index() / 64);
        (i, 1u64 << (ch.index() % 64))
    }

    #[inline]
    fn incr(&mut self, ch: Channel) {
        self.block[self.rc_off + ch.index() / 8] += 1 << (ch.index() % 8 * 8);
        self.interference.insert(ch);
    }

    #[inline]
    fn decr(&mut self, ch: Channel) {
        debug_assert!(byte_at(&self.block, self.rc_off, ch.index()) > 0);
        self.block[self.rc_off + ch.index() / 8] -= 1 << (ch.index() % 8 * 8);
        if byte_at(&self.block, self.rc_off, ch.index()) == 0 {
            self.interference.remove(ch);
        }
    }

    /// Marks channel `ch` as *confirmed used* by `j` (an ACQUISITION or a
    /// grant in schemes without snapshot messages). Upgrades an existing
    /// pledge in place. Idempotent.
    pub fn set_used(&mut self, j: CellId, ch: Channel) -> bool {
        let (i, bit) = self.locate(self.member_slot(j), ch);
        let fresh = (self.block[i] | self.block[i + 1]) & bit == 0;
        self.block[i] |= bit;
        self.block[i + 1] &= !bit;
        if fresh {
            self.incr(ch);
        }
        fresh
    }

    /// Records a *pledge*: `ch` granted to `j` but not yet confirmed.
    ///
    /// If a (possibly stale) confirmed use of `ch` by `j` is on record,
    /// it is *demoted* to a pledge: the fresh grant proves `j` is
    /// (re)acquiring right now, and the protection must be snapshot-proof
    /// until the round resolves. (A stale used-entry — e.g. from a
    /// local-mode release we were not subscribed to — would otherwise
    /// mask the pledge and then be erased by `j`'s pre-acquisition
    /// snapshot, un-protecting an in-flight grant; that exact interleaving
    /// produced an audited interference violation in simulation.)
    pub fn pledge(&mut self, j: CellId, ch: Channel) -> bool {
        let (i, bit) = self.locate(self.member_slot(j), ch);
        let fresh = (self.block[i] | self.block[i + 1]) & bit == 0;
        // A demotion keeps union membership: no recount.
        self.block[i] &= !bit;
        self.block[i + 1] |= bit;
        if fresh {
            self.incr(ch);
        }
        fresh
    }

    /// Clears channel `ch` for `j` — whether a confirmed use or a pledge
    /// (a RELEASE message covers both cases). Idempotent.
    pub fn clear_used(&mut self, j: CellId, ch: Channel) -> bool {
        let (i, bit) = self.locate(self.member_slot(j), ch);
        let held = (self.block[i] | self.block[i + 1]) & bit != 0;
        self.block[i] &= !bit;
        self.block[i + 1] &= !bit;
        if held {
            self.decr(ch);
        }
        held
    }

    /// Replaces the *confirmed* `U_j` wholesale (a RESPONSE carrying the
    /// full `Use_j`). Pledges survive unless the snapshot confirms them
    /// (in which case they upgrade to uses).
    pub fn replace(&mut self, j: CellId, new_set: &ChannelSet) {
        debug_assert_eq!(new_set.capacity(), self.interference.capacity());
        let base = 2 * self.member_slot(j) * self.set_words;
        for (w, &new) in new_set.words().iter().enumerate() {
            let i = base + 2 * w;
            let (old, pledged) = (self.block[i], self.block[i + 1]);
            // Channels the snapshot adds: confirm the pledge (pledged →
            // used keeps union membership, so no recount) or count a
            // fresh use. Channels it drops: uncount unless pledged
            // (pledges survive snapshot replacement — see the module
            // docs).
            let added = new & !old;
            let dropped = old & !new & !pledged;
            self.block[i] = new;
            self.block[i + 1] = pledged & !added;
            let channels = |bits: u64| set_bits(bits).map(move |b| Channel((w * 64 + b) as u16));
            for ch in channels(added & !pledged) {
                self.incr(ch);
            }
            for ch in channels(dropped) {
                self.decr(ch);
            }
        }
    }

    /// Forgets every use and pledge (a restarted node's view).
    pub fn clear(&mut self) {
        self.block[..self.slot_off].fill(0);
        self.interference.clear();
    }

    /// The derived interference set `I_i` (uses ∪ pledges).
    #[inline]
    pub fn interference(&self) -> &ChannelSet {
        &self.interference
    }

    fn set_of(&self, j: CellId, pledged: usize) -> ChannelSet {
        let base = 2 * self.member_slot(j) * self.set_words + pledged;
        ChannelSet::from_words(
            self.interference.capacity(),
            (0..self.set_words).map(|w| self.block[base + 2 * w]),
        )
    }

    /// The tracked confirmed `U_j` for member `j`.
    pub fn used_by(&self, j: CellId) -> ChannelSet {
        self.set_of(j, 0)
    }

    /// The outstanding pledges to member `j`.
    pub fn pledged_to(&self, j: CellId) -> ChannelSet {
        self.set_of(j, 1)
    }

    /// The region membership, sorted by id (index = region slot).
    #[inline]
    pub fn members(&self) -> &[CellId] {
        &self.members
    }

    /// Whether `j` is a region member.
    #[inline]
    pub fn contains_member(&self, j: CellId) -> bool {
        self.slot(j).is_some()
    }

    /// Internal consistency check (used by tests/proptests): refcounts
    /// and the cached set match the per-member sets, no channel is both
    /// used and pledged for one member, and the slot bytes are exactly
    /// the member list.
    pub fn check_invariants(&self) -> bool {
        let nch = self.interference.capacity() as usize;
        let mut counts = vec![0u8; nch];
        for &j in self.members.iter() {
            let (u, p) = (self.used_by(j), self.pledged_to(j));
            if !u.is_disjoint(&p) {
                return false;
            }
            for ch in u.union(&p).iter() {
                counts[ch.index()] += 1;
            }
        }
        let slots_ok = (0..self.span).all(|i| {
            let id = CellId((self.lo + i) as u32);
            self.slot(id) == self.members.binary_search(&id).ok()
        });
        slots_ok
            && (0..nch).all(|c| {
                let rc = byte_at(&self.block, self.rc_off, c);
                rc == counts[c] && (rc > 0) == self.interference.contains(Channel(c as u16))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> NeighborView {
        NeighborView::new(Spectrum::new(16), &[CellId(1), CellId(2), CellId(5)])
    }

    #[test]
    fn set_and_clear_single_member() {
        let mut v = view();
        assert!(v.set_used(CellId(1), Channel(3)));
        assert!(!v.set_used(CellId(1), Channel(3)), "idempotent");
        assert!(v.interference().contains(Channel(3)));
        assert!(v.used_by(CellId(1)).contains(Channel(3)));
        assert!(v.clear_used(CellId(1), Channel(3)));
        assert!(!v.clear_used(CellId(1), Channel(3)), "idempotent");
        assert!(!v.interference().contains(Channel(3)));
        assert!(v.check_invariants());
    }

    #[test]
    fn refcounting_fixes_the_paper_release_bug() {
        // Two distinct neighbors use the same channel; releasing one must
        // keep the channel in I.
        let mut v = view();
        v.set_used(CellId(1), Channel(7));
        v.set_used(CellId(5), Channel(7));
        v.clear_used(CellId(1), Channel(7));
        assert!(
            v.interference().contains(Channel(7)),
            "channel still used by cell5 must remain interfered"
        );
        v.clear_used(CellId(5), Channel(7));
        assert!(!v.interference().contains(Channel(7)));
        assert!(v.check_invariants());
    }

    #[test]
    fn replace_diffs_correctly() {
        let mut v = view();
        v.set_used(CellId(2), Channel(1));
        v.set_used(CellId(2), Channel(2));
        v.set_used(CellId(5), Channel(2));
        let new_set = ChannelSet::from_iter_sized(16, [Channel(2), Channel(9)]);
        v.replace(CellId(2), &new_set);
        assert!(!v.interference().contains(Channel(1)), "1 dropped");
        assert!(v.interference().contains(Channel(2)), "2 kept (both)");
        assert!(v.interference().contains(Channel(9)), "9 added");
        assert_eq!(v.used_by(CellId(2)), new_set);
        assert!(v.check_invariants());
        // Replacing with empty clears only cell2's contribution.
        v.replace(CellId(2), &ChannelSet::new(16));
        assert!(v.interference().contains(Channel(2)), "cell5 still uses 2");
        assert!(!v.interference().contains(Channel(9)));
        assert!(v.check_invariants());
    }

    #[test]
    fn pledges_survive_snapshot_replacement() {
        // THE bug this layer exists for: grant ch6 to cell2, then a
        // pre-acquisition snapshot from cell2 arrives without ch6. The
        // pledge must keep ch6 interfered.
        let mut v = view();
        assert!(v.pledge(CellId(2), Channel(6)));
        assert!(v.interference().contains(Channel(6)));
        v.replace(CellId(2), &ChannelSet::from_iter_sized(16, [Channel(1)]));
        assert!(
            v.interference().contains(Channel(6)),
            "pledge erased by snapshot — the interference bug"
        );
        assert!(v.pledged_to(CellId(2)).contains(Channel(6)));
        assert!(v.check_invariants());
    }

    #[test]
    fn snapshot_confirms_pledge() {
        let mut v = view();
        v.pledge(CellId(2), Channel(6));
        v.replace(
            CellId(2),
            &ChannelSet::from_iter_sized(16, [Channel(6), Channel(7)]),
        );
        assert!(v.used_by(CellId(2)).contains(Channel(6)));
        assert!(v.pledged_to(CellId(2)).is_empty());
        assert!(v.interference().contains(Channel(6)));
        assert!(v.check_invariants());
        // A later snapshot without ch6 now clears it (it is a real use).
        v.replace(CellId(2), &ChannelSet::new(16));
        assert!(!v.interference().contains(Channel(6)));
        assert!(v.check_invariants());
    }

    #[test]
    fn acquisition_confirms_pledge() {
        let mut v = view();
        v.pledge(CellId(1), Channel(4));
        v.set_used(CellId(1), Channel(4));
        assert!(v.pledged_to(CellId(1)).is_empty());
        assert!(v.used_by(CellId(1)).contains(Channel(4)));
        assert!(v.interference().contains(Channel(4)));
        assert!(v.check_invariants());
        // Exactly one refcount: releasing once clears it.
        v.clear_used(CellId(1), Channel(4));
        assert!(!v.interference().contains(Channel(4)));
        assert!(v.check_invariants());
    }

    #[test]
    fn release_cancels_pledge() {
        let mut v = view();
        v.pledge(CellId(5), Channel(9));
        assert!(v.clear_used(CellId(5), Channel(9)));
        assert!(!v.interference().contains(Channel(9)));
        assert!(v.check_invariants());
    }

    #[test]
    fn pledge_demotes_existing_use() {
        let mut v = view();
        v.set_used(CellId(1), Channel(2));
        assert!(!v.pledge(CellId(1), Channel(2)), "no refcount change");
        assert!(v.pledged_to(CellId(1)).contains(Channel(2)), "demoted");
        assert!(!v.used_by(CellId(1)).contains(Channel(2)));
        assert!(v.interference().contains(Channel(2)));
        assert!(v.check_invariants());
        v.clear_used(CellId(1), Channel(2));
        assert!(!v.interference().contains(Channel(2)));
        assert!(v.check_invariants());
    }

    #[test]
    fn masked_pledge_survives_stale_snapshot() {
        // The regression behind the demotion rule: a stale used-entry,
        // a fresh grant, then a pre-acquisition snapshot without the
        // channel. The channel must stay interfered.
        let mut v = view();
        v.set_used(CellId(1), Channel(2)); // stale record
        v.pledge(CellId(1), Channel(2)); // fresh grant
        v.replace(CellId(1), &ChannelSet::new(16)); // pre-acq snapshot
        assert!(
            v.interference().contains(Channel(2)),
            "in-flight grant unprotected after stale snapshot"
        );
        assert!(v.check_invariants());
        // The round resolves (requester's release or later confirmation).
        v.clear_used(CellId(1), Channel(2));
        assert!(!v.interference().contains(Channel(2)));
        assert!(v.check_invariants());
    }

    #[test]
    fn membership() {
        let v = view();
        assert!(v.contains_member(CellId(2)));
        assert!(!v.contains_member(CellId(3)));
        assert_eq!(v.members(), &[CellId(1), CellId(2), CellId(5)]);
    }

    #[test]
    fn slots_follow_the_sorted_member_list() {
        let v = view();
        assert_eq!(v.slot(CellId(1)), Some(0));
        assert_eq!(v.slot(CellId(2)), Some(1));
        assert_eq!(v.slot(CellId(5)), Some(2));
        for foreign in [0, 3, 4, 6, 1_000_000] {
            assert_eq!(v.slot(CellId(foreign)), None);
        }
    }

    #[test]
    fn clear_forgets_uses_and_pledges() {
        let mut v = view();
        v.set_used(CellId(1), Channel(3));
        v.set_used(CellId(5), Channel(3));
        v.pledge(CellId(2), Channel(9));
        v.clear();
        assert!(v.interference().is_empty());
        assert!(v.used_by(CellId(1)).is_empty() && v.pledged_to(CellId(2)).is_empty());
        assert!(v.check_invariants());
        assert_eq!(v.slot(CellId(5)), Some(2), "membership survives");
        assert!(
            v.set_used(CellId(5), Channel(3)),
            "counts restart from zero"
        );
    }

    #[test]
    fn byte_widths_are_enforced_at_construction() {
        let ids = |n: u32| (0..n).map(|i| CellId(2 * i)).collect::<Vec<_>>();
        let mut v = NeighborView::new(Spectrum::new(8), &ids(255));
        // Every member on one channel: the refcount byte reaches 255.
        for j in ids(255) {
            assert!(v.set_used(j, Channel(7)));
        }
        assert!(v.check_invariants());
        assert_eq!(v.slot(CellId(508)), Some(254));
        let too_many = std::panic::catch_unwind(|| NeighborView::new(Spectrum::new(8), &ids(256)));
        assert!(too_many.is_err(), "256 members do not fit byte slots");
    }

    #[test]
    #[should_panic(expected = "region must be sorted")]
    fn unsorted_region_panics() {
        NeighborView::new(Spectrum::new(16), &[CellId(2), CellId(1)]);
    }

    #[test]
    #[should_panic(expected = "not in this interference region")]
    fn foreign_member_panics() {
        let mut v = view();
        v.set_used(CellId(9), Channel(0));
    }
}
