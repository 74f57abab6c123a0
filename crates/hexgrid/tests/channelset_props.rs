//! Property suite for [`ChannelSet`]'s fused operations across the
//! inline/heap storage boundary.
//!
//! The set inlines spectra up to 128 channels (two words) and spills
//! larger ones to the heap; the fused hot-path operations
//! (`first_excluding`, `count_excluding`, `first_absent`) hand-roll
//! word loops over whichever storage is live.
//! Three families of pins:
//!
//! 1. **Fused = composed** — every fused op equals its allocating
//!    composition, for spectra drawn from `100..=200` so cases land on
//!    both sides of (and exactly on) the 128-bit boundary, with partial
//!    and word-aligned tail words.
//! 2. **Representation independence** — the same member set answers
//!    identically when stored inline (capacity ≤ 128) and spilled
//!    (capacity > 128): results depend on members, never on storage.
//! 3. **Reference semantics** — set algebra agrees with `BTreeSet<u16>`
//!    on the same operations.

use adca_hexgrid::{Channel, ChannelSet};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Spectrum sizes straddling the 128-bit inline/spill boundary, biased
/// toward the edge cases: 100..=200 uniformly, plus the exact boundary
/// and word-aligned sizes.
fn nbits_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![
        100u16..201,
        127u16..130,                          // the boundary itself
        (0u16..4).prop_map(|k| 64 * (k + 2)), // word-aligned: 128, 192, 256, 320
    ]
}

/// Raw id pools; the test maps them into `0..nbits`.
fn ids_strategy() -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(0u16..1024, 0..90)
}

fn build(nbits: u16, ids: &[u16]) -> ChannelSet {
    ChannelSet::from_iter_sized(nbits, ids.iter().map(|&i| Channel(i % nbits)))
}

proptest! {
    #[test]
    fn fused_ops_match_their_compositions(
        nbits in nbits_strategy(),
        s_ids in ids_strategy(),
        a_ids in ids_strategy(),
        b_ids in ids_strategy(),
    ) {
        let s = build(nbits, &s_ids);
        let a = build(nbits, &a_ids);
        let b = build(nbits, &b_ids);
        let composed = s.difference(&a).difference(&b);
        prop_assert_eq!(s.first_excluding(&a, &b), composed.first());
        prop_assert_eq!(s.count_excluding(&a, &b), composed.len());
        prop_assert_eq!(s.first_absent(&a), s.union(&a).complement().first());
        // Aliased arguments are the protocols' "exclude myself" shape.
        prop_assert_eq!(s.first_excluding(&s, &b), None);
        prop_assert_eq!(s.count_excluding(&s, &b), 0);
    }

    #[test]
    fn results_are_storage_representation_independent(
        s_ids in ids_strategy(),
        a_ids in ids_strategy(),
        b_ids in ids_strategy(),
    ) {
        // Same members (< 100), one set inline (capacity 110 ≤ 128) and
        // one spilled (capacity 140 > 128): every fused answer and every
        // membership answer must agree.
        let clamp = |ids: &[u16]| ids.iter().map(|&i| i % 100).collect::<Vec<_>>();
        let (s_ids, a_ids, b_ids) = (clamp(&s_ids), clamp(&a_ids), clamp(&b_ids));
        let small = |ids: &[u16]| build(110, ids);
        let large = |ids: &[u16]| build(140, ids);
        let (si, ai, bi) = (small(&s_ids), small(&a_ids), small(&b_ids));
        let (sl, al, bl) = (large(&s_ids), large(&a_ids), large(&b_ids));
        prop_assert_eq!(si.first_excluding(&ai, &bi), sl.first_excluding(&al, &bl));
        prop_assert_eq!(si.count_excluding(&ai, &bi), sl.count_excluding(&al, &bl));
        prop_assert_eq!(si.len(), sl.len());
        prop_assert_eq!(si.first(), sl.first());
        prop_assert_eq!(si.last(), sl.last());
        prop_assert_eq!(si.is_disjoint(&ai), sl.is_disjoint(&al));
        // first_absent depends on the capacity only when the union
        // covers all of `0..100`; restrict to members below that bound.
        let fa_i = si.first_absent(&ai).filter(|c| c.0 < 100);
        let fa_l = sl.first_absent(&al).filter(|c| c.0 < 100);
        prop_assert_eq!(fa_i, fa_l);
    }

    #[test]
    fn set_algebra_matches_btreeset_reference(
        nbits in nbits_strategy(),
        a_ids in ids_strategy(),
        b_ids in ids_strategy(),
    ) {
        let a = build(nbits, &a_ids);
        let b = build(nbits, &b_ids);
        let ra: BTreeSet<u16> = a_ids.iter().map(|&i| i % nbits).collect();
        let rb: BTreeSet<u16> = b_ids.iter().map(|&i| i % nbits).collect();
        let members = |s: &ChannelSet| s.iter().map(|c| c.0).collect::<BTreeSet<u16>>();
        prop_assert_eq!(members(&a), ra.clone());
        prop_assert_eq!(members(&a.union(&b)), &ra | &rb);
        prop_assert_eq!(members(&a.difference(&b)), &ra - &rb);
        prop_assert_eq!(
            members(&a.complement()),
            (0..nbits).filter(|i| !ra.contains(i)).collect::<BTreeSet<u16>>()
        );
        prop_assert_eq!(a.len(), ra.len());
        prop_assert_eq!(a.complement().len(), nbits as usize - ra.len());
        prop_assert_eq!(a.complement().complement(), a.clone());
        // In-place forms agree with the allocating ones.
        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(u, a.union(&b));
        let mut d = a.clone();
        d.subtract(&b);
        prop_assert_eq!(d, a.difference(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(members(&i), &ra & &rb);
    }

    #[test]
    fn insert_remove_tracks_reference(
        nbits in nbits_strategy(),
        ops in proptest::collection::vec((0u16..1024, 0u8..2), 1..120),
    ) {
        let mut s = ChannelSet::new(nbits);
        let mut reference: BTreeSet<u16> = BTreeSet::new();
        for (raw, insert) in ops {
            let id = raw % nbits;
            if insert == 1 {
                prop_assert_eq!(s.insert(Channel(id)), reference.insert(id));
            } else {
                prop_assert_eq!(s.remove(Channel(id)), reference.remove(&id));
            }
            prop_assert_eq!(s.len(), reference.len());
            prop_assert_eq!(s.contains(Channel(id)), reference.contains(&id));
        }
        let members: Vec<u16> = s.iter().map(|c| c.0).collect();
        let expect: Vec<u16> = reference.iter().copied().collect();
        prop_assert_eq!(members, expect);
    }
}
