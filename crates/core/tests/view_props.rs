//! [`NeighborView`] against a naive model.
//!
//! The view packs every member's `U_j`/pledge words, byte refcounts and
//! a byte slot table into one `u64` block; the model is a pair of
//! `BTreeSet`s per member. For random operation scripts, over spectra on
//! both sides of every word boundary (inline and spilled `ChannelSet`s)
//! and regions from empty to mask-width with dense, sparse and
//! torus-like id spans, every return value and every observable must
//! agree after every step. CI also runs this file with `--release`: the
//! benchmark builds the view with debug assertions off.

use adca_core::NeighborView;
use adca_hexgrid::{CellId, Channel, ChannelSet, Spectrum, Topology};
use adca_simkit::StateHasher;
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    SetUsed(u16, u16),
    Pledge(u16, u16),
    Clear(u16, u16),
    /// Member pick, then channel picks for the snapshot.
    Replace(u16, Vec<u16>),
}

fn op() -> impl Strategy<Value = Op> {
    let pick = || 0u16..u16::MAX;
    prop_oneof![
        (pick(), pick()).prop_map(|(j, c)| Op::SetUsed(j, c)),
        (pick(), pick()).prop_map(|(j, c)| Op::Pledge(j, c)),
        (pick(), pick()).prop_map(|(j, c)| Op::Clear(j, c)),
        (pick(), proptest::collection::vec(pick(), 0..12)).prop_map(|(j, cs)| Op::Replace(j, cs)),
    ]
}

/// Few channels are picked from, so that members collide on them and
/// refcounts pass 1; the top of the spectrum is always among them.
fn channel(pick: u16, nch: u16) -> u16 {
    match pick % 4 {
        0 => nch - 1,
        1 => (pick / 4) % nch.min(6),
        _ => (pick / 4) % nch,
    }
}

const SPECTRA: [u16; 7] = [1, 63, 64, 65, 128, 129, 300];

fn regions() -> Vec<Vec<CellId>> {
    let ids = |v: &[u32]| v.iter().map(|&i| CellId(i)).collect::<Vec<_>>();
    let open = Topology::default_paper(12, 12);
    let torus = Topology::builder(14, 14).wrap().build();
    vec![
        ids(&[]),
        ids(&[7]),
        // Odd and dense.
        ids(&[10, 11, 12, 13, 14]),
        // Even and sparse: a span of 5001 ids for 8 members.
        ids(&[0, 3, 40, 41, 900, 901, 902, 5000]),
        // Real regions: an interior cell of an open grid (span 4·cols+5)
        // and a torus corner, whose region wraps to both ends of the id
        // range (span ≈ n).
        open.region(open.grid().at_offset(6, 6).unwrap()).to_vec(),
        torus.region(CellId(0)).to_vec(),
        // As wide as a `RegionMask`.
        (0..64).map(|i| CellId(100 + 3 * i)).collect(),
    ]
}

#[derive(Default, Clone)]
struct Member {
    used: BTreeSet<u16>,
    pledged: BTreeSet<u16>,
}

fn to_set(nch: u16, ids: &BTreeSet<u16>) -> ChannelSet {
    ChannelSet::from_iter_sized(nch, ids.iter().map(|&c| Channel(c)))
}

fn check_member(v: &NeighborView, nch: u16, j: CellId, m: &Member) {
    assert_eq!(v.used_by(j), to_set(nch, &m.used), "U of {j}");
    assert_eq!(v.pledged_to(j), to_set(nch, &m.pledged), "pledges to {j}");
}

fn run_script(nch: u16, region: &[CellId], ops: &[Op]) {
    let mut v = NeighborView::new(Spectrum::new(nch), region);
    let mut model = vec![Member::default(); region.len()];
    assert_eq!(v.members(), region);
    assert!(v.check_invariants());
    // Slot resolution over the whole span and a margin around it.
    let lo = region.first().map_or(0, |c| c.0.saturating_sub(3));
    let hi = region.last().map_or(8, |c| c.0 + 3);
    for id in (lo..=hi).map(CellId) {
        let want = region.binary_search(&id).ok();
        assert_eq!(v.slot(id), want, "slot of {id}");
        assert_eq!(v.contains_member(id), want.is_some());
    }
    assert_eq!(v.slot(CellId(u32::MAX)), None);
    if region.is_empty() {
        return;
    }
    for op in ops {
        let s = match op {
            Op::SetUsed(j, _) | Op::Pledge(j, _) | Op::Clear(j, _) | Op::Replace(j, _) => {
                *j as usize % region.len()
            }
        };
        let (j, m) = (region[s], &mut model[s]);
        match op {
            Op::SetUsed(_, c) => {
                let c = channel(*c, nch);
                let fresh = !m.used.contains(&c) && !m.pledged.contains(&c);
                m.pledged.remove(&c);
                m.used.insert(c);
                assert_eq!(v.set_used(j, Channel(c)), fresh, "{op:?}");
            }
            Op::Pledge(_, c) => {
                let c = channel(*c, nch);
                let fresh = !m.used.contains(&c) && !m.pledged.contains(&c);
                m.used.remove(&c);
                m.pledged.insert(c);
                assert_eq!(v.pledge(j, Channel(c)), fresh, "{op:?}");
            }
            Op::Clear(_, c) => {
                let c = channel(*c, nch);
                let held = m.used.remove(&c) | m.pledged.remove(&c);
                assert_eq!(v.clear_used(j, Channel(c)), held, "{op:?}");
            }
            Op::Replace(_, cs) => {
                let snap: BTreeSet<u16> = cs.iter().map(|&c| channel(c, nch)).collect();
                m.pledged.retain(|c| !snap.contains(c));
                v.replace(j, &to_set(nch, &snap));
                m.used = snap;
            }
        }
        check_member(&v, nch, j, &model[s]);
        let union: BTreeSet<u16> = model
            .iter()
            .flat_map(|m| m.used.iter().chain(&m.pledged).copied())
            .collect();
        assert_eq!(v.interference(), &to_set(nch, &union), "I after {op:?}");
        assert!(v.check_invariants(), "invariants broken after {op:?}");
    }
    for (&j, m) in region.iter().zip(&model) {
        check_member(&v, nch, j, m);
    }
    // The state is a function of the members' sets: a view built
    // straight from the model compares equal and hashes alike.
    let mut fresh = NeighborView::new(Spectrum::new(nch), region);
    for (&j, m) in region.iter().zip(&model) {
        for &c in &m.used {
            fresh.set_used(j, Channel(c));
        }
        for &c in &m.pledged {
            fresh.pledge(j, Channel(c));
        }
    }
    assert!(fresh == v, "equal content, unequal views");
    assert_eq!(StateHasher::digest(&fresh), StateHasher::digest(&v));
    v.clear();
    assert!(v.interference().is_empty() && v.check_invariants());
    assert!(region
        .iter()
        .all(|&j| v.used_by(j).is_empty() && v.pledged_to(j).is_empty()));
}

proptest! {
    /// One script, every spectrum × region shape.
    #[test]
    fn view_matches_naive_model(ops in proptest::collection::vec(op(), 0..100)) {
        for region in regions() {
            for nch in SPECTRA {
                run_script(nch, &region, &ops);
            }
        }
    }
}
