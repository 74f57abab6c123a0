//! Property-based tests over the core data structures and invariants.

use adca_repro::core::NeighborView;
use adca_repro::core::NfcWindow;
use adca_repro::hexgrid::{coords, Axial, CellId, Channel, ChannelSet, HexGrid, Spectrum};
use adca_repro::simkit::Arrival;
use adca_repro::simkit::SimTime;
use adca_repro::traffic::trace;
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Hex geometry
// ---------------------------------------------------------------------

fn axial() -> impl Strategy<Value = Axial> {
    (-30i32..30, -30i32..30).prop_map(|(q, r)| Axial::new(q, r))
}

proptest! {
    /// Hex distance is a metric: symmetric, zero iff equal, triangle
    /// inequality.
    #[test]
    fn hex_distance_is_a_metric(a in axial(), b in axial(), c in axial()) {
        prop_assert_eq!(a.distance(b), b.distance(a));
        prop_assert_eq!(a.distance(a), 0);
        prop_assert_eq!(a.distance(b) == 0, a == b);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c));
    }

    /// Distance is translation invariant.
    #[test]
    fn hex_distance_translation_invariant(a in axial(), b in axial(), t in axial()) {
        prop_assert_eq!(a.distance(b), a.add(t).distance(b.add(t)));
    }

    /// Offset <-> axial conversion round-trips.
    #[test]
    fn offset_axial_roundtrip(col in -50i32..50, row in -50i32..50) {
        let ax = coords::offset_to_axial(col, row);
        prop_assert_eq!(coords::axial_to_offset(ax), (col, row));
    }

    /// A disk of radius r contains exactly the cells at distance ≤ r.
    #[test]
    fn disk_is_exactly_the_ball(center in axial(), radius in 0u32..5) {
        let disk: BTreeSet<Axial> = center.disk(radius).collect();
        prop_assert_eq!(disk.len() as u32, 1 + 3 * radius * (radius + 1));
        for p in &disk {
            prop_assert!(center.distance(*p) <= radius);
        }
    }

    /// Grid regions are symmetric: j ∈ IN_i ⟺ i ∈ IN_j.
    #[test]
    fn grid_regions_symmetric(rows in 2u32..8, cols in 2u32..8, radius in 1u32..4) {
        let g = HexGrid::new(rows, cols);
        for i in g.cells() {
            for j in g.region(i, radius) {
                prop_assert!(g.region(j, radius).contains(&i));
            }
        }
    }
}

// ---------------------------------------------------------------------
// ChannelSet vs a BTreeSet model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SetOp {
    Insert(u16),
    Remove(u16),
    UnionWith(Vec<u16>),
    IntersectWith(Vec<u16>),
    Subtract(Vec<u16>),
}

fn set_op(n: u16) -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0..n).prop_map(SetOp::Insert),
        (0..n).prop_map(SetOp::Remove),
        proptest::collection::vec(0..n, 0..8).prop_map(SetOp::UnionWith),
        proptest::collection::vec(0..n, 0..8).prop_map(SetOp::IntersectWith),
        proptest::collection::vec(0..n, 0..8).prop_map(SetOp::Subtract),
    ]
}

proptest! {
    /// ChannelSet behaves exactly like a BTreeSet<u16> model under a
    /// random op sequence.
    #[test]
    fn channelset_matches_model(ops in proptest::collection::vec(set_op(100), 0..60)) {
        let n = 100u16;
        let mut real = ChannelSet::new(n);
        let mut model: BTreeSet<u16> = BTreeSet::new();
        let to_set = |ids: &[u16]| ChannelSet::from_iter_sized(n, ids.iter().map(|&i| Channel(i)));
        for op in &ops {
            match op {
                SetOp::Insert(i) => {
                    prop_assert_eq!(real.insert(Channel(*i)), model.insert(*i));
                }
                SetOp::Remove(i) => {
                    prop_assert_eq!(real.remove(Channel(*i)), model.remove(i));
                }
                SetOp::UnionWith(ids) => {
                    real.union_with(&to_set(ids));
                    model.extend(ids.iter().copied());
                }
                SetOp::IntersectWith(ids) => {
                    real.intersect_with(&to_set(ids));
                    let keep: BTreeSet<u16> = ids.iter().copied().collect();
                    model.retain(|x| keep.contains(x));
                }
                SetOp::Subtract(ids) => {
                    real.subtract(&to_set(ids));
                    for i in ids {
                        model.remove(i);
                    }
                }
            }
            prop_assert_eq!(real.len(), model.len());
            prop_assert_eq!(real.first().map(|c| c.0), model.first().copied());
            prop_assert_eq!(real.last().map(|c| c.0), model.last().copied());
            let elems: Vec<u16> = real.iter().map(|c| c.0).collect();
            let want: Vec<u16> = model.iter().copied().collect();
            prop_assert_eq!(elems, want);
        }
        // Complement twice is identity; complement is disjoint.
        let comp = real.complement();
        prop_assert!(comp.is_disjoint(&real));
        prop_assert_eq!(comp.len() + real.len(), n as usize);
        prop_assert_eq!(comp.complement(), real);
    }
}

// ---------------------------------------------------------------------
// NeighborView invariants under random operations
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ViewOp {
    SetUsed(u8, u16),
    Pledge(u8, u16),
    Clear(u8, u16),
    Replace(u8, Vec<u16>),
}

fn view_op() -> impl Strategy<Value = ViewOp> {
    prop_oneof![
        (0u8..4, 0u16..24).prop_map(|(j, c)| ViewOp::SetUsed(j, c)),
        (0u8..4, 0u16..24).prop_map(|(j, c)| ViewOp::Pledge(j, c)),
        (0u8..4, 0u16..24).prop_map(|(j, c)| ViewOp::Clear(j, c)),
        (0u8..4, proptest::collection::vec(0u16..24, 0..10))
            .prop_map(|(j, cs)| ViewOp::Replace(j, cs)),
    ]
}

proptest! {
    /// Refcounts, the cached interference set, and the used/pledged
    /// disjointness invariant survive any operation sequence; pledges
    /// are never cleared by snapshot replacement.
    #[test]
    fn neighbor_view_invariants(ops in proptest::collection::vec(view_op(), 0..80)) {
        let members = [CellId(3), CellId(7), CellId(11), CellId(20)];
        let mut v = NeighborView::new(Spectrum::new(24), &members);
        for op in &ops {
            match op {
                ViewOp::SetUsed(j, c) => {
                    v.set_used(members[*j as usize], Channel(*c));
                }
                ViewOp::Pledge(j, c) => {
                    let m = members[*j as usize];
                    v.pledge(m, Channel(*c));
                    prop_assert!(v.interference().contains(Channel(*c)));
                    // Pledge must survive an adversarial empty snapshot.
                    let pledged_before = v.pledged_to(m);
                    v.replace(m, &ChannelSet::new(24));
                    prop_assert_eq!(v.pledged_to(m), pledged_before);
                }
                ViewOp::Clear(j, c) => {
                    v.clear_used(members[*j as usize], Channel(*c));
                }
                ViewOp::Replace(j, cs) => {
                    let snap =
                        ChannelSet::from_iter_sized(24, cs.iter().map(|&i| Channel(i)));
                    v.replace(members[*j as usize], &snap);
                }
            }
            prop_assert!(v.check_invariants(), "invariants broken after {op:?}");
        }
    }
}

// ---------------------------------------------------------------------
// NFC window vs a naive model
// ---------------------------------------------------------------------

proptest! {
    /// `get(t)` equals a naive full-history scan despite pruning.
    #[test]
    fn nfc_window_matches_naive_model(
        steps in proptest::collection::vec((1u64..60, 0u32..12), 1..40),
        window in 50u64..400,
    ) {
        let mut w = NfcWindow::new(window);
        let mut naive: Vec<(u64, u32)> = Vec::new();
        let mut t = 0u64;
        for (dt, s) in steps {
            t += dt;
            w.record(SimTime(t), s);
            naive.push((t, s));
            // Queries inside the retention window must agree with the
            // naive scan.
            let edge = t.saturating_sub(window);
            for q in [edge, edge + window / 2, t] {
                let model = naive
                    .iter()
                    .rev()
                    .find(|&&(et, _)| et <= q)
                    .map(|&(_, s)| s)
                    .or_else(|| naive.first().map(|&(_, s)| s));
                prop_assert_eq!(w.get(SimTime(q)), model, "query at {}", q);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trace format
// ---------------------------------------------------------------------

proptest! {
    /// Workload traces round-trip through the text format.
    #[test]
    fn trace_roundtrip(
        calls in proptest::collection::vec(
            (0u64..100_000, 0u32..144, 1u64..50_000,
             proptest::collection::vec((1u64..40_000, 0u32..144), 0..4)),
            0..40,
        )
    ) {
        let arrivals: Vec<Arrival> = calls
            .into_iter()
            .map(|(at, cell, duration, hops)| {
                let mut sorted = hops;
                sorted.sort_by_key(|h| h.0);
                sorted.dedup_by_key(|h| h.0);
                Arrival {
                    at,
                    cell: CellId(cell),
                    duration,
                    hops: sorted.into_iter().map(|(o, c)| (o, CellId(c))).collect(),
                }
            })
            .collect();
        let text = trace::to_text(&arrivals);
        let parsed = trace::from_text(&text).expect("parse back");
        prop_assert_eq!(parsed, arrivals);
    }
}
