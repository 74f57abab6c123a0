//! Pins for the region-slot bookkeeping of the four message-passing
//! baselines (`RegionMask` over `IN_i` where a `BTreeSet<CellId>` per
//! round used to be):
//!
//! 1. **State** — a node driven to the middle of a round by a fixed
//!    script hashes to a pinned [`StateHasher`] digest. The digests were
//!    first recorded in the commit where the byte encoding's section
//!    digests, themselves recorded from the `BTreeSet` implementation,
//!    still passed beside them; they were re-recorded once, when the
//!    nodes' run inputs (`RunInput` fields: spectrum, primary set,
//!    region, configuration) left the hash, with the model checker's
//!    output and every `results/` table unchanged.
//! 2. **Foreign senders** — a response from a cell outside the region
//!    credits nobody and leaves the node's state untouched, as
//!    `BTreeSet::remove` of an absent id did.

use adca_baselines::{
    AdvancedSearchMsg, AdvancedSearchNode, AdvancedUpdateMsg, AdvancedUpdateNode, BasicSearchMsg,
    BasicSearchNode, BasicUpdateConfig, BasicUpdateMsg, BasicUpdateNode,
};
use adca_hexgrid::{CellId, Topology};
use adca_simkit::{Action, Effects, RequestId, RequestKind, SimTime, StateHasher, StateMachine};
use std::hash::Hash;

/// 6×6 paper topology, the interior cell `(3, 3)` (a full 18-member
/// region) and a cell outside that region.
fn world() -> (Topology, CellId, CellId) {
    let topo = Topology::default_paper(6, 6);
    let me = topo.grid().at_offset(3, 3).unwrap();
    assert_eq!(topo.region(me).len(), 18);
    let foreign = topo
        .cells()
        .find(|&c| c != me && !topo.in_region(me, c))
        .unwrap();
    (topo, me, foreign)
}

fn fx<M>(me: CellId) -> Effects<M> {
    Effects::new(me, SimTime(100), false)
}

/// The node's [`StateHasher`] digest is `golden`.
fn assert_pinned<N: Hash>(node: &N, golden: u128) {
    assert_eq!(
        StateHasher::digest(node),
        golden,
        "mid-round state digest drifted: {:#034x}",
        StateHasher::digest(node)
    );
}

fn sends<M: Clone>(fx: &Effects<M>) -> Vec<(CellId, M)> {
    fx.actions()
        .iter()
        .filter_map(|a| match a {
            Action::Send { to, msg } => Some((*to, msg.clone())),
            _ => None,
        })
        .collect()
}

fn grants<M>(fx: &Effects<M>) -> usize {
    fx.actions()
        .iter()
        .filter(|a| matches!(a, Action::Grant { .. }))
        .count()
}

/// Only bookkeeping (`Count`) may come out of a foreign response.
fn assert_inert<M: std::fmt::Debug>(fx: &Effects<M>) {
    assert!(
        fx.actions()
            .iter()
            .all(|a| matches!(a, Action::Count { .. })),
        "a foreign response caused {:?}",
        fx.actions()
    );
}

#[test]
fn basic_update_mid_round() {
    let (topo, me, foreign) = world();
    let region = topo.region(me).to_vec();
    let new = || BasicUpdateNode::new(me, &topo, BasicUpdateConfig::default());
    let mut node = new();
    let mut out = fx(me);
    node.acquire(RequestId(1), RequestKind::NewCall, &mut out);
    let asked = sends(&out);
    assert_eq!(asked.len(), 18);
    let BasicUpdateMsg::Request { ch, ts } = asked[0].1.clone() else {
        panic!("first send is not a REQUEST");
    };
    // Grants out of id order (the granted list is arrival-ordered), one
    // reject, and a neighbour's acquisition so the view is not empty.
    let mut out = fx(me);
    for s in [3, 0, 17] {
        node.message(region[s], BasicUpdateMsg::Grant { ch, ts }, &mut out);
    }
    node.message(region[5], BasicUpdateMsg::Reject { ch, ts }, &mut out);
    node.message(
        region[9],
        BasicUpdateMsg::Acquisition {
            ch: adca_hexgrid::Channel(69),
        },
        &mut out,
    );
    assert!(out.actions().is_empty());
    assert_pinned(&node, 0x8407_7b3c_0274_c7ec_4dcf_791b_8ce0_2615);

    // A fresh round, one answer short of done.
    let mut node = new();
    let mut out = fx(me);
    node.acquire(RequestId(1), RequestKind::NewCall, &mut out);
    for &j in &region[..17] {
        node.message(j, BasicUpdateMsg::Grant { ch, ts }, &mut out);
    }
    let before = node.clone();
    let mut out = fx(me);
    node.message(foreign, BasicUpdateMsg::Grant { ch, ts }, &mut out);
    assert_inert(&out);
    assert_eq!(node, before, "a foreign GRANT changed the node");
    node.message(region[17], BasicUpdateMsg::Grant { ch, ts }, &mut out);
    assert_eq!(grants(&out), 1, "the last member's grant ends the round");
}

#[test]
fn basic_search_mid_round() {
    let (topo, me, foreign) = world();
    let region = topo.region(me).to_vec();
    let new = || BasicSearchNode::new(me, &topo);
    let mut node = new();
    let mut out = fx(me);
    node.acquire(RequestId(1), RequestKind::NewCall, &mut out);
    let asked = sends(&out);
    assert_eq!(asked.len(), 18);
    let BasicSearchMsg::Request { ts } = asked[0].1.clone() else {
        panic!("first send is not a REQUEST");
    };
    let reply = |j: CellId| BasicSearchMsg::Response {
        used: topo.primary(j).clone(),
        ts,
    };
    let mut out = fx(me);
    for s in [16, 2, 7] {
        node.message(region[s], reply(region[s]), &mut out);
    }
    assert!(out.actions().is_empty());
    assert_pinned(&node, 0xbac7_fbd0_a036_c114_d9f5_2931_4d21_f9c8);

    for s in (0..17).filter(|s| ![16, 2, 7].contains(s)) {
        node.message(region[s], reply(region[s]), &mut out);
    }
    let before = node.clone();
    let mut out = fx(me);
    let empty = BasicSearchMsg::Response {
        used: topo.spectrum().empty_set(),
        ts,
    };
    node.message(foreign, empty, &mut out);
    assert_inert(&out);
    assert_eq!(node, before, "a foreign RESPONSE changed the node");
    node.message(region[17], reply(region[17]), &mut out);
    assert_eq!(
        grants(&out),
        1,
        "the last member's response ends the search"
    );
}

#[test]
fn advanced_update_mid_round() {
    let (topo, me, foreign) = world();
    let new = || AdvancedUpdateNode::new(me, &topo);
    let mut node = new();
    // Ten primaries go locally; the eleventh call must borrow.
    for i in 0..10 {
        let mut out = fx(me);
        node.acquire(RequestId(i), RequestKind::NewCall, &mut out);
        assert_eq!(grants(&out), 1);
    }
    let mut out = fx(me);
    node.acquire(RequestId(10), RequestKind::NewCall, &mut out);
    let asked = sends(&out);
    assert!(
        (2..=4).contains(&asked.len()),
        "n_p = {} owners asked",
        asked.len()
    );
    assert!(
        asked.windows(2).all(|w| w[0].0 < w[1].0),
        "owners are asked in id order"
    );
    let AdvancedUpdateMsg::Request { ch, .. } = asked[0].1.clone() else {
        panic!("first send is not a REQUEST");
    };
    let last = asked.len() - 1;
    let mut out = fx(me);
    node.message(asked[last].0, AdvancedUpdateMsg::Grant { ch }, &mut out);
    assert!(out.actions().is_empty());
    assert_pinned(&node, 0x904e_583e_cc9c_1240_aa8b_762e_fad9_b53b);

    for (owner, _) in &asked[1..last] {
        node.message(*owner, AdvancedUpdateMsg::Grant { ch }, &mut out);
    }
    let before = node.clone();
    let mut out = fx(me);
    node.message(foreign, AdvancedUpdateMsg::Grant { ch }, &mut out);
    // A region member that does not own `ch` was never asked either.
    let bystander = *topo
        .region(me)
        .iter()
        .find(|&&j| !topo.primary(j).contains(ch))
        .unwrap();
    node.message(bystander, AdvancedUpdateMsg::Grant { ch }, &mut out);
    assert_inert(&out);
    assert_eq!(node, before, "an unasked GRANT changed the node");
    node.message(asked[0].0, AdvancedUpdateMsg::Grant { ch }, &mut out);
    assert_eq!(grants(&out), 1, "the last owner's grant ends the round");
}

#[test]
fn advanced_search_mid_round() {
    let (topo, me, foreign) = world();
    let region = topo.region(me).to_vec();
    let new = || AdvancedSearchNode::new(me, &topo);
    let mut node = new();
    for i in 0..10 {
        let mut out = fx(me);
        node.acquire(RequestId(i), RequestKind::NewCall, &mut out);
        assert_eq!(grants(&out), 1);
    }
    let mut out = fx(me);
    node.acquire(RequestId(10), RequestKind::NewCall, &mut out);
    assert_eq!(sends(&out).len(), 18);
    // Every neighbour owns its primaries and uses none of them.
    let reply = |j: CellId| AdvancedSearchMsg::Response {
        allocated: topo.primary(j).clone(),
        used: topo.spectrum().empty_set(),
    };
    let mut out = fx(me);
    for s in [11, 4, 0] {
        node.message(region[s], reply(region[s]), &mut out);
    }
    assert!(out.actions().is_empty());
    assert_pinned(&node, 0xda78_a72e_cb24_49e9_c8e1_5144_c9c7_b4fa);

    let before = node.clone();
    let mut out = fx(me);
    node.message(foreign, reply(foreign), &mut out);
    assert_inert(&out);
    assert_eq!(node, before, "a foreign RESPONSE changed the node");

    // Finish the collect round: nothing is unallocated, so the node
    // asks the owners of the first idle channel to transfer it.
    let mut out = fx(me);
    for s in (0..18).filter(|s| ![11, 4, 0].contains(s)) {
        node.message(region[s], reply(region[s]), &mut out);
    }
    let owners = sends(&out);
    assert!(owners.len() >= 2, "a multi-owner transfer group");
    let AdvancedSearchMsg::Transfer { ch } = owners[0].1.clone() else {
        panic!("the collect round did not end in a TRANSFER");
    };
    let last = owners.len() - 1;
    let mut out = fx(me);
    node.message(owners[last].0, AdvancedSearchMsg::Agree { ch }, &mut out);
    assert!(out.actions().is_empty());
    assert_pinned(&node, 0x2e4c_ac47_4ffb_daee_9d0a_74d8_8015_3044);

    for (owner, _) in &owners[1..last] {
        node.message(*owner, AdvancedSearchMsg::Agree { ch }, &mut out);
    }
    let before = node.clone();
    let mut out = fx(me);
    node.message(foreign, AdvancedSearchMsg::Keep { ch }, &mut out);
    assert_inert(&out);
    assert_eq!(node, before, "a foreign KEEP changed the node");
    node.message(owners[0].0, AdvancedSearchMsg::Agree { ch }, &mut out);
    assert_eq!(grants(&out), 1, "the last owner's AGREE ends the transfer");
}
