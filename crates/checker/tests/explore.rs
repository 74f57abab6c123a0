//! Exhaustive exploration suites: clean proofs on tiny topologies, the
//! seeded-mutation counterexample, and the loss-stranding demonstration.

use adca_baselines::{
    AdvancedSearchNode, AdvancedUpdateNode, BasicSearchNode, BasicUpdateConfig, BasicUpdateNode,
    FixedNode,
};
use adca_checker::{Budgets, CheckNode, Defect, Model, Op, Schedule};
use adca_core::{AdaptiveConfig, AdaptiveNode, Mutation};
use adca_hexgrid::{CellId, ReusePattern, Topology};
use std::sync::Arc;

/// A 1×n strip with 3-cell reuse at radius 1: every cell interferes
/// with its neighbors, and the channel count controls how many cells
/// own a primary (colors are dealt channels round-robin).
fn strip(cells: u32, channels: u16) -> Arc<Topology> {
    Arc::new(
        Topology::builder(1, cells)
            .channels(channels)
            .pattern(ReusePattern::three_cell())
            .interference_radius(1)
            .build(),
    )
}

const CALL: &[Op] = &[Op::StartCall, Op::EndCall];

#[test]
fn adaptive_two_cell_interleavings_are_clean() {
    let model = Model::new(strip(2, 3), |cell, topo| {
        AdaptiveNode::new(cell, topo, AdaptiveConfig::default())
    })
    .with_uniform_script(CALL);
    let out = model.explore();
    assert!(
        out.violation.is_none(),
        "unexpected violation: {:?}",
        out.violation
    );
    assert!(!out.truncated);
    assert!(out.terminals > 0);
    // Every terminal resolves both requests, one way or the other.
    for acq in &out.outcomes {
        for &(g, r) in acq {
            assert_eq!(g + r, 1, "each cell issued exactly one request");
        }
    }
}

/// Fault-free exhaustion of one call per cell on the two-cell strip.
fn assert_two_cell_call_is_clean<N: CheckNode>(
    factory: impl Fn(CellId, &Topology) -> N + Send + Sync + 'static,
) {
    let out = Model::new(strip(2, 3), factory)
        .with_uniform_script(CALL)
        .explore();
    assert!(
        out.violation.is_none(),
        "unexpected violation: {:?}",
        out.violation
    );
    assert!(!out.truncated);
    assert!(out.terminals > 0);
}

#[test]
fn basic_search_two_cell_interleavings_are_clean() {
    assert_two_cell_call_is_clean(BasicSearchNode::new);
}

#[test]
fn basic_update_two_cell_interleavings_are_clean() {
    assert_two_cell_call_is_clean(|cell, topo| {
        BasicUpdateNode::new(cell, topo, BasicUpdateConfig::default())
    });
}

#[test]
fn fixed_two_cell_interleavings_are_clean() {
    assert_two_cell_call_is_clean(FixedNode::new);
}

#[test]
fn advanced_update_two_cell_interleavings_are_clean() {
    assert_two_cell_call_is_clean(AdvancedUpdateNode::new);
}

#[test]
fn advanced_search_two_cell_interleavings_are_clean() {
    assert_two_cell_call_is_clean(AdvancedSearchNode::new);
}

#[test]
fn adaptive_three_cell_contention_is_clean() {
    // 3 cells, 3 channels: each color owns one primary; neighbors
    // compete through search/update rounds.
    let model = Model::new(strip(3, 3), |cell, topo| {
        AdaptiveNode::new(cell, topo, AdaptiveConfig::default())
    })
    .with_uniform_script(CALL);
    let out = model.explore();
    assert!(
        out.violation.is_none(),
        "unexpected violation: {:?}",
        out.violation
    );
    assert!(!out.truncated);
}

#[test]
fn hardened_adaptive_survives_loss_and_dup_budget() {
    let hardened = AdaptiveConfig {
        retry_ticks: Some(400),
        ..AdaptiveConfig::default()
    };
    let model = Model::new(strip(2, 3), move |cell, topo| {
        AdaptiveNode::new(cell, topo, hardened.clone())
    })
    .with_uniform_script(CALL)
    .with_budgets(Budgets {
        losses: 1,
        dups: 1,
        crashes: 0,
        partitions: 0,
    });
    let out = model.explore();
    assert!(
        out.violation.is_none(),
        "hardened adaptive violated under loss+dup: {:?}",
        out.violation
    );
    assert!(!out.truncated);
}

#[test]
fn hardened_adaptive_crash_search_is_clean_within_bound() {
    // The crash space fragments combinatorially (Lamport clocks +
    // deadline timers), so this is a bounded search: exhaustive up to
    // the cap, and any violation inside it would still surface.
    let hardened = AdaptiveConfig {
        retry_ticks: Some(400),
        ..AdaptiveConfig::default()
    };
    let model = Model::new(strip(2, 3), move |cell, topo| {
        AdaptiveNode::new(cell, topo, hardened.clone())
    })
    .with_uniform_script(&[Op::StartCall])
    .with_budgets(Budgets {
        losses: 0,
        dups: 0,
        crashes: 1,
        partitions: 0,
    })
    .with_max_states(30_000);
    let out = model.explore();
    assert!(
        out.violation.is_none(),
        "hardened adaptive violated under crash: {:?}",
        out.violation
    );
}

#[test]
fn hardened_adaptive_survives_partition_budget() {
    // One link-partition window (cut at any point, healed at any later
    // point, both directions dropping at send time). Only the adaptive
    // scheme's partition space is exhaustible — the basic baselines'
    // retry timers re-fire into the cut link and fragment past 1M
    // states even on 2 cells, so their coverage lives in `mck`'s
    // bounded rows.
    let hardened = AdaptiveConfig {
        retry_ticks: Some(400),
        ..AdaptiveConfig::default()
    };
    let model = Model::new(strip(2, 3), move |cell, topo| {
        AdaptiveNode::new(cell, topo, hardened.clone())
    })
    .with_uniform_script(CALL)
    .with_budgets(Budgets {
        losses: 0,
        dups: 0,
        crashes: 0,
        partitions: 1,
    });
    let out = model.explore();
    assert!(
        out.violation.is_none(),
        "hardened adaptive violated under partition: {:?}",
        out.violation
    );
    assert!(!out.truncated);
}

#[test]
fn seeded_owe_gate_mutation_is_caught_with_minimized_counterexample() {
    // The owed gate (Figure 6: defer a new acquisition while answers to
    // other cells' searches are outstanding) only guards a reachable
    // race once some cell actually *searches* while the potential
    // grabber's primary is free. A crash+restart bootstraps exactly
    // that: the restarted cell re-syncs with a forced search, the
    // neighbor answers with a stale "channel 0 free" snapshot, and —
    // with the gate mutated away — then silently grabs channel 0 before
    // the searcher concludes on the stale answer. Theorem 1 falls.
    let mutated = AdaptiveConfig {
        mutation: Some(Mutation::SkipOweGate),
        ..AdaptiveConfig::default()
    };
    let crash1 = Budgets {
        losses: 0,
        dups: 0,
        crashes: 1,
        partitions: 0,
    };
    let model = Model::new(strip(2, 2), move |cell, topo| {
        AdaptiveNode::new(cell, topo, mutated.clone())
    })
    .with_uniform_script(&[Op::StartCall])
    .with_budgets(crash1);
    let out = model.explore();
    let cex = out
        .violation
        .expect("the SkipOweGate mutation must produce a Theorem 1 violation");
    assert!(
        matches!(cex.defect, Defect::Interference { .. }),
        "expected interference, got {:?}",
        cex.defect
    );
    // BFS guarantees minimality. The race needs the crash/restart
    // bootstrap, the inject, the search round trip, and the stale
    // conclusion — eight choices; keep a little slack rather than pin
    // the exact trace shape.
    assert!(
        (6..=10).contains(&cex.schedule.len()),
        "suspicious counterexample length {}: {}",
        cex.schedule.len(),
        cex.schedule.to_text()
    );

    // The schedule serializes, parses back, and replays to the same
    // defect with a non-empty trace timeline.
    let text = cex.schedule.to_text();
    let parsed = Schedule::parse(&text).expect("schedule text must parse");
    assert_eq!(parsed, cex.schedule);
    let replay = model.replay(&parsed);
    assert_eq!(
        replay.defect.as_ref(),
        Some(&cex.defect),
        "replaying the counterexample must reproduce the defect"
    );
    assert!(!replay.trace.is_empty());

    // And the unmutated protocol survives the identical exploration:
    // the intact gate parks the would-be grabber in WaitQuiet until the
    // searcher's ACQUISITION lands, so the stale window never opens.
    let clean = Model::new(strip(2, 2), |cell, topo| {
        AdaptiveNode::new(cell, topo, AdaptiveConfig::default())
    })
    .with_uniform_script(&[Op::StartCall])
    .with_budgets(crash1);
    let out = clean.explore();
    assert!(
        out.violation.is_none(),
        "owed gate intact, yet: {:?}",
        out.violation
    );
    assert!(!out.truncated);
}

#[test]
fn unhardened_basic_search_strands_under_loss() {
    // Known limitation the checker states precisely: without
    // timeout/retry hardening, one lost search reply strands the
    // request forever. The counterexample is the motivation for the
    // `retry_ticks` knob (and is why fault-budget CI runs harden).
    let model = Model::new(strip(2, 3), BasicSearchNode::new)
        .with_script(adca_hexgrid::CellId(1), &[Op::StartCall])
        .with_budgets(Budgets {
            losses: 1,
            dups: 0,
            crashes: 0,
            partitions: 0,
        });
    let out = model.explore();
    let cex = out
        .violation
        .expect("an unhardened search round must strand after a lost message");
    assert!(
        matches!(cex.defect, Defect::Stranded { .. }),
        "expected stranding, got {:?}",
        cex.defect
    );
    // Shortest possible: inject, then lose the request (or its reply).
    assert!(cex.schedule.len() <= 4, "{}", cex.schedule.to_text());
}
