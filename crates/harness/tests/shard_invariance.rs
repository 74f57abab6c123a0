//! Shard-count invariance suite — the sharded engine's acceptance gate
//! at the harness level.
//!
//! The contract under test: sharding is a wall-clock knob, never a
//! semantic one. For every scheme, every shard count, with faults and
//! tracing on or off, `Scenario::run_sharded` must produce a
//! [`adca_simkit::SimReport`] bit-identical to the sequential
//! `Scenario::run` — every counter, sample series, per-cell vector, and
//! trace record. On top of that, the checkpoint/restore identity
//! contract extends to sharded runs: snapshot mid-run, restore, finish
//! sharded, and the result still equals the cold sequential run.

use adca_harness::{Scenario, SchemeKind};
use adca_hexgrid::CellId;
use adca_simkit::{AuditMode, FaultPlan};
use adca_traffic::WorkloadSpec;

const HORIZON: u64 = 12_000;

/// The paper's 12×12 grid at moderate load — large enough that every
/// shard count in the sweep gets non-trivial bands (7 shards → 1–2 rows
/// each) and cross-shard traffic actually flows.
fn paper_grid() -> Scenario {
    Scenario::uniform(0.8, HORIZON)
}

#[test]
fn reports_are_invariant_across_shard_counts_for_every_scheme() {
    // 6 schemes × shard counts {1, 2, 4, 7} on 12×12, each against the
    // sequential reference. One job per scheme, fanned over the sweep
    // pool.
    type Job = Box<dyn FnOnce() -> SchemeKind + Send>;
    let jobs: Vec<Job> = SchemeKind::ALL
        .into_iter()
        .map(|kind| {
            Box::new(move || {
                let sc = paper_grid();
                let topo = sc.topology();
                let arrivals = sc.arrivals(&topo);
                let reference = sc.run_with(kind, topo.clone(), arrivals.clone());
                for shards in [1usize, 2, 4, 7] {
                    let sharded = sc.run_sharded_with(kind, shards, topo.clone(), arrivals.clone());
                    assert_eq!(
                        reference.report, sharded.report,
                        "{kind}: {shards}-shard run diverged from sequential"
                    );
                }
                kind
            }) as Job
        })
        .collect();
    let done = adca_harness::run_jobs(jobs);
    assert_eq!(done.len(), 6);
}

#[test]
fn invariance_holds_under_faults_and_tracing() {
    // Faults (loss + duplication + two crashes) and full tracing are the
    // hardest determinism case: fault RNG draws, crash drops, and trace
    // record order must all survive the window/barrier execution. The
    // retry-capable schemes run hardened; the rest record violations
    // instead of panicking (as `e12` does) so the identity contract
    // covers the violation log too.
    type Job = Box<dyn FnOnce() -> SchemeKind + Send>;
    let jobs: Vec<Job> = SchemeKind::ALL
        .into_iter()
        .map(|kind| {
            Box::new(move || {
                let mut sc = Scenario::uniform(0.9, HORIZON)
                    .with_grid(6, 6)
                    .with_trace(true)
                    .with_faults(
                        FaultPlan::none()
                            .with_loss(0.02)
                            .with_duplication(0.01)
                            .with_seed(0xFA17)
                            .with_crash(CellId(7), 4_000, 2_000)
                            .with_crash(CellId(20), 8_000, 1_500),
                    );
                let hardened = matches!(
                    kind,
                    SchemeKind::BasicSearch | SchemeKind::BasicUpdate | SchemeKind::Adaptive
                );
                if hardened {
                    sc = sc.with_hardening(400);
                } else {
                    sc.audit = AuditMode::Record;
                    sc = sc.with_watchdog(None);
                }
                let reference = sc.run(kind);
                for shards in [2usize, 3, 6] {
                    let sharded = sc.run_sharded(kind, shards);
                    assert_eq!(
                        reference.report, sharded.report,
                        "{kind}: {shards}-shard faulted+traced run diverged"
                    );
                }
                if kind != SchemeKind::Fixed {
                    assert!(
                        !reference.report.trace.is_empty(),
                        "{kind}: trace mode produced no trace"
                    );
                }
                kind
            }) as Job
        })
        .collect();
    let done = adca_harness::run_jobs(jobs);
    assert_eq!(done.len(), 6);
}

#[test]
fn sharded_snapshot_roundtrip_matches_cold_sequential_run() {
    let sc = paper_grid();
    for kind in [SchemeKind::Adaptive, SchemeKind::BasicUpdate] {
        let cold = sc.run(kind);
        let split = sc.run_split_sharded(kind, 4, HORIZON / 2);
        assert_eq!(
            cold.report, split.report,
            "{kind}: sharded snapshot/restore at T/2 diverged from the cold sequential run"
        );
    }
}

#[test]
fn invariance_holds_above_the_dense_link_limit() {
    // Past 256 cells the link horizons switch to the region layout; the
    // lanes' deferred sends replay through it at the barrier, and the
    // split run round-trips its snapshot tag.
    // A mean hold of a third of the horizon, so that cells fill up and
    // borrow (adaptive is message-free until they do).
    let horizon = 2_000;
    let sc = Scenario::uniform(0.9, horizon)
        .with_grid(18, 18)
        .with_workload(WorkloadSpec::uniform(0.9, 700.0, horizon));
    for kind in [SchemeKind::Adaptive, SchemeKind::BasicUpdate] {
        let cold = sc.run(kind);
        assert!(cold.report.messages_total > 0, "{kind}: no link was used");
        let sharded = sc.run_sharded(kind, 3);
        assert_eq!(
            cold.report, sharded.report,
            "{kind}: 3-shard 18×18 run diverged from sequential"
        );
        let split = sc.run_split_sharded(kind, 3, horizon / 2);
        assert_eq!(
            cold.report, split.report,
            "{kind}: sharded 18×18 snapshot/restore at T/2 diverged from the cold run"
        );
    }
}
