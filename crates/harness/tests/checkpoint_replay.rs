//! The checkpoint probe's identity: a run split at its midpoint by
//! [`Scenario::checkpoint_probe`] — run to the midpoint, hash its state,
//! replay a second engine to the midpoint and compare its state digests,
//! finish the second — ends with the report of the unsplit run, every
//! counter, sample series and per-cell vector. Scenarios run under a
//! fixed latency, so the last test builds its engines by hand to do the
//! same under jitter, where the `links` digest covers link horizons. CI
//! runs this file in release, the build `des_faulted` probes with.

use adca_core::AdaptiveNode;
use adca_harness::{Scenario, SchemeKind};
use adca_hexgrid::{CellId, Topology};
use adca_simkit::{AuditMode, Engine, FaultPlan, LatencyModel, SimConfig, SimTime};
use adca_traffic::WorkloadSpec;

const HORIZON: u64 = 24_000;

/// e1-shaped scenario on 6×6. The fault mode matches each scheme's
/// tolerance, as `e12` does: the three retry-capable schemes get
/// hardening and run clean under loss, duplication and crashes; the
/// unhardened ones can legitimately strand a request under the same
/// plan, so they record violations instead of panicking, and the
/// identity covers the violation log too.
fn base(kind: SchemeKind, faults: bool) -> Scenario {
    let mut sc = Scenario::uniform(0.9, HORIZON).with_grid(6, 6);
    if faults {
        sc = sc.with_faults(
            FaultPlan::none()
                .with_loss(0.02)
                .with_duplication(0.01)
                .with_seed(0xFA17)
                .with_crash(CellId(7), 6_000, 2_500)
                .with_crash(CellId(20), 15_000, 1_500),
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
    }
    sc
}

/// Requires the probe split at `horizon / 2` to end as the unsplit run,
/// and the run to send messages (a message-free run leaves the queue's
/// deliveries out of the comparison).
fn assert_split_identity(sc: &Scenario, kind: SchemeKind, what: &str) {
    let cold = sc.run(kind).report;
    let probe = sc.checkpoint_probe(kind, sc.workload.horizon / 2);
    assert!(probe.snapshot_len > 0);
    assert_eq!(
        cold, probe.resumed.report,
        "{kind} ({what}): the run split at the midpoint diverged from the unsplit run"
    );
    assert!(
        cold.messages_total > 0 || kind == SchemeKind::Fixed,
        "{kind}: no link was used"
    );
}

#[test]
fn a_probe_split_at_the_midpoint_ends_as_the_unsplit_run() {
    // 6 schemes × faults {off, on}, fanned out over the sweep pool.
    type Job = Box<dyn FnOnce() + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for kind in SchemeKind::ALL {
        for faults in [false, true] {
            jobs.push(Box::new(move || {
                assert_split_identity(&base(kind, faults), kind, &format!("faults={faults}"))
            }));
        }
    }
    assert_eq!(adca_harness::run_jobs(jobs).len(), 12);
}

#[test]
fn a_probe_split_on_a_torus_ends_as_the_unsplit_run() {
    // On a wrapped grid a region reaches both ends of the id range, so a
    // `NeighborView`'s slot table spans about all n ids (on an open grid
    // it spans 4·cols + 5): 14×14 runs that shape through every scheme
    // that keeps a view.
    let horizon = 4_000;
    let sc = Scenario::uniform(0.9, horizon)
        .with_grid(14, 14)
        .with_wrap()
        .with_workload(WorkloadSpec::uniform(0.9, 1_000.0, horizon));
    for kind in [
        SchemeKind::Adaptive,
        SchemeKind::BasicUpdate,
        SchemeKind::AdvancedUpdate,
    ] {
        assert_split_identity(&sc, kind, "14×14 torus");
    }
}

#[test]
fn a_probe_split_under_partitions_ends_as_the_unsplit_run() {
    let sc = base(SchemeKind::Adaptive, false)
        .with_faults(
            FaultPlan::none()
                .with_loss(0.02)
                .with_partition(CellId(7), CellId(8), 4_000, 8_000)
                .with_partition(CellId(20), CellId(21), 10_000, 6_000),
        )
        .with_hardening(400);
    assert_split_identity(&sc, SchemeKind::Adaptive, "partitions");
    assert!(
        sc.run(SchemeKind::Adaptive)
            .report
            .custom
            .get("partition_dropped")
            > 0,
        "the partition plan must cut traffic for this pin to bite"
    );
}

#[test]
fn a_replay_under_jitter_snapshots_alike_and_ends_as_the_unsplit_run() {
    // Under a latency that varies the engine keeps a FIFO horizon per
    // link, and the `links` state digest covers them. A mean hold of a
    // third of the horizon, so that cells fill up and borrow (adaptive is
    // message-free until they do).
    let horizon = 3_000;
    let sc = Scenario::uniform(0.9, horizon)
        .with_grid(18, 18)
        .with_workload(WorkloadSpec::uniform(0.9, 1_000.0, horizon));
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    let cfg = SimConfig {
        latency: LatencyModel::Jitter { min: 50, max: 200 },
        ..sc.sim_config()
    };
    let engine = || {
        let ac = sc.adaptive.clone();
        let factory = move |c, t: &Topology| AdaptiveNode::new(c, t, ac.clone());
        Engine::new(topo.clone(), cfg.clone(), factory, arrivals.clone())
    };
    let cold = engine().run();
    let paused = || {
        let mut e = engine();
        assert!(e.run_until(SimTime(horizon / 2)), "events must remain");
        e
    };
    let (mut first, mut replay) = (paused(), paused());
    assert!(
        first.state_digests() == replay.state_digests(),
        "a replay reached another state"
    );
    assert_eq!(first.run(), cold);
    assert_eq!(replay.run(), cold);
    assert!(cold.messages_total > 0, "no link was used");
}
