//! Checkpoint/restore identity suite — the snapshot subsystem's
//! acceptance gate at the harness level.
//!
//! Three pins:
//! 1. **Resume identity** — for every scheme × {faults off/on} ×
//!    {tracing off/on}, running to the horizon in one go and running
//!    to the midpoint, snapshotting, restoring, and finishing produce
//!    whole-[`SimReport`] equality (every counter, sample series and
//!    per-cell vector) and — with tracing on, one [`RingSink`] carried
//!    across the split — the same trace stream, record for record.
//! 2. **Snapshot determinism** — snapshotting the same paused engine
//!    state twice yields byte-identical snapshots, and a restored
//!    engine re-snapshots to the original bytes (pinned at the engine
//!    level in `adca-simkit`; here the end-to-end scenario path).
//! 3. **Hostile bytes never panic** — truncations, bit flips, garbage,
//!    and wrong-scheme snapshots must all surface as `Err`, never as a
//!    panic or a silently wrong engine.

use adca_baselines::{
    AdvancedSearchNode, AdvancedUpdateNode, BasicSearchNode, BasicUpdateNode, FixedNode,
};
use adca_core::AdaptiveNode;
use adca_harness::{CheckpointError, RunSummary, Scenario, SchemeKind};
use adca_hexgrid::{CellId, Topology};
use adca_simkit::trace::{RingSink, TraceRecord};
use adca_simkit::{
    AuditMode, DecodeError, Engine, FaultPlan, LatencyModel, ProtocolState, SimConfig, SimReport,
    SimTime,
};
use adca_traffic::WorkloadSpec;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, Ordering};

const HORIZON: u64 = 24_000;

/// Holds every record of a [`base`] run (the busiest, basic-search
/// under faults, makes about 120 000), so `dropped()` stays 0 and the
/// streams compare whole.
const RING: usize = 1 << 18;

/// e1-shaped scenario (6×6 grid to keep 24 cells × 2 runs fast). The
/// fault mode matches each scheme's tolerance, as `e12` does: the three
/// retry-capable schemes get hardening and run clean under loss +
/// duplication + crashes; the unhardened ones can legitimately strand a
/// request under the same plan, so they record violations instead of
/// panicking — the identity contract then covers the violation log too.
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

/// One full checkpoint/restore round trip: runs to tick `at`, snapshots,
/// restores the snapshot into a fresh engine, and finishes there.
fn run_split(sc: &Scenario, kind: SchemeKind, at: u64) -> RunSummary {
    let snap = sc.warmup_snapshot(kind, at);
    sc.resume_bytes(kind, &snap)
        .expect("an engine's own snapshot restores under the same scenario")
}

/// [`run_split`] on the typed trace path: the first half records into a
/// [`RingSink`], the snapshot is taken, and the restored engine is handed
/// that same sink — so the stream it ends with is the whole run's.
fn traced_split<P, F>(sc: &Scenario, at: u64, factory: F) -> (SimReport, RingSink)
where
    P: ProtocolState,
    F: FnMut(CellId, &Topology) -> P + Clone,
{
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    let cfg = sc.sim_config();
    let mut first = Engine::with_sink(
        topo.clone(),
        cfg.clone(),
        factory.clone(),
        arrivals,
        RingSink::new(RING),
    );
    first.run_until(SimTime(at));
    let snap = first.snapshot();
    let mut second = Engine::restore_with_sink(topo, cfg, factory, &snap, first.into_sink())
        .expect("an engine's own snapshot restores under the same config");
    let report = second.run();
    (report, second.into_sink())
}

fn traced_split_of(sc: &Scenario, kind: SchemeKind, at: u64) -> (SimReport, RingSink) {
    match kind {
        SchemeKind::Fixed => traced_split(sc, at, FixedNode::new),
        SchemeKind::BasicSearch => {
            let bs = sc.basic_search.clone();
            traced_split(sc, at, move |c, t: &Topology| {
                BasicSearchNode::with_config(c, t, bs.clone())
            })
        }
        SchemeKind::BasicUpdate => {
            let bu = sc.basic_update.clone();
            traced_split(sc, at, move |c, t: &Topology| {
                BasicUpdateNode::new(c, t, bu.clone())
            })
        }
        SchemeKind::AdvancedUpdate => traced_split(sc, at, AdvancedUpdateNode::new),
        SchemeKind::AdvancedSearch => traced_split(sc, at, AdvancedSearchNode::new),
        SchemeKind::Adaptive => {
            let ac = sc.adaptive.clone();
            traced_split(sc, at, move |c, t: &Topology| {
                AdaptiveNode::new(c, t, ac.clone())
            })
        }
    }
}

#[test]
fn resume_is_bit_identical_for_every_scheme_and_mode() {
    // 6 schemes × 2 fault modes × 2 trace modes, each compared cold vs
    // split-at-midpoint. Fan the 24 cells out over the sweep pool.
    type Job = Box<dyn FnOnce() -> (SchemeKind, bool, bool) + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for kind in SchemeKind::ALL {
        for faults in [false, true] {
            for trace in [false, true] {
                jobs.push(Box::new(move || {
                    let sc = base(kind, faults);
                    if !trace {
                        let cold = sc.run(kind).report;
                        let split = run_split(&sc, kind, HORIZON / 2).report;
                        assert_eq!(
                            cold, split,
                            "{kind} (faults={faults}, trace=false): \
                             snapshot/restore at T/2 diverged from the cold run"
                        );
                        return (kind, faults, trace);
                    }
                    let topo = sc.topology();
                    let arrivals = sc.arrivals(&topo);
                    let (cold, cold_sink) =
                        sc.run_with_sink(kind, topo, arrivals, RingSink::new(RING));
                    let (split, split_sink) = traced_split_of(&sc, kind, HORIZON / 2);
                    assert_eq!(
                        cold.report, split,
                        "{kind} (faults={faults}, trace=true): \
                         snapshot/restore at T/2 diverged from the cold run"
                    );
                    assert_eq!(
                        (cold_sink.dropped(), split_sink.dropped()),
                        (0, 0),
                        "{kind} (faults={faults}): ring too small to compare whole streams"
                    );
                    let cold_records: Vec<TraceRecord> = cold_sink.into_vec();
                    let split_records: Vec<TraceRecord> = split_sink.into_vec();
                    assert_eq!(
                        cold_records.len(),
                        split_records.len(),
                        "{kind} (faults={faults}): a sink carried across the split \
                         must end with the cold run's record count"
                    );
                    for (i, (a, b)) in cold_records.iter().zip(&split_records).enumerate() {
                        assert_eq!(
                            a, b,
                            "{kind} (faults={faults}): record {i} differs across the split"
                        );
                    }
                    // Every scheme traces at least its grants; an empty
                    // stream would make the equality above vacuous.
                    assert!(
                        !cold_records.is_empty(),
                        "{kind} (faults={faults}): nothing was traced"
                    );
                    (kind, faults, trace)
                }));
            }
        }
    }
    let done = adca_harness::run_jobs(jobs);
    assert_eq!(done.len(), 24);
}

#[test]
fn resume_after_periodic_checkpoints_is_bit_identical() {
    let dir = std::env::temp_dir().join("adca_resume_identity");
    // Start empty, so that the listing at the end sees this run's files only.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("adaptive.ckpt");
    let sc = base(SchemeKind::Adaptive, false);
    let cold = sc.run(SchemeKind::Adaptive);
    // 48 writes inside the horizon, each of them read concurrently: a
    // reader that finds the file finds a whole checkpoint, whichever
    // write it lands in, and resumes it to the cold report.
    let every = HORIZON / 48;
    let written = AtomicBool::new(false);
    let (ckpt, found) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut found = 0u32;
            loop {
                // Read the flag first: the attempt after the last write
                // always finds the file.
                let last = written.load(Ordering::SeqCst);
                match sc.resume_from(SchemeKind::Adaptive, &path) {
                    Ok(resumed) => {
                        assert_eq!(cold.report, resumed.report, "resume_from diverged");
                        found += 1;
                    }
                    Err(CheckpointError::Io(e)) if e.kind() == ErrorKind::NotFound => {}
                    Err(e) => panic!("a reader saw a checkpoint mid-write: {e}"),
                }
                if last {
                    return found;
                }
            }
        });
        // The checkpointed run itself is undisturbed by the writes…
        let ckpt = sc.run_checkpointed(SchemeKind::Adaptive, &path, every);
        written.store(true, Ordering::SeqCst);
        (ckpt.unwrap(), reader.join().expect("reader panicked"))
    });
    assert_eq!(
        cold.report, ckpt.report,
        "checkpoint writes disturbed the run"
    );
    // …and the file left behind (written at quiescence) is all it leaves.
    assert!(found >= 1, "the reader never found the checkpoint");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["adaptive.ckpt"], "a temporary was left behind");
}

/// Runs `sc`'s workload under jittered latency cold, and split at tick
/// `at` through a snapshot, and requires messages and the same report
/// from both.
fn jittered_resume<P, F>(sc: &Scenario, at: u64, factory: F)
where
    P: ProtocolState,
    F: FnMut(CellId, &Topology) -> P + Clone,
{
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    let cfg = SimConfig {
        latency: LatencyModel::Jitter { min: 50, max: 200 },
        ..sc.sim_config()
    };
    let cold = Engine::new(topo.clone(), cfg.clone(), factory.clone(), arrivals.clone()).run();
    let mut first = Engine::new(topo.clone(), cfg.clone(), factory.clone(), arrivals);
    assert!(
        first.run_until(SimTime(at)),
        "events must remain at the split"
    );
    let snap = first.snapshot();
    let mut second = Engine::restore(topo, cfg, factory, &snap)
        .expect("an engine's own snapshot restores under the same config");
    let again = second.snapshot();
    assert_eq!(second.run(), cold, "split run diverged from the cold run");
    assert!(
        again == snap,
        "snapshot → restore → snapshot changed the bytes"
    );
    assert!(cold.messages_total > 0, "no link was used");
}

#[test]
fn resume_under_jitter_carries_link_horizons() {
    // Under a latency that varies the engine keeps a FIFO horizon per
    // link, and a snapshot carries them: a restored engine that lost one
    // could deliver a message ahead of one sent before it on its link.
    // A mean hold of a third of the horizon, so that cells fill up and
    // borrow (adaptive is message-free until they do).
    let horizon = 3_000;
    let sc = Scenario::uniform(0.9, horizon)
        .with_grid(18, 18)
        .with_workload(WorkloadSpec::uniform(0.9, 1_000.0, horizon));
    let ac = sc.adaptive.clone();
    jittered_resume(&sc, horizon / 2, move |c, t: &Topology| {
        AdaptiveNode::new(c, t, ac.clone())
    });
    let bu = sc.basic_update.clone();
    jittered_resume(&sc, horizon / 2, move |c, t: &Topology| {
        BasicUpdateNode::new(c, t, bu.clone())
    });
}

#[test]
fn resume_on_a_torus_is_bit_identical() {
    // On a wrapped grid a region reaches both ends of the id range, so
    // a `NeighborView`'s slot table spans about all n ids (on an open
    // grid it spans 4·cols + 5): 14×14 round-trips that shape through
    // every scheme that keeps a view.
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
        let cold = sc.run(kind);
        let split = run_split(&sc, kind, horizon / 2);
        assert_eq!(
            cold.report, split.report,
            "{kind}: 14×14 torus snapshot/restore at T/2 diverged from the cold run"
        );
        assert!(cold.report.messages_total > 0, "{kind}: no link was used");
    }
}

#[test]
fn resume_with_partitions_is_bit_identical() {
    // Pins that the `config.partitions` section round-trips with a plan
    // in it: a split run under an active partition plan equals the cold
    // run.
    let sc = base(SchemeKind::Adaptive, false).with_faults(
        FaultPlan::none()
            .with_loss(0.02)
            .with_partition(CellId(7), CellId(8), 4_000, 8_000)
            .with_partition(CellId(20), CellId(21), 10_000, 6_000),
    );
    let sc = sc.with_hardening(400);
    let cold = sc.run(SchemeKind::Adaptive);
    let split = run_split(&sc, SchemeKind::Adaptive, HORIZON / 2);
    assert_eq!(
        cold.report, split.report,
        "partitioned run diverged across snapshot/restore"
    );
    assert!(
        cold.report.custom.get("partition_dropped") > 0,
        "partition plan must actually cut traffic for this pin to bite"
    );
}

#[test]
fn restore_under_different_partitions_is_a_mismatch() {
    let plan = FaultPlan::none().with_partition(CellId(7), CellId(8), 4_000, 8_000);
    let sc = base(SchemeKind::Adaptive, false).with_faults(plan.clone());
    let snap = sc.warmup_snapshot(SchemeKind::Adaptive, HORIZON / 2);
    let other = base(SchemeKind::Adaptive, false).with_faults(plan.with_partition(
        CellId(1),
        CellId(2),
        100,
        50,
    ));
    match other.resume_bytes(SchemeKind::Adaptive, &snap) {
        Err(DecodeError::Mismatch(msg)) => {
            assert!(msg.contains("partitions"), "unhelpful mismatch: {msg}")
        }
        other => panic!("differing partition plans must be a Mismatch, got {other:?}"),
    }
}

#[test]
fn restore_under_wrong_scheme_is_a_mismatch() {
    let sc = base(SchemeKind::Adaptive, false);
    let snap = sc.warmup_snapshot(SchemeKind::Fixed, HORIZON / 2);
    match sc.resume_bytes(SchemeKind::Adaptive, &snap) {
        Err(DecodeError::Mismatch(msg)) => {
            assert!(msg.contains("scheme"), "unhelpful mismatch: {msg}")
        }
        other => panic!("wrong-scheme restore must be a Mismatch, got {other:?}"),
    }
}

#[test]
fn restore_under_wrong_seed_is_a_mismatch() {
    let sc = base(SchemeKind::Adaptive, false);
    let snap = sc.warmup_snapshot(SchemeKind::BasicUpdate, HORIZON / 2);
    let other = sc.clone().with_seed(12345);
    match other.resume_bytes(SchemeKind::BasicUpdate, &snap) {
        Err(DecodeError::Mismatch(msg)) => {
            assert!(msg.contains("config."), "unhelpful mismatch: {msg}")
        }
        other => panic!("wrong-seed restore must be a Mismatch, got {other:?}"),
    }
}

#[test]
fn corrupted_and_truncated_snapshots_error_never_panic() {
    let sc = base(SchemeKind::Adaptive, false);
    let snap = sc.warmup_snapshot(SchemeKind::Adaptive, HORIZON / 2);

    // Empty and sub-envelope inputs.
    for len in [0usize, 1, 7, 8, 11, 19] {
        let res = sc.resume_bytes(SchemeKind::Adaptive, &snap[..len.min(snap.len())]);
        assert!(res.is_err(), "truncation to {len} bytes must error");
    }
    // Every truncation on a coarse grid plus the last few bytes.
    let mut cuts: Vec<usize> = (0..snap.len()).step_by(997).collect();
    cuts.extend(snap.len().saturating_sub(9)..snap.len());
    for cut in cuts {
        let res = sc.resume_bytes(SchemeKind::Adaptive, &snap[..cut]);
        assert!(
            res.is_err(),
            "truncation to {cut}/{} bytes must error",
            snap.len()
        );
    }
    // Single-bit flips across the whole snapshot (coarse stride keeps
    // this fast; the checksum must catch every one of them).
    for pos in (0..snap.len()).step_by(131) {
        let mut bad = snap.clone();
        bad[pos] ^= 1 << (pos % 8);
        let res = sc.resume_bytes(SchemeKind::Adaptive, &bad);
        assert!(res.is_err(), "bit flip at byte {pos} must error");
    }
    // Garbage of plausible length.
    let garbage: Vec<u8> = (0..snap.len()).map(|i| (i * 31 + 7) as u8).collect();
    assert!(sc.resume_bytes(SchemeKind::Adaptive, &garbage).is_err());
    // The untouched original still restores — corruption checks must
    // not depend on ambient state.
    assert!(sc.resume_bytes(SchemeKind::Adaptive, &snap).is_ok());
}

#[test]
fn missing_checkpoint_file_is_an_io_error() {
    let sc = base(SchemeKind::Adaptive, false);
    let missing = std::env::temp_dir().join("adca_resume_identity_nonexistent.ckpt");
    let _ = std::fs::remove_file(&missing);
    match sc.resume_from(SchemeKind::Adaptive, &missing) {
        Err(CheckpointError::Io(_)) => {}
        other => panic!("missing file must be CheckpointError::Io, got {other:?}"),
    }
}
