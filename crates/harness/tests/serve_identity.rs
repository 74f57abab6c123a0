//! The deterministic serving backend must be a *faithful replay* of the
//! engine: feeding a scenario's own workload through
//! [`Scenario::serve`]'s request/quiesce path has to reproduce
//! `Scenario::run`'s `SimReport` bit for bit, for every scheme. This is
//! the contract that makes service-level tests reproducible (DESIGN.md
//! §6).

use adca_harness::{Scenario, SchemeKind};
use adca_hexgrid::CellId;
use adca_serve::ChannelRequest;
use adca_simkit::FaultPlan;
use std::time::Duration;

/// A stationary scenario (the service trait expresses new-call requests;
/// handoffs are engine-internal mobility plans, out of its vocabulary).
fn scenario() -> Scenario {
    Scenario::uniform(0.8, 25_000).with_grid(6, 6).with_seed(42)
}

#[test]
fn des_backend_report_is_bit_identical_to_engine_run() {
    let sc = scenario();
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    assert!(
        arrivals.iter().all(|a| a.hops.is_empty()),
        "identity scenario must be stationary"
    );
    for kind in SchemeKind::ALL {
        let direct = sc.run(kind).report;
        let mut svc = sc.serve(kind);
        for a in &arrivals {
            svc.request_channel(ChannelRequest::new_call(a.at, a.cell, a.duration))
                .expect("buffering accepts every request");
        }
        assert!(svc.quiesce(Duration::from_secs(120)), "replay completes");
        let served = svc.sim_report().expect("report exists after quiesce");
        assert_eq!(
            *served, direct,
            "{kind:?}: served replay diverged from Scenario::run"
        );
        // The service-level view must agree with the report's totals.
        let stats = svc.stats();
        assert_eq!(stats.offered, direct.offered_calls);
        assert_eq!(stats.granted, direct.granted);
    }
}

#[test]
fn des_backend_confirms_match_report_totals() {
    let sc = scenario();
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    let mut svc = sc.serve(SchemeKind::Adaptive);
    for a in &arrivals {
        svc.request_channel(ChannelRequest::new_call(a.at, a.cell, a.duration))
            .unwrap();
    }
    assert!(svc.quiesce(Duration::from_secs(120)));
    let report = svc.sim_report().unwrap().clone();
    let (mut granted, mut rejected) = (0u64, 0u64);
    while let Some(c) = svc.confirm() {
        if c.is_granted() {
            granted += 1;
        } else {
            rejected += 1;
        }
    }
    assert_eq!(granted, report.granted);
    assert_eq!(granted + rejected, report.offered_calls);
    let mut released = 0u64;
    while svc.indication().is_some() {
        released += 1;
    }
    assert_eq!(released, granted, "every granted call ends");
}

/// A call a crash kills still ends: the replay gives it a `Released` at
/// its end tick, so `stats().completed` counts it with the calls that
/// ran their hold out, and every grant is released exactly once.
#[test]
fn des_backend_completed_counts_crash_killed_calls() {
    let sc = Scenario::uniform(0.8, 40_000)
        .with_grid(6, 6)
        .with_hardening(400)
        .with_faults(FaultPlan::none().with_crash(CellId(7), 10_000, 5_000));
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    for kind in [
        SchemeKind::Fixed,
        SchemeKind::Adaptive,
        SchemeKind::BasicSearch,
    ] {
        let mut svc = sc.serve(kind);
        for a in &arrivals {
            svc.request_channel(ChannelRequest::new_call(a.at, a.cell, a.duration))
                .unwrap();
        }
        assert!(svc.quiesce(Duration::from_secs(120)));
        let report = svc.sim_report().unwrap();
        assert!(
            report.custom.get("crash_killed_calls") > 0,
            "{kind:?}: the crash must kill a call"
        );
        let mut released = 0u64;
        while svc.indication().is_some() {
            released += 1;
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, released, "{kind:?}");
        assert_eq!(stats.completed, stats.granted, "{kind:?}");
    }
}
