//! Full-report determinism across schedulers and worker pools.
//!
//! The reproduction's tables are only trustworthy if a run is a pure
//! function of `(topology, workload, seed, config)`. These tests pin
//! that at the strongest level — whole-[`SimReport`] equality, covering
//! every counter, per-cell tally, histogram and sample series — for the
//! adaptive scheme under *jittered* latency (the adversarial case: the
//! per-link FIFO clamp and the RNG stream both feed event timing), for
//! the engine's two delivery paths against each other, and for the
//! parallel sweep runner against its sequential equivalent.

use adca_baselines::{
    AdvancedSearchNode, AdvancedUpdateNode, BasicSearchNode, BasicUpdateNode, FixedNode,
};
use adca_core::AdaptiveNode;
use adca_harness::{run_jobs, run_jobs_on, Scenario, SchemeKind};
use adca_hexgrid::Topology;
use adca_simkit::engine::run_protocol;
use adca_simkit::{AuditMode, FaultPlan, LatencyModel, SimConfig, SimReport};
use adca_traffic::WorkloadSpec;

/// One adaptive run on a 6x6 grid with jittered message latency.
fn jittered_adaptive_run(seed: u64) -> SimReport {
    let mut sc = Scenario::uniform(1.0, 40_000).with_grid(6, 6);
    sc.workload = sc.workload.with_seed(seed);
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    let cfg = SimConfig {
        latency: LatencyModel::Jitter { min: 50, max: 200 },
        seed,
        ..Default::default()
    };
    let ac = sc.adaptive.clone();
    run_protocol(
        topo,
        cfg,
        move |c, t| AdaptiveNode::new(c, t, ac.clone()),
        arrivals,
    )
}

#[test]
fn adaptive_under_jitter_is_bit_identical_across_runs() {
    for seed in [3, 17] {
        let r1 = jittered_adaptive_run(seed);
        let r2 = jittered_adaptive_run(seed);
        r1.assert_clean();
        assert_eq!(r1, r2, "seed {seed}: reports diverge between runs");
    }
}

/// One run of `kind` over `sc`'s topology and workload under `sc`'s
/// engine configuration with the latency model replaced.
fn run_under(sc: &Scenario, kind: SchemeKind, latency: LatencyModel) -> SimReport {
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    let cfg = SimConfig {
        latency,
        ..sc.sim_config()
    };
    match kind {
        SchemeKind::Fixed => run_protocol(topo, cfg, FixedNode::new, arrivals),
        SchemeKind::BasicSearch => {
            let bs = sc.basic_search.clone();
            let factory = move |c, t: &Topology| BasicSearchNode::with_config(c, t, bs.clone());
            run_protocol(topo, cfg, factory, arrivals)
        }
        SchemeKind::BasicUpdate => {
            let bu = sc.basic_update.clone();
            let factory = move |c, t: &Topology| BasicUpdateNode::new(c, t, bu.clone());
            run_protocol(topo, cfg, factory, arrivals)
        }
        SchemeKind::AdvancedUpdate => run_protocol(topo, cfg, AdvancedUpdateNode::new, arrivals),
        SchemeKind::AdvancedSearch => run_protocol(topo, cfg, AdvancedSearchNode::new, arrivals),
        SchemeKind::Adaptive => {
            let ac = sc.adaptive.clone();
            let factory = move |c, t: &Topology| AdaptiveNode::new(c, t, ac.clone());
            run_protocol(topo, cfg, factory, arrivals)
        }
    }
}

/// The engine delivers two ways and picks by the latency model: under
/// `Fixed(T)` a send is pushed into the queue's in-order lane and no
/// per-link horizon exists; under anything else it is clamped to its
/// link's horizon and pushed into the ring. `Jitter { min: T, max: T }`
/// draws `T` every time, so it is the same simulation on the other path,
/// and the two must agree on the whole report — fault-free, and with
/// loss and duplication, where same-tick copies and retry timers sit
/// between deliveries. A retry deadline of `4T` is what e12 runs; one of
/// exactly `T` arms every timer on the tick of the deliveries sent just
/// before it, so that lane and ring entries tie and push order decides.
/// (The jitter draws come from a stream of their own and move nothing
/// else.)
#[test]
fn lane_and_ring_deliveries_give_equal_reports() {
    let jobs: Vec<_> = SchemeKind::ALL
        .into_iter()
        .flat_map(|kind| [None, Some(400), Some(100)].map(|deadline| (kind, deadline)))
        .map(|(kind, deadline)| {
            move || {
                let mut sc = Scenario::uniform(0.9, 24_000).with_grid(6, 6);
                if let Some(d) = deadline {
                    // As e12 does: the schemes without retry hardening can
                    // strand a request under loss, so theirs is recorded.
                    sc = sc
                        .with_hardening(d)
                        .with_watchdog(None)
                        .with_faults(FaultPlan::none().with_loss(0.02).with_duplication(0.01));
                    sc.audit = AuditMode::Record;
                }
                let t = sc.t_ticks;
                let lane = run_under(&sc, kind, LatencyModel::Fixed(t));
                let ring = run_under(&sc, kind, LatencyModel::Jitter { min: t, max: t });
                (kind, deadline, lane, ring)
            }
        })
        .collect();
    for (kind, deadline, lane, ring) in run_jobs(jobs) {
        let sends = kind != SchemeKind::Fixed;
        assert_eq!(lane.messages_total > 0, sends, "{kind}");
        if deadline.is_some() {
            assert_eq!(lane.messages_lost > 0, sends, "{kind}");
            assert_eq!(lane.messages_duplicated > 0, sends, "{kind}");
        } else {
            lane.assert_clean();
        }
        // (Not `assert_eq!`: two reports are a few hundred lines.)
        assert!(
            lane == ring,
            "{kind}, retry deadline {deadline:?}: the delivery paths diverge"
        );
    }
}

#[test]
fn parallel_sweep_matches_sequential_sweep() {
    // The same job set through a 1-worker pool and a 4-worker pool must
    // produce identical reports in identical order: each run stays
    // single-threaded, so pool size may only change wall-clock.
    let jobs = || -> Vec<Box<dyn FnOnce() -> SimReport + Send>> {
        let mut jobs: Vec<Box<dyn FnOnce() -> SimReport + Send>> = Vec::new();
        for seed in [5u64, 6, 7, 8] {
            for kind in [SchemeKind::Adaptive, SchemeKind::BasicSearch] {
                jobs.push(Box::new(move || {
                    let sc = Scenario::uniform(0.8, 30_000)
                        .with_grid(6, 6)
                        .with_workload(WorkloadSpec::uniform(0.8, 5_000.0, 30_000).with_seed(seed));
                    sc.run(kind).report
                }));
            }
        }
        jobs
    };
    let sequential = run_jobs_on(1, jobs());
    let parallel = run_jobs_on(4, jobs());
    assert_eq!(sequential.len(), parallel.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "job {i}: parallel report diverges from sequential");
    }
}
