//! The schemes under genuinely nondeterministic interleavings: bursts on
//! the production backend's worker pool, every grant audited against
//! ground truth (Theorem 1), every request resolved (liveness), every
//! granted call completed (conservation) — with and without message
//! loss.

use adca_baselines::{BasicSearchConfig, BasicSearchNode, BasicUpdateConfig, BasicUpdateNode};
use adca_core::{AdaptiveConfig, AdaptiveNode};
use adca_hexgrid::{CellId, Channel, Topology};
use adca_serve::{
    AllocService, ChannelRequest, ProductionAllocService, ProductionConfig, ServeStats,
};
use adca_simkit::rng::SplitMix64;
use adca_simkit::{Effects, RequestId, RequestKind, StateMachine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NS_PER_TICK: u64 = 500;
const DEADLINE: Duration = Duration::from_secs(30);

fn topo() -> Arc<Topology> {
    Arc::new(Topology::builder(5, 5).channels(70).build())
}

/// One offered call: arrival tick, cell, holding ticks.
type Arrival = (u64, CellId, u64);

/// Burst arrivals across the whole grid: maximal thread contention.
fn burst(calls_per_cell: u64, duration: u64) -> Vec<Arrival> {
    let mut v = Vec::new();
    for c in 0..25u32 {
        for k in 0..calls_per_cell {
            v.push((k, CellId(c), duration));
        }
    }
    v
}

/// Offers `arrivals` on schedule to `factory`-built nodes, waits until
/// every request is resolved and every granted call has ended, and
/// returns the final counters.
fn run<N, F>(factory: F, mut arrivals: Vec<Arrival>) -> ServeStats
where
    N: StateMachine + Send + 'static,
    N::Msg: Send + 'static,
    F: FnMut(CellId, &Topology) -> N,
{
    arrivals.sort_by_key(|a| a.0);
    let cfg = ProductionConfig {
        ns_per_tick: NS_PER_TICK,
        ..Default::default()
    };
    let mut svc = ProductionAllocService::new(topo(), cfg, factory);
    let epoch = Instant::now();
    for (at, cell, hold) in arrivals {
        let due = epoch + Duration::from_nanos(at * NS_PER_TICK);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        svc.request_channel(ChannelRequest::new_call(at, cell, hold))
            .expect("request accepted");
    }
    assert!(
        svc.quiesce(DEADLINE),
        "liveness: requests pending at deadline"
    );
    let deadline = Instant::now() + DEADLINE;
    loop {
        let stats = svc.stats();
        if stats.completed == stats.granted {
            return stats;
        }
        assert!(Instant::now() < deadline, "granted calls never ended");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn assert_clean(stats: &ServeStats) {
    assert!(
        stats.violations.is_empty(),
        "violations: {:?}",
        stats.violations
    );
}

/// Fault injection as a wrapper over the one protocol interface: the
/// wrapped node never sees a seeded 5 % of the messages sent to it.
struct Lossy<N> {
    node: N,
    rng: SplitMix64,
    lost: Arc<AtomicU64>,
}

/// Wraps every node `factory` builds in a [`Lossy`] with its own RNG
/// stream; the returned counter totals the drops.
fn lossy<N>(
    mut factory: impl FnMut(CellId, &Topology) -> N,
) -> (impl FnMut(CellId, &Topology) -> Lossy<N>, Arc<AtomicU64>) {
    let lost = Arc::new(AtomicU64::new(0));
    let counter = lost.clone();
    let wrap = move |cell: CellId, topo: &Topology| Lossy {
        node: factory(cell, topo),
        rng: SplitMix64::new(0xFA_0175 ^ cell.0 as u64),
        lost: lost.clone(),
    };
    (wrap, counter)
}

impl<N: StateMachine> StateMachine for Lossy<N> {
    type Msg = N::Msg;

    fn msg_kind(msg: &Self::Msg) -> &'static str {
        N::msg_kind(msg)
    }

    fn start(&mut self, fx: &mut Effects<Self::Msg>) {
        self.node.start(fx);
    }

    fn acquire(&mut self, req: RequestId, kind: RequestKind, fx: &mut Effects<Self::Msg>) {
        self.node.acquire(req, kind, fx);
    }

    fn release(&mut self, ch: Channel, fx: &mut Effects<Self::Msg>) {
        self.node.release(ch, fx);
    }

    fn message(&mut self, from: CellId, msg: Self::Msg, fx: &mut Effects<Self::Msg>) {
        if self.rng.next_f64() < 0.05 {
            self.lost.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.node.message(from, msg, fx);
    }

    fn timer(&mut self, tag: u64, fx: &mut Effects<Self::Msg>) {
        self.node.timer(tag, fx);
    }

    fn restart(&mut self, fx: &mut Effects<Self::Msg>) {
        self.node.restart(fx);
    }
}

#[test]
fn adaptive_is_safe_under_real_threads() {
    let ac = AdaptiveConfig::default();
    let stats = run(
        move |c, topo| AdaptiveNode::new(c, topo, ac.clone()),
        burst(12, 40_000),
    );
    assert_clean(&stats);
    assert_eq!(stats.offered, 300);
    assert_eq!(stats.granted + stats.rejected, 300);
    assert_eq!(stats.completed, stats.granted);
    assert!(stats.granted >= 250, "granted {}", stats.granted);
}

#[test]
fn basic_update_is_safe_under_real_threads() {
    let stats = run(
        |c, topo| BasicUpdateNode::new(c, topo, BasicUpdateConfig::default()),
        burst(6, 30_000),
    );
    assert_clean(&stats);
    assert_eq!(stats.granted + stats.rejected, 150);
    assert!(stats.messages > 0);
}

#[test]
fn basic_search_is_safe_under_real_threads() {
    let stats = run(BasicSearchNode::new, burst(6, 30_000));
    assert_clean(&stats);
    assert_eq!(stats.granted + stats.rejected, 150);
}

#[test]
fn adaptive_survives_message_loss_with_retries() {
    // 5% of all control messages vanish; the hardened protocol must
    // still resolve every request (liveness) without a single
    // interference violation (Theorem 1 audit stays on).
    let ac = AdaptiveConfig {
        retry_ticks: Some(2_000),
        ..Default::default()
    };
    let (factory, lost) = lossy(move |c, topo| AdaptiveNode::new(c, topo, ac.clone()));
    let stats = run(factory, burst(12, 40_000));
    assert_clean(&stats);
    assert_eq!(stats.granted + stats.rejected, 300);
    assert!(
        lost.load(Ordering::Relaxed) > 0,
        "5% loss must actually drop"
    );
}

#[test]
fn basic_search_survives_message_loss_with_retries() {
    let bc = BasicSearchConfig {
        retry_ticks: Some(2_000),
        max_retries: 8,
    };
    let (factory, lost) = lossy(move |c, topo| BasicSearchNode::with_config(c, topo, bc.clone()));
    let stats = run(factory, burst(4, 20_000));
    assert_clean(&stats);
    assert_eq!(stats.granted + stats.rejected, 100);
    assert!(lost.load(Ordering::Relaxed) > 0);
}

#[test]
fn staggered_load_completes() {
    let arrivals = (0..200u64)
        .map(|k| (k * 50, CellId((k % 25) as u32), 5_000))
        .collect();
    let ac = AdaptiveConfig::default();
    let stats = run(
        move |c, topo| AdaptiveNode::new(c, topo, ac.clone()),
        arrivals,
    );
    assert_clean(&stats);
    assert_eq!(stats.granted, 200, "light load must grant everything");
}
