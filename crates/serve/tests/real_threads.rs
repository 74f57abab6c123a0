//! The schemes under genuinely nondeterministic interleavings: bursts on
//! the production backend's worker pool, every grant audited against
//! ground truth (Theorem 1), every request resolved (liveness), every
//! granted call completed (conservation) — with and without message
//! loss. Then the executor's own hand-over rules, with probe machines
//! in place of a scheme: two interfering grants raced on two workers
//! are audited one after the other, links are FIFO (start-up sends included), no
//! wake-up is lost, `quiesce` means the confirms can be taken, and a
//! call's `Granted` is never behind its `Released` — on one worker, on
//! even bands and on uneven ones. Last, what band ownership itself
//! promises: a band loaded alone completes, a lone worker's protocol
//! traffic never touches a mailbox, and two workers never wait on each
//! other's.

use adca_baselines::{
    BasicSearchConfig, BasicSearchNode, BasicUpdateConfig, BasicUpdateNode, FixedNode,
};
use adca_core::{AdaptiveConfig, AdaptiveNode};
use adca_hexgrid::{CellId, Channel, Topology};
use adca_serve::{
    AllocService, ChannelRequest, Confirm, Indication, ProductionAllocService, ProductionConfig,
    ServeStats,
};
use adca_simkit::rng::SplitMix64;
use adca_simkit::{Effects, RequestId, RequestKind, StateMachine};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
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

/// [`run_on`] the 5×5 grid with the default executor.
fn run<N, F>(factory: F, arrivals: Vec<Arrival>) -> ServeStats
where
    N: StateMachine + Send + 'static,
    N::Msg: Send + 'static,
    F: FnMut(CellId, &Topology) -> N,
{
    let cfg = ProductionConfig {
        ns_per_tick: NS_PER_TICK,
        ..Default::default()
    };
    run_on(topo(), cfg, factory, arrivals)
}

/// Offers `arrivals` on schedule to `factory`-built nodes, waits until
/// every request is resolved and every granted call has ended, and
/// returns the final counters.
fn run_on<N, F>(
    topo: Arc<Topology>,
    cfg: ProductionConfig,
    factory: F,
    mut arrivals: Vec<Arrival>,
) -> ServeStats
where
    N: StateMachine + Send + 'static,
    N::Msg: Send + 'static,
    F: FnMut(CellId, &Topology) -> N,
{
    arrivals.sort_by_key(|a| a.0);
    let ns_per_tick = cfg.ns_per_tick;
    let mut svc = ProductionAllocService::new(topo, cfg, factory);
    let epoch = Instant::now();
    for (at, cell, hold) in arrivals {
        let due = epoch + Duration::from_nanos(at * ns_per_tick);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        svc.request_channel(ChannelRequest::new_call(at, cell, hold))
            .expect("request accepted");
    }
    assert!(
        svc.quiesce(DEADLINE),
        "liveness: requests pending at deadline"
    );
    ended(&svc)
}

/// The final counters, once every granted call has ended.
fn ended(svc: &impl AllocService) -> ServeStats {
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

/// What the [`Stamper`]s of one service have seen, between them.
#[derive(Default)]
struct LinkProbe {
    sent: AtomicU64,
    received: AtomicU64,
    /// The first message that was not its link's next, if any.
    out_of_order: Mutex<Option<String>>,
}

/// A message carrying its number on its link (sender → receiver, from
/// 1) and how many more times it is to be passed on.
#[derive(Debug, Clone)]
struct Stamped {
    seq: u64,
    ttl: u32,
}

/// Link-FIFO probe: numbers what it sends a destination, checks that
/// what it gets from a sender is that sender's next, and passes every
/// message on to its neighbours in turn until the message's `ttl` is
/// spent. A request starts `FANOUT` such chains towards every
/// neighbour (so an activation's sends form runs) and is rejected at
/// once.
struct Stamper {
    region: Vec<CellId>,
    next_out: Vec<u64>,
    last_in: Vec<u64>,
    turn: usize,
    probe: Arc<LinkProbe>,
}

const FANOUT: usize = 2;
const TTL: u32 = 19;

impl Stamper {
    fn post(&mut self, to: CellId, ttl: u32, fx: &mut Effects<Stamped>) {
        self.next_out[to.index()] += 1;
        let seq = self.next_out[to.index()];
        // Counted before it is sent, so `received == sent` means
        // nothing is in flight.
        self.probe.sent.fetch_add(1, Ordering::SeqCst);
        fx.send(to, Stamped { seq, ttl });
    }
}

impl StateMachine for Stamper {
    type Msg = Stamped;

    fn msg_kind(_: &Stamped) -> &'static str {
        "STAMPED"
    }

    fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<Stamped>) {
        for k in 0..self.region.len() {
            for _ in 0..FANOUT {
                self.post(self.region[k], TTL, fx);
            }
        }
        fx.reject(req);
    }

    fn release(&mut self, _ch: Channel, _fx: &mut Effects<Stamped>) {}

    fn message(&mut self, from: CellId, msg: Stamped, fx: &mut Effects<Stamped>) {
        let last = &mut self.last_in[from.index()];
        if msg.seq != *last + 1 {
            let mut first = self.probe.out_of_order.lock().unwrap();
            first.get_or_insert_with(|| {
                format!("{} got #{} from {from} after #{last}", fx.me(), msg.seq)
            });
        }
        *last = msg.seq;
        if msg.ttl > 0 {
            let to = self.region[self.turn % self.region.len()];
            self.turn += 1;
            self.post(to, msg.ttl - 1, fx);
        }
        self.probe.received.fetch_add(1, Ordering::SeqCst);
    }
}

/// Links are FIFO however the cells are banded: a cell's activations
/// interleave with its neighbours' on other workers, and each must have
/// handed its sends over before the cell's next one can. Four workers
/// is the pool this test has always run; one worker has no neighbour
/// band at all, and three do not divide the 25 cells, so the bands are
/// uneven.
#[test]
fn links_are_fifo_across_activations_and_workers() {
    for workers in [4, 1, 3] {
        links_are_fifo(workers);
    }
}

fn links_are_fifo(workers: usize) {
    const CALLS_PER_CELL: u64 = 10;
    let probe = Arc::new(LinkProbe::default());
    let cfg = ProductionConfig {
        workers,
        // The probe is about order, not backpressure.
        mailbox_capacity: 1 << 20,
        ..Default::default()
    };
    let factory = {
        let probe = probe.clone();
        move |c: CellId, topo: &Topology| Stamper {
            region: topo.region(c).to_vec(),
            next_out: vec![0; topo.num_cells()],
            last_in: vec![0; topo.num_cells()],
            turn: 0,
            probe: probe.clone(),
        }
    };
    let mut svc = ProductionAllocService::new(topo(), cfg, factory);
    for (_, cell, _) in burst(CALLS_PER_CELL, 0) {
        svc.request_channel(ChannelRequest::new_call(0, cell, 0))
            .expect("request accepted");
    }
    assert!(svc.quiesce(DEADLINE), "requests pending at deadline");
    let deadline = Instant::now() + DEADLINE;
    let sent = loop {
        // In this order: a message is counted sent before it can be
        // counted received.
        let received = probe.received.load(Ordering::SeqCst);
        let sent = probe.sent.load(Ordering::SeqCst);
        if received == sent {
            break sent;
        }
        assert!(Instant::now() < deadline, "messages still in flight");
        std::thread::sleep(Duration::from_millis(1));
    };
    let first = probe.out_of_order.lock().unwrap().take();
    let run = format!("{workers} workers");
    assert_eq!(first, None, "{run}: a link reordered");
    assert!(sent >= 100_000, "{run}: only {sent} messages");
    let stats = svc.stats();
    assert_eq!(stats.messages, sent);
    assert_eq!(stats.rejected, 25 * CALLS_PER_CELL);
}

/// A [`Stamper`] that also starts `FANOUT` chains towards every
/// neighbour from `Input::Start`, before any worker runs.
struct EagerStamper(Stamper);

impl StateMachine for EagerStamper {
    type Msg = Stamped;

    fn msg_kind(msg: &Stamped) -> &'static str {
        Stamper::msg_kind(msg)
    }

    fn start(&mut self, fx: &mut Effects<Stamped>) {
        for k in 0..self.0.region.len() {
            for _ in 0..FANOUT {
                self.0.post(self.0.region[k], TTL, fx);
            }
        }
    }

    fn acquire(&mut self, req: RequestId, kind: RequestKind, fx: &mut Effects<Stamped>) {
        self.0.acquire(req, kind, fx);
    }

    fn release(&mut self, ch: Channel, fx: &mut Effects<Stamped>) {
        self.0.release(ch, fx);
    }

    fn message(&mut self, from: CellId, msg: Stamped, fx: &mut Effects<Stamped>) {
        self.0.message(from, msg, fx);
    }
}

/// A link takes one path for the service's whole lifetime, start-up
/// included: the chains every cell starts from `Input::Start` share
/// their links with the chains its requests start later, and must not
/// be overtaken by them. One worker has every link inside its band;
/// two and three (uneven bands) have links across a band edge too.
#[test]
fn start_up_sends_keep_their_links_fifo() {
    const CALLS_PER_CELL: u64 = 2;
    for workers in [1, 2, 3] {
        let probe = Arc::new(LinkProbe::default());
        let cfg = ProductionConfig {
            workers,
            mailbox_capacity: 1 << 20,
            ..Default::default()
        };
        let factory = {
            let probe = probe.clone();
            move |c: CellId, topo: &Topology| {
                EagerStamper(Stamper {
                    region: topo.region(c).to_vec(),
                    next_out: vec![0; topo.num_cells()],
                    last_in: vec![0; topo.num_cells()],
                    turn: 0,
                    probe: probe.clone(),
                })
            }
        };
        let mut svc = ProductionAllocService::new(topo(), cfg, factory);
        let at_start = probe.sent.load(Ordering::SeqCst);
        for (_, cell, _) in burst(CALLS_PER_CELL, 0) {
            svc.request_channel(ChannelRequest::new_call(0, cell, 0))
                .expect("request accepted");
        }
        assert!(svc.quiesce(DEADLINE), "requests pending at deadline");
        let deadline = Instant::now() + DEADLINE;
        let sent = loop {
            let received = probe.received.load(Ordering::SeqCst);
            let sent = probe.sent.load(Ordering::SeqCst);
            if received == sent {
                break sent;
            }
            assert!(Instant::now() < deadline, "messages still in flight");
            std::thread::sleep(Duration::from_millis(1));
        };
        let first = probe.out_of_order.lock().unwrap().take();
        let run = format!("{workers} workers");
        assert_eq!(first, None, "{run}: a link reordered");
        // Every cell has neighbours, so each started chains.
        assert!(at_start >= 25 * FANOUT as u64, "{run}: {at_start} at start");
        let stats = svc.stats();
        assert_eq!(stats.messages, sent, "{run}");
        assert_eq!(stats.rejected, 25 * CALLS_PER_CELL, "{run}");
    }
}

/// Rejects every request at once: the executor with no protocol in it.
struct Refuser;

impl StateMachine for Refuser {
    type Msg = ();

    fn msg_kind(_: &()) -> &'static str {
        "NONE"
    }

    fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<()>) {
        fx.reject(req);
    }

    fn release(&mut self, _ch: Channel, _fx: &mut Effects<()>) {}

    fn message(&mut self, _from: CellId, _msg: (), _fx: &mut Effects<()>) {}
}

/// No lost wake-up: three threads push at one cell while its worker
/// takes its mailbox, runs the cell, finds its ready list empty and
/// parks on the mailbox again. A push that the worker's last look
/// misses and that does not wake it either would strand its event —
/// and, being among the last of its round, nothing would come to the
/// rescue: `quiesce` would hit the watchdog.
///
/// Two workers is the pool this test has always run; with one the
/// pushers race the only worker there is, with three the bands are
/// uneven.
#[test]
fn no_wakeup_is_lost_between_pushers_and_a_draining_worker() {
    for workers in [2, 1, 3] {
        no_wakeup_is_lost(workers);
    }
}

fn no_wakeup_is_lost(workers: usize) {
    const ROUNDS: usize = 400;
    const PUSHERS: usize = 3;
    const PER_ROUND: usize = 6;
    let cfg = ProductionConfig {
        workers,
        ..Default::default()
    };
    let mut svc = ProductionAllocService::new(topo(), cfg, |_, _: &Topology| Refuser);
    let barrier = Arc::new(Barrier::new(PUSHERS + 1));
    let pushers: Vec<_> = (0..PUSHERS)
        .map(|_| {
            let (mut svc, barrier) = (svc.clone(), barrier.clone());
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    for _ in 0..PER_ROUND {
                        svc.request_channel(ChannelRequest::new_call(0, CellId(7), 0))
                            .expect("request accepted");
                    }
                    barrier.wait();
                }
            })
        })
        .collect();
    for round in 0..ROUNDS {
        barrier.wait();
        barrier.wait();
        assert!(
            svc.quiesce(Duration::from_secs(10)),
            "{workers} workers, round {round}: an event was stranded in the mailbox"
        );
        let mut confirms = 0;
        while svc.confirm().is_some() {
            confirms += 1;
        }
        assert_eq!(
            confirms,
            PUSHERS * PER_ROUND,
            "{workers} workers, round {round}"
        );
    }
    for p in pushers {
        p.join().unwrap();
    }
    assert_eq!(svc.stats().rejected, (ROUNDS * PUSHERS * PER_ROUND) as u64);
}

/// `quiesce` returning `true` means the confirms are there to take, not
/// merely on their way.
#[test]
fn quiesce_means_the_confirm_is_visible() {
    let cfg = ProductionConfig {
        workers: 2,
        ..Default::default()
    };
    let mut svc = ProductionAllocService::new(topo(), cfg, FixedNode::new);
    for k in 0..10_000u32 {
        let t = svc
            .request_channel(ChannelRequest::new_call(0, CellId(k % 25), 0))
            .expect("request accepted");
        assert!(svc.quiesce(DEADLINE), "request {k} pending at deadline");
        let c = svc.confirm().expect("resolved at quiescence");
        assert_eq!(c.ticket(), t);
        while svc.indication().is_some() {}
    }
    assert_clean(&svc.stats());
}

/// With zero holds a call ends at its worker's next round, and still its
/// `Released` never overtakes its `Granted`: whenever the indication is
/// out, the confirm was taken earlier or is waiting in the queue.
#[test]
fn granted_is_published_before_released() {
    const CALLS: u32 = 20_000;
    /// Requests in flight: two or three a cell against ten primaries.
    const WINDOW: u32 = 64;
    /// The confirms taken so far.
    #[derive(Default)]
    struct Taken {
        resolved: u32,
        granted: u32,
        /// Granted and not yet released.
        up: HashSet<u64>,
    }
    impl Taken {
        fn note(&mut self, c: Confirm) {
            self.resolved += 1;
            if c.is_granted() {
                self.granted += 1;
                self.up.insert(c.ticket().0);
            }
        }
    }
    let cfg = ProductionConfig {
        workers: 4,
        ..Default::default()
    };
    let mut svc = ProductionAllocService::new(topo(), cfg, FixedNode::new);
    let mut taken = Taken::default();
    let (mut offered, mut released) = (0u32, 0u32);
    let deadline = Instant::now() + DEADLINE;
    while taken.resolved < CALLS || released < taken.granted {
        assert!(Instant::now() < deadline, "calls unresolved at deadline");
        while offered < CALLS && offered - taken.resolved < WINDOW {
            svc.request_channel(ChannelRequest::new_call(0, CellId(offered % 25), 0))
                .expect("request accepted");
            offered += 1;
        }
        // Indications first: the confirms are looked at only once a
        // `Released` is in hand, when its `Granted` must be out.
        if let Some(Indication::Released { ticket, .. }) = svc.indication() {
            released += 1;
            if !taken.up.remove(&ticket.0) {
                while let Some(c) = svc.confirm() {
                    taken.note(c);
                }
                assert!(
                    taken.up.remove(&ticket.0),
                    "{ticket} was released before its grant was published"
                );
            }
        } else if let Some(c) = svc.recv_confirm(Duration::from_millis(1)) {
            taken.note(c);
        }
    }
    // How many depends on how soon after its grant a call's worker
    // ends it (at a round start, once the zero hold is due); the rule
    // needs only that plenty were granted and released.
    assert!(taken.granted > CALLS / 10, "granted {}", taken.granted);
    let stats = svc.stats();
    assert_clean(&stats);
    assert_eq!(stats.granted, taken.granted as u64);
    assert_eq!(stats.completed, released as u64);
}

/// Grants channel 0 to every request: a protocol that breaks Theorem 1
/// whenever two interfering cells hold a call at once.
struct Greedy;

impl StateMachine for Greedy {
    type Msg = ();

    fn msg_kind(_: &()) -> &'static str {
        "NONE"
    }

    fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<()>) {
        fx.grant(req, Channel(0));
    }

    fn release(&mut self, _ch: Channel, _fx: &mut Effects<()>) {}

    fn message(&mut self, _from: CellId, _msg: (), _fx: &mut Effects<()>) {}
}

/// Two interfering cells on two workers are granted the same channel in
/// the same burst, a round at a time: whichever grant is audited second
/// must see the first. Exactly one violation a round — never none (a
/// check that is not one critical section with its commit lets both
/// pass), never two.
#[test]
fn racing_interferers_on_two_workers_get_one_verdict_a_round() {
    const ROUNDS: usize = 2_000;
    /// Longer than the test: only the releases end a call.
    const HOLD: u64 = 60_000_000_000;
    let topo = Arc::new(Topology::builder(1, 2).channels(7).build());
    let (a, b) = (CellId(0), CellId(1));
    assert!(topo.in_region(a, b), "the two cells must interfere");
    let cfg = ProductionConfig {
        workers: 2,
        ns_per_tick: 1,
        ..Default::default()
    };
    let mut svc = ProductionAllocService::new(topo, cfg, |_, _: &Topology| Greedy);
    let burst = [
        ChannelRequest::new_call(0, a, HOLD),
        ChannelRequest::new_call(0, b, HOLD),
    ];
    let (mut tickets, mut confirms, mut released) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        tickets.clear();
        svc.request_channels(&burst, &mut tickets);
        for _ in 0..2 {
            let c = svc.recv_confirm(DEADLINE).expect("confirmed in time");
            assert!(c.is_granted(), "round {round}: {c:?}");
        }
        for t in &tickets {
            svc.release(*t.as_ref().expect("request accepted"))
                .expect("a granted ticket releases");
        }
        released.clear();
        let deadline = Instant::now() + DEADLINE;
        while released.len() < 2 {
            assert!(Instant::now() < deadline, "round {round}: not released");
            svc.recv_answers(DEADLINE, &mut confirms, &mut released);
        }
        assert!(confirms.is_empty(), "round {round}: {confirms:?}");
    }
    let violations = svc.stats().violations;
    assert_eq!(
        violations.len(),
        ROUNDS,
        "{:?}",
        &violations[..4.min(violations.len())]
    );
    for v in &violations {
        assert!(v.starts_with("interference at t"), "{v}");
    }
}

fn six_by_six() -> Arc<Topology> {
    Arc::new(Topology::builder(6, 6).channels(70).build())
}

/// There is no stealing, so a band loaded alone is served by its own
/// worker — and served to the end: 14 calls a cell against 10 primaries
/// on the 18 cells of band 0 (rows 0–2 of the 6×6 under two workers),
/// none on band 1, whose worker only answers what the borrowers ask
/// across the band edge. Every request gets exactly one confirm.
#[test]
fn a_hot_band_completes_on_its_own_worker() {
    const CALLS_PER_CELL: u64 = 14;
    let cfg = ProductionConfig {
        workers: 2,
        ns_per_tick: NS_PER_TICK,
        ..Default::default()
    };
    let ac = AdaptiveConfig::default();
    let mut svc = ProductionAllocService::new(six_by_six(), cfg, move |c, topo: &Topology| {
        AdaptiveNode::new(c, topo, ac.clone())
    });
    let mut open = HashSet::new();
    for k in 0..CALLS_PER_CELL {
        for c in 0..18u32 {
            let t = svc
                .request_channel(ChannelRequest::new_call(k, CellId(c), 40_000))
                .expect("request accepted");
            assert!(open.insert(t.0));
        }
    }
    assert!(svc.quiesce(DEADLINE), "requests pending at deadline");
    let mut granted = 0;
    while let Some(c) = svc.confirm() {
        assert!(open.remove(&c.ticket().0), "{} confirmed twice", c.ticket());
        granted += u64::from(c.is_granted());
    }
    assert!(open.is_empty(), "unconfirmed at quiescence: {open:?}");
    let stats = svc.stats();
    assert_clean(&stats);
    assert_eq!(stats.offered, 18 * CALLS_PER_CELL);
    assert_eq!(stats.granted, granted);
    // More than the primaries alone could carry: cells did borrow.
    assert!(granted > 18 * 10, "granted {granted}");
}

/// With one worker, only admissions meet a full mailbox, and the run
/// ends within its holds. Every cell is in the worker's band, so every
/// protocol send goes into a cell's inbox, and a borrowing load sends
/// thousands of them; the timers and call ends are the worker's own
/// too. What still goes through the worker's mailbox — bounded at one
/// event a cell, 36 for the band — is what the caller hands over: 504
/// admissions, one at a time, a run of one each. So only those can find it full, and they
/// do: 13 times in each of 20 runs of this test (release and debug). A
/// caller waits on a full mailbox only until the worker's next round
/// takes it, so the run takes its holds and under 80 ms more (2–16 ms
/// more in those runs). A worker's push never waits, so this test
/// cannot tell a protocol send put through the mailbox from one filed
/// in an inbox; `a_handoff_acquire_is_taken_before_what_waits` (in
/// `production`) pins that a send within the band is filed in the
/// inbox.
#[test]
fn only_admissions_meet_a_full_mailbox_and_the_run_ends_within_its_holds() {
    const HOLD: u64 = 40_000;
    let cfg = ProductionConfig {
        workers: 1,
        ns_per_tick: NS_PER_TICK,
        mailbox_capacity: 1,
    };
    let holds = Duration::from_nanos(HOLD * NS_PER_TICK);
    let arrivals = (0..36u32)
        .flat_map(|c| (0..14).map(move |k| (k, CellId(c), HOLD)))
        .collect();
    let ac = AdaptiveConfig::default();
    let began = Instant::now();
    let stats = run_on(
        six_by_six(),
        cfg,
        move |c, topo| AdaptiveNode::new(c, topo, ac.clone()),
        arrivals,
    );
    let took = began.elapsed();
    assert_clean(&stats);
    assert_eq!(stats.granted + stats.rejected, 36 * 14);
    assert_eq!(stats.completed, stats.granted);
    assert!(
        stats.messages >= 5_000,
        "the load did not borrow: {} messages",
        stats.messages
    );
    let stalls = stats.backpressure_stalls;
    assert!(stalls >= 5, "the load did not fill the mailbox: {stalls}");
    assert!(
        stalls <= stats.offered,
        "{stalls} full-mailbox runs from {} admissions",
        stats.offered
    );
    assert!(
        took < holds + Duration::from_millis(80),
        "{took:?} for holds of {holds:?} and {stalls} full-mailbox runs"
    );
}

/// Two workers never wait on each other. A mailbox's bound — one event
/// a cell, 18 for a band — holds for callers only: what a worker sends
/// across the band edge goes into the other worker's mailbox at once,
/// however full, so the borrowing load's edge traffic stalls nothing.
/// The one caller admits 14 calls a cell as one burst, one run a worker,
/// so at most those 2 pushes can wait. Every request gets one confirm
/// and every granted call ends.
#[test]
fn two_workers_never_wait_on_each_other() {
    const CALLS_PER_CELL: u64 = 14;
    let cfg = ProductionConfig {
        workers: 2,
        ns_per_tick: NS_PER_TICK,
        mailbox_capacity: 1,
    };
    let ac = AdaptiveConfig::default();
    let mut svc = ProductionAllocService::new(six_by_six(), cfg, move |c, topo: &Topology| {
        AdaptiveNode::new(c, topo, ac.clone())
    });
    let burst: Vec<ChannelRequest> = (0..CALLS_PER_CELL)
        .flat_map(|k| (0..36u32).map(move |c| ChannelRequest::new_call(k, CellId(c), 40_000)))
        .collect();
    let mut tickets = Vec::new();
    svc.request_channels(&burst, &mut tickets);
    let mut open: HashSet<u64> = tickets
        .iter()
        .map(|t| t.as_ref().expect("request accepted").0)
        .collect();
    assert_eq!(open.len(), burst.len(), "one ticket a request");
    assert!(svc.quiesce(DEADLINE), "requests pending at deadline");
    while let Some(c) = svc.confirm() {
        assert!(open.remove(&c.ticket().0), "{} confirmed twice", c.ticket());
    }
    assert!(open.is_empty(), "unconfirmed at quiescence: {open:?}");
    let stats = ended(&svc);
    assert_clean(&stats);
    assert!(
        stats.messages >= 5_000,
        "the load did not borrow: {} messages",
        stats.messages
    );
    let stalls = stats.backpressure_stalls;
    assert!(
        stalls <= 2,
        "{stalls} full-mailbox runs from 2 admission runs"
    );
}
