//! `AllocService::recv_answers`, the draining call: every answer taken
//! exactly once and in queue order, nothing at timeout, a wake for a
//! publication of indications alone, a second handle taking from the
//! same queues, and a handoff's `Released` never ahead of its source's
//! `Granted` — on the production backend's override and, through the
//! default body, on the deterministic backend.

use adca_baselines::FixedNode;
use adca_hexgrid::{CellId, Channel, Topology};
use adca_serve::{
    AllocService, ChannelRequest, Confirm, DesAllocService, Indication, ProductionAllocService,
    ProductionConfig, ServeError,
};
use adca_simkit::{Effects, RequestId, RequestKind, SimConfig, StateMachine};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);
const DAY: u64 = 86_400 * 10_000_000; // in 100 ns ticks

fn topo() -> Arc<Topology> {
    Arc::new(Topology::builder(5, 5).channels(70).build())
}

fn production(workers: usize) -> ProductionAllocService<FixedNode> {
    let cfg = ProductionConfig {
        workers,
        ..Default::default()
    };
    ProductionAllocService::new(topo(), cfg, FixedNode::new)
}

fn ticket_of(i: &Indication) -> u64 {
    let Indication::Released { ticket, .. } = i;
    ticket.0
}

/// Zero holds, so every `Released` is right behind its `Granted`: each
/// answer is taken exactly once, and a `Released` never by an earlier
/// call than its `Granted` (both queues are taken under one lock).
#[test]
fn production_takes_every_answer_once_and_a_grant_no_later_than_its_release() {
    const CALLS: u64 = 20_000;
    const WINDOW: u64 = 64;
    let mut svc = production(4);
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    let mut resolved: HashSet<u64> = HashSet::new();
    let mut up: HashSet<u64> = HashSet::new();
    let (mut offered, mut granted, mut released) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + DEADLINE;
    while (resolved.len() as u64) < CALLS || released < granted {
        assert!(Instant::now() < deadline, "calls unresolved at deadline");
        while offered < CALLS && offered - (resolved.len() as u64) < WINDOW {
            svc.request_channel(ChannelRequest::new_call(
                0,
                CellId((offered % 25) as u32),
                0,
            ))
            .expect("request accepted");
            offered += 1;
        }
        svc.recv_answers(Duration::from_millis(1), &mut confirms, &mut indications);
        for c in confirms.drain(..) {
            assert!(resolved.insert(c.ticket().0), "{} twice", c.ticket());
            if c.is_granted() {
                granted += 1;
                up.insert(c.ticket().0);
            }
        }
        for i in indications.drain(..) {
            assert!(
                up.remove(&ticket_of(&i)),
                "{i:?} taken before its grant, or twice"
            );
            released += 1;
        }
    }
    assert!(granted > CALLS / 10, "granted {granted}");
    let stats = svc.stats();
    assert!(stats.violations.is_empty());
    assert_eq!(
        (stats.offered, stats.granted, stats.completed),
        (CALLS, granted, released)
    );
    svc.recv_answers(Duration::from_millis(5), &mut confirms, &mut indications);
    assert!(confirms.is_empty() && indications.is_empty(), "once only");
}

/// Nothing to take: the call lasts its timeout and appends nothing.
#[test]
fn production_times_out_empty() {
    let mut svc = production(2);
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    let started = Instant::now();
    svc.recv_answers(Duration::from_millis(20), &mut confirms, &mut indications);
    assert!(started.elapsed() >= Duration::from_millis(20));
    assert!(confirms.is_empty() && indications.is_empty());
}

/// A publication of an indication and no confirm wakes a handle waiting
/// in `recv_answers`, long before its timeout.
#[test]
fn production_wakes_for_an_indication_alone() {
    let mut svc = production(2);
    let t = svc
        .request_channel(ChannelRequest::new_call(0, CellId(3), DAY))
        .expect("request accepted");
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    svc.recv_answers(DEADLINE, &mut confirms, &mut indications);
    assert!(matches!(confirms[..], [Confirm::Granted { ticket, .. }] if ticket == t));
    assert!(indications.is_empty(), "the call holds for a day");

    let (about_to_wait, waiting) = mpsc::channel();
    let waiter = {
        let mut svc = svc.clone();
        std::thread::spawn(move || {
            let (mut confirms, mut indications) = (Vec::new(), Vec::new());
            let started = Instant::now();
            about_to_wait.send(()).expect("main is listening");
            svc.recv_answers(DEADLINE, &mut confirms, &mut indications);
            (confirms, indications, started.elapsed())
        })
    };
    waiting.recv().expect("waiter started");
    svc.release(t).expect("known ticket");
    let (confirms, indications, waited) = waiter.join().expect("waiter");
    assert!(confirms.is_empty());
    assert!(matches!(indications[..], [Indication::Released { ticket, .. }] if ticket == t));
    assert!(
        waited < DEADLINE / 2,
        "woken by the timeout, not the publication"
    );
}

/// One handle drains with `recv_answers` while another takes confirms
/// and indications one at a time: what they take is disjoint, and
/// together it is everything.
#[test]
fn production_two_handles_take_disjoint_sets_that_cover_everything() {
    const CALLS: u64 = 20_000;
    let mut svc = production(4);
    // Confirms and indications taken so far, by either handle.
    let taken = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let spawn = |draining: bool| {
        let (mut svc, taken, stop) = (svc.clone(), taken.clone(), stop.clone());
        std::thread::spawn(move || {
            let (mut confirms, mut indications) = (Vec::new(), Vec::new());
            let mut had = 0;
            while !stop.load(Ordering::SeqCst) {
                if draining {
                    svc.recv_answers(Duration::from_millis(1), &mut confirms, &mut indications);
                } else {
                    confirms.extend(svc.recv_confirm(Duration::from_millis(1)));
                    indications.extend(svc.indication());
                }
                let have = confirms.len() + indications.len();
                taken.fetch_add((have - had) as u64, Ordering::SeqCst);
                had = have;
            }
            (confirms, indications)
        })
    };
    let (a, b) = (spawn(true), spawn(false));
    for k in 0..CALLS {
        svc.request_channel(ChannelRequest::new_call(0, CellId((k % 25) as u32), 0))
            .expect("request accepted");
    }
    assert!(svc.quiesce(DEADLINE));
    let deadline = Instant::now() + DEADLINE;
    loop {
        let stats = svc.stats();
        if stats.completed == stats.granted && taken.load(Ordering::SeqCst) == CALLS + stats.granted
        {
            break;
        }
        assert!(Instant::now() < deadline, "answers untaken at deadline");
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::SeqCst);
    let (a, b) = (a.join().expect("drainer"), b.join().expect("popper"));
    let mut confirmed = HashSet::new();
    let mut granted = HashSet::new();
    for c in a.0.iter().chain(&b.0) {
        assert!(confirmed.insert(c.ticket().0), "{} taken twice", c.ticket());
        if c.is_granted() {
            granted.insert(c.ticket().0);
        }
    }
    assert_eq!(confirmed.len() as u64, CALLS);
    for i in a.1.iter().chain(&b.1) {
        assert!(granted.remove(&ticket_of(i)), "{i:?} taken twice");
    }
    assert!(granted.is_empty(), "every granted call's release was taken");
}

/// A [`FixedNode`] that takes its time over an acquire, so that a round
/// with a few of them lasts long enough for a caller to act inside it.
struct Slow(FixedNode);

impl StateMachine for Slow {
    type Msg = <FixedNode as StateMachine>::Msg;

    fn msg_kind(msg: &Self::Msg) -> &'static str {
        FixedNode::msg_kind(msg)
    }

    fn acquire(&mut self, req: RequestId, kind: RequestKind, fx: &mut Effects<Self::Msg>) {
        let began = Instant::now();
        while began.elapsed() < Duration::from_micros(50) {
            std::hint::spin_loop();
        }
        self.0.acquire(req, kind, fx);
    }

    fn release(&mut self, ch: Channel, fx: &mut Effects<Self::Msg>) {
        self.0.release(ch, fx);
    }

    fn message(&mut self, from: CellId, msg: Self::Msg, fx: &mut Effects<Self::Msg>) {
        self.0.message(from, msg, fx);
    }
}

/// A caller hands a call off the moment the service lets it — as soon
/// as the call is granted, before its `Granted` is published, because
/// the rest of the granting round (three slow acquires behind it) is
/// still running. The source's `Released` must still come no earlier
/// than its `Granted`: the source's worker publishes it, with a round
/// after the grant's.
#[test]
fn production_never_yields_a_handoffs_released_before_its_granted() {
    const HOPS: usize = 200;
    let cfg = ProductionConfig {
        workers: 1,
        ..Default::default()
    };
    let mut svc = ProductionAllocService::new(topo(), cfg, |c, topo: &Topology| {
        Slow(FixedNode::new(c, topo))
    });
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    let mut granted: HashSet<u64> = HashSet::new();
    let mut results = Vec::new();
    let deadline = Instant::now() + DEADLINE;
    for _ in 0..HOPS {
        // The call first, so its cell runs first in the round.
        let burst = [
            ChannelRequest::new_call(0, CellId(0), DAY),
            ChannelRequest::new_call(0, CellId(6), 0),
            ChannelRequest::new_call(0, CellId(18), 0),
            ChannelRequest::new_call(0, CellId(24), 0),
        ];
        results.clear();
        svc.request_channels(&burst, &mut results);
        let call = results[0].expect("request accepted");
        let hop = loop {
            match svc.request_channel(ChannelRequest::handoff(0, call, CellId(12), DAY)) {
                Ok(hop) => break hop,
                Err(ServeError::BadHandoff(_)) => assert!(Instant::now() < deadline),
                Err(e) => panic!("{e:?}"),
            }
        };
        let (mut call_released, mut hop_resolved) = (false, false);
        while !(call_released && hop_resolved) {
            assert!(Instant::now() < deadline, "answers missing at deadline");
            svc.recv_answers(Duration::from_millis(1), &mut confirms, &mut indications);
            for c in confirms.drain(..) {
                if c.is_granted() {
                    granted.insert(c.ticket().0);
                }
                hop_resolved |= c.ticket() == hop;
            }
            for i in indications.drain(..) {
                let t = ticket_of(&i);
                assert!(granted.remove(&t), "{i:?} taken before its grant");
                call_released |= t == call.0;
            }
        }
        svc.release(hop).expect("known ticket");
    }
    assert!(svc.quiesce(DEADLINE));
    let stats = svc.stats();
    assert!(stats.violations.is_empty(), "{:?}", stats.violations);
}

/// The default body on the deterministic backend: the same answers, in
/// the same order, as popping them one at a time; then nothing.
#[test]
fn des_default_body_drains_in_queue_order() {
    let replayed = || {
        let mut svc = DesAllocService::new(topo(), SimConfig::default(), FixedNode::new);
        // Twelve calls a cell against ten primaries: some are rejected.
        for k in 0..300u64 {
            svc.request_channel(ChannelRequest::new_call(k, CellId((k % 25) as u32), 400))
                .expect("request accepted");
        }
        assert!(svc.quiesce(DEADLINE));
        svc
    };
    let mut popped = replayed();
    let one_by_one: (Vec<Confirm>, Vec<Indication>) = (
        std::iter::from_fn(|| popped.confirm()).collect(),
        std::iter::from_fn(|| popped.indication()).collect(),
    );
    assert_eq!(one_by_one.0.len(), 300);
    assert!(one_by_one.0.iter().any(|c| !c.is_granted()));
    assert!(!one_by_one.1.is_empty());

    let mut drained = replayed();
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    drained.recv_answers(Duration::from_millis(1), &mut confirms, &mut indications);
    assert_eq!((&confirms, &indications), (&one_by_one.0, &one_by_one.1));
    drained.recv_answers(Duration::from_millis(1), &mut confirms, &mut indications);
    assert_eq!(confirms.len(), 300, "once only");
    assert_eq!(indications.len(), one_by_one.1.len(), "once only");
}
