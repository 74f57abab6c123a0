//! Property test pinning [`EventQueue`] against the `BinaryHeap` it
//! replaced: for random push/pop interleavings the pop sequences must be
//! identical — same times, same payloads, and the same `seq` tie-breaks
//! for equal-time events. This is the executable form of the engine's
//! bit-identity guarantee: swapping the scheduler must not reorder any
//! event, so every `SimReport` stays byte-for-byte stable.

use adca_simkit::equeue::{EqEntry, EventQueue};
use adca_simkit::rng::SplitMix64;
use adca_simkit::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
enum Op {
    /// Push at `last popped time + delta` (the queue is monotone).
    Push(u64),
    /// In-order push at `last popped time + lat`, one `lat` a run: due
    /// times that never decrease, as the engine's deliveries under a
    /// constant latency.
    PushInOrder,
    Pop,
}

/// The constant latency of a run's in-order pushes: `0` shares the tick
/// being served, the small band shares ticks with ring pushes, and the
/// last lands the lane's front beyond the ring's window.
fn lat_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..16, 16u64..2_000, RING..(2 * RING)]
}

/// Delta mix exercising every queue path: `0` forces equal-time seq
/// tie-breaks and pushes into the tick being served, small deltas stay
/// within the ring, the `16Ki` band straddles the ring edge, and the
/// huge band lands deep in the overflow heap (and forces idle-gap jumps).
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..16,
        0u64..16,
        16u64..2_000,
        10_000u64..40_000,
        1_000_000u64..(1u64 << 40),
    ]
}

/// The ring's width in ticks (private to the queue; `ring_edges_across_wraps`
/// checks this copy against [`EventQueue::ring_covers`]).
const RING: u64 = 1 << 14;

/// The queue under test and its reference heap, fed in lockstep: every
/// pop is compared, so any reordering fails at the first divergent
/// event.
struct Lockstep {
    q: EventQueue<u64>,
    reference: BinaryHeap<Reverse<EqEntry<u64>>>,
    /// Time of the last pop: the earliest legal push.
    now: u64,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            q: EventQueue::new(),
            reference: BinaryHeap::new(),
            now: 0,
        }
    }

    fn push(&mut self, at: u64) {
        let seq = self.q.push(SimTime(at), at);
        self.mirror(at, seq);
    }

    /// Pushes into the lane; `at` must not go back between calls.
    fn push_in_order(&mut self, at: u64) {
        let seq = self.q.push_in_order(SimTime(at), at);
        self.mirror(at, seq);
    }

    fn mirror(&mut self, at: u64, seq: u64) {
        self.reference.push(Reverse(EqEntry {
            at: SimTime(at),
            seq,
            item: at,
        }));
    }

    /// Peeks and pops both; `false` once both are empty.
    fn pop(&mut self) -> bool {
        let next = self.reference.peek().map(|Reverse(e)| (e.at, e.seq));
        assert_eq!(self.q.peek_key(), next);
        let got = self.q.pop().map(|e| (e.at, e.seq, e.item));
        let want = self.reference.pop().map(|Reverse(e)| (e.at, e.seq, e.item));
        assert_eq!(got, want);
        assert_eq!(self.q.len(), self.reference.len());
        if let Some((at, _, _)) = got {
            self.now = at.ticks();
        }
        got.is_some()
    }

    fn drain(&mut self) {
        while self.pop() {}
        assert!(self.q.is_empty());
    }
}

/// Push-biased op stream (3 pushes : 2 pops on average, a third of the
/// pushes in order) so runs grow deep enough to populate many ticks, the
/// lane and the overflow heap.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, delta_strategy()).prop_map(|(sel, delta)| match sel {
        0 | 1 => Op::Push(delta),
        2 => Op::PushInOrder,
        _ => Op::Pop,
    })
}

/// Applies a push op to `q`: the due time and the `seq` it was given.
fn apply_push(
    q: &mut EventQueue<usize>,
    op: &Op,
    now: u64,
    lat: u64,
    item: usize,
) -> (SimTime, u64) {
    match op {
        Op::Push(delta) => {
            let at = SimTime(now.saturating_add(*delta));
            (at, q.push(at, item))
        }
        Op::PushInOrder => {
            let at = SimTime(now.saturating_add(lat));
            (at, q.push_in_order(at, item))
        }
        Op::Pop => unreachable!("not a push"),
    }
}

proptest! {
    /// The queue and a reference `BinaryHeap<Reverse<…>>` fed the same
    /// operations — ring and in-order pushes drawing on one `seq`
    /// counter — pop exactly the same `(at, seq, item)` sequence, with
    /// equal lengths at every step.
    #[test]
    fn matches_reference_heap(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        lat in lat_strategy(),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<EqEntry<usize>>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Push(_) | Op::PushInOrder => {
                    let (at, assigned) = apply_push(&mut q, op, now, lat, i);
                    prop_assert_eq!(assigned, seq, "queue must assign seqs in push order");
                    reference.push(Reverse(EqEntry { at, seq, item: i }));
                    seq += 1;
                }
                Op::Pop => {
                    let got = q.pop();
                    let want = reference.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(
                        got.is_some(),
                        want.is_some(),
                        "one scheduler ran dry before the other"
                    );
                    if let (Some(g), Some(w)) = (got, want) {
                        prop_assert_eq!((g.at, g.seq, g.item), (w.at, w.seq, w.item));
                        now = g.at.ticks();
                    }
                    prop_assert_eq!(q.len(), reference.len());
                }
            }
        }
        // Drain both tails: the orders must agree to the very end.
        loop {
            let got = q.pop();
            let want = reference.pop().map(|Reverse(e)| e);
            prop_assert_eq!(got.is_some(), want.is_some(), "tail lengths diverge");
            let (Some(g), Some(w)) = (got, want) else { break };
            prop_assert_eq!((g.at, g.seq, g.item), (w.at, w.seq, w.item));
        }
        prop_assert!(q.is_empty());
    }

    /// Same-tick entries of *mixed kinds* pop in scheduling order.
    /// The engine pushes `Ev::Deliver` and `Ev::Timer` into this one
    /// queue, so this is the executable form of the documented rule
    /// (see `equeue.rs` and `Effects::set_timer`): a timer and a
    /// message landing on the same tick fire in the order they were
    /// scheduled — neither class gets priority.
    #[test]
    fn same_tick_mixed_kinds_pop_in_scheduling_order(
        kinds in proptest::collection::vec(0u8..2, 1..64),
        at in 0u64..1_000_000,
    ) {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Kind { Deliver(usize), Timer(usize) }
        let mut q: EventQueue<Kind> = EventQueue::new();
        let scheduled: Vec<Kind> = kinds
            .iter()
            .enumerate()
            .map(|(i, &is_timer)| if is_timer == 1 { Kind::Timer(i) } else { Kind::Deliver(i) })
            .collect();
        for &k in &scheduled {
            q.push(SimTime(at), k);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            prop_assert_eq!(e.at, SimTime(at));
            popped.push(e.item);
        }
        prop_assert_eq!(popped, scheduled, "same-tick pops must preserve push order");
    }

    /// The overflow-first rule: entries that went to the overflow heap
    /// for a tick pop before entries pushed for the same tick once the
    /// ring had reached it — they were scheduled earlier.
    #[test]
    fn overflow_entries_pop_before_ring_entries_of_their_tick(
        beyond in 0u64..(3 * RING),
        back in 1u64..RING,
        far_pushes in 1usize..6,
        near_pushes in 1usize..6,
    ) {
        let mut l = Lockstep::new();
        let tick = RING + beyond;
        for _ in 0..far_pushes {
            l.push(tick);
        }
        prop_assert_eq!(l.q.residency(), (0, far_pushes));
        // A stepping stone less than a ring-width before `tick`: popping
        // it brings `tick` inside the window.
        l.push(tick - back);
        prop_assert!(l.pop());
        for _ in 0..near_pushes {
            l.push(tick);
        }
        prop_assert_eq!(l.q.residency(), (near_pushes, far_pushes));
        l.drain();
    }

    /// The last tick the ring covers and the first it does not, pushed
    /// again and again while the window wraps around the ring several
    /// times. Each round also re-pushes the previous round's first
    /// uncovered tick, which the ring has reached by then: a ring entry
    /// behind an overflow entry of the same tick.
    #[test]
    fn ring_edges_across_wraps(
        rounds in proptest::collection::vec(((RING / 4)..RING, 0u64..3), 16..32),
    ) {
        let mut l = Lockstep::new();
        let mut uncovered: Option<u64> = None;
        for (advance, repeats) in rounds {
            let start = l.now;
            prop_assert!(l.q.ring_covers(SimTime(start + RING - 1)));
            prop_assert!(!l.q.ring_covers(SimTime(start + RING)));
            for _ in 0..=repeats {
                let (ring, overflow) = l.q.residency();
                l.push(start + RING - 1);
                l.push(start + RING);
                prop_assert_eq!(l.q.residency(), (ring + 1, overflow + 1));
            }
            if let Some(tick) = uncovered.filter(|&tick| tick >= start) {
                let (ring, overflow) = l.q.residency();
                l.push(tick);
                prop_assert_eq!(l.q.residency(), (ring + 1, overflow));
            }
            uncovered = Some(start + RING);
            l.push(start + advance);
            while l.now < start + advance {
                prop_assert!(l.pop());
            }
        }
        prop_assert!(l.now >= 4 * RING, "the window must wrap several times");
        l.drain();
    }

    /// A push at `now` while `now`'s list is being drained goes behind
    /// what is still queued for `now` — whether that list came from ring
    /// pushes or was linked in from the overflow heap.
    #[test]
    fn push_at_now_while_draining_now(
        tick in prop_oneof![0u64..RING, RING..(1u64 << 30)],
        queued in 2usize..12,
        refills in proptest::collection::vec(0usize..3, 1..12),
    ) {
        let mut l = Lockstep::new();
        for _ in 0..queued {
            l.push(tick);
        }
        l.push(tick + 1);
        for extra in refills {
            if !l.pop() || l.now != tick {
                break;
            }
            for _ in 0..extra {
                l.push(tick);
            }
        }
        l.drain();
    }

    /// Lane and ring entries on one tick: push order decides, whichever
    /// side an entry waits on — also while that tick is being drained.
    #[test]
    fn lane_and_ring_share_a_tick_in_push_order(
        tick in prop_oneof![0u64..RING, RING..(1u64 << 30)],
        sides in proptest::collection::vec(0u8..2, 2..24),
        refills in proptest::collection::vec((0u8..2, 0usize..3), 0..8),
    ) {
        let mut l = Lockstep::new();
        let push = |l: &mut Lockstep, in_order: u8| {
            if in_order == 1 {
                l.push_in_order(tick)
            } else {
                l.push(tick)
            }
        };
        // Bring the window up to `tick`, so that plain pushes are ring
        // entries (not overflow).
        l.push(tick);
        prop_assert!(l.pop());
        for &in_order in &sides {
            push(&mut l, in_order);
        }
        l.push(tick + 1);
        for (in_order, extra) in refills {
            if !l.pop() || l.now != tick {
                break;
            }
            for _ in 0..extra {
                push(&mut l, in_order);
            }
        }
        l.drain();
    }

    /// A lane front on a tick that also has overflow entries: those were
    /// pushed first and still pop first, then lane and ring entries of
    /// the tick in push order.
    #[test]
    fn overflow_entries_pop_before_lane_entries_of_their_tick(
        beyond in 0u64..(3 * RING),
        back in 1u64..RING,
        far_pushes in 1usize..6,
        near in proptest::collection::vec(0u8..2, 1..8),
    ) {
        let mut l = Lockstep::new();
        let tick = RING + beyond;
        for _ in 0..far_pushes {
            l.push(tick);
        }
        prop_assert_eq!(l.q.residency(), (0, far_pushes));
        l.push(tick - back);
        prop_assert!(l.pop());
        let in_order = near.iter().filter(|&&lane| lane == 1).count();
        for &lane in &near {
            if lane == 1 {
                l.push_in_order(tick)
            } else {
                l.push(tick)
            }
        }
        // Lane entries are in neither count, but in the length.
        prop_assert_eq!(l.q.residency(), (near.len() - in_order, far_pushes));
        prop_assert_eq!(l.q.len(), near.len() + far_pushes);
        l.drain();
    }

    /// A peek must not walk the cursor past the lane's front, wherever
    /// the ring's next populated tick (or the overflow's) lies: once that
    /// front is popped, a push anywhere from its time on is legal and
    /// pops in order.
    #[test]
    fn the_cursor_stops_at_the_lane_front(
        front in 1u64..5_000,
        ring_gap in prop_oneof![1u64..100, 100u64..RING, RING..(4 * RING)],
        behind in 0u64..100,
    ) {
        let mut l = Lockstep::new();
        l.push(front + ring_gap);
        l.push_in_order(front);
        prop_assert_eq!(l.q.peek_key().map(|(at, _)| at), Some(SimTime(front)));
        prop_assert!(l.pop());
        prop_assert_eq!(l.now, front);
        // Between the lane's old front and the ring's next tick.
        l.push(front + behind.min(ring_gap - 1u64));
        l.push(front);
        l.push_in_order(front);
        l.drain();
    }

    /// The memory bound the queue's resident-set claim rests on: over a
    /// long hold-model run (pop the earliest, push it back a random delay
    /// later) the slab never holds more slots than the most events that
    /// were ever ring-resident at once.
    #[test]
    fn slab_is_bounded_by_peak_residency(
        resident in 1usize..400,
        spread in 1u64..5_000,
        far_every in 2u64..50,
    ) {
        let mut l = Lockstep::new();
        let mut rng = SplitMix64::new(resident as u64 ^ spread << 20);
        for _ in 0..resident {
            l.push(rng.range_inclusive(0, spread));
        }
        let mut peak = l.q.residency().0;
        for i in 0..20_000u64 {
            prop_assert!(l.pop());
            // Now and then a delay past the ring, so slots also free up
            // and refill through the overflow heap.
            let delay = if i % far_every == 0 {
                RING + rng.range_inclusive(0, RING)
            } else {
                rng.range_inclusive(1, spread)
            };
            l.push(l.now + delay);
            peak = peak.max(l.q.residency().0);
        }
        prop_assert!(
            l.q.slab_slots() <= peak,
            "{} slots for a peak of {} resident events", l.q.slab_slots(), peak
        );
        prop_assert!(peak <= resident);
        l.drain();
    }
}

/// The lane is sorted only because its caller keeps the promise; a push
/// that breaks it must stop the run in every build profile (the
/// benchmark runs release), not reorder events.
#[test]
#[should_panic(expected = "in-order push")]
fn out_of_order_push_in_order_panics() {
    let mut q: EventQueue<()> = EventQueue::new();
    q.push_in_order(SimTime(10), ());
    q.push_in_order(SimTime(9), ());
}

/// ... nor may it land behind the serving cursor while the lane is empty.
#[test]
#[should_panic(expected = "in-order push")]
fn push_in_order_behind_the_cursor_panics() {
    let mut q: EventQueue<()> = EventQueue::new();
    q.push(SimTime(10), ());
    q.pop();
    q.push_in_order(SimTime(9), ());
}
