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
    Pop,
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
        self.reference.push(Reverse(EqEntry {
            at: SimTime(at),
            seq,
            item: at,
        }));
    }

    /// Pops both; `false` once both are empty.
    fn pop(&mut self) -> bool {
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

/// Push-biased op stream (3 pushes : 2 pops on average) so runs grow
/// deep enough to populate many ticks and the overflow heap.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, delta_strategy()).prop_map(
        |(sel, delta)| {
            if sel < 3 {
                Op::Push(delta)
            } else {
                Op::Pop
            }
        },
    )
}

proptest! {
    /// The calendar queue and a reference `BinaryHeap<Reverse<…>>` fed
    /// the same operations pop exactly the same `(at, seq, item)`
    /// sequence, with equal lengths at every step.
    #[test]
    fn matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<EqEntry<usize>>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Push(delta) => {
                    let at = SimTime(now.saturating_add(*delta));
                    let assigned = q.push(at, i);
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

    /// Snapshot → restore mid-stream keeps the queue's behavior *and*
    /// layout: the rebuilt queue pops identically to the reference heap
    /// for the rest of the run, and every replayed entry lands where a
    /// live push would put it — near-future events calendar-ring
    /// resident, far-future events in the overflow heap. (PR 5's restore
    /// funneled everything through one path; warm-path parity needs the
    /// cold layout back.)
    #[test]
    fn restore_preserves_pop_order_and_ring_residency(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        cut in 0usize..400,
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<EqEntry<usize>>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let cut = cut.min(ops.len());
        for (i, op) in ops[..cut].iter().enumerate() {
            match op {
                Op::Push(delta) => {
                    let at = SimTime(now.saturating_add(*delta));
                    q.push(at, i);
                    reference.push(Reverse(EqEntry { at, seq, item: i }));
                    seq += 1;
                }
                Op::Pop => {
                    if let Some(g) = q.pop() {
                        let Reverse(w) = reference.pop().expect("reference ran dry first");
                        prop_assert_eq!((g.at, g.seq, g.item), (w.at, w.seq, w.item));
                        now = g.at.ticks();
                    } else {
                        prop_assert!(reference.pop().is_none());
                    }
                }
            }
        }
        // Snapshot: collect + sort the live entries, as Engine::snapshot
        // does, then replay into a fresh queue.
        let next_seq = q.next_seq();
        let mut entries: Vec<(SimTime, u64, usize)> =
            q.iter_entries().map(|e| (e.at, e.seq, e.item)).collect();
        entries.sort_by_key(|&(at, s, _)| (at, s));
        let mut q = {
            let mut restored: EventQueue<usize> = EventQueue::with_capacity(entries.len());
            restored.restore_cursor(SimTime(now), next_seq);
            for &(at, s, item) in &entries {
                restored.push_with_seq(at, s, item);
            }
            restored
        };
        prop_assert_eq!(q.next_seq(), next_seq);
        // Residency: replayed pushes must classify ring-vs-overflow
        // exactly like live pushes against the restored cursor.
        let want_ring = entries.iter().filter(|&&(at, _, _)| q.ring_covers(at)).count();
        let (ring, overflow) = q.residency();
        prop_assert_eq!(ring, want_ring, "near-future entries must be ring-resident");
        prop_assert_eq!(ring + overflow, entries.len());
        // Behavior: the restored queue finishes the run exactly like the
        // reference heap, including fresh pushes.
        for (i, op) in ops[cut..].iter().enumerate() {
            match op {
                Op::Push(delta) => {
                    let at = SimTime(now.saturating_add(*delta));
                    let assigned = q.push(at, i);
                    prop_assert_eq!(assigned, seq, "restored queue must keep numbering");
                    reference.push(Reverse(EqEntry { at, seq, item: i }));
                    seq += 1;
                }
                Op::Pop => {
                    let got = q.pop();
                    let want = reference.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(g), Some(w)) = (got, want) {
                        prop_assert_eq!((g.at, g.seq, g.item), (w.at, w.seq, w.item));
                        now = g.at.ticks();
                    }
                }
            }
        }
        loop {
            let got = q.pop();
            let want = reference.pop().map(|Reverse(e)| e);
            prop_assert_eq!(got.is_some(), want.is_some(), "tail lengths diverge");
            let (Some(g), Some(w)) = (got, want) else { break };
            prop_assert_eq!((g.at, g.seq, g.item), (w.at, w.seq, w.item));
        }
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
