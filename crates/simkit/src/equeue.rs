//! The engine's event queue: per-tick FIFO lists over one slab, an
//! overflow heap for the far future, and an in-order lane for pushes that
//! arrive already sorted.
//!
//! Discrete-event workloads are strongly *near-future* biased (message
//! latencies of ~`T` ticks, call ends within a few mean holding times),
//! and the clock is an integer tick. So the queue writes each event once
//! and reads it once:
//!
//! * Events live in a **slab** of slots `{next, entry}`. A popped slot
//!   goes on a LIFO free list and is the next one written, so the slab
//!   grows only to the *peak number of ring-resident events*: memory
//!   follows what is in flight, not what was ever scheduled.
//! * A **ring** of `RING` per-tick `(head, tail)` pairs covers the window
//!   `[cur, cur + RING)` ahead of the serving cursor. A push inside the
//!   window appends its slot to its tick's list — `O(1)`, no sort.
//! * An **occupancy bitmap** (one bit a tick) marks the non-empty lists;
//!   the cursor skips empty ticks a 64-tick word at a time.
//! * Events beyond the window (long call ends, arrival schedules of long
//!   horizons) wait in a sorted **overflow heap**.
//! * Pushes whose due times never decrease — message deliveries under one
//!   constant latency are due at `now + T`, and `now` never goes back —
//!   bypass all of that: [`EventQueue::push_in_order`] appends them to a
//!   `VecDeque`, the **lane**, which is read back front to back. No slot
//!   is recycled, linked or read cold; a pop merges the lane's front with
//!   the ring's head.
//!
//! # Why per-tick FIFO is `(at, seq)` order
//!
//! The pop order is **exactly** the `(time, seq)` lexicographic order of
//! a binary heap — equal-time events pop in push order — so every
//! `SimReport` is bit-identical to a heap-scheduled engine's. `seq`
//! values ascend in push order, so appending keeps a tick's list in
//! ascending `seq`. An overflow entry for tick `t` was pushed while
//! `t ≥ cur + RING`, a ring entry for `t` while `t < cur + RING`; the
//! cursor only moves forward, so every overflow entry of a tick is older
//! than every ring entry of it. Hence the **overflow-first rule**: when
//! the cursor enters a tick, that tick's overflow entries come off the
//! heap in `seq` order and are linked *in front of* the list already
//! there. A property test (`tests/equeue_props.rs`) pins all of this
//! against a reference heap for random push/pop interleavings.
//!
//! # Why lane + ring is `(at, seq)` order
//!
//! Lane and ring draw `seq` from the **one counter**, so among entries of
//! one tick the smaller `seq` is the earlier push wherever it is stored.
//! The lane is **sorted by construction**: its `at` never decreases (the
//! caller's promise, `assert`ed) and its `seq` ascends. The ring side
//! yields its entries in `(at, seq)` order by the argument above. A pop is
//! therefore a two-way merge: the earlier of the lane's front and the
//! ring's head, by `(at, seq)`. For the merge to see the ring's true head
//! the cursor must be **the minimum over lane, ring and overflow** — it
//! stops at the lane's front even when the ring's next populated tick is
//! later, because once that front is popped the engine may push (into
//! the ring) anywhere from its time on. Only on a tick both sides share
//! is a `seq` compared; otherwise the earlier tick wins outright.
//!
//! # Same-tick tie-break across event classes
//!
//! *All* engine event classes — message deliveries, protocol timers
//! (`Ev::Timer`), arrivals, call ends, crash events — share this one
//! queue and one `seq` counter, so the `(time, seq)` order is also the
//! contract between classes: a timer and a message delivery scheduled
//! for the same tick fire in the order they were *scheduled* (`set_timer`
//! vs. `send` call order), not in any class-priority order. The
//! timeout/retry hardening leans on this: a response arriving at exactly
//! its deadline tick beats the timeout iff its delivery was scheduled
//! before the timer was armed. The property test exercises mixed
//! same-tick entries to pin the rule.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ticks covered by the ring (a power of two). Mean call durations are
/// ~`T` and benchmark horizons a few thousand ticks: little lies beyond.
const RING: usize = 1 << 14;
const RING_MASK: u64 = RING as u64 - 1;
/// End-of-list / empty-free-list marker; also bounds the slab's size.
const NIL: u32 = u32::MAX;

/// Where `tick` lives: its index in the ring, and its word and mask in
/// the occupancy bitmap.
#[inline]
fn ring_pos(tick: u64) -> (usize, usize, u64) {
    let i = (tick & RING_MASK) as usize;
    (i, i / 64, 1 << (i % 64))
}

/// The earlier of two ticks, where `None` is "no such tick".
#[inline]
fn earlier(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// One scheduled event: `(at, seq)` is the total pop order.
#[derive(Debug, Clone)]
pub struct EqEntry<T> {
    /// Due time.
    pub at: SimTime,
    /// Global tie-break sequence (push order among equal times).
    pub seq: u64,
    /// The payload.
    pub item: T,
}

impl<T> EqEntry<T> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for EqEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for EqEntry<T> {}
impl<T> PartialOrd for EqEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for EqEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One slab slot: a ring-resident event linked into its tick's list, or
/// a free slot (`entry` is `None`) linked into the free list.
struct Slot<T> {
    next: u32,
    entry: Option<EqEntry<T>>,
}

/// Which side of the merge holds the earliest entry.
enum Head {
    /// The lane's front.
    Lane,
    /// This slab slot, the head of the serving tick's list.
    Ring(u32),
}

/// A monotone priority queue over `(SimTime, seq)` keys.
///
/// "Monotone" is the engine's contract: every push is at or after the
/// serving cursor — the time of the last pop, or wherever a peek walked
/// to (`debug_assert`ed). This is what lets the cursor only ever move
/// forward.
pub struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    /// Head of the LIFO free list through `Slot::next`.
    free: u32,
    /// `(head, tail)` slot of each tick's list, by `tick & RING_MASK`;
    /// meaningful only where the tick's `occupied` bit is set.
    ticks: Vec<(u32, u32)>,
    /// One bit a ring tick: its list is non-empty.
    occupied: Vec<u64>,
    /// The tick being served; the ring covers `[cur, cur + RING)`.
    cur: u64,
    /// Entries in the slab (all ring-resident).
    ring_len: usize,
    /// Entries due at or beyond `cur + RING` when they were pushed.
    overflow: BinaryHeap<Reverse<EqEntry<T>>>,
    /// Entries pushed in `(at, seq)` order; `cur` never passes its front.
    lane: VecDeque<EqEntry<T>>,
    /// Monotone sequence counter for tie-breaks, shared by every push.
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with `resident` slab slots pre-reserved (for
    /// workloads whose whole arrival schedule is pushed up front).
    pub fn with_capacity(resident: usize) -> Self {
        assert!(resident < NIL as usize, "slot indices are u32");
        EventQueue {
            slots: Vec::with_capacity(resident),
            free: NIL,
            ticks: vec![(0, 0); RING],
            occupied: vec![0; RING / 64],
            cur: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            lane: VecDeque::new(),
            seq: 0,
        }
    }

    /// Total number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len() + self.lane.len()
    }

    /// Whether no event is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `item` at `at`, after everything already scheduled for
    /// `at`. Returns the entry's tie-break sequence number.
    pub fn push(&mut self, at: SimTime, item: T) -> u64 {
        debug_assert!(
            at.ticks() >= self.cur,
            "monotonicity violated: pushed tick {} before serving tick {}",
            at.ticks(),
            self.cur
        );
        let seq = self.seq;
        self.seq += 1;
        let entry = EqEntry { at, seq, item };
        if at.ticks() - self.cur >= RING as u64 {
            self.overflow.push(Reverse(entry));
        } else {
            self.append(entry);
        }
        seq
    }

    /// Schedules `item` at `at` like [`EventQueue::push`], for a caller
    /// whose due times never decrease from one call of this method to the
    /// next (and, like every push, are never before the serving cursor).
    /// Such entries are already in pop order among themselves, so they
    /// wait in the lane instead of the ring.
    ///
    /// # Panics
    ///
    /// If `at` is earlier than the previous in-order push still queued, or
    /// than the serving cursor.
    pub fn push_in_order(&mut self, at: SimTime, item: T) -> u64 {
        let floor = self.lane.back().map_or(self.cur, |last| last.at.ticks());
        assert!(
            at.ticks() >= floor,
            "in-order push at tick {} after one at tick {floor}",
            at.ticks()
        );
        let seq = self.seq;
        self.seq += 1;
        self.lane.push_back(EqEntry { at, seq, item });
        seq
    }

    /// Writes the event into a slot (the most recently freed one, else a
    /// new one) and links it at the tail of its tick's list.
    #[inline]
    fn append(&mut self, entry: EqEntry<T>) {
        let (i, word, bit) = ring_pos(entry.at.ticks());
        let (seq, entry) = (entry.seq, Some(entry));
        let slot = Slot { next: NIL, entry };
        let idx = match self.free {
            NIL => {
                assert!(self.slots.len() < NIL as usize, "event slab is full");
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            idx => {
                self.free = std::mem::replace(&mut self.slots[idx as usize], slot).next;
                idx
            }
        };
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.ticks[i] = (idx, idx);
        } else {
            let tail = &mut self.slots[std::mem::replace(&mut self.ticks[i].1, idx) as usize];
            debug_assert!(
                tail.entry.as_ref().is_some_and(|t| t.seq < seq),
                "seq values not monotone within a tick"
            );
            tail.next = idx;
        }
        self.ring_len += 1;
    }

    /// `(ring_resident, overflow_resident)` entry counts (diagnostics).
    /// Lane entries are in neither.
    pub fn residency(&self) -> (usize, usize) {
        (self.ring_len, self.overflow.len())
    }

    /// Slab slots ever allocated: at most the peak ring residency, since
    /// freed slots are reused before the slab grows.
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether `at` falls inside the ring's current window; a push due
    /// then would be ring-resident, not overflow.
    pub fn ring_covers(&self, at: SimTime) -> bool {
        at.ticks().saturating_sub(self.cur) < RING as u64
    }

    /// The current value of the internal tie-break counter (the `seq` the
    /// next [`EventQueue::push`] would assign), part of the `queue` state
    /// digest.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Iterates over every queued entry in no particular order, without
    /// disturbing the queue. The `queue` state digest sorts the
    /// collected entries by `(at, seq)` itself.
    pub fn iter_entries(&self) -> impl Iterator<Item = &EqEntry<T>> {
        let ring = self.slots.iter().filter_map(|s| s.entry.as_ref());
        ring.chain(self.overflow.iter().map(|Reverse(e)| e))
            .chain(&self.lane)
    }

    /// The earliest `(at, seq)` key without removing its entry, or `None`
    /// if the queue is empty. Shares the serving-cursor advance with
    /// [`EventQueue::pop`], so `peek_key` then `pop` is not extra work.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match self.head()? {
            Head::Lane => self.lane.front(),
            Head::Ring(head) => self.slots[head as usize].entry.as_ref(),
        }
        .map(EqEntry::key)
    }

    /// Removes and returns the earliest `(at, seq)` event.
    pub fn pop(&mut self) -> Option<EqEntry<T>> {
        let head = match self.head()? {
            Head::Lane => return self.lane.pop_front(),
            Head::Ring(head) => head,
        };
        let slot = &mut self.slots[head as usize];
        let entry = slot.entry.take().expect("a linked slot holds an event");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = head;
        let (i, word, bit) = ring_pos(self.cur);
        if next == NIL {
            self.occupied[word] &= !bit;
        } else {
            self.ticks[i].0 = next;
        }
        self.ring_len -= 1;
        Some(entry)
    }

    /// Where the earliest entry is: walks the cursor to the earliest
    /// populated tick — of lane, ring and overflow — and merges the
    /// lane's front with that tick's list head.
    #[inline]
    fn head(&mut self) -> Option<Head> {
        let lane = self.lane.front().map(|e| (e.at.ticks(), e.seq));
        if !self.serving_tick_occupied() {
            if lane.is_some_and(|(tick, _)| tick == self.cur) {
                return Some(Head::Lane);
            }
            // Serving tick exhausted: move to the next populated one.
            let far = self.overflow.peek().map(|Reverse(e)| e.at.ticks());
            let next = earlier(
                earlier(self.next_ring_tick(), far),
                lane.map(|(tick, _)| tick),
            )?;
            self.enter_tick(next);
            if !self.serving_tick_occupied() {
                // Neither ring nor overflow had `next`: it is the lane's.
                return Some(Head::Lane);
            }
        }
        let head = self.ticks[ring_pos(self.cur).0].0;
        // The lane's front is never before the cursor, so it can only win
        // on this very tick, and then as the earlier push.
        match lane {
            Some((tick, seq)) if tick == self.cur && seq < self.slot_seq(head) => Some(Head::Lane),
            _ => Some(Head::Ring(head)),
        }
    }

    #[inline]
    fn serving_tick_occupied(&self) -> bool {
        let (_, word, bit) = ring_pos(self.cur);
        self.occupied[word] & bit != 0
    }

    #[inline]
    fn slot_seq(&self, slot: u32) -> u64 {
        let entry = self.slots[slot as usize].entry.as_ref();
        entry.expect("a linked slot holds an event").seq
    }

    /// The earliest populated ring tick after `cur`, whose own list is
    /// empty: a circular scan of the bitmap from `cur`'s bit.
    fn next_ring_tick(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let (start, mut w, bit) = ring_pos(self.cur);
        let mut word = self.occupied[w] & bit.wrapping_neg();
        for _ in 0..=self.occupied.len() {
            if word != 0 {
                let pos = w * 64 + word.trailing_zeros() as usize;
                return Some(self.cur + (pos.wrapping_sub(start) as u64 & RING_MASK));
            }
            w = (w + 1) % self.occupied.len();
            word = self.occupied[w];
        }
        unreachable!("ring_len > 0 but no occupied tick")
    }

    /// Moves the cursor to `tick` and links the overflow entries due then
    /// *in front of* the tick's list (the overflow-first rule).
    fn enter_tick(&mut self, tick: u64) {
        self.cur = tick;
        let due = |q: &Self| {
            q.overflow
                .peek()
                .is_some_and(|Reverse(e)| e.at.ticks() == tick)
        };
        if !due(self) {
            return;
        }
        let (i, word, bit) = ring_pos(tick);
        let later = (self.occupied[word] & bit != 0).then(|| self.ticks[i]);
        self.occupied[word] &= !bit;
        while due(self) {
            let Reverse(entry) = self.overflow.pop().expect("peeked");
            self.append(entry);
        }
        if let Some((head, tail)) = later {
            let migrated_tail = std::mem::replace(&mut self.ticks[i].1, tail);
            self.slots[migrated_tail as usize].next = head;
        }
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.at.ticks(), e.seq, e.item));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(50), 1);
        q.push(SimTime(10), 2);
        q.push(SimTime(50), 3);
        q.push(SimTime(0), 4);
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            vec![(0, 3, 4), (10, 1, 2), (50, 0, 1), (50, 2, 3)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut q = EventQueue::new();
        let far = RING as u64; // beyond the ring
        q.push(SimTime(10 * far), 1);
        q.push(SimTime(3), 2);
        q.push(SimTime(far + 7), 3);
        assert_eq!(
            drain(&mut q),
            vec![(3, 1, 2), (far + 7, 2, 3), (10 * far, 0, 1)]
        );
    }

    #[test]
    fn push_into_serving_tick_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 1);
        q.push(SimTime(6), 2);
        let first = q.pop().unwrap();
        assert_eq!(first.at, SimTime(5));
        // Pushes at the serving tick and at a queued later one, after
        // serving started (seq breaks the tie).
        q.push(SimTime(6), 3);
        q.push(SimTime(5), 4);
        assert_eq!(drain(&mut q), vec![(5, 3, 4), (6, 1, 2), (6, 2, 3)]);
    }

    #[test]
    fn interleaved_push_pop_across_ticks() {
        let mut q = EventQueue::new();
        q.push(SimTime(0), 0);
        let mut now = 0;
        let mut popped = Vec::new();
        let mut i = 0u32;
        while let Some(e) = q.pop() {
            now = e.at.ticks();
            popped.push((now, e.seq));
            // Reschedule a few follow-ups like a protocol would.
            if i < 200 {
                q.push(SimTime(now + 100), i);
                q.push(SimTime(now + 1), i);
                i += 2;
            }
        }
        assert!(popped.windows(2).all(|w| w[0] < w[1]), "strictly ordered");
        // 1 seed event + 2 events per pushing pop (100 of them).
        assert_eq!(popped.len(), 201);
        let _ = now;
    }

    #[test]
    fn idle_gap_jumps_without_walking() {
        let mut q = EventQueue::new();
        q.push(SimTime(0), 1);
        q.push(SimTime(u64::MAX / 2), 2);
        assert_eq!(q.pop().unwrap().item, 1);
        assert_eq!(q.pop().unwrap().item, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(50), 1);
        q.push(SimTime(10), 2);
        q.push(SimTime(50), 3);
        while let Some(key) = q.peek_key() {
            let e = q.pop().unwrap();
            assert_eq!((e.at, e.seq), key);
        }
        assert!(q.pop().is_none());
        let empty: Option<(SimTime, u64)> = q.peek_key();
        assert!(empty.is_none());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.pop().is_none(), "pop on empty is repeatable");
    }
}
