//! Bounded per-cell mailboxes — the backpressure surface of the
//! production executor.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What a push had to do to get its events in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Push {
    /// Space was available immediately.
    Fit,
    /// The queue was full; the sender waited and then fit.
    Stalled,
    /// The sender outwaited its patience and the events were forced in
    /// over capacity — the deadlock-freedom escape valve.
    Forced,
}

/// A bounded MPSC queue with *blocking* push. Senders exceeding the
/// capacity wait (that is the backpressure a closed-loop client feels);
/// a sender that has waited `patience` forces its events in anyway, so
/// a cycle of full mailboxes can never deadlock the worker pool —
/// overflow is counted, not fatal.
///
/// A push is one event ([`Mailbox::push`], [`Mailbox::push_front`]) or
/// a run of them ([`Mailbox::push_run`]); capacity is checked once a
/// push, so the queue holds at most `cap − 1` events plus one run.
pub(crate) struct Mailbox<T> {
    q: Mutex<Queue<T>>,
    not_full: Condvar,
    cap: usize,
    /// `q.events.len()`, stored under the lock after every change, so
    /// that [`Mailbox::is_empty`] need not take it. `SeqCst`, as is
    /// the owning task's `scheduled` flag: the consumer stores
    /// `scheduled = false` and then loads `len`, a sender stores `len`
    /// and then swaps `scheduled`, and in one total order of the four
    /// at least one of the two sees the other's store — so the task is
    /// rescheduled. With `Release`/`Acquire` both may miss, and the
    /// cell sleeps on a non-empty mailbox.
    len: AtomicUsize,
}

struct Queue<T> {
    events: VecDeque<T>,
    /// Senders blocked on `not_full`; a drain signals only for them.
    stalled: usize,
}

impl<T> Mailbox<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Mailbox {
            q: Mutex::new(Queue {
                events: VecDeque::new(),
                stalled: 0,
            }),
            not_full: Condvar::new(),
            cap: cap.max(1),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueues `v`, blocking up to `patience` while over capacity.
    pub(crate) fn push(&self, v: T, patience: Duration) -> Push {
        self.enqueue(patience, |q| q.push_back(v))
    }

    /// Priority variant of [`Mailbox::push`]: `v` goes to the *front*
    /// of the queue (handoff acquires overtake queued new-call work),
    /// but it obeys the same capacity, stall, and forcing rules —
    /// priority jumps the line, it does not escape backpressure.
    pub(crate) fn push_front(&self, v: T, patience: Duration) -> Push {
        self.enqueue(patience, |q| q.push_front(v))
    }

    /// Enqueues all of `run`, in order and with nothing in between,
    /// under one lock and one capacity check: the run waits while the
    /// queue is full and then goes in whole.
    pub(crate) fn push_run(&self, run: impl Iterator<Item = T>, patience: Duration) -> Push {
        self.enqueue(patience, |q| q.extend(run))
    }

    fn enqueue(&self, patience: Duration, insert: impl FnOnce(&mut VecDeque<T>)) -> Push {
        let mut q = self.q.lock().expect("mailbox poisoned");
        let mut how = Push::Fit;
        if q.events.len() >= self.cap {
            (q, how) = self.await_room(q, patience);
        }
        insert(&mut q.events);
        self.len.store(q.events.len(), Ordering::SeqCst);
        how
    }

    /// Waits on a full queue until a drain opens room ([`Push::Stalled`])
    /// or `patience` runs out ([`Push::Forced`]).
    fn await_room<'a>(
        &self,
        mut q: MutexGuard<'a, Queue<T>>,
        patience: Duration,
    ) -> (MutexGuard<'a, Queue<T>>, Push) {
        let deadline = Instant::now() + patience;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return (q, Push::Forced);
            }
            q.stalled += 1;
            q = self
                .not_full
                .wait_timeout(q, deadline - now)
                .expect("mailbox poisoned")
                .0;
            q.stalled -= 1;
            if q.events.len() < self.cap {
                return (q, Push::Stalled);
            }
        }
    }

    /// Moves up to `max` events into `out`, which must be empty (a
    /// queue of at most `max` trades buffers with it, and no event is
    /// moved); wakes blocked senders when space opens up.
    pub(crate) fn drain(&self, out: &mut VecDeque<T>, max: usize) {
        debug_assert!(out.is_empty(), "drain swaps into an empty buffer");
        let mut q = self.q.lock().expect("mailbox poisoned");
        if q.events.len() <= max {
            std::mem::swap(&mut q.events, out);
        } else {
            out.extend(q.events.drain(..max));
        }
        self.len.store(q.events.len(), Ordering::SeqCst);
        if q.stalled > 0 && q.events.len() < self.cap {
            self.not_full.notify_all();
        }
    }

    /// Whether the queue was empty at its last change (no lock taken).
    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::SeqCst) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Drains into a fresh buffer, checking the `len` mirror on the way.
    fn drain<T>(mb: &Mailbox<T>, max: usize) -> Vec<T> {
        let mut out = VecDeque::new();
        mb.drain(&mut out, max);
        assert_mirror(mb);
        out.into()
    }

    /// `len` is only stored under the lock, so holding it makes the
    /// comparison exact even while another thread is pushing.
    fn assert_mirror<T>(mb: &Mailbox<T>) {
        let q = mb.q.lock().unwrap();
        assert_eq!(mb.len.load(Ordering::SeqCst), q.events.len());
        assert_eq!(mb.is_empty(), q.events.is_empty());
    }

    #[test]
    fn fit_until_capacity_then_force() {
        let mb = Mailbox::new(2);
        assert_eq!(mb.push(1, Duration::ZERO), Push::Fit);
        assert_eq!(mb.push(2, Duration::ZERO), Push::Fit);
        // Full, zero patience: forced straight in (never lost).
        assert_eq!(mb.push(3, Duration::ZERO), Push::Forced);
        assert_mirror(&mb);
        assert_eq!(drain(&mb, 10), vec![1, 2, 3]);
        assert!(mb.is_empty());
    }

    #[test]
    fn push_front_overtakes_queued_work_but_not_capacity() {
        let mb = Mailbox::new(2);
        assert_eq!(mb.push(1, Duration::ZERO), Push::Fit);
        assert_eq!(mb.push_front(0, Duration::ZERO), Push::Fit);
        assert_mirror(&mb);
        // Full: priority still obeys the capacity rules.
        assert_eq!(mb.push_front(9, Duration::ZERO), Push::Forced);
        assert_mirror(&mb);
        // ... and overtakes a whole run that was there first.
        assert_eq!(mb.push_run(2..4, Duration::ZERO), Push::Forced);
        assert_eq!(mb.push_front(8, Duration::ZERO), Push::Forced);
        assert_eq!(drain(&mb, 10), vec![8, 9, 0, 1, 2, 3]);
    }

    #[test]
    fn a_run_fits_stalls_or_is_forced_as_a_whole() {
        let mb = Arc::new(Mailbox::new(4));
        // One free slot is room for the whole run: capacity is checked
        // once, and the overshoot is the run's length less one.
        assert_eq!(mb.push_run(0..3, Duration::ZERO), Push::Fit);
        assert_eq!(mb.push_run(3..8, Duration::ZERO), Push::Fit);
        assert_mirror(&mb);
        assert_eq!(mb.len.load(Ordering::SeqCst), 4 - 1 + 5);
        // Full: a run with no patience is forced, all of it.
        assert_eq!(mb.push_run(8..10, Duration::ZERO), Push::Forced);
        assert_mirror(&mb);
        // Full: a patient run waits, and goes in whole once a drain
        // has brought the queue under capacity.
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push_run(10..14, Duration::from_secs(10)))
        };
        while mb.q.lock().unwrap().stalled == 0 {
            std::thread::yield_now();
        }
        assert_eq!(drain(&mb, 5), (0..5).collect::<Vec<_>>());
        // Five are left, still over capacity: the run keeps waiting.
        assert_eq!(mb.len.load(Ordering::SeqCst), 5);
        assert_eq!(drain(&mb, 2), vec![5, 6]);
        assert_eq!(pusher.join().unwrap(), Push::Stalled);
        assert_mirror(&mb);
        assert_eq!(drain(&mb, 100), (7..14).collect::<Vec<_>>());
        // An empty run is a no-op that still reports how it went.
        assert_eq!(mb.push_run(0..0, Duration::ZERO), Push::Fit);
        assert!(mb.is_empty());
    }

    #[test]
    fn swap_drain_and_partial_drain_keep_order() {
        let mb = Mailbox::new(100);
        mb.push_run(0..10, Duration::ZERO);
        // Partial: the first `max`, the rest stays in order.
        assert_eq!(drain(&mb, 4), vec![0, 1, 2, 3]);
        mb.push(10, Duration::ZERO);
        // Exactly `max` left: swapped out whole.
        assert_eq!(drain(&mb, 7), vec![4, 5, 6, 7, 8, 9, 10]);
        assert!(mb.is_empty());
        // The buffer traded in is empty, and the queue works on.
        assert_eq!(drain(&mb, 7), Vec::<i32>::new());
        mb.push_run(11..13, Duration::ZERO);
        mb.push_front(-1, Duration::ZERO);
        assert_mirror(&mb);
        assert_eq!(drain(&mb, 64), vec![-1, 11, 12]);
    }

    #[test]
    fn blocked_sender_wakes_on_drain() {
        let mb = Arc::new(Mailbox::new(1));
        assert_eq!(mb.push(1u32, Duration::ZERO), Push::Fit);
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push(2, Duration::from_secs(10)))
        };
        // Wait until the pusher is blocked, then open space.
        while mb.q.lock().unwrap().stalled == 0 {
            std::thread::yield_now();
        }
        assert_eq!(drain(&mb, 1), vec![1]);
        assert_eq!(pusher.join().unwrap(), Push::Stalled);
        assert_eq!(drain(&mb, 1), vec![2]);
    }
}
