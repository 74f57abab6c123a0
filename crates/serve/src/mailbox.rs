//! Bounded per-cell mailboxes — the backpressure surface of the
//! production executor.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a [`Mailbox::push`] had to do to get the event in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Push {
    /// Space was available immediately.
    Fit,
    /// The queue was full; the sender waited and then fit.
    Stalled,
    /// The sender outwaited its patience and the event was forced in
    /// over capacity — the deadlock-freedom escape valve.
    Forced,
}

/// A bounded MPSC queue with *blocking* push. Senders exceeding the
/// capacity wait (that is the backpressure a closed-loop client feels);
/// a sender that has waited `patience` forces its event in anyway, so a
/// cycle of full mailboxes can never deadlock the worker pool —
/// overflow is counted, not fatal.
pub(crate) struct Mailbox<T> {
    q: Mutex<Queue<T>>,
    not_full: Condvar,
    cap: usize,
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
        }
    }

    /// Enqueues `v`, blocking up to `patience` while over capacity.
    pub(crate) fn push(&self, v: T, patience: Duration) -> Push {
        self.enqueue(v, patience, false)
    }

    /// Priority variant of [`Mailbox::push`]: `v` goes to the *front*
    /// of the queue (handoff acquires overtake queued new-call work),
    /// but it obeys the same capacity, stall, and forcing rules —
    /// priority jumps the line, it does not escape backpressure.
    pub(crate) fn push_front(&self, v: T, patience: Duration) -> Push {
        self.enqueue(v, patience, true)
    }

    fn enqueue(&self, v: T, patience: Duration, front: bool) -> Push {
        let insert = |q: &mut VecDeque<T>, v| {
            if front {
                q.push_front(v);
            } else {
                q.push_back(v);
            }
        };
        let mut q = self.q.lock().expect("mailbox poisoned");
        if q.events.len() < self.cap {
            insert(&mut q.events, v);
            return Push::Fit;
        }
        let deadline = Instant::now() + patience;
        loop {
            let now = Instant::now();
            if now >= deadline {
                insert(&mut q.events, v);
                return Push::Forced;
            }
            q.stalled += 1;
            let (guard, _) = self
                .not_full
                .wait_timeout(q, deadline - now)
                .expect("mailbox poisoned");
            q = guard;
            q.stalled -= 1;
            if q.events.len() < self.cap {
                insert(&mut q.events, v);
                return Push::Stalled;
            }
        }
    }

    /// Moves up to `max` events into `out`; wakes blocked senders when
    /// space opens up.
    pub(crate) fn drain(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut q = self.q.lock().expect("mailbox poisoned");
        let n = max.min(q.events.len());
        out.extend(q.events.drain(..n));
        if q.stalled > 0 && q.events.len() < self.cap {
            self.not_full.notify_all();
        }
        n
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.q.lock().expect("mailbox poisoned").events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fit_until_capacity_then_force() {
        let mb = Mailbox::new(2);
        assert_eq!(mb.push(1, Duration::ZERO), Push::Fit);
        assert_eq!(mb.push(2, Duration::ZERO), Push::Fit);
        // Full, zero patience: forced straight in (never lost).
        assert_eq!(mb.push(3, Duration::ZERO), Push::Forced);
        let mut out = Vec::new();
        assert_eq!(mb.drain(&mut out, 10), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(mb.is_empty());
    }

    #[test]
    fn push_front_overtakes_queued_work_but_not_capacity() {
        let mb = Mailbox::new(2);
        assert_eq!(mb.push(1, Duration::ZERO), Push::Fit);
        assert_eq!(mb.push_front(0, Duration::ZERO), Push::Fit);
        // Full: priority still obeys the capacity rules.
        assert_eq!(mb.push_front(9, Duration::ZERO), Push::Forced);
        let mut out = Vec::new();
        mb.drain(&mut out, 10);
        assert_eq!(out, vec![9, 0, 1]);
    }

    #[test]
    fn blocked_sender_wakes_on_drain() {
        let mb = Arc::new(Mailbox::new(1));
        assert_eq!(mb.push(1u32, Duration::ZERO), Push::Fit);
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push(2, Duration::from_secs(10)))
        };
        // Give the pusher time to block, then open space.
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        mb.drain(&mut out, 1);
        assert_eq!(pusher.join().unwrap(), Push::Stalled);
        mb.drain(&mut out, 1);
        assert_eq!(out, vec![1, 2]);
    }
}
