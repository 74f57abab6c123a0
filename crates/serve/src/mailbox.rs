//! Bounded worker mailboxes — the backpressure surface of the
//! production executor.

use std::collections::VecDeque;
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

/// A bounded MPSC queue with *blocking* push and one consumer, which
/// takes everything at once and may park until there is something.
/// Senders exceeding the capacity wait (that is the backpressure a
/// closed-loop client feels); a sender that has waited `patience`
/// forces its events in anyway, so a cycle of full mailboxes can never
/// deadlock the worker pool — overflow is counted, not fatal.
///
/// A push is one event ([`Mailbox::push`]) or a run of them
/// ([`Mailbox::push_run`]); capacity is checked once a push, so the
/// queue holds at most `cap − 1` events plus one run.
pub(crate) struct Mailbox<T> {
    q: Mutex<Queue<T>>,
    /// Signalled for a parked consumer by a push or by `close`.
    filled: Condvar,
    /// Signalled for stalled senders by a take or by `close`.
    not_full: Condvar,
    cap: usize,
}

struct Queue<T> {
    events: VecDeque<T>,
    /// Senders blocked on `not_full`; a take signals only for them.
    stalled: usize,
    /// The consumer is waiting on `filled`. A busy consumer looks at
    /// the queue again before it parks, so a push signals only when
    /// this is set.
    parked: bool,
    closed: bool,
}

impl<T> Mailbox<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Mailbox {
            q: Mutex::new(Queue {
                events: VecDeque::new(),
                stalled: 0,
                parked: false,
                closed: false,
            }),
            filled: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues `v`, blocking up to `patience` while over capacity.
    pub(crate) fn push(&self, v: T, patience: Duration) -> Push {
        self.enqueue(patience, |q| q.push_back(v))
    }

    /// Enqueues all of `run`, in order and with nothing in between,
    /// under one lock and one capacity check: the run waits while the
    /// queue is full and then goes in whole.
    pub(crate) fn push_run(&self, run: impl Iterator<Item = T>, patience: Duration) -> Push {
        self.enqueue(patience, |q| q.extend(run))
    }

    /// Inserts under the lock, then wakes the consumer if it is parked
    /// — after the lock is released, so it does not block on it.
    fn enqueue(&self, patience: Duration, insert: impl FnOnce(&mut VecDeque<T>)) -> Push {
        let mut q = self.q.lock().expect("mailbox poisoned");
        let mut how = Push::Fit;
        if q.events.len() >= self.cap && !q.closed {
            (q, how) = self.await_room(q, patience);
        }
        insert(&mut q.events);
        let wake = q.parked;
        drop(q);
        if wake {
            self.filled.notify_one();
        }
        how
    }

    /// Waits on a full queue until a take or `close` opens room
    /// ([`Push::Stalled`]) or `patience` runs out ([`Push::Forced`]); a
    /// patience too long to reach an `Instant` has no limit (a wait of
    /// `Duration::MAX` is one without a timeout).
    fn await_room<'a>(
        &self,
        mut q: MutexGuard<'a, Queue<T>>,
        patience: Duration,
    ) -> (MutexGuard<'a, Queue<T>>, Push) {
        let deadline = Instant::now().checked_add(patience);
        loop {
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return (q, Push::Forced);
            }
            q.stalled += 1;
            q = self
                .not_full
                .wait_timeout(q, left)
                .expect("mailbox poisoned")
                .0;
            q.stalled -= 1;
            if q.events.len() < self.cap || q.closed {
                return (q, Push::Stalled);
            }
        }
    }

    /// Swaps everything queued into `into`, which must be empty, after
    /// parking until there is something or `wait` has passed (zero: no
    /// parking; too long to reach an `Instant`: no limit), and wakes
    /// stalled senders. What it swaps in may be nothing, once the wait
    /// is up. False once the mailbox is closed: the consumer stops.
    pub(crate) fn take(&self, into: &mut VecDeque<T>, wait: Duration) -> bool {
        debug_assert!(into.is_empty(), "take swaps into an empty buffer");
        let mut q = self.q.lock().expect("mailbox poisoned");
        if !wait.is_zero() {
            let deadline = Instant::now().checked_add(wait);
            while q.events.is_empty() && !q.closed {
                let left = deadline.map_or(Duration::MAX, |d| {
                    d.saturating_duration_since(Instant::now())
                });
                if left.is_zero() {
                    break;
                }
                q.parked = true;
                q = self
                    .filled
                    .wait_timeout(q, left)
                    .expect("mailbox poisoned")
                    .0;
                q.parked = false;
            }
        }
        if q.closed {
            return false;
        }
        std::mem::swap(&mut q.events, into);
        let wake = q.stalled > 0;
        drop(q);
        if wake {
            self.not_full.notify_all();
        }
        true
    }

    /// Stops the consumer and every stalled sender; later pushes go in
    /// without waiting and are never taken.
    pub(crate) fn close(&self) {
        self.q.lock().expect("mailbox poisoned").closed = true;
        self.filled.notify_one();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Takes everything queued into a fresh buffer, without waiting.
    fn take<T>(mb: &Mailbox<T>) -> Vec<T> {
        let mut out = VecDeque::new();
        assert!(mb.take(&mut out, Duration::ZERO), "open");
        out.into()
    }

    /// Spins until `pred` holds of the queue, as another thread's wait
    /// makes it.
    fn until<T>(mb: &Mailbox<T>, pred: impl Fn(&Queue<T>) -> bool) {
        while !pred(&mb.q.lock().unwrap()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fit_until_capacity_then_force() {
        let mb = Mailbox::new(2);
        assert_eq!(mb.push(1, Duration::ZERO), Push::Fit);
        assert_eq!(mb.push(2, Duration::ZERO), Push::Fit);
        // Full, zero patience: forced straight in (never lost).
        assert_eq!(mb.push(3, Duration::ZERO), Push::Forced);
        assert_eq!(take(&mb), vec![1, 2, 3]);
        assert_eq!(take(&mb), Vec::<i32>::new());
    }

    #[test]
    fn a_run_fits_stalls_or_is_forced_as_a_whole() {
        let mb = Arc::new(Mailbox::new(4));
        // One free slot is room for the whole run: capacity is checked
        // once, and the overshoot is the run's length less one.
        assert_eq!(mb.push_run(0..3, Duration::ZERO), Push::Fit);
        assert_eq!(mb.push_run(3..8, Duration::ZERO), Push::Fit);
        // Full: a run with no patience is forced, all of it.
        assert_eq!(mb.push_run(8..10, Duration::ZERO), Push::Forced);
        // Full: a patient run waits, and goes in whole once a take has
        // emptied the queue.
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push_run(10..14, Duration::from_secs(10)))
        };
        until(&mb, |q| q.stalled > 0);
        assert_eq!(take(&mb), (0..10).collect::<Vec<_>>());
        assert_eq!(pusher.join().unwrap(), Push::Stalled);
        assert_eq!(take(&mb), (10..14).collect::<Vec<_>>());
        // An empty run is a no-op that still reports how it went.
        assert_eq!(mb.push_run(0..0, Duration::ZERO), Push::Fit);
        assert_eq!(take(&mb), Vec::<i32>::new());
    }

    #[test]
    fn take_keeps_push_order_and_trades_buffers() {
        let mb = Mailbox::new(100);
        mb.push_run(0..3, Duration::ZERO);
        mb.push(3, Duration::ZERO);
        mb.push_run(4..6, Duration::ZERO);
        let mut out = VecDeque::with_capacity(64);
        assert!(mb.take(&mut out, Duration::ZERO));
        assert_eq!(out, (0..6).collect::<VecDeque<_>>());
        // The buffer traded in is the queue now, and works on.
        out.clear();
        mb.push(6, Duration::ZERO);
        assert!(mb.take(&mut out, Duration::ZERO));
        assert_eq!(out, [6]);
    }

    #[test]
    fn blocked_sender_wakes_on_take() {
        let mb = Arc::new(Mailbox::new(1));
        assert_eq!(mb.push(1u32, Duration::ZERO), Push::Fit);
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push(2, Duration::from_secs(10)))
        };
        // Wait until the pusher is blocked, then open space.
        until(&mb, |q| q.stalled > 0);
        assert_eq!(take(&mb), vec![1]);
        assert_eq!(pusher.join().unwrap(), Push::Stalled);
        assert_eq!(take(&mb), vec![2]);
    }

    /// A patience too long to reach an `Instant` waits without a limit
    /// instead of panicking on the deadline sum.
    #[test]
    fn an_endless_patience_waits_for_room() {
        let mb = Arc::new(Mailbox::new(1));
        assert_eq!(mb.push(1u32, Duration::ZERO), Push::Fit);
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push(2, Duration::MAX))
        };
        until(&mb, |q| q.stalled > 0);
        assert_eq!(take(&mb), vec![1]);
        assert_eq!(pusher.join().unwrap(), Push::Stalled);
    }

    /// The consumer parks on an empty mailbox and wakes for a push, and
    /// again, parked once more, for `close` — after which `take` is
    /// false, whatever is queued.
    #[test]
    fn a_parked_consumer_wakes_on_a_push_and_on_close() {
        let mb = Arc::new(Mailbox::new(8));
        let consumer = {
            let mb = mb.clone();
            std::thread::spawn(move || {
                let mut taken = Vec::new();
                let mut out = VecDeque::new();
                while mb.take(&mut out, Duration::MAX) {
                    taken.extend(out.drain(..));
                }
                taken
            })
        };
        until(&mb, |q| q.parked);
        mb.push(7u32, Duration::ZERO);
        until(&mb, |q| q.parked && q.events.is_empty());
        mb.close();
        assert_eq!(consumer.join().unwrap(), vec![7]);
        assert_eq!(mb.push(8, Duration::ZERO), Push::Fit);
        assert!(!mb.take(&mut VecDeque::new(), Duration::ZERO));
    }

    /// A bounded wait parks until its time is up and then takes nothing;
    /// a push ends it early, and so does `close`.
    #[test]
    fn a_bounded_wait_ends_at_its_time_or_at_a_push() {
        let mb = Arc::new(Mailbox::new(8));
        let mut out = VecDeque::new();
        let began = Instant::now();
        assert!(mb.take(&mut out, Duration::from_millis(20)));
        assert!(began.elapsed() >= Duration::from_millis(20));
        assert!(out.is_empty());
        let consumer = {
            let mb = mb.clone();
            std::thread::spawn(move || {
                let mut out = VecDeque::new();
                let open = mb.take(&mut out, Duration::from_secs(3600));
                (open, out)
            })
        };
        until(&mb, |q| q.parked);
        mb.push(5u32, Duration::ZERO);
        let (open, out) = consumer.join().unwrap();
        assert!(open && out == [5], "woken by the push");
        let closer = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.take(&mut VecDeque::new(), Duration::from_secs(3600)))
        };
        until(&mb, |q| q.parked);
        mb.close();
        assert!(!closer.join().unwrap(), "closed");
    }

    /// Closing frees a sender stalled on a full mailbox at once, however
    /// patient it is.
    #[test]
    fn close_frees_a_stalled_sender() {
        let mb = Arc::new(Mailbox::new(1));
        assert_eq!(mb.push(1u32, Duration::ZERO), Push::Fit);
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push(2, Duration::MAX))
        };
        until(&mb, |q| q.stalled > 0);
        mb.close();
        assert_eq!(pusher.join().unwrap(), Push::Stalled);
    }
}
