//! Bounded worker mailboxes — the backpressure surface of the
//! production executor, bounded for the threads outside it only.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A bounded MPSC queue with one consumer, which takes everything at
/// once and may park until there is something. The bound holds for
/// callers only, the threads outside the executor: a caller's push
/// waits while the queue is full, with no deadline, and that wait is
/// the backpressure a closed-loop client feels. A worker's push goes in
/// at once, over the bound if need be. Only callers wait and only the
/// consumer makes room, so no cycle of waits can form, and `close`
/// frees a waiting caller.
///
/// Every push is a run of events ([`Mailbox::push_run`]); capacity is
/// checked once a push, so a caller leaves the queue holding at most
/// `cap − 1` events plus its run.
pub(crate) struct Mailbox<T> {
    q: Mutex<Queue<T>>,
    /// Signalled for a parked consumer by a push or by `close`.
    filled: Condvar,
    /// Signalled for stalled callers by a take or by `close`.
    not_full: Condvar,
    cap: usize,
}

struct Queue<T> {
    events: VecDeque<T>,
    /// Callers blocked on `not_full`; a take signals only for them.
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

    /// Enqueues all of `run`, in order and with nothing in between,
    /// under one lock, then wakes the consumer if it is parked — after
    /// the lock is released, so it does not block on it. With `wait`
    /// (a caller's push) the run first waits while the queue is full,
    /// until a take or `close` opens room, and then goes in whole;
    /// without it (a worker's) it goes in at once. True if it waited.
    pub(crate) fn push_run(&self, run: impl IntoIterator<Item = T>, wait: bool) -> bool {
        let mut q = self.q.lock().expect("mailbox poisoned");
        let waited = wait && q.events.len() >= self.cap && !q.closed;
        if waited {
            q.stalled += 1;
            while q.events.len() >= self.cap && !q.closed {
                q = self.not_full.wait(q).expect("mailbox poisoned");
            }
            q.stalled -= 1;
        }
        q.events.extend(run);
        let wake = q.parked;
        drop(q);
        if wake {
            self.filled.notify_one();
        }
        waited
    }

    /// Swaps everything queued into `into`, which must be empty, after
    /// parking until there is something or `wait` has passed (zero: no
    /// parking; too long to reach an `Instant`: no limit), and wakes
    /// stalled callers. What it swaps in may be nothing, once the wait
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

    /// Stops the consumer and every stalled caller; later pushes go in
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

    /// A worker's push goes in at once, whatever the queue holds: at
    /// capacity, over it, and beside a caller waiting for room.
    #[test]
    fn a_workers_push_never_waits_even_over_capacity() {
        let mb = Arc::new(Mailbox::new(2));
        assert!(!mb.push_run([1], false));
        assert!(!mb.push_run([2], false));
        // Full: in straight away, all of the run (never lost).
        assert!(!mb.push_run([3, 4, 5], false));
        let caller = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push_run([7], true))
        };
        until(&mb, |q| q.stalled > 0);
        assert!(!mb.push_run([6], false), "past a waiting caller");
        assert_eq!(take(&mb), vec![1, 2, 3, 4, 5, 6]);
        assert!(caller.join().unwrap());
        assert_eq!(take(&mb), vec![7]);
        assert_eq!(take(&mb), Vec::<i32>::new());
    }

    /// A caller's run fits while there is room, and on a full queue
    /// waits, with no deadline, until a take opens room; then it goes
    /// in whole.
    #[test]
    fn an_admission_waits_as_a_whole_run_until_a_take_opens_room() {
        let mb = Arc::new(Mailbox::new(4));
        // One free slot is room for the whole run: capacity is checked
        // once, and the overshoot is the run's length less one.
        assert!(!mb.push_run(0..3, true));
        assert!(!mb.push_run(3..8, true));
        let caller = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push_run(8..12, true))
        };
        until(&mb, |q| q.stalled > 0);
        assert_eq!(mb.q.lock().unwrap().events.len(), 8, "none of it went in");
        assert_eq!(take(&mb), (0..8).collect::<Vec<_>>());
        assert!(caller.join().unwrap(), "it waited");
        assert_eq!(take(&mb), (8..12).collect::<Vec<_>>());
        // An empty run is a no-op that still reports how it went.
        assert!(!mb.push_run(0..0, true));
        assert_eq!(take(&mb), Vec::<i32>::new());
    }

    #[test]
    fn take_keeps_push_order_and_trades_buffers() {
        let mb = Mailbox::new(100);
        mb.push_run(0..3, true);
        mb.push_run([3], false);
        mb.push_run(4..6, true);
        let mut out = VecDeque::with_capacity(64);
        assert!(mb.take(&mut out, Duration::ZERO));
        assert_eq!(out, (0..6).collect::<VecDeque<_>>());
        // The buffer traded in is the queue now, and works on.
        out.clear();
        mb.push_run([6], true);
        assert!(mb.take(&mut out, Duration::ZERO));
        assert_eq!(out, [6]);
    }

    #[test]
    fn blocked_sender_wakes_on_take() {
        let mb = Arc::new(Mailbox::new(1));
        assert!(!mb.push_run([1u32], true));
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push_run([2], true))
        };
        // Wait until the pusher is blocked, then open space.
        until(&mb, |q| q.stalled > 0);
        assert_eq!(take(&mb), vec![1]);
        assert!(pusher.join().unwrap());
        assert_eq!(take(&mb), vec![2]);
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
        mb.push_run([7u32], false);
        until(&mb, |q| q.parked && q.events.is_empty());
        mb.close();
        assert_eq!(consumer.join().unwrap(), vec![7]);
        assert!(!mb.push_run([8], true), "closed: no wait");
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
        mb.push_run([5u32], false);
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

    /// Closing frees a caller stalled on a full mailbox at once, though
    /// its wait has no deadline.
    #[test]
    fn close_frees_a_stalled_sender() {
        let mb = Arc::new(Mailbox::new(1));
        assert!(!mb.push_run([1u32], true));
        let pusher = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push_run([2], true))
        };
        until(&mb, |q| q.stalled > 0);
        mb.close();
        assert!(pusher.join().unwrap());
    }
}
