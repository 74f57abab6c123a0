//! A shared timer wheel: one dispatcher thread, many timers.
//!
//! One sleeper OS thread per protocol timer is hopeless for a serving
//! backend where every borrow round arms a retry timer. The
//! [`TimerWheel`] is a single thread parked on a
//! deadline min-heap: [`TimerWheel::schedule`] is a heap push, plus a
//! condvar wake only when the new timer becomes the earliest deadline
//! (the dispatcher is asleep until the old earliest one and must be
//! told to get up sooner; a later timer is found when it gets there).
//! The dispatcher takes everything that expired together under one
//! lock and hands it to the caller-supplied callback one timer at a
//! time, in deadline order (FIFO among ties).
//!
//! Nothing in the workspace arms one: the wire client in
//! `adca-wire` services its deadlines in its own socket reads (its
//! `connect` still takes a wheel, and holds it unarmed), and each worker
//! of the production backend in `adca-serve` keeps its own band's
//! timers.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Entry<T> {
    due: Instant,
    seq: u64,
    payload: T,
}

// Reversed ordering so the `BinaryHeap` max-heap pops the *earliest*
// deadline; `seq` breaks ties FIFO.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

struct State<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    stop: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// A single dispatcher thread firing scheduled payloads in deadline
/// order.
///
/// Dropping the wheel stops the dispatcher and discards timers that
/// have not yet expired — exactly the shutdown semantics a wire
/// client wants (a stale deadline after the run is over must not fire).
pub struct TimerWheel<T: Send + 'static> {
    inner: Arc<Inner<T>>,
    handle: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> TimerWheel<T> {
    /// Starts the dispatcher thread. `dispatch` is called once per
    /// expired timer, in deadline order (FIFO among ties), on the
    /// wheel's own thread and outside the wheel's lock, so it may
    /// [`schedule`] again. Keep it cheap and non-blocking (the wire
    /// client posts to an unbounded queue).
    ///
    /// ```
    /// use adca_threadnet::TimerWheel;
    /// use std::sync::mpsc;
    /// use std::time::Duration;
    ///
    /// let (tx, rx) = mpsc::channel();
    /// let wheel = TimerWheel::new(move |v: u32| {
    ///     let _ = tx.send(v);
    /// });
    /// wheel.schedule(Duration::from_millis(1), 7);
    /// assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
    /// ```
    ///
    /// [`schedule`]: Self::schedule
    pub fn new<F>(mut dispatch: F) -> Self
    where
        F: FnMut(T) + Send + 'static,
    {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                seq: 0,
                stop: false,
            }),
            cv: Condvar::new(),
        });
        let thread_inner = inner.clone();
        let handle = std::thread::spawn(move || {
            let mut st = thread_inner.state.lock().expect("wheel poisoned");
            let mut fired = Vec::new();
            loop {
                if st.stop {
                    return;
                }
                let now = Instant::now();
                while st.heap.peek().is_some_and(|e| e.due <= now) {
                    fired.push(st.heap.pop().expect("peeked").payload);
                }
                if !fired.is_empty() {
                    // Dispatch outside the lock so callbacks can call
                    // `schedule` re-entrantly.
                    drop(st);
                    fired.drain(..).for_each(&mut dispatch);
                    st = thread_inner.state.lock().expect("wheel poisoned");
                    continue;
                }
                st = match st.heap.peek().map(|e| e.due) {
                    Some(due) => {
                        let wait = due.saturating_duration_since(now);
                        thread_inner
                            .cv
                            .wait_timeout(st, wait)
                            .expect("wheel poisoned")
                            .0
                    }
                    None => thread_inner.cv.wait(st).expect("wheel poisoned"),
                };
            }
        });
        TimerWheel {
            inner,
            handle: Some(handle),
        }
    }

    /// Arms one timer: `dispatch(payload)` fires after `after` elapses.
    /// A delay too long to reach an `Instant` never elapses, so such a
    /// timer is not armed (and `payload` is dropped).
    pub fn schedule(&self, after: Duration, payload: T) {
        if let Some(due) = Instant::now().checked_add(after) {
            self.schedule_at(due, payload);
        }
    }

    /// Arms one timer: `dispatch(payload)` fires once `due` has passed.
    pub fn schedule_at(&self, due: Instant, payload: T) {
        let mut st = self.inner.state.lock().expect("wheel poisoned");
        let seq = st.seq;
        st.seq += 1;
        st.heap.push(Entry { due, seq, payload });
        // The dispatcher sleeps until the earliest deadline it saw, so
        // it needs a wake only when this one is earlier still.
        if st.heap.peek().is_some_and(|e| e.seq == seq) {
            self.inner.cv.notify_one();
        }
    }

    /// Number of armed, not-yet-fired timers.
    pub fn pending(&self) -> usize {
        self.inner.state.lock().expect("wheel poisoned").heap.len()
    }
}

impl<T: Send + 'static> Drop for TimerWheel<T> {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("wheel poisoned");
            st.stop = true;
        }
        self.inner.cv.notify_one();
        if let Some(h) = self.handle.take() {
            if h.thread().id() == std::thread::current().id() {
                // The wheel can be dropped *on its own dispatcher
                // thread*: a dispatch callback may upgrade a weak
                // reference to the wheel and end up holding the last
                // strong one. Joining ourselves would be an
                // instant EDEADLK panic; the stop flag is already
                // set, so detach and let the thread exit on its own.
                drop(h);
            } else {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, OnceLock, Weak};

    #[test]
    fn fires_in_deadline_order() {
        let (tx, rx) = mpsc::channel();
        let wheel = TimerWheel::new(move |v: u32| {
            let _ = tx.send(v);
        });
        wheel.schedule(Duration::from_millis(30), 3);
        wheel.schedule(Duration::from_millis(10), 1);
        wheel.schedule(Duration::from_millis(20), 2);
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv_timeout(Duration::from_secs(5)).expect("fired"));
        }
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(wheel.pending(), 0);
    }

    /// A later timer does not wake the dispatcher; an earlier one must,
    /// or it would sleep through it until the hour is up.
    #[test]
    fn earlier_timer_cuts_a_long_sleep_short() {
        let (tx, rx) = mpsc::channel();
        let wheel = TimerWheel::new(move |v: u32| {
            let _ = tx.send(v);
        });
        wheel.schedule(Duration::from_secs(3600), 60);
        wheel.schedule(Duration::from_secs(7200), 120);
        wheel.schedule(Duration::from_millis(10), 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(1));
        assert_eq!(wheel.pending(), 2);
    }

    #[test]
    fn shared_deadline_fires_fifo() {
        const N: u32 = 10_000;
        let (tx, rx) = mpsc::channel();
        let wheel = TimerWheel::new(move |v: u32| {
            let _ = tx.send(v);
        });
        let due = Instant::now() + Duration::from_millis(50);
        for v in 0..N {
            wheel.schedule_at(due, v);
        }
        for v in 0..N {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(v));
        }
        assert_eq!(wheel.pending(), 0);
    }

    /// The callback runs on the dispatcher itself, which is awake and
    /// gets no wake: it has to find the new timer on its way back.
    #[test]
    fn callback_can_schedule() {
        let (tx, rx) = mpsc::channel();
        let slot: Arc<OnceLock<Weak<TimerWheel<u32>>>> = Arc::default();
        let in_callback = slot.clone();
        let wheel = Arc::new(TimerWheel::new(move |v: u32| {
            if v < 3 {
                let wheel = in_callback.get().and_then(Weak::upgrade).expect("set");
                wheel.schedule(Duration::from_millis(1), v + 1);
            }
            let _ = tx.send(v);
        }));
        slot.set(Arc::downgrade(&wheel)).expect("set once");
        wheel.schedule(Duration::from_millis(1), 0);
        for v in 0..=3 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(v));
        }
        assert_eq!(wheel.pending(), 0);
    }

    /// Timers that fall due while the dispatcher is busy are handed over
    /// in deadline order and FIFO among ties. The first timer holds the
    /// dispatcher (a gate) while the rest are armed with deadlines
    /// already past, in scrambled order.
    #[test]
    fn what_fell_due_together_fires_in_deadline_order_fifo_among_ties() {
        let (open, gate) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        let wheel = TimerWheel::new(move |fired: (u32, u32)| {
            let _ = tx.send(fired);
            if fired == (0, 0) {
                gate.recv().expect("the test opens the gate");
            }
        });
        wheel.schedule(Duration::ZERO, (0, 0));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok((0, 0)));
        let base = Instant::now();
        // (deadline in µs after `base`, arming order among its ties)
        let armed = [(3, 0), (1, 0), (3, 1), (2, 0), (1, 1), (3, 2), (2, 1)];
        for (at, k) in armed {
            wheel.schedule_at(base + Duration::from_micros(at.into()), (at, k));
        }
        std::thread::sleep(Duration::from_millis(1));
        open.send(()).expect("the dispatcher waits at the gate");
        let mut expected = armed.to_vec();
        expected.sort();
        for want in expected {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(want));
        }
        assert_eq!(wheel.pending(), 0);
    }

    /// A delay no `Instant` can reach is a timer that never fires: it is
    /// not armed, where the deadline sum used to panic.
    #[test]
    fn an_endless_delay_arms_nothing() {
        let wheel = TimerWheel::new(|_: u32| panic!("an endless timer fired"));
        wheel.schedule(Duration::MAX, 1);
        assert_eq!(wheel.pending(), 0);
    }

    #[test]
    fn drop_discards_unfired_timers() {
        let (tx, rx) = mpsc::channel();
        let wheel = TimerWheel::new(move |v: u32| {
            let _ = tx.send(v);
        });
        wheel.schedule(Duration::from_secs(3600), 9);
        assert_eq!(wheel.pending(), 1);
        drop(wheel); // must not hang for an hour
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }
}
