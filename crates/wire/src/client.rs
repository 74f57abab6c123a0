//! [`WireClient`]: a pipelining TCP client for a [`WireServer`].
//!
//! Requests are **pipelined**: [`WireClient::submit`] queues the frame
//! and returns the idempotency id immediately, so many requests ride
//! the connection concurrently; answers surface through
//! [`WireClient::recv`] in whatever order the protocol resolves them.
//!
//! The unit on the socket is the **burst** — what the driver has to say
//! when it turns to listen. [`submit`](WireClient::submit) and
//! [`release`](WireClient::release) encode into one byte queue, and the
//! queue leaves in one `write` at the first of: the next
//! [`recv`](WireClient::recv) (before it looks for events or parks),
//! [`flush`](WireClient::flush), drop, or the queue reaching 16 KiB.
//! Nothing waits for a burst to fill: a driver with one request in
//! flight writes one frame a `recv`, one that polled 64 answers and
//! re-submits their subscribers writes 64 frames at once. A driver that
//! submits and then blocks somewhere other than `recv` must `flush`
//! first, or its requests wait in the queue.
//!
//! Every request carries a deadline, which starts when the write that
//! carries the request goes out: the write reads the clock once and
//! stamps every request queued since the last one, just before it is
//! made, so a request behind a failed write still times out, and
//! `submit` reads no clock. The client keeps the deadlines itself,
//! earliest first, and keeps **one** entry armed on a shared
//! [`TimerWheel`] — for the oldest unanswered request — so one wheel
//! (and one dispatcher thread) serves every client in the process and
//! holds one timer a client, not one a request. When a deadline passes
//! the request is retransmitted under the **same id** with the next
//! delay from its bounded [`Backoff`] schedule; the server's
//! idempotency layer guarantees the retry can never double-commit a
//! grant, and a request whose budget runs dry resolves as
//! [`WireEvent::TimedOut`].
//!
//! A connection numbers its requests 0, 1, 2, … and keeps them in a
//! window over `[base, next id)`: `base` is the oldest request not yet
//! answered or timed out, and the slots of resolved requests above it
//! wait there until it moves. So the client holds state for the
//! requests it can still send, not for every request the connection
//! has served, and each id resolves once: an answer to an id no longer
//! in the window is dropped. The server keeps one number a connection,
//! the id it expects next, and drops a retransmission below it.
//!
//! The client is also an [`AllocService`]: a second view over the same
//! event queue that speaks [`Ticket`]s, [`Confirm`]s and
//! [`Indication`]s, so whatever drives the in-process backends drives a
//! socket unchanged (the mapping is on the
//! [impl](WireClient#impl-AllocService-for-WireClient)).
//!
//! [`WireServer`]: crate::WireServer

use crate::frame::{encode_into, FrameDecoder, WireMsg};
use adca_hexgrid::{CellId, Channel};
use adca_serve::{
    AllocService, ChannelRequest, Confirm, Indication, ServeError, ServeStats, Ticket,
};
use adca_simkit::DropCause;
use adca_threadnet::{Backoff, TimerWheel};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one client connection.
#[derive(Debug, Clone, Copy)]
pub struct WireClientConfig {
    /// Patience for the first answer to each attempt. One too long to
    /// reach an `Instant` (`Duration::MAX`) is no deadline: such a
    /// request is never retransmitted and never times out.
    pub deadline: Duration,
    /// Retransmissions allowed per request before it times out.
    pub max_retries: u32,
    /// Base of the per-request backoff schedule: attempt *k* is given
    /// `deadline` plus the *k*-th delay of a [`Backoff`] starting here
    /// (doubling, capped at `deadline`).
    pub backoff: Duration,
    /// Test knob: transmit every request frame **twice** on first send,
    /// simulating an aggressive retry. With an idempotent server this
    /// must change nothing but its dedup counter.
    pub inject_dup_first_send: bool,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        WireClientConfig {
            deadline: Duration::from_secs(2),
            max_retries: 2,
            backoff: Duration::from_millis(100),
            inject_dup_first_send: false,
        }
    }
}

/// One answer (or locally-resolved outcome) surfaced by
/// [`WireClient::recv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireEvent {
    /// The protocol granted a channel.
    Granted {
        /// The request's idempotency id.
        id: u64,
        /// Server ticket (use it to hand off or release the call).
        ticket: u64,
        /// Serving cell index.
        cell: u32,
        /// Granted channel number.
        channel: u16,
        /// Acquisition latency in backend ticks.
        latency: u64,
    },
    /// The protocol denied service.
    Rejected {
        /// The request's idempotency id.
        id: u64,
        /// Server ticket of the denied request.
        ticket: u64,
        /// Denying cell index.
        cell: u32,
        /// Failure class.
        cause: DropCause,
    },
    /// The server refused the request at admission.
    Refused {
        /// The request's idempotency id.
        id: u64,
        /// The service error text.
        reason: String,
    },
    /// A held channel returned to the pool.
    Released {
        /// The ticket whose channel was returned.
        ticket: u64,
        /// Cell index that held it.
        cell: u32,
        /// Returned channel number.
        channel: u16,
    },
    /// The request's retry budget ran dry with no answer.
    TimedOut {
        /// The request's idempotency id.
        id: u64,
    },
}

/// Payload armed on the shared deadline wheel: *which client's* oldest
/// unanswered request was due to run out of patience.
pub struct WireDeadline {
    client: Weak<ClientShared>,
}

/// Builds the shared deadline wheel every [`WireClient`] in a process
/// should be handed. The dispatch callback only disarms its client and
/// wakes it — cheap and non-blocking, as the wheel requires; the
/// retransmit, and arming the entry for the next deadline, happen on
/// the client's own thread inside [`WireClient::recv`].
pub fn deadline_wheel() -> Arc<TimerWheel<WireDeadline>> {
    Arc::new(TimerWheel::new(|d: WireDeadline| {
        if let Some(shared) = d.client.upgrade() {
            let mut st = shared.st.lock().expect("client poisoned");
            st.armed = false;
            if st.receiving {
                shared.cv.notify_all();
            }
        }
    }))
}

/// The queue is written out, without waiting for the driver's `recv`,
/// once it holds this much: what the server's reader takes in one read.
const FLUSH_AT: usize = 16 * 1024;

struct PendingReq {
    /// The request, re-encoded for retransmission: byte-identical,
    /// because a frame is a function of its message.
    msg: WireMsg,
    backoff: Backoff,
}

/// The requests of a connection by id: `slots[i]` is id `base + i`,
/// `None` once it resolved. The front slot is always live, so `base` is
/// the oldest unresolved id, or the next id when none is.
#[derive(Default)]
struct Window {
    base: u64,
    slots: VecDeque<Option<PendingReq>>,
    /// The `Some` slots.
    live: usize,
}

impl Window {
    fn push(&mut self, p: PendingReq) {
        self.slots.push_back(Some(p));
        self.live += 1;
    }

    /// `id`'s slot; `None` below `base` or past the last id sent.
    fn slot(&mut self, id: u64) -> Option<&mut Option<PendingReq>> {
        let off = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(off)
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut PendingReq> {
        self.slot(id)?.as_mut()
    }

    /// Takes `id`'s request, if it is still unresolved, and moves `base`
    /// past the resolved slots at the front.
    fn resolve(&mut self, id: u64) -> Option<PendingReq> {
        let p = self.slot(id)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(p)
    }
}

#[derive(Default)]
struct ClientState {
    /// The requests not yet answered or timed out, by id.
    pending: Window,
    /// When the latest transmission of each request runs out of
    /// patience, earliest first. A first transmission's entry goes on
    /// the back, so this is submit order but for retries. An answered
    /// request's entry is dropped when it reaches the front. A request
    /// still queued for its first write has none yet.
    deadlines: VecDeque<(Instant, u64)>,
    /// Whether this client's one entry on the wheel is armed.
    armed: bool,
    events: VecDeque<WireEvent>,
    /// Requests the server refused at admission.
    refused: u64,
    /// Whether the driver is parked on the condvar.
    receiving: bool,
    closed: bool,
}

impl ClientState {
    /// Files `id`'s deadline behind every entry due no later: on the
    /// back, unless a retry already waits there for a later one.
    fn set_deadline(&mut self, due: Instant, id: u64) {
        if self.deadlines.back().is_none_or(|&(d, _)| d <= due) {
            self.deadlines.push_back((due, id));
        } else {
            let at = self.deadlines.partition_point(|&(d, _)| d <= due);
            self.deadlines.insert(at, (due, id));
        }
    }

    /// Starts the deadlines of the requests `ids`, about to go out for
    /// the first time in a write made at `now`.
    fn stamp(&mut self, ids: Range<u64>, now: Instant, patience: Duration) {
        // `None`: no deadline (see `WireClientConfig::deadline`).
        if let Some(due) = now.checked_add(patience) {
            for id in ids {
                self.set_deadline(due, id);
            }
        }
    }

    /// Drops the entries of answered requests off the front.
    fn trim_deadlines(&mut self) {
        while let Some(&(_, id)) = self.deadlines.front() {
            if self.pending.get_mut(id).is_some() {
                break;
            }
            self.deadlines.pop_front();
        }
    }

    /// Takes every request whose deadline has passed at `now`: one with
    /// budget left gets its next deadline (`patience` plus its next
    /// backoff delay) and its frame is appended to `out` for
    /// retransmission, one without resolves as a timeout. A next
    /// deadline too far to reach an `Instant` is none: that request
    /// waits for its answer, unsent again and never timed out. Returns
    /// the number of retransmissions.
    fn expire(
        &mut self,
        now: Instant,
        patience: Duration,
        timeouts: &mut u64,
        out: &mut Vec<u8>,
    ) -> u64 {
        let mut resent = 0;
        while let Some(&(due, id)) = self.deadlines.front() {
            if due > now {
                break;
            }
            self.deadlines.pop_front();
            let Some(p) = self.pending.get_mut(id) else {
                continue; // answered in the meantime
            };
            match p.backoff.next_delay() {
                Some(delay) => {
                    let next = now.checked_add(patience).and_then(|d| d.checked_add(delay));
                    if let Some(due) = next {
                        encode_into(out, &p.msg);
                        resent += 1;
                        self.set_deadline(due, id);
                    }
                }
                None => {
                    self.pending.resolve(id);
                    self.events.push_back(WireEvent::TimedOut { id });
                    *timeouts += 1;
                }
            }
        }
        resent
    }

    /// The instant to arm the wheel for, when it is not armed and a
    /// request is waiting; the caller must then arm it.
    fn arm(&mut self) -> Option<Instant> {
        if self.armed {
            return None;
        }
        let &(due, _) = self.deadlines.front()?;
        self.armed = true;
        Some(due)
    }
}

/// State shared between the driver thread, the reader thread, and the
/// wheel's dispatch callback.
pub struct ClientShared {
    st: Mutex<ClientState>,
    cv: Condvar,
}

/// A connected wire client. Not `Sync`: one driver thread owns it.
pub struct WireClient {
    shared: Arc<ClientShared>,
    wheel: Arc<TimerWheel<WireDeadline>>,
    cfg: WireClientConfig,
    stream: TcpStream,
    /// Whole frames queued for the next write.
    out: Vec<u8>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    /// The first id with no deadline yet: `[stamped, next_id)` are
    /// queued for their first write.
    stamped: u64,
    writes: u64,
    retries: u64,
    timeouts: u64,
    view: View,
}

impl WireClient {
    /// Connects to a [`WireServer`](crate::WireServer) at `addr`,
    /// arming deadlines on the process-shared `wheel` (from
    /// [`deadline_wheel`]).
    pub fn connect(
        addr: impl ToSocketAddrs,
        cfg: WireClientConfig,
        wheel: &Arc<TimerWheel<WireDeadline>>,
    ) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let shared = Arc::new(ClientShared {
            st: Mutex::default(),
            cv: Condvar::new(),
        });
        let reader = {
            let shared = shared.clone();
            let stream = stream.try_clone()?;
            std::thread::spawn(move || run_reader(&shared, stream))
        };
        Ok(WireClient {
            shared,
            wheel: wheel.clone(),
            cfg,
            stream,
            out: Vec::new(),
            reader: Some(reader),
            next_id: 0,
            stamped: 0,
            writes: 0,
            retries: 0,
            timeouts: 0,
            view: View::default(),
        })
    }

    /// Submits one channel request (pipelined; does not wait for the
    /// answer) and returns its idempotency id. A handoff's
    /// `handoff_of` names the **server** ticket from the source call's
    /// [`WireEvent::Granted`].
    ///
    /// Submitted means *queued*: the frame is on the wire by the
    /// driver's next [`recv`](Self::recv), [`flush`](Self::flush) or
    /// drop, or at once when the queue reaches 16 KiB. The deadline
    /// runs from the write that carries it, so the time queued does not
    /// count against the request's patience. `Err` means the connection
    /// is closed and nothing was registered: an id that was never
    /// returned never times out.
    pub fn submit(&mut self, req: &ChannelRequest) -> io::Result<u64> {
        let id = self.next_id;
        let msg = WireMsg::Request {
            id,
            at: req.at,
            cell: req.cell.index() as u32,
            kind: req.kind,
            hold: req.hold,
            handoff_of: req.handoff_of.map(|t| t.0),
        };
        {
            let mut st = self.shared.st.lock().expect("client poisoned");
            if st.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "wire connection closed",
                ));
            }
            st.pending.push(PendingReq {
                msg: msg.clone(),
                backoff: Backoff::new(self.cfg.backoff, self.cfg.deadline, self.cfg.max_retries),
            });
        }
        self.next_id += 1;
        encode_into(&mut self.out, &msg);
        if self.cfg.inject_dup_first_send {
            encode_into(&mut self.out, &msg);
        }
        // The id is registered, so it is returned whatever becomes of
        // this write: should it fail, the reader observes the broken
        // stream and closes, and the deadline, started before the
        // write, times the request out.
        let _ = self.flush_if_full();
        Ok(id)
    }

    fn arm_wheel(&self, due: Option<Instant>) {
        if let Some(due) = due {
            let client = Arc::downgrade(&self.shared);
            self.wheel.schedule_at(due, WireDeadline { client });
        }
    }

    /// Ends the call behind server `ticket` early (fire and forget; the
    /// answer is a [`WireEvent::Released`] once the channel returns).
    /// Queued like a [`submit`](Self::submit), behind whatever was
    /// queued before it; `Err` only when this call filled the queue and
    /// the write failed.
    pub fn release(&mut self, ticket: u64) -> io::Result<()> {
        encode_into(&mut self.out, &WireMsg::Release { ticket });
        self.flush_if_full()
    }

    /// Writes the queue out in one `write`, if it holds anything. The
    /// driver's `recv` does this itself; call it before blocking
    /// anywhere else with requests queued. One clock read starts the
    /// deadlines of every request queued since the last write, under
    /// one lock, before the write is made.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        if self.stamped < self.next_id {
            let arm = {
                let mut st = self.shared.st.lock().expect("client poisoned");
                st.stamp(
                    self.stamped..self.next_id,
                    Instant::now(),
                    self.cfg.deadline,
                );
                st.arm()
            };
            self.stamped = self.next_id;
            self.arm_wheel(arm);
        }
        self.writes += 1;
        let written = self.stream.write_all(&self.out);
        // After a failed write the stream is broken mid-frame: nothing
        // of the queue can be sent again.
        self.out.clear();
        written
    }

    fn flush_if_full(&mut self) -> io::Result<()> {
        if self.out.len() >= FLUSH_AT {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Waits up to `wait` for the next event, after writing out what
    /// [`submit`](Self::submit) and [`release`](Self::release) queued:
    /// it never looks for events or parks with bytes in the queue.
    /// Expired deadlines are serviced here, on the driver's own thread:
    /// a request with budget left is retransmitted byte-identically
    /// under the same id (through the same queue); one without resolves
    /// as [`WireEvent::TimedOut`]. Returns `None` on timeout, or when
    /// the connection is closed and fully drained.
    pub fn recv(&mut self, wait: Duration) -> Option<WireEvent> {
        self.wait_for(wait, |st| st.events.pop_front())
    }

    /// The one receiving path, under [`recv`](Self::recv) and every
    /// receiving call of the [`AllocService`] view: services expired
    /// deadlines, writes the queue out, and only then asks `take` for
    /// what the caller came for — parking, up to `wait`, while `take`
    /// finds nothing and the connection is open. The queue's new
    /// requests take their deadlines from the clock read that serviced
    /// the expired ones.
    fn wait_for<T>(
        &mut self,
        wait: Duration,
        mut take: impl FnMut(&mut ClientState) -> Option<T>,
    ) -> Option<T> {
        let mut now = Instant::now();
        // A wait too long to reach an `Instant` has no limit.
        let give_up = now.checked_add(wait);
        let mut st = self.shared.st.lock().expect("client poisoned");
        loop {
            self.retries += st.expire(now, self.cfg.deadline, &mut self.timeouts, &mut self.out);
            st.stamp(self.stamped..self.next_id, now, self.cfg.deadline);
            self.stamped = self.next_id;
            let arm = st.arm();
            if !self.out.is_empty() || arm.is_some() {
                drop(st);
                // A failed write is the reader's to observe, as in
                // `submit`.
                let _ = self.flush();
                self.arm_wheel(arm);
                st = self.shared.st.lock().expect("client poisoned");
            }
            if let Some(taken) = take(&mut st) {
                return Some(taken);
            }
            if st.closed || give_up.is_some_and(|g| now >= g) {
                return None;
            }
            let nap = give_up.map_or(Duration::MAX, |g| g - now);
            st.receiving = true;
            st = self
                .shared
                .cv
                .wait_timeout(st, nap.min(Duration::from_millis(5)))
                .expect("client poisoned")
                .0;
            st.receiving = false;
            now = Instant::now();
        }
    }

    /// Requests submitted but not yet resolved (answered or timed out).
    pub fn in_flight(&self) -> usize {
        self.shared.st.lock().expect("client poisoned").pending.live
    }

    /// `write` calls issued so far: one a burst, not one a frame.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Retransmissions performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Requests that exhausted their retry budget.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Requests the server refused at admission (an unknown cell, a
    /// spent handoff source, a backend shutting down).
    pub fn refused(&self) -> u64 {
        self.shared.st.lock().expect("client poisoned").refused
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        let _ = self.flush();
        let _ = self.stream.shutdown(Shutdown::Both);
        self.shared.st.lock().expect("client poisoned").closed = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// What the [`AllocService`] view knows of a request it submitted.
enum Call {
    /// Unanswered; the cell it asked for, which a timeout or a refusal
    /// does not carry.
    InFlight(u32),
    /// Granted; the server's ticket for the call, which the wire format
    /// wants in a release or a handoff.
    Holding(u64),
}

/// The [`AllocService`] view's state. It is the driver thread's alone,
/// and empty (nothing allocated) in a client driven through
/// `submit`/`recv`.
#[derive(Default)]
struct View {
    /// By idempotency id, from `request_channel` until the request is
    /// rejected, refused or timed out, or the granted call is released.
    calls: HashMap<u64, Call>,
    /// Server ticket → idempotency id of every call in `Holding`.
    holding: HashMap<u64, u64>,
    /// Swapped with the shared event queue under its lock, translated
    /// with the lock let go.
    taken: VecDeque<WireEvent>,
    confirms: VecDeque<Confirm>,
    indications: VecDeque<Indication>,
    granted: u64,
    rejected: u64,
    completed: u64,
}

impl View {
    /// Queues what `ev` is in the trait's vocabulary.
    fn translate(&mut self, ev: WireEvent) {
        match ev {
            WireEvent::Granted {
                id,
                ticket,
                cell,
                channel,
                latency,
            } => {
                self.calls.insert(id, Call::Holding(ticket));
                self.holding.insert(ticket, id);
                self.granted += 1;
                self.confirms.push_back(Confirm::Granted {
                    ticket: Ticket(id),
                    cell: CellId(cell),
                    channel: Channel(channel),
                    latency,
                });
            }
            WireEvent::Rejected {
                id, cell, cause, ..
            } => {
                self.calls.remove(&id);
                self.rejected += 1;
                self.confirms.push_back(Confirm::Rejected {
                    ticket: Ticket(id),
                    cell: CellId(cell),
                    cause,
                });
            }
            WireEvent::TimedOut { id } => self.unanswered(id, DropCause::RetryExhausted),
            WireEvent::Refused { id, .. } => self.unanswered(id, DropCause::Blocked),
            WireEvent::Released {
                ticket,
                cell,
                channel,
            } => {
                // A grant that lost a race with its timeout was dropped
                // by `deliver`; so is the end of that call.
                let Some(id) = self.holding.remove(&ticket) else {
                    return;
                };
                self.calls.remove(&id);
                self.completed += 1;
                self.indications.push_back(Indication::Released {
                    ticket: Ticket(id),
                    cell: CellId(cell),
                    channel: Channel(channel),
                });
            }
        }
    }

    /// The one `Confirm` of a ticket no answer came for. An id that was
    /// submitted through [`WireClient::submit`] is not a ticket of this
    /// view and has no cell on record: its outcome belongs to `recv`.
    fn unanswered(&mut self, id: u64, cause: DropCause) {
        let Some(Call::InFlight(cell)) = self.calls.remove(&id) else {
            return;
        };
        // A refusal was never offered: `stats` takes it off `offered`.
        self.rejected += u64::from(cause == DropCause::RetryExhausted);
        self.confirms.push_back(Confirm::Rejected {
            ticket: Ticket(id),
            cell: CellId(cell),
            cause,
        });
    }
}

impl WireClient {
    /// Takes everything that has arrived into the view's two queues in
    /// arrival order, waiting up to `wait` when both are empty.
    fn pump(&mut self, wait: Duration) {
        let wait = if self.view.confirms.is_empty() && self.view.indications.is_empty() {
            wait
        } else {
            Duration::ZERO
        };
        let mut taken = std::mem::take(&mut self.view.taken);
        self.wait_for(wait, |st| {
            (!st.events.is_empty()).then(|| std::mem::swap(&mut st.events, &mut taken))
        });
        for ev in taken.drain(..) {
            self.view.translate(ev);
        }
        self.view.taken = taken;
    }

    /// The server ticket behind the view's `ticket`, if that call is
    /// holding a channel; `Ok(None)` if it was issued and is not.
    fn server_ticket(&self, ticket: Ticket) -> Result<Option<u64>, ServeError> {
        match self.view.calls.get(&ticket.0) {
            Some(&Call::Holding(server)) => Ok(Some(server)),
            _ if ticket.0 < self.next_id => Ok(None),
            _ => Err(ServeError::UnknownTicket(ticket)),
        }
    }
}

const CLOSED: ServeError = ServeError::Unsupported("wire connection closed");

/// The service on the other end of the socket, behind the same contract
/// as the in-process backends. This is a second *view* over the
/// client's one event queue, translated on the driver's thread as events
/// are taken. **Use one view a client**: an event taken through
/// [`recv`](WireClient::recv) is never seen here and the reverse, and a
/// request submitted through [`submit`](WireClient::submit) is answered
/// through `recv`.
///
/// | trait | wire |
/// |---|---|
/// | `request_channel(req)` | [`submit`](WireClient::submit); the [`Ticket`] is the idempotency id, issued in submission order. `Err(Unsupported("wire connection closed"))` when `submit` fails — nothing was registered |
/// | `Confirm::Granted` / `Rejected { ticket, .. }` | [`WireEvent::Granted`] / [`Rejected`](WireEvent::Rejected) `{ id, .. }` with `ticket = Ticket(id)`; cell, channel, latency and cause carried over. A grant records `id ↔ server ticket` |
/// | `Confirm::Rejected { cause: RetryExhausted }` | [`WireEvent::TimedOut`]: the retry budget ran dry. Counted in [`timeouts`](WireClient::timeouts) |
/// | `Confirm::Rejected { cause: Blocked }` | [`WireEvent::Refused`]: the server refused the request at admission (the reason string is `recv`'s to show). Counted in [`refused`](WireClient::refused) |
/// | `release(Ticket(id))` | [`release`](WireClient::release) of the recorded server ticket; `Ok` and nothing sent for a call that is not holding, `Err(UnknownTicket)` for an id never issued |
/// | `handoff_of: Some(Ticket(id))` | the recorded server ticket; `Err(BadHandoff)` for a source this view has not seen granted |
/// | `Indication::Released { ticket: Ticket(id), .. }` | [`WireEvent::Released`] for the recorded server ticket, which forgets the pair; one for a ticket never seen granted is dropped |
///
/// So **every ticket gets exactly one [`Confirm`]** here too: neither
/// `Confirm` nor `WireEvent` has a variant to spare, and a timeout or a
/// refusal is answered as a rejection at the requested cell (kept while
/// the request is in flight). Every receiving call — `confirm`,
/// `indication`, `recv_confirm`, `recv_answers`, `quiesce` — first
/// services expired deadlines and writes out what was queued, exactly as
/// `recv` does, so a loop that only polls `confirm()` still sends and
/// still retries. [`stats`](AllocService::stats) are this client's own
/// counts, not the backend's.
///
/// One name means two things: on a `WireClient` value, method syntax
/// `client.release(..)` is the native call and takes the server's
/// ticket. The trait's is `AllocService::release(&mut client, ticket)`,
/// or any call through a generic `S: AllocService`.
impl AllocService for WireClient {
    fn request_channel(&mut self, mut req: ChannelRequest) -> Result<Ticket, ServeError> {
        if let Some(src) = req.handoff_of {
            let server = self.server_ticket(src)?.ok_or(ServeError::BadHandoff(
                "the source ticket has not been seen granted on this connection",
            ))?;
            req.handoff_of = Some(Ticket(server));
        }
        let id = self.submit(&req).map_err(|_| CLOSED)?;
        self.view
            .calls
            .insert(id, Call::InFlight(req.cell.index() as u32));
        Ok(Ticket(id))
    }

    fn release(&mut self, ticket: Ticket) -> Result<(), ServeError> {
        match self.server_ticket(ticket)? {
            Some(server) => WireClient::release(self, server).map_err(|_| CLOSED),
            None => Ok(()),
        }
    }

    fn confirm(&mut self) -> Option<Confirm> {
        self.pump(Duration::ZERO);
        self.view.confirms.pop_front()
    }

    fn indication(&mut self) -> Option<Indication> {
        self.pump(Duration::ZERO);
        self.view.indications.pop_front()
    }

    /// One wait on the socket in place of the default's sleep-poll. Like
    /// the production backend's, it ends with `None` as soon as an
    /// indication is there to take instead.
    fn recv_confirm(&mut self, timeout: Duration) -> Option<Confirm> {
        self.pump(timeout);
        self.view.confirms.pop_front()
    }

    /// One lock of the event queue takes the burst whole; it is split in
    /// arrival order, so a ticket's `Granted` is never handed out by a
    /// later call than its `Released`.
    fn recv_answers(
        &mut self,
        timeout: Duration,
        confirms: &mut Vec<Confirm>,
        indications: &mut Vec<Indication>,
    ) {
        self.pump(timeout);
        confirms.extend(self.view.confirms.drain(..));
        indications.extend(self.view.indications.drain(..));
    }

    /// Receives, without taking anything, until no request is in flight.
    fn quiesce(&mut self, limit: Duration) -> bool {
        self.wait_for(limit, |st| (st.pending.live == 0).then_some(()))
            .is_some()
    }

    /// The client's own counts: `offered` is ids issued less refusals (a
    /// backend would have returned `Err` for those), `granted` and
    /// `rejected` count the confirms this view has handed out for
    /// offered requests (timeouts among the rejections), `completed` the
    /// releases it has seen. The backend-only fields are zero and
    /// `violations` is empty: ask the backend's own handle.
    fn stats(&self) -> ServeStats {
        ServeStats {
            offered: self.next_id - self.refused(),
            granted: self.view.granted,
            rejected: self.view.rejected,
            completed: self.view.completed,
            ..ServeStats::default()
        }
    }
}

/// Decodes server frames into events: every frame of one socket read,
/// then one lock and at most one wake for all of them.
fn run_reader(shared: &ClientShared, mut stream: TcpStream) {
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut msgs = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        dec.extend(&buf[..n]);
        let broken = loop {
            match dec.next_frame() {
                Ok(Some(msg)) => msgs.push(msg),
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        let mut st = shared.st.lock().expect("client poisoned");
        let had = st.events.len();
        for msg in msgs.drain(..) {
            deliver(&mut st, msg);
        }
        st.trim_deadlines();
        if st.receiving && st.events.len() > had {
            shared.cv.notify_all();
        }
        drop(st);
        if broken {
            break;
        }
    }
    shared.st.lock().expect("client poisoned").closed = true;
    shared.cv.notify_all();
}

/// Queues the event `msg` stands for. An answer whose id is no longer
/// pending — it already timed out, or a retry raced its original
/// response — is dropped: exactly-once delivery to the driver.
fn deliver(st: &mut ClientState, msg: WireMsg) {
    let ev = match msg {
        WireMsg::Granted {
            id,
            ticket,
            cell,
            channel,
            latency,
        } => {
            if st.pending.resolve(id).is_none() {
                return; // stale duplicate or post-timeout answer
            }
            WireEvent::Granted {
                id,
                ticket,
                cell,
                channel,
                latency,
            }
        }
        WireMsg::Rejected {
            id,
            ticket,
            cell,
            cause,
        } => {
            if st.pending.resolve(id).is_none() {
                return;
            }
            WireEvent::Rejected {
                id,
                ticket,
                cell,
                cause,
            }
        }
        WireMsg::Refused { id, reason } => {
            if st.pending.resolve(id).is_none() {
                return;
            }
            st.refused += 1;
            WireEvent::Refused { id, reason }
        }
        WireMsg::Released {
            ticket,
            cell,
            channel,
        } => WireEvent::Released {
            ticket,
            cell,
            channel,
        },
        // Client→server vocabulary arriving at a client: ignore.
        WireMsg::Request { .. } | WireMsg::Release { .. } => return,
    };
    st.events.push_back(ev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn request(backoff: Backoff) -> PendingReq {
        let msg = WireMsg::Release { ticket: 0 };
        PendingReq { msg, backoff }
    }

    /// A retry whose next deadline lies past what an `Instant` can hold
    /// is not sent and not timed out: it waits for its answer, where
    /// the deadline sum used to panic.
    #[test]
    fn an_unreachable_retry_deadline_is_none() {
        let mut st = ClientState::default();
        let now = Instant::now();
        st.pending.push(request(Backoff::new(
            Duration::from_millis(1),
            Duration::MAX,
            2,
        )));
        st.set_deadline(now, 0);
        let (mut timeouts, mut out) = (0, Vec::new());
        assert_eq!(st.expire(now, Duration::MAX, &mut timeouts, &mut out), 0);
        assert!(out.is_empty() && st.deadlines.is_empty() && st.events.is_empty());
        assert!(st.pending.get_mut(0).is_some());
        assert_eq!((st.pending.base, st.pending.live), (0, 1));
        assert_eq!(timeouts, 0);
    }

    /// The window's floor is the oldest unresolved id: answers out of
    /// order leave it where it is, the answer it waited for moves it
    /// past every resolved slot, and a timeout moves it like an answer.
    /// An id outside the window resolves nothing.
    #[test]
    fn the_floor_is_the_oldest_unresolved_id() {
        let mut st = ClientState::default();
        for _ in 0..4 {
            st.pending
                .push(request(Backoff::new(Duration::ZERO, Duration::ZERO, 0)));
        }
        let granted = |id| WireMsg::Granted {
            id,
            ticket: id,
            cell: 0,
            channel: 0,
            latency: 0,
        };
        deliver(&mut st, granted(2));
        deliver(&mut st, granted(1));
        assert_eq!((st.pending.base, st.pending.live), (0, 2), "0 still waits");
        assert_eq!(st.pending.slots.len(), 4);
        deliver(&mut st, granted(1));
        deliver(&mut st, granted(u64::MAX));
        assert_eq!(
            st.events.len(),
            2,
            "a second answer, or a stranger's, is dropped"
        );
        deliver(&mut st, granted(0));
        assert_eq!((st.pending.base, st.pending.live), (3, 1));
        assert_eq!(st.pending.slots.len(), 1);

        // Id 3 has no retry left: its deadline times it out.
        let now = Instant::now();
        st.set_deadline(now, 3);
        let (mut timeouts, mut out) = (0, Vec::new());
        assert_eq!(st.expire(now, Duration::ZERO, &mut timeouts, &mut out), 0);
        assert_eq!(st.events.back(), Some(&WireEvent::TimedOut { id: 3 }));
        assert_eq!((st.pending.base, st.pending.live), (4, 0));
        assert!(st.pending.slots.is_empty());
        deliver(&mut st, granted(3));
        assert_eq!(st.events.len(), 4, "a late answer is dropped");
    }

    /// A request's patience starts at the write that carries it, not at
    /// `submit`: queued past its whole deadline, it is written out and
    /// waits, where it used to time out before it was ever sent.
    #[test]
    fn a_deadline_starts_at_the_write() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let cfg = WireClientConfig {
            deadline: Duration::from_millis(20),
            max_retries: 0,
            ..WireClientConfig::default()
        };
        let mut client =
            WireClient::connect(listener.local_addr().expect("addr"), cfg, &deadline_wheel())
                .expect("connect");
        let (mut peer, _) = listener.accept().expect("accept");
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        client
            .submit(&ChannelRequest::new_call(0, CellId(0), 10))
            .expect("submit");
        std::thread::sleep(cfg.deadline * 2);
        assert_eq!(client.recv(Duration::ZERO), None, "timed out unsent");
        let got = read_frames(&mut peer, &mut FrameDecoder::new(), 1);
        assert!(
            matches!(got[..], [WireMsg::Request { id: 0, .. }]),
            "{got:?}"
        );
        assert_eq!(
            client.recv(Duration::from_secs(10)),
            Some(WireEvent::TimedOut { id: 0 }),
            "the deadline that started at the write still runs out"
        );
    }

    /// Reads `peer` until `n` frames have arrived.
    fn read_frames(peer: &mut TcpStream, dec: &mut FrameDecoder, n: usize) -> Vec<WireMsg> {
        let mut got = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            while let Some(msg) = dec.next_frame().expect("sound frames") {
                got.push(msg);
            }
            if got.len() >= n {
                return got;
            }
            let k = peer.read(&mut buf).expect("frames on their way");
            assert!(k > 0, "closed after {got:?}");
            dec.extend(&buf[..k]);
        }
    }

    /// `in_flight` and `quiesce` count live requests, not the window's
    /// slots, and a `recv` with nothing queued writes nothing.
    #[test]
    fn in_flight_counts_live_requests_and_an_idle_recv_writes_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = WireClient::connect(
            listener.local_addr().expect("addr"),
            WireClientConfig::default(),
            &deadline_wheel(),
        )
        .expect("connect");
        let (mut peer, _) = listener.accept().expect("accept");
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut dec = FrameDecoder::new();
        let req = ChannelRequest::new_call(0, CellId(0), 10);
        for _ in 0..3 {
            client.submit(&req).expect("submit");
        }
        assert_eq!(client.recv(Duration::ZERO), None);
        assert_eq!(read_frames(&mut peer, &mut dec, 3).len(), 3);

        let answer = |id| {
            crate::frame::encode(&WireMsg::Rejected {
                id,
                ticket: id,
                cell: 0,
                cause: DropCause::Blocked,
            })
        };
        peer.write_all(&answer(1)).expect("answer 1");
        assert!(matches!(
            client.recv(Duration::from_secs(10)),
            Some(WireEvent::Rejected { id: 1, .. })
        ));
        assert_eq!(client.in_flight(), 2);
        assert!(!AllocService::quiesce(&mut client, Duration::ZERO));
        peer.write_all(&[answer(0), answer(2)].concat())
            .expect("answers 0 and 2");
        for want in [0, 2] {
            assert!(matches!(
                client.recv(Duration::from_secs(10)),
                Some(WireEvent::Rejected { id, .. }) if id == want
            ));
        }
        assert_eq!(client.in_flight(), 0);
        assert!(AllocService::quiesce(&mut client, Duration::ZERO));
        assert_eq!(
            client.writes(),
            1,
            "the floor moved, and nothing was written"
        );

        client.submit(&req).expect("submit");
        assert_eq!(client.recv(Duration::ZERO), None);
        let got = read_frames(&mut peer, &mut dec, 1);
        assert!(
            matches!(got[..], [WireMsg::Request { id: 3, .. }]),
            "{got:?}"
        );
        assert_eq!(client.writes(), 2);
    }
}
