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
//! [`recv`](WireClient::recv) (before it looks for events or waits),
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
//! `submit` reads no clock. A request is written **once**: the
//! connection is one TCP stream, a reliable FIFO link, so a second copy
//! could only reach the server behind the first, where it is dropped.
//! A request whose deadline passes with no answer resolves as
//! [`WireEvent::TimedOut`].
//!
//! A connection numbers its requests 0, 1, 2, … and keeps them in a
//! window over `[base, next id)`: `base` is the oldest request not yet
//! answered or timed out, and the slots of resolved requests above it
//! wait there until it moves. Each slot holds its request's one
//! deadline, and deadlines are stamped in id order from clock reads
//! that never go back, so the window is also the deadline queue: the
//! requests due are a prefix of it, and a wait need only end for the
//! front's deadline. The client holds state for the requests still in
//! flight, not for every request the connection has served, and each
//! id resolves once: an answer to an id no longer in the window is
//! dropped. The server keeps one number a connection, the id it expects
//! next, and drops an id below it.
//!
//! **The driver reads its own socket.** A client starts no thread and
//! takes no lock: every receiving call — [`recv`](WireClient::recv) and
//! those of the [`AllocService`] view — reads the socket on the
//! driver's thread, and only when the events already read hold nothing
//! for it. A call that does not wait makes one non-blocking read. One
//! that waits puts the socket in blocking mode with a read timeout that
//! ends at the earlier of the wait's end and the front request's
//! deadline, rounded up to a whole millisecond, so it wakes when bytes
//! arrive or a deadline passes, and services expired deadlines on
//! waking. The socket's mode and timeout are set only when they change.
//! A `submit` that fills the queue writes it and then makes one
//! non-blocking read, so a driver that only submits still sees the
//! connection close; a failed write closes the client at once.
//!
//! This cannot wedge, though the client does not read while it writes.
//! Its `write` blocks only while the server's reader does not read; that
//! reader blocks only on a full worker mailbox; and the workers drain
//! their mailboxes without waiting on any client, because the answers
//! go to the server's unbounded per-connection outbox. So a client that
//! writes without reading leaves its answers queued on the server.
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
use adca_threadnet::TimerWheel;
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for one client connection.
#[derive(Debug, Clone, Copy)]
pub struct WireClientConfig {
    /// Patience for each request's answer, from the write that carries
    /// it. One too long to reach an `Instant` (`Duration::MAX`) is no
    /// deadline: such a request never times out.
    pub deadline: Duration,
    /// Test knob: transmit every request frame **twice** on first send,
    /// simulating an aggressive retry. With an idempotent server this
    /// must change nothing but its dedup counter.
    pub inject_dup_first_send: bool,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        WireClientConfig {
            deadline: Duration::from_millis(6300),
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
    /// The request's deadline passed with no answer.
    TimedOut {
        /// The request's idempotency id.
        id: u64,
    },
}

/// The payload type of the wheel [`WireClient::connect`] takes. No
/// client arms a timer, so it carries nothing.
pub struct WireDeadline;

/// Builds the wheel [`WireClient::connect`] takes. No client arms it:
/// each services its deadlines in its own socket reads. A client holds
/// the handle until it is dropped, so a caller that passes a temporary
/// joins the wheel's thread at the drop, not at the connect.
pub fn deadline_wheel() -> Arc<TimerWheel<WireDeadline>> {
    Arc::new(TimerWheel::new(|_: WireDeadline| {}))
}

/// The queue is written out, without waiting for the driver's `recv`,
/// once it holds this much: what the server's reader takes in one read.
/// It is also the most one socket read of the client's takes.
const FLUSH_AT: usize = 16 * 1024;

/// The requests of a connection by id: `slots[i]` is id `base + i`,
/// `None` once it resolved, `Some(None)` while it waits for its write
/// (or always, when the deadline is endless) and `Some(Some(due))`
/// once written. The front slot is always live, so `base` is the
/// oldest unresolved id, or the next id when none is.
#[derive(Default)]
struct Window {
    base: u64,
    slots: VecDeque<Option<Option<Instant>>>,
    /// The `Some` slots.
    live: usize,
}

impl Window {
    /// Opens the slot of the next id, unwritten.
    fn push(&mut self) {
        self.slots.push_back(Some(None));
        self.live += 1;
    }

    /// `id`'s slot; `None` below `base` or past the last id sent.
    fn slot(&mut self, id: u64) -> Option<&mut Option<Option<Instant>>> {
        let off = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(off)
    }

    /// Resolves `id`, if it is still unresolved, and moves `base` past
    /// the resolved slots at the front. Whether it was unresolved.
    fn resolve(&mut self, id: u64) -> bool {
        if self.slot(id).and_then(Option::take).is_none() {
            return false;
        }
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        true
    }

    /// The front request's deadline, if it has one.
    fn front_due(&self) -> Option<Instant> {
        self.slots.front().copied().flatten().flatten()
    }
}

#[derive(Default)]
struct ClientState {
    /// The requests not yet answered or timed out, by id, each with its
    /// deadline.
    pending: Window,
    events: VecDeque<WireEvent>,
    /// Requests the server refused at admission.
    refused: u64,
    closed: bool,
}

impl ClientState {
    /// Starts the deadlines of the requests `ids`, about to go out in a
    /// write made at `now`. A request answered before its write (only a
    /// peer that answers ahead of the request can do that) stays
    /// resolved.
    fn stamp(&mut self, ids: Range<u64>, now: Instant, patience: Duration) {
        // `None`: no deadline (see `WireClientConfig::deadline`).
        let due = now.checked_add(patience);
        for id in ids {
            if let Some(Some(slot)) = self.pending.slot(id) {
                *slot = due;
            }
        }
    }

    /// Times out every request whose deadline has passed at `now`: a
    /// prefix of the window, since deadlines are stamped in id order
    /// from clock reads that never go back.
    fn expire(&mut self, now: Instant, timeouts: &mut u64) {
        while self.pending.front_due().is_some_and(|due| due <= now) {
            let id = self.pending.base;
            self.pending.resolve(id);
            self.events.push_back(WireEvent::TimedOut { id });
            *timeouts += 1;
        }
    }
}

/// The client's socket and the mode it was last put in, so that no
/// call repeats a `set_*`.
struct Socket {
    stream: TcpStream,
    nonblocking: bool,
    /// The read timeout, which only a blocking read heeds.
    timeout: Option<Duration>,
}

impl Socket {
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// One read, waiting up to `nap` for bytes to arrive: not at all
    /// when it is zero, for as long as it takes when it is `None`.
    fn read(&mut self, buf: &mut [u8], nap: Option<Duration>) -> io::Result<usize> {
        if nap.is_some_and(|nap| nap.is_zero()) {
            self.set_nonblocking(true)?;
        } else {
            // A zero timeout is none to the socket: round up to whole
            // milliseconds, so a wait never wakes before its end and
            // waits that end alike ask for the same timeout.
            let timeout = nap.map(|nap| {
                let ms = nap.as_nanos().div_ceil(1_000_000);
                Duration::from_millis(u64::try_from(ms).unwrap_or(u64::MAX))
            });
            if self.timeout != timeout {
                self.stream.set_read_timeout(timeout)?;
                self.timeout = timeout;
            }
            self.set_nonblocking(false)?;
        }
        self.stream.read(buf)
    }

    /// Writes all of `bytes`. A full send buffer makes the rest of the
    /// write blocking, as a blocking `write_all` would be.
    fn write_all(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.set_nonblocking(false)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// A connected wire client. One driver thread owns it and reads its
/// socket.
pub struct WireClient {
    cfg: WireClientConfig,
    sock: Socket,
    /// Whole frames queued for the next write.
    out: Vec<u8>,
    /// What one socket read lands in, before `dec` takes it.
    rbuf: Box<[u8]>,
    dec: FrameDecoder,
    st: ClientState,
    next_id: u64,
    /// The first id with no deadline yet: `[stamped, next_id)` are
    /// queued for their first write.
    stamped: u64,
    writes: u64,
    timeouts: u64,
    view: View,
    /// Held, never armed, until the client drops: see
    /// [`deadline_wheel`].
    _wheel: Arc<TimerWheel<WireDeadline>>,
}

impl WireClient {
    /// Connects to a [`WireServer`](crate::WireServer) at `addr`. The
    /// client arms nothing on `wheel` (from [`deadline_wheel`]): it
    /// holds the handle until it drops.
    pub fn connect(
        addr: impl ToSocketAddrs,
        cfg: WireClientConfig,
        wheel: &Arc<TimerWheel<WireDeadline>>,
    ) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(WireClient {
            cfg,
            sock: Socket {
                stream,
                nonblocking: false,
                timeout: None,
            },
            out: Vec::new(),
            rbuf: vec![0; FLUSH_AT].into_boxed_slice(),
            dec: FrameDecoder::new(),
            st: ClientState::default(),
            next_id: 0,
            stamped: 0,
            writes: 0,
            timeouts: 0,
            view: View::default(),
            _wheel: wheel.clone(),
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
        if self.st.closed {
            return Err(io::Error::new(
                ErrorKind::BrokenPipe,
                "wire connection closed",
            ));
        }
        let id = self.next_id;
        let msg = WireMsg::Request {
            id,
            at: req.at,
            cell: req.cell.index() as u32,
            kind: req.kind,
            hold: req.hold,
            handoff_of: req.handoff_of.map(|t| t.0),
        };
        self.st.pending.push();
        self.next_id += 1;
        encode_into(&mut self.out, &msg);
        if self.cfg.inject_dup_first_send {
            encode_into(&mut self.out, &msg);
        }
        // The id is registered, so it is returned whatever becomes of
        // this write: should it fail, the client is closed, and the
        // deadline, started before the write, times the request out.
        let _ = self.flush_if_full();
        Ok(id)
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
    /// anywhere else with requests queued.
    pub fn flush(&mut self) -> io::Result<()> {
        self.write_out(Instant::now)
    }

    /// Writes the queue out, if it holds anything, after starting the
    /// deadlines of the requests queued since the last write with one
    /// clock read, `now`. A failed write closes the client.
    fn write_out(&mut self, now: impl FnOnce() -> Instant) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        if self.stamped < self.next_id {
            let ids = self.stamped..self.next_id;
            self.st.stamp(ids, now(), self.cfg.deadline);
            self.stamped = self.next_id;
        }
        self.writes += 1;
        let written = self.sock.write_all(&self.out);
        // After a failed write the stream is broken mid-frame: nothing
        // of the queue can be sent again.
        self.out.clear();
        self.st.closed |= written.is_err();
        written
    }

    /// Writes a full queue out, then makes one read that does not wait,
    /// so that a driver that only submits still sees the connection
    /// close.
    fn flush_if_full(&mut self) -> io::Result<()> {
        if self.out.len() < FLUSH_AT {
            return Ok(());
        }
        let written = self.flush();
        self.read(Some(Duration::ZERO));
        written
    }

    /// One socket read, waiting up to `nap` as [`Socket::read`] does,
    /// and the events of every frame it completes. The end of the
    /// stream, a socket error or a frame that does not decode closes the
    /// client.
    fn read(&mut self, nap: Option<Duration>) {
        match self.sock.read(&mut self.rbuf, nap) {
            Ok(0) => self.st.closed = true,
            Ok(n) => {
                self.dec.extend(&self.rbuf[..n]);
                loop {
                    match self.dec.next_frame() {
                        Ok(Some(msg)) => deliver(&mut self.st, msg),
                        Ok(None) => break,
                        Err(_) => break self.st.closed = true,
                    }
                }
            }
            // Nothing arrived within the nap, or a signal cut it short.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => self.st.closed = true,
        }
    }

    /// Waits up to `wait` for the next event, after writing out what
    /// [`submit`](Self::submit) and [`release`](Self::release) queued:
    /// it never looks for events or waits with bytes in the queue.
    /// Expired deadlines are serviced here, on the driver's own thread:
    /// each such request resolves as [`WireEvent::TimedOut`]. Returns
    /// `None` on timeout, or when the connection is closed and fully
    /// drained.
    pub fn recv(&mut self, wait: Duration) -> Option<WireEvent> {
        self.wait_for(wait, |st| st.events.pop_front())
    }

    /// The one receiving path, under [`recv`](Self::recv) and every
    /// receiving call of the [`AllocService`] view: services expired
    /// deadlines, writes the queue out, and only then asks `take` for
    /// what the caller came for — reading the socket, up to `wait`,
    /// while `take` finds nothing and the connection is open. A read
    /// ends at the front request's deadline too, and a zero `wait` makes
    /// one read that does not wait. The queue's new requests take their
    /// deadlines from the clock read that serviced the expired ones.
    fn wait_for<T>(
        &mut self,
        wait: Duration,
        mut take: impl FnMut(&mut ClientState) -> Option<T>,
    ) -> Option<T> {
        // With nothing to write, what has arrived is handed out with no
        // clock read: deadlines are serviced once it runs out.
        if self.out.is_empty() {
            if let Some(taken) = take(&mut self.st) {
                return Some(taken);
            }
        }
        let mut now = Instant::now();
        // A wait too long to reach an `Instant` has no limit.
        let give_up = now.checked_add(wait);
        let mut read = false;
        loop {
            self.st.expire(now, &mut self.timeouts);
            // A failed write closes the client, as in `submit`.
            let _ = self.write_out(|| now);
            if let Some(taken) = take(&mut self.st) {
                return Some(taken);
            }
            let spent = give_up.is_some_and(|g| now >= g);
            if self.st.closed || (spent && read) {
                return None;
            }
            let wake = match (give_up, self.st.pending.front_due()) {
                (Some(g), Some(due)) => Some(g.min(due)),
                (g, due) => g.or(due),
            };
            self.read(wake.map(|w| w.saturating_duration_since(now)));
            read = true;
            // A spent wait made its one read: the clock need not move.
            if !spent {
                now = Instant::now();
            }
        }
    }

    /// Requests submitted but not yet resolved (answered or timed out).
    pub fn in_flight(&self) -> usize {
        self.st.pending.live
    }

    /// `write` calls issued so far: one a burst, not one a frame.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Always 0: a request is written once. Kept only for the
    /// benchmark's `wire.retries`, which still reads it.
    pub fn retries(&self) -> u64 {
        0
    }

    /// Requests whose deadline passed with no answer.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Requests the server refused at admission (an unknown cell, a
    /// spent handoff source, a backend shutting down).
    pub fn refused(&self) -> u64 {
        self.st.refused
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        let _ = self.flush();
        let _ = self.sock.stream.shutdown(Shutdown::Both);
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
        self.wait_for(wait, |st| (!st.events.is_empty()).then_some(()));
        for ev in self.st.events.drain(..) {
            self.view.translate(ev);
        }
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
/// | `Confirm::Rejected { cause: RetryExhausted }` | [`WireEvent::TimedOut`]: the deadline passed with no answer. Counted in [`timeouts`](WireClient::timeouts) |
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
/// still times out. [`stats`](AllocService::stats) are this client's own
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

    /// One pump takes the event queue whole; it is split in
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

/// Queues the event `msg` stands for. An answer whose id is no longer
/// pending — it already timed out, or the peer sent it twice — is
/// dropped: exactly-once delivery to the driver.
fn deliver(st: &mut ClientState, msg: WireMsg) {
    let ev = match msg {
        WireMsg::Granted {
            id,
            ticket,
            cell,
            channel,
            latency,
        } => {
            if !st.pending.resolve(id) {
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
            if !st.pending.resolve(id) {
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
            if !st.pending.resolve(id) {
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

    fn granted(id: u64) -> WireMsg {
        WireMsg::Granted {
            id,
            ticket: id,
            cell: 0,
            channel: 0,
            latency: 0,
        }
    }

    /// The window's floor is the oldest unresolved id: answers out of
    /// order leave it where it is, the answer it waited for moves it
    /// past every resolved slot, and a timeout moves it like an answer.
    /// An id outside the window resolves nothing.
    #[test]
    fn the_floor_is_the_oldest_unresolved_id() {
        let mut st = ClientState::default();
        for _ in 0..4 {
            st.pending.push();
        }
        let now = Instant::now();
        st.stamp(0..4, now, Duration::ZERO);
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

        // Id 3's deadline has passed: it times out.
        let mut timeouts = 0;
        st.expire(now, &mut timeouts);
        assert_eq!(st.events.back(), Some(&WireEvent::TimedOut { id: 3 }));
        assert_eq!((st.pending.base, st.pending.live), (4, 0));
        assert!(st.pending.slots.is_empty());
        deliver(&mut st, granted(3));
        assert_eq!(st.events.len(), 4, "a late answer is dropped");
        assert_eq!(timeouts, 1);
    }

    /// Four requests, two written at `t0` and one at `t1`, one still
    /// unwritten; the second is answered. `expire` times out exactly
    /// the prefix that is due, in id order, past the answered slot; the
    /// unwritten request never times out, and a wait ends at the
    /// front's deadline.
    #[test]
    fn expire_times_out_the_due_prefix_of_the_window() {
        let mut st = ClientState::default();
        let patience = Duration::from_millis(10);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        for _ in 0..4 {
            st.pending.push();
        }
        st.stamp(0..2, t0, patience);
        st.stamp(2..3, t1, patience);
        assert_eq!(st.pending.front_due(), Some(t0 + patience), "the front's");
        deliver(&mut st, granted(1));

        let mut timeouts = 0;
        st.expire(t0 + patience - Duration::from_nanos(1), &mut timeouts);
        assert!(st.events.len() == 1 && timeouts == 0, "nothing due yet");
        st.expire(t0 + patience, &mut timeouts);
        assert_eq!(
            st.pending.front_due(),
            Some(t1 + patience),
            "the next front"
        );
        st.expire(t1 + patience, &mut timeouts);
        let timed_out: Vec<_> = st
            .events
            .iter()
            .filter_map(|ev| match *ev {
                WireEvent::TimedOut { id } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(timed_out, [0, 2], "the due prefix, in id order");
        assert_eq!((st.pending.base, st.pending.live), (3, 1));

        st.expire(t0 + Duration::from_secs(3600), &mut timeouts);
        assert_eq!(timeouts, 2, "an unwritten request never times out");
        assert_eq!(st.pending.front_due(), None, "and sets no wake");

        let events = st.events.len();
        deliver(&mut st, granted(0));
        deliver(&mut st, granted(2));
        assert_eq!(st.events.len(), events, "a late answer is dropped");
        deliver(&mut st, granted(3));
        assert_eq!(st.pending.live, 0);
    }

    /// A request's patience starts at the write that carries it, not at
    /// `submit`: queued past its whole deadline, it is written out and
    /// waits, where it used to time out before it was ever sent.
    #[test]
    fn a_deadline_starts_at_the_write() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let cfg = WireClientConfig {
            deadline: Duration::from_millis(20),
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
