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
//! first, or its requests wait in the queue while their deadlines run.
//!
//! Every request carries a deadline. The client keeps them itself,
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
//! [`WireServer`]: crate::WireServer

use crate::frame::{encode_into, FrameDecoder, WireMsg};
use adca_serve::ChannelRequest;
use adca_simkit::DropCause;
use adca_threadnet::{Backoff, TimerWheel};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one client connection.
#[derive(Debug, Clone, Copy)]
pub struct WireClientConfig {
    /// Patience for the first answer to each attempt.
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

struct ClientState {
    pending: HashMap<u64, PendingReq>,
    /// When the latest transmission of each request runs out of
    /// patience, earliest first. A first transmission's entry goes on
    /// the back, so this is submit order but for retries. An answered
    /// request's entry is dropped when it reaches the front.
    deadlines: VecDeque<(Instant, u64)>,
    /// Whether this client's one entry on the wheel is armed.
    armed: bool,
    events: VecDeque<WireEvent>,
    /// Whether `recv` is parked on the condvar.
    receiving: bool,
    closed: bool,
}

impl ClientState {
    fn set_deadline(&mut self, due: Instant, id: u64) {
        let at = self.deadlines.partition_point(|&(d, _)| d <= due);
        self.deadlines.insert(at, (due, id));
    }

    /// Drops the entries of answered requests off the front.
    fn trim_deadlines(&mut self) {
        while let Some(&(_, id)) = self.deadlines.front() {
            if self.pending.contains_key(&id) {
                break;
            }
            self.deadlines.pop_front();
        }
    }

    /// Takes every request whose deadline has passed at `now`: one with
    /// budget left gets its next deadline (`patience` plus its next
    /// backoff delay) and its frame is appended to `out` for
    /// retransmission, one without resolves as a timeout. Returns the
    /// number of retransmissions.
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
            let Some(p) = self.pending.get_mut(&id) else {
                continue; // answered in the meantime
            };
            match p.backoff.next_delay() {
                Some(delay) => {
                    encode_into(out, &p.msg);
                    resent += 1;
                    self.set_deadline(now + patience + delay, id);
                }
                None => {
                    self.pending.remove(&id);
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

/// A connected wire client. Not `Sync`: one driver thread owns it (the
/// closed-loop load generator gives each driver its own client).
pub struct WireClient {
    shared: Arc<ClientShared>,
    wheel: Arc<TimerWheel<WireDeadline>>,
    cfg: WireClientConfig,
    stream: TcpStream,
    /// Whole frames queued for the next write.
    out: Vec<u8>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    writes: u64,
    retries: u64,
    timeouts: u64,
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
            st: Mutex::new(ClientState {
                pending: HashMap::new(),
                deadlines: VecDeque::new(),
                armed: false,
                events: VecDeque::new(),
                receiving: false,
                closed: false,
            }),
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
            writes: 0,
            retries: 0,
            timeouts: 0,
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
    /// runs from this call, so the time queued counts against the
    /// request's patience. `Err` means the connection is closed and
    /// nothing was registered: an id that was never returned never
    /// times out.
    pub fn submit(&mut self, req: &ChannelRequest) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let msg = WireMsg::Request {
            id,
            at: req.at,
            cell: req.cell.index() as u32,
            kind: req.kind,
            hold: req.hold,
            handoff_of: req.handoff_of.map(|t| t.0),
        };
        let due = Instant::now() + self.cfg.deadline;
        let arm = {
            let mut st = self.shared.st.lock().expect("client poisoned");
            if st.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "wire connection closed",
                ));
            }
            st.pending.insert(
                id,
                PendingReq {
                    msg: msg.clone(),
                    backoff: Backoff::new(
                        self.cfg.backoff,
                        self.cfg.deadline,
                        self.cfg.max_retries,
                    ),
                },
            );
            st.set_deadline(due, id);
            st.arm()
        };
        self.arm_wheel(arm);
        encode_into(&mut self.out, &msg);
        if self.cfg.inject_dup_first_send {
            encode_into(&mut self.out, &msg);
        }
        // The id is registered, so it is returned whatever becomes of
        // this write: should it fail, the reader observes the broken
        // stream and closes, and the deadline times the request out.
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
    /// anywhere else with requests queued.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
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
        let mut now = Instant::now();
        let give_up = now + wait;
        let mut st = self.shared.st.lock().expect("client poisoned");
        loop {
            self.retries += st.expire(now, self.cfg.deadline, &mut self.timeouts, &mut self.out);
            let arm = st.arm();
            if !self.out.is_empty() || arm.is_some() {
                drop(st);
                // A failed write is the reader's to observe, as in
                // `submit`.
                let _ = self.flush();
                self.arm_wheel(arm);
                st = self.shared.st.lock().expect("client poisoned");
            }
            if let Some(ev) = st.events.pop_front() {
                return Some(ev);
            }
            if st.closed || now >= give_up {
                return None;
            }
            st.receiving = true;
            st = self
                .shared
                .cv
                .wait_timeout(st, (give_up - now).min(Duration::from_millis(5)))
                .expect("client poisoned")
                .0;
            st.receiving = false;
            now = Instant::now();
        }
    }

    /// Requests submitted but not yet resolved (answered or timed out).
    pub fn in_flight(&self) -> usize {
        self.shared
            .st
            .lock()
            .expect("client poisoned")
            .pending
            .len()
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
            if st.pending.remove(&id).is_none() {
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
            if st.pending.remove(&id).is_none() {
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
            if st.pending.remove(&id).is_none() {
                return;
            }
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
