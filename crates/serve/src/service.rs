//! The [`AllocService`] contract: request / confirm / indication
//! primitives over any backend.

use adca_hexgrid::{CellId, Channel};
use adca_simkit::{DropCause, RequestKind, SimReport};
use std::time::{Duration, Instant};

/// Opaque handle for one submitted channel request. Tickets are issued
/// by [`AllocService::request_channel`] in submission order and echoed
/// back in the matching [`Confirm`] (and, once the call ends, in a
/// released [`Indication`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket#{}", self.0)
    }
}

/// One channel request, as submitted by a subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelRequest {
    /// Arrival time in virtual ticks. Honoured by the deterministic
    /// backend (it replays the request at this tick); the production
    /// backend serves every request *now* and ignores this field.
    pub at: u64,
    /// The cell (MSS) the subscriber is in.
    pub cell: CellId,
    /// New call or mobility handoff.
    pub kind: RequestKind,
    /// How long the call holds its channel once granted, in ticks. The
    /// service auto-releases when the hold expires; an explicit
    /// [`AllocService::release`] ends it earlier.
    pub hold: u64,
    /// For a [`RequestKind::Handoff`] request: the ticket of the call
    /// being handed off (the ticket currently holding, or about to
    /// hold, a channel). `None` for new calls.
    pub handoff_of: Option<Ticket>,
}

impl ChannelRequest {
    /// A new-call request at `cell` arriving at tick `at` and holding a
    /// granted channel for `hold` ticks.
    pub fn new_call(at: u64, cell: CellId, hold: u64) -> Self {
        ChannelRequest {
            at,
            cell,
            kind: RequestKind::NewCall,
            hold,
            handoff_of: None,
        }
    }

    /// A handoff of the call behind `of` into `target`: the source cell
    /// releases the call's channel and `target` acquires a new one with
    /// handoff priority, holding it for a further `hold` ticks. On the
    /// deterministic backend `at` must lie strictly after the source
    /// call's arrival (and after any earlier hop of the same call) —
    /// the request becomes a hop on the call's mobility plan.
    pub fn handoff(at: u64, of: Ticket, target: CellId, hold: u64) -> Self {
        ChannelRequest {
            at,
            cell: target,
            kind: RequestKind::Handoff,
            hold,
            handoff_of: Some(of),
        }
    }
}

/// Why a service call was refused at the API boundary (distinct from a
/// [`Confirm::Rejected`], which is the *protocol* denying a channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The request names a cell outside the topology.
    UnknownCell(CellId),
    /// The ticket was never issued by this service.
    UnknownTicket(Ticket),
    /// The backend cannot perform this operation (the message names the
    /// limitation, e.g. submitting after shutdown).
    Unsupported(&'static str),
    /// A malformed handoff request: no source ticket, a source that is
    /// not holding a channel, or (on the deterministic backend) a hop
    /// time that does not lie strictly after the call's previous
    /// position change. The message names the rule that was broken.
    BadHandoff(&'static str),
    /// The deterministic backend already ran to quiescence; it accepts
    /// no further requests.
    Quiesced,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownCell(c) => write!(f, "unknown cell {c:?}"),
            ServeError::UnknownTicket(t) => write!(f, "unknown {t}"),
            ServeError::Unsupported(what) => write!(f, "unsupported: {what}"),
            ServeError::BadHandoff(why) => write!(f, "bad handoff: {why}"),
            ServeError::Quiesced => write!(f, "service already quiesced"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The service's answer to one [`ChannelRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confirm {
    /// The protocol granted a channel.
    Granted {
        /// The request this confirm answers.
        ticket: Ticket,
        /// The cell that served it.
        cell: CellId,
        /// The granted channel.
        channel: Channel,
        /// Acquisition latency in ticks — virtual ticks on the
        /// deterministic backend, wall-clock nanoseconds divided by the
        /// backend's `ns_per_tick` on the production backend.
        latency: u64,
    },
    /// The protocol denied service (the call is dropped).
    Rejected {
        /// The request this confirm answers.
        ticket: Ticket,
        /// The cell that denied it.
        cell: CellId,
        /// Which failure class dropped the call.
        cause: DropCause,
    },
}

impl Confirm {
    /// The ticket this confirm answers.
    pub fn ticket(&self) -> Ticket {
        match *self {
            Confirm::Granted { ticket, .. } | Confirm::Rejected { ticket, .. } => ticket,
        }
    }

    /// Whether this confirm is a grant.
    pub fn is_granted(&self) -> bool {
        matches!(self, Confirm::Granted { .. })
    }
}

/// An unsolicited service event (not a direct answer to a request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Indication {
    /// A granted call ended — its hold expired or the subscriber
    /// released it — and the channel returned to the pool.
    Released {
        /// The call's ticket.
        ticket: Ticket,
        /// The cell that held the channel.
        cell: CellId,
        /// The channel that was returned.
        channel: Channel,
    },
}

/// Service-level counters, uniform across backends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests accepted by [`AllocService::request_channel`] (or
    /// [`AllocService::request_channels`]).
    pub offered: u64,
    /// Requests confirmed with a grant.
    pub granted: u64,
    /// Requests confirmed with a rejection.
    pub rejected: u64,
    /// Granted calls whose channel has been returned.
    pub completed: u64,
    /// Protocol control messages carried by the backend.
    pub messages: u64,
    /// Callers' pushes that found a bounded mailbox full and had to
    /// wait (production backend only; the deterministic backend never
    /// stalls). Only a thread outside the executor waits — a burst of
    /// admissions, a release, a wire reader's read — and each push is
    /// one run, so this counts runs, not events; a worker's send never
    /// waits.
    pub backpressure_stalls: u64,
    /// Always 0: no push is forced past a full mailbox, because a
    /// caller waits for room with no deadline and a worker never waits.
    pub backpressure_forced: u64,
    /// Invariant violations observed by the ground-truth audit
    /// (Theorem 1: no co-channel use within the interference region),
    /// each worded by [`adca_simkit::Violation`]'s `Display` under both
    /// backends; the production backend also reports a ticket resolved
    /// twice.
    pub violations: Vec<String>,
}

/// A channel-allocation service: the paper's protocol family behind a
/// transport-agnostic request/confirm API (the MCPS/MLME idiom from
/// 802.15.4 MACs).
///
/// Submission is asynchronous: [`request_channel`] returns a [`Ticket`]
/// immediately, and the matching [`Confirm`] arrives later through
/// [`confirm`]/[`recv_confirm`] (or, a burst at a time, through
/// [`recv_answers`]). Two backends implement the trait:
///
/// * [`DesAllocService`](crate::DesAllocService) — deterministic; buffers
///   requests and replays them through the DES engine at [`quiesce`],
///   so every service-level test is seed-reproducible and bit-identical
///   to `Scenario::run`.
/// * [`ProductionAllocService`](crate::ProductionAllocService) — live;
///   each MSS is a task on a bounded-mailbox executor, confirms arrive
///   at wall-clock time, and full mailboxes exert real backpressure.
///
/// ```
/// use adca_baselines::FixedNode;
/// use adca_hexgrid::{CellId, Topology};
/// use adca_serve::{AllocService, ChannelRequest, DesAllocService};
/// use adca_simkit::SimConfig;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let topo = Arc::new(Topology::default_paper(3, 3));
/// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
/// let t = svc
///     .request_channel(ChannelRequest::new_call(0, CellId(0), 500))
///     .unwrap();
/// assert!(svc.quiesce(Duration::from_secs(1)));
/// let confirm = svc.confirm().expect("resolved at quiescence");
/// assert_eq!(confirm.ticket(), t);
/// assert!(confirm.is_granted());
/// ```
///
/// [`request_channel`]: AllocService::request_channel
/// [`confirm`]: AllocService::confirm
/// [`recv_confirm`]: AllocService::recv_confirm
/// [`recv_answers`]: AllocService::recv_answers
/// [`quiesce`]: AllocService::quiesce
pub trait AllocService {
    /// Submits one channel request and returns its [`Ticket`]. The
    /// answer arrives asynchronously as a [`Confirm`] carrying the same
    /// ticket. On the production backend this call *blocks* while the
    /// target cell's worker's mailbox is full — that is the
    /// backpressure surface a closed-loop client feels — and it is a
    /// [`request_channels`](AllocService::request_channels) burst of
    /// one.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService, ServeError};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// let first = svc.request_channel(ChannelRequest::new_call(0, CellId(0), 100));
    /// let second = svc.request_channel(ChannelRequest::new_call(5, CellId(1), 100));
    /// assert!(first.is_ok() && second.is_ok());
    /// assert_ne!(first.unwrap(), second.unwrap(), "tickets are unique");
    /// let bad = svc.request_channel(ChannelRequest::new_call(0, CellId(999), 100));
    /// assert_eq!(bad, Err(ServeError::UnknownCell(CellId(999))));
    /// ```
    fn request_channel(&mut self, req: ChannelRequest) -> Result<Ticket, ServeError>;

    /// Submits a burst: appends to `out` one result a request, in
    /// order, each what [`request_channel`] would have returned for it
    /// had the burst been submitted one request after the other — a
    /// refusal refuses that request alone, takes no ticket, and the
    /// burst goes on. The default implementation loops over
    /// [`request_channel`]; the production backend overrides it with
    /// one pass over the burst (one lock of its tickets, one clock
    /// read, one mailbox push a worker), and its backpressure holds up
    /// the burst as a whole.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService, ServeError};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// let burst = [
    ///     ChannelRequest::new_call(0, CellId(0), 100),
    ///     ChannelRequest::new_call(0, CellId(999), 100),
    ///     ChannelRequest::new_call(0, CellId(1), 100),
    /// ];
    /// let mut out = Vec::new();
    /// svc.request_channels(&burst, &mut out);
    /// assert_eq!(out.len(), 3, "one result a request, in order");
    /// assert_eq!(out[1], Err(ServeError::UnknownCell(CellId(999))));
    /// assert!(out[0].is_ok() && out[2].is_ok());
    /// ```
    ///
    /// [`request_channel`]: AllocService::request_channel
    fn request_channels(
        &mut self,
        reqs: &[ChannelRequest],
        out: &mut Vec<Result<Ticket, ServeError>>,
    ) {
        out.extend(reqs.iter().map(|&req| self.request_channel(req)));
    }

    /// Ends a call before its declared hold expires. On the production
    /// backend the owning cell returns the channel and emits a
    /// [`Indication::Released`]; releasing a ticket that is not
    /// currently holding a channel is a no-op (the races are benign).
    /// On the deterministic backend a release before [`quiesce`]
    /// truncates the ticket's hold to zero in the replay.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService, ServeError, Ticket};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// let t = svc
    ///     .request_channel(ChannelRequest::new_call(0, CellId(0), 1_000_000))
    ///     .unwrap();
    /// svc.release(t).unwrap(); // hang up immediately
    /// assert_eq!(
    ///     svc.release(Ticket(42)),
    ///     Err(ServeError::UnknownTicket(Ticket(42)))
    /// );
    /// ```
    ///
    /// [`quiesce`]: AllocService::quiesce
    fn release(&mut self, ticket: Ticket) -> Result<(), ServeError>;

    /// Takes the next available [`Confirm`], if any — non-blocking.
    /// Confirms are delivered in resolution order, not submission
    /// order: a local-mode grant overtakes an earlier request that went
    /// borrowing.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// assert!(svc.confirm().is_none(), "nothing resolved yet");
    /// svc.request_channel(ChannelRequest::new_call(0, CellId(0), 100))
    ///     .unwrap();
    /// svc.quiesce(Duration::from_secs(1));
    /// assert!(svc.confirm().is_some());
    /// assert!(svc.confirm().is_none(), "each confirm is delivered once");
    /// ```
    fn confirm(&mut self) -> Option<Confirm>;

    /// Takes the next unsolicited [`Indication`], if any — non-blocking.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService, Indication};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// let t = svc
    ///     .request_channel(ChannelRequest::new_call(0, CellId(0), 50))
    ///     .unwrap();
    /// svc.quiesce(Duration::from_secs(1));
    /// let Some(Indication::Released { ticket, .. }) = svc.indication() else {
    ///     panic!("the 50-tick hold expired during the replay");
    /// };
    /// assert_eq!(ticket, t);
    /// ```
    fn indication(&mut self) -> Option<Indication>;

    /// Drives the service until every submitted request is resolved, or
    /// until `limit` of wall-clock time elapses; returns `true` on full
    /// quiescence. The deterministic backend *runs the simulation
    /// here* (requests submitted after quiescence are refused); the
    /// production backend just waits for in-flight requests to drain.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService, ServeError};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// svc.request_channel(ChannelRequest::new_call(0, CellId(0), 100))
    ///     .unwrap();
    /// assert!(svc.quiesce(Duration::from_secs(1)));
    /// let refused = svc.request_channel(ChannelRequest::new_call(0, CellId(0), 100));
    /// assert_eq!(refused, Err(ServeError::Quiesced));
    /// ```
    fn quiesce(&mut self, limit: Duration) -> bool;

    /// Current service-level counters. Cheap; callable mid-flight on
    /// the production backend.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// svc.request_channel(ChannelRequest::new_call(0, CellId(0), 100))
    ///     .unwrap();
    /// svc.quiesce(Duration::from_secs(1));
    /// let stats = svc.stats();
    /// assert_eq!(stats.offered, 1);
    /// assert_eq!(stats.granted, 1);
    /// assert!(stats.violations.is_empty());
    /// ```
    fn stats(&self) -> ServeStats;

    /// The full simulation report, when the backend is the DES engine
    /// (available after [`quiesce`]); `None` on live backends. This is
    /// the hook the determinism tests use to pin the deterministic
    /// backend bit-identical to `Scenario::run`.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// assert!(svc.sim_report().is_none(), "no report before quiesce");
    /// svc.request_channel(ChannelRequest::new_call(0, CellId(0), 100))
    ///     .unwrap();
    /// svc.quiesce(Duration::from_secs(1));
    /// let report = svc.sim_report().expect("deterministic backend");
    /// assert_eq!(report.offered_calls, 1);
    /// ```
    ///
    /// [`quiesce`]: AllocService::quiesce
    fn sim_report(&self) -> Option<&SimReport> {
        None
    }

    /// Blocking variant of [`confirm`]: polls until a confirm is
    /// available or `timeout` elapses. The default implementation polls
    /// with a short sleep; live backends may override it with a real
    /// wait, and may then return `None` before `timeout` when an
    /// [`Indication`] is waiting to be taken instead.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::Topology;
    /// use adca_serve::{AllocService, DesAllocService};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// // Nothing submitted: the wait times out empty.
    /// assert!(svc.recv_confirm(Duration::from_millis(1)).is_none());
    /// ```
    ///
    /// [`confirm`]: AllocService::confirm
    fn recv_confirm(&mut self, timeout: Duration) -> Option<Confirm> {
        // A timeout too long to reach an `Instant` has no limit.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(c) = self.confirm() {
                return Some(c);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The draining call, for a consumer that serves both queues: waits
    /// up to `timeout` for the first answer, then appends every queued
    /// [`Confirm`] to `confirms` and every queued [`Indication`] to
    /// `indications`, each queue in its own order, and returns —
    /// leaving both as they were when `timeout` passes with nothing to
    /// take. The default implementation waits in [`recv_confirm`], so
    /// it notices an indication that arrives alone when that wait ends;
    /// live backends may override it with one wait on both queues.
    ///
    /// A ticket's `Released` is never handed out by an earlier call than
    /// its `Granted` (one call may hand out both, the grant in
    /// `confirms`). The wire server relies on this order and does not
    /// check it again: it stages a call's confirms before its
    /// indications and relays them in that order. The order is checked
    /// by `serve/tests/recv_answers.rs` on the production backend and on
    /// this default body (the deterministic backend), and by
    /// `wire/tests/service_contract.rs` on the production backend and on
    /// a wire client.
    ///
    /// ```
    /// use adca_baselines::FixedNode;
    /// use adca_hexgrid::{CellId, Topology};
    /// use adca_serve::{AllocService, ChannelRequest, DesAllocService};
    /// use adca_simkit::SimConfig;
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let topo = Arc::new(Topology::default_paper(3, 3));
    /// let mut svc = DesAllocService::new(topo, SimConfig::default(), FixedNode::new);
    /// for cell in 0..3 {
    ///     svc.request_channel(ChannelRequest::new_call(0, CellId(cell), 50))
    ///         .unwrap();
    /// }
    /// svc.quiesce(Duration::from_secs(1));
    /// let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    /// svc.recv_answers(Duration::from_millis(1), &mut confirms, &mut indications);
    /// assert_eq!((confirms.len(), indications.len()), (3, 3));
    /// // Everything was taken: the next call times out empty.
    /// svc.recv_answers(Duration::from_millis(1), &mut confirms, &mut indications);
    /// assert_eq!((confirms.len(), indications.len()), (3, 3));
    /// assert!(svc.confirm().is_none() && svc.indication().is_none());
    /// ```
    ///
    /// [`recv_confirm`]: AllocService::recv_confirm
    fn recv_answers(
        &mut self,
        timeout: Duration,
        confirms: &mut Vec<Confirm>,
        indications: &mut Vec<Indication>,
    ) {
        confirms.extend(self.recv_confirm(timeout));
        confirms.extend(std::iter::from_fn(|| self.confirm()));
        indications.extend(std::iter::from_fn(|| self.indication()));
    }
}
