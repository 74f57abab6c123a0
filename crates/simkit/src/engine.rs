//! The deterministic discrete-event engine.

use crate::equeue::{EqEntry, EventQueue};
use crate::faults::FaultPlan;
use crate::ground::Ground;
use crate::latency::{LatencyModel, MsgMeta};
use crate::report::{AuditMode, DropCause, SimReport, Violation};
use crate::rng::SplitMix64;
use crate::sm::{Action, Effects, Input, RequestId, RequestKind, StateMachine};
use crate::state_hash::StateHasher;
use crate::time::SimTime;
use crate::trace::{NoopSink, TraceEvent, TraceSink};
use crate::workload::Arrival;
use adca_hexgrid::{CellId, Channel, Topology};
use adca_metrics::{CounterMap, SampleSeries};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Message latency model. The paper's `T` corresponds to
    /// `LatencyModel::Fixed(t_ticks)`.
    pub latency: LatencyModel,
    /// Seed for latency jitter (and nothing else; workloads carry their
    /// own randomness).
    pub seed: u64,
    /// What to do on invariant violations.
    pub audit: AuditMode,
    /// Maximum tolerated acquisition latency in ticks (liveness
    /// watchdog); `None` disables the check.
    pub watchdog_ticks: Option<u64>,
    /// Abort the run after this many processed events (runaway guard).
    pub max_events: u64,
    /// Fault injection plan (loss / duplication / crash schedule). The
    /// default [`FaultPlan::none()`] takes no fault branch anywhere, so
    /// reports stay bit-identical to a fault-free engine.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::Fixed(100),
            seed: 0xADCA_1998,
            audit: AuditMode::Panic,
            watchdog_ticks: Some(1_000_000),
            max_events: 500_000_000,
            faults: FaultPlan::none(),
        }
    }
}

#[derive(Hash)]
enum Ev<M> {
    Deliver {
        from: CellId,
        to: CellId,
        msg: M,
    },
    Arrive {
        call: u32,
    },
    End {
        call: u32,
    },
    Hop {
        call: u32,
        idx: u32,
    },
    Timer {
        node: CellId,
        tag: u64,
    },
    /// A grant arrived for a request whose call is gone; tell the node to
    /// free the channel again.
    AutoRelease {
        node: CellId,
        ch: Channel,
    },
    /// Fault injection: the cell goes down (crash schedule).
    CrashDown {
        node: CellId,
    },
    /// Fault injection: the cell restarts after its crash window.
    CrashUp {
        node: CellId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CallState {
    /// Waiting on an acquisition request.
    Waiting(RequestId),
    /// Holding a channel.
    Active(Channel),
    /// Finished (completed, dropped, or abandoned).
    Done,
}

#[derive(Hash)]
struct CallRecord {
    cell: CellId,
    duration: u64,
    state: CallState,
    /// Absolute end time, fixed at first grant.
    end_at: Option<SimTime>,
    /// Absolute hop times and targets.
    hops: Vec<(SimTime, CellId)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReqState {
    Pending,
    Done,
}

#[derive(Hash)]
struct ReqRecord {
    call: u32,
    cell: CellId,
    issued: SimTime,
    kind: RequestKind,
    state: ReqState,
}

/// The resolution of one channel request, in resolution order.
///
/// The engine appends one record per resolved request — grants, protocol
/// rejects, and crash-path force-rejects alike. The log is how the
/// serving layer (`adca-serve`) converts a finished simulation into
/// per-ticket request/confirm pairs: [`TraceEvent::Granted`] carries no
/// [`RequestId`], so traces cannot drive per-ticket confirms, and the
/// log is deliberately kept *out* of [`SimReport`] (reports stay
/// bit-identical whether or not anyone drains outcomes) and out of
/// the state digests. Drain it with [`Engine::take_outcomes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqOutcome {
    /// The request this record resolves.
    pub req: RequestId,
    /// Engine call index (the arrival's position in the workload vec).
    pub call: u32,
    /// Cell the request was resolved at.
    pub cell: CellId,
    /// New call or mobility handoff.
    pub kind: RequestKind,
    /// Virtual time of resolution.
    pub resolved_at: SimTime,
    /// Acquisition latency in ticks (resolution − issue).
    pub latency: u64,
    /// Granted channel, or the drop cause.
    pub result: Result<Channel, DropCause>,
}

/// Append-only interning table for `&'static str`-keyed values.
///
/// Protocols label messages, counters and sample series with string
/// literals, and the old engine paid a `BTreeMap` probe per event for
/// each. A run only ever sees a handful of distinct labels, so a short
/// vector scanned by pointer identity (literals are deduplicated per
/// codegen unit) beats the tree walk — and the totals fold into the
/// report's sorted maps once at the end of the run, so the report is
/// byte-for-byte what the maps produced.
struct Slots<V>(Vec<(&'static str, V)>);

impl<V> Default for Slots<V> {
    fn default() -> Self {
        Slots(Vec::new())
    }
}

impl<V: Default> Slots<V> {
    /// The value kept under `name`, created on first use.
    #[inline]
    fn slot(&mut self, name: &'static str) -> &mut V {
        match self.0.iter().position(|(k, _)| std::ptr::eq(*k, name)) {
            Some(i) => &mut self.0[i].1,
            None => self.slot_by_text(name),
        }
    }

    /// No key is `name`'s pointer: a first use, or a literal another
    /// codegen unit holds a copy of. Re-key a textual match to the live
    /// pointer, so that later probes take the identity scan.
    #[cold]
    fn slot_by_text(&mut self, name: &'static str) -> &mut V {
        let i = match self.0.iter().position(|(k, _)| *k == name) {
            Some(i) => {
                self.0[i].0 = name;
                i
            }
            None => {
                self.0.push((name, V::default()));
                self.0.len() - 1
            }
        };
        &mut self.0[i].1
    }
}

type SlotCounters = Slots<u64>;

impl SlotCounters {
    #[inline]
    fn add(&mut self, name: &'static str, n: u64) {
        *self.slot(name) += n;
    }

    #[inline]
    fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    fn fold_into(&self, map: &mut CounterMap) {
        for &(k, v) in &self.0 {
            map.add(k, v);
        }
    }
}

type SlotSamples = Slots<SampleSeries>;

impl SlotSamples {
    #[inline]
    fn push(&mut self, name: &'static str, value: f64) {
        self.slot(name).push(value);
    }
}

/// Everything the engine owns besides the protocol nodes: the world the
/// nodes' [`Action`]s are applied to.
///
/// Generic over the attached [`TraceSink`]; the default [`NoopSink`]
/// monomorphizes every trace branch to dead code.
pub struct Shared<M, S: TraceSink = NoopSink> {
    topo: Arc<Topology>,
    cfg: SimConfig,
    now: SimTime,
    msg_seq: u64,
    queue: EventQueue<Ev<M>>,
    rng: SplitMix64,
    /// Dedicated RNG stream for fault decisions. Kept apart from the
    /// latency RNG so enabling faults never perturbs latency draws (and
    /// a disabled plan never touches either).
    fault_rng: SplitMix64,
    /// Whether the fault plan can inject anything (`faults.is_active()`,
    /// cached). All fault branches are behind this flag.
    faults_on: bool,
    /// Which cells are currently crashed (all `false` unless the plan
    /// schedules crashes).
    down: Vec<bool>,
    /// Ground-truth channel usage (the Theorem-1 audit).
    ground: Ground,
    /// Per-link FIFO horizons: the latest delivery time scheduled on
    /// each `(from, to)` link. Distributed channel-allocation protocols
    /// of this family assume FIFO channels (a RELEASE must not overtake
    /// the GRANT that preceded it); under a latency that varies the
    /// clamp in [`Shared::send`] enforces it. `None` under
    /// [`LatencyModel::Fixed`], where a delivery is wanted at `now + T`,
    /// no earlier than anything sent before it, so the clamp would
    /// return its argument on every send; those deliveries take the
    /// queue's in-order lane instead (see [`Shared::deliver`]).
    link_horizon: Option<BTreeMap<(CellId, CellId), SimTime>>,
    calls: Vec<CallRecord>,
    reqs: Vec<ReqRecord>,
    pending_reqs: u64,
    /// Whether the `Input::Start` hooks have fired (once, at the first
    /// `run_until`).
    started: bool,
    /// Whether the event-budget guard tripped; pumping never resumes.
    halted: bool,
    /// Events processed so far (across `run_until` calls).
    events_processed: u64,
    /// Per-event counters, folded into `report` at the end of the run.
    msg_kinds: SlotCounters,
    custom: SlotCounters,
    custom_samples: SlotSamples,
    report: SimReport,
    /// Per-request resolution log (see [`ReqOutcome`]). Always recorded;
    /// excluded from reports and state digests.
    outcomes: Vec<ReqOutcome>,
    /// Structured trace destination (observes; never influences).
    sink: S,
}

impl<M, S: TraceSink> Shared<M, S> {
    #[inline]
    fn push(&mut self, at: SimTime, ev: Ev<M>) {
        self.queue.push(at, ev);
    }

    /// Schedules a delivery. Under one constant latency `at` is
    /// `now + T` and `now` never goes back, so deliveries are pushed in
    /// the order they pop and take the queue's in-order lane; a latency
    /// that varies (`link_horizon` exists) can schedule a delivery ahead
    /// of an earlier one on another link, and takes the ring like every
    /// other event.
    #[inline]
    fn deliver(&mut self, at: SimTime, from: CellId, to: CellId, msg: M) {
        let ev = Ev::Deliver { from, to, msg };
        if self.link_horizon.is_none() {
            self.queue.push_in_order(at, ev);
        } else {
            self.queue.push(at, ev);
        }
    }

    /// Records a trace event at the current virtual time, constructing
    /// it only if the sink is enabled. With `S = NoopSink` the whole
    /// call — check, closure, record — compiles away.
    #[inline]
    fn trace_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.sink.enabled() {
            let ev = f();
            self.sink.record(self.now, ev);
        }
    }

    fn violation(&mut self, v: Violation) {
        if self.cfg.audit == AuditMode::Panic {
            panic!("simulation invariant violated: {v}");
        }
        self.report.violations.push(v);
    }

    fn finish_request(&mut self, req: RequestId) -> Option<(u32, CellId, RequestKind, u64)> {
        let rec = &mut self.reqs[req.0 as usize];
        if rec.state == ReqState::Done {
            return None;
        }
        rec.state = ReqState::Done;
        self.pending_reqs -= 1;
        let latency = self.now - rec.issued;
        Some((rec.call, rec.cell, rec.kind, latency))
    }

    /// Appends one [`ReqOutcome`] record (every resolution path calls
    /// this exactly once, right after [`Shared::finish_request`]).
    #[inline]
    fn record_outcome(
        &mut self,
        req: RequestId,
        call: u32,
        cell: CellId,
        kind: RequestKind,
        latency: u64,
        result: Result<Channel, DropCause>,
    ) {
        self.outcomes.push(ReqOutcome {
            req,
            call,
            cell,
            kind,
            resolved_at: self.now,
            latency,
            result,
        });
    }

    fn issue_request(&mut self, call: u32, cell: CellId, kind: RequestKind) -> RequestId {
        let id = RequestId(self.reqs.len() as u64);
        self.reqs.push(ReqRecord {
            call,
            cell,
            issued: self.now,
            kind,
            state: ReqState::Pending,
        });
        self.pending_reqs += 1;
        self.calls[call as usize].state = CallState::Waiting(id);
        self.calls[call as usize].cell = cell;
        if kind == RequestKind::Handoff {
            self.custom.incr("handoff_attempts");
        }
        id
    }

    fn count_drop_cause(&mut self, cause: DropCause) {
        match cause {
            DropCause::Blocked => self.report.drops_blocked += 1,
            DropCause::RetryExhausted => self.report.drops_retry_exhausted += 1,
            DropCause::Crashed => self.report.drops_crashed += 1,
        }
    }

    /// Force-resolves `req` as a drop attributed to `cause` — the crash
    /// paths, where no protocol node is up to answer the request.
    fn force_reject(&mut self, req: RequestId, cause: DropCause) {
        let Some((call, cell, kind, latency)) = self.finish_request(req) else {
            return;
        };
        self.record_outcome(req, call, cell, kind, latency, Err(cause));
        self.trace_with(|| TraceEvent::Rejected {
            cell,
            cause: cause.label(),
        });
        self.calls[call as usize].state = CallState::Done;
        self.report.per_cell_drops[cell.index()] += 1;
        self.count_drop_cause(cause);
        match kind {
            RequestKind::NewCall => self.report.dropped_new += 1,
            RequestKind::Handoff => self.report.dropped_handoff += 1,
        }
    }
}

/// The four [`Action`]s with engine-side consequences, applied on behalf
/// of node `me`.
impl<M: Clone, S: TraceSink> Shared<M, S> {
    fn send(&mut self, me: CellId, to: CellId, kind: &'static str, msg: M) {
        let meta = MsgMeta {
            from: me,
            to,
            kind,
            sent_at: self.now,
            seq: self.msg_seq,
        };
        self.msg_seq += 1;
        // Latency is always drawn (and the FIFO horizon advanced) before
        // any fault decision, so the latency RNG stream — and with it
        // every fault-free delivery time — is independent of the plan.
        let lat = self.cfg.latency.latency(&meta, &mut self.rng);
        let mut at = self.now + lat;
        if let Some(links) = &mut self.link_horizon {
            let horizon = links.entry((me, to)).or_insert(SimTime::ZERO);
            at = at.max(*horizon);
            *horizon = at;
        }
        self.report.messages_total += 1;
        self.msg_kinds.incr(kind);
        self.report.per_cell_msgs[me.index()] += 1;
        let from = me;
        self.trace_with(|| TraceEvent::MsgSend {
            from,
            to,
            kind,
            deliver_at: at,
        });
        if self.faults_on {
            // A down cell sends nothing (its handlers should not run at
            // all; this is a defensive backstop for drained sends).
            if self.down[from.index()] {
                self.report.messages_crash_dropped += 1;
                return;
            }
            // Partition cuts are deterministic and consume no fault RNG,
            // so adding a partition schedule to a lossy plan perturbs
            // neither the loss nor the duplication stream for messages on
            // healthy links.
            if !self.cfg.faults.partitions.is_empty()
                && self.cfg.faults.link_cut(from, to, self.now.0)
            {
                self.custom.incr("partition_dropped");
                self.trace_with(|| TraceEvent::MsgLost { from, to, kind });
                return;
            }
            if self.cfg.faults.loss > 0.0 && self.fault_rng.next_f64() < self.cfg.faults.loss {
                self.report.messages_lost += 1;
                self.trace_with(|| TraceEvent::MsgLost { from, to, kind });
                return;
            }
        }
        let dup = self.faults_on
            && self.cfg.faults.duplicate > 0.0
            && self.fault_rng.next_f64() < self.cfg.faults.duplicate;
        if dup {
            // The copy lands at the same tick; seq order puts it right
            // after the original, preserving per-link FIFO.
            self.report.messages_duplicated += 1;
            self.trace_with(|| TraceEvent::MsgDup { from, to, kind });
            let copy = msg.clone();
            self.deliver(at, from, to, msg);
            self.deliver(at, from, to, copy);
        } else {
            self.deliver(at, from, to, msg);
        }
    }

    fn grant(&mut self, me: CellId, req: RequestId, ch: Channel) {
        let Some((call, cell, kind, latency)) = self.finish_request(req) else {
            // Double resolution is a protocol bug.
            panic!("request {req:?} resolved twice");
        };
        debug_assert_eq!(cell, me, "grant from the wrong node");
        // Recorded before the stale-grant check: the protocol *did*
        // grant, even if the call has since ended and the channel is
        // auto-released a moment later.
        self.record_outcome(req, call, cell, kind, latency, Ok(ch));
        self.trace_with(|| TraceEvent::Granted { cell, ch, latency });
        if let Some(bound) = self.cfg.watchdog_ticks {
            if latency > bound {
                self.violation(Violation::Watchdog {
                    cell,
                    latency,
                    bound,
                });
            }
        }
        let call_rec = &self.calls[call as usize];
        let stale = call_rec.state != CallState::Waiting(req);
        if stale {
            // The call ended or moved while we were acquiring; release the
            // channel right away (as a fresh event so the node's current
            // handler finishes first).
            self.custom.incr("stale_grants");
            let now = self.now;
            self.push(now, Ev::AutoRelease { node: cell, ch });
            return;
        }
        if let Some(v) = self.ground.grant(&self.topo, self.now, cell, ch) {
            self.violation(v);
        }
        let now = self.now;
        let call_rec = &mut self.calls[call as usize];
        call_rec.state = CallState::Active(ch);
        if call_rec.end_at.is_none() {
            let end = now + call_rec.duration;
            call_rec.end_at = Some(end);
            self.push(end, Ev::End { call });
        }
        self.report.granted += 1;
        self.report.per_cell_grants[cell.index()] += 1;
        self.report.acq_latency.push(latency as f64);
        match kind {
            RequestKind::NewCall => self.custom.incr("grant_new"),
            RequestKind::Handoff => self.custom.incr("grant_handoff"),
        }
    }

    fn reject(&mut self, me: CellId, req: RequestId, cause: DropCause) {
        let Some((call, cell, kind, latency)) = self.finish_request(req) else {
            panic!("request {req:?} resolved twice");
        };
        debug_assert_eq!(cell, me, "reject from the wrong node");
        self.record_outcome(req, call, cell, kind, latency, Err(cause));
        self.trace_with(|| TraceEvent::Rejected {
            cell,
            cause: cause.label(),
        });
        // The liveness contract bounds *resolution*, not just grants: a
        // reject that took longer than the watchdog is as much a wedged
        // request as a slow grant.
        if let Some(bound) = self.cfg.watchdog_ticks {
            if latency > bound {
                self.violation(Violation::Watchdog {
                    cell,
                    latency,
                    bound,
                });
            }
        }
        let call_rec = &mut self.calls[call as usize];
        if call_rec.state == CallState::Waiting(req) {
            call_rec.state = CallState::Done;
            self.report.per_cell_drops[cell.index()] += 1;
            self.count_drop_cause(cause);
            match kind {
                RequestKind::NewCall => self.report.dropped_new += 1,
                RequestKind::Handoff => self.report.dropped_handoff += 1,
            }
        }
    }

    fn set_timer(&mut self, me: CellId, delay: u64, tag: u64) {
        let at = self.now + delay;
        self.push(at, Ev::Timer { node: me, tag });
    }
}

/// The deterministic discrete-event simulation engine, generic over the
/// protocol under test and the attached [`TraceSink`].
///
/// The sink is a type parameter so the untraced default costs nothing:
/// `Engine<P>` is `Engine<P, NoopSink>`, whose `enabled()` is a constant
/// `false` that deletes every trace branch at monomorphization. Attach a
/// recording sink with [`Engine::with_sink`] and recover it afterwards
/// with [`Engine::into_sink`]; sinks are pure observers, so traced and
/// untraced runs produce equal [`SimReport`]s.
pub struct Engine<P: StateMachine, S: TraceSink = NoopSink> {
    nodes: Vec<P>,
    sh: Shared<P::Msg, S>,
    /// The action buffer every transition writes to; empty between
    /// events, its capacity amortized over the run.
    actions: Vec<Action<P::Msg>>,
}

impl<P: StateMachine> Engine<P> {
    /// Builds an engine over `topo` running one `P` per cell (constructed
    /// by `factory`) against the given workload, with tracing compiled
    /// out ([`NoopSink`]).
    pub fn new<F>(topo: Arc<Topology>, cfg: SimConfig, factory: F, arrivals: Vec<Arrival>) -> Self
    where
        F: FnMut(CellId, &Topology) -> P,
    {
        Engine::with_sink(topo, cfg, factory, arrivals, NoopSink)
    }
}

impl<P: StateMachine, S: TraceSink> Engine<P, S> {
    /// Builds an engine like [`Engine::new`], recording structured trace
    /// events into `sink`.
    pub fn with_sink<F>(
        topo: Arc<Topology>,
        cfg: SimConfig,
        factory: F,
        arrivals: Vec<Arrival>,
        sink: S,
    ) -> Self
    where
        F: FnMut(CellId, &Topology) -> P,
    {
        let mut factory = factory;
        let nodes: Vec<P> = topo.cells().map(|c| factory(c, &topo)).collect();
        let n = topo.num_cells();
        let report = SimReport {
            per_cell_msgs: vec![0; n],
            per_cell_arrivals: vec![0; n],
            per_cell_drops: vec![0; n],
            per_cell_grants: vec![0; n],
            ..Default::default()
        };
        // Every arrival and hop is pushed up front (into the queue's slab,
        // at horizons inside its ring) and later becomes one request.
        let total_hops: usize = arrivals.iter().map(|a| a.hops.len()).sum();
        let faults_on = cfg.faults.is_active();
        if faults_on {
            cfg.faults.validate();
        }
        let mut sh = Shared {
            rng: SplitMix64::new(cfg.seed),
            fault_rng: SplitMix64::new(cfg.faults.seed),
            faults_on,
            down: vec![false; n],
            link_horizon: link_horizons(&cfg.latency),
            topo: topo.clone(),
            cfg,
            now: SimTime::ZERO,
            msg_seq: 0,
            queue: EventQueue::with_capacity(arrivals.len() + total_hops),
            ground: Ground::new(&topo),
            calls: Vec::with_capacity(arrivals.len()),
            reqs: Vec::with_capacity(arrivals.len() + total_hops),
            pending_reqs: 0,
            started: false,
            halted: false,
            events_processed: 0,
            msg_kinds: SlotCounters::default(),
            custom: SlotCounters::default(),
            custom_samples: SlotSamples::default(),
            report,
            outcomes: Vec::with_capacity(arrivals.len() + total_hops),
            sink,
        };
        // Crash windows are scheduled before arrivals so that, at a tied
        // tick, the crash takes effect first (push order is the same-tick
        // tie-break; see `equeue`).
        if faults_on {
            let crashes = sh.cfg.faults.crashes.clone();
            for c in &crashes {
                assert!(c.cell.index() < n, "{}: crash outside topology", c.cell);
                sh.push(SimTime(c.at), Ev::CrashDown { node: c.cell });
                sh.push(SimTime(c.at + c.down_for), Ev::CrashUp { node: c.cell });
            }
        }
        for arr in arrivals {
            let call = sh.calls.len() as u32;
            let at = SimTime(arr.at);
            let hops: Vec<(SimTime, CellId)> = arr
                .hops
                .iter()
                .map(|&(off, tgt)| (SimTime(arr.at + off), tgt))
                .collect();
            for (idx, &(hop_at, _)) in hops.iter().enumerate() {
                sh.push(
                    hop_at,
                    Ev::Hop {
                        call,
                        idx: idx as u32,
                    },
                );
            }
            sh.calls.push(CallRecord {
                cell: arr.cell,
                duration: arr.duration,
                state: CallState::Done, // becomes Waiting at arrival
                end_at: None,
                hops,
            });
            sh.push(at, Ev::Arrive { call });
        }
        Engine {
            nodes,
            sh,
            actions: Vec::new(),
        }
    }

    /// Immutable access to a node's protocol state (for tests).
    pub fn node(&self, cell: CellId) -> &P {
        &self.nodes[cell.index()]
    }

    /// The current report (final after [`Engine::run`] returns).
    pub fn report(&self) -> &SimReport {
        &self.sh.report
    }

    /// Drains the per-request resolution log accumulated so far (see
    /// [`ReqOutcome`]). Records are in resolution order; draining them
    /// never affects the report or the event sequence.
    pub fn take_outcomes(&mut self) -> Vec<ReqOutcome> {
        std::mem::take(&mut self.sh.outcomes)
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sh.sink
    }

    /// Consumes the engine and returns the trace sink (run first).
    pub fn into_sink(self) -> S {
        self.sh.sink
    }

    /// The current virtual time (advances as events are processed).
    pub fn now(&self) -> SimTime {
        self.sh.now
    }

    /// Feeds `input` to `me`'s node, then applies the actions it emitted,
    /// in emission order.
    fn step(&mut self, me: CellId, input: Input<P::Msg>) {
        let buf = std::mem::take(&mut self.actions);
        let mut fx = Effects::reusing(buf, me, self.sh.now, self.sh.sink.enabled());
        self.nodes[me.index()].step(input, &mut fx);
        let mut actions = fx.into_actions();
        for act in actions.drain(..) {
            match act {
                Action::Send { to, msg } => self.sh.send(me, to, P::msg_kind(&msg), msg),
                Action::Grant { req, ch } => self.sh.grant(me, req, ch),
                Action::Reject { req, cause } => self.sh.reject(me, req, cause),
                Action::SetTimer { delay, tag } => self.sh.set_timer(me, delay, tag),
                Action::Count { name } => self.sh.custom.incr(name),
                Action::Add { name, n } => self.sh.custom.add(name, n),
                Action::Sample { name, value } => self.sh.custom_samples.push(name, value),
                Action::Trace(ev) => self.sh.sink.record(self.sh.now, ev),
            }
        }
        self.actions = actions;
    }

    /// Fires the [`Input::Start`] hooks exactly once, before the first
    /// event.
    fn ensure_started(&mut self) {
        if self.sh.started {
            return;
        }
        self.sh.started = true;
        for i in 0..self.nodes.len() {
            self.step(CellId(i as u32), Input::Start);
        }
    }

    /// Processes every event with `at <= until`, leaving later events
    /// queued. Returns `true` if events remain (the run is unfinished).
    ///
    /// Pausing is invisible to the simulation: `run_until(t)` then
    /// `run()` processes the exact event sequence `run()` alone would.
    /// This is the checkpoint hook — pause, [`Engine::state_digests`], go on.
    pub fn run_until(&mut self, until: SimTime) -> bool {
        self.ensure_started();
        while !self.sh.halted {
            let Some((at, _seq)) = self.sh.queue.peek_key() else {
                return false;
            };
            if at > until {
                return true;
            }
            let entry = self.sh.queue.pop().expect("peeked entry");
            self.sh.events_processed += 1;
            if self.sh.events_processed > self.sh.cfg.max_events {
                let processed = self.sh.events_processed;
                self.sh.violation(Violation::EventBudget { processed });
                self.sh.halted = true;
                return false;
            }
            debug_assert!(entry.at >= self.sh.now, "event queue went backwards");
            self.sh.now = entry.at;
            self.dispatch(entry.item);
        }
        false
    }

    /// Runs to quiescence and returns the report.
    pub fn run(&mut self) -> SimReport {
        self.run_until(SimTime(u64::MAX));
        self.finalize()
    }

    /// Handles one event. `self.sh.now` is already the event's time.
    fn dispatch(&mut self, item: Ev<P::Msg>) {
        {
            match item {
                Ev::Deliver { from, to, msg, .. } => {
                    if self.sh.down[to.index()] {
                        // A down cell receives nothing.
                        self.sh.report.messages_crash_dropped += 1;
                        self.sh.trace_with(|| TraceEvent::MsgLost {
                            from,
                            to,
                            kind: P::msg_kind(&msg),
                        });
                        return;
                    }
                    self.sh.trace_with(|| TraceEvent::MsgRecv {
                        from,
                        to,
                        kind: P::msg_kind(&msg),
                    });
                    self.step(to, Input::Message { from, msg });
                }
                Ev::Arrive { call } => {
                    let cell = self.sh.calls[call as usize].cell;
                    self.sh.report.offered_calls += 1;
                    self.sh.report.per_cell_arrivals[cell.index()] += 1;
                    let req = self.sh.issue_request(call, cell, RequestKind::NewCall);
                    if self.sh.down[cell.index()] {
                        // The serving MSS is crashed: the call is lost.
                        self.sh.force_reject(req, DropCause::Crashed);
                        return;
                    }
                    self.step(
                        cell,
                        Input::Acquire {
                            req,
                            kind: RequestKind::NewCall,
                        },
                    );
                }
                Ev::End { call } => {
                    let rec = &mut self.sh.calls[call as usize];
                    match rec.state {
                        CallState::Active(ch) => {
                            let cell = rec.cell;
                            rec.state = CallState::Done;
                            self.sh.ground.release(cell, ch);
                            self.sh.report.completed_calls += 1;
                            self.step(cell, Input::Release { ch });
                        }
                        CallState::Waiting(_) => {
                            // Ended while a (handoff) acquisition was in
                            // flight; the eventual grant auto-releases.
                            rec.state = CallState::Done;
                            self.sh.custom.incr("ended_while_waiting");
                        }
                        CallState::Done => {}
                    }
                }
                Ev::Hop { call, idx } => {
                    let rec = &self.sh.calls[call as usize];
                    let (_, target) = rec.hops[idx as usize];
                    match rec.state {
                        CallState::Active(ch) => {
                            let old = rec.cell;
                            if target == old {
                                return;
                            }
                            // Free the old channel first (the paper's
                            // handoff: relinquish in the old cell, acquire
                            // in the new one).
                            self.sh.ground.release(old, ch);
                            self.step(old, Input::Release { ch });
                            let req = self.sh.issue_request(call, target, RequestKind::Handoff);
                            if self.sh.down[target.index()] {
                                // Handoff into a crashed cell: the call is
                                // forcibly terminated.
                                self.sh.force_reject(req, DropCause::Crashed);
                                return;
                            }
                            self.step(
                                target,
                                Input::Acquire {
                                    req,
                                    kind: RequestKind::Handoff,
                                },
                            );
                        }
                        _ => {
                            self.sh.custom.incr("hop_skipped");
                        }
                    }
                }
                Ev::Timer { node, tag } => {
                    if self.sh.down[node.index()] {
                        // Timers die with the cell; restart re-arms what
                        // it needs via `restart`.
                        self.sh.custom.incr("crash_dropped_timers");
                        return;
                    }
                    self.step(node, Input::Timer { tag });
                }
                Ev::AutoRelease { node, ch } => {
                    if self.sh.down[node.index()] {
                        // The node's bookkeeping is wiped on restart
                        // anyway; nothing to free.
                        return;
                    }
                    self.step(node, Input::Release { ch });
                }
                Ev::CrashDown { node } => {
                    if self.sh.down[node.index()] {
                        return; // overlapping windows: already down
                    }
                    self.sh.down[node.index()] = true;
                    self.sh.report.crashes += 1;
                    self.sh.trace_with(|| TraceEvent::Crash { cell: node });
                    // Kill the cell's active calls (their channels go
                    // silent with the transmitter) and force-reject its
                    // in-flight requests.
                    self.sh.ground.vacate(node);
                    for idx in 0..self.sh.calls.len() {
                        if self.sh.calls[idx].cell != node {
                            continue;
                        }
                        match self.sh.calls[idx].state {
                            CallState::Active(_) => {
                                self.sh.calls[idx].state = CallState::Done;
                                self.sh.custom.incr("crash_killed_calls");
                            }
                            CallState::Waiting(req) => {
                                self.sh.force_reject(req, DropCause::Crashed);
                            }
                            CallState::Done => {}
                        }
                    }
                }
                Ev::CrashUp { node } => {
                    if !self.sh.down[node.index()] {
                        return;
                    }
                    self.sh.down[node.index()] = false;
                    self.sh.report.restarts += 1;
                    self.sh.trace_with(|| TraceEvent::Recover { cell: node });
                    self.step(node, Input::Restart);
                }
            }
        }
    }

    /// Seals the run: liveness audit, slot-counter folds, final totals.
    fn finalize(&mut self) -> SimReport {
        if self.sh.pending_reqs > 0 {
            let pending = self.sh.pending_reqs;
            self.sh.violation(Violation::Liveness { pending });
        }
        // Fold the per-event slot counters into the report's sorted maps
        // (taking the slots, so a second `run()` call cannot double-fold).
        // The maps order by key, so the fold order is irrelevant; sample
        // series keep their per-key push order, so stats match exactly.
        std::mem::take(&mut self.sh.msg_kinds).fold_into(&mut self.sh.report.msg_kinds);
        std::mem::take(&mut self.sh.custom).fold_into(&mut self.sh.report.custom);
        for (name, series) in std::mem::take(&mut self.sh.custom_samples.0) {
            self.sh
                .report
                .custom_samples
                .entry(name)
                .or_default()
                .merge(&series);
        }
        self.sh.report.end_time = self.sh.now;
        self.sh.report.events_processed = self.sh.events_processed;
        self.sh.report.clone()
    }
}

/// The link horizons an engine under `latency` clamps with: none when
/// the latency is one constant.
fn link_horizons(latency: &LatencyModel) -> Option<BTreeMap<(CellId, CellId), SimTime>> {
    (!matches!(latency, LatencyModel::Fixed(_))).then(BTreeMap::new)
}

// ---------------------------------------------------------------------------
// State digests: one `StateHasher` digest a section.
// ---------------------------------------------------------------------------

/// A sample series goes in as its raw sample list, each sample as its
/// IEEE-754 bits: the Welford accumulator is a function of it, because
/// the engine never reorders a live series mid-run.
fn hash_series(h: &mut StateHasher, s: &SampleSeries) {
    let samples = s.samples();
    h.write_usize(samples.len());
    for &v in samples {
        h.write_u64(v.to_bits());
    }
}

/// Every field of the report, destructured so that a new one is a
/// compile error here; the two kinds of sample series through
/// [`hash_series`].
fn hash_report(h: &mut StateHasher, rep: &SimReport) {
    let SimReport {
        end_time,
        events_processed,
        offered_calls,
        completed_calls,
        dropped_new,
        dropped_handoff,
        granted,
        acq_latency,
        messages_total,
        msg_kinds,
        per_cell_msgs,
        per_cell_arrivals,
        per_cell_drops,
        drops_blocked,
        drops_retry_exhausted,
        drops_crashed,
        messages_lost,
        messages_duplicated,
        messages_crash_dropped,
        crashes,
        restarts,
        per_cell_grants,
        custom,
        custom_samples,
        violations,
    } = rep;
    (
        end_time,
        events_processed,
        offered_calls,
        completed_calls,
        dropped_new,
        dropped_handoff,
        granted,
    )
        .hash(h);
    hash_series(h, acq_latency);
    (
        messages_total,
        msg_kinds,
        per_cell_msgs,
        per_cell_arrivals,
        per_cell_drops,
        drops_blocked,
        drops_retry_exhausted,
        drops_crashed,
    )
        .hash(h);
    (
        messages_lost,
        messages_duplicated,
        messages_crash_dropped,
        crashes,
        restarts,
        per_cell_grants,
        custom,
    )
        .hash(h);
    h.write_usize(custom_samples.len());
    for (name, series) in custom_samples {
        name.hash(h);
        hash_series(h, series);
    }
    violations.hash(h);
}

impl<P: StateMachine + Hash, S: TraceSink> Engine<P, S>
where
    P::Msg: Hash,
{
    /// Hashes the complete engine state, one [`StateHasher`] a section,
    /// and hands each to `each` with the section's name: `clock`, `rng`,
    /// `down`, `usage`, `links`, `calls`, `reqs`, `slots`, `report`,
    /// `queue` (entries in `(at, seq)` order) and `nodes`. The inputs an
    /// engine is built from (scheme, configuration, topology) are not a
    /// section. Trace sinks are pure observers and are not hashed.
    pub fn hash_state(&self, mut each: impl FnMut(&'static str, &StateHasher)) {
        let sh = &self.sh;
        let mut section = |name, hash: &dyn Fn(&mut StateHasher)| {
            let mut h = StateHasher::new();
            hash(&mut h);
            each(name, &h);
        };
        section("clock", &|h| {
            (sh.now, sh.msg_seq, sh.events_processed).hash(h);
            (sh.started, sh.halted, sh.pending_reqs).hash(h);
        });
        section("rng", &|h| (sh.rng.state(), sh.fault_rng.state()).hash(h));
        section("down", &|h| sh.down.hash(h));
        section("usage", &|h| sh.ground.usage().hash(h));
        section("links", &|h| sh.link_horizon.hash(h));
        section("calls", &|h| sh.calls.hash(h));
        section("reqs", &|h| sh.reqs.hash(h));
        section("slots", &|h| {
            sh.msg_kinds.0.hash(h);
            sh.custom.0.hash(h);
            h.write_usize(sh.custom_samples.0.len());
            for (name, series) in &sh.custom_samples.0 {
                name.hash(h);
                hash_series(h, series);
            }
        });
        section("report", &|h| hash_report(h, &sh.report));
        section("queue", &|h| {
            sh.queue.next_seq().hash(h);
            let mut entries: Vec<&EqEntry<Ev<P::Msg>>> = sh.queue.iter_entries().collect();
            entries.sort_by_key(|e| (e.at, e.seq));
            h.write_usize(entries.len());
            for e in entries {
                (e.at, e.seq, &e.item).hash(h);
            }
        });
        section("nodes", &|h| self.nodes.hash(h));
    }

    /// One digest a section of [`Engine::hash_state`], in its order.
    ///
    /// Two engines built from the same inputs and run to the same tick
    /// have equal digests (`Scenario::checkpoint_probe` checks it); the
    /// golden-digest tests pin them for a fixed run of every scheme.
    pub fn state_digests(&self) -> Vec<(&'static str, u128)> {
        let mut out = Vec::with_capacity(11);
        self.hash_state(|name, h| out.push((name, h.finish128())));
        out
    }
}

/// Convenience wrapper: build, run, and return the report in one call.
pub fn run_protocol<P: StateMachine, F>(
    topo: Arc<Topology>,
    cfg: SimConfig,
    factory: F,
    arrivals: Vec<Arrival>,
) -> SimReport
where
    F: FnMut(CellId, &Topology) -> P,
{
    Engine::new(topo, cfg, factory, arrivals).run()
}

/// Like [`run_protocol`], but recording into `sink`; returns the report
/// together with the (filled) sink.
pub fn run_traced<P: StateMachine, S: TraceSink, F>(
    topo: Arc<Topology>,
    cfg: SimConfig,
    factory: F,
    arrivals: Vec<Arrival>,
    sink: S,
) -> (SimReport, S)
where
    F: FnMut(CellId, &Topology) -> P,
{
    let mut engine = Engine::with_sink(topo, cfg, factory, arrivals, sink);
    let report = engine.run();
    (report, engine.into_sink())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_hexgrid::{ChannelSet, Topology};

    /// A trivial protocol: grant the lowest primary channel free in this
    /// cell (per ground-truth-free local bookkeeping), no messages.
    #[derive(Hash)]
    struct LocalOnly {
        used: ChannelSet,
        primary: ChannelSet,
    }

    impl LocalOnly {
        fn new(cell: CellId, topo: &Topology) -> Self {
            LocalOnly {
                used: topo.spectrum().empty_set(),
                primary: topo.primary(cell).clone(),
            }
        }
    }

    impl StateMachine for LocalOnly {
        type Msg = ();

        fn msg_kind(_: &()) -> &'static str {
            "UNUSED"
        }

        fn acquire(&mut self, req: RequestId, _kind: RequestKind, ctx: &mut Effects<()>) {
            let free = self.primary.difference(&self.used);
            match free.first() {
                Some(ch) => {
                    self.used.insert(ch);
                    ctx.grant(req, ch);
                }
                None => ctx.reject(req),
            }
        }

        fn release(&mut self, ch: Channel, _ctx: &mut Effects<()>) {
            assert!(self.used.remove(ch), "released unknown channel");
        }

        fn message(&mut self, _from: CellId, _msg: (), _ctx: &mut Effects<()>) {
            unreachable!("LocalOnly never sends");
        }
    }

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::default_paper(6, 6))
    }

    #[test]
    fn single_call_completes() {
        let t = topo();
        let arr = vec![Arrival::new(0, CellId(0), 1000)];
        let report = run_protocol(t.clone(), SimConfig::default(), LocalOnly::new, arr);
        assert_eq!(report.offered_calls, 1);
        assert_eq!(report.granted, 1);
        assert_eq!(report.completed_calls, 1);
        assert_eq!(report.dropped_new, 0);
        assert_eq!(report.end_time, SimTime(1000));
        assert_eq!(report.acq_latency.stats().max(), Some(0.0));
        assert!(report.events_processed > 0, "event count must be recorded");
        report.assert_clean();
    }

    #[test]
    fn cell_overload_drops() {
        let t = topo();
        // 11 simultaneous calls in one cell with |PR| = 10.
        let arrivals: Vec<Arrival> = (0..11)
            .map(|i| Arrival::new(i, CellId(7), 10_000))
            .collect();
        let report = run_protocol(t, SimConfig::default(), LocalOnly::new, arrivals);
        assert_eq!(report.granted, 10);
        assert_eq!(report.dropped_new, 1);
        assert!((report.drop_rate() - 1.0 / 11.0).abs() < 1e-12);
        report.assert_clean();
    }

    #[test]
    fn channel_reuse_after_completion() {
        let t = topo();
        // Sequential calls reuse the same channel.
        let arrivals = vec![
            Arrival::new(0, CellId(0), 100),
            Arrival::new(200, CellId(0), 100),
        ];
        let report = run_protocol(t, SimConfig::default(), LocalOnly::new, arrivals);
        assert_eq!(report.completed_calls, 2);
        assert_eq!(report.dropped_new, 0);
    }

    #[test]
    fn handoff_moves_call() {
        let t = topo();
        let target = CellId(1);
        let arrivals = vec![Arrival::new(0, CellId(0), 1000).with_hop(500, target)];
        let report = run_protocol(t, SimConfig::default(), LocalOnly::new, arrivals);
        assert_eq!(report.granted, 2); // initial + handoff
        assert_eq!(report.completed_calls, 1);
        assert_eq!(report.custom.get("handoff_attempts"), 1);
        assert_eq!(report.custom.get("grant_handoff"), 1);
        report.assert_clean();
    }

    #[test]
    fn handoff_failure_counts() {
        let t = topo();
        let target = CellId(1);
        // Fill the target cell completely, then hand a call into it.
        let mut arrivals: Vec<Arrival> =
            (0..10).map(|i| Arrival::new(i, target, 100_000)).collect();
        arrivals.push(Arrival::new(20, CellId(0), 100_000).with_hop(500, target));
        let report = run_protocol(t, SimConfig::default(), LocalOnly::new, arrivals);
        assert_eq!(report.dropped_handoff, 1);
        assert_eq!(report.handoff_failure_rate(), 1.0);
    }

    #[test]
    fn hop_after_end_is_skipped() {
        let t = topo();
        let arrivals = vec![Arrival::new(0, CellId(0), 100).with_hop(500, CellId(1))];
        let report = run_protocol(t, SimConfig::default(), LocalOnly::new, arrivals);
        assert_eq!(report.custom.get("hop_skipped"), 1);
        assert_eq!(report.completed_calls, 1);
    }

    #[test]
    fn determinism() {
        let t = topo();
        let arrivals: Vec<Arrival> = (0..50)
            .map(|i| Arrival::new(i * 13 % 997, CellId((i % 36) as u32), 500 + i * 7))
            .collect();
        let cfg = SimConfig {
            latency: LatencyModel::Jitter { min: 50, max: 150 },
            ..Default::default()
        };
        let r1 = run_protocol(t.clone(), cfg.clone(), LocalOnly::new, arrivals.clone());
        let r2 = run_protocol(t, cfg, LocalOnly::new, arrivals);
        assert_eq!(r1.granted, r2.granted);
        assert_eq!(r1.dropped_new, r2.dropped_new);
        assert_eq!(r1.end_time, r2.end_time);
        assert_eq!(r1.messages_total, r2.messages_total);
    }

    /// A deliberately broken protocol that ignores interference: grants
    /// channel 0 to everyone. The audit must catch it.
    struct Broken;

    impl StateMachine for Broken {
        type Msg = ();
        fn msg_kind(_: &()) -> &'static str {
            "UNUSED"
        }
        fn acquire(&mut self, req: RequestId, _kind: RequestKind, ctx: &mut Effects<()>) {
            ctx.grant(req, Channel(0));
        }
        fn release(&mut self, _ch: Channel, _ctx: &mut Effects<()>) {}
        fn message(&mut self, _from: CellId, _msg: (), _ctx: &mut Effects<()>) {}
    }

    #[test]
    fn audit_catches_interference() {
        let t = topo();
        // Two adjacent cells both get channel 0.
        let arrivals = vec![
            Arrival::new(0, CellId(0), 1000),
            Arrival::new(1, CellId(1), 1000),
        ];
        let cfg = SimConfig {
            audit: AuditMode::Record,
            ..Default::default()
        };
        let report = run_protocol(t, cfg, |_, _| Broken, arrivals);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Interference { .. })));
    }

    #[test]
    #[should_panic(expected = "interference")]
    fn audit_panics_by_default() {
        let t = topo();
        let arrivals = vec![
            Arrival::new(0, CellId(0), 1000),
            Arrival::new(1, CellId(1), 1000),
        ];
        let _ = run_protocol(t, SimConfig::default(), |_, _| Broken, arrivals);
    }

    #[test]
    fn audit_catches_double_assign() {
        let t = topo();
        // Two calls in the SAME cell both get channel 0.
        let arrivals = vec![
            Arrival::new(0, CellId(20), 1000),
            Arrival::new(1, CellId(20), 1000),
        ];
        let cfg = SimConfig {
            audit: AuditMode::Record,
            ..Default::default()
        };
        let report = run_protocol(t, cfg, |_, _| Broken, arrivals);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DoubleAssign { .. })));
    }

    /// A protocol that never resolves requests: the liveness audit fires.
    struct Sitter;

    impl StateMachine for Sitter {
        type Msg = ();
        fn msg_kind(_: &()) -> &'static str {
            "UNUSED"
        }
        fn acquire(&mut self, _req: RequestId, _kind: RequestKind, _ctx: &mut Effects<()>) {}
        fn release(&mut self, _ch: Channel, _ctx: &mut Effects<()>) {}
        fn message(&mut self, _from: CellId, _msg: (), _ctx: &mut Effects<()>) {}
    }

    #[test]
    fn liveness_violation_detected() {
        let t = topo();
        let cfg = SimConfig {
            audit: AuditMode::Record,
            ..Default::default()
        };
        let report = run_protocol(t, cfg, |_, _| Sitter, vec![Arrival::new(0, CellId(0), 100)]);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::Liveness { pending: 1 }]
        ));
    }

    fn busy_arrivals() -> Vec<Arrival> {
        (0..200)
            .map(|i| {
                let arr = Arrival::new(i * 37 % 4000, CellId((i % 36) as u32), 300 + i * 11);
                if i % 5 == 0 {
                    arr.with_hop(150, CellId(((i + 1) % 36) as u32))
                } else {
                    arr
                }
            })
            .collect()
    }

    /// Two engines built alike and paused at one tick have equal state
    /// digests, and each finishes as the unpaused run does.
    #[test]
    fn a_replay_to_the_pause_snapshots_alike_and_finishes_alike() {
        let t = topo();
        let cfg = SimConfig {
            latency: LatencyModel::Jitter { min: 50, max: 150 },
            ..Default::default()
        };
        let cold = run_protocol(t.clone(), cfg.clone(), LocalOnly::new, busy_arrivals());
        let paused = || {
            let mut e = Engine::new(t.clone(), cfg.clone(), LocalOnly::new, busy_arrivals());
            assert!(
                e.run_until(SimTime(2000)),
                "events must remain at the pause"
            );
            e
        };
        let (mut first, mut second) = (paused(), paused());
        assert!(
            first.state_digests() == second.state_digests(),
            "a replay reached another state"
        );
        assert_eq!(first.run(), cold);
        assert_eq!(second.run(), cold);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerProto {
            fired: Vec<u64>,
        }
        impl StateMachine for TimerProto {
            type Msg = ();
            fn msg_kind(_: &()) -> &'static str {
                "UNUSED"
            }
            fn start(&mut self, ctx: &mut Effects<()>) {
                if ctx.me() == CellId(0) {
                    ctx.set_timer(30, 3);
                    ctx.set_timer(10, 1);
                    ctx.set_timer(20, 2);
                }
            }
            fn acquire(&mut self, req: RequestId, _k: RequestKind, ctx: &mut Effects<()>) {
                ctx.reject(req);
            }
            fn release(&mut self, _ch: Channel, _ctx: &mut Effects<()>) {}
            fn message(&mut self, _from: CellId, _msg: (), _ctx: &mut Effects<()>) {}
            fn timer(&mut self, tag: u64, _ctx: &mut Effects<()>) {
                self.fired.push(tag);
            }
        }
        let t = topo();
        let mut engine = Engine::new(
            t,
            SimConfig::default(),
            |_, _| TimerProto { fired: vec![] },
            vec![],
        );
        engine.run().assert_clean();
        assert_eq!(engine.node(CellId(0)).fired, vec![1, 2, 3]);
    }

    /// The runaway guard: the event past `max_events` is not processed,
    /// it records one `EventBudget` violation, and the engine stays
    /// halted through later runs.
    #[test]
    fn event_budget_halts_the_run_for_good() {
        let t = topo();
        let cfg = SimConfig {
            audit: AuditMode::Record,
            max_events: 50,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(t, cfg, LocalOnly::new, busy_arrivals());
        assert!(!engine.run_until(SimTime(u64::MAX)));
        let report = engine.run();
        assert_eq!(report.events_processed, 51);
        let budget = Violation::EventBudget { processed: 51 };
        assert_eq!(report.violations, [budget]);
        let now = engine.now();
        assert_eq!(engine.run(), report, "a second run processes no event");
        assert_eq!(engine.now(), now);
    }
}
