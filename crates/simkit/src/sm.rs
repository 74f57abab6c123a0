//! The one protocol interface: pure, explorable state machines.
//!
//! The paper's MSS is a reactive node — a request, a release, a message
//! or a timer goes in; sends, a grant or a reject come out. A
//! [`StateMachine`] is exactly that: a side-effect-free transition
//! function that consumes one [`Input`] and appends [`Action`]s to an
//! [`Effects`] buffer (the `state × event → actions` idiom). Nothing
//! escapes the buffer, so every driver is the same loop — build an
//! [`Effects`] over a buffer it owns, call [`StateMachine::step`], apply
//! each [`Action`] in emission order:
//!
//! * the deterministic DES engine ([`crate::engine::Engine`]) turns them
//!   into queue pushes, the Theorem-1 audit and report counters,
//! * the serving backends (`adca-serve`) into mailbox deliveries,
//!   confirms and timer-wheel entries, and
//! * the exhaustive model checker (`adca-checker`) holds the list
//!   abstract and explores *all* delivery / loss / timer / crash
//!   interleavings instead of one schedule.
//!
//! # Cost
//!
//! The engine hot path is allocation-free (PR 2). The action buffer is
//! driver-owned — one `Vec` per engine or per worker, handed to
//! [`Effects::reusing`] and taken back with [`Effects::into_actions`] —
//! so its capacity is amortized over the run.

use crate::report::DropCause;
use crate::time::SimTime;
use crate::trace::TraceEvent;
use adca_hexgrid::{CellId, Channel};

/// Identifier of one channel-acquisition request issued by a driver to a
/// protocol node (one per new call and one per handoff attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Why the driver is asking for a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A newly arriving call.
    NewCall,
    /// A call handed off from a neighboring cell.
    Handoff,
}

/// One event consumed by a protocol state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Input<M> {
    /// Engine start-up (before any other event).
    Start,
    /// A call in this cell needs a channel.
    Acquire {
        /// The request to resolve (exactly one grant or reject).
        req: RequestId,
        /// New call or handoff.
        kind: RequestKind,
    },
    /// The call using `ch` ended; free it.
    Release {
        /// The channel to free.
        ch: Channel,
    },
    /// A protocol message arrived from `from`.
    Message {
        /// The sending cell.
        from: CellId,
        /// The wire message.
        msg: M,
    },
    /// A timer armed through [`Effects::set_timer`] fired.
    Timer {
        /// The tag passed to `set_timer`.
        tag: u64,
    },
    /// The cell restarted after a crash window (volatile state wiped).
    Restart,
}

/// One side effect requested by a transition, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M> {
    /// Send `msg` to `to`. Drivers label it for accounting with
    /// [`StateMachine::msg_kind`].
    Send {
        /// Destination cell.
        to: CellId,
        /// The message.
        msg: M,
    },
    /// Grant channel `ch` to request `req`.
    Grant {
        /// The request resolved.
        req: RequestId,
        /// The granted channel.
        ch: Channel,
    },
    /// Reject request `req`, attributing the drop to `cause`.
    Reject {
        /// The request resolved.
        req: RequestId,
        /// The attributed drop cause.
        cause: DropCause,
    },
    /// Arm a timer: deliver [`Input::Timer`] after `delay` ticks.
    SetTimer {
        /// Delay in ticks.
        delay: u64,
        /// Tag echoed back on expiry.
        tag: u64,
    },
    /// Increment the named report counter.
    Count {
        /// Counter name.
        name: &'static str,
    },
    /// Add `n` to the named report counter.
    Add {
        /// Counter name.
        name: &'static str,
        /// Increment.
        n: u64,
    },
    /// Record a sample in the named report series.
    Sample {
        /// Series name.
        name: &'static str,
        /// The sample.
        value: f64,
    },
    /// Emit a protocol-level trace event (only buffered while the
    /// driver has an enabled sink).
    Trace(TraceEvent),
}

/// The buffered effect context a [`StateMachine`] transition writes to.
///
/// Every mutation is appended to an ordered action list instead of
/// applied; the driver interprets the list after the transition returns.
#[derive(Debug)]
pub struct Effects<M> {
    me: CellId,
    now: SimTime,
    trace_on: bool,
    actions: Vec<Action<M>>,
}

impl<M> Effects<M> {
    /// A fresh buffer for cell `me` at time `now`. `trace_on` gates
    /// [`Effects::trace_with`] — captured once per event so the
    /// transition never probes a sink.
    pub fn new(me: CellId, now: SimTime, trace_on: bool) -> Self {
        Effects::reusing(Vec::new(), me, now, trace_on)
    }

    /// Like [`Effects::new`], but reusing `buf` (cleared) as backing
    /// storage — the allocation-free path drivers use.
    pub fn reusing(mut buf: Vec<Action<M>>, me: CellId, now: SimTime, trace_on: bool) -> Self {
        buf.clear();
        Effects {
            me,
            now,
            trace_on,
            actions: buf,
        }
    }

    /// The cell this node manages.
    #[inline]
    pub fn me(&self) -> CellId {
        self.me
    }

    /// The time this event is being processed at.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Buffers a message send.
    #[inline]
    pub fn send(&mut self, to: CellId, msg: M) {
        debug_assert_ne!(to, self.me, "nodes must not message themselves");
        self.actions.push(Action::Send { to, msg });
    }

    /// Buffers a grant of `ch` to `req`.
    #[inline]
    pub fn grant(&mut self, req: RequestId, ch: Channel) {
        self.actions.push(Action::Grant { req, ch });
    }

    /// Buffers a reject of `req` attributed to [`DropCause::Blocked`].
    #[inline]
    pub fn reject(&mut self, req: RequestId) {
        self.reject_with(req, DropCause::Blocked);
    }

    /// Buffers a reject of `req` attributed to `cause`.
    #[inline]
    pub fn reject_with(&mut self, req: RequestId, cause: DropCause) {
        self.actions.push(Action::Reject { req, cause });
    }

    /// Buffers a timer arm: [`Input::Timer`] after `delay` ticks.
    ///
    /// Same-tick ordering: under the deterministic engine, a timer due
    /// at tick `t` and a message delivery due at tick `t` fire in
    /// *scheduling order* — all event classes share one `(time, seq)`
    /// queue (see `simkit::equeue`). A protocol must therefore not
    /// assume timers beat (or lose to) same-tick deliveries as a class.
    #[inline]
    pub fn set_timer(&mut self, delay: u64, tag: u64) {
        self.actions.push(Action::SetTimer { delay, tag });
    }

    /// Buffers a counter increment.
    #[inline]
    pub fn count(&mut self, name: &'static str) {
        self.actions.push(Action::Count { name });
    }

    /// Buffers a counter add.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.actions.push(Action::Add { name, n });
    }

    /// Buffers a sample.
    #[inline]
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.actions.push(Action::Sample { name, value });
    }

    /// Buffers a trace event, building it lazily: `f` runs only when the
    /// driver had an enabled sink at event entry. Under the default
    /// [`crate::trace::NoopSink`] engine this is one always-false branch,
    /// so trace points cost nothing measurable on untraced runs and can
    /// never perturb results (sinks are pure observers).
    #[inline]
    pub fn trace_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.trace_on {
            self.actions.push(Action::Trace(f()));
        }
    }

    /// The buffered actions, in emission order.
    #[inline]
    pub fn actions(&self) -> &[Action<M>] {
        &self.actions
    }

    /// Consumes the buffer, returning the actions in emission order.
    pub fn into_actions(self) -> Vec<Action<M>> {
        self.actions
    }
}

/// A distributed channel-allocation protocol, written as a per-node pure
/// transition function: `state × event → actions`, with every effect
/// buffered in the [`Effects`] argument (the magic-wormhole
/// `process(event) -> Actions` idiom).
///
/// One value of the implementing type exists per cell. Schemes implement
/// the per-event methods; drivers call [`StateMachine::step`].
///
/// # Contract
///
/// * Every [`acquire`](StateMachine::acquire) must *eventually* be
///   answered with exactly one `fx.grant(req, ch)` or `fx.reject(req)`;
///   the engine's liveness audit fails the run otherwise.
/// * A node may only grant a channel it believes free in its cell; every
///   driver audits ground truth (Theorem 1) on every grant.
/// * On [`release`](StateMachine::release) the node must stop regarding
///   `ch` as used by itself (and tell whoever needs to know).
/// * State machines must be deterministic: all nondeterminism comes from
///   the driver (event order, latency jitter).
pub trait StateMachine {
    /// The wire message type exchanged between nodes.
    type Msg: Clone + std::fmt::Debug;

    /// A static label for a message, used for message-complexity
    /// accounting (`"REQUEST"`, `"RESPONSE"`, `"RELEASE"`, …).
    fn msg_kind(msg: &Self::Msg) -> &'static str;

    /// Start-up, before any other event.
    fn start(&mut self, _fx: &mut Effects<Self::Msg>) {}

    /// A call needs a channel; must eventually grant or reject `req`.
    fn acquire(&mut self, req: RequestId, kind: RequestKind, fx: &mut Effects<Self::Msg>);

    /// The call using `ch` ended (or moved away); free it.
    fn release(&mut self, ch: Channel, fx: &mut Effects<Self::Msg>);

    /// A message arrived from `from` (guaranteed to be in this cell's
    /// interference region for all schemes in this workspace).
    fn message(&mut self, from: CellId, msg: Self::Msg, fx: &mut Effects<Self::Msg>);

    /// A timer armed through [`Effects::set_timer`] fired.
    fn timer(&mut self, _tag: u64, _fx: &mut Effects<Self::Msg>) {}

    /// The cell restarted after a crash window (fault injection): all
    /// volatile protocol state must be re-initialized. While the cell was
    /// down its active calls were killed and its in-flight requests
    /// force-rejected by the engine, so `Use_i` should come back empty;
    /// logical clocks may be treated as persisted (stable storage) —
    /// resetting a Lamport clock to zero would let a restarted node issue
    /// timestamps older than pre-crash requests still in flight and break
    /// timestamp-ordered mutual exclusion. The default does nothing,
    /// which is only correct for stateless protocols.
    fn restart(&mut self, _fx: &mut Effects<Self::Msg>) {}

    /// Uniform dispatch: consume one [`Input`], buffer the reaction.
    fn step(&mut self, input: Input<Self::Msg>, fx: &mut Effects<Self::Msg>) {
        match input {
            Input::Start => self.start(fx),
            Input::Acquire { req, kind } => self.acquire(req, kind, fx),
            Input::Release { ch } => self.release(ch, fx),
            Input::Message { from, msg } => self.message(from, msg, fx),
            Input::Timer { tag } => self.timer(tag, fx),
            Input::Restart => self.restart(fx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy machine: grants channel 0 to every request, pings cell 1,
    /// counts timers.
    #[derive(Debug, Default)]
    struct Toy {
        grants: u32,
    }

    impl StateMachine for Toy {
        type Msg = u32;

        fn msg_kind(_msg: &u32) -> &'static str {
            "PING"
        }

        fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<u32>) {
            self.grants += 1;
            fx.send(CellId(1), self.grants);
            fx.grant(req, Channel(0));
            fx.count("grants");
        }

        fn release(&mut self, _ch: Channel, _fx: &mut Effects<u32>) {}

        fn message(&mut self, _from: CellId, _msg: u32, fx: &mut Effects<u32>) {
            fx.set_timer(5, 7);
        }
    }

    #[test]
    fn effects_buffer_in_emission_order() {
        let mut toy = Toy::default();
        let mut fx = Effects::new(CellId(0), SimTime(3), false);
        toy.step(
            Input::Acquire {
                req: RequestId(9),
                kind: RequestKind::NewCall,
            },
            &mut fx,
        );
        assert_eq!(fx.now(), SimTime(3));
        assert_eq!(fx.me(), CellId(0));
        let acts = fx.into_actions();
        assert_eq!(acts.len(), 3);
        assert!(matches!(acts[0], Action::Send { to: CellId(1), .. }));
        assert!(matches!(
            acts[1],
            Action::Grant {
                req: RequestId(9),
                ch: Channel(0)
            }
        ));
        assert!(matches!(acts[2], Action::Count { name: "grants" }));
    }

    #[test]
    fn trace_gate_suppresses_event_construction() {
        let mut fx: Effects<u32> = Effects::new(CellId(0), SimTime(0), false);
        fx.trace_with(|| unreachable!("trace_on = false must not build the event"));
        assert!(fx.actions().is_empty());
        let mut fx: Effects<u32> = Effects::new(CellId(0), SimTime(0), true);
        fx.trace_with(|| TraceEvent::Crash { cell: CellId(0) });
        assert_eq!(fx.actions().len(), 1);
    }
}
