//! The context backend abstraction.
//!
//! Protocol state machines act on the world exclusively through
//! [`crate::Ctx`], which delegates to a [`CtxBackend`]. Four backends
//! exist in the workspace:
//!
//! * the deterministic discrete-event engine in this crate
//!   ([`crate::engine::Engine`]),
//! * the OS-thread + crossbeam driver in `adca-threadnet`, which runs the
//!   *same unmodified* protocol code under real nondeterministic
//!   interleavings,
//! * the bounded-mailbox production service in `adca-serve`, and
//! * the scripted single-node harness for unit tests
//!   ([`crate::testing::MockNet`]).

use crate::protocol::RequestId;
use crate::report::DropCause;
use crate::time::SimTime;
use crate::trace::TraceEvent;
use adca_hexgrid::{CellId, Channel, Topology};

/// The operations a protocol node may perform on its environment.
pub trait CtxBackend<M> {
    /// The cell this node manages.
    fn me(&self) -> CellId;
    /// Current (virtual or scaled-real) time.
    fn now(&self) -> SimTime;
    /// The system topology.
    fn topo(&self) -> &Topology;
    /// Send `msg` (labeled `kind` for accounting) to `to`.
    fn send_kind(&mut self, to: CellId, kind: &'static str, msg: M);
    /// Grant channel `ch` to request `req` (audited).
    fn grant(&mut self, req: RequestId, ch: Channel);
    /// Reject request `req` (the call is denied service), attributing
    /// the drop to `cause` in the report.
    fn reject(&mut self, req: RequestId, cause: DropCause);
    /// Schedule `on_timer(tag)` after `delay` ticks.
    fn set_timer(&mut self, delay: u64, tag: u64);
    /// Increment a named metric counter.
    fn count(&mut self, name: &'static str);
    /// Add to a named metric counter.
    fn add(&mut self, name: &'static str, n: u64);
    /// Record a named metric sample.
    fn sample(&mut self, name: &'static str, value: f64);
    /// Ground-truth check for tests: is `ch` truly unused in this cell's
    /// interference region right now?
    fn truly_free_here(&self, ch: Channel) -> bool;
    /// Whether a trace sink is attached and recording. Protocols consult
    /// this (through [`Ctx::trace_with`]) before constructing an event;
    /// the default — used by backends without a trace layer, like the
    /// `adca-threadnet` driver — is permanently `false`.
    fn trace_enabled(&self) -> bool {
        false
    }
    /// Records a protocol-level trace event at the current time. Only
    /// called after [`CtxBackend::trace_enabled`] returned `true`; the
    /// default discards the event.
    fn trace(&mut self, ev: TraceEvent) {
        let _ = ev;
    }
}

/// The handle protocol nodes use to act on the world. A thin, inlined
/// façade over a [`CtxBackend`].
pub struct Ctx<'a, M> {
    inner: &'a mut dyn CtxBackend<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Wraps a backend.
    pub fn new(inner: &'a mut dyn CtxBackend<M>) -> Self {
        Ctx { inner }
    }

    /// The cell this node manages.
    #[inline]
    pub fn me(&self) -> CellId {
        self.inner.me()
    }

    /// Current time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// The system topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        self.inner.topo()
    }

    /// Sends `msg` to `to`; delivered after the backend's latency.
    /// `kind` must equal `Protocol::msg_kind(&msg)` (protocols use their
    /// own `send` wrappers to guarantee this).
    #[inline]
    pub fn send_kind(&mut self, to: CellId, kind: &'static str, msg: M) {
        debug_assert_ne!(to, self.me(), "nodes must not message themselves");
        self.inner.send_kind(to, kind, msg);
    }

    /// Grants channel `ch` to request `req`. The backend audits the
    /// co-channel interference invariant against ground truth.
    #[inline]
    pub fn grant(&mut self, req: RequestId, ch: Channel) {
        self.inner.grant(req, ch);
    }

    /// Rejects request `req`: the call is dropped / the handoff fails.
    /// The drop is attributed to [`DropCause::Blocked`] (no channel); use
    /// [`Ctx::reject_with`] to attribute it differently.
    #[inline]
    pub fn reject(&mut self, req: RequestId) {
        self.inner.reject(req, DropCause::Blocked);
    }

    /// Rejects request `req`, attributing the drop to `cause` (retry
    /// exhaustion, crash, …) in the report's drop-cause split.
    #[inline]
    pub fn reject_with(&mut self, req: RequestId, cause: DropCause) {
        self.inner.reject(req, cause);
    }

    /// Schedules `on_timer(tag)` on this node after `delay` ticks.
    ///
    /// Same-tick ordering: under the deterministic engine, a timer due
    /// at tick `t` and a message delivery due at tick `t` fire in
    /// *scheduling order* — all event classes share one `(time, seq)`
    /// queue (see `simkit::equeue`). A protocol must therefore not
    /// assume timers beat (or lose to) same-tick deliveries as a class.
    #[inline]
    pub fn set_timer(&mut self, delay: u64, tag: u64) {
        self.inner.set_timer(delay, tag);
    }

    /// Increments a protocol-specific counter in the report.
    #[inline]
    pub fn count(&mut self, name: &'static str) {
        self.inner.count(name);
    }

    /// Adds `n` to a protocol-specific counter in the report.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.inner.add(name, n);
    }

    /// Records a protocol-specific sample in the report.
    #[inline]
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.inner.sample(name, value);
    }

    /// Ground-truth check (test helper, not for protocol logic).
    #[inline]
    pub fn truly_free_here(&self, ch: Channel) -> bool {
        self.inner.truly_free_here(ch)
    }

    /// Whether the backend has an enabled trace sink attached. Used by
    /// the buffered state-machine adapter (`simkit::sm::drive`) to
    /// capture the trace gate once per event.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.inner.trace_enabled()
    }

    /// Records a protocol-level trace event, building it lazily: `f` runs
    /// only when the backend has an enabled trace sink attached. Under
    /// the default [`crate::trace::NoopSink`] engine this is one
    /// always-false branch — the event is never constructed — so trace
    /// points cost nothing measurable on untraced runs and can never
    /// perturb results (sinks are pure observers).
    #[inline]
    pub fn trace_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.inner.trace_enabled() {
            let ev = f();
            self.inner.trace(ev);
        }
    }
}
