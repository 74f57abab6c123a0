//! Deterministic discrete-event simulation of distributed channel
//! allocation protocols.
//!
//! The paper evaluates message-passing protocols running on mobile service
//! stations (MSS), one per cell, that exchange control messages with
//! bounded latency `T`. This crate is the substrate that plays the role of
//! the authors' (analytic) evaluation environment:
//!
//! * a virtual clock and seeded, fully deterministic event queue
//!   ([`engine`]),
//! * a message bus with pluggable latency models — fixed `T`, jittered, or
//!   scripted per-message latencies for adversarial scenarios like the
//!   paper's Figure 11 ([`latency`]),
//! * the [`StateMachine`] trait implemented by every allocation scheme
//!   and the [`Input`] / [`Action`] vocabulary every driver speaks
//!   ([`sm`]),
//! * call lifecycle management (arrival → acquisition → holding → release,
//!   plus mobility handoffs) driven by a [`workload::Arrival`] list,
//! * an *auditor* that checks the paper's Theorem 1 (no co-channel
//!   interference within the reuse distance) as an executable invariant on
//!   every grant ([`ground`], the one copy every driver calls), and a
//!   liveness check corresponding to Theorem 2: the run fails if any
//!   request is still pending when the event queue drains ([`report`]),
//! * a zero-cost-when-disabled structured trace layer ([`trace`]):
//!   typed per-message / per-mode-transition / per-borrow events into a
//!   pluggable [`trace::TraceSink`] (no-op, bounded ring, or JSONL),
//!   plus per-cell mode-occupancy timelines ([`trace::CellTimeline`]),
//! * a state's identity, the [`std::hash::Hash`] of its value taken with
//!   [`StateHasher`] ([`state_hash`]): one digest a section of the
//!   engine ([`Engine::state_digests`]), and the model checker's state;
//!   a node's [`RunInput`] fields, fixed for the run, are outside it.
//!
//! Determinism: two runs with the same topology, workload, seed and
//! configuration produce identical event interleavings and identical
//! reports. This is what makes the reproduced tables stable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod equeue;
pub mod faults;
pub mod ground;
pub mod latency;
pub mod report;
pub mod rng;
pub mod sm;
pub mod state_hash;
pub mod time;
pub mod trace;
pub mod workload;

pub use engine::{Engine, ReqOutcome, SimConfig};
pub use faults::{Crash, FaultPlan, Partition};
pub use ground::Ground;
pub use latency::LatencyModel;
pub use report::{AuditMode, DropCause, SimReport, Violation};
pub use sm::{Action, Effects, Input, RequestId, RequestKind, StateMachine};
pub use state_hash::{RunInput, StateHasher};
pub use time::SimTime;
pub use trace::{
    AcqPath, CellTimeline, JsonlSink, NoopSink, RingSink, RoundKind, TraceEvent, TraceRecord,
    TraceSink,
};
pub use workload::Arrival;
