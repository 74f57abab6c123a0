//! Wall-clock timing primitives for the threaded serving stack.
//!
//! The threaded runtime for the protocols is `adca-serve`'s production
//! backend; this crate holds the two timing primitives it and the wire
//! layer share:
//!
//! * [`TimerWheel`] — one dispatcher thread over a deadline min-heap;
//!   the production backend arms protocol timers and call-hold
//!   expirations on it, and the wire layer its retry deadlines.
//! * [`Backoff`] — the bounded, capped exponential retry schedule the
//!   wire client advances from its timer callback.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod timer;

pub use backoff::Backoff;
pub use timer::TimerWheel;
