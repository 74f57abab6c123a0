//! Wall-clock timing primitives for the threaded serving stack.
//!
//! The threaded runtime for the protocols is `adca-serve`'s production
//! backend, whose workers keep their own timers; this crate holds the
//! two timing primitives of the wire layer:
//!
//! * [`TimerWheel`] — one dispatcher thread over a deadline min-heap;
//!   the wire client arms its retry deadlines on it.
//! * [`Backoff`] — the bounded, capped exponential retry schedule the
//!   wire client advances from its timer callback.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod timer;

pub use backoff::Backoff;
pub use timer::TimerWheel;
