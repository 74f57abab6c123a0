//! Wall-clock timing primitives for the threaded serving stack.
//!
//! The threaded runtime for the protocols is `adca-serve`'s production
//! backend, whose workers keep their own timers; this crate holds
//! [`TimerWheel`]: one dispatcher thread over a deadline min-heap. The
//! wire layer's `deadline_wheel()` builds one, which `WireClient::connect`
//! takes and no client arms: a client services its deadlines in its own
//! socket reads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod timer;

pub use timer::TimerWheel;
