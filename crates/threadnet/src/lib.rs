//! Wall-clock timing primitives for the threaded serving stack.
//!
//! The threaded runtime for the protocols is `adca-serve`'s production
//! backend, whose workers keep their own timers; this crate holds the
//! wire layer's one timing primitive, [`TimerWheel`]: one dispatcher
//! thread over a deadline min-heap, on which every wire client keeps
//! one entry for its oldest request's deadline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod timer;

pub use timer::TimerWheel;
