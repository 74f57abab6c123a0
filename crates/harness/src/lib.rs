//! Unified experiment runner over all six channel-allocation schemes.
//!
//! Every experiment in the reproduction is expressed as a [`Scenario`]
//! (topology + workload + scheme parameters) run against a
//! [`SchemeKind`]; the result is a [`RunSummary`] exposing exactly the
//! quantities the paper's tables report: message complexity per
//! acquisition, channel acquisition time in units of `T`, drop rates,
//! the mode-mix fractions `ξ1/ξ2/ξ3`, and the mean update attempt count
//! `m`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod scenario;
pub mod summary;
pub mod sweep;

pub use scenario::{CheckpointProbe, Scenario, SchemeKind};
pub use summary::RunSummary;
pub use sweep::{run_jobs, run_jobs_on, Replicated, SweepRunner};
