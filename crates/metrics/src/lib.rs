//! Measurement infrastructure for channel-allocation experiments.
//!
//! Every table and figure reproduced from the paper is computed from the
//! primitives in this crate:
//!
//! * [`StreamingStats`] — constant-space count/mean/variance/min/max,
//! * [`SampleSeries`] — exact quantiles over retained samples,
//! * [`PercentileSketch`] — constant-space log-bucketed quantile sketch
//!   (p50/p99/p999 for the serving layer),
//! * [`CounterMap`] — named event counters (message taxonomy, mode
//!   transitions, acquisition outcomes),
//! * [`fairness`] — Jain's fairness index over per-cell outcomes,
//! * [`StateDwell`] — time-in-state fractions (per-cell mode occupancy).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod dwell;
pub mod fairness;
pub mod percentile;
pub mod series;
pub mod stats;

pub use counters::CounterMap;
pub use dwell::StateDwell;
pub use percentile::PercentileSketch;
pub use series::SampleSeries;
pub use stats::StreamingStats;
