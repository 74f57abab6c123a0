//! Run outcomes: metrics and audit violations.

use crate::time::SimTime;
use adca_hexgrid::{CellId, Channel};
use adca_metrics::{CounterMap, SampleSeries};
use std::collections::BTreeMap;

/// What the engine does when an invariant is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// Panic immediately with a diagnostic (default; tests rely on it).
    #[default]
    Panic,
    /// Record the violation in the report and keep running.
    Record,
}

/// An invariant violation detected by the engine.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Violation {
    /// Two cells within the interference distance held the same channel
    /// (the paper's Theorem 1 broken).
    Interference {
        /// When the conflicting grant happened.
        at: SimTime,
        /// The granting cell.
        cell: CellId,
        /// The cell already using the channel.
        conflicting: CellId,
        /// The channel in conflict.
        channel: Channel,
    },
    /// A cell granted a channel it already had in use for another call.
    DoubleAssign {
        /// When it happened.
        at: SimTime,
        /// The cell.
        cell: CellId,
        /// The channel.
        channel: Channel,
    },
    /// Requests were still pending when the event queue drained
    /// (deadlock / lost wakeup — the paper's Theorem 2 broken).
    Liveness {
        /// Number of pending requests at drain.
        pending: u64,
    },
    /// An acquisition exceeded the watchdog bound.
    Watchdog {
        /// The cell whose request was slow.
        cell: CellId,
        /// Observed latency in ticks.
        latency: u64,
        /// The configured bound.
        bound: u64,
    },
    /// The event budget was exhausted before the queue drained.
    EventBudget {
        /// Events processed before aborting.
        processed: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Interference {
                at,
                cell,
                conflicting,
                channel,
            } => write!(
                f,
                "interference at {at}: {cell} granted {channel} already used by {conflicting}"
            ),
            Violation::DoubleAssign { at, cell, channel } => {
                write!(f, "double assignment at {at}: {cell} re-granted {channel}")
            }
            Violation::Liveness { pending } => {
                write!(f, "liveness: {pending} requests pending at quiescence")
            }
            Violation::Watchdog {
                cell,
                latency,
                bound,
            } => write!(
                f,
                "watchdog: acquisition at {cell} took {latency} ticks (bound {bound})"
            ),
            Violation::EventBudget { processed } => {
                write!(f, "event budget exhausted after {processed} events")
            }
        }
    }
}

/// Why a request was rejected (the drop-cause split behind the
/// `drops_*` counters of [`SimReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// No channel was available (the classic blocking drop).
    Blocked,
    /// The protocol gave up after exhausting its timeout/retry budget
    /// (only possible when retry hardening is enabled).
    RetryExhausted,
    /// The serving cell was crashed (fault injection), or the request
    /// was force-rejected when its cell went down.
    Crashed,
}

impl DropCause {
    /// Stable snake_case label (used by the trace layer's JSONL output).
    pub fn label(self) -> &'static str {
        match self {
            DropCause::Blocked => "blocked",
            DropCause::RetryExhausted => "retry_exhausted",
            DropCause::Crashed => "crashed",
        }
    }
}

/// Everything measured over one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Virtual time when the run quiesced.
    pub end_time: SimTime,
    /// Events the engine processed over the whole run.
    pub events_processed: u64,
    /// Calls offered (arrival events processed).
    pub offered_calls: u64,
    /// Calls that ran to completion while holding a channel.
    pub completed_calls: u64,
    /// New calls denied service.
    pub dropped_new: u64,
    /// Handoffs denied service (forced terminations).
    pub dropped_handoff: u64,
    /// Successful channel acquisitions (new calls + handoffs).
    pub granted: u64,
    /// Acquisition latency samples (ticks), granted requests only.
    pub acq_latency: SampleSeries,
    /// Total control messages sent.
    pub messages_total: u64,
    /// Message counts by protocol label.
    pub msg_kinds: CounterMap,
    /// Messages sent per cell.
    pub per_cell_msgs: Vec<u64>,
    /// Call arrivals per cell.
    pub per_cell_arrivals: Vec<u64>,
    /// Drops (new + handoff) per cell.
    pub per_cell_drops: Vec<u64>,
    /// Drops because no channel was available ([`DropCause::Blocked`]).
    pub drops_blocked: u64,
    /// Drops after the protocol exhausted its retries
    /// ([`DropCause::RetryExhausted`]).
    pub drops_retry_exhausted: u64,
    /// Drops because the serving cell was down ([`DropCause::Crashed`]).
    pub drops_crashed: u64,
    /// Messages lost to fault injection (counted in `messages_total`).
    pub messages_lost: u64,
    /// Extra deliveries created by fault-injected duplication (not
    /// counted in `messages_total`, which counts *sends*).
    pub messages_duplicated: u64,
    /// Deliveries dropped because the receiving cell was down.
    pub messages_crash_dropped: u64,
    /// Cells taken down by the crash schedule.
    pub crashes: u64,
    /// Cells restarted after a crash window.
    pub restarts: u64,
    /// Grants per cell.
    pub per_cell_grants: Vec<u64>,
    /// Protocol-specific counters (`Effects::count`).
    pub custom: CounterMap,
    /// Protocol-specific sample series (`Effects::sample`).
    pub custom_samples: BTreeMap<&'static str, SampleSeries>,
    /// Invariant violations (empty on a clean run).
    pub violations: Vec<Violation>,
}

impl SimReport {
    /// Fraction of offered new calls that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.offered_calls == 0 {
            0.0
        } else {
            self.dropped_new as f64 / self.offered_calls as f64
        }
    }

    /// Fraction of attempted handoffs that failed.
    pub fn handoff_failure_rate(&self) -> f64 {
        let attempts = self.custom.get("handoff_attempts");
        if attempts == 0 {
            0.0
        } else {
            self.dropped_handoff as f64 / attempts as f64
        }
    }

    /// Mean control messages per successful acquisition.
    pub fn msgs_per_grant(&self) -> f64 {
        if self.granted == 0 {
            0.0
        } else {
            self.messages_total as f64 / self.granted as f64
        }
    }

    /// Panics with a readable message if the run had any violation.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "simulation violations: {}",
            self.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_zero_denominators() {
        let r = SimReport::default();
        assert_eq!(r.drop_rate(), 0.0);
        assert_eq!(r.msgs_per_grant(), 0.0);
        assert_eq!(r.handoff_failure_rate(), 0.0);
        r.assert_clean();
    }

    #[test]
    fn rates_basic() {
        let r = SimReport {
            offered_calls: 10,
            dropped_new: 2,
            granted: 8,
            messages_total: 80,
            ..Default::default()
        };
        assert!((r.drop_rate() - 0.2).abs() < 1e-12);
        assert!((r.msgs_per_grant() - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "simulation violations")]
    fn assert_clean_panics_on_violation() {
        let r = SimReport {
            violations: vec![Violation::Liveness { pending: 3 }],
            ..Default::default()
        };
        r.assert_clean();
    }

    #[test]
    fn violation_display() {
        let v = Violation::Interference {
            at: SimTime(5),
            cell: CellId(1),
            conflicting: CellId(2),
            channel: Channel(3),
        };
        let s = v.to_string();
        assert!(s.contains("cell1") && s.contains("cell2") && s.contains("ch3"));
    }
}
