//! Message latency models.

use crate::rng::SplitMix64;
use crate::time::SimTime;
use adca_hexgrid::CellId;
use std::sync::Arc;

/// Metadata handed to custom latency functions for each message send.
#[derive(Debug, Clone, Copy)]
pub struct MsgMeta {
    /// Sending cell.
    pub from: CellId,
    /// Receiving cell.
    pub to: CellId,
    /// The protocol's label for this message (e.g. `"REQUEST"`).
    pub kind: &'static str,
    /// Virtual time at which the message was sent.
    pub sent_at: SimTime,
    /// Global message sequence number (send order).
    pub seq: u64,
}

/// How long a control message takes from send to delivery.
///
/// The paper's `T` is "the maximum time to communicate with another node
/// in the interference region"; [`LatencyModel::Fixed`] models exactly
/// that. [`LatencyModel::Jitter`] draws uniformly from `[min, max]`
/// (deterministically from the engine seed), and
/// [`LatencyModel::Custom`] lets a scenario script per-message latencies —
/// used to reproduce the message overtaking of the paper's Figure 11.
#[derive(Clone)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks.
    Fixed(u64),
    /// Uniform latency in `[min, max]` ticks.
    Jitter {
        /// Minimum latency (ticks).
        min: u64,
        /// Maximum latency (ticks).
        max: u64,
    },
    /// Scripted latency per message. `Send + Sync` so configs can cross
    /// thread boundaries when independent runs execute in parallel.
    Custom(Arc<dyn Fn(&MsgMeta) -> u64 + Send + Sync>),
}

impl LatencyModel {
    /// Latency in ticks for the message described by `meta`.
    pub fn latency(&self, meta: &MsgMeta, rng: &mut SplitMix64) -> u64 {
        match self {
            LatencyModel::Fixed(t) => *t,
            LatencyModel::Jitter { min, max } => rng.range_inclusive(*min, *max),
            LatencyModel::Custom(f) => f(meta),
        }
    }
}

impl std::fmt::Debug for LatencyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyModel::Fixed(t) => write!(f, "Fixed({t})"),
            LatencyModel::Jitter { min, max } => write!(f, "Jitter({min}..={max})"),
            LatencyModel::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> MsgMeta {
        MsgMeta {
            from: CellId(0),
            to: CellId(1),
            kind: "REQUEST",
            sent_at: SimTime(0),
            seq: 0,
        }
    }

    #[test]
    fn fixed_latency() {
        let m = LatencyModel::Fixed(100);
        let mut rng = SplitMix64::new(1);
        assert_eq!(m.latency(&meta(), &mut rng), 100);
    }

    #[test]
    fn jitter_within_bounds() {
        let m = LatencyModel::Jitter { min: 50, max: 150 };
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let l = m.latency(&meta(), &mut rng);
            assert!((50..=150).contains(&l));
        }
    }

    #[test]
    fn custom_sees_metadata() {
        let m = LatencyModel::Custom(Arc::new(
            |meta: &MsgMeta| {
                if meta.kind == "REQUEST" {
                    7
                } else {
                    3
                }
            },
        ));
        let mut rng = SplitMix64::new(1);
        assert_eq!(m.latency(&meta(), &mut rng), 7);
    }
}
