//! Fixed (static) channel allocation.
//!
//! Channels are assigned to cells a priori by the reuse pattern and never
//! move: a call is served from `PR_i` or dropped. Zero acquisition
//! latency, zero control messages — and, as the paper's introduction
//! stresses, "many calls may be dropped by a heavily loaded switching
//! station even when there are enough idle channels in the interference
//! region".

use adca_hexgrid::{CellId, Channel, ChannelSet, Topology};
use adca_simkit::trace::{AcqPath, TraceEvent};
use adca_simkit::{Effects, RequestId, RequestKind, StateMachine};

/// A mobile service station running fixed allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FixedNode {
    me: CellId,
    primary: ChannelSet,
    used: ChannelSet,
}

impl FixedNode {
    /// Creates the node for `cell`.
    pub fn new(cell: CellId, topo: &Topology) -> Self {
        FixedNode {
            me: cell,
            primary: topo.primary(cell).clone(),
            used: topo.spectrum().empty_set(),
        }
    }

    /// Channels currently in use.
    pub fn used(&self) -> &ChannelSet {
        &self.used
    }
}

/// Fixed allocation sends no messages; the message type is uninhabited
/// in spirit (unit, never constructed).
impl StateMachine for FixedNode {
    type Msg = ();

    fn msg_kind(_: &()) -> &'static str {
        "NONE"
    }

    fn acquire(&mut self, req: RequestId, _kind: RequestKind, ctx: &mut Effects<()>) {
        let me = self.me;
        match self.primary.difference(&self.used).first() {
            Some(ch) => {
                self.used.insert(ch);
                ctx.count("acq_local");
                ctx.sample("attempt_ticks", 0.0);
                ctx.trace_with(|| TraceEvent::Acquired {
                    cell: me,
                    ch: Some(ch),
                    via: AcqPath::Local,
                    borrowed: false,
                });
                ctx.grant(req, ch);
            }
            None => {
                ctx.count("acq_failed");
                ctx.trace_with(|| TraceEvent::Acquired {
                    cell: me,
                    ch: None,
                    via: AcqPath::Local,
                    borrowed: false,
                });
                ctx.reject(req);
            }
        }
    }

    fn release(&mut self, ch: Channel, ctx: &mut Effects<()>) {
        let was = self.used.remove(ch);
        debug_assert!(was, "released channel {ch} not in use");
        let me = self.me;
        ctx.trace_with(|| TraceEvent::Released {
            cell: me,
            ch,
            borrowed: false,
        });
    }

    fn message(&mut self, _from: CellId, _msg: (), _ctx: &mut Effects<()>) {
        unreachable!("fixed allocation exchanges no messages");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_simkit::engine::run_protocol;
    use adca_simkit::{Arrival, SimConfig};
    use std::sync::Arc;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::default_paper(6, 6))
    }

    #[test]
    fn serves_up_to_primary_capacity() {
        let t = topo();
        let arrivals: Vec<Arrival> = (0..10)
            .map(|i| Arrival::new(i, CellId(14), 10_000))
            .collect();
        let r = run_protocol(t, SimConfig::default(), FixedNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 10);
        assert_eq!(r.dropped_new, 0);
        assert_eq!(r.messages_total, 0);
        assert_eq!(r.acq_latency.stats().max(), Some(0.0));
    }

    #[test]
    fn drops_excess_even_with_idle_region() {
        // The motivating failure: 15 calls in one cell, neighbors idle,
        // fixed still drops 5.
        let t = topo();
        let arrivals: Vec<Arrival> = (0..15)
            .map(|i| Arrival::new(i, CellId(14), 10_000))
            .collect();
        let r = run_protocol(t, SimConfig::default(), FixedNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 10);
        assert_eq!(r.dropped_new, 5);
    }

    #[test]
    fn releases_recycle_channels() {
        let t = topo();
        let arrivals = vec![
            Arrival::new(0, CellId(0), 100),
            Arrival::new(500, CellId(0), 100),
        ];
        let r = run_protocol(t, SimConfig::default(), FixedNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.completed_calls, 2);
    }
}
