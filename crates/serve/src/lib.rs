//! The channel-allocation *serving* layer.
//!
//! Everything below `adca-serve` evaluates the paper's protocols inside
//! a simulator. This crate turns them into a **service**: subscribers
//! submit [`ChannelRequest`]s through the transport-agnostic
//! [`AllocService`] trait (request / release / confirm / indication —
//! the MCPS/MLME request-confirm idiom of real radio MACs) and the MSS
//! network answers them. Two backends implement the same contract
//! here, and `adca-wire`'s `WireClient` implements it for a service on
//! the other end of a socket:
//!
//! * [`DesAllocService`] — the deterministic backend. Requests are
//!   buffered and replayed through the DES engine at
//!   [`AllocService::quiesce`]; the resulting [`SimReport`] is
//!   bit-identical to `Scenario::run` on the same workload and seed, so
//!   every service-level test is reproducible.
//! * [`ProductionAllocService`] — the live backend. Each cell's
//!   protocol node is a task on a bounded-mailbox executor
//!   ([`production`]); confirms arrive at wall-clock time, grants are
//!   audited by the engine's [`adca_simkit::Ground`] under the ticket
//!   ledger's lock, and full mailboxes
//!   exert real backpressure on the callers outside the executor — the
//!   subscriber calling [`AllocService::request_channel`] among them.
//!
//! [`SimReport`]: adca_simkit::SimReport

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod des;
mod mailbox;
pub mod production;
pub mod service;

pub use des::DesAllocService;
pub use production::{ProductionAllocService, ProductionConfig};
pub use service::{
    AllocService, ChannelRequest, Confirm, Indication, ServeError, ServeStats, Ticket,
};

#[cfg(test)]
mod tests {
    use super::*;
    use adca_baselines::FixedNode;
    use adca_core::{AdaptiveConfig, AdaptiveNode};
    use adca_hexgrid::{CellId, Topology};
    use adca_simkit::SimConfig;
    use std::sync::Arc;
    use std::time::Duration;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::default_paper(4, 4))
    }

    #[test]
    fn des_backend_round_trip() {
        let topo = topo();
        let mut svc = DesAllocService::new(topo.clone(), SimConfig::default(), FixedNode::new);
        let mut tickets = Vec::new();
        for i in 0..topo.num_cells() {
            let t = svc
                .request_channel(ChannelRequest::new_call(
                    i as u64 * 10,
                    CellId(i as u32),
                    100,
                ))
                .unwrap();
            tickets.push(t);
        }
        assert!(svc.quiesce(Duration::from_secs(5)));
        let mut confirmed = Vec::new();
        while let Some(c) = svc.confirm() {
            assert!(c.is_granted(), "fixed allocation at load 1 call/cell");
            confirmed.push(c.ticket());
        }
        confirmed.sort();
        assert_eq!(confirmed, tickets);
        // Every granted call ends by quiescence.
        let mut released = 0;
        while svc.indication().is_some() {
            released += 1;
        }
        assert_eq!(released, tickets.len());
        let stats = svc.stats();
        assert_eq!(stats.granted, tickets.len() as u64);
        assert!(stats.violations.is_empty());
    }

    /// A wait with no limit is a wait, not a panic on the deadline sum:
    /// with an answer queued, both calls return at once.
    #[test]
    fn des_backend_waits_without_a_limit() {
        let mut svc = DesAllocService::new(topo(), SimConfig::default(), FixedNode::new);
        let t = svc
            .request_channel(ChannelRequest::new_call(0, CellId(0), 100))
            .unwrap();
        assert!(svc.quiesce(Duration::MAX));
        let c = svc.recv_confirm(Duration::MAX).expect("queued");
        assert!(c.is_granted() && c.ticket() == t);
    }

    #[test]
    fn production_backend_serves_fixed() {
        let topo = topo();
        let cfg = ProductionConfig {
            workers: 2,
            ..Default::default()
        };
        let mut svc = ProductionAllocService::new(topo.clone(), cfg, FixedNode::new);
        let mut pending = Vec::new();
        for i in 0..topo.num_cells() {
            pending.push(
                svc.request_channel(ChannelRequest::new_call(0, CellId(i as u32), 50))
                    .unwrap(),
            );
        }
        assert!(svc.quiesce(Duration::from_secs(10)), "all confirms arrive");
        let mut seen = 0;
        while let Some(c) = svc.confirm() {
            assert!(c.is_granted());
            seen += 1;
        }
        assert_eq!(seen, pending.len());
        let stats = svc.stats();
        assert_eq!(stats.offered, pending.len() as u64);
        assert_eq!(stats.granted, pending.len() as u64);
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    }

    #[test]
    fn production_backend_adaptive_under_load() {
        let topo = topo();
        let cfg = ProductionConfig {
            workers: 4,
            ns_per_tick: 50,
            ..Default::default()
        };
        let ac = AdaptiveConfig::default();
        let mut svc = ProductionAllocService::new(topo.clone(), cfg, move |c, t: &_| {
            AdaptiveNode::new(c, t, ac.clone())
        });
        // 12 requests a cell against 10 primaries, all submitted up front.
        let offered = 192;
        for s in 0..offered {
            svc.request_channel(ChannelRequest::new_call(
                0,
                CellId((s % topo.num_cells()) as u32),
                100,
            ))
            .unwrap();
        }
        assert!(svc.quiesce(Duration::from_secs(30)), "run drained");
        let (mut granted, mut rejected) = (0, 0);
        while let Some(c) = svc.confirm() {
            if c.is_granted() {
                granted += 1;
            } else {
                rejected += 1;
            }
        }
        assert_eq!(granted + rejected, offered, "each resolved once");
        assert!(granted > 0, "some calls must be served");
        let stats = svc.stats();
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    }

    #[test]
    fn des_backend_maps_handoffs_onto_hop_plans() {
        let topo = topo();
        let mut svc = DesAllocService::new(topo.clone(), SimConfig::default(), FixedNode::new);
        // Call in cell 0, hold 100; hop to the neighbor at t = 50.
        let call = svc
            .request_channel(ChannelRequest::new_call(0, CellId(0), 100))
            .unwrap();
        let hop = svc
            .request_channel(ChannelRequest::handoff(50, call, CellId(1), 0))
            .unwrap();
        // A hop after the call has ended: the engine skips it, the
        // service surfaces a Blocked rejection.
        let late = svc
            .request_channel(ChannelRequest::handoff(500, hop, CellId(2), 0))
            .unwrap();
        // Validation errors: missing source, non-increasing hop time.
        let sourceless = ChannelRequest {
            handoff_of: None,
            ..ChannelRequest::handoff(60, call, CellId(3), 0)
        };
        assert!(matches!(
            svc.request_channel(sourceless),
            Err(ServeError::BadHandoff(_))
        ));
        assert!(matches!(
            svc.request_channel(ChannelRequest::handoff(50, call, CellId(3), 0)),
            Err(ServeError::BadHandoff(_))
        ));
        assert!(svc.quiesce(Duration::from_secs(5)));
        let mut confirms = Vec::new();
        while let Some(c) = svc.confirm() {
            confirms.push(c);
        }
        assert!(confirms[0].is_granted() && confirms[0].ticket() == call);
        assert!(confirms[1].is_granted() && confirms[1].ticket() == hop);
        assert!(
            matches!(confirms[2], Confirm::Rejected { ticket, .. } if ticket == late),
            "skipped hop surfaces as a rejection: {:?}",
            confirms[2]
        );
        // Break-before-make: the call's channel returns at the hop, the
        // hop's channel at the call's end.
        let mut released = Vec::new();
        while let Some(Indication::Released { ticket, .. }) = svc.indication() {
            released.push(ticket);
        }
        assert_eq!(released, vec![call, hop]);
        let stats = svc.stats();
        assert_eq!(stats.offered, 3);
        assert_eq!(stats.granted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1, "one call completed, across two cells");
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    }

    #[test]
    fn production_handoff_migrates_and_failed_handoff_drops() {
        let topo = topo();
        let mut svc = ProductionAllocService::new(
            topo.clone(),
            ProductionConfig {
                workers: 2,
                // Day-long ticks: nothing auto-releases during the test.
                ns_per_tick: 1_000_000_000,
                ..Default::default()
            },
            FixedNode::new,
        );
        // A call in cell 1, then migrate it to cell 2.
        let src = svc
            .request_channel(ChannelRequest::new_call(0, CellId(1), 86_400))
            .unwrap();
        assert!(svc.quiesce(Duration::from_secs(10)));
        assert!(svc.confirm().expect("granted").is_granted());
        let hop = svc
            .request_channel(ChannelRequest::handoff(0, src, CellId(2), 86_400))
            .unwrap();
        assert!(svc.quiesce(Duration::from_secs(10)));
        match svc.confirm().expect("handoff resolved") {
            Confirm::Granted { ticket, cell, .. } => {
                assert_eq!(ticket, hop);
                assert_eq!(cell, CellId(2));
            }
            other => panic!("handoff into a free cell must be granted: {other:?}"),
        }
        // Break-before-make: the source channel was released at submit.
        let Indication::Released { ticket, cell, .. } = svc.indication().expect("source released");
        assert_eq!(ticket, src);
        assert_eq!(cell, CellId(1));
        // The source ticket is spent: a second handoff of it is refused.
        assert!(matches!(
            svc.request_channel(ChannelRequest::handoff(0, src, CellId(3), 10)),
            Err(ServeError::BadHandoff(_))
        ));
        // Saturate cell 0's fixed primaries, then hand the migrated call
        // into the full cell: the handoff is rejected and the call drops
        // (its channel was already returned at submit).
        let spectrum = topo.spectrum().len() as usize;
        for _ in 0..spectrum {
            svc.request_channel(ChannelRequest::new_call(0, CellId(0), 86_400))
                .unwrap();
        }
        assert!(svc.quiesce(Duration::from_secs(20)));
        let mut cell0_rejected = false;
        while let Some(c) = svc.confirm() {
            cell0_rejected |= !c.is_granted();
        }
        assert!(cell0_rejected, "cell 0 must be saturated");
        let doomed = svc
            .request_channel(ChannelRequest::handoff(0, hop, CellId(0), 86_400))
            .unwrap();
        assert!(svc.quiesce(Duration::from_secs(10)));
        match svc.confirm().expect("handoff resolved") {
            Confirm::Rejected { ticket, .. } => assert_eq!(ticket, doomed),
            other => panic!("handoff into a full fixed cell must fail: {other:?}"),
        }
        let stats = svc.stats();
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        // Migrations are not completions.
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn production_clones_share_one_executor() {
        let topo = topo();
        let mut a = ProductionAllocService::new(
            topo.clone(),
            ProductionConfig {
                workers: 2,
                ..Default::default()
            },
            FixedNode::new,
        );
        let mut b = a.clone();
        a.request_channel(ChannelRequest::new_call(0, CellId(0), 10))
            .unwrap();
        b.request_channel(ChannelRequest::new_call(0, CellId(1), 10))
            .unwrap();
        assert!(b.quiesce(Duration::from_secs(10)));
        // Both handles observe the same shared stats.
        assert_eq!(a.stats().offered, 2);
        assert_eq!(b.stats().granted, 2);
        drop(a);
        // The executor survives the first handle: `b` still serves.
        b.request_channel(ChannelRequest::new_call(0, CellId(2), 10))
            .unwrap();
        assert!(b.quiesce(Duration::from_secs(10)));
        assert_eq!(b.stats().granted, 3);
    }

    #[test]
    fn production_release_truncates_hold() {
        let topo = topo();
        let mut svc = ProductionAllocService::new(
            topo.clone(),
            ProductionConfig {
                workers: 2,
                // A day-long hold: only an explicit release ends it.
                ns_per_tick: 1_000_000_000,
                ..Default::default()
            },
            FixedNode::new,
        );
        let t = svc
            .request_channel(ChannelRequest::new_call(0, CellId(0), 86_400))
            .unwrap();
        assert!(svc.quiesce(Duration::from_secs(10)));
        assert!(svc.confirm().expect("confirmed").is_granted());
        svc.release(t).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(Indication::Released { ticket, .. }) = svc.indication() {
                assert_eq!(ticket, t);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "release must end the call promptly"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(svc.stats().completed, 1);
    }
}
