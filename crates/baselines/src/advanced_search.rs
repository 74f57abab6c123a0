//! The advanced search scheme (Prakash, Shivaratri & Singhal, PODC '95),
//! as characterized in Section 6 of the paper.
//!
//! Each cell owns a dynamic **allocated** set of channels (initially its
//! reuse-pattern primaries) and serves calls from it with *zero* messages;
//! a cell keeps a channel once allocated ("at transient high loads a cell
//! can satisfy requests from its allocated set"). When the allocated set
//! is exhausted the cell queries its interference region for everyone's
//! allocated/busy sets (2N messages) and then either
//!
//! 1. claims a channel allocated to *nobody* in the region, or
//! 2. asks the owner of an idle allocated channel to hand it over with
//!    the TRANSFER / AGREE / KEEP exchange the paper quotes — possibly
//!    several rounds when owners refuse, which is exactly the overhead
//!    the paper's Section 6 criticizes.
//!
//! Concurrent searches are serialized by Lamport-timestamp deferral as in
//! basic search. Releases are silent: the channel stays allocated to the
//! cell. The key invariants (audited end to end by the engine) are
//! `Use ⊆ Allocated` at every cell and region-disjointness of allocated
//! sets, which transfers and claims preserve.

use adca_core::{CallQueue, LamportClock, RegionMask, Timestamp};
use adca_hexgrid::{CellId, Channel, ChannelSet, Spectrum, Topology};
use adca_simkit::trace::{AcqPath, RoundKind, TraceEvent};
use adca_simkit::{Effects, RequestId, RequestKind, RunInput, StateMachine};
use std::collections::VecDeque;
use std::sync::Arc;

/// Wire messages of the advanced search scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(clippy::large_enum_variant)]
pub enum AdvancedSearchMsg {
    /// Third leg of the transfer handshake (the RELEASE of the paper's
    /// TRANSFER/AGREE/KEEP-or-RELEASE exchange): `take = true` finalizes
    /// the hand-over, `take = false` returns an AGREEd channel to its
    /// owner after a failed (multi-owner) group. Until this message
    /// arrives, the owner keeps reporting the channel as allocated and
    /// busy — without that, the channel is invisible to third parties
    /// mid-flight and can be double-claimed (a race caught by the
    /// engine's interference audit during development).
    Confirm {
        /// The channel in hand-over.
        ch: Channel,
        /// Whether the requester keeps it.
        take: bool,
    },
    /// Ask for the responder's allocated and busy sets.
    Request {
        /// Requester's timestamp.
        ts: Timestamp,
    },
    /// The responder's sets.
    Response {
        /// Channels allocated to the responder.
        allocated: ChannelSet,
        /// Channels the responder currently uses (`⊆ allocated`).
        used: ChannelSet,
    },
    /// Ask the owner to hand over an idle allocated channel.
    Transfer {
        /// The channel to transfer.
        ch: Channel,
    },
    /// Ownership handed over.
    Agree {
        /// The channel.
        ch: Channel,
    },
    /// Owner refuses (channel busy or already gone).
    Keep {
        /// The channel.
        ch: Channel,
    },
}

/// The post-collect decision work list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SearchPhase {
    Collect {
        remaining: RegionMask,
        /// Union of region allocated sets.
        alloc_union: ChannelSet,
        /// Union of region used sets.
        used_union: ChannelSet,
        /// Per-responder `(owner, allocated − used)` idle allocations.
        idle_by_owner: Vec<(CellId, ChannelSet)>,
    },
    Transfer {
        /// The channel currently being transferred.
        ch: Channel,
        /// Owners that have not answered yet.
        remaining: RegionMask,
        /// Owners that sent AGREE (must be repaid with RELEASE if the
        /// group fails).
        agreed: Vec<CellId>,
        /// Any KEEP received: the group fails.
        kept: bool,
        /// Remaining candidate channels with their owner groups.
        candidates: VecDeque<(Channel, Vec<CellId>)>,
    },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Search {
    req: RequestId,
    ts: Timestamp,
    started: adca_simkit::SimTime,
    phase: SearchPhase,
}

/// A mobile service station running advanced search.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdvancedSearchNode {
    me: CellId,
    spectrum: RunInput<Spectrum>,
    /// The initial (reuse-pattern) allotment — channels outside it are
    /// flagged as borrowed in trace events.
    initial: RunInput<ChannelSet>,
    /// `IN_i`, sorted: a member's index is its [`RegionMask`] slot.
    region: RunInput<Arc<[CellId]>>,
    /// Channels this cell owns.
    allocated: ChannelSet,
    /// Channels in use (`⊆ allocated`).
    used: ChannelSet,
    /// Channels AGREEd away but not yet confirmed; reported as
    /// allocated-and-busy to keep third parties off them mid-transfer.
    lent: ChannelSet,
    clock: LamportClock,
    call_q: CallQueue,
    search: Option<Search>,
    deferred: VecDeque<CellId>,
}

impl AdvancedSearchNode {
    /// Creates the node for `cell`; the initial allocation is the reuse
    /// pattern's primary set.
    pub fn new(cell: CellId, topo: &Topology) -> Self {
        RegionMask::assert_fits(cell, topo.region(cell).len());
        AdvancedSearchNode {
            me: cell,
            spectrum: RunInput::new(topo.spectrum()),
            initial: RunInput::new(topo.primary(cell).clone()),
            region: RunInput::new(topo.region(cell).into()),
            allocated: topo.primary(cell).clone(),
            used: topo.spectrum().empty_set(),
            lent: topo.spectrum().empty_set(),
            clock: LamportClock::new(cell),
            call_q: CallQueue::new(),
            search: None,
            deferred: VecDeque::new(),
        }
    }

    /// Channels currently allocated to this cell.
    pub fn allocated(&self) -> &ChannelSet {
        &self.allocated
    }

    /// Channels currently in use.
    pub fn used(&self) -> &ChannelSet {
        &self.used
    }

    /// The sets reported to searchers: lent channels stay visible as
    /// allocated **and** busy until the transfer handshake resolves.
    fn response_msg(&self) -> AdvancedSearchMsg {
        AdvancedSearchMsg::Response {
            allocated: self.allocated.union(&self.lent),
            used: self.used.union(&self.lent),
        }
    }

    fn try_start_next(&mut self, ctx: &mut Effects<AdvancedSearchMsg>) {
        if self.search.is_some() {
            return;
        }
        let Some((req, _)) = self.call_q.front() else {
            return;
        };
        // Serve from the allocated set with zero messages when possible.
        if let Some(ch) = self.allocated.difference(&self.used).first() {
            self.used.insert(ch);
            ctx.count("acq_local");
            ctx.sample("attempt_ticks", 0.0);
            let me = self.me;
            let borrowed = !self.initial.contains(ch);
            ctx.trace_with(|| TraceEvent::Acquired {
                cell: me,
                ch: Some(ch),
                via: AcqPath::Local,
                borrowed,
            });
            ctx.grant(req, ch);
            self.call_q.pop();
            self.try_start_next(ctx);
            return;
        }
        // Query the region.
        let ts = self.clock.tick();
        let remaining = RegionMask::full(self.region.len());
        ctx.count("searches_started");
        let me = self.me;
        ctx.trace_with(|| TraceEvent::RoundStart {
            cell: me,
            kind: RoundKind::Search,
        });
        self.search = Some(Search {
            req,
            ts,
            started: ctx.now(),
            phase: SearchPhase::Collect {
                remaining,
                alloc_union: self.spectrum.empty_set(),
                used_union: self.spectrum.empty_set(),
                idle_by_owner: Vec::new(),
            },
        });
        if self.region.is_empty() {
            self.conclude_collect(ctx);
            return;
        }
        for &j in self.region.iter() {
            ctx.send(j, AdvancedSearchMsg::Request { ts });
        }
    }

    fn conclude_collect(&mut self, ctx: &mut Effects<AdvancedSearchMsg>) {
        enum Decision {
            Claim(Channel),
            Transfer(VecDeque<(Channel, Vec<CellId>)>),
            Fail,
        }
        let (req, decision) = {
            let search = self.search.as_ref().expect("search in flight");
            let SearchPhase::Collect {
                alloc_union,
                used_union,
                idle_by_owner,
                ..
            } = &search.phase
            else {
                unreachable!("conclude_collect outside collect phase");
            };
            // 1. A channel allocated to nobody in the region (nor to us)?
            let unallocated = alloc_union.union(&self.allocated).complement();
            let decision = if let Some(ch) = unallocated.first() {
                Decision::Claim(ch)
            } else {
                // 2. Transfer candidates: channels idle at EVERY owner in
                // the region (one busy owner disqualifies the channel). A
                // multi-owned channel needs AGREE from all of its
                // (mutually distant) owners before it may move here.
                let mut owners_of: Vec<Vec<CellId>> =
                    vec![Vec::new(); self.spectrum.len() as usize];
                for (owner, idle) in idle_by_owner {
                    for ch in idle.iter() {
                        owners_of[ch.index()].push(*owner);
                    }
                }
                let candidates: VecDeque<(Channel, Vec<CellId>)> = alloc_union
                    .difference(used_union)
                    .difference(&self.allocated)
                    .iter()
                    .map(|ch| (ch, owners_of[ch.index()].clone()))
                    .filter(|(_, owners)| !owners.is_empty())
                    .collect();
                if candidates.is_empty() {
                    Decision::Fail
                } else {
                    Decision::Transfer(candidates)
                }
            };
            (search.req, decision)
        };
        match decision {
            Decision::Claim(ch) => {
                self.allocated.insert(ch);
                self.used.insert(ch);
                ctx.count("acq_claim");
                self.finish(Some(ch), req, ctx);
            }
            Decision::Transfer(candidates) => self.next_transfer(candidates, req, ctx),
            Decision::Fail => self.finish(None, req, ctx),
        }
    }

    /// Starts the next transfer group, or fails the request if none left.
    fn next_transfer(
        &mut self,
        mut candidates: VecDeque<(Channel, Vec<CellId>)>,
        req: RequestId,
        ctx: &mut Effects<AdvancedSearchMsg>,
    ) {
        let Some((ch, owners)) = candidates.pop_front() else {
            self.finish(None, req, ctx);
            return;
        };
        ctx.count("transfer_attempts");
        // One representative borrow-attempt event per transfer group
        // (multi-owner groups name the first owner as the lender).
        let me = self.me;
        let lender = owners[0];
        ctx.trace_with(|| TraceEvent::BorrowAttempt {
            cell: me,
            lender,
            ch,
            attempt: 1,
        });
        let mut remaining = RegionMask::default();
        for &owner in &owners {
            ctx.send(owner, AdvancedSearchMsg::Transfer { ch });
            remaining.insert(
                self.region
                    .binary_search(&owner)
                    .expect("transfer owners answered the collect round"),
            );
        }
        self.search.as_mut().expect("search in flight").phase = SearchPhase::Transfer {
            ch,
            remaining,
            agreed: Vec::new(),
            kept: false,
            candidates,
        };
    }

    /// One owner of the current transfer group answered.
    fn on_transfer_reply(
        &mut self,
        from: CellId,
        ch: Channel,
        kept_reply: bool,
        ctx: &mut Effects<AdvancedSearchMsg>,
    ) {
        let from_slot = self.region.binary_search(&from);
        let conclude = {
            let Some(search) = self.search.as_mut() else {
                ctx.count("stale_responses");
                // Never strand ownership: a stray AGREE is repaid.
                if !kept_reply {
                    ctx.send(from, AdvancedSearchMsg::Confirm { ch, take: false });
                }
                return;
            };
            let SearchPhase::Transfer {
                ch: cur,
                remaining,
                agreed,
                kept,
                ..
            } = &mut search.phase
            else {
                ctx.count("stale_responses");
                if !kept_reply {
                    ctx.send(from, AdvancedSearchMsg::Confirm { ch, take: false });
                }
                return;
            };
            if *cur != ch {
                ctx.count("stale_responses");
                if !kept_reply {
                    ctx.send(from, AdvancedSearchMsg::Confirm { ch, take: false });
                }
                return;
            }
            if from_slot.is_ok_and(|s| remaining.remove(s)) {
                if kept_reply {
                    *kept = true;
                } else {
                    agreed.push(from);
                }
            }
            remaining.is_empty()
        };
        if conclude {
            self.conclude_transfer(ctx);
        }
    }

    /// All owners of the current transfer group answered.
    fn conclude_transfer(&mut self, ctx: &mut Effects<AdvancedSearchMsg>) {
        let (req, ch, agreed, kept, candidates) = {
            let search = self.search.as_mut().expect("search in flight");
            let SearchPhase::Transfer {
                ch,
                agreed,
                kept,
                candidates,
                ..
            } = &mut search.phase
            else {
                unreachable!("conclude_transfer outside transfer phase");
            };
            (
                search.req,
                *ch,
                std::mem::take(agreed),
                *kept,
                std::mem::take(candidates),
            )
        };
        if !kept {
            // Finalize the hand-over with every owner, then use it.
            for owner in agreed {
                ctx.send(owner, AdvancedSearchMsg::Confirm { ch, take: true });
            }
            self.allocated.insert(ch);
            self.used.insert(ch);
            ctx.count("acq_transfer");
            self.finish(Some(ch), req, ctx);
            return;
        }
        // Give the channel back to everyone who agreed, then try the next
        // candidate.
        for owner in agreed {
            ctx.send(owner, AdvancedSearchMsg::Confirm { ch, take: false });
        }
        self.next_transfer(candidates, req, ctx);
    }

    /// Resolve the head request and answer everyone we deferred.
    fn finish(
        &mut self,
        ch: Option<Channel>,
        req: RequestId,
        ctx: &mut Effects<AdvancedSearchMsg>,
    ) {
        if let Some(search) = self.search.take() {
            ctx.sample(
                "attempt_ticks",
                ctx.now().saturating_since(search.started) as f64,
            );
        }
        let me = self.me;
        {
            let borrowed = ch.map(|r| !self.initial.contains(r)).unwrap_or(false);
            ctx.trace_with(|| TraceEvent::Acquired {
                cell: me,
                ch,
                via: AcqPath::Search,
                borrowed,
            });
        }
        match ch {
            Some(ch) => ctx.grant(req, ch),
            None => {
                ctx.count("acq_failed");
                ctx.reject(req);
            }
        }
        let drained = self.deferred.len() as u32;
        if drained > 0 {
            ctx.trace_with(|| TraceEvent::DeferDrain { cell: me, drained });
        }
        while let Some(j) = self.deferred.pop_front() {
            let msg = self.response_msg();
            ctx.send(j, msg);
        }
        self.call_q.pop();
        self.try_start_next(ctx);
    }
}

impl StateMachine for AdvancedSearchNode {
    type Msg = AdvancedSearchMsg;

    fn msg_kind(msg: &AdvancedSearchMsg) -> &'static str {
        match msg {
            AdvancedSearchMsg::Request { .. } => "REQUEST",
            AdvancedSearchMsg::Response { .. } => "RESPONSE",
            AdvancedSearchMsg::Transfer { .. } => "TRANSFER",
            AdvancedSearchMsg::Agree { .. } => "AGREE",
            AdvancedSearchMsg::Keep { .. } => "KEEP",
            AdvancedSearchMsg::Confirm { .. } => "CONFIRM",
        }
    }

    fn acquire(&mut self, req: RequestId, kind: RequestKind, ctx: &mut Effects<Self::Msg>) {
        self.call_q.push(req, kind);
        self.try_start_next(ctx);
    }

    fn release(&mut self, ch: Channel, ctx: &mut Effects<Self::Msg>) {
        // Silent: the channel stays allocated here (the scheme's load
        // adaptation — and the hoarding Section 6 criticizes).
        let was = self.used.remove(ch);
        debug_assert!(was, "released channel {ch} not in use");
        let me = self.me;
        let borrowed = !self.initial.contains(ch);
        ctx.trace_with(|| TraceEvent::Released {
            cell: me,
            ch,
            borrowed,
        });
    }

    fn message(&mut self, from: CellId, msg: AdvancedSearchMsg, ctx: &mut Effects<Self::Msg>) {
        match msg {
            AdvancedSearchMsg::Request { ts } => {
                self.clock.observe(ts);
                let defer = self.search.as_ref().is_some_and(|s| s.ts < ts);
                if defer {
                    ctx.count("deferred_search_reqs");
                    self.deferred.push_back(from);
                    let me = self.me;
                    ctx.trace_with(|| TraceEvent::Defer {
                        cell: me,
                        requester: from,
                        kind: RoundKind::Search,
                    });
                } else {
                    let msg = self.response_msg();
                    ctx.send(from, msg);
                }
            }
            AdvancedSearchMsg::Response { allocated, used } => {
                let conclude = {
                    let Some(search) = self.search.as_mut() else {
                        ctx.count("stale_responses");
                        return;
                    };
                    let SearchPhase::Collect {
                        remaining,
                        alloc_union,
                        used_union,
                        idle_by_owner,
                    } = &mut search.phase
                    else {
                        ctx.count("stale_responses");
                        return;
                    };
                    let from_slot = self.region.binary_search(&from);
                    if !from_slot.is_ok_and(|s| remaining.remove(s)) {
                        ctx.count("stale_responses");
                        return;
                    }
                    alloc_union.union_with(&allocated);
                    used_union.union_with(&used);
                    idle_by_owner.push((from, allocated.difference(&used)));
                    remaining.is_empty()
                };
                if conclude {
                    self.conclude_collect(ctx);
                }
            }
            AdvancedSearchMsg::Transfer { ch } => {
                if self.allocated.contains(ch) && !self.used.contains(ch) {
                    self.allocated.remove(ch);
                    self.lent.insert(ch);
                    ctx.count("transfers_agreed");
                    ctx.send(from, AdvancedSearchMsg::Agree { ch });
                } else {
                    ctx.count("transfers_kept");
                    ctx.send(from, AdvancedSearchMsg::Keep { ch });
                }
            }
            AdvancedSearchMsg::Confirm { ch, take } => {
                let was_lent = self.lent.remove(ch);
                debug_assert!(was_lent, "CONFIRM for a channel not lent");
                if !take {
                    // Failed group: the channel comes home.
                    self.allocated.insert(ch);
                }
            }
            AdvancedSearchMsg::Agree { ch } => self.on_transfer_reply(from, ch, false, ctx),
            AdvancedSearchMsg::Keep { ch } => self.on_transfer_reply(from, ch, true, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_simkit::engine::run_protocol;
    use adca_simkit::{Arrival, LatencyModel, SimConfig};
    use std::sync::Arc;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::default_paper(6, 6))
    }

    fn cfg() -> SimConfig {
        SimConfig {
            latency: LatencyModel::Fixed(100),
            ..Default::default()
        }
    }

    #[test]
    fn allocated_set_serves_silently() {
        let t = topo();
        let arrivals: Vec<Arrival> = (0..10)
            .map(|i| Arrival::new(i, CellId(14), 1_000))
            .collect();
        let r = run_protocol(t, cfg(), AdvancedSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 10);
        assert_eq!(r.messages_total, 0, "allocated-set hits are silent");
        assert_eq!(r.acq_latency.stats().max(), Some(0.0));
    }

    #[test]
    fn claims_unallocated_channels_beyond_primaries() {
        // 70 channels, 19 cells in region+self have 10 each allocated at
        // start within the region... the center's region covers all 7
        // colors, so initially NO channel is unallocated region-wide and
        // the 11th call must go through a TRANSFER.
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        let arrivals: Vec<Arrival> = (0..11).map(|i| Arrival::new(i, center, 200_000)).collect();
        let r = run_protocol(t, cfg(), AdvancedSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 11);
        assert_eq!(r.custom.get("acq_transfer") + r.custom.get("acq_claim"), 1);
    }

    #[test]
    fn channel_hoarding_persists_after_release() {
        // A burst forces the hot cell to expand its allocation; after the
        // burst its calls are again served silently from the bigger set.
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        let mut arrivals: Vec<Arrival> = (0..15).map(|i| Arrival::new(i, center, 5_000)).collect();
        // Well after the burst ended: 12 more calls.
        for i in 0..12 {
            arrivals.push(Arrival::new(100_000 + i, center, 5_000));
        }
        let r = run_protocol(t, cfg(), AdvancedSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.dropped_new, 0);
        // The second wave of 12 > 10 primaries ran entirely from the
        // hoarded allocation: no new searches in that window would show
        // as extra transfer/claim acquisitions beyond the first burst's.
        let expansions = r.custom.get("acq_transfer") + r.custom.get("acq_claim");
        assert!((2..=5).contains(&expansions), "expansions = {expansions}");
    }

    #[test]
    fn transfer_refused_when_owner_started_using() {
        // Saturate a small grid so some transfers race owners' own calls;
        // KEEPs must be handled (retry or drop) without deadlock.
        let t = Arc::new(Topology::default_paper(5, 5));
        let mut arrivals = Vec::new();
        for c in 0..25u32 {
            for i in 0..11 {
                arrivals.push(Arrival::new(i * 5, CellId(c), 300_000));
            }
        }
        let r = run_protocol(t, cfg(), AdvancedSearchNode::new, arrivals);
        r.assert_clean();
        assert!(r.granted >= 240, "granted {}", r.granted);
        assert!(r.custom.get("searches_started") > 0);
        // Under full saturation most allocated channels are busy, so
        // searches end in claims (boundary cells with missing colors),
        // transfers, or honest failures — never deadlock.
        assert!(
            r.custom.get("acq_claim")
                + r.custom.get("transfer_attempts")
                + r.custom.get("acq_failed")
                > 0
        );
    }

    #[test]
    fn keep_refusal_is_survivable() {
        // A saturates and hoards; then B (same region) saturates and must
        // transfer from owners whose channels A may race for. Whatever
        // mix of AGREE/KEEP results, everything stays safe and live.
        let t = topo();
        let a = t.grid().at_offset(2, 3).unwrap();
        let b = t.grid().at_offset(3, 3).unwrap();
        let mut arrivals = Vec::new();
        for i in 0..13 {
            arrivals.push(Arrival::new(i, a, 400_000));
            arrivals.push(Arrival::new(i, b, 400_000));
        }
        let r = run_protocol(t, cfg(), AdvancedSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 26, "region has idle channels to move");
        assert!(r.custom.get("transfers_agreed") > 0);
    }

    #[test]
    fn concurrent_searches_safe() {
        let t = topo();
        let a = t.grid().at_offset(2, 2).unwrap();
        let b = t.grid().at_offset(3, 2).unwrap();
        let mut arrivals = Vec::new();
        for i in 0..12 {
            arrivals.push(Arrival::new(i, a, 100_000));
            arrivals.push(Arrival::new(i, b, 100_000));
        }
        let r = run_protocol(t, cfg(), AdvancedSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted + r.dropped_new, 24);
        assert!(r.granted >= 22, "granted {}", r.granted);
    }
}
