//! The basic search scheme (Dong & Lai, ICDCS '97), Section 2.2 of the
//! paper.
//!
//! "In the basic search scheme a MSS needing a channel searches its
//! interference region for an available channel … by sending a request
//! message to every MSS in the interference region. Each MSS responds by
//! sending its set of used channels. … The search procedure ensures that
//! no two MSS in each other's interference regions simultaneously select
//! the same channel by using timestamps with the request messages. An MSS
//! which is currently searching for a channel defers the response to any
//! request message with a higher timestamp than its request message until
//! it has completed its search."
//!
//! Cost per acquisition: `2N` messages, `(N_search + 1)·T` latency
//! (Table 1).

use adca_core::{CallQueue, LamportClock, RegionMask, Timestamp};
use adca_hexgrid::{CellId, Channel, ChannelSet, Spectrum, Topology};
use adca_simkit::sm::{Effects, StateMachine};
use adca_simkit::trace::{AcqPath, RoundKind, TraceEvent};
use adca_simkit::{DropCause, RequestId, RequestKind};
use std::collections::VecDeque;

/// With hardening on: resends (same timestamp, outstanding responders
/// only) before the search gives up and rejects the call.
pub const MAX_RETRIES: u32 = 3;

/// Timeout/retry hardening knobs for the basic search scheme.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BasicSearchConfig {
    /// Response deadline in ticks. `None` (default) arms no timers —
    /// bit-identical to the unhardened scheme. Pick ≥ `2T` so an
    /// undisturbed round trip never times out. A search is resent at
    /// most [`MAX_RETRIES`] times.
    pub retry_ticks: Option<u64>,
}

/// Wire messages of the basic search scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BasicSearchMsg {
    /// Search request with the requester's timestamp.
    Request {
        /// Requester's timestamp.
        ts: Timestamp,
    },
    /// The responder's used-channel set.
    Response {
        /// `Use_j` of the responder.
        used: ChannelSet,
        /// Echo of the request's timestamp. With hardening on, the
        /// searcher only credits responses echoing its live search's
        /// timestamp: a late answer to an abandoned (retry-exhausted)
        /// search carries a snapshot that may predate a concurrent
        /// acquisition, and crediting it to the next search lets two
        /// cells pick the same channel.
        ts: Timestamp,
    },
    /// Defer acknowledgement (hardening extension, not in the
    /// published scheme): sent in place of the response when the
    /// request is deferred behind the responder's own older search.
    /// Deferral chains serialize timestamp-ordered searches and
    /// legitimately outlast any fixed deadline, so without this signal
    /// the searcher cannot tell "deferred" from "lost" and
    /// retry-exhausts live rounds. A matching echo resets the retry
    /// budget; exhaustion then means [`MAX_RETRIES`] *silent* deadlines.
    Busy {
        /// Echo of the request's timestamp.
        ts: Timestamp,
    },
}

/// One in-flight search.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Search {
    req: RequestId,
    ts: Timestamp,
    started: adca_simkit::SimTime,
    remaining: RegionMask,
    /// Union of collected `Use_j` sets.
    seen_used: ChannelSet,
    /// Deadline expiries consumed so far.
    retries: u32,
}

/// A mobile service station running basic search.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BasicSearchNode {
    me: CellId,
    cfg: BasicSearchConfig,
    spectrum: Spectrum,
    /// The cell's nominal primary allotment — unused by the scheme's
    /// logic, kept so trace events can flag borrowed (non-primary)
    /// channels.
    primary: ChannelSet,
    /// `IN_i`, sorted: a member's index is its [`RegionMask`] slot.
    region: Vec<CellId>,
    used: ChannelSet,
    clock: LamportClock,
    call_q: CallQueue,
    search: Option<Search>,
    /// Requests deferred because our own search has a lower timestamp,
    /// with the requester's timestamp (echoed in the drained response).
    deferred: VecDeque<(CellId, Timestamp)>,
    /// Monotonic timer tag; `armed` holds the one live deadline's tag.
    timer_epoch: u64,
    armed: Option<u64>,
}

impl BasicSearchNode {
    /// Creates the node for `cell` with hardening off (the scheme as
    /// published).
    pub fn new(cell: CellId, topo: &Topology) -> Self {
        Self::with_config(cell, topo, BasicSearchConfig::default())
    }

    /// Creates the node for `cell` with explicit hardening knobs.
    pub fn with_config(cell: CellId, topo: &Topology, cfg: BasicSearchConfig) -> Self {
        RegionMask::assert_fits(cell, topo.region(cell).len());
        BasicSearchNode {
            me: cell,
            cfg,
            spectrum: topo.spectrum(),
            primary: topo.primary(cell).clone(),
            region: topo.region(cell).to_vec(),
            used: topo.spectrum().empty_set(),
            clock: LamportClock::new(cell),
            call_q: CallQueue::new(),
            search: None,
            deferred: VecDeque::new(),
            timer_epoch: 0,
            armed: None,
        }
    }

    /// Channels currently in use.
    pub fn used(&self) -> &ChannelSet {
        &self.used
    }

    /// Arms the response deadline (no-op unless `retry_ticks` is set).
    fn arm(&mut self, ctx: &mut Effects<BasicSearchMsg>) {
        if let Some(d) = self.cfg.retry_ticks {
            self.timer_epoch += 1;
            self.armed = Some(self.timer_epoch);
            ctx.set_timer(d, self.timer_epoch);
        }
    }

    fn try_start_next(&mut self, ctx: &mut Effects<BasicSearchMsg>) {
        if self.search.is_some() {
            return;
        }
        let Some((req, _)) = self.call_q.front() else {
            return;
        };
        let ts = self.clock.tick();
        let started = ctx.now();
        let remaining = RegionMask::full(self.region.len());
        if remaining.is_empty() {
            // Degenerate: no interference region; pick from the spectrum.
            self.search = Some(Search {
                req,
                ts,
                started,
                remaining,
                seen_used: self.spectrum.empty_set(),
                retries: 0,
            });
            self.conclude(ctx);
            return;
        }
        for &j in &self.region {
            ctx.send(j, BasicSearchMsg::Request { ts });
        }
        self.search = Some(Search {
            req,
            ts,
            started,
            remaining,
            seen_used: self.spectrum.empty_set(),
            retries: 0,
        });
        let me = self.me;
        ctx.trace_with(|| TraceEvent::RoundStart {
            cell: me,
            kind: RoundKind::Search,
        });
        self.arm(ctx);
    }

    fn conclude(&mut self, ctx: &mut Effects<BasicSearchMsg>) {
        let search = self.search.take().expect("search in flight");
        self.armed = None;
        ctx.sample(
            "attempt_ticks",
            ctx.now().saturating_since(search.started) as f64,
        );
        let free = self.used.union(&search.seen_used).complement();
        let me = self.me;
        match free.first() {
            Some(ch) => {
                self.used.insert(ch);
                ctx.count("acq_search");
                let borrowed = !self.primary.contains(ch);
                ctx.trace_with(|| TraceEvent::Acquired {
                    cell: me,
                    ch: Some(ch),
                    via: AcqPath::Search,
                    borrowed,
                });
                ctx.grant(search.req, ch);
            }
            None => {
                ctx.count("acq_failed");
                ctx.trace_with(|| TraceEvent::Acquired {
                    cell: me,
                    ch: None,
                    via: AcqPath::Search,
                    borrowed: false,
                });
                ctx.reject(search.req);
            }
        }
        self.finish_and_drain(ctx);
    }

    /// Retry budget exhausted: the search cannot safely pick a channel
    /// from an incomplete response set, so the call is rejected.
    fn give_up(&mut self, ctx: &mut Effects<BasicSearchMsg>) {
        let search = self.search.take().expect("search in flight");
        self.armed = None;
        ctx.sample(
            "attempt_ticks",
            ctx.now().saturating_since(search.started) as f64,
        );
        ctx.count("acq_failed");
        ctx.reject_with(search.req, DropCause::RetryExhausted);
        self.finish_and_drain(ctx);
    }

    /// Answers deferred requesters (with the post-acquisition Use set,
    /// which is what makes the deferral safe) and starts the next call.
    fn finish_and_drain(&mut self, ctx: &mut Effects<BasicSearchMsg>) {
        let drained = self.deferred.len() as u32;
        if drained > 0 {
            let me = self.me;
            ctx.trace_with(|| TraceEvent::DeferDrain { cell: me, drained });
        }
        while let Some((j, ts)) = self.deferred.pop_front() {
            ctx.send(
                j,
                BasicSearchMsg::Response {
                    used: self.used.clone(),
                    ts,
                },
            );
        }
        self.call_q.pop();
        self.try_start_next(ctx);
    }
}

impl StateMachine for BasicSearchNode {
    type Msg = BasicSearchMsg;

    fn msg_kind(msg: &BasicSearchMsg) -> &'static str {
        match msg {
            BasicSearchMsg::Request { .. } => "REQUEST",
            BasicSearchMsg::Response { .. } => "RESPONSE",
            BasicSearchMsg::Busy { .. } => "BUSY",
        }
    }

    fn acquire(&mut self, req: RequestId, kind: RequestKind, ctx: &mut Effects<Self::Msg>) {
        self.call_q.push(req, kind);
        self.try_start_next(ctx);
    }

    fn release(&mut self, ch: Channel, ctx: &mut Effects<Self::Msg>) {
        let was = self.used.remove(ch);
        debug_assert!(was, "released channel {ch} not in use");
        let me = self.me;
        let borrowed = !self.primary.contains(ch);
        ctx.trace_with(|| TraceEvent::Released {
            cell: me,
            ch,
            borrowed,
        });
    }

    fn message(&mut self, from: CellId, msg: BasicSearchMsg, ctx: &mut Effects<Self::Msg>) {
        match msg {
            BasicSearchMsg::Request { ts } => {
                self.clock.observe(ts);
                let defer = self.search.as_ref().is_some_and(|s| s.ts < ts);
                if defer {
                    if let Some(slot) = self.deferred.iter_mut().find(|(j, _)| *j == from) {
                        // Duplicated or retried request already queued;
                        // keep the latest timestamp so the drained
                        // response echoes the requester's live search.
                        slot.1 = ts;
                        ctx.count("duplicate_deferred_reqs");
                    } else {
                        ctx.count("deferred_search_reqs");
                        self.deferred.push_back((from, ts));
                        let me = self.me;
                        ctx.trace_with(|| TraceEvent::Defer {
                            cell: me,
                            requester: from,
                            kind: RoundKind::Search,
                        });
                    }
                    if self.cfg.retry_ticks.is_some() {
                        ctx.send(from, BasicSearchMsg::Busy { ts });
                    }
                } else {
                    ctx.send(
                        from,
                        BasicSearchMsg::Response {
                            used: self.used.clone(),
                            ts,
                        },
                    );
                }
            }
            BasicSearchMsg::Response { used, ts } => {
                // Hardened runs discard echoes that mismatch the live
                // search (see the message doc); unhardened runs keep the
                // original lax matching bit-for-bit.
                let strict = self.cfg.retry_ticks.is_some();
                let conclude = {
                    let Some(search) = self.search.as_mut() else {
                        ctx.count("stale_responses");
                        return;
                    };
                    if strict && ts != search.ts {
                        ctx.count("stale_responses");
                        return;
                    }
                    search.seen_used.union_with(&used);
                    let from_slot = self.region.binary_search(&from);
                    if from_slot.is_ok_and(|s| search.remaining.remove(s)) {
                        // Progress signal: with hardening on, reset the
                        // retry budget so exhaustion means consecutive
                        // *silent* deadlines, never a slow-but-advancing
                        // round. Unobservable unhardened (the budget is
                        // only read when timers arm).
                        search.retries = 0;
                    }
                    search.remaining.is_empty()
                };
                if conclude {
                    self.conclude(ctx);
                }
            }
            BasicSearchMsg::Busy { ts } => {
                // A responder deferred us behind its older search: the
                // round is alive, so the deadline should measure
                // silence, not deferral depth. Reset the retry budget.
                match self.search.as_mut().filter(|s| s.ts == ts) {
                    Some(search) => {
                        search.retries = 0;
                        ctx.count("defer_acks");
                    }
                    None => ctx.count("stale_acks"),
                }
            }
        }
    }

    fn timer(&mut self, tag: u64, ctx: &mut Effects<Self::Msg>) {
        if self.armed != Some(tag) {
            ctx.count("stale_timers");
            return;
        }
        self.armed = None;
        let (retry, ts, remaining) = {
            let Some(s) = self.search.as_mut() else {
                return;
            };
            let retry = s.retries < MAX_RETRIES;
            if retry {
                s.retries += 1;
            }
            (retry, s.ts, s.remaining)
        };
        if retry {
            // Resend with the original timestamp so responders that
            // already answered see a duplicate, not a new younger
            // request, and the deferral order is unchanged.
            ctx.count("search_retries");
            for s in remaining.iter() {
                ctx.send(self.region[s], BasicSearchMsg::Request { ts });
            }
            self.arm(ctx);
        } else {
            ctx.count("search_retry_exhausted");
            self.give_up(ctx);
        }
    }

    fn restart(&mut self, _ctx: &mut Effects<Self::Msg>) {
        // Volatile state is gone; the engine killed our calls and
        // force-rejected queued requests while we were down. The Lamport
        // clock survives (stable storage), keeping post-restart searches
        // younger than pre-crash in-flight ones. No extra resync is
        // needed: a search only picks after collecting *every* region
        // member's fresh Use set.
        self.used = self.spectrum.empty_set();
        self.call_q = CallQueue::new();
        self.search = None;
        self.deferred.clear();
        self.armed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_simkit::engine::run_protocol;
    use adca_simkit::{Arrival, LatencyModel, SimConfig, SimTime};
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
    fn uncontended_search_costs_2n_messages_and_2t() {
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        let n = t.region(center).len() as u64; // 18
        let arrivals = vec![Arrival::new(0, center, 1_000)];
        let r = run_protocol(t, cfg(), BasicSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 1);
        assert_eq!(r.messages_total, 2 * n, "Table 1: 2N messages");
        // Round trip = 2T = 200 ticks.
        assert_eq!(r.acq_latency.stats().max(), Some(200.0));
    }

    #[test]
    fn search_uses_whole_region_pool() {
        // One cell can absorb far more than a static allotment: with an
        // idle region the whole spectrum is reachable.
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        let arrivals: Vec<Arrival> = (0..70).map(|i| Arrival::new(i, center, 500_000)).collect();
        let r = run_protocol(t.clone(), cfg(), BasicSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 70);
        assert_eq!(r.dropped_new, 0);
        // The 71st call fails.
        let arrivals: Vec<Arrival> = (0..71).map(|i| Arrival::new(i, center, 500_000)).collect();
        let r = run_protocol(t, cfg(), BasicSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.dropped_new, 1);
    }

    #[test]
    fn concurrent_searches_are_sequenced_safely() {
        // Saturate a small grid: every cell requests simultaneously.
        // Timestamp deferral must sequence them; the engine audits safety
        // and liveness.
        let t = Arc::new(Topology::default_paper(5, 5));
        let mut arrivals = Vec::new();
        for c in 0..25u32 {
            for i in 0..4 {
                arrivals.push(Arrival::new(i, CellId(c), 300_000));
            }
        }
        let r = run_protocol(t, cfg(), BasicSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 100, "4 calls × 25 cells all fit");
        assert!(
            r.custom.get("deferred_search_reqs") > 0,
            "contention must defer"
        );
    }

    #[test]
    fn deferral_delays_younger_search() {
        let t = topo();
        let a = t.grid().at_offset(2, 2).unwrap();
        let b = t.grid().at_offset(3, 2).unwrap();
        // Two adjacent cells search at the same instant.
        let arrivals = vec![Arrival::new(0, a, 10_000), Arrival::new(0, b, 10_000)];
        let r = run_protocol(t, cfg(), BasicSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 2);
        // One of the two completed in 2T; the other waited for the first:
        // its latency exceeds 2T.
        let lats: Vec<f64> = r.acq_latency.samples().to_vec();
        assert_eq!(lats.iter().filter(|&&l| l == 200.0).count(), 1);
        assert_eq!(lats.iter().filter(|&&l| l > 200.0).count(), 1);
        assert!(r.end_time > SimTime(0));
    }

    #[test]
    fn releases_are_message_free() {
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        let n = t.region(center).len() as u64;
        let arrivals = vec![Arrival::new(0, center, 100)];
        let r = run_protocol(t, cfg(), BasicSearchNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.completed_calls, 1);
        // Still only the 2N search messages — release is silent.
        assert_eq!(r.messages_total, 2 * n);
    }
}
