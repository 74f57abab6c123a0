//! The basic update scheme (Dong & Lai, ICDCS '97), Section 2.2 of the
//! paper.
//!
//! Every node mirrors the channel usage of its interference region
//! (via ACQUISITION/RELEASE broadcasts). To acquire, it picks a channel
//! free *according to its local information* and asks the whole region
//! for permission; concurrent requests for the same channel are resolved
//! by timestamp (the younger request is rejected; a node grants an older
//! conflicting request and its own attempt is doomed to rejection by the
//! grantee, after which it retries with another channel).
//!
//! Costs per acquisition (Table 1): `2Nm + 2N` messages and `2Tm`
//! latency, with an *unbounded* number of attempts `m` under contention —
//! the starvation the adaptive scheme's `α` bound eliminates.

use adca_core::{CallQueue, LamportClock, NeighborView, RegionMask, Timestamp};
use adca_hexgrid::{CellId, Channel, ChannelSet, Spectrum, Topology};
use adca_simkit::sm::{Effects, StateMachine};
use adca_simkit::trace::{AcqPath, RoundKind, TraceEvent};
use adca_simkit::{DropCause, RequestId, RequestKind};

/// Safety valve: give up (drop the call) after this many rejected
/// attempts. The original scheme retries forever — `m` is unbounded
/// (Table 3) — which a simulation cannot admit verbatim; the cap is set
/// high enough that it only triggers under loads where the pure scheme
/// would starve. Give-ups are counted in the `update_gaveup` metric so
/// experiments can report them.
pub const MAX_ATTEMPTS: u32 = 64;

/// With hardening on: resends (same channel, same timestamp, outstanding
/// responders only) before a round is abandoned and the call rejected.
pub const MAX_RETRIES: u32 = 3;

/// Configuration of the basic update baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BasicUpdateConfig {
    /// Response deadline per permission round, in ticks. `None`
    /// (default) arms no timers — bit-identical to the unhardened
    /// scheme. Pick ≥ `2T`. A round is resent at most [`MAX_RETRIES`]
    /// times.
    pub retry_ticks: Option<u64>,
}

/// Wire messages of the basic update scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BasicUpdateMsg {
    /// Permission request for a channel.
    Request {
        /// The channel the sender wants.
        ch: Channel,
        /// The sender's timestamp for this attempt.
        ts: Timestamp,
    },
    /// Permission granted.
    Grant {
        /// The requested channel.
        ch: Channel,
        /// Echo of the request's timestamp. With hardening on, the
        /// requester only credits responses echoing its live round's
        /// timestamp, so a duplicated response from an earlier round for
        /// the same channel cannot satisfy a round the responder never
        /// saw.
        ts: Timestamp,
    },
    /// Permission denied.
    Reject {
        /// The requested channel.
        ch: Channel,
        /// Echo of the request's timestamp (see [`BasicUpdateMsg::Grant`]).
        ts: Timestamp,
    },
    /// The sender acquired the channel.
    Acquisition {
        /// The acquired channel.
        ch: Channel,
    },
    /// The sender released the channel.
    Release {
        /// The released channel.
        ch: Channel,
    },
}

/// One permission round.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Attempt {
    req: RequestId,
    ts: Timestamp,
    ch: Channel,
    remaining: RegionMask,
    granted: Vec<CellId>,
    rejected: bool,
    /// We granted an older request for the same channel mid-round; our
    /// attempt must be abandoned even if everyone grants it.
    aborted: bool,
    attempts_so_far: u32,
    /// Deadline expiries consumed by this round.
    retries: u32,
}

/// A mobile service station running basic update.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BasicUpdateNode {
    me: CellId,
    cfg: BasicUpdateConfig,
    spectrum: Spectrum,
    /// Nominal primary allotment — unused by the scheme's logic, kept so
    /// trace events can flag borrowed (non-primary) channels.
    primary: ChannelSet,
    used: ChannelSet,
    /// The region mirror; its `members()` is `IN_i`, sorted.
    view: NeighborView,
    clock: LamportClock,
    call_q: CallQueue,
    attempt: Option<Attempt>,
    /// When service of the head request began (protocol latency metric).
    serving_since: Option<adca_simkit::SimTime>,
    /// Monotonic timer tag; `armed` holds the one live deadline's tag.
    timer_epoch: u64,
    armed: Option<u64>,
}

impl BasicUpdateNode {
    /// Creates the node for `cell`.
    pub fn new(cell: CellId, topo: &Topology, cfg: BasicUpdateConfig) -> Self {
        let region = topo.region(cell);
        RegionMask::assert_fits(cell, region.len());
        BasicUpdateNode {
            me: cell,
            cfg,
            spectrum: topo.spectrum(),
            primary: topo.primary(cell).clone(),
            used: topo.spectrum().empty_set(),
            view: NeighborView::new(topo.spectrum(), region),
            clock: LamportClock::new(cell),
            call_q: CallQueue::new(),
            attempt: None,
            serving_since: None,
            timer_epoch: 0,
            armed: None,
        }
    }

    /// Channels currently in use.
    pub fn used(&self) -> &ChannelSet {
        &self.used
    }

    /// Arms the round's response deadline (no-op unless `retry_ticks`).
    fn arm(&mut self, ctx: &mut Effects<BasicUpdateMsg>) {
        if let Some(d) = self.cfg.retry_ticks {
            self.timer_epoch += 1;
            self.armed = Some(self.timer_epoch);
            ctx.set_timer(d, self.timer_epoch);
        }
    }

    /// Picks the lowest channel free per local information, excluding
    /// `tried` (channels already rejected in this acquisition).
    fn pick_channel(&self, tried: &ChannelSet) -> Option<Channel> {
        let mut free = self.used.union(self.view.interference()).complement();
        free.subtract(tried);
        free.first()
    }

    fn start_attempt(
        &mut self,
        req: RequestId,
        attempts_so_far: u32,
        tried: &ChannelSet,
        ctx: &mut Effects<BasicUpdateMsg>,
    ) {
        if attempts_so_far >= MAX_ATTEMPTS {
            ctx.count("update_gaveup");
            self.finish(None, attempts_so_far, DropCause::Blocked, ctx);
            return;
        }
        let Some(ch) = self.pick_channel(tried) else {
            // Nothing looks free: the call is dropped.
            self.finish(None, attempts_so_far, DropCause::Blocked, ctx);
            return;
        };
        let ts = self.clock.tick();
        let remaining = RegionMask::full(self.view.members().len());
        if remaining.is_empty() {
            // No region: take it.
            self.used.insert(ch);
            self.finish(Some(ch), attempts_so_far + 1, DropCause::Blocked, ctx);
            return;
        }
        for &j in self.view.members() {
            ctx.send(j, BasicUpdateMsg::Request { ch, ts });
        }
        self.attempt = Some(Attempt {
            req,
            ts,
            ch,
            remaining,
            granted: Vec::with_capacity(remaining.len()),
            rejected: false,
            aborted: false,
            attempts_so_far: attempts_so_far + 1,
            retries: 0,
        });
        let me = self.me;
        ctx.trace_with(|| TraceEvent::RoundStart {
            cell: me,
            kind: RoundKind::Update,
        });
        self.arm(ctx);
    }

    /// Resolves the head request; `ch = None` means dropped, attributed
    /// to `fail_cause`.
    fn finish(
        &mut self,
        ch: Option<Channel>,
        attempts: u32,
        fail_cause: DropCause,
        ctx: &mut Effects<BasicUpdateMsg>,
    ) {
        let (req, _) = self.call_q.pop().expect("head request present");
        self.armed = None;
        if let Some(started) = self.serving_since.take() {
            ctx.sample("attempt_ticks", ctx.now().saturating_since(started) as f64);
        }
        let me = self.me;
        {
            let borrowed = ch.map(|r| !self.primary.contains(r)).unwrap_or(false);
            ctx.trace_with(|| TraceEvent::Acquired {
                cell: me,
                ch,
                via: AcqPath::Update,
                borrowed,
            });
        }
        match ch {
            Some(ch) => {
                ctx.count("acq_update");
                ctx.sample("update_attempts", attempts as f64);
                // Tell the whole region so their mirrors stay fresh.
                for &j in self.view.members() {
                    ctx.send(j, BasicUpdateMsg::Acquisition { ch });
                }
                ctx.grant(req, ch);
            }
            None => {
                ctx.count("acq_failed");
                ctx.reject_with(req, fail_cause);
            }
        }
        self.try_start_next(ctx);
    }

    fn try_start_next(&mut self, ctx: &mut Effects<BasicUpdateMsg>) {
        if self.attempt.is_some() {
            return;
        }
        let Some((req, _)) = self.call_q.front() else {
            return;
        };
        self.serving_since = Some(ctx.now());
        self.start_attempt(req, 0, &self.spectrum.empty_set(), ctx);
    }

    fn conclude(&mut self, ctx: &mut Effects<BasicUpdateMsg>) {
        let attempt = self.attempt.take().expect("attempt in flight");
        self.armed = None;
        let failed = attempt.rejected || attempt.aborted;
        if !failed {
            self.used.insert(attempt.ch);
            self.finish(
                Some(attempt.ch),
                attempt.attempts_so_far,
                DropCause::Blocked,
                ctx,
            );
            return;
        }
        ctx.count("update_rounds_failed");
        if self.cfg.retry_ticks.is_some() {
            // Hardened: a Grant to us may have been lost after the
            // granter recorded the pledge; release to the whole region
            // (`clear_used` is an idempotent no-op for non-granters).
            for &j in self.view.members() {
                ctx.send(j, BasicUpdateMsg::Release { ch: attempt.ch });
            }
        } else {
            // Release whoever granted us.
            for j in attempt.granted {
                ctx.send(j, BasicUpdateMsg::Release { ch: attempt.ch });
            }
        }
        // Retry with another channel. We exclude the just-rejected channel
        // for this retry; the view usually reflects the winner's
        // ACQUISITION by the time the round failed anyway.
        let mut tried = self.spectrum.empty_set();
        tried.insert(attempt.ch);
        self.start_attempt(attempt.req, attempt.attempts_so_far, &tried, ctx);
    }
}

impl StateMachine for BasicUpdateNode {
    type Msg = BasicUpdateMsg;

    fn msg_kind(msg: &BasicUpdateMsg) -> &'static str {
        match msg {
            BasicUpdateMsg::Request { .. } => "REQUEST",
            BasicUpdateMsg::Grant { .. } | BasicUpdateMsg::Reject { .. } => "RESPONSE",
            BasicUpdateMsg::Acquisition { .. } => "ACQUISITION",
            BasicUpdateMsg::Release { .. } => "RELEASE",
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
        for &j in self.view.members() {
            ctx.send(j, BasicUpdateMsg::Release { ch });
        }
    }

    fn message(&mut self, from: CellId, msg: BasicUpdateMsg, ctx: &mut Effects<Self::Msg>) {
        match msg {
            BasicUpdateMsg::Request { ch, ts } => {
                self.clock.observe(ts);
                if self.used.contains(ch) {
                    ctx.send(from, BasicUpdateMsg::Reject { ch, ts });
                    return;
                }
                // Conflict with our own pending attempt for the same
                // channel: the younger timestamp loses.
                let conflict = self.attempt.as_ref().is_some_and(|a| a.ch == ch);
                if conflict {
                    let my_ts = self.attempt.as_ref().expect("checked").ts;
                    if my_ts < ts {
                        ctx.send(from, BasicUpdateMsg::Reject { ch, ts });
                        return;
                    }
                    // Grant the older request and abandon our own attempt
                    // ("grant and abort its own request"). A duplicated
                    // or retried request must not count the abort twice.
                    let a = self.attempt.as_mut().expect("checked");
                    if !a.aborted {
                        a.aborted = true;
                        ctx.count("update_self_aborts");
                    }
                }
                ctx.send(from, BasicUpdateMsg::Grant { ch, ts });
                self.view.set_used(from, ch);
            }
            BasicUpdateMsg::Grant { ch, ts } => {
                // Hardened runs additionally require the timestamp echo to
                // match the live round (timestamps are fresh per round);
                // unhardened runs keep the original lax matching.
                let strict = self.cfg.retry_ticks.is_some();
                // `None`: a response from outside the region credits nobody.
                let from_slot = self.view.slot(from);
                let conclude = {
                    let Some(a) = self.attempt.as_mut() else {
                        ctx.count("stale_responses");
                        return;
                    };
                    if a.ch != ch || (strict && a.ts != ts) {
                        ctx.count("stale_responses");
                        return;
                    }
                    if from_slot.is_some_and(|s| a.remaining.remove(s)) {
                        a.granted.push(from);
                        // Progress: with hardening on, reset the retry
                        // budget so exhaustion means consecutive silent
                        // deadlines (unobservable unhardened — the
                        // budget is only read when timers arm).
                        a.retries = 0;
                    }
                    a.remaining.is_empty()
                };
                if conclude {
                    self.conclude(ctx);
                }
            }
            BasicUpdateMsg::Reject { ch, ts } => {
                let strict = self.cfg.retry_ticks.is_some();
                // `None`: a response from outside the region credits nobody.
                let from_slot = self.view.slot(from);
                let conclude = {
                    let Some(a) = self.attempt.as_mut() else {
                        ctx.count("stale_responses");
                        return;
                    };
                    if a.ch != ch || (strict && a.ts != ts) {
                        ctx.count("stale_responses");
                        return;
                    }
                    if from_slot.is_some_and(|s| a.remaining.remove(s)) {
                        a.retries = 0;
                    }
                    a.rejected = true;
                    a.remaining.is_empty()
                };
                if conclude {
                    self.conclude(ctx);
                }
            }
            BasicUpdateMsg::Acquisition { ch } => {
                self.view.set_used(from, ch);
            }
            BasicUpdateMsg::Release { ch } => {
                self.view.clear_used(from, ch);
            }
        }
    }

    fn timer(&mut self, tag: u64, ctx: &mut Effects<Self::Msg>) {
        if self.armed != Some(tag) {
            ctx.count("stale_timers");
            return;
        }
        self.armed = None;
        let (retry, ch, ts, remaining) = {
            let Some(a) = self.attempt.as_mut() else {
                return;
            };
            let retry = a.retries < MAX_RETRIES;
            if retry {
                a.retries += 1;
            }
            (retry, a.ch, a.ts, a.remaining)
        };
        if retry {
            // Resend with the original channel and timestamp: responders
            // that already answered see a duplicate, and the timestamp
            // conflict resolution is unchanged.
            ctx.count("update_retries");
            for s in remaining.iter() {
                let j = self.view.members()[s];
                ctx.send(j, BasicUpdateMsg::Request { ch, ts });
            }
            self.arm(ctx);
        } else {
            // The region stopped answering: abandon the acquisition. Any
            // pledge a lost Grant left behind is cleared by a
            // region-wide Release.
            ctx.count("update_retry_exhausted");
            let attempt = self.attempt.take().expect("attempt in flight");
            for &j in self.view.members() {
                ctx.send(j, BasicUpdateMsg::Release { ch: attempt.ch });
            }
            self.finish(
                None,
                attempt.attempts_so_far,
                DropCause::RetryExhausted,
                ctx,
            );
        }
    }

    fn restart(&mut self, _ctx: &mut Effects<Self::Msg>) {
        // Volatile state is gone; the engine killed our calls and
        // force-rejected queued requests while we were down, so an empty
        // Use set matches ground truth. The Lamport clock persists
        // (stable storage) so post-restart rounds stay younger than
        // pre-crash in-flight ones. The view restarts empty: a stale
        // pick is caught by the holder's Reject (`used.contains`), which
        // is the scheme's intrinsic conflict check.
        self.used = self.spectrum.empty_set();
        self.view.clear();
        self.call_q = CallQueue::new();
        self.attempt = None;
        self.serving_since = None;
        self.armed = None;
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

    fn factory(cell: CellId, topo: &Topology) -> BasicUpdateNode {
        BasicUpdateNode::new(cell, topo, BasicUpdateConfig::default())
    }

    #[test]
    fn uncontended_acquisition_costs_4n_and_2t() {
        // Table 2: one attempt = REQUEST×N + RESPONSE×N + ACQUISITION×N,
        // plus RELEASE×N at deallocation → 4N messages over the call's
        // life, acquisition latency 2T.
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        let n = t.region(center).len() as u64;
        let arrivals = vec![Arrival::new(0, center, 1_000)];
        let r = run_protocol(t, cfg(), factory, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 1);
        assert_eq!(r.messages_total, 4 * n);
        assert_eq!(r.acq_latency.stats().max(), Some(200.0));
    }

    #[test]
    fn whole_spectrum_reachable() {
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        let arrivals: Vec<Arrival> = (0..70).map(|i| Arrival::new(i, center, 500_000)).collect();
        let r = run_protocol(t, cfg(), factory, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 70);
    }

    #[test]
    fn same_channel_race_resolves_by_timestamp() {
        // Two adjacent idle cells request simultaneously: both pick
        // channel 0. Exactly one wins the round; the other retries and
        // gets a different channel. Safety is audited.
        let t = topo();
        let a = t.grid().at_offset(2, 2).unwrap();
        let b = t.grid().at_offset(3, 2).unwrap();
        let arrivals = vec![Arrival::new(0, a, 50_000), Arrival::new(0, b, 50_000)];
        let r = run_protocol(t, cfg(), factory, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 2);
        assert!(
            r.custom.get("update_rounds_failed") >= 1 || r.custom.get("update_self_aborts") >= 1,
            "the race must cost at least one retry"
        );
        // The retry costs extra round trips for the loser.
        assert!(r.acq_latency.stats().max().unwrap() > 200.0);
    }

    #[test]
    fn saturated_region_is_safe_and_live() {
        let t = Arc::new(Topology::default_paper(5, 5));
        let mut arrivals = Vec::new();
        for c in 0..25u32 {
            for i in 0..5 {
                arrivals.push(Arrival::new(i * 3, CellId(c), 200_000));
            }
        }
        let r = run_protocol(t, cfg(), factory, arrivals);
        r.assert_clean();
        assert_eq!(r.granted + r.dropped_new, 125);
        assert!(r.granted >= 100, "granted {}", r.granted);
    }

    #[test]
    fn view_mirrors_keep_messages_at_steady_state() {
        // After an acquisition, neighbors know; a later non-conflicting
        // acquisition in a neighbor proceeds in one round.
        let t = topo();
        let a = t.grid().at_offset(2, 2).unwrap();
        let b = t.grid().at_offset(3, 2).unwrap();
        let arrivals = vec![Arrival::new(0, a, 100_000), Arrival::new(1_000, b, 100_000)];
        let r = run_protocol(t, cfg(), factory, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 2);
        // Second request sees channel 0 taken via its mirror and asks for
        // channel 1 directly: no failed rounds.
        assert_eq!(r.custom.get("update_rounds_failed"), 0);
    }
}
