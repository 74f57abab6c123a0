//! The advanced update scheme (Dong & Lai, TR OSU-CISRC-10/96-TR48),
//! as characterized in Sections 5–6 of the paper.
//!
//! Like basic update, but permission for a borrowed channel `r` is asked
//! only of the *primary cells* of `r` inside the requester's interference
//! region (`NP(c, r)`, `n_p` cells) rather than of everyone; primary
//! channels are taken locally. Acquisitions and releases are still
//! broadcast region-wide so mirrors stay fresh (the `+2N` in Table 1).
//!
//! A primary cell gives a full **grant** to the first outstanding request
//! for a channel and only **conditional grants** to later concurrent
//! requests. A requester succeeds only on unanimous full grants. This is
//! what produces the unfairness of the paper's Figure 11: if the younger
//! requester's messages overtake the older one's, the younger collects
//! the full grants and wins even though timestamp order says it should
//! lose — the scenario `bench/src/bin/fig11.rs` reproduces.
//!
//! **Reconstruction note (boundary safety).** Asking only `NP(c, r)` is
//! safe when any two potential contenders within the reuse distance share
//! at least one primary owner of `r` (the owner then serializes them).
//! With the 7-cell cluster that *witness* always exists in the infinite
//! plane — every cell is within distance 1 of a co-channel lattice point —
//! but near the boundary of a finite grid the witness cell may not exist
//! (verified by enumeration: e.g. 34 disjoint-owner pairs on a 12×12
//! grid). A cell therefore only borrows channels whose owner set provably
//! intersects the owner set of every region member (a condition
//! precomputed from the static topology); other channels are reachable
//! only as primaries. Dong & Lai's own evaluation sidesteps this with
//! wrap-around geometry; the restriction is the bounded-grid equivalent
//! and only affects boundary cells.

use adca_core::{CallQueue, LamportClock, NeighborView, RegionMask, Timestamp};
use adca_hexgrid::{CellId, Channel, ChannelSet, Spectrum, Topology};
use adca_simkit::trace::{AcqPath, RoundKind, TraceEvent};
use adca_simkit::{Effects, RequestId, RequestKind, StateMachine};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Give up (drop the call) after this many rejected attempts, as
/// [`crate::basic_update::MAX_ATTEMPTS`] does for the basic scheme.
const MAX_ATTEMPTS: u32 = 16;

/// Wire messages of the advanced update scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AdvancedUpdateMsg {
    /// Permission request for borrowing channel `ch`, sent to `NP(c, ch)`.
    Request {
        /// The channel to borrow.
        ch: Channel,
        /// Requester's timestamp.
        ts: Timestamp,
    },
    /// Full grant.
    Grant {
        /// The channel.
        ch: Channel,
    },
    /// Conditional grant (a concurrent earlier request holds the channel
    /// pending). Counts as a failure for the unanimity rule.
    CondGrant {
        /// The channel.
        ch: Channel,
    },
    /// Rejection (the primary cell itself uses the channel).
    Reject {
        /// The channel.
        ch: Channel,
    },
    /// Region-wide acquisition announcement.
    Acquisition {
        /// The acquired channel.
        ch: Channel,
    },
    /// Region-wide (or grant-cancelling) release.
    Release {
        /// The released channel.
        ch: Channel,
    },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Attempt {
    req: RequestId,
    ch: Channel,
    remaining: RegionMask,
    granted: Vec<CellId>,
    /// Any CondGrant or Reject seen.
    failed: bool,
    attempts_so_far: u32,
    tried: ChannelSet,
}

/// A mobile service station running advanced update.
#[derive(Debug, Clone)]
pub struct AdvancedUpdateNode {
    me: CellId,
    spectrum: Spectrum,
    /// The shared system model: `PR_j` of region members.
    topo: Topology,
    /// `PR_i`.
    primary: ChannelSet,
    used: ChannelSet,
    /// The region mirror; its `members()` is `IN_i`, sorted.
    view: NeighborView,
    clock: LamportClock,
    call_q: CallQueue,
    attempt: Option<Attempt>,
    /// As a primary owner: channels currently promised to a borrower that
    /// has not yet confirmed (ACQUISITION) or cancelled (RELEASE).
    pending_grants: BTreeMap<Channel, CellId>,
    /// Channels this cell may borrow at all: the witness condition holds
    /// against every region member (see module docs).
    borrowable: ChannelSet,
    /// When service of the head request began (protocol latency metric).
    serving_since: Option<adca_simkit::SimTime>,
}

/// Every field but `topo`, the system model every node of a run is built
/// from (it has no `PartialEq`, and two states of one run share it).
impl PartialEq for AdvancedUpdateNode {
    fn eq(&self, other: &Self) -> bool {
        let AdvancedUpdateNode {
            me,
            spectrum,
            topo: _,
            primary,
            used,
            view,
            clock,
            call_q,
            attempt,
            pending_grants,
            borrowable,
            serving_since,
        } = self;
        *me == other.me
            && *spectrum == other.spectrum
            && *primary == other.primary
            && *used == other.used
            && *view == other.view
            && *clock == other.clock
            && *call_q == other.call_q
            && *attempt == other.attempt
            && *pending_grants == other.pending_grants
            && *borrowable == other.borrowable
            && *serving_since == other.serving_since
    }
}

/// Every field [`PartialEq`] compares: equal nodes hash alike, and a
/// field added to the node is a compile error here until it is hashed
/// or skipped by name.
impl Hash for AdvancedUpdateNode {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let AdvancedUpdateNode {
            me,
            spectrum,
            topo: _,
            primary,
            used,
            view,
            clock,
            call_q,
            attempt,
            pending_grants,
            borrowable,
            serving_since,
        } = self;
        me.hash(h);
        spectrum.hash(h);
        primary.hash(h);
        used.hash(h);
        view.hash(h);
        clock.hash(h);
        call_q.hash(h);
        attempt.hash(h);
        pending_grants.hash(h);
        borrowable.hash(h);
        serving_since.hash(h);
    }
}

impl AdvancedUpdateNode {
    /// Creates the node for `cell`.
    pub fn new(cell: CellId, topo: &Topology) -> Self {
        let region = topo.region(cell);
        RegionMask::assert_fits(cell, region.len());
        let borrowable = Self::compute_borrowable(cell, topo);
        AdvancedUpdateNode {
            me: cell,
            spectrum: topo.spectrum(),
            topo: topo.clone(),
            primary: topo.primary(cell).clone(),
            used: topo.spectrum().empty_set(),
            view: NeighborView::new(topo.spectrum(), region),
            clock: LamportClock::new(cell),
            call_q: CallQueue::new(),
            attempt: None,
            pending_grants: BTreeMap::new(),
            borrowable,
            serving_since: None,
        }
    }

    /// The witness condition: channel `ch` is borrowable by `cell` iff
    /// its owner set within `IN_cell` is non-empty and intersects the
    /// owner set of every region member that could also borrow it. Region
    /// members holding `ch` as primary are their own witness (we ask them
    /// directly); members with an empty owner set can never borrow `ch`
    /// under the same rule and are no threat.
    fn compute_borrowable(cell: CellId, topo: &Topology) -> ChannelSet {
        // Set-algebraic form of the witness condition, one bitset op per
        // region pair instead of a per-channel scan with a Vec allocation
        // per member (which made node construction — and thus restore —
        // quadratic in region size times spectrum width).
        //
        // A channel is borrowable iff it is not ours, has an owner in our
        // region, and for every member x that could also borrow it
        // (ch ∉ PR_x, ch has an owner in IN_x) some owner is shared
        // between both regions: ch ∈ ∪_{p ∈ IN_cell ∩ IN_x} PR_p. Owners
        // x shares with us cannot veto, so what x vetoes is owned only by
        // the members of IN_x outside IN_cell — and one walk down the two
        // sorted rows sorts every p ∈ IN_x into one set or the other.
        let region = topo.region(cell);
        let mut out = topo.spectrum().empty_set();
        for &p in region {
            out.union_with(topo.primary(p));
        }
        out.subtract(topo.primary(cell));
        for &x in region {
            if out.is_empty() {
                break;
            }
            let mut witnessed = topo.spectrum().empty_set();
            // Channels x could borrow but shares no witness with us.
            let mut vetoed = topo.spectrum().empty_set();
            let mut mine = region.iter().peekable();
            for &p in topo.region(x) {
                while mine.next_if(|&&q| q < p).is_some() {}
                if mine.peek() == Some(&&p) {
                    witnessed.union_with(topo.primary(p));
                } else {
                    vetoed.union_with(topo.primary(p));
                }
            }
            vetoed.subtract(topo.primary(x));
            vetoed.subtract(&witnessed);
            out.subtract(&vetoed);
        }
        out
    }

    /// Channels currently in use.
    pub fn used(&self) -> &ChannelSet {
        &self.used
    }

    /// The primary cells of `ch` within our region, as region slots.
    fn primaries_of(&self, ch: Channel) -> RegionMask {
        let mut owners = RegionMask::default();
        for (s, &j) in self.view.members().iter().enumerate() {
            if self.topo.primary(j).contains(ch) {
                owners.insert(s);
            }
        }
        owners
    }

    /// Next borrowable candidate: free per local info, not yet tried, and
    /// in the precomputed witness-safe borrowable set.
    fn pick_borrow(&self, tried: &ChannelSet) -> Option<(Channel, RegionMask)> {
        let mut free = self.used.union(self.view.interference()).complement();
        free.intersect_with(&self.borrowable);
        free.subtract(tried);
        free.first().map(|ch| (ch, self.primaries_of(ch)))
    }

    fn try_start_next(&mut self, ctx: &mut Effects<AdvancedUpdateMsg>) {
        if self.attempt.is_some() {
            return;
        }
        let Some((req, _)) = self.call_q.front() else {
            return;
        };
        // Primary channels are taken without asking (but announced) —
        // excluding channels we have promised to a borrower.
        let mut free_pr = self.primary.difference(&self.used);
        free_pr.subtract(self.view.interference());
        for &ch in self.pending_grants.keys() {
            free_pr.remove(ch);
        }
        if let Some(ch) = free_pr.first() {
            self.used.insert(ch);
            ctx.count("acq_local");
            ctx.sample("attempt_ticks", 0.0);
            let me = self.me;
            ctx.trace_with(|| TraceEvent::Acquired {
                cell: me,
                ch: Some(ch),
                via: AcqPath::Local,
                borrowed: false,
            });
            for &j in self.view.members() {
                ctx.send(j, AdvancedUpdateMsg::Acquisition { ch });
            }
            ctx.grant(req, ch);
            self.call_q.pop();
            self.try_start_next(ctx);
            return;
        }
        self.serving_since = Some(ctx.now());
        self.start_attempt(req, 0, self.spectrum.empty_set(), ctx);
    }

    fn start_attempt(
        &mut self,
        req: RequestId,
        attempts_so_far: u32,
        tried: ChannelSet,
        ctx: &mut Effects<AdvancedUpdateMsg>,
    ) {
        if attempts_so_far >= MAX_ATTEMPTS {
            ctx.count("update_gaveup");
            self.finish_failure(ctx);
            return;
        }
        let Some((ch, owners)) = self.pick_borrow(&tried) else {
            self.finish_failure(ctx);
            return;
        };
        let ts = self.clock.tick();
        let me = self.me;
        let region = self.view.members();
        let lender = region[owners
            .iter()
            .next()
            .expect("a borrowable channel has an owner in the region")];
        let attempt_no = attempts_so_far + 1;
        ctx.trace_with(|| TraceEvent::RoundStart {
            cell: me,
            kind: RoundKind::Update,
        });
        // One representative borrow-attempt event per round (multi-owner
        // channels name the first primary owner as the lender).
        ctx.trace_with(|| TraceEvent::BorrowAttempt {
            cell: me,
            lender,
            ch,
            attempt: attempt_no,
        });
        for s in owners.iter() {
            ctx.send(region[s], AdvancedUpdateMsg::Request { ch, ts });
        }
        ctx.sample("np_contacted", owners.len() as f64);
        self.attempt = Some(Attempt {
            req,
            ch,
            remaining: owners,
            granted: Vec::with_capacity(owners.len()),
            failed: false,
            attempts_so_far: attempts_so_far + 1,
            tried,
        });
    }

    fn finish_failure(&mut self, ctx: &mut Effects<AdvancedUpdateMsg>) {
        let (req, _) = self.call_q.pop().expect("head request present");
        if let Some(started) = self.serving_since.take() {
            ctx.sample("attempt_ticks", ctx.now().saturating_since(started) as f64);
        }
        ctx.count("acq_failed");
        let me = self.me;
        ctx.trace_with(|| TraceEvent::Acquired {
            cell: me,
            ch: None,
            via: AcqPath::Update,
            borrowed: false,
        });
        ctx.reject(req);
        self.try_start_next(ctx);
    }

    fn conclude(&mut self, ctx: &mut Effects<AdvancedUpdateMsg>) {
        let a = self.attempt.take().expect("attempt in flight");
        if !a.failed {
            self.used.insert(a.ch);
            ctx.count("acq_update");
            ctx.sample("update_attempts", a.attempts_so_far as f64);
            let me = self.me;
            let ch = a.ch;
            ctx.trace_with(|| TraceEvent::Acquired {
                cell: me,
                ch: Some(ch),
                via: AcqPath::Update,
                borrowed: true,
            });
            if let Some(started) = self.serving_since.take() {
                ctx.sample("attempt_ticks", ctx.now().saturating_since(started) as f64);
            }
            for &j in self.view.members() {
                ctx.send(j, AdvancedUpdateMsg::Acquisition { ch: a.ch });
            }
            ctx.grant(a.req, a.ch);
            self.call_q.pop();
            self.try_start_next(ctx);
            return;
        }
        ctx.count("update_rounds_failed");
        for &p in &a.granted {
            ctx.send(p, AdvancedUpdateMsg::Release { ch: a.ch });
        }
        let mut tried = a.tried;
        tried.insert(a.ch);
        self.start_attempt(a.req, a.attempts_so_far, tried, ctx);
    }
}

impl StateMachine for AdvancedUpdateNode {
    type Msg = AdvancedUpdateMsg;

    fn msg_kind(msg: &AdvancedUpdateMsg) -> &'static str {
        match msg {
            AdvancedUpdateMsg::Request { .. } => "REQUEST",
            AdvancedUpdateMsg::Grant { .. }
            | AdvancedUpdateMsg::CondGrant { .. }
            | AdvancedUpdateMsg::Reject { .. } => "RESPONSE",
            AdvancedUpdateMsg::Acquisition { .. } => "ACQUISITION",
            AdvancedUpdateMsg::Release { .. } => "RELEASE",
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
            ctx.send(j, AdvancedUpdateMsg::Release { ch });
        }
    }

    fn message(&mut self, from: CellId, msg: AdvancedUpdateMsg, ctx: &mut Effects<Self::Msg>) {
        match msg {
            AdvancedUpdateMsg::Request { ch, ts } => {
                self.clock.observe(ts);
                debug_assert!(
                    self.primary.contains(ch),
                    "advanced update asks only primary owners"
                );
                if self.used.contains(ch) || self.view.interference().contains(ch) {
                    ctx.send(from, AdvancedUpdateMsg::Reject { ch });
                } else if let Some(&holder) = self.pending_grants.get(&ch) {
                    // A concurrent earlier request holds the channel: the
                    // newcomer gets only a conditional grant — even if its
                    // timestamp is older (the Figure 11 unfairness).
                    debug_assert_ne!(holder, from);
                    ctx.count("cond_grants");
                    ctx.send(from, AdvancedUpdateMsg::CondGrant { ch });
                } else {
                    self.pending_grants.insert(ch, from);
                    ctx.send(from, AdvancedUpdateMsg::Grant { ch });
                }
            }
            AdvancedUpdateMsg::Grant { ch } => {
                let from_slot = self.view.slot(from);
                let conclude = {
                    let Some(a) = self.attempt.as_mut() else {
                        ctx.count("stale_responses");
                        return;
                    };
                    if a.ch != ch {
                        ctx.count("stale_responses");
                        return;
                    }
                    // A grant from outside the owner set credits nobody.
                    if from_slot.is_some_and(|s| a.remaining.remove(s)) {
                        a.granted.push(from);
                    }
                    a.remaining.is_empty()
                };
                if conclude {
                    self.conclude(ctx);
                }
            }
            AdvancedUpdateMsg::CondGrant { ch } | AdvancedUpdateMsg::Reject { ch } => {
                let from_slot = self.view.slot(from);
                let conclude = {
                    let Some(a) = self.attempt.as_mut() else {
                        ctx.count("stale_responses");
                        return;
                    };
                    if a.ch != ch {
                        ctx.count("stale_responses");
                        return;
                    }
                    if let Some(s) = from_slot {
                        a.remaining.remove(s);
                    }
                    a.failed = true;
                    a.remaining.is_empty()
                };
                if conclude {
                    self.conclude(ctx);
                }
            }
            AdvancedUpdateMsg::Acquisition { ch } => {
                self.view.set_used(from, ch);
                if self.pending_grants.get(&ch) == Some(&from) {
                    self.pending_grants.remove(&ch);
                }
            }
            AdvancedUpdateMsg::Release { ch } => {
                if self.pending_grants.get(&ch) == Some(&from) {
                    // Cancelled grant (the borrower's round failed).
                    self.pending_grants.remove(&ch);
                } else {
                    self.view.clear_used(from, ch);
                }
            }
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

    /// The per-channel witness scan `compute_borrowable` replaced; kept
    /// as the executable spec the set-algebraic version must match.
    fn borrowable_reference(cell: CellId, topo: &Topology) -> ChannelSet {
        let mut out = topo.spectrum().empty_set();
        'chan: for ch in topo.spectrum().iter() {
            if topo.primary(cell).contains(ch) {
                continue; // primaries are not borrowed
            }
            let mine = topo.primaries_of_channel_in_region(cell, ch);
            if mine.is_empty() {
                continue;
            }
            for &x in topo.region(cell) {
                if topo.primary(x).contains(ch) {
                    continue; // x ∈ mine: serialized by x itself
                }
                let theirs = topo.primaries_of_channel_in_region(x, ch);
                if theirs.is_empty() {
                    continue; // x cannot borrow ch either
                }
                if !mine.iter().any(|p| theirs.contains(p)) {
                    continue 'chan; // no common witness with x
                }
            }
            out.insert(ch);
        }
        out
    }

    #[test]
    fn borrowable_matches_reference_scan() {
        // Bounded grids, where boundary cells lose witnesses, and a torus,
        // whose region rows interleave ids from both sides of a seam.
        for t in [
            Topology::default_paper(6, 6),
            Topology::default_paper(7, 5),
            Topology::builder(14, 14).wrap().build(),
        ] {
            for cell in t.cells() {
                assert_eq!(
                    AdvancedUpdateNode::compute_borrowable(cell, &t),
                    borrowable_reference(cell, &t),
                    "borrowable sets diverge at {cell}"
                );
            }
        }
    }

    #[test]
    fn primary_acquisition_is_local_with_announcement() {
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        let n = t.region(center).len() as u64;
        let arrivals = vec![Arrival::new(0, center, 1_000)];
        let r = run_protocol(t, cfg(), AdvancedUpdateNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 1);
        assert_eq!(r.acq_latency.stats().max(), Some(0.0), "Table 2: latency 0");
        // Table 2: 2N (ACQUISITION broadcast + RELEASE broadcast).
        assert_eq!(r.messages_total, 2 * n);
    }

    #[test]
    fn borrowing_contacts_only_np_primaries() {
        let t = topo();
        let center = t.grid().at_offset(3, 3).unwrap();
        // Saturate primaries then one more call: it must borrow.
        let arrivals: Vec<Arrival> = (0..11).map(|i| Arrival::new(i, center, 500_000)).collect();
        let r = run_protocol(t, cfg(), AdvancedUpdateNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 11);
        assert_eq!(r.custom.get("acq_update"), 1);
        // n_p for a borrowed channel in a radius-2 region with cluster 7
        // is small (2–3 cells), far below N = 18.
        let np = r.custom_samples["np_contacted"].stats().max().unwrap();
        assert!(np <= 4.0, "n_p = {np}");
    }

    #[test]
    fn borrowing_still_safe_under_contention() {
        let t = Arc::new(Topology::default_paper(5, 5));
        let mut arrivals = Vec::new();
        for c in 0..25u32 {
            for i in 0..12 {
                arrivals.push(Arrival::new(i * 2, CellId(c), 300_000));
            }
        }
        let r = run_protocol(t, cfg(), AdvancedUpdateNode::new, arrivals);
        r.assert_clean();
        assert!(r.granted >= 240, "granted {}", r.granted);
    }

    #[test]
    fn conditional_grants_fail_the_round() {
        // Two cells sharing a primary owner race for the same borrowed
        // channel: one receives a CondGrant somewhere and fails that
        // round (retrying on another channel).
        let t = topo();
        let a = t.grid().at_offset(2, 3).unwrap();
        let b = t.grid().at_offset(4, 3).unwrap();
        // Fill both cells' primaries, then two simultaneous borrow
        // requests.
        let mut arrivals = Vec::new();
        for i in 0..11 {
            arrivals.push(Arrival::new(i, a, 400_000));
            arrivals.push(Arrival::new(i, b, 400_000));
        }
        let r = run_protocol(t, cfg(), AdvancedUpdateNode::new, arrivals);
        r.assert_clean();
        assert_eq!(r.granted, 22);
    }
}
