//! The adaptive distributed dynamic channel allocation protocol
//! (Figures 2–10 of the paper), as an event-driven state machine.
//!
//! # Mapping from the paper's pseudocode
//!
//! The paper presents the algorithm with blocking waits (`wait UNTIL …`);
//! here every wait is reified as a `Phase` of the single in-flight
//! `Attempt`:
//!
//! | paper                                                | here                      |
//! |------------------------------------------------------|---------------------------|
//! | `wait UNTIL waiting_i = 0` (local mode)              | `Phase::WaitQuiet`        |
//! | `wait UNTIL RESPONSE(3, j, U_j) from each j ∈ IN_i`  | `Phase::AwaitStatus`      |
//! | `wait UNTIL RESPONSE(G_j, j, r) from each j ∈ IN_i`  | `Phase::Update`           |
//! | `wait UNTIL RESPONSE(G_j, j, U_j) from each j ∈ IN_i`| `Phase::Search`           |
//!
//! Calls arriving while an attempt is in flight queue FIFO behind it
//! (`pending_i` is a single flag in the paper — acquisitions are
//! serialized per node).
//!
//! # Documented deviations from the pseudocode (see `DESIGN.md` §3)
//!
//! 1. `I_i` is derived from per-neighbor `U_j` sets with reference counts
//!    ([`crate::view::NeighborView`]) instead of plain set add/remove,
//!    fixing the release bug where two out-of-range neighbors share a
//!    channel.
//! 2. The borrowing-update candidate channel is drawn from the *lender's*
//!    primary set (`r ∈ PR_j − (Use_i ∪ I_i)` with `j = Best()`); the
//!    paper's literal `r ∈ PR_i ∩ …` is the local case already handled
//!    one line earlier and would make borrowing unreachable.
//! 3. Request timestamps are Lamport timestamps with node-id tie-break.
//! 4. A failed search still broadcasts `ACQUISITION(1, i, −1)` (here
//!    `ch = None`) so responders decrement `waiting_i` — as in the
//!    pseudocode, whose `case 3` does not test `r ∈ Spectrum`.
//! 5. `mode = 2` nodes reject younger update requests regardless of the
//!    requested channel (pseudocode) unless
//!    [`AdaptiveConfig::strict_mode2_reject`] is `false`, which
//!    restricts rejection to conflicts on the same channel (prose).
//! 6. `check_mode()` runs after *every* deallocation, not only in the
//!    borrowing branch of Figure 9 (the figure's indentation is
//!    ambiguous; running it unconditionally can only make mode switches
//!    timelier and does not change the protocol's messages otherwise).

use crate::config::{AdaptiveConfig, Mutation};
use crate::lamport::{LamportClock, Timestamp};
use crate::mask::RegionMask;
use crate::nfc::NfcWindow;
use crate::queue::CallQueue;
use crate::view::NeighborView;
use adca_hexgrid::{CellId, Channel, ChannelSet, Spectrum, Topology};
use adca_simkit::sm::{Effects, StateMachine};
use adca_simkit::trace::{AcqPath, RoundKind, TraceEvent};
use adca_simkit::{DropCause, RequestId, RequestKind, RunInput, SimTime};
use std::collections::{BTreeSet, VecDeque};

#[cfg(test)]
mod tests;
#[cfg(test)]
mod unit_tests;

/// The node's allocation mode (`mode_i` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// `0`: serving from the primary set, no coordination.
    Local,
    /// `1`: borrowing-capable, no request in flight.
    Borrowing,
    /// `2`: borrowing with a pending update request.
    BorrowUpdate,
    /// `3`: borrowing with a pending search request.
    BorrowSearch,
}

impl Mode {
    /// The paper's numeric mode (`0`–`3`), as carried by trace events.
    pub fn index(self) -> u8 {
        match self {
            Mode::Local => 0,
            Mode::Borrowing => 1,
            Mode::BorrowUpdate => 2,
            Mode::BorrowSearch => 3,
        }
    }
}

/// Wire messages of the adaptive protocol (Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AdaptiveMsg {
    /// `REQUEST(req_type, r, ts_j, j)`: `update = Some(r)` is an update
    /// request for channel `r`; `update = None` is a search request.
    Request {
        /// The channel to borrow (update) or `None` (search).
        update: Option<Channel>,
        /// The requester's timestamp.
        ts: Timestamp,
        /// The requester's round sequence number, echoed in the
        /// response. Retries of one round reuse it; successive rounds of
        /// one attempt increment it. With hardening on, the requester
        /// discards responses whose `(ts, round)` echo mismatches its
        /// live round — a response to an abandoned round must not be
        /// credited to the current one (its snapshot may predate a
        /// concurrent acquisition).
        round: u32,
    },
    /// `RESPONSE(0, j, r)`: update request for `r` rejected.
    Reject {
        /// The channel that was refused.
        ch: Channel,
        /// Echo of the request's timestamp.
        ts: Timestamp,
        /// Echo of the request's round number.
        round: u32,
    },
    /// `RESPONSE(1, j, r)`: update request for `r` granted.
    Grant {
        /// The channel that was granted.
        ch: Channel,
        /// Echo of the request's timestamp.
        ts: Timestamp,
        /// Echo of the request's round number.
        round: u32,
    },
    /// `RESPONSE(2, j, Use_j)`: reply to a search request.
    SearchUse {
        /// The responder's full use set.
        used: ChannelSet,
        /// Echo of the request's timestamp.
        ts: Timestamp,
        /// Echo of the request's round number.
        round: u32,
    },
    /// `RESPONSE(3, j, Use_j)`: status reply to a `CHANGE_MODE`.
    Status {
        /// The responder's full use set.
        used: ChannelSet,
    },
    /// Defer acknowledgement (hardening extension, not in the paper):
    /// sent in place of an immediate response when the request lands in
    /// `DeferQ_i`. Deferral legitimately outlasts any fixed deadline —
    /// the response waits on the responder's own older attempt, which
    /// may itself be deferred behind others — so without this signal
    /// the requester cannot tell "deferred" from "lost" and burns its
    /// retry budget on live rounds. On a matching echo the requester
    /// resets that budget; exhaustion then means α *silent* deadlines.
    Busy {
        /// Echo of the request's timestamp.
        ts: Timestamp,
        /// Echo of the request's round number.
        round: u32,
    },
    /// `CHANGE_MODE(mode, j)`.
    ChangeMode {
        /// `true` = the sender entered borrowing mode.
        borrowing: bool,
    },
    /// `RELEASE(j, r)`.
    Release {
        /// The freed channel.
        ch: Channel,
    },
    /// `ACQUISITION(acq_type, j, r)`; `ch = None` encodes the paper's
    /// `r = −1` after a failed search.
    Acquisition {
        /// `true` = acquired through the search procedure.
        search: bool,
        /// The acquired channel, or `None` for a failed search.
        ch: Option<Channel>,
    },
}

/// A request deferred for later response (`DeferQ_i`). The requester's
/// `(ts, round)` tags are stored so the eventual response echoes them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Deferred {
    /// A deferred update request for a channel.
    Update {
        from: CellId,
        ch: Channel,
        ts: Timestamp,
        round: u32,
    },
    /// A deferred search request.
    Search {
        from: CellId,
        ts: Timestamp,
        round: u32,
    },
}

impl Deferred {
    fn sender(&self) -> CellId {
        match self {
            Deferred::Update { from, .. } | Deferred::Search { from, .. } => *from,
        }
    }
}

/// How the current acquisition attempt is waiting.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Phase {
    /// Local mode, blocked on `waiting_i = 0`.
    WaitQuiet,
    /// Waiting for `RESPONSE(3)` from every region member after the
    /// local→borrowing transition.
    AwaitStatus { remaining: RegionMask },
    /// A borrowing-update round for channel `ch`.
    Update {
        ch: Channel,
        remaining: RegionMask,
        granted: Vec<CellId>,
        rejected: bool,
    },
    /// A borrowing-search round.
    Search { remaining: RegionMask },
}

/// How an acquisition was ultimately satisfied (for the ξ metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    Local,
    Update,
    Search,
}

/// The in-flight acquisition attempt (at most one per node).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Attempt {
    req: RequestId,
    ts: Timestamp,
    /// When the attempt began service (excludes MSS queueing time;
    /// this is the protocol latency the paper's Section 5 analyzes).
    started: adca_simkit::SimTime,
    phase: Phase,
    /// Deadline expiries consumed by the *current* phase (reset on every
    /// phase entry); capped at `α` before the phase degrades.
    retries: u32,
    /// Round sequence number within this attempt, carried by the round's
    /// requests and echoed by responses (see [`AdaptiveMsg::Request`]).
    round_seq: u32,
}

/// One mobile service station running the adaptive scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdaptiveNode {
    cfg: RunInput<AdaptiveConfig>,
    me: CellId,
    spectrum: RunInput<Spectrum>,
    /// The shared system model: `PR_j` and `IN_j` of region members,
    /// for `Best()`.
    topo: RunInput<Topology>,
    /// `PR_i`.
    pr: RunInput<ChannelSet>,
    /// `Use_i`.
    used: ChannelSet,
    /// `U_j` and derived `I_i`; its `members()` is `IN_i`, sorted.
    view: NeighborView,
    /// `NFC_i`.
    nfc: NfcWindow,
    /// `mode_i`.
    mode: Mode,
    /// `UpdateS_i`.
    update_subs: BTreeSet<CellId>,
    /// `DeferQ_i`.
    defer_q: VecDeque<Deferred>,
    /// The searchers we answered and still owe an `ACQUISITION(1)`.
    /// `owed.len()` is the paper's `waiting_i`; carrying the identities
    /// (not just the count) makes the gate robust to duplicated or
    /// retried search requests — a repeat from a cell already in `owed`
    /// is re-answered without double-counting. Each entry also records
    /// the searcher's request timestamp and the answer time; with
    /// hardening on they drive two dangling-owe releases (attempts are
    /// serial per cell, so a `Request` from an owed searcher with a
    /// *newer* timestamp proves the gated search concluded and its
    /// `ACQUISITION(1)` was lost; entries older than the quiet bound
    /// are pruned at attempt start) instead of stalling every later
    /// attempt through the full `WaitQuiet` escape deadline.
    owed: Vec<(CellId, Timestamp, SimTime)>,
    /// `rounds` (persists across retries within one attempt).
    rounds: u32,
    clock: LamportClock,
    call_q: CallQueue,
    attempt: Option<Attempt>,
    /// Recovery flag: when set (after a restart or a retry-exhausted
    /// round), the silent `free_primary`/`Best()` fast paths are
    /// bypassed — the view may be stale or empty, so only a full search
    /// round (which resyncs every `U_j`) may pick a channel. Cleared
    /// once a search round concludes.
    force_search: bool,
    /// Monotonic timer tag; `armed` holds the tag of the one live
    /// deadline, so stale timer firings are ignored by tag mismatch.
    timer_epoch: u64,
    armed: Option<u64>,
}

impl AdaptiveNode {
    /// Creates the node for `cell` with the given tunables.
    pub fn new(cell: CellId, topo: &Topology, cfg: AdaptiveConfig) -> Self {
        cfg.validate();
        let region = topo.region(cell);
        RegionMask::assert_fits(cell, region.len());
        AdaptiveNode {
            me: cell,
            spectrum: RunInput::new(topo.spectrum()),
            topo: RunInput::new(topo.clone()),
            pr: RunInput::new(topo.primary(cell).clone()),
            used: topo.spectrum().empty_set(),
            view: NeighborView::new(topo.spectrum(), region),
            nfc: NfcWindow::new(cfg.window),
            mode: Mode::Local,
            update_subs: BTreeSet::new(),
            defer_q: VecDeque::new(),
            owed: Vec::new(),
            rounds: 0,
            clock: LamportClock::new(cell),
            call_q: CallQueue::new(),
            attempt: None,
            force_search: false,
            timer_epoch: 0,
            armed: None,
            cfg: RunInput::new(cfg),
        }
    }

    // ------------------------------------------------------------------
    // Accessors (tests, harness diagnostics)
    // ------------------------------------------------------------------

    /// Current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The cell this node manages.
    pub fn cell(&self) -> CellId {
        self.me
    }

    /// The spectrum this node allocates from.
    pub fn spectrum(&self) -> Spectrum {
        *self.spectrum
    }

    /// Current use set.
    pub fn used(&self) -> &ChannelSet {
        &self.used
    }

    /// Current `waiting_i`.
    pub fn waiting(&self) -> u32 {
        self.owed.len() as u32
    }

    /// Number of deferred requests.
    pub fn deferred(&self) -> usize {
        self.defer_q.len()
    }

    /// Borrowing neighbors this node knows about (`UpdateS_i`).
    pub fn update_subscribers(&self) -> &BTreeSet<CellId> {
        &self.update_subs
    }

    /// Diagnostic description of the in-flight attempt, if any: phase
    /// name, timestamp, and outstanding response count.
    pub fn attempt_summary(&self) -> Option<String> {
        self.attempt.as_ref().map(|a| match &a.phase {
            Phase::WaitQuiet => format!("WaitQuiet ts={}", a.ts),
            Phase::AwaitStatus { remaining } => {
                format!("AwaitStatus ts={} remaining={}", a.ts, remaining.len())
            }
            Phase::Update { ch, remaining, .. } => {
                format!("Update({ch}) ts={} remaining={}", a.ts, remaining.len())
            }
            Phase::Search { remaining } => {
                format!("Search ts={} remaining={}", a.ts, remaining.len())
            }
        })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The timestamp of the node's pending request, if any (`ts_i`).
    fn my_ts(&self) -> Option<Timestamp> {
        self.attempt.as_ref().map(|a| a.ts)
    }

    /// `pending_i`: a local-mode request is blocked on `waiting_i`.
    fn pending(&self) -> bool {
        matches!(
            self.attempt,
            Some(Attempt {
                phase: Phase::WaitQuiet,
                ..
            })
        )
    }

    /// Arms the per-round response deadline (no-op unless
    /// [`AdaptiveConfig::retry_ticks`] is set). The fresh tag invalidates
    /// any previously armed deadline.
    fn arm_retry(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        if let Some(d) = self.cfg.retry_ticks {
            self.timer_epoch += 1;
            self.armed = Some(self.timer_epoch);
            ctx.set_timer(d, self.timer_epoch);
        }
    }

    /// Arms the `WaitQuiet` escape deadline: generous (`d·(α+2)` ticks),
    /// because the gate normally clears by itself and the timer only
    /// covers a lost `ACQUISITION(1)` notice.
    fn arm_quiet(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        if let Some(d) = self.cfg.retry_ticks {
            self.timer_epoch += 1;
            self.armed = Some(self.timer_epoch);
            ctx.set_timer(d * (u64::from(self.cfg.alpha) + 2), self.timer_epoch);
        }
    }

    /// Records the owe for an answered search from `from` with request
    /// timestamp `ts`. Returns `true` if an entry for `from` already
    /// existed (a duplicated or retried request); a newer `ts` refreshes
    /// the stored tags so the dangling-owe releases track the
    /// requester's *latest* search.
    fn owe_push(&mut self, from: CellId, ts: Timestamp, now: SimTime) -> bool {
        if let Some(e) = self.owed.iter_mut().find(|e| e.0 == from) {
            if e.1 < ts {
                e.1 = ts;
                e.2 = now;
            }
            true
        } else {
            self.owed.push((from, ts, now));
            false
        }
    }

    /// Queues `d`, or — if its requester already has an entry (a retry,
    /// a duplicate, or a degraded follow-up round while deferred) —
    /// replaces that entry so the drain answers the requester's *latest*
    /// round. Returns `true` when an entry was replaced. One entry per
    /// requester keeps the drain from double-pushing `owed`.
    fn defer_upsert(&mut self, d: Deferred) -> bool {
        let from = d.sender();
        if let Some(slot) = self.defer_q.iter_mut().find(|e| e.sender() == from) {
            *slot = d;
            true
        } else {
            self.defer_q.push_back(d);
            false
        }
    }

    /// The first free channel by local knowledge, if any:
    /// `min(Spectrum − (Use_i ∪ I_i))`. Fused so the per-event hot path
    /// allocates nothing.
    fn first_free(&self) -> Option<Channel> {
        self.used.first_absent(self.view.interference())
    }

    /// A free channel from the primary set, if any:
    /// `PR_i − (Use_i ∪ I_i)`.
    fn free_primary(&self) -> Option<Channel> {
        self.pr
            .first_excluding(&self.used, self.view.interference())
    }

    /// Figure 6's `check_mode()`.
    fn check_mode(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        let s = self
            .pr
            .count_excluding(&self.used, self.view.interference()) as u32;
        let now = ctx.now();
        self.nfc.record(now, s);
        let next = self.nfc.predict(now, s, self.cfg.t_latency);
        if self.mode == Mode::Local && next < self.cfg.theta_l {
            self.mode = Mode::Borrowing;
            ctx.count("mode_to_borrowing");
            let me = self.me;
            ctx.trace_with(|| TraceEvent::ModeTransition {
                cell: me,
                from_mode: 0,
                to_mode: 1,
                cause: "nfc_below_theta_l",
            });
            ctx.trace_with(|| TraceEvent::ChangeModeAnnounce {
                cell: me,
                borrowing: true,
            });
            for &j in self.view.members() {
                ctx.send(j, AdaptiveMsg::ChangeMode { borrowing: true });
            }
        } else if self.mode == Mode::Borrowing && next >= self.cfg.theta_h {
            self.mode = Mode::Local;
            ctx.count("mode_to_local");
            let me = self.me;
            ctx.trace_with(|| TraceEvent::ModeTransition {
                cell: me,
                from_mode: 1,
                to_mode: 0,
                cause: "nfc_above_theta_h",
            });
            ctx.trace_with(|| TraceEvent::ChangeModeAnnounce {
                cell: me,
                borrowing: false,
            });
            for &j in self.view.members() {
                ctx.send(j, AdaptiveMsg::ChangeMode { borrowing: false });
            }
        }
    }

    /// Figure 10's `Best()`: the non-borrowing region member with a
    /// lendable channel and the fewest borrowing neighbors of its own.
    /// Returns the lender and the channel to request (deviation #2:
    /// candidate channels come from the lender's primary set).
    fn best(&self) -> Option<(CellId, Channel)> {
        let mut best: Option<(CellId, Channel)> = None;
        let mut best_bn = usize::MAX;
        for &j in self.view.members() {
            if self.update_subs.contains(&j) {
                continue; // j is itself borrowing
            }
            // PR_j ∩ Free_i = PR_j − Use_i − I_i, fused (no allocation).
            let Some(ch) = self
                .topo
                .primary(j)
                .first_excluding(&self.used, self.view.interference())
            else {
                continue;
            };
            let common_bn = self
                .update_subs
                .iter()
                .filter(|b| self.topo.region(j).contains(b))
                .count();
            if common_bn < best_bn {
                best_bn = common_bn;
                best = Some((j, ch));
            }
        }
        best
    }

    /// Starts serving the head of the call queue if idle.
    fn try_start_next(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        if self.attempt.is_some() {
            return;
        }
        let Some((req, _kind)) = self.call_q.front() else {
            return;
        };
        let ts = self.clock.tick();
        self.rounds = 0;
        self.attempt = Some(Attempt {
            req,
            ts,
            started: ctx.now(),
            phase: Phase::WaitQuiet, // placeholder; request_channel sets it
            retries: 0,
            round_seq: 0,
        });
        self.request_channel(ctx);
    }

    /// Figure 2's `Request_Channel`, entered with `self.attempt` set.
    /// Re-entered on retries (same timestamp, `rounds` preserved).
    fn request_channel(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        debug_assert!(self.attempt.is_some());
        // Whatever phase deadline was armed, this entry supersedes it.
        self.armed = None;
        if let Some(d) = self.cfg.retry_ticks {
            // Entries older than the quiet bound are dangling: the
            // searcher's round is deadline-bounded, so its
            // `ACQUISITION(1)` should long since have arrived — it was
            // lost (or the searcher crashed). Waiting out `WaitQuiet`
            // would stall *every* later attempt ~2000 ticks apiece
            // (under 10% loss that compounded into million-tick queue
            // tails); instead take the escape action at once — drop the
            // dead owes and resync the possibly-stale view through a
            // forced search round.
            let bound = d * (u64::from(self.cfg.alpha) + 2);
            let now = ctx.now();
            let before = self.owed.len();
            self.owed
                .retain(|&(_, _, t)| now.saturating_since(t) < bound);
            if self.owed.len() < before {
                ctx.count("owed_pruned");
                self.force_search = true;
            }
        }
        if !self.owed.is_empty() && self.cfg.mutation != Some(Mutation::SkipOweGate) {
            // wait UNTIL waiting_i = 0. The paper gates only the local
            // branch on `waiting_i`, but the silent free-primary
            // acquisition in the borrowing branch is equally racy: a
            // searcher holding our pre-acquisition Use snapshot may pick
            // the same primary channel. Gating both branches closes the
            // hole (documented deviation #7); progress is preserved
            // because every answered search terminates with an
            // ACQUISITION broadcast, which resumes us.
            if self.cfg.retry_ticks.is_some() {
                // Hardened: don't stall. Only the *silent* grabs race
                // with pending searchers — visible rounds serialize
                // against them through timestamp deferral (an older
                // searcher defers our request until it has picked; a
                // younger one cannot conclude until we answer it). At
                // high load the owe list is replenished faster than it
                // drains, so waiting for it to empty turns every
                // deadline into a full `WaitQuiet` escape; route the
                // attempt through a resync search instead.
                ctx.count("gate_bypass_searches");
                self.force_search = true;
            } else {
                // Unhardened (the scheme as published): block. Under
                // message loss the resuming broadcast may never arrive;
                // `arm_quiet` is the escape hatch.
                self.attempt.as_mut().expect("attempt set").phase = Phase::WaitQuiet;
                self.arm_quiet(ctx);
                return;
            }
        }
        if self.mode == Mode::Local {
            if self.force_search {
                // Recovery from local mode: the view is not trustworthy,
                // so neither the silent primary grab nor an update round
                // is safe. Announce borrowing mode explicitly (so region
                // members subscribe us) and take the status round into a
                // forced search.
                self.mode = Mode::Borrowing;
                ctx.count("forced_borrowing");
                let me = self.me;
                ctx.trace_with(|| TraceEvent::ModeTransition {
                    cell: me,
                    from_mode: 0,
                    to_mode: 1,
                    cause: "forced_resync",
                });
                ctx.trace_with(|| TraceEvent::ChangeModeAnnounce {
                    cell: me,
                    borrowing: true,
                });
                for &j in self.view.members() {
                    ctx.send(j, AdaptiveMsg::ChangeMode { borrowing: true });
                }
            } else {
                if let Some(r) = self.free_primary() {
                    self.complete(Some(r), Via::Local, DropCause::Blocked, ctx);
                    return;
                }
                // Out of primaries: check_mode necessarily switches to
                // borrowing (s = 0 ⇒ predicted ≤ 0 < θ_l) and announces
                // it; then wait for a status snapshot from the region.
                self.check_mode(ctx);
                debug_assert!(
                    self.mode == Mode::Borrowing,
                    "θ_l ≥ 1 guarantees the switch when no primary is free"
                );
            }
            let remaining = RegionMask::full(self.view.members().len());
            if remaining.is_empty() {
                // Degenerate single-cell system: retry immediately in
                // borrowing mode.
                self.request_channel(ctx);
                return;
            }
            let a = self.attempt.as_mut().expect("attempt set");
            a.phase = Phase::AwaitStatus { remaining };
            a.retries = 0;
            a.round_seq += 1;
            self.arm_retry(ctx);
            return;
        }
        // Borrowing mode (mode = 1 on entry; 2/3 are transient while a
        // round is in flight and never re-enter here).
        debug_assert_eq!(self.mode, Mode::Borrowing);
        if !self.force_search {
            if let Some(r) = self.free_primary() {
                self.complete(Some(r), Via::Local, DropCause::Blocked, ctx);
                return;
            }
            self.rounds += 1;
            if self.rounds <= self.cfg.alpha {
                if let Some((lender, ch)) = self.best() {
                    // Borrowing-update round: ask the whole region for
                    // permission to use `ch`.
                    self.mode = Mode::BorrowUpdate;
                    ctx.count("update_rounds_started");
                    let me = self.me;
                    let attempt_no = self.rounds;
                    ctx.trace_with(|| TraceEvent::ModeTransition {
                        cell: me,
                        from_mode: 1,
                        to_mode: 2,
                        cause: "update_round",
                    });
                    ctx.trace_with(|| TraceEvent::BorrowAttempt {
                        cell: me,
                        lender,
                        ch,
                        attempt: attempt_no,
                    });
                    ctx.trace_with(|| TraceEvent::RoundStart {
                        cell: me,
                        kind: RoundKind::Update,
                    });
                    let (ts, round) = {
                        let a = self.attempt.as_mut().expect("attempt set");
                        a.round_seq += 1;
                        (a.ts, a.round_seq)
                    };
                    let remaining = RegionMask::full(self.view.members().len());
                    for &j in self.view.members() {
                        ctx.send(
                            j,
                            AdaptiveMsg::Request {
                                update: Some(ch),
                                ts,
                                round,
                            },
                        );
                    }
                    let a = self.attempt.as_mut().expect("attempt set");
                    a.phase = Phase::Update {
                        ch,
                        remaining,
                        granted: Vec::with_capacity(remaining.len()),
                        rejected: false,
                    };
                    a.retries = 0;
                    self.arm_retry(ctx);
                    return;
                }
            }
            // No lender (or α exhausted): fall back to a search round.
            let me = self.me;
            let attempts = self.rounds.saturating_sub(1);
            ctx.trace_with(|| TraceEvent::SearchFallback {
                cell: me,
                after_attempts: attempts,
            });
        } else {
            ctx.count("forced_search_rounds");
        }
        self.start_search_round(ctx);
    }

    /// Starts a borrowing-search round for the in-flight attempt
    /// (extracted from `request_channel` so timeout recovery can enter
    /// it directly).
    fn start_search_round(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        let me = self.me;
        let from_mode = self.mode.index();
        self.mode = Mode::BorrowSearch;
        ctx.count("search_rounds_started");
        ctx.trace_with(|| TraceEvent::ModeTransition {
            cell: me,
            from_mode,
            to_mode: 3,
            cause: "search_round",
        });
        ctx.trace_with(|| TraceEvent::RoundStart {
            cell: me,
            kind: RoundKind::Search,
        });
        let (ts, round) = {
            let a = self.attempt.as_mut().expect("attempt set");
            a.round_seq += 1;
            (a.ts, a.round_seq)
        };
        let remaining = RegionMask::full(self.view.members().len());
        if remaining.is_empty() {
            // No interference region at all: anything free locally works
            // (and with nobody to resync from, recovery is trivially
            // complete).
            self.force_search = false;
            let pick = self.first_free();
            match pick {
                Some(r) => self.complete(Some(r), Via::Search, DropCause::Blocked, ctx),
                None => self.complete(None, Via::Search, DropCause::Blocked, ctx),
            }
            return;
        }
        for &j in self.view.members() {
            ctx.send(
                j,
                AdaptiveMsg::Request {
                    update: None,
                    ts,
                    round,
                },
            );
        }
        let a = self.attempt.as_mut().expect("attempt set");
        a.phase = Phase::Search { remaining };
        a.retries = 0;
        self.arm_retry(ctx);
    }

    /// Figure 3's `acquire(r)` followed by resolving the engine request;
    /// `ch = None` is the failed-search `acquire(−1)`, attributed to
    /// `fail_cause` (ignored on success).
    fn complete(
        &mut self,
        ch: Option<Channel>,
        via: Via,
        fail_cause: DropCause,
        ctx: &mut Effects<AdaptiveMsg>,
    ) {
        let attempt = self.attempt.take().expect("attempt in flight");
        self.armed = None;
        let entry_mode = self.mode;
        let rounds_used = self.rounds;
        if let Some(r) = ch {
            self.used.insert(r);
        }
        self.rounds = 0;
        match entry_mode {
            Mode::Local | Mode::Borrowing => {
                // ACQUISITION(0, i, r) to the borrowing subscribers. The
                // subscriber count at acquisition time is the paper's
                // N_borrow, sampled here for the Table 1 comparison.
                ctx.sample("n_borrow_at_acq", self.update_subs.len() as f64);
                if let Some(r) = ch {
                    let subs: Vec<CellId> = self.update_subs.iter().copied().collect();
                    for j in subs {
                        ctx.send(
                            j,
                            AdaptiveMsg::Acquisition {
                                search: false,
                                ch: Some(r),
                            },
                        );
                    }
                }
            }
            Mode::BorrowUpdate => {
                // Granters already learned of the acquisition when they
                // granted; no broadcast (Figure 3, case 2).
                self.mode = Mode::Borrowing;
                let me = self.me;
                ctx.trace_with(|| TraceEvent::ModeTransition {
                    cell: me,
                    from_mode: 2,
                    to_mode: 1,
                    cause: "round_done",
                });
            }
            Mode::BorrowSearch => {
                // ACQUISITION(1, i, r) to the whole region — including the
                // failed-search r = −1 (ch = None) so responders decrement
                // `waiting` (deviation note #4).
                for &j in self.view.members() {
                    ctx.send(j, AdaptiveMsg::Acquisition { search: true, ch });
                }
                self.mode = Mode::Borrowing;
                let me = self.me;
                ctx.trace_with(|| TraceEvent::ModeTransition {
                    cell: me,
                    from_mode: 3,
                    to_mode: 1,
                    cause: "round_done",
                });
            }
        }
        // Drain DeferQ_i.
        let drained = self.defer_q.len() as u32;
        if drained > 0 {
            let me = self.me;
            ctx.trace_with(|| TraceEvent::DeferDrain { cell: me, drained });
        }
        while let Some(d) = self.defer_q.pop_front() {
            match d {
                Deferred::Update {
                    from,
                    ch,
                    ts,
                    round,
                } => {
                    if self.used.contains(ch) {
                        ctx.send(from, AdaptiveMsg::Reject { ch, ts, round });
                    } else {
                        ctx.send(from, AdaptiveMsg::Grant { ch, ts, round });
                        self.view.pledge(from, ch);
                    }
                }
                Deferred::Search { from, ts, round } => {
                    let now = ctx.now();
                    self.owe_push(from, ts, now);
                    ctx.send(
                        from,
                        AdaptiveMsg::SearchUse {
                            used: self.used.clone(),
                            ts,
                            round,
                        },
                    );
                }
            }
        }
        if entry_mode == Mode::Local {
            self.check_mode(ctx);
        }
        // Resolve the engine request and account the acquisition class.
        ctx.sample(
            "attempt_ticks",
            ctx.now().saturating_since(attempt.started) as f64,
        );
        {
            let me = self.me;
            let borrowed = ch.map(|r| !self.pr.contains(r)).unwrap_or(false);
            let path = match via {
                Via::Local => AcqPath::Local,
                Via::Update => AcqPath::Update,
                Via::Search => AcqPath::Search,
            };
            ctx.trace_with(|| TraceEvent::Acquired {
                cell: me,
                ch,
                via: path,
                borrowed,
            });
        }
        match ch {
            Some(r) => {
                match via {
                    Via::Local => ctx.count("acq_local"),
                    Via::Update => {
                        ctx.count("acq_update");
                        // The paper's `m`: update attempts consumed by
                        // this acquisition.
                        ctx.sample("update_attempts", rounds_used as f64);
                    }
                    Via::Search => {
                        ctx.count("acq_search");
                        ctx.sample("rounds_before_search", rounds_used as f64);
                    }
                }
                ctx.grant(attempt.req, r);
            }
            None => {
                ctx.count("acq_failed");
                ctx.reject_with(attempt.req, fail_cause);
            }
        }
        self.call_q.pop();
        self.try_start_next(ctx);
    }

    /// A borrowing-update round concluded (all responses in).
    fn conclude_update(
        &mut self,
        ch: Channel,
        granted: Vec<CellId>,
        rejected: bool,
        ctx: &mut Effects<AdaptiveMsg>,
    ) {
        if !rejected {
            self.complete(Some(ch), Via::Update, DropCause::Blocked, ctx);
            return;
        }
        ctx.count("update_rounds_failed");
        self.mode = Mode::Borrowing;
        let me = self.me;
        ctx.trace_with(|| TraceEvent::ModeTransition {
            cell: me,
            from_mode: 2,
            to_mode: 1,
            cause: "update_rejected",
        });
        if self.cfg.retry_ticks.is_some() {
            // Hardened: a Grant sent to us may have been lost in flight,
            // leaving a pledge (`U_i ∋ ch`) at a granter not in our
            // `granted` list. Release to the whole region — `clear_used`
            // is an idempotent no-op at members who pledged nothing.
            for &j in self.view.members() {
                ctx.send(j, AdaptiveMsg::Release { ch });
            }
        } else {
            for j in granted {
                ctx.send(j, AdaptiveMsg::Release { ch });
                // The granter recorded `U_i ∋ ch`; the release clears it.
            }
        }
        self.request_channel(ctx);
    }

    /// A borrowing-search round concluded (all `U_j` collected).
    fn conclude_search(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        // Every region member just reported its authoritative `U_j`, so
        // the view is fully resynced: recovery (if any) is done.
        self.force_search = false;
        // Free_i = Spectrum − Use_i − ∪_j U_j; the view was refreshed by
        // the SearchUse responses.
        let pick = self.first_free();
        match pick {
            Some(r) => self.complete(Some(r), Via::Search, DropCause::Blocked, ctx),
            None => self.complete(None, Via::Search, DropCause::Blocked, ctx),
        }
    }

    /// Figure 4: `Receive_Request(req_type, r, TS, j)`, update flavor.
    /// `round` is the requester's round tag, echoed verbatim.
    fn on_update_request(
        &mut self,
        from: CellId,
        ch: Channel,
        ts: Timestamp,
        round: u32,
        ctx: &mut Effects<AdaptiveMsg>,
    ) {
        match self.mode {
            Mode::Local | Mode::Borrowing => {
                if self.used.contains(ch) {
                    ctx.send(from, AdaptiveMsg::Reject { ch, ts, round });
                } else {
                    ctx.send(from, AdaptiveMsg::Grant { ch, ts, round });
                    self.view.pledge(from, ch);
                    self.check_mode(ctx);
                }
            }
            Mode::BorrowUpdate => {
                let my_ts = self.my_ts().expect("mode 2 implies pending update");
                let conflict = if self.cfg.strict_mode2_reject {
                    my_ts < ts
                } else {
                    // Prose variant: only a race on the same channel is
                    // rejected by timestamp order.
                    my_ts < ts
                        && matches!(
                            self.attempt.as_ref().map(|a| &a.phase),
                            Some(Phase::Update { ch: mine, .. }) if *mine == ch
                        )
                };
                if self.used.contains(ch) || conflict {
                    ctx.send(from, AdaptiveMsg::Reject { ch, ts, round });
                } else {
                    ctx.send(from, AdaptiveMsg::Grant { ch, ts, round });
                    self.view.pledge(from, ch);
                    self.check_mode(ctx);
                }
            }
            Mode::BorrowSearch => {
                let my_ts = self.my_ts().expect("mode 3 implies pending search");
                if my_ts < ts {
                    if self.defer_upsert(Deferred::Update {
                        from,
                        ch,
                        ts,
                        round,
                    }) {
                        ctx.count("duplicate_deferred_reqs");
                    } else {
                        ctx.count("deferred_update_reqs");
                        let me = self.me;
                        ctx.trace_with(|| TraceEvent::Defer {
                            cell: me,
                            requester: from,
                            kind: RoundKind::Update,
                        });
                    }
                    if self.cfg.retry_ticks.is_some() {
                        ctx.send(from, AdaptiveMsg::Busy { ts, round });
                    }
                } else {
                    // An older request than our search: answer now. (It
                    // cannot be granted a channel we hold.)
                    if self.used.contains(ch) {
                        ctx.send(from, AdaptiveMsg::Reject { ch, ts, round });
                    } else {
                        ctx.send(from, AdaptiveMsg::Grant { ch, ts, round });
                        self.view.pledge(from, ch);
                        self.check_mode(ctx);
                    }
                }
            }
        }
    }

    /// Figure 4: `Receive_Request`, search flavor.
    /// Unified deferral rule: defer iff we have *any* in-flight attempt
    /// older than the incoming request. This is exactly the paper's rule
    /// for local mode (`pending_i ∧ ts_i < TS`) and for modes 2/3 — and
    /// its necessary completion for mode 1, where deviation #7's
    /// `WaitQuiet` gate can leave a pending attempt. Responding to a
    /// *younger* search while pending creates a wait-for edge with no
    /// timestamp order behind it, and a three-party cycle
    /// (owes → withheld-by → withheld-by) then deadlocks — observed in
    /// simulation before this rule. With it every "owes" edge points to
    /// an older request and Theorem 2's descending-timestamp argument
    /// goes through again. (In the paper's blocking formulation a mode-1
    /// node never has a pending request, so the case is simply absent.)
    fn on_search_request(
        &mut self,
        from: CellId,
        ts: Timestamp,
        round: u32,
        ctx: &mut Effects<AdaptiveMsg>,
    ) {
        let defer = self.attempt.as_ref().is_some_and(|a| a.ts < ts);
        if defer {
            if self.defer_upsert(Deferred::Search { from, ts, round }) {
                ctx.count("duplicate_deferred_reqs");
            } else {
                ctx.count("deferred_search_reqs");
                let me = self.me;
                ctx.trace_with(|| TraceEvent::Defer {
                    cell: me,
                    requester: from,
                    kind: RoundKind::Search,
                });
            }
            if self.cfg.retry_ticks.is_some() {
                ctx.send(from, AdaptiveMsg::Busy { ts, round });
            }
        } else {
            let now = ctx.now();
            if self.owe_push(from, ts, now) {
                // A duplicated or retried request whose ACQUISITION we
                // still await: answer again, don't double-count the owe.
                ctx.count("search_reqs_reanswered");
            }
            ctx.send(
                from,
                AdaptiveMsg::SearchUse {
                    used: self.used.clone(),
                    ts,
                    round,
                },
            );
        }
    }

    /// Routes a `RESPONSE` to the in-flight attempt.
    fn on_response(&mut self, from: CellId, msg: AdaptiveMsg, ctx: &mut Effects<AdaptiveMsg>) {
        // View updates happen regardless of attempt bookkeeping: both
        // SearchUse and Status carry authoritative `Use_j` snapshots.
        match &msg {
            AdaptiveMsg::SearchUse { used, .. } | AdaptiveMsg::Status { used } => {
                self.view.replace(from, used);
            }
            _ => {}
        }
        // Hardened runs discard responses whose `(ts, round)` echo does
        // not match the live round: a late answer to an abandoned round
        // may predate a concurrent acquisition the current round must
        // hear about (the view refresh above is still taken — it is the
        // freshest in-order knowledge from that link). Unhardened runs
        // keep the original lax matching bit-for-bit.
        let strict = self.cfg.retry_ticks.is_some();
        enum Done {
            Nothing,
            Stale,
            Update {
                ch: Channel,
                granted: Vec<CellId>,
                rejected: bool,
            },
            Search,
            StatusComplete,
        }
        // `None` means a response from outside the region: a no-op on
        // `remaining`.
        let from_slot = self.view.slot(from);
        // Any credited response is a progress signal: with hardening on
        // it resets the retry budget, so exhaustion means α consecutive
        // deadlines with *no* signal for the live round (genuine loss or
        // a dead peer), never a slow-but-advancing round. Unobservable
        // unhardened (the budget is only read when timers arm).
        let mut progress = false;
        let done = {
            let Some(attempt) = self.attempt.as_mut() else {
                // No attempt in flight: Status/SearchUse were pure view
                // refreshes; a Grant/Reject here would be a protocol bug.
                if matches!(msg, AdaptiveMsg::Grant { .. } | AdaptiveMsg::Reject { .. }) {
                    ctx.count("stale_responses");
                }
                return;
            };
            let a_ts = attempt.ts;
            let a_round = attempt.round_seq;
            match (&mut attempt.phase, &msg) {
                (
                    Phase::Update {
                        ch,
                        remaining,
                        granted,
                        rejected,
                    },
                    AdaptiveMsg::Grant {
                        ch: rch,
                        ts: rts,
                        round: rround,
                    },
                ) if *ch == *rch && (!strict || (*rts == a_ts && *rround == a_round)) => {
                    if from_slot.is_some_and(|i| remaining.remove(i)) {
                        granted.push(from);
                        progress = true;
                    }
                    if remaining.is_empty() {
                        Done::Update {
                            ch: *ch,
                            granted: std::mem::take(granted),
                            rejected: *rejected,
                        }
                    } else {
                        Done::Nothing
                    }
                }
                (
                    Phase::Update {
                        ch,
                        remaining,
                        granted,
                        rejected,
                    },
                    AdaptiveMsg::Reject {
                        ch: rch,
                        ts: rts,
                        round: rround,
                    },
                ) if *ch == *rch && (!strict || (*rts == a_ts && *rround == a_round)) => {
                    if let Some(i) = from_slot {
                        progress |= remaining.remove(i);
                    }
                    *rejected = true;
                    if remaining.is_empty() {
                        Done::Update {
                            ch: *ch,
                            granted: std::mem::take(granted),
                            rejected: *rejected,
                        }
                    } else {
                        Done::Nothing
                    }
                }
                (
                    Phase::Search { .. },
                    AdaptiveMsg::SearchUse {
                        ts: rts,
                        round: rround,
                        ..
                    },
                ) if strict && (*rts != a_ts || *rround != a_round) => Done::Stale,
                (Phase::Search { remaining }, AdaptiveMsg::SearchUse { .. }) => {
                    if let Some(i) = from_slot {
                        progress |= remaining.remove(i);
                    }
                    if remaining.is_empty() {
                        Done::Search
                    } else {
                        Done::Nothing
                    }
                }
                (Phase::AwaitStatus { remaining }, AdaptiveMsg::Status { .. }) => {
                    if let Some(i) = from_slot {
                        progress |= remaining.remove(i);
                    }
                    if remaining.is_empty() {
                        Done::StatusComplete
                    } else {
                        Done::Nothing
                    }
                }
                // Status/SearchUse outside their phases are pure view
                // refreshes (replies to CHANGE_MODE from check_mode, or
                // late but harmless snapshots).
                (_, AdaptiveMsg::Status { .. }) | (_, AdaptiveMsg::SearchUse { .. }) => {
                    Done::Nothing
                }
                _ => Done::Stale,
            }
        };
        if progress {
            if let Some(a) = self.attempt.as_mut() {
                a.retries = 0;
            }
        }
        match done {
            Done::Nothing => {}
            Done::Stale => ctx.count("stale_responses"),
            Done::Update {
                ch,
                granted,
                rejected,
            } => self.conclude_update(ch, granted, rejected, ctx),
            Done::Search => self.conclude_search(ctx),
            Done::StatusComplete => self.request_channel(ctx),
        }
    }
}

impl StateMachine for AdaptiveNode {
    type Msg = AdaptiveMsg;

    fn msg_kind(msg: &AdaptiveMsg) -> &'static str {
        match msg {
            AdaptiveMsg::Request { .. } => "REQUEST",
            AdaptiveMsg::Reject { .. }
            | AdaptiveMsg::Grant { .. }
            | AdaptiveMsg::SearchUse { .. }
            | AdaptiveMsg::Status { .. } => "RESPONSE",
            AdaptiveMsg::Busy { .. } => "BUSY",
            AdaptiveMsg::ChangeMode { .. } => "CHANGE_MODE",
            AdaptiveMsg::Release { .. } => "RELEASE",
            AdaptiveMsg::Acquisition { .. } => "ACQUISITION",
        }
    }

    fn start(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        // Seed the NFC history with the initial free-primary count.
        let s = self.pr.len() as u32;
        self.nfc.record(ctx.now(), s);
    }

    fn acquire(&mut self, req: RequestId, kind: RequestKind, ctx: &mut Effects<AdaptiveMsg>) {
        self.call_q.push(req, kind);
        self.try_start_next(ctx);
    }

    fn timer(&mut self, tag: u64, ctx: &mut Effects<AdaptiveMsg>) {
        // Only the most recently armed deadline is live; anything else
        // is a leftover from a phase that already resolved.
        if self.armed != Some(tag) {
            ctx.count("stale_timers");
            return;
        }
        self.armed = None;
        let Some(attempt) = self.attempt.as_mut() else {
            return;
        };
        // Decide under the borrow, act after releasing it.
        enum Act {
            QuietTimeout,
            ResendStatus {
                remaining: RegionMask,
            },
            Resend {
                update: Option<Channel>,
                remaining: RegionMask,
            },
            StatusExhausted,
            UpdateExhausted {
                ch: Channel,
                granted: Vec<CellId>,
            },
            SearchExhausted,
        }
        let retry = attempt.retries < self.cfg.alpha;
        if retry {
            attempt.retries += 1;
        }
        let act = match &mut attempt.phase {
            Phase::WaitQuiet => Act::QuietTimeout,
            Phase::AwaitStatus { remaining } if retry => Act::ResendStatus {
                remaining: *remaining,
            },
            Phase::AwaitStatus { .. } => Act::StatusExhausted,
            Phase::Update { ch, remaining, .. } if retry => Act::Resend {
                update: Some(*ch),
                remaining: *remaining,
            },
            Phase::Update { ch, granted, .. } => Act::UpdateExhausted {
                ch: *ch,
                granted: std::mem::take(granted),
            },
            Phase::Search { remaining } if retry => Act::Resend {
                update: None,
                remaining: *remaining,
            },
            Phase::Search { .. } => Act::SearchExhausted,
        };
        match act {
            Act::QuietTimeout => {
                // The ACQUISITION(1) notice(s) we're gated on were lost
                // (or their sender crashed). Stop gating and recover
                // through a forced search round, which is safe without
                // the gate: it resyncs every `U_j` post-acquisition.
                ctx.count("waitquiet_timeouts");
                self.owed.clear();
                self.force_search = true;
                self.request_channel(ctx);
            }
            Act::ResendStatus { remaining } => {
                ctx.count("status_retries");
                for s in remaining.iter() {
                    let j = self.view.members()[s];
                    ctx.send(j, AdaptiveMsg::ChangeMode { borrowing: true });
                }
                self.arm_retry(ctx);
            }
            Act::Resend { update, remaining } => {
                // Same timestamp on the resend: responders that already
                // answered treat it as a duplicate, and the timestamp
                //-deferral order (the Theorem 1 safety argument) is
                // untouched.
                ctx.count(if update.is_some() {
                    "update_retries"
                } else {
                    "search_retries"
                });
                let (ts, round) = {
                    let a = self.attempt.as_ref().expect("attempt set");
                    (a.ts, a.round_seq)
                };
                for s in remaining.iter() {
                    let j = self.view.members()[s];
                    ctx.send(j, AdaptiveMsg::Request { update, ts, round });
                }
                self.arm_retry(ctx);
            }
            Act::StatusExhausted => {
                // Give up on the full snapshot; a search round refreshes
                // the view with post-acquisition `U_j` sets anyway.
                ctx.count("status_retry_exhausted");
                self.force_search = true;
                self.start_search_round(ctx);
            }
            Act::UpdateExhausted { ch, granted } => {
                // Treat the round as rejected: release pledges and fall
                // back through `request_channel` — with `rounds` pushed
                // past α so it degrades to a search, not another update.
                ctx.count("update_retry_exhausted");
                self.rounds = self.cfg.alpha;
                self.conclude_update(ch, granted, true, ctx);
            }
            Act::SearchExhausted => {
                // Even resends went unanswered: reject the call rather
                // than wedge the node. The region-wide ACQUISITION(1,
                // None) broadcast in `complete` un-gates any responder
                // that did answer.
                ctx.count("search_retry_exhausted");
                self.complete(None, Via::Search, DropCause::RetryExhausted, ctx);
            }
        }
    }

    fn restart(&mut self, ctx: &mut Effects<AdaptiveMsg>) {
        // Everything volatile is lost; the engine already killed our
        // active calls and force-rejected our queued requests, so the
        // empty `Use_i` is consistent with ground truth. The Lamport
        // clock is deliberately NOT reset (treated as stable storage):
        // restarting it at zero would make our recovery request *older*
        // than pre-crash requests still in flight, inverting the
        // timestamp-deferral order that mutual exclusion rests on.
        self.used = self.spectrum.empty_set();
        self.view.clear();
        self.nfc = NfcWindow::new(self.cfg.window);
        let me = self.me;
        let from_mode = self.mode.index();
        ctx.trace_with(|| TraceEvent::ModeTransition {
            cell: me,
            from_mode,
            to_mode: 0,
            cause: "restart",
        });
        self.mode = Mode::Local;
        self.update_subs.clear();
        self.defer_q.clear();
        self.owed.clear();
        self.rounds = 0;
        self.call_q = CallQueue::new();
        self.attempt = None;
        self.armed = None;
        // The view is empty, so a silent free-primary grab could collide
        // with a borrow we pledged pre-crash and no longer remember;
        // route the next acquisition through a full search round.
        self.force_search = true;
        let s = self.pr.len() as u32;
        self.nfc.record(ctx.now(), s);
        ctx.count("protocol_restarts");
    }

    fn release(&mut self, ch: Channel, ctx: &mut Effects<AdaptiveMsg>) {
        // Figure 9: Deallocate(r).
        let was_used = self.used.remove(ch);
        debug_assert!(was_used, "released channel {ch} not in Use_i");
        let me = self.me;
        let borrowed = !self.pr.contains(ch);
        ctx.trace_with(|| TraceEvent::Released {
            cell: me,
            ch,
            borrowed,
        });
        if self.mode == Mode::Local {
            let subs: Vec<CellId> = self.update_subs.iter().copied().collect();
            for j in subs {
                ctx.send(j, AdaptiveMsg::Release { ch });
            }
        } else {
            for &j in self.view.members() {
                ctx.send(j, AdaptiveMsg::Release { ch });
            }
        }
        self.check_mode(ctx);
    }

    fn message(&mut self, from: CellId, msg: AdaptiveMsg, ctx: &mut Effects<AdaptiveMsg>) {
        match msg {
            AdaptiveMsg::Request { update, ts, round } => {
                self.clock.observe(ts);
                // Dangling-owe release (hardening only): attempts are
                // serial per cell, so a request from an owed searcher
                // with a *newer* timestamp proves the search we gated on
                // concluded and its `ACQUISITION(1)` notice was lost
                // (per-link FIFO: had it been sent and delivered, it
                // would have arrived first). Without this, one lost
                // notice holds every later attempt in `WaitQuiet` for
                // the full escape deadline — under 10% loss those stalls
                // compounded into million-tick queue tails.
                if self.cfg.retry_ticks.is_some() {
                    if let Some(pos) = self.owed.iter().position(|e| e.0 == from && e.1 < ts) {
                        self.owed.swap_remove(pos);
                        ctx.count("owed_undangled");
                        // The lost notice named the channel the searcher
                        // took, so our view is stale: a silent primary
                        // grab could pick that very channel. Route the
                        // next acquisition through a resync search, as
                        // the `WaitQuiet` escape does.
                        self.force_search = true;
                        if self.owed.is_empty() && self.pending() {
                            self.request_channel(ctx);
                        }
                    }
                }
                match update {
                    Some(ch) => self.on_update_request(from, ch, ts, round, ctx),
                    None => self.on_search_request(from, ts, round, ctx),
                }
            }
            AdaptiveMsg::Busy { ts, round } => {
                // A responder parked our request in its defer queue: the
                // round is alive, so the deadline should measure silence,
                // not deferral depth. Reset the retry budget.
                let live = self.attempt.as_mut().filter(|a| {
                    a.ts == ts
                        && a.round_seq == round
                        && matches!(a.phase, Phase::Update { .. } | Phase::Search { .. })
                });
                match live {
                    Some(a) => {
                        a.retries = 0;
                        ctx.count("defer_acks");
                    }
                    None => ctx.count("stale_acks"),
                }
            }
            AdaptiveMsg::ChangeMode { borrowing } => {
                // Figure 5.
                if borrowing {
                    self.update_subs.insert(from);
                } else {
                    self.update_subs.remove(&from);
                }
                ctx.send(
                    from,
                    AdaptiveMsg::Status {
                        used: self.used.clone(),
                    },
                );
            }
            AdaptiveMsg::Release { ch } => {
                // Figure 8.
                self.view.clear_used(from, ch);
                self.check_mode(ctx);
            }
            AdaptiveMsg::Acquisition { search, ch } => {
                // Figure 7.
                if let Some(ch) = ch {
                    self.view.set_used(from, ch);
                    self.check_mode(ctx);
                }
                if search {
                    if let Some(pos) = self.owed.iter().position(|&(j, _, _)| j == from) {
                        self.owed.swap_remove(pos);
                        if self.owed.is_empty() && self.pending() {
                            // The paper's local-mode
                            // `wait UNTIL waiting_i = 0` resumes here.
                            self.request_channel(ctx);
                        }
                    } else {
                        // Duplicate delivery, a notice whose matching
                        // response we never sent (our SearchUse was sent
                        // pre-crash, or the searcher's retry never
                        // reached us), or one that arrived after the
                        // WaitQuiet escape already cleared the owe. In
                        // fault-free runs this is unreachable.
                        ctx.count("unmatched_acquisitions");
                    }
                }
            }
            msg @ (AdaptiveMsg::Reject { .. }
            | AdaptiveMsg::Grant { .. }
            | AdaptiveMsg::SearchUse { .. }
            | AdaptiveMsg::Status { .. }) => {
                self.on_response(from, msg, ctx);
            }
        }
    }
}
