//! Structured, zero-cost-when-disabled protocol tracing.
//!
//! The paper's evaluation (Section 5) is analytic: it predicts *how many*
//! control messages an acquisition costs, but a closed form cannot show
//! *why* a particular run lands where it does — which cells walked the
//! mode `0 → 1 → 2 → 3` ladder, who lent what to whom, or where update
//! rounds fell back to searches. This module records exactly that as a
//! typed event stream:
//!
//! * every message send / delivery / fault-injected loss or duplication
//!   ([`TraceEvent::MsgSend`] and friends, emitted by the engine),
//! * `CHANGE_MODE` announcements and mode transitions with their cause
//!   (emitted by the adaptive scheme),
//! * borrow attempts with the `Best()` lender choice, update-round starts
//!   and the fallback to a timestamp-sequenced search round,
//! * request deferrals (timestamp order) and their later draining,
//! * channel acquisitions/releases with their borrowed-vs-primary flag,
//! * engine-level request resolution (grant latency, drop cause) and
//!   fault-injected crash/recovery.
//!
//! # Cost model
//!
//! Sinks are threaded through the engine as a *type parameter*
//! ([`crate::engine::Engine`]`<P, S>`), so with the default [`NoopSink`]
//! every engine-side trace branch is behind `NoopSink::enabled()` — a
//! constant `false` the optimizer deletes. Protocol-side emissions go
//! through [`crate::Effects::trace_with`], which closes the event
//! construction behind the `enabled()` flag the engine captured at event
//! entry; under a `NoopSink` engine that check is one always-false,
//! perfectly predicted branch per trace point and the event is never
//! built. Either way the
//! event *stream* cannot perturb results: sinks observe the simulation
//! but never touch its RNGs or event ordering, so trace-on and trace-off
//! runs produce equal [`crate::SimReport`]s (pinned by
//! `harness/tests/trace_determinism.rs`).
//!
//! # Sinks
//!
//! * [`NoopSink`] — the default; compiled away.
//! * [`RingSink`] — bounded in-memory ring (keeps the most recent
//!   `capacity` records, counts what it sheds).
//! * [`JsonlSink`] — streams each record as one JSON object per line to
//!   any [`std::io::Write`] (hand-rolled serialization; the workspace
//!   deliberately has no serde).
//!
//! [`CellTimeline`] folds a recorded stream into per-cell observability:
//! mode-occupancy fractions, borrowed-channel inventory, message rates,
//! and an ASCII mode timeline (rendered by the `e13_observability`
//! bench binary).

use crate::time::SimTime;
use adca_hexgrid::{CellId, Channel};
use adca_metrics::StateDwell;
use std::collections::VecDeque;
use std::io::{self, Write};

/// Which round machinery a protocol event belongs to.
///
/// The adaptive scheme (paper §3) first runs compare-and-grant *update*
/// rounds (mode 2, at most `α` attempts) and falls back to a
/// timestamp-sequenced *search* round (mode 3); the baseline schemes use
/// one or the other exclusively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// Compare-and-grant update round (Dong & Lai style; adaptive mode 2).
    Update,
    /// Timestamp-sequenced search round (adaptive mode 3 and the search
    /// baselines).
    Search,
}

impl RoundKind {
    /// Stable lowercase label (used in JSONL output).
    pub fn label(self) -> &'static str {
        match self {
            RoundKind::Update => "update",
            RoundKind::Search => "search",
        }
    }
}

/// How an acquisition was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqPath {
    /// Served from the cell's own primary set `PR_i` (zero messages).
    Local,
    /// Borrowed through an update round (mode 2).
    Update,
    /// Found by a search round (mode 3 / search baselines).
    Search,
}

impl AcqPath {
    /// Stable lowercase label (used in JSONL output).
    pub fn label(self) -> &'static str {
        match self {
            AcqPath::Local => "local",
            AcqPath::Update => "update",
            AcqPath::Search => "search",
        }
    }
}

/// One structured trace event.
///
/// Engine-level variants (`Msg*`, `Granted`, `Rejected`, `Crash`,
/// `Recover`) are emitted by the deterministic engine itself; the rest
/// are emitted by protocol state machines through
/// [`crate::Effects::trace_with`]. Modes are the paper's `mode_i ∈ {0, 1, 2,
/// 3}` (local / borrowing / borrow-update / borrow-search) as a raw `u8`
/// so this crate stays independent of the protocol crates.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A control message was handed to the link layer.
    MsgSend {
        /// Sending cell.
        from: CellId,
        /// Destination cell.
        to: CellId,
        /// Protocol label (`StateMachine::msg_kind`).
        kind: &'static str,
        /// Scheduled delivery time (after latency + FIFO clamp).
        deliver_at: SimTime,
    },
    /// A control message was delivered to its destination.
    MsgRecv {
        /// Sending cell.
        from: CellId,
        /// Receiving cell.
        to: CellId,
        /// Protocol label of the message.
        kind: &'static str,
    },
    /// Fault injection dropped a message in flight.
    MsgLost {
        /// Sending cell.
        from: CellId,
        /// Intended destination.
        to: CellId,
        /// Protocol label of the lost message.
        kind: &'static str,
    },
    /// Fault injection duplicated a message (one extra delivery).
    MsgDup {
        /// Sending cell.
        from: CellId,
        /// Destination cell.
        to: CellId,
        /// Protocol label of the duplicated message.
        kind: &'static str,
    },
    /// A cell moved between modes of the paper's mode ladder.
    ModeTransition {
        /// The cell changing mode.
        cell: CellId,
        /// Mode before the transition.
        from_mode: u8,
        /// Mode after the transition.
        to_mode: u8,
        /// Why (`"nfc_below_theta_l"`, `"nfc_above_theta_h"`,
        /// `"update_round"`, `"search_fallback"`, `"round_done"`, …).
        cause: &'static str,
    },
    /// A `CHANGE_MODE` broadcast to the interference region (paper
    /// §3.2): `borrowing = true` announces entry into borrowing mode.
    ChangeModeAnnounce {
        /// The announcing cell.
        cell: CellId,
        /// `true` = entering borrowing mode, `false` = back to local.
        borrowing: bool,
    },
    /// A borrow attempt chose its lender via `Best()` (fewest borrowing
    /// neighbors) and picked a candidate channel from `PR_lender`.
    BorrowAttempt {
        /// The borrowing cell.
        cell: CellId,
        /// The lender `Best()` selected.
        lender: CellId,
        /// The candidate channel (from the lender's primary set).
        ch: Channel,
        /// 1-based attempt number (bounded by `α`).
        attempt: u32,
    },
    /// A protocol round (update or search) started.
    RoundStart {
        /// The requesting cell.
        cell: CellId,
        /// Update or search machinery.
        kind: RoundKind,
    },
    /// The adaptive scheme exhausted its update budget (or had no viable
    /// lender) and fell back to a search round.
    SearchFallback {
        /// The cell falling back.
        cell: CellId,
        /// Update attempts spent before the fallback.
        after_attempts: u32,
    },
    /// A request was deferred behind an older attempt (timestamp order).
    Defer {
        /// The deferring responder.
        cell: CellId,
        /// Whose request was put on the defer queue.
        requester: CellId,
        /// Which round machinery the deferred request belongs to.
        kind: RoundKind,
    },
    /// A cell answered requests it had previously deferred.
    DeferDrain {
        /// The cell draining its defer queue.
        cell: CellId,
        /// How many deferred requests were answered.
        drained: u32,
    },
    /// A protocol-level acquisition concluded (successfully or not).
    Acquired {
        /// The acquiring cell.
        cell: CellId,
        /// The channel obtained (`None`: the round found nothing).
        ch: Option<Channel>,
        /// How it was satisfied.
        via: AcqPath,
        /// `true` if the channel came from outside the cell's own
        /// primary set `PR_i`.
        borrowed: bool,
    },
    /// A cell released a channel (call ended or handed off).
    Released {
        /// The releasing cell.
        cell: CellId,
        /// The channel released.
        ch: Channel,
        /// `true` if it was a borrowed (non-primary) channel.
        borrowed: bool,
    },
    /// Engine: a request resolved as a grant.
    Granted {
        /// The granting cell.
        cell: CellId,
        /// The granted channel.
        ch: Channel,
        /// Acquisition latency in ticks.
        latency: u64,
    },
    /// Engine: a request resolved as a drop.
    Rejected {
        /// The rejecting cell.
        cell: CellId,
        /// Drop cause label (`"blocked"`, `"retry_exhausted"`,
        /// `"crashed"`).
        cause: &'static str,
    },
    /// Fault injection took a cell down.
    Crash {
        /// The crashed cell.
        cell: CellId,
    },
    /// A crashed cell restarted (volatile state wiped).
    Recover {
        /// The restarted cell.
        cell: CellId,
    },
}

impl TraceEvent {
    /// Stable snake_case discriminant label (the `"ev"` field in JSONL).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::MsgSend { .. } => "msg_send",
            TraceEvent::MsgRecv { .. } => "msg_recv",
            TraceEvent::MsgLost { .. } => "msg_lost",
            TraceEvent::MsgDup { .. } => "msg_dup",
            TraceEvent::ModeTransition { .. } => "mode_transition",
            TraceEvent::ChangeModeAnnounce { .. } => "change_mode",
            TraceEvent::BorrowAttempt { .. } => "borrow_attempt",
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::SearchFallback { .. } => "search_fallback",
            TraceEvent::Defer { .. } => "defer",
            TraceEvent::DeferDrain { .. } => "defer_drain",
            TraceEvent::Acquired { .. } => "acquired",
            TraceEvent::Released { .. } => "released",
            TraceEvent::Granted { .. } => "granted",
            TraceEvent::Rejected { .. } => "rejected",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::Recover { .. } => "recover",
        }
    }
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time the event was recorded at.
    pub at: SimTime,
    /// The event.
    pub ev: TraceEvent,
}

impl TraceRecord {
    /// Renders this record as one line of JSON (no trailing newline).
    ///
    /// Keys: `at` (tick), `ev` (the [`TraceEvent::label`]), then the
    /// variant's fields. Message-kind labels are protocol identifiers
    /// (`"REQUEST"`, `"RESPONSE"`, …) and are escaped defensively.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"at\":");
        s.push_str(&self.at.ticks().to_string());
        s.push_str(",\"ev\":\"");
        s.push_str(self.ev.label());
        s.push('"');
        let num = |s: &mut String, key: &str, v: u64| {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&v.to_string());
        };
        let strf = |s: &mut String, key: &str, v: &str| {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":\"");
            for c in v.chars() {
                match c {
                    '"' => s.push_str("\\\""),
                    '\\' => s.push_str("\\\\"),
                    c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
                    c => s.push(c),
                }
            }
            s.push('"');
        };
        match &self.ev {
            TraceEvent::MsgSend {
                from,
                to,
                kind,
                deliver_at,
            } => {
                num(&mut s, "from", from.0 as u64);
                num(&mut s, "to", to.0 as u64);
                strf(&mut s, "kind", kind);
                num(&mut s, "deliver_at", deliver_at.ticks());
            }
            TraceEvent::MsgRecv { from, to, kind }
            | TraceEvent::MsgLost { from, to, kind }
            | TraceEvent::MsgDup { from, to, kind } => {
                num(&mut s, "from", from.0 as u64);
                num(&mut s, "to", to.0 as u64);
                strf(&mut s, "kind", kind);
            }
            TraceEvent::ModeTransition {
                cell,
                from_mode,
                to_mode,
                cause,
            } => {
                num(&mut s, "cell", cell.0 as u64);
                num(&mut s, "from_mode", *from_mode as u64);
                num(&mut s, "to_mode", *to_mode as u64);
                strf(&mut s, "cause", cause);
            }
            TraceEvent::ChangeModeAnnounce { cell, borrowing } => {
                num(&mut s, "cell", cell.0 as u64);
                s.push_str(",\"borrowing\":");
                s.push_str(if *borrowing { "true" } else { "false" });
            }
            TraceEvent::BorrowAttempt {
                cell,
                lender,
                ch,
                attempt,
            } => {
                num(&mut s, "cell", cell.0 as u64);
                num(&mut s, "lender", lender.0 as u64);
                num(&mut s, "ch", ch.0 as u64);
                num(&mut s, "attempt", *attempt as u64);
            }
            TraceEvent::RoundStart { cell, kind } => {
                num(&mut s, "cell", cell.0 as u64);
                strf(&mut s, "kind", kind.label());
            }
            TraceEvent::SearchFallback {
                cell,
                after_attempts,
            } => {
                num(&mut s, "cell", cell.0 as u64);
                num(&mut s, "after_attempts", *after_attempts as u64);
            }
            TraceEvent::Defer {
                cell,
                requester,
                kind,
            } => {
                num(&mut s, "cell", cell.0 as u64);
                num(&mut s, "requester", requester.0 as u64);
                strf(&mut s, "kind", kind.label());
            }
            TraceEvent::DeferDrain { cell, drained } => {
                num(&mut s, "cell", cell.0 as u64);
                num(&mut s, "drained", *drained as u64);
            }
            TraceEvent::Acquired {
                cell,
                ch,
                via,
                borrowed,
            } => {
                num(&mut s, "cell", cell.0 as u64);
                match ch {
                    Some(ch) => num(&mut s, "ch", ch.0 as u64),
                    None => s.push_str(",\"ch\":null"),
                }
                strf(&mut s, "via", via.label());
                s.push_str(",\"borrowed\":");
                s.push_str(if *borrowed { "true" } else { "false" });
            }
            TraceEvent::Released { cell, ch, borrowed } => {
                num(&mut s, "cell", cell.0 as u64);
                num(&mut s, "ch", ch.0 as u64);
                s.push_str(",\"borrowed\":");
                s.push_str(if *borrowed { "true" } else { "false" });
            }
            TraceEvent::Granted { cell, ch, latency } => {
                num(&mut s, "cell", cell.0 as u64);
                num(&mut s, "ch", ch.0 as u64);
                num(&mut s, "latency", *latency);
            }
            TraceEvent::Rejected { cell, cause } => {
                num(&mut s, "cell", cell.0 as u64);
                strf(&mut s, "cause", cause);
            }
            TraceEvent::Crash { cell } | TraceEvent::Recover { cell } => {
                num(&mut s, "cell", cell.0 as u64);
            }
        }
        s.push('}');
        s
    }
}

/// Destination for trace events.
///
/// Implementations must be *pure observers*: recording an event may not
/// influence the simulation (the engine hands sinks no way to, and the
/// trace-determinism tests pin `SimReport` equality across sinks).
pub trait TraceSink {
    /// Whether events should be constructed and recorded at all. The
    /// engine (and [`crate::Effects::trace_with`]) consult this before
    /// building an event, so a `false` here short-circuits all trace
    /// cost except the check itself.
    fn enabled(&self) -> bool;

    /// Records `ev`, which occurred at virtual time `at`. Never called
    /// when [`TraceSink::enabled`] is `false`.
    fn record(&mut self, at: SimTime, ev: TraceEvent);
}

/// The default sink: traces nothing, costs nothing.
///
/// `enabled()` is a constant `false`; because the engine is generic over
/// its sink, monomorphization deletes every engine-side trace branch
/// outright for `Engine<P, NoopSink>` — the engine binary is the same as
/// if the trace layer did not exist.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _at: SimTime, _ev: TraceEvent) {}
}

/// Bounded in-memory sink: a ring of the most recent `capacity` records.
///
/// When full, the oldest record is shed and counted in
/// [`RingSink::dropped`], so the memory ceiling holds on arbitrarily
/// long runs while the tail — usually the interesting part — survives.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring keeping at most `capacity` records (`capacity = 0` keeps
    /// nothing but still counts drops).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records shed because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning its records oldest-first.
    pub fn into_vec(self) -> Vec<TraceRecord> {
        self.ring.into_iter().collect()
    }
}

impl TraceSink for RingSink {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at: SimTime, ev: TraceEvent) {
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
            if self.capacity == 0 {
                return;
            }
        }
        self.ring.push_back(TraceRecord { at, ev });
    }
}

/// Streaming sink: one JSON object per line to any [`std::io::Write`].
///
/// Serialization is hand-rolled (`TraceRecord::to_json`); the workspace
/// carries no serde. Write errors are deferred: the simulation is never
/// interrupted mid-run, the first error is stored and returned by
/// [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    written: u64,
    err: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Buffer it (`std::io::BufWriter`) for file output.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            written: 0,
            err: None,
        }
    }

    /// Lines successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the writer, or the first deferred I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at: SimTime, ev: TraceEvent) {
        if self.err.is_some() {
            return;
        }
        let line = TraceRecord { at, ev }.to_json();
        match writeln!(self.out, "{line}") {
            Ok(()) => self.written += 1,
            Err(e) => self.err = Some(e),
        }
    }
}

/// Glyph for a mode digit in rendered timelines: `.` local (0), `b`
/// borrowing (1), `U` borrow-update (2), `S` borrow-search (3).
pub fn mode_glyph(mode: u8) -> char {
    match mode {
        0 => '.',
        1 => 'b',
        2 => 'U',
        3 => 'S',
        _ => '?',
    }
}

/// Per-cell observability derived from a trace: mode-occupancy
/// fractions, borrowed-channel inventory, and message rates.
///
/// Built by folding a recorded stream once ([`CellTimeline::build`]);
/// cells start in mode 0 (local) at `t = 0`, matching the protocols.
#[derive(Debug, Clone)]
pub struct CellTimeline {
    n: usize,
    end: SimTime,
    /// Per-cell dwell accumulator over the four modes.
    dwell: Vec<StateDwell>,
    /// Per-cell sparse mode curve: `(transition time, new mode)`.
    curves: Vec<Vec<(SimTime, u8)>>,
    /// Messages sent per cell (from `MsgSend`).
    sent: Vec<u64>,
    /// Messages received per cell (from `MsgRecv`).
    recv: Vec<u64>,
    /// Currently held borrowed channels per cell.
    borrowed_now: Vec<u32>,
    /// Peak simultaneous borrowed channels per cell.
    borrowed_peak: Vec<u32>,
    /// Total borrow acquisitions per cell.
    borrow_acqs: Vec<u64>,
}

impl CellTimeline {
    /// Folds `records` (chronological) into per-cell series for a system
    /// of `num_cells` cells that ran until `end`.
    pub fn build<'a, I>(num_cells: usize, end: SimTime, records: I) -> Self
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        let mut tl = CellTimeline {
            n: num_cells,
            end,
            dwell: (0..num_cells).map(|_| StateDwell::new(4)).collect(),
            curves: vec![Vec::new(); num_cells],
            sent: vec![0; num_cells],
            recv: vec![0; num_cells],
            borrowed_now: vec![0; num_cells],
            borrowed_peak: vec![0; num_cells],
            borrow_acqs: vec![0; num_cells],
        };
        for rec in records {
            match &rec.ev {
                TraceEvent::ModeTransition { cell, to_mode, .. } => {
                    let i = cell.index();
                    tl.dwell[i].transition(rec.at.ticks(), *to_mode as usize);
                    tl.curves[i].push((rec.at, *to_mode));
                }
                TraceEvent::MsgSend { from, .. } => tl.sent[from.index()] += 1,
                TraceEvent::MsgRecv { to, .. } => tl.recv[to.index()] += 1,
                TraceEvent::Acquired {
                    cell,
                    ch: Some(_),
                    borrowed: true,
                    ..
                } => {
                    let i = cell.index();
                    tl.borrow_acqs[i] += 1;
                    tl.borrowed_now[i] += 1;
                    tl.borrowed_peak[i] = tl.borrowed_peak[i].max(tl.borrowed_now[i]);
                }
                TraceEvent::Released {
                    cell,
                    borrowed: true,
                    ..
                } => {
                    let i = cell.index();
                    tl.borrowed_now[i] = tl.borrowed_now[i].saturating_sub(1);
                }
                _ => {}
            }
        }
        for d in &mut tl.dwell {
            d.finish(end.ticks());
        }
        tl
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.n
    }

    /// Fraction of the run `cell` spent in `mode` (0–3).
    pub fn mode_fraction(&self, cell: CellId, mode: u8) -> f64 {
        self.dwell[cell.index()].fraction(mode as usize)
    }

    /// Fraction of the run `cell` spent outside local mode (mode ≠ 0) —
    /// the borrowing-mode occupancy the paper's `N_borrow` averages.
    pub fn borrowing_fraction(&self, cell: CellId) -> f64 {
        1.0 - self.mode_fraction(cell, 0)
    }

    /// Mean of [`CellTimeline::borrowing_fraction`] over all cells.
    pub fn mean_borrowing_fraction(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (0..self.n)
            .map(|i| self.borrowing_fraction(CellId(i as u32)))
            .sum::<f64>()
            / self.n as f64
    }

    /// Messages sent by `cell` over the traced window.
    pub fn msgs_sent(&self, cell: CellId) -> u64 {
        self.sent[cell.index()]
    }

    /// Messages delivered to `cell` over the traced window.
    pub fn msgs_recv(&self, cell: CellId) -> u64 {
        self.recv[cell.index()]
    }

    /// Peak simultaneous borrowed channels held by `cell`.
    pub fn borrowed_peak(&self, cell: CellId) -> u32 {
        self.borrowed_peak[cell.index()]
    }

    /// Borrowed-channel acquisitions by `cell`.
    pub fn borrow_acqs(&self, cell: CellId) -> u64 {
        self.borrow_acqs[cell.index()]
    }

    /// The mode `cell` was in at time `t` according to the trace.
    pub fn mode_at(&self, cell: CellId, t: SimTime) -> u8 {
        let curve = &self.curves[cell.index()];
        match curve.partition_point(|&(at, _)| at <= t) {
            0 => 0, // before any transition: local mode
            k => curve[k - 1].1,
        }
    }

    /// Renders one timeline row for `cell`: `buckets` glyphs, each the
    /// mode that dominated (held the plurality of ticks in) its bucket.
    pub fn render_row(&self, cell: CellId, buckets: usize) -> String {
        let mut row = String::with_capacity(buckets);
        let total = self.end.ticks().max(1);
        for b in 0..buckets {
            let lo = total * b as u64 / buckets as u64;
            let hi = total * (b as u64 + 1) / buckets as u64;
            // Dwell per mode inside [lo, hi): walk the curve segment-wise.
            let mut dwell = [0u64; 4];
            let mut t = lo;
            let mut mode = self.mode_at(cell, SimTime(lo));
            let curve = &self.curves[cell.index()];
            let from = curve.partition_point(|&(at, _)| at.ticks() <= lo);
            for &(at, m) in &curve[from..] {
                if at.ticks() >= hi {
                    break;
                }
                dwell[(mode as usize).min(3)] += at.ticks() - t;
                t = at.ticks();
                mode = m;
            }
            dwell[(mode as usize).min(3)] += hi - t;
            let best = (0..4).max_by_key(|&m| dwell[m]).unwrap_or(0);
            row.push(mode_glyph(best as u8));
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime(at),
            ev,
        }
    }

    #[test]
    fn noop_sink_is_disabled() {
        let s = NoopSink;
        assert!(!s.enabled());
    }

    #[test]
    fn ring_sink_bounds_memory_and_counts_drops() {
        let mut s = RingSink::new(2);
        assert!(s.enabled());
        for i in 0..5 {
            s.record(SimTime(i), TraceEvent::Crash { cell: CellId(0) });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let v = s.into_vec();
        assert_eq!(v[0].at, SimTime(3));
        assert_eq!(v[1].at, SimTime(4));
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut s = RingSink::new(0);
        s.record(SimTime(1), TraceEvent::Crash { cell: CellId(0) });
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(
            SimTime(7),
            TraceEvent::MsgSend {
                from: CellId(1),
                to: CellId(2),
                kind: "REQUEST",
                deliver_at: SimTime(107),
            },
        );
        s.record(
            SimTime(9),
            TraceEvent::Acquired {
                cell: CellId(2),
                ch: None,
                via: AcqPath::Search,
                borrowed: false,
            },
        );
        assert_eq!(s.written(), 2);
        let out = String::from_utf8(s.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"at\":7,\"ev\":\"msg_send\",\"from\":1,\"to\":2,\"kind\":\"REQUEST\",\"deliver_at\":107}"
        );
        assert_eq!(
            lines[1],
            "{\"at\":9,\"ev\":\"acquired\",\"cell\":2,\"ch\":null,\"via\":\"search\",\"borrowed\":false}"
        );
    }

    #[test]
    fn json_escapes_control_and_quote() {
        let r = rec(
            0,
            TraceEvent::Rejected {
                cell: CellId(0),
                cause: "a\"b\\c\n",
            },
        );
        assert!(r.to_json().contains("a\\\"b\\\\c\\u000a"));
    }

    #[test]
    fn timeline_mode_fractions_and_glyphs() {
        let records = [
            rec(
                25,
                TraceEvent::ModeTransition {
                    cell: CellId(0),
                    from_mode: 0,
                    to_mode: 1,
                    cause: "test",
                },
            ),
            rec(
                75,
                TraceEvent::ModeTransition {
                    cell: CellId(0),
                    from_mode: 1,
                    to_mode: 0,
                    cause: "test",
                },
            ),
        ];
        let tl = CellTimeline::build(2, SimTime(100), records.iter());
        assert!((tl.mode_fraction(CellId(0), 0) - 0.5).abs() < 1e-12);
        assert!((tl.mode_fraction(CellId(0), 1) - 0.5).abs() < 1e-12);
        assert!((tl.borrowing_fraction(CellId(1))).abs() < 1e-12);
        assert_eq!(tl.mode_at(CellId(0), SimTime(0)), 0);
        assert_eq!(tl.mode_at(CellId(0), SimTime(30)), 1);
        assert_eq!(tl.mode_at(CellId(0), SimTime(80)), 0);
        // Four buckets of 25 ticks: local, borrowing, borrowing, local.
        assert_eq!(tl.render_row(CellId(0), 4), ".bb.");
        assert_eq!(tl.render_row(CellId(1), 4), "....");
    }

    #[test]
    fn timeline_borrow_inventory() {
        let acq = |at, cell| {
            rec(
                at,
                TraceEvent::Acquired {
                    cell: CellId(cell),
                    ch: Some(Channel(42)),
                    via: AcqPath::Update,
                    borrowed: true,
                },
            )
        };
        let rel = |at, cell| {
            rec(
                at,
                TraceEvent::Released {
                    cell: CellId(cell),
                    ch: Channel(42),
                    borrowed: true,
                },
            )
        };
        let records = [acq(10, 0), acq(20, 0), rel(30, 0), acq(40, 1)];
        let tl = CellTimeline::build(2, SimTime(100), records.iter());
        assert_eq!(tl.borrowed_peak(CellId(0)), 2);
        assert_eq!(tl.borrow_acqs(CellId(0)), 2);
        assert_eq!(tl.borrowed_peak(CellId(1)), 1);
    }
}
