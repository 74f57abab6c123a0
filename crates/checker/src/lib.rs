//! Exhaustive fault-interleaving model checker over the pure protocol
//! core.
//!
//! The DES engine samples *one* schedule per seed; this crate explores
//! *all* of them. It drives the same unmodified protocol transition
//! functions — any node implementing
//! [`adca_simkit::sm::StateMachine`] whose state and messages are
//! [`Hash`] — through a breadth-first
//! enumeration of every message delivery order, message loss, message
//! duplication, timer firing, crash/restart point, and link-partition
//! window reachable within a configurable fault budget, on the small
//! (2–7 cell) topologies where exhaustion is tractable.
//!
//! # Model
//!
//! Virtual time is frozen at 0: what the engine spreads over latency
//! draws, the checker spreads over *orderings*. Concretely a [`Model`]
//! state is
//!
//! * every node, live (a step runs the node's own transition in
//!   place; successors clone it),
//! * one FIFO queue of in-flight messages per directed link (the
//!   engine's per-link FIFO horizon, abstracted from delivery times),
//! * a multiset of armed timers per cell (any armed timer may fire at
//!   any moment — the superset of all latency assignments),
//! * per-cell operation scripts (call arrivals/hang-ups to inject),
//! * crash flags, cut links, and the remaining fault [`Budgets`], and
//! * the ground-truth channel usage, an [`adca_simkit::Ground`] (the
//!   engine's and the production backend's too), maintained from the
//!   grant/release actions the nodes emit.
//!
//! # Checked properties
//!
//! * **Theorem 1 safety** — every `Grant` is audited by
//!   [`Ground::grant`]: the granted channel must be unused in the cell
//!   itself ([`Defect::DoubleAssign`]) and across the granting cell's
//!   interference region ([`Defect::Interference`], naming the
//!   lowest-id user) — the first conflict is the defect.
//! * **Resolution discipline** — every grant/reject must resolve the
//!   cell's outstanding request exactly once ([`Defect::BadResolution`]).
//! * **Deadlock freedom / eventual acquisition** — in every *terminal*
//!   state (no deliverable message, firable timer, pending script op,
//!   crashed cell, or cut link — i.e. the frontier of fair progress
//!   moves is empty), every issued request has been resolved
//!   ([`Defect::Stranded`]). Fault choices (loss, duplication, crash,
//!   cut) are excluded from the fairness frontier: budgets bound them,
//!   so every maximal fair schedule ends in a terminal state.
//!
//! A state is identified by the [`adca_simkit::StateHasher`] digest of
//! its [`Hash`]: each node's, each queued message's, and the rest of the
//! state's. Exploration is breadth-first over those identities, so the
//! first counterexample found is a *shortest* one; it is returned as a
//! replayable [`Schedule`] that [`Model::replay`] re-executes
//! deterministically (unit tests pin that the defect reproduces, and
//! `examples/trace_replay.rs` renders the replay as a trace timeline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adca_hexgrid::{CellId, Channel, Topology};
use adca_simkit::sm::{Action, Effects, Input, StateMachine};
use adca_simkit::{
    Ground, RequestId, RequestKind, SimTime, StateHasher, TraceEvent, TraceRecord, Violation,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One scripted call-level operation at a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A call arrives: issue an `Acquire` for a fresh request. Enabled
    /// only while the cell has no unresolved request (scripts are serial
    /// per cell).
    StartCall,
    /// The cell's *oldest* active call ends: issue a `Release` for its
    /// channel. A no-op (but still consumed) when the preceding call was
    /// rejected, so scripts stay exhaustible on every branch.
    EndCall,
}

/// Remaining fault budget: how many of each fault class the exploration
/// may still inject. All-zero budgets reduce the checker to pure
/// delivery/timer/op interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Budgets {
    /// Messages that may still be lost (`Choice::Drop`).
    pub losses: u32,
    /// Deliveries that may still be duplicated (`Choice::Duplicate`).
    pub dups: u32,
    /// Cells that may still crash (`Choice::Crash`).
    pub crashes: u32,
    /// Links that may still be cut (`Choice::Cut`) — the checker-side
    /// fault class of `FaultPlan::with_partition`.
    pub partitions: u32,
}

impl Budgets {
    /// The all-zero budget: pure interleaving exploration.
    pub fn none() -> Self {
        Budgets::default()
    }
}

/// One scheduling decision — an edge in the exploration graph. A
/// sequence of choices from the initial state is a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the head of the `from → to` queue (discarded while `to`
    /// is crashed, as in the engine).
    Deliver {
        /// Sending cell.
        from: CellId,
        /// Receiving cell.
        to: CellId,
    },
    /// Lose the head of the `from → to` queue (consumes loss budget).
    Drop {
        /// Sending cell.
        from: CellId,
        /// Receiving cell.
        to: CellId,
    },
    /// Deliver the head of the `from → to` queue but keep a copy at the
    /// head — the engine's "copy arrives immediately after the original"
    /// duplication (consumes duplication budget).
    Duplicate {
        /// Sending cell.
        from: CellId,
        /// Receiving cell.
        to: CellId,
    },
    /// Fire one armed `tag` timer at `cell` (discarded while crashed).
    Fire {
        /// The cell whose timer fires.
        cell: CellId,
        /// The timer tag.
        tag: u64,
    },
    /// Inject the cell's next scripted [`Op`].
    Inject {
        /// The cell whose script advances.
        cell: CellId,
    },
    /// Crash `cell`: kill its calls, force-reject its pending request,
    /// start discarding its deliveries/timers (consumes crash budget).
    Crash {
        /// The crashing cell.
        cell: CellId,
    },
    /// Restart a crashed `cell` (drives [`Input::Restart`]).
    Restart {
        /// The restarting cell.
        cell: CellId,
    },
    /// Cut the `a`↔`b` link: sends in both directions are discarded
    /// until healed (consumes partition budget).
    Cut {
        /// One endpoint.
        a: CellId,
        /// The other endpoint.
        b: CellId,
    },
    /// Heal a previously cut link.
    Heal {
        /// One endpoint.
        a: CellId,
        /// The other endpoint.
        b: CellId,
    },
}

impl Choice {
    /// Whether this choice belongs to the *fair progress frontier* —
    /// the moves a fair schedule cannot postpone forever. Fault
    /// injections (loss, duplication, crash, cut) are not progress;
    /// deliveries, timer firings, script ops, restarts, and heals are.
    pub fn is_progress(&self) -> bool {
        !matches!(
            self,
            Choice::Drop { .. }
                | Choice::Duplicate { .. }
                | Choice::Crash { .. }
                | Choice::Cut { .. }
        )
    }
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Deliver { from, to } => write!(f, "deliver {} {}", from.0, to.0),
            Choice::Drop { from, to } => write!(f, "drop {} {}", from.0, to.0),
            Choice::Duplicate { from, to } => write!(f, "dup {} {}", from.0, to.0),
            Choice::Fire { cell, tag } => write!(f, "fire {} {}", cell.0, tag),
            Choice::Inject { cell } => write!(f, "inject {}", cell.0),
            Choice::Crash { cell } => write!(f, "crash {}", cell.0),
            Choice::Restart { cell } => write!(f, "restart {}", cell.0),
            Choice::Cut { a, b } => write!(f, "cut {} {}", a.0, b.0),
            Choice::Heal { a, b } => write!(f, "heal {} {}", a.0, b.0),
        }
    }
}

impl Choice {
    /// Parses the textual form produced by `Display`.
    pub fn parse(line: &str) -> Result<Choice, ScheduleParseError> {
        let mut it = line.split_whitespace();
        let verb = it.next().ok_or(ScheduleParseError::Empty)?;
        let mut arg = |field: &'static str| -> Result<u64, ScheduleParseError> {
            it.next()
                .ok_or(ScheduleParseError::MissingArg(field))?
                .parse::<u64>()
                .map_err(|_| ScheduleParseError::BadArg(field))
        };
        let c = match verb {
            "deliver" => Choice::Deliver {
                from: CellId(arg("from")? as u32),
                to: CellId(arg("to")? as u32),
            },
            "drop" => Choice::Drop {
                from: CellId(arg("from")? as u32),
                to: CellId(arg("to")? as u32),
            },
            "dup" => Choice::Duplicate {
                from: CellId(arg("from")? as u32),
                to: CellId(arg("to")? as u32),
            },
            "fire" => Choice::Fire {
                cell: CellId(arg("cell")? as u32),
                tag: arg("tag")?,
            },
            "inject" => Choice::Inject {
                cell: CellId(arg("cell")? as u32),
            },
            "crash" => Choice::Crash {
                cell: CellId(arg("cell")? as u32),
            },
            "restart" => Choice::Restart {
                cell: CellId(arg("cell")? as u32),
            },
            "cut" => Choice::Cut {
                a: CellId(arg("a")? as u32),
                b: CellId(arg("b")? as u32),
            },
            "heal" => Choice::Heal {
                a: CellId(arg("a")? as u32),
                b: CellId(arg("b")? as u32),
            },
            other => return Err(ScheduleParseError::UnknownVerb(other.to_owned())),
        };
        Ok(c)
    }
}

/// Why a serialized schedule failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleParseError {
    /// A line held no verb.
    Empty,
    /// The verb is not one the checker emits.
    UnknownVerb(String),
    /// A required argument was missing.
    MissingArg(&'static str),
    /// An argument was not a number.
    BadArg(&'static str),
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleParseError::Empty => write!(f, "empty choice line"),
            ScheduleParseError::UnknownVerb(v) => write!(f, "unknown choice verb {v:?}"),
            ScheduleParseError::MissingArg(a) => write!(f, "missing argument <{a}>"),
            ScheduleParseError::BadArg(a) => write!(f, "non-numeric argument <{a}>"),
        }
    }
}

/// A replayable sequence of [`Choice`]s from the initial state — the
/// serialized form of a counterexample (or any explored path).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule(pub Vec<Choice>);

impl Schedule {
    /// Serializes the schedule, one choice per line, with a header
    /// comment. Stable format: [`Schedule::parse`] round-trips it.
    pub fn to_text(&self) -> String {
        let mut s = String::from("# adca-checker schedule v1\n");
        for c in &self.0 {
            s.push_str(&c.to_string());
            s.push('\n');
        }
        s
    }

    /// Parses the textual form (blank lines and `#` comments ignored).
    pub fn parse(text: &str) -> Result<Schedule, ScheduleParseError> {
        let mut out = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.push(Choice::parse(line)?);
        }
        Ok(Schedule(out))
    }

    /// Number of choices.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A property violation the exploration found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Defect {
    /// Theorem 1 violation: `cell` granted `ch` while `other` (in its
    /// interference region) was using it.
    Interference {
        /// The granting cell.
        cell: CellId,
        /// The interfering co-channel user.
        other: CellId,
        /// The channel granted twice within one region.
        ch: Channel,
    },
    /// `cell` granted `ch` while itself already using it.
    DoubleAssign {
        /// The granting cell.
        cell: CellId,
        /// The channel.
        ch: Channel,
    },
    /// A grant/reject did not match the cell's outstanding request
    /// (double resolution or resolution of an unknown request).
    BadResolution {
        /// The resolving cell.
        cell: CellId,
    },
    /// A terminal state left the cell's request unresolved: deadlock /
    /// acquisition-liveness failure under a fair schedule.
    Stranded {
        /// The cell with the unresolved request.
        cell: CellId,
    },
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defect::Interference { cell, other, ch } => write!(
                f,
                "interference: cell {} granted channel {} already in use at region member {}",
                cell.0, ch.0, other.0
            ),
            Defect::DoubleAssign { cell, ch } => write!(
                f,
                "double assignment: cell {} granted channel {} it already uses",
                cell.0, ch.0
            ),
            Defect::BadResolution { cell } => {
                write!(
                    f,
                    "bad resolution: cell {} resolved an unknown or already-resolved request",
                    cell.0
                )
            }
            Defect::Stranded { cell } => write!(
                f,
                "stranded request: terminal state leaves cell {}'s request unresolved",
                cell.0
            ),
        }
    }
}

/// A minimized, replayable counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// What went wrong on the final step (or in the terminal state).
    pub defect: Defect,
    /// Shortest choice sequence from the initial state reproducing it.
    pub schedule: Schedule,
}

/// The result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions taken (including ones leading to already-seen states).
    pub transitions: usize,
    /// Terminal (frontier-empty) states reached.
    pub terminals: usize,
    /// The set of per-cell `(grants, rejects)` acquisition outcomes over
    /// all terminal states — the abstraction the DES cross-validation
    /// suite compares engine runs against.
    pub outcomes: BTreeSet<Vec<(u32, u32)>>,
    /// The first (shortest) violation found, if any. Exploration stops
    /// at the first violation.
    pub violation: Option<Counterexample>,
    /// Whether the state budget was exhausted before the frontier
    /// emptied (the exploration is then a bounded search, not a proof).
    pub truncated: bool,
}

/// The outcome of replaying a [`Schedule`].
#[derive(Debug, Clone)]
pub struct Replay {
    /// The defect the final step produced, if any.
    pub defect: Option<Defect>,
    /// A step-indexed trace timeline of the replay (`at` carries the
    /// schedule position, not virtual time), renderable by the standard
    /// trace tooling (`examples/trace_replay.rs`).
    pub trace: Vec<TraceRecord>,
}

/// A node type the checker can drive: a pure [`StateMachine`] whose
/// state and wire messages are [`Hash`] (the hash is part of a state's
/// identity) and that clones (a successor state owns its nodes) — all
/// six schemes. Blanket-implemented; never implement it by hand.
pub trait CheckNode: StateMachine<Msg: Hash> + Hash + Clone {}

impl<T> CheckNode for T where T: StateMachine<Msg: Hash> + Hash + Clone {}

/// Explorable model: a topology, the nodes as built, per-cell op
/// scripts, and a fault budget.
pub struct Model<N: CheckNode> {
    topo: Arc<Topology>,
    nodes: Vec<N>,
    scripts: Vec<Vec<Op>>,
    budgets: Budgets,
    max_states: usize,
}

/// Checker-internal state: live nodes and live queued messages. Its
/// identity is its [`StateHasher`] digest, not the values' `Eq`.
#[derive(Clone)]
struct State<N: StateMachine> {
    nodes: Vec<N>,
    queues: BTreeMap<(u32, u32), VecDeque<N::Msg>>,
    timers: BTreeMap<(u32, u64), u32>,
    down: Vec<bool>,
    cuts: BTreeSet<(u32, u32)>,
    next_op: Vec<usize>,
    pending: Vec<Option<RequestId>>,
    active: Vec<Vec<Channel>>,
    ground: Ground,
    grants: Vec<u32>,
    rejects: Vec<u32>,
    next_req: u64,
    budgets: Budgets,
}

/// A state's identity: every field, destructured so that a new one is a
/// compile error here. The digest never leaves the process and the BFS
/// order does not depend on it, so any 128-bit hash of the value does.
impl<N: CheckNode> Hash for State<N> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let State {
            nodes,
            queues,
            timers,
            down,
            cuts,
            next_op,
            pending,
            active,
            ground,
            grants,
            rejects,
            next_req,
            budgets,
        } = self;
        nodes.hash(h);
        queues.hash(h);
        timers.hash(h);
        down.hash(h);
        cuts.hash(h);
        next_op.hash(h);
        pending.hash(h);
        active.hash(h);
        ground.usage().hash(h);
        grants.hash(h);
        rejects.hash(h);
        next_req.hash(h);
        budgets.hash(h);
    }
}

fn norm_link(a: CellId, b: CellId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

impl<N: CheckNode> Model<N> {
    /// A model over `topo` whose nodes are built once by `factory` — the
    /// same closure shape the engine takes, so checker and engine are
    /// guaranteed to run identical protocol code.
    pub fn new(topo: Arc<Topology>, factory: impl Fn(CellId, &Topology) -> N) -> Self {
        let n = topo.num_cells();
        Model {
            nodes: topo.cells().map(|cell| factory(cell, &topo)).collect(),
            topo,
            scripts: vec![Vec::new(); n],
            budgets: Budgets::none(),
            max_states: 5_000_000,
        }
    }

    /// Sets the op script of `cell` (replacing any previous script).
    pub fn with_script(mut self, cell: CellId, ops: &[Op]) -> Self {
        self.scripts[cell.index()] = ops.to_vec();
        self
    }

    /// Gives every cell the same script.
    pub fn with_uniform_script(mut self, ops: &[Op]) -> Self {
        for s in &mut self.scripts {
            *s = ops.to_vec();
        }
        self
    }

    /// Sets the fault budget.
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// Caps the number of distinct states explored (default 5M). When
    /// hit, the outcome reports `truncated = true` instead of looping
    /// forever on an unexpectedly large space.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// The topology under check.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    // ---- initial state -----------------------------------------------

    fn initial(&self) -> Result<State<N>, Defect> {
        let n = self.topo.num_cells();
        let mut st = State {
            nodes: self.nodes.clone(),
            queues: BTreeMap::new(),
            timers: BTreeMap::new(),
            down: vec![false; n],
            cuts: BTreeSet::new(),
            next_op: vec![0; n],
            pending: vec![None; n],
            active: vec![Vec::new(); n],
            ground: Ground::new(&self.topo),
            grants: vec![0; n],
            rejects: vec![0; n],
            next_req: 0,
            budgets: self.budgets,
        };
        for i in 0..n {
            self.step_node(&mut st, CellId(i as u32), Input::Start, &mut NoObserver)?;
        }
        Ok(st)
    }

    // ---- transition function -----------------------------------------

    /// Applies `input` to `cell`'s node and folds the emitted actions
    /// into the state, auditing grants against ground truth.
    fn step_node(
        &self,
        st: &mut State<N>,
        cell: CellId,
        input: Input<N::Msg>,
        obs: &mut dyn ReplayObserver,
    ) -> Result<(), Defect> {
        let i = cell.index();
        let mut fx = Effects::new(cell, SimTime(0), false);
        st.nodes[i].step(input, &mut fx);
        for act in fx.into_actions() {
            match act {
                Action::Send { to, msg } => {
                    let kind = N::msg_kind(&msg);
                    if st.cuts.contains(&norm_link(cell, to)) {
                        // Partition: dropped at send time, both
                        // directions, exactly like the engine.
                        obs.on_event(TraceEvent::MsgLost {
                            from: cell,
                            to,
                            kind,
                        });
                        continue;
                    }
                    obs.on_event(TraceEvent::MsgSend {
                        from: cell,
                        to,
                        kind,
                        deliver_at: SimTime(0),
                    });
                    st.queues.entry((cell.0, to.0)).or_default().push_back(msg);
                }
                Action::Grant { req, ch } => {
                    if st.pending[i] != Some(req) {
                        return Err(Defect::BadResolution { cell });
                    }
                    st.pending[i] = None;
                    if let Some(v) = st.ground.grant(&self.topo, SimTime(0), cell, ch) {
                        return Err(match v {
                            Violation::Interference { conflicting, .. } => Defect::Interference {
                                cell,
                                other: conflicting,
                                ch,
                            },
                            _ => Defect::DoubleAssign { cell, ch },
                        });
                    }
                    st.active[i].push(ch);
                    st.grants[i] += 1;
                    obs.on_event(TraceEvent::Granted {
                        cell,
                        ch,
                        latency: 0,
                    });
                }
                Action::Reject { req, cause } => {
                    if st.pending[i] != Some(req) {
                        return Err(Defect::BadResolution { cell });
                    }
                    st.pending[i] = None;
                    st.rejects[i] += 1;
                    obs.on_event(TraceEvent::Rejected {
                        cell,
                        cause: cause.label(),
                    });
                }
                Action::SetTimer { tag, .. } => {
                    *st.timers.entry((cell.0, tag)).or_insert(0) += 1;
                }
                Action::Count { .. } | Action::Add { .. } | Action::Sample { .. } => {}
                Action::Trace(_) => {}
            }
        }
        Ok(())
    }

    /// All choices enabled in `st`, in a deterministic order.
    fn enabled(&self, st: &State<N>) -> Vec<Choice> {
        let mut out = Vec::new();
        let n = self.topo.num_cells();
        // Script injections.
        for i in 0..n {
            if st.down[i] || st.next_op[i] >= self.scripts[i].len() {
                continue;
            }
            let ok = match self.scripts[i][st.next_op[i]] {
                // Serial per cell: a new call waits for the previous
                // resolution.
                Op::StartCall => st.pending[i].is_none(),
                // A hang-up waits for its call's resolution too (the
                // no-op branch covers rejected calls).
                Op::EndCall => st.pending[i].is_none(),
            };
            if ok {
                out.push(Choice::Inject {
                    cell: CellId(i as u32),
                });
            }
        }
        // Deliveries (and their fault variants) per non-empty link.
        for (&(from, to), q) in &st.queues {
            debug_assert!(!q.is_empty(), "empty queues are removed eagerly");
            let from = CellId(from);
            let to = CellId(to);
            out.push(Choice::Deliver { from, to });
            if st.budgets.losses > 0 {
                out.push(Choice::Drop { from, to });
            }
            if st.budgets.dups > 0 && !st.down[to.index()] {
                out.push(Choice::Duplicate { from, to });
            }
        }
        // Timer firings.
        for (&(cell, tag), &count) in &st.timers {
            debug_assert!(count > 0, "zero timer entries are removed eagerly");
            out.push(Choice::Fire {
                cell: CellId(cell),
                tag,
            });
        }
        // Crash/restart.
        for i in 0..n {
            let cell = CellId(i as u32);
            if st.down[i] {
                out.push(Choice::Restart { cell });
            } else if st.budgets.crashes > 0 {
                out.push(Choice::Crash { cell });
            }
        }
        // Partitions: cut any healthy pair, heal any cut pair.
        if st.budgets.partitions > 0 {
            for a in 0..n {
                for b in (a + 1)..n {
                    if !st.cuts.contains(&(a as u32, b as u32)) {
                        out.push(Choice::Cut {
                            a: CellId(a as u32),
                            b: CellId(b as u32),
                        });
                    }
                }
            }
        }
        for &(a, b) in &st.cuts {
            out.push(Choice::Heal {
                a: CellId(a),
                b: CellId(b),
            });
        }
        out
    }

    /// Applies one choice, returning the successor state or the defect
    /// the step produced.
    fn apply(
        &self,
        st: &State<N>,
        choice: Choice,
        obs: &mut dyn ReplayObserver,
    ) -> Result<State<N>, Defect> {
        let mut s = st.clone();
        match choice {
            Choice::Inject { cell } => {
                let i = cell.index();
                let op = self.scripts[i][s.next_op[i]];
                s.next_op[i] += 1;
                match op {
                    Op::StartCall => {
                        let req = RequestId(s.next_req);
                        s.next_req += 1;
                        s.pending[i] = Some(req);
                        self.step_node(
                            &mut s,
                            cell,
                            Input::Acquire {
                                req,
                                kind: RequestKind::NewCall,
                            },
                            obs,
                        )?;
                    }
                    Op::EndCall => {
                        if !s.active[i].is_empty() {
                            let ch = s.active[i].remove(0);
                            s.ground.release(cell, ch);
                            obs.on_event(TraceEvent::Released {
                                cell,
                                ch,
                                borrowed: !self.topo.primary(cell).contains(ch),
                            });
                            self.step_node(&mut s, cell, Input::Release { ch }, obs)?;
                        }
                        // else: the call was rejected — nothing to free.
                    }
                }
            }
            Choice::Deliver { from, to } => {
                let msg = s.pop_msg(from, to);
                if s.down[to.index()] {
                    // Inbound delivery to a crashed cell is discarded
                    // (the engine's crash semantics).
                    obs.on_event(TraceEvent::MsgLost {
                        from,
                        to,
                        kind: <N as StateMachine>::msg_kind(&msg),
                    });
                } else {
                    obs.on_event(TraceEvent::MsgRecv {
                        from,
                        to,
                        kind: <N as StateMachine>::msg_kind(&msg),
                    });
                    self.step_node(&mut s, to, Input::Message { from, msg }, obs)?;
                }
            }
            Choice::Drop { from, to } => {
                let msg = s.pop_msg(from, to);
                s.budgets.losses -= 1;
                obs.on_event(TraceEvent::MsgLost {
                    from,
                    to,
                    kind: <N as StateMachine>::msg_kind(&msg),
                });
            }
            Choice::Duplicate { from, to } => {
                // Deliver the head but keep a copy in its place: the
                // engine enqueues the duplicate immediately after the
                // original, so the copy is the next head.
                let msg = s
                    .queues
                    .get(&(from.0, to.0))
                    .and_then(|q| q.front().cloned())
                    .expect("enabled() guarantees a queued message");
                s.budgets.dups -= 1;
                obs.on_event(TraceEvent::MsgDup {
                    from,
                    to,
                    kind: <N as StateMachine>::msg_kind(&msg),
                });
                obs.on_event(TraceEvent::MsgRecv {
                    from,
                    to,
                    kind: <N as StateMachine>::msg_kind(&msg),
                });
                self.step_node(&mut s, to, Input::Message { from, msg }, obs)?;
            }
            Choice::Fire { cell, tag } => {
                let slot = s
                    .timers
                    .get_mut(&(cell.0, tag))
                    .expect("enabled() guarantees an armed timer");
                *slot -= 1;
                if *slot == 0 {
                    s.timers.remove(&(cell.0, tag));
                }
                if !s.down[cell.index()] {
                    self.step_node(&mut s, cell, Input::Timer { tag }, obs)?;
                }
                // else: timers of a crashed cell are discarded, as in
                // the engine.
            }
            Choice::Crash { cell } => {
                let i = cell.index();
                s.budgets.crashes -= 1;
                s.down[i] = true;
                // Active calls die with the cell; their channels free.
                s.active[i].clear();
                s.ground.vacate(cell);
                // The pending request (if any) is force-rejected, as the
                // engine does for calls served by a crashed MSS.
                if s.pending[i].take().is_some() {
                    s.rejects[i] += 1;
                }
                obs.on_event(TraceEvent::Crash { cell });
            }
            Choice::Restart { cell } => {
                s.down[cell.index()] = false;
                obs.on_event(TraceEvent::Recover { cell });
                self.step_node(&mut s, cell, Input::Restart, obs)?;
            }
            Choice::Cut { a, b } => {
                s.budgets.partitions -= 1;
                s.cuts.insert(norm_link(a, b));
            }
            Choice::Heal { a, b } => {
                s.cuts.remove(&norm_link(a, b));
            }
        }
        Ok(s)
    }

    // ---- exploration --------------------------------------------------

    /// Exhaustively explores the model breadth-first. Stops at the first
    /// violation (whose schedule is then a shortest counterexample), at
    /// frontier exhaustion (a completed proof over the bounded model),
    /// or at the state cap (`truncated = true`).
    pub fn explore(&self) -> CheckOutcome {
        self.explore_seeing(|_, _, _| {})
    }

    /// [`Model::explore`], calling `seen(identity, state, first)` on the
    /// initial state and on every successor, `first` telling a new
    /// identity from a repeat.
    fn explore_seeing(&self, mut seen: impl FnMut(u128, &State<N>, bool)) -> CheckOutcome {
        let mut outcome = CheckOutcome {
            states: 0,
            transitions: 0,
            terminals: 0,
            outcomes: BTreeSet::new(),
            violation: None,
            truncated: false,
        };
        let init = match self.initial() {
            Ok(st) => st,
            Err(defect) => {
                outcome.violation = Some(Counterexample {
                    defect,
                    schedule: Schedule::default(),
                });
                return outcome;
            }
        };
        let h0 = StateHasher::digest(&init);
        seen(h0, &init, true);
        // Every state seen, with the edge that first reached it.
        let mut parents: HashMap<u128, Option<(u128, Choice)>> = HashMap::from([(h0, None)]);
        let mut frontier: VecDeque<(u128, State<N>)> = VecDeque::from([(h0, init)]);
        outcome.states = 1;

        let path_to = |parents: &HashMap<u128, Option<(u128, Choice)>>, mut h: u128| {
            let mut rev = Vec::new();
            while let Some(&Some((ph, c))) = parents.get(&h) {
                rev.push(c);
                h = ph;
            }
            rev.reverse();
            Schedule(rev)
        };

        while let Some((h, st)) = frontier.pop_front() {
            let choices = self.enabled(&st);
            if !choices.iter().any(Choice::is_progress) {
                // Terminal under fair progress: every issued request must
                // have resolved.
                outcome.terminals += 1;
                if let Some(i) = st.pending.iter().position(Option::is_some) {
                    outcome.violation = Some(Counterexample {
                        defect: Defect::Stranded {
                            cell: CellId(i as u32),
                        },
                        schedule: path_to(&parents, h),
                    });
                    return outcome;
                }
                let acq: Vec<(u32, u32)> = st
                    .grants
                    .iter()
                    .zip(&st.rejects)
                    .map(|(&g, &r)| (g, r))
                    .collect();
                outcome.outcomes.insert(acq);
            }
            for choice in choices {
                outcome.transitions += 1;
                match self.apply(&st, choice, &mut NoObserver) {
                    Err(defect) => {
                        let mut schedule = path_to(&parents, h);
                        schedule.0.push(choice);
                        outcome.violation = Some(Counterexample { defect, schedule });
                        return outcome;
                    }
                    Ok(next) => {
                        let nh = StateHasher::digest(&next);
                        let entry = parents.entry(nh);
                        seen(nh, &next, matches!(entry, Entry::Vacant(_)));
                        if let Entry::Vacant(slot) = entry {
                            slot.insert(Some((h, choice)));
                            outcome.states += 1;
                            if outcome.states >= self.max_states {
                                outcome.truncated = true;
                                return outcome;
                            }
                            frontier.push_back((nh, next));
                        }
                    }
                }
            }
        }
        outcome
    }

    /// Replays a schedule from the initial state, collecting a
    /// step-indexed trace timeline. Returns the defect of the final step
    /// (if the schedule reproduces one). Panics if a choice is not
    /// enabled in the state it is applied to — a schedule from
    /// [`Model::explore`] on the same model always is.
    pub fn replay(&self, schedule: &Schedule) -> Replay {
        let mut rec = Recorder::default();
        let mut st = match self.initial() {
            Ok(st) => st,
            Err(defect) => {
                return Replay {
                    defect: Some(defect),
                    trace: rec.records,
                }
            }
        };
        for (idx, &choice) in schedule.0.iter().enumerate() {
            rec.at = idx as u64 + 1;
            let enabled = self.enabled(&st);
            assert!(
                enabled.contains(&choice),
                "schedule step {idx} ({choice}) is not enabled — \
                 schedule does not belong to this model"
            );
            match self.apply(&st, choice, &mut rec) {
                Ok(next) => st = next,
                Err(defect) => {
                    return Replay {
                        defect: Some(defect),
                        trace: rec.records,
                    }
                }
            }
        }
        // Terminal stranding reproduces as a defect too.
        let defect = if !self.enabled(&st).iter().any(Choice::is_progress) {
            st.pending
                .iter()
                .position(Option::is_some)
                .map(|i| Defect::Stranded {
                    cell: CellId(i as u32),
                })
        } else {
            None
        };
        Replay {
            defect,
            trace: rec.records,
        }
    }
}

impl<N: StateMachine> State<N> {
    /// Pops the head of the `from → to` queue, removing the queue when
    /// it empties (canonical form for hashing).
    fn pop_msg(&mut self, from: CellId, to: CellId) -> N::Msg {
        let key = (from.0, to.0);
        let q = self
            .queues
            .get_mut(&key)
            .expect("enabled() guarantees a non-empty queue");
        let msg = q.pop_front().expect("non-empty");
        if q.is_empty() {
            self.queues.remove(&key);
        }
        msg
    }
}

/// Observer of replay-relevant events during a step (trace synthesis).
trait ReplayObserver {
    fn on_event(&mut self, ev: TraceEvent);
}

/// The exploring observer: discards events.
struct NoObserver;

impl ReplayObserver for NoObserver {
    fn on_event(&mut self, _ev: TraceEvent) {}
}

/// The replaying observer: records a step-indexed timeline.
#[derive(Default)]
struct Recorder {
    at: u64,
    records: Vec<TraceRecord>,
}

impl ReplayObserver for Recorder {
    fn on_event(&mut self, ev: TraceEvent) {
        self.records.push(TraceRecord {
            at: SimTime(self.at),
            ev,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_baselines::{
        AdvancedSearchNode, AdvancedUpdateNode, BasicSearchNode, BasicUpdateConfig,
        BasicUpdateNode, FixedNode,
    };
    use adca_core::{AdaptiveConfig, AdaptiveNode};
    use adca_hexgrid::ReusePattern;

    /// The first line where two `{:#?}` renderings part, after the lines
    /// that enclose it: they name the field that differs.
    fn first_difference(a: &str, b: &str) -> String {
        let (a, b): (Vec<_>, Vec<_>) = (a.lines().collect(), b.lines().collect());
        let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]) else {
            return format!("{} lines | {} lines", a.len(), b.len());
        };
        let indent = |l: &str| l.len() - l.trim_start().len();
        let mut depth = indent(a[i]);
        let mut path = Vec::new();
        for l in a[..i].iter().rev() {
            if indent(l) < depth {
                depth = indent(l);
                path.push(l.trim());
            }
        }
        path.reverse();
        format!("{} {} | {}", path.join(" "), a[i].trim(), b[i].trim())
    }

    /// Explores `model` keeping every state by its identity, and requires
    /// a state whose identity repeats to equal the kept one in its nodes
    /// and queues by value: a node's or message's `Hash` that leaves a
    /// field out merges states that differ in it, and fails here.
    /// Returns the outcome and how many repeats were compared.
    fn explore_comparing<N>(model: &Model<N>) -> (CheckOutcome, usize)
    where
        N: CheckNode + PartialEq + fmt::Debug,
        N::Msg: PartialEq,
    {
        let mut kept: HashMap<u128, State<N>> = HashMap::new();
        let mut repeats = 0;
        let out = model.explore_seeing(|h, st, first| {
            if first {
                kept.insert(h, st.clone());
                return;
            }
            repeats += 1;
            let was = &kept[&h];
            for (i, (a, b)) in was.nodes.iter().zip(&st.nodes).enumerate() {
                assert!(
                    a == b,
                    "two states share an identity, but node {i} differs: {}",
                    first_difference(&format!("{a:#?}"), &format!("{b:#?}"))
                );
            }
            assert!(
                was.queues == st.queues,
                "two states share an identity, but their queues differ: {:?} | {:?}",
                was.queues,
                st.queues
            );
        });
        (out, repeats)
    }

    /// `mck`'s 1×n strip (3-cell reuse at radius 1, 3 channels).
    fn strip(cells: u32) -> Arc<Topology> {
        Arc::new(
            Topology::builder(1, cells)
                .channels(3)
                .pattern(ReusePattern::three_cell())
                .interference_radius(1)
                .build(),
        )
    }

    /// `model` explored with every repeated identity compared by value.
    fn compare<N>(model: Model<N>)
    where
        N: CheckNode + PartialEq + fmt::Debug,
        N::Msg: PartialEq,
    {
        let (out, repeats) = explore_comparing(&model);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(repeats > 0, "no identity repeated: nothing was compared");
    }

    /// One call per cell on `mck`'s strip of `cells`.
    fn row<N: CheckNode>(
        cells: u32,
        budgets: Budgets,
        factory: impl Fn(CellId, &Topology) -> N,
    ) -> Model<N> {
        Model::new(strip(cells), factory)
            .with_uniform_script(&[Op::StartCall, Op::EndCall])
            .with_budgets(budgets)
    }

    /// The rows of `quick_e16_rows_keep_their_state_counts`: the
    /// deduplication behind their counts is sound only if the encodings
    /// are complete, which is what [`explore_comparing`] checks. The
    /// crash row is the one that reaches a restart, and with it the
    /// adaptive node's `force_search`.
    #[test]
    fn a_repeated_identity_is_an_equal_state() {
        let adaptive = |retry_ticks| {
            move |cell, topo: &Topology| {
                AdaptiveNode::new(
                    cell,
                    topo,
                    AdaptiveConfig {
                        retry_ticks,
                        ..AdaptiveConfig::default()
                    },
                )
            }
        };
        let none = Budgets::none();
        let loss_dup = Budgets {
            losses: 1,
            dups: 1,
            ..none
        };
        let part1 = Budgets {
            partitions: 1,
            ..none
        };
        compare(row(2, none, adaptive(None)));
        compare(row(2, none, BasicSearchNode::new));
        compare(row(2, none, |cell, topo| {
            BasicUpdateNode::new(cell, topo, BasicUpdateConfig::default())
        }));
        compare(row(2, none, FixedNode::new));
        compare(row(2, none, AdvancedUpdateNode::new));
        compare(row(2, none, AdvancedSearchNode::new));
        compare(row(3, none, adaptive(None)));
        compare(row(3, none, BasicSearchNode::new));
        compare(row(2, loss_dup, adaptive(Some(400))));
        compare(row(2, part1, adaptive(Some(400))));
        compare(
            Model::new(strip(2), adaptive(Some(400)))
                .with_uniform_script(&[Op::StartCall])
                .with_budgets(Budgets { crashes: 1, ..none })
                .with_max_states(30_000),
        );
    }

    #[test]
    fn schedule_round_trips_through_text() {
        let sched = Schedule(vec![
            Choice::Inject { cell: CellId(0) },
            Choice::Deliver {
                from: CellId(0),
                to: CellId(1),
            },
            Choice::Drop {
                from: CellId(1),
                to: CellId(0),
            },
            Choice::Duplicate {
                from: CellId(0),
                to: CellId(1),
            },
            Choice::Fire {
                cell: CellId(1),
                tag: 42,
            },
            Choice::Crash { cell: CellId(1) },
            Choice::Restart { cell: CellId(1) },
            Choice::Cut {
                a: CellId(0),
                b: CellId(1),
            },
            Choice::Heal {
                a: CellId(0),
                b: CellId(1),
            },
        ]);
        let text = sched.to_text();
        assert_eq!(Schedule::parse(&text).unwrap(), sched);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Schedule::parse("teleport 0 1").is_err());
        assert!(Schedule::parse("deliver 0").is_err());
        assert!(Schedule::parse("deliver zero one").is_err());
        // Comments and blanks are fine.
        assert_eq!(
            Schedule::parse("# header\n\n").unwrap(),
            Schedule::default()
        );
    }

    #[test]
    fn progress_classification() {
        assert!(Choice::Deliver {
            from: CellId(0),
            to: CellId(1)
        }
        .is_progress());
        assert!(Choice::Restart { cell: CellId(0) }.is_progress());
        assert!(Choice::Heal {
            a: CellId(0),
            b: CellId(1)
        }
        .is_progress());
        assert!(!Choice::Drop {
            from: CellId(0),
            to: CellId(1)
        }
        .is_progress());
        assert!(!Choice::Crash { cell: CellId(0) }.is_progress());
        assert!(!Choice::Cut {
            a: CellId(0),
            b: CellId(1)
        }
        .is_progress());
    }
}
