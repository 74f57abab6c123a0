//! The production backend: every MSS is a task on a bounded-mailbox
//! executor, answering requests at wall-clock time.
//!
//! The executor is deliberately minimal (the build is offline — no
//! tokio): a fixed pool of OS worker threads and one logical task per
//! cell. Every cell has a **home worker**, `home(t) = t * W / n`:
//! contiguous id ranges, which row-major `CellId`s make bands of grid
//! rows, so most of a cell's interference region (the only cells it
//! ever sends to) lives on the same worker. A worker owns its band's
//! protocol nodes by value and has a run queue of its own; whichever
//! thread makes a cell ready (a worker, the timer wheel, an admitting
//! caller) pushes it to its home's queue, and worker `w` pops only
//! queue `w`. So a cell never runs on two workers at once by
//! construction — there is no lock around a node — and a `scheduled`
//! flag per task keeps a cell from being on its queue twice. There is
//! no stealing: a hot spot confined to one band is served by one
//! worker (DESIGN §6 has the price).
//!
//! Events flow through bounded mailboxes (`mailbox::Mailbox`); a full
//! mailbox blocks the
//! sender (real backpressure, surfaced all the way to
//! [`AllocService::request_channel`]) until a stall deadline forces the
//! event through, keeping the pool deadlock-free under any protocol
//! messaging pattern. A worker sending into its own band does not
//! wait: nobody but itself could drain that mailbox, so the run goes in
//! over capacity at once (and is counted as forced). Protocol timers
//! and call-hold expirations share one [`TimerWheel`].
//!
//! The unit of every hand-over to another thread is the **activation**
//! — the home worker's drain of up to `quantum` events of one cell. It
//! reads the clock once; what its transitions emit collects in the
//! worker's own `Outbox` and leaves in one flush: the sends as one run
//! a destination (one mailbox lock, one capacity check, one
//! `schedule`), the confirms and indications under one `answers` lock
//! with at most one wake, the counters in one add each. Nothing waits
//! for a batch to fill: an activation of one event hands over when
//! that event is done. Two ordering rules hold because a cell's
//! activations all run on its home worker, one after the other, and
//! each flushes before it returns (and before it clears `scheduled`):
//! links stay FIFO (the schemes assume it), and a ticket's `Granted`
//! is published before the activation that produces its `Released`
//! begins.
//!
//! Grants are audited: the Theorem-1 check and the ground-truth commit
//! happen atomically under the granted channel's lock
//! (`crate::ground`), so no interleaving can produce a false-clean run
//! — and grants of different channels never meet.
//!
//! Handoffs follow the engine's (and the paper's) break-before-make
//! order: the source channel is relinquished at submission, then the
//! acquire at the target cell jumps the mailbox queue (priority, same
//! backpressure). A rejected handoff drops the call — the paper's
//! forced termination — with nothing left to clean up, because the
//! source channel was already returned.

use crate::ground::GroundTruth;
use crate::mailbox::{Mailbox, Push};
use crate::service::{
    AllocService, ChannelRequest, Confirm, Indication, ServeError, ServeStats, Ticket,
};
use adca_hexgrid::{CellId, Channel, Topology};
use adca_simkit::{
    Action, DropCause, Effects, Input, RequestId, RequestKind, SimTime, StateMachine,
};
use adca_threadnet::TimerWheel;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the production executor.
#[derive(Debug, Clone)]
pub struct ProductionConfig {
    /// Worker threads in the pool; each owns a contiguous band of
    /// cells (`home(t) = t * workers / cells`). Clamped to the cell
    /// count, so no worker is left without a cell.
    pub workers: usize,
    /// Wall-clock nanoseconds per virtual tick — scales protocol timer
    /// delays, call holds, and reported latencies.
    pub ns_per_tick: u64,
    /// Bounded capacity of each cell's mailbox. Checked once a push,
    /// and an activation pushes what it sends to one cell as one run,
    /// so a mailbox holds fewer than this many events plus one run (a
    /// run is at most `quantum` × the scheme's sends to one neighbour
    /// per input).
    pub mailbox_capacity: usize,
    /// How long a sender stalls on a full mailbox before forcing its
    /// events through (the deadlock-freedom escape valve; forced pushes
    /// are counted in [`ServeStats::backpressure_forced`]).
    pub stall_patience: Duration,
    /// Maximum events one task activation drains before yielding the
    /// worker.
    pub quantum: usize,
}

impl Default for ProductionConfig {
    fn default() -> Self {
        ProductionConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 16),
            ns_per_tick: 100,
            mailbox_capacity: 1024,
            stall_patience: Duration::from_millis(2),
            quantum: 64,
        }
    }
}

enum TaskEvent<M> {
    Acquire {
        ticket: u64,
        kind: RequestKind,
    },
    End {
        ticket: u64,
    },
    /// A handoff away from this cell committed at its target: feed
    /// [`Input::Release`] for the vacated channel *without* ending the call
    /// (the call lives on under the handoff ticket).
    Relinquish {
        ch: Channel,
    },
    Msg {
        from: CellId,
        msg: M,
    },
    Timer {
        tag: u64,
    },
}

/// Timer-wheel payloads are non-generic so one wheel serves both
/// protocol timers and call-hold expirations.
#[derive(Debug, Clone, Copy)]
enum WheelKind {
    Timer(u64),
    End(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TicketState {
    Pending,
    Active(Channel),
    Done,
}

struct TicketRec {
    cell: CellId,
    hold: u64,
    issued: Instant,
    state: TicketState,
}

/// The shared half of a cell's task; its protocol node lives on the
/// cell's home worker.
struct Task<M> {
    mailbox: Mailbox<TaskEvent<M>>,
    /// True while the task is queued or running; cleared after an
    /// activation has flushed, then re-checked against the mailbox so
    /// no wakeup is ever lost and no task is on its queue twice.
    /// `SeqCst`, for the reason given at `Mailbox::len`.
    scheduled: AtomicBool,
    /// The worker that owns the cell's node and runs its activations.
    home: usize,
}

/// The worker that owns cell `t` of `cells`: contiguous id ranges whose
/// sizes differ by at most one.
fn home(t: usize, workers: usize, cells: usize) -> usize {
    t * workers / cells
}

/// The cells whose [`home`] is `w`.
fn band(w: usize, workers: usize, cells: usize) -> Range<usize> {
    (w * cells).div_ceil(workers)..((w + 1) * cells).div_ceil(workers)
}

/// One worker's FIFO of ready cells: any thread pushes, the owner pops.
#[derive(Default)]
struct RunQueue {
    state: Mutex<RunQueueState>,
    cv: Condvar,
}

#[derive(Default)]
struct RunQueueState {
    ready: VecDeque<usize>,
    closed: bool,
    /// The owner is waiting on `cv`. A busy worker looks at `ready`
    /// again before it parks, so a push signals only when this is set.
    parked: bool,
}

impl RunQueue {
    fn push(&self, t: usize) {
        let mut st = self.state.lock().expect("runq poisoned");
        if st.closed {
            return; // shutting down; stray wakeups are fine to drop
        }
        st.ready.push_back(t);
        if st.parked {
            self.cv.notify_one();
        }
    }

    fn pop(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("runq poisoned");
        loop {
            if let Some(t) = st.ready.pop_front() {
                return Some(t);
            }
            if st.closed {
                return None;
            }
            st.parked = true;
            st = self.cv.wait(st).expect("runq poisoned");
            st.parked = false;
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("runq poisoned");
        st.closed = true;
        self.cv.notify_one();
    }
}

/// Resolved requests and ended calls, waiting for a handle to take them.
#[derive(Default)]
struct Answers {
    confirms: VecDeque<Confirm>,
    indications: VecDeque<Indication>,
    /// Handles parked in `recv_confirm` or `recv_answers`; a push
    /// signals only for them.
    waiting: usize,
}

#[derive(Default)]
struct Counters {
    offered: AtomicU64,
    granted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    messages: AtomicU64,
    stalls: AtomicU64,
    forced: AtomicU64,
    pending: AtomicU64,
    stopping: AtomicBool,
}

struct Inner<P: StateMachine> {
    topo: Arc<Topology>,
    cfg: ProductionConfig,
    epoch: Instant,
    tasks: Vec<Task<P::Msg>>,
    /// One run queue a worker; cell `t` is only ever on
    /// `runqs[tasks[t].home]`.
    runqs: Vec<RunQueue>,
    /// Ground-truth channel usage (Theorem-1 audit + commit, atomic
    /// under the channel's lock).
    ground: GroundTruth,
    tickets: Mutex<Vec<TicketRec>>,
    answers: Mutex<Answers>,
    answered: Condvar,
    violations: Mutex<Vec<String>>,
    wheel: OnceLock<TimerWheel<(usize, WheelKind)>>,
    counters: Counters,
    /// Live [`ProductionAllocService`] clones sharing this executor;
    /// the last one to drop shuts the pool down.
    handles: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// What one activation hands to other threads, collected on the worker
/// that runs it and delivered by [`Inner::flush`] — plus the buffer the
/// worker lends to every transition it runs.
struct Outbox<M> {
    /// The cells only this thread can drain: the worker's band (all of
    /// them during start-up, when no worker exists yet). A push into
    /// one of them never waits for room.
    own: Range<usize>,
    actions: Vec<Action<M>>,
    /// The sends, one run a destination.
    runs: Vec<Run<M>>,
    /// Each destination cell's index in `runs`, or `NO_RUN`.
    run_of: Vec<u32>,
    /// Emptied event buffers, for the next activation's runs.
    spare: Vec<Vec<TaskEvent<M>>>,
    confirms: Vec<Confirm>,
    indications: Vec<Indication>,
}

/// What an activation sends to one cell, in emission order.
struct Run<M> {
    to: usize,
    events: Vec<TaskEvent<M>>,
}

const NO_RUN: u32 = u32::MAX;

impl<M> Outbox<M> {
    fn new(cells: usize, own: Range<usize>) -> Self {
        Outbox {
            own,
            actions: Vec::new(),
            runs: Vec::new(),
            run_of: vec![NO_RUN; cells],
            spare: Vec::new(),
            confirms: Vec::new(),
            indications: Vec::new(),
        }
    }

    fn send(&mut self, to: usize, ev: TaskEvent<M>) {
        if self.run_of[to] == NO_RUN {
            self.run_of[to] = self.runs.len() as u32;
            let events = self.spare.pop().unwrap_or_default();
            self.runs.push(Run { to, events });
        }
        self.runs[self.run_of[to] as usize].events.push(ev);
    }
}

impl<P> Inner<P>
where
    P: StateMachine + Send + 'static,
    P::Msg: Send + 'static,
{
    fn ticks_to_duration(&self, ticks: u64) -> Duration {
        Duration::from_nanos(ticks.saturating_mul(self.cfg.ns_per_tick))
    }

    fn elapsed_ticks(&self, since: Instant) -> u64 {
        since.elapsed().as_nanos() as u64 / self.cfg.ns_per_tick.max(1)
    }

    /// Queues confirms and indications and wakes a parked handle, if
    /// there is one — after the lock is released, so the woken handle
    /// does not block on it.
    fn answer(&self, push: impl FnOnce(&mut Answers)) {
        let wake = {
            let mut answers = self.answers.lock().expect("answers poisoned");
            push(&mut answers);
            answers.waiting > 0
        };
        if wake {
            self.answered.notify_one();
        }
    }

    /// Enqueues `ev` for cell `to` and makes sure the task will run.
    fn deliver(&self, to: usize, ev: TaskEvent<P::Msg>, patience: Duration) {
        self.deliver_with(to, ev, patience, false);
    }

    /// Priority delivery: `ev` jumps the mailbox queue (handoff work
    /// overtakes waiting new-call work) but obeys the same capacity and
    /// stall rules — priority does not escape backpressure.
    fn deliver_front(&self, to: usize, ev: TaskEvent<P::Msg>, patience: Duration) {
        self.deliver_with(to, ev, patience, true);
    }

    fn deliver_with(&self, to: usize, ev: TaskEvent<P::Msg>, patience: Duration, front: bool) {
        let mb = &self.tasks[to].mailbox;
        let push = if front {
            mb.push_front(ev, patience)
        } else {
            mb.push(ev, patience)
        };
        self.pushed(to, push);
    }

    /// Accounts for one push (an event or a run) into `to`'s mailbox
    /// and makes sure the task will run.
    fn pushed(&self, to: usize, push: Push) {
        if push != Push::Fit {
            self.counters.stalls.fetch_add(1, Ordering::Relaxed);
        }
        if push == Push::Forced {
            self.counters.forced.fetch_add(1, Ordering::Relaxed);
        }
        self.schedule(to);
    }

    fn schedule(&self, t: usize) {
        let task = &self.tasks[t];
        if !task.scheduled.swap(true, Ordering::SeqCst) {
            self.runqs[task.home].push(t);
        }
    }

    /// Hands an activation's output over: counters, then answers, then
    /// sends.
    fn flush(&self, out: &mut Outbox<P::Msg>) {
        let c = &self.counters;
        let add = |counter: &AtomicU64, n: usize| {
            if n > 0 {
                counter.fetch_add(n as u64, Ordering::Relaxed);
            }
        };
        // Counted no later than published: `stats()` read after the
        // last confirm was taken agrees with what the handles took.
        add(&c.messages, out.runs.iter().map(|r| r.events.len()).sum());
        let resolved = out.confirms.len();
        if resolved + out.indications.len() > 0 {
            let granted = out.confirms.iter().filter(|c| c.is_granted()).count();
            add(&c.granted, granted);
            add(&c.rejected, resolved - granted);
            add(&c.completed, out.indications.len());
            self.answer(|a| {
                a.confirms.extend(out.confirms.drain(..));
                a.indications.extend(out.indications.drain(..));
            });
            // Published, then no longer pending: when `quiesce` returns,
            // every confirm can be taken.
            c.pending.fetch_sub(resolved as u64, Ordering::Release);
        }
        // One run a destination, under one mailbox lock. A full mailbox
        // of the sender's own band is not waited on: only this thread
        // could make room in it.
        for mut run in out.runs.drain(..) {
            out.run_of[run.to] = NO_RUN;
            let patience = if out.own.contains(&run.to) {
                Duration::ZERO
            } else {
                self.cfg.stall_patience
            };
            let push = self.tasks[run.to]
                .mailbox
                .push_run(run.events.drain(..), patience);
            self.pushed(run.to, push);
            out.spare.push(run.events);
        }
    }

    /// One task activation, on the cell's home worker: drain up to a
    /// quantum of events into the node, flush what that emitted, then
    /// clear `scheduled` and re-check.
    fn run_task(
        &self,
        t: usize,
        node: &mut P,
        batch: &mut VecDeque<TaskEvent<P::Msg>>,
        out: &mut Outbox<P::Msg>,
    ) {
        let task = &self.tasks[t];
        task.mailbox.drain(batch, self.cfg.quantum);
        if !batch.is_empty() {
            let me = CellId(t as u32);
            // One clock read for the activation: events drained together
            // were already waiting together.
            let now = SimTime(self.elapsed_ticks(self.epoch));
            for ev in batch.drain(..) {
                let input = match ev {
                    TaskEvent::Acquire { ticket, kind } => Input::Acquire {
                        req: RequestId(ticket),
                        kind,
                    },
                    TaskEvent::End { ticket } => {
                        self.end_call(ticket, me, now, node, out);
                        continue;
                    }
                    TaskEvent::Relinquish { ch } => Input::Release { ch },
                    TaskEvent::Msg { from, msg } => Input::Message { from, msg },
                    TaskEvent::Timer { tag } => Input::Timer { tag },
                };
                self.step(me, now, node, input, out);
            }
            // Before this worker takes up the cell again: its next
            // activation flushes after this one, so no link reorders
            // and no ticket's `Released` overtakes its `Granted`.
            self.flush(out);
        }
        task.scheduled.store(false, Ordering::SeqCst);
        if !task.mailbox.is_empty() {
            self.schedule(t);
        }
    }

    fn shutdown(&self) {
        if self.counters.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        for q in &self.runqs {
            q.close();
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Feeds `input` to `me`'s node (the caller owns it) at
    /// time `now`, then applies the actions it emitted, in emission
    /// order; what is bound for another thread goes to `out`.
    fn step(
        &self,
        me: CellId,
        now: SimTime,
        node: &mut P,
        input: Input<P::Msg>,
        out: &mut Outbox<P::Msg>,
    ) {
        let mut fx = Effects::reusing(std::mem::take(&mut out.actions), me, now, false);
        node.step(input, &mut fx);
        let mut actions = fx.into_actions();
        for act in actions.drain(..) {
            match act {
                Action::Send { to, msg } => out.send(to.index(), TaskEvent::Msg { from: me, msg }),
                Action::Grant { req, ch } => self.grant(me, req, ch, out),
                Action::Reject { req, cause } => self.reject(me, req, cause, out),
                Action::SetTimer { delay, tag } => {
                    let after = self.ticks_to_duration(delay);
                    self.wheel
                        .get()
                        .expect("wheel set at construction")
                        .schedule(after, (me.index(), WheelKind::Timer(tag)));
                }
                // Protocol-local metrics and trace events are not
                // collected by this backend (the service-level counters
                // in `ServeStats` are); they stay observable through the
                // deterministic backend's `SimReport`.
                Action::Count { .. }
                | Action::Add { .. }
                | Action::Sample { .. }
                | Action::Trace(_) => {}
            }
        }
        out.actions = actions;
    }

    /// Returns an active ticket's channel to the pool (hold expiry and
    /// explicit release both land here, on the owning cell's task).
    fn end_call(
        &self,
        ticket: u64,
        me: CellId,
        now: SimTime,
        node: &mut P,
        out: &mut Outbox<P::Msg>,
    ) {
        let ch = {
            let mut tickets = self.tickets.lock().expect("tickets poisoned");
            let rec = &mut tickets[ticket as usize];
            match rec.state {
                TicketState::Active(ch) => {
                    rec.state = TicketState::Done;
                    ch
                }
                // Benign race: released twice, or released while still
                // pending (the release path truncated the hold instead).
                _ => return,
            }
        };
        self.ground.remove(me, ch);
        self.step(me, now, node, Input::Release { ch }, out);
        out.indications.push(Indication::Released {
            ticket: Ticket(ticket),
            cell: me,
            channel: ch,
        });
    }

    fn grant(&self, me: CellId, req: RequestId, ch: Channel, out: &mut Outbox<P::Msg>) {
        // Claim the ticket first (guards against a buggy protocol
        // resolving one request twice, which would corrupt the pending
        // counter), then audit + commit. The End timer is armed last,
        // so no release can race this grant's ground commit.
        let (latency, hold) = {
            let mut tickets = self.tickets.lock().expect("tickets poisoned");
            let rec = &mut tickets[req.0 as usize];
            debug_assert_eq!(rec.cell, me, "grant from the wrong cell");
            if rec.state != TicketState::Pending {
                drop(tickets);
                self.violations
                    .lock()
                    .expect("violations poisoned")
                    .push(format!("{} resolved ticket#{} twice", me, req.0));
                return;
            }
            rec.state = TicketState::Active(ch);
            (self.elapsed_ticks(rec.issued), rec.hold)
        };
        // Audit + commit atomically under the channel's lock, so no
        // interleaving can slip an interfering grant past the check.
        if let Some(v) = self.ground.commit_grant(&self.topo, me, ch) {
            self.violations.lock().expect("violations poisoned").push(v);
        }
        out.confirms.push(Confirm::Granted {
            ticket: Ticket(req.0),
            cell: me,
            channel: ch,
            latency,
        });
        let after = self.ticks_to_duration(hold);
        self.wheel
            .get()
            .expect("wheel set at construction")
            .schedule(after, (me.index(), WheelKind::End(req.0)));
    }

    fn reject(&self, me: CellId, req: RequestId, cause: DropCause, out: &mut Outbox<P::Msg>) {
        {
            let mut tickets = self.tickets.lock().expect("tickets poisoned");
            let rec = &mut tickets[req.0 as usize];
            if rec.state != TicketState::Pending {
                drop(tickets);
                self.violations
                    .lock()
                    .expect("violations poisoned")
                    .push(format!("{} resolved ticket#{} twice", me, req.0));
                return;
            }
            rec.state = TicketState::Done;
        }
        out.confirms.push(Confirm::Rejected {
            ticket: Ticket(req.0),
            cell: me,
            cause,
        });
    }
}

/// [`AllocService`] served live by the bounded-mailbox executor.
///
/// Each cell's protocol node runs as a task on a fixed worker pool;
/// requests are answered at wall-clock time (latencies are reported in
/// ticks of [`ProductionConfig::ns_per_tick`]). Granted calls
/// auto-release when their hold expires.
///
/// The service is [`Clone`]: every clone is a handle onto the *same*
/// executor (shared tickets, confirms, stats), so independent driver
/// threads — or a wire server's connection workers — can each own a
/// handle. Each queued confirm is observed by exactly one handle. The
/// executor shuts down (stops the workers and discards unfired timers)
/// when the last handle drops, or on an explicit [`Self::shutdown`].
pub struct ProductionAllocService<P: StateMachine + Send + 'static>
where
    P::Msg: Send + 'static,
{
    inner: Arc<Inner<P>>,
}

impl<P> ProductionAllocService<P>
where
    P: StateMachine + Send + 'static,
    P::Msg: Send + 'static,
{
    /// Starts the executor: builds one `factory`-made node per cell,
    /// feeds every node [`Input::Start`] (before any request can be
    /// observed), arms the shared timer wheel, and spawns the worker
    /// pool, moving each band's nodes into its worker.
    pub fn new<F>(topo: Arc<Topology>, cfg: ProductionConfig, mut factory: F) -> Self
    where
        F: FnMut(CellId, &Topology) -> P,
    {
        let n = topo.num_cells();
        let workers = cfg.workers.min(n).max(1);
        let tasks = (0..n)
            .map(|t| Task {
                mailbox: Mailbox::new(cfg.mailbox_capacity),
                scheduled: AtomicBool::new(false),
                home: home(t, workers, n),
            })
            .collect();
        // Built a band at a time, in id order, so that a band's nodes
        // are laid out together and move into their worker as they are.
        let mut bands: Vec<Vec<P>> = (0..workers)
            .map(|w| {
                band(w, workers, n)
                    .map(|t| factory(CellId(t as u32), &topo))
                    .collect()
            })
            .collect();
        let inner = Arc::new(Inner {
            ground: GroundTruth::new(&topo),
            topo,
            cfg,
            epoch: Instant::now(),
            tasks,
            runqs: (0..workers).map(|_| RunQueue::default()).collect(),
            tickets: Mutex::new(Vec::new()),
            answers: Mutex::default(),
            answered: Condvar::new(),
            violations: Mutex::new(Vec::new()),
            wheel: OnceLock::new(),
            counters: Counters::default(),
            handles: AtomicU64::new(1),
            workers: Mutex::new(Vec::new()),
        });
        // The wheel holds only a weak reference, so service teardown is
        // not kept alive by its own timer thread.
        let weak: Weak<Inner<P>> = Arc::downgrade(&inner);
        let wheel = TimerWheel::new(move |(cell, kind): (usize, WheelKind)| {
            if let Some(inner) = weak.upgrade() {
                let ev = match kind {
                    WheelKind::Timer(tag) => TaskEvent::Timer { tag },
                    WheelKind::End(ticket) => TaskEvent::End { ticket },
                };
                // The wheel thread never blocks on a full mailbox.
                inner.deliver(cell, ev, Duration::ZERO);
            }
        });
        let _ = inner.wheel.set(wheel);
        // Start before the workers exist: startup sends enqueue, and no
        // node can observe a message before its own start ran.
        let mut out = Outbox::new(n, 0..n);
        for (t, node) in bands.iter_mut().flatten().enumerate() {
            let now = SimTime(inner.elapsed_ticks(inner.epoch));
            inner.step(CellId(t as u32), now, node, Input::Start, &mut out);
            inner.flush(&mut out);
        }
        let handles: Vec<JoinHandle<()>> = bands
            .into_iter()
            .enumerate()
            .map(|(w, mut nodes)| {
                let own = band(w, workers, n);
                let inner = inner.clone();
                std::thread::spawn(move || {
                    let (mut batch, mut out) = (VecDeque::new(), Outbox::new(n, own.clone()));
                    while let Some(t) = inner.runqs[w].pop() {
                        inner.run_task(t, &mut nodes[t - own.start], &mut batch, &mut out);
                    }
                })
            })
            .collect();
        *inner.workers.lock().expect("workers poisoned") = handles;
        ProductionAllocService { inner }
    }

    /// Stops the worker pool (idempotent). Called automatically on
    /// drop; exposed so callers can bound teardown explicitly.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

impl<P> Clone for ProductionAllocService<P>
where
    P: StateMachine + Send + 'static,
    P::Msg: Send + 'static,
{
    fn clone(&self) -> Self {
        self.inner.handles.fetch_add(1, Ordering::AcqRel);
        ProductionAllocService {
            inner: self.inner.clone(),
        }
    }
}

impl<P> Drop for ProductionAllocService<P>
where
    P: StateMachine + Send + 'static,
    P::Msg: Send + 'static,
{
    fn drop(&mut self) {
        // The workers hold their own `Arc<Inner>` clones, so the strong
        // count cannot tell handles apart from pool internals — count
        // handles explicitly and shut down with the last one.
        if self.inner.handles.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.inner.shutdown();
        }
    }
}

impl<P> AllocService for ProductionAllocService<P>
where
    P: StateMachine + Send + 'static,
    P::Msg: Send + 'static,
{
    fn request_channel(&mut self, req: ChannelRequest) -> Result<Ticket, ServeError> {
        if self.inner.counters.stopping.load(Ordering::Acquire) {
            return Err(ServeError::Unsupported("service is shutting down"));
        }
        if req.cell.index() >= self.inner.topo.num_cells() {
            return Err(ServeError::UnknownCell(req.cell));
        }
        let priority = req.kind == RequestKind::Handoff;
        // Break-before-make, matching the engine's `Ev::Hop`: claim and
        // retire the source ticket, return its channel, *then* issue the
        // priority acquire at the target. A rejected handoff therefore
        // drops the call with nothing left to clean up.
        let mut vacated = None;
        let ticket = {
            let mut tickets = self.inner.tickets.lock().expect("tickets poisoned");
            if priority {
                let Some(src) = req.handoff_of else {
                    return Err(ServeError::BadHandoff(
                        "a handoff needs its source ticket (ChannelRequest::handoff)",
                    ));
                };
                let Some(rec) = tickets.get_mut(src.0 as usize) else {
                    return Err(ServeError::UnknownTicket(src));
                };
                // Claiming under the tickets lock makes concurrent
                // handoffs of the same source mutually exclusive: the
                // loser sees Done and is refused.
                let TicketState::Active(src_ch) = rec.state else {
                    return Err(ServeError::BadHandoff(
                        "the source ticket is not holding a channel",
                    ));
                };
                rec.state = TicketState::Done;
                vacated = Some((src, rec.cell, src_ch));
            }
            let id = tickets.len() as u64;
            tickets.push(TicketRec {
                cell: req.cell,
                hold: req.hold,
                issued: Instant::now(),
                state: TicketState::Pending,
            });
            id
        };
        if let Some((src, src_cell, src_ch)) = vacated {
            // The channel is out of the ground truth before the target
            // search can observe it; the source node hears the release
            // on its own task; the subscriber sees the usual Released
            // (the call itself lives on under the new ticket — this is
            // a migration, not a completion, so `completed` is not
            // bumped).
            self.inner.ground.remove(src_cell, src_ch);
            self.inner.deliver(
                src_cell.index(),
                TaskEvent::Relinquish { ch: src_ch },
                self.inner.cfg.stall_patience,
            );
            self.inner.answer(|a| {
                a.indications.push_back(Indication::Released {
                    ticket: src,
                    cell: src_cell,
                    channel: src_ch,
                })
            });
        }
        self.inner.counters.offered.fetch_add(1, Ordering::Relaxed);
        self.inner.counters.pending.fetch_add(1, Ordering::Relaxed);
        // Blocking push: admission is behind the same bounded mailbox
        // as protocol traffic, so an overloaded cell pushes back on the
        // client. Handoff acquires jump the target's queue — the paper
        // prioritizes handoffs over new calls — but feel the same
        // backpressure.
        let ev = TaskEvent::Acquire {
            ticket,
            kind: req.kind,
        };
        if priority {
            self.inner
                .deliver_front(req.cell.index(), ev, self.inner.cfg.stall_patience);
        } else {
            self.inner
                .deliver(req.cell.index(), ev, self.inner.cfg.stall_patience);
        }
        Ok(Ticket(ticket))
    }

    fn release(&mut self, ticket: Ticket) -> Result<(), ServeError> {
        let cell = {
            let mut tickets = self.inner.tickets.lock().expect("tickets poisoned");
            let Some(rec) = tickets.get_mut(ticket.0 as usize) else {
                return Err(ServeError::UnknownTicket(ticket));
            };
            match rec.state {
                // Not granted yet: truncate the hold so the eventual
                // grant auto-releases immediately.
                TicketState::Pending => {
                    rec.hold = 0;
                    return Ok(());
                }
                TicketState::Done => return Ok(()), // benign double release
                TicketState::Active(_) => rec.cell,
            }
        };
        self.inner.deliver(
            cell.index(),
            TaskEvent::End { ticket: ticket.0 },
            self.inner.cfg.stall_patience,
        );
        Ok(())
    }

    fn confirm(&mut self) -> Option<Confirm> {
        let mut answers = self.inner.answers.lock().expect("answers poisoned");
        answers.confirms.pop_front()
    }

    fn indication(&mut self) -> Option<Indication> {
        let mut answers = self.inner.answers.lock().expect("answers poisoned");
        answers.indications.pop_front()
    }

    /// A real wait in place of the default's sleep-poll. It also ends,
    /// with `None`, as soon as an indication is queued, so that one
    /// thread can serve both queues: take the indications, call again.
    fn recv_confirm(&mut self, timeout: Duration) -> Option<Confirm> {
        let deadline = Instant::now() + timeout;
        let mut answers = self.inner.answers.lock().expect("answers poisoned");
        loop {
            if let Some(c) = answers.confirms.pop_front() {
                // A flush signals once however much it publishes: pass
                // the wake on while there is more for a parked handle.
                let more = answers.waiting > 0 && !answers.confirms.is_empty();
                drop(answers);
                if more {
                    self.inner.answered.notify_one();
                }
                return Some(c);
            }
            let now = Instant::now();
            if !answers.indications.is_empty() || now >= deadline {
                return None;
            }
            answers.waiting += 1;
            answers = self
                .inner
                .answered
                .wait_timeout(answers, deadline - now)
                .expect("answers poisoned")
                .0;
            answers.waiting -= 1;
        }
    }

    /// One lock, one wait on both queues, two drains — so a ticket's
    /// `Released` is never taken by an earlier call than its `Granted`.
    /// Parked under `waiting` like `recv_confirm`, so a flush's one
    /// wake finds it, for a flush of indications alone too; taking
    /// everything, it leaves nothing to pass that wake on for.
    fn recv_answers(
        &mut self,
        timeout: Duration,
        confirms: &mut Vec<Confirm>,
        indications: &mut Vec<Indication>,
    ) {
        let deadline = Instant::now() + timeout;
        let mut answers = self.inner.answers.lock().expect("answers poisoned");
        while answers.confirms.is_empty() && answers.indications.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            answers.waiting += 1;
            answers = self
                .inner
                .answered
                .wait_timeout(answers, deadline - now)
                .expect("answers poisoned")
                .0;
            answers.waiting -= 1;
        }
        confirms.extend(answers.confirms.drain(..));
        indications.extend(answers.indications.drain(..));
    }

    fn quiesce(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while self.inner.counters.pending.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    fn stats(&self) -> ServeStats {
        let c = &self.inner.counters;
        ServeStats {
            offered: c.offered.load(Ordering::Relaxed),
            granted: c.granted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            messages: c.messages.load(Ordering::Relaxed),
            backpressure_stalls: c.stalls.load(Ordering::Relaxed),
            backpressure_forced: c.forced.load(Ordering::Relaxed),
            violations: self
                .inner
                .violations
                .lock()
                .expect("violations poisoned")
                .clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_baselines::FixedNode;

    /// A pool larger than the grid is cut down to one worker a cell:
    /// a worker with no band would park on a queue nothing is pushed to.
    #[test]
    fn a_pool_larger_than_the_grid_is_clamped_to_it() {
        let topo = Arc::new(Topology::builder(1, 2).channels(7).build());
        let cfg = ProductionConfig {
            workers: 16,
            ..Default::default()
        };
        let mut svc = ProductionAllocService::new(topo, cfg, FixedNode::new);
        assert_eq!(svc.inner.runqs.len(), 2);
        assert_eq!(svc.inner.workers.lock().unwrap().len(), 2);
        assert_eq!(
            svc.inner.tasks.iter().map(|t| t.home).collect::<Vec<_>>(),
            [0, 1]
        );
        for c in [0, 1, 1, 0] {
            svc.request_channel(ChannelRequest::new_call(0, CellId(c), 0))
                .expect("request accepted");
        }
        assert!(svc.quiesce(Duration::from_secs(10)));
        let stats = svc.stats();
        assert_eq!(stats.granted + stats.rejected, 4);
        // Every queue is closed and every worker joined.
        svc.shutdown();
        assert!(svc.inner.workers.lock().unwrap().is_empty());
    }

    /// Exhaustive over every grid size and pool size in range: the
    /// bands tile the cells in id order, each cell's home is the band
    /// it lies in, and no band is more than one cell larger than
    /// another (nor empty, once `workers` is clamped to the cells).
    #[test]
    fn bands_partition_the_cells_evenly_and_in_order() {
        for cells in 1..=200usize {
            for asked in 1..=16usize {
                let workers = asked.min(cells);
                let mut next = 0;
                let (mut least, mut most) = (usize::MAX, 0);
                for w in 0..workers {
                    let own = band(w, workers, cells);
                    assert_eq!(own.start, next, "{cells} cells, {workers} workers: gap");
                    assert!(
                        own.clone().all(|t| home(t, workers, cells) == w),
                        "{cells} cells, {workers} workers: band {w} holds a foreign cell"
                    );
                    next = own.end;
                    least = least.min(own.len());
                    most = most.max(own.len());
                }
                assert_eq!(next, cells, "{cells} cells, {workers} workers: uncovered");
                assert!(least >= 1 && most - least <= 1, "{least}..={most}");
                let homes: Vec<usize> = (0..cells).map(|t| home(t, workers, cells)).collect();
                assert!(homes.windows(2).all(|p| p[0] <= p[1]), "homes not monotone");
            }
        }
    }
}
