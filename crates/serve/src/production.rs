//! The production backend: every MSS is a task on a bounded-mailbox
//! executor, answering requests at wall-clock time.
//!
//! The executor is deliberately minimal (the build is offline — no
//! tokio): a fixed pool of OS worker threads and one logical task per
//! cell. Every cell has a **home worker**, `home(t) = t * W / n`:
//! contiguous id ranges, which row-major `CellId`s make bands of grid
//! rows, so most of a cell's interference region (the only cells it
//! ever sends to) lives on the same worker. A worker owns its band's
//! protocol nodes by value and runs all of their activations, one after
//! the other — there is no lock around a node. There is no stealing: a
//! hot spot confined to one band is served by one worker (DESIGN §6 has
//! the price).
//!
//! A worker has **one mailbox** (`mailbox::Mailbox`) of `(cell, event)`
//! pairs, and each of its cells **one inbox**, a plain queue that only
//! the worker touches: no lock, no atomic. What a cell of the band sends
//! another goes straight into the destination's inbox. What any other
//! thread hands a cell — a send across the band edge, an admitted
//! request, a release — goes into its home worker's mailbox, which is
//! bounded at `mailbox_capacity` for each cell of the band, and it goes
//! in as **one run a destination worker**: an activation's sends, a
//! burst of admissions ([`AllocService::request_channels`]) — one
//! mailbox lock and at most one wake each. The bound holds for the
//! threads outside the executor only. A full mailbox blocks a caller —
//! an admission, a release, a wire reader — until its worker takes it
//! (real backpressure, surfaced all the way to
//! [`AllocService::request_channel`]); a worker's run goes in at once,
//! as a send within its band goes into an inbox. Only callers wait and
//! only workers make room, never waiting on a caller, so no cycle of
//! waits can form under any protocol messaging pattern.
//!
//! A worker **keeps its band's time**. Every timer a cell arms — a
//! protocol timer, or the end of a granted call's hold — is for that
//! cell, so it goes into its worker's own deadline heap, with no lock,
//! due in ticks from the arming activation's clock read. The workers
//! are the only threads the executor runs; shutdown discards the
//! timers that have not fired.
//!
//! A worker serves **one ready list**, a FIFO of its cells with
//! something in their inbox, each on it at most once. A round is the
//! cells that were on the list when it began; at its start the worker
//! publishes what the last round answered, files the timers that have
//! fallen due into their cells' inboxes (in deadline order, FIFO among
//! ties), then takes its whole mailbox under one lock and files each
//! event — a handoff's acquire behind the handoffs already at the front
//! of its cell's inbox, everything else at the back — so local and
//! remote work interleave and neither waits more than a round behind
//! the other. Only when the ready list is empty does the worker park
//! on its mailbox, until a push or its earliest due time.
//!
//! **Sends leave an activation; answers leave a round.** An activation
//! is one cell's turn, which takes its whole inbox. It reads the clock
//! once; its sends to other bands collect in the worker's own `Outbox`
//! and leave when it ends, as one run a destination worker (one mailbox
//! lock, no wait for room), with one add to the `messages` counter.
//! Its confirms and indications wait in the outbox for the round's end:
//! the worker publishes a round's answers under one `answers` lock with
//! at most one wake, the `granted`/`rejected`/`completed` counters and
//! `pending` moving with them. Nothing waits for a batch to fill: a
//! round of one activation of one event answers when that event is
//! done.
//!
//! Two ordering rules hold. *Links stay FIFO* (the schemes assume it)
//! because a link takes one FIFO path for the service's whole lifetime,
//! start-up included: the inbox within a band, the destination worker's
//! mailbox across its edge. *A ticket's `Granted` is published before
//! its `Released`*, by construction: a cell runs at most once a round,
//! a round's answers are published before the next round begins, and
//! the events that end a call — an `End` and a handoff's `Relinquish` —
//! enter an inbox only at a round start, from the heap or the mailbox,
//! so the `Released` comes from a later round than the `Granted`.
//!
//! Grants are audited by the engine's and the checker's Theorem-1
//! check, [`adca_simkit::Ground`], kept with the tickets in one ledger
//! under one lock: a grant's claim, audit and commit are one critical
//! section, so no interleaving can produce a false-clean run.
//!
//! Handoffs follow the engine's (and the paper's) break-before-make
//! order: the source channel is relinquished at submission — claimed
//! and out of the ground truth under the ledger lock, its
//! `Relinquish` into its worker's run ahead of the target's acquire —
//! then the acquire at the target cell is filed ahead of what waits in
//! its inbox (priority, same backpressure). The source's `Released` is
//! published by the source's worker, with the round that takes the
//! `Relinquish`. A rejected handoff drops the call — the paper's forced
//! termination — with nothing left to clean up, because the source
//! channel was already returned.

use crate::mailbox::Mailbox;
use crate::service::{
    AllocService, ChannelRequest, Confirm, Indication, ServeError, ServeStats, Ticket,
};
use adca_hexgrid::{CellId, Channel, Topology};
use adca_simkit::{
    Action, DropCause, Effects, Ground, Input, RequestId, RequestKind, SimTime, StateMachine,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// delays, call holds, and reported latencies. Clamped to at least
    /// 1.
    pub ns_per_tick: u64,
    /// Mailbox room for each cell (clamped to at least 1): a worker's
    /// mailbox is bounded at this times its band's length, for the
    /// threads outside the executor — admissions, releases — which wait
    /// for room. Checked once a push, and every push is one run — a
    /// burst of admissions, a release — so a caller leaves a mailbox
    /// holding fewer events than its bound plus its run. What a worker
    /// sends another goes in at once, past the bound if need be; sends
    /// within a band and timers do not go through a mailbox.
    pub mailbox_capacity: usize,
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
    /// A handoff away from this cell was admitted: feed
    /// [`Input::Release`] for the vacated channel and publish the source
    /// `ticket`'s `Released`, *without* ending the call (it lives on
    /// under the handoff ticket).
    Relinquish {
        ticket: u64,
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

/// What an armed timer files when it falls due: a protocol timer's
/// tag, or the ticket whose hold it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    Timer(u64),
    End(u64),
}

/// A worker's armed timers: `(due tick, arming order, band cell,
/// what)`, earliest first and FIFO among ties (the arming order is
/// unique, so `what` is never compared).
type Timers = BinaryHeap<Reverse<(u64, u64, usize, Due)>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TicketState {
    Pending,
    Active(Channel),
    Done,
}

struct TicketRec {
    cell: CellId,
    hold: u64,
    /// Ticks since `Inner::epoch` at admission.
    issued: u64,
    state: TicketState,
}

/// The tickets, the ground truth and what the audit found, under one
/// lock: a grant's claim, audit and commit are one critical section,
/// and so are a handoff's claim of its source and that channel's
/// return.
///
/// The table is a window, as an MSS keeps a call only while it waits
/// for a channel or holds one: ticket `t` is `tickets[t - base]`, from
/// the oldest unended ticket to the newest. A ticket that ends while it
/// is the oldest takes the ended ones behind it off the front, so the
/// front record is never `Done` and the window spans the tickets in
/// flight and the ended ones between them. The one limit: a call held
/// for a day pins the front, and every ticket issued that day stays.
struct Ledger {
    tickets: VecDeque<TicketRec>,
    base: u64,
    ground: Ground,
    violations: Vec<String>,
}

impl Ledger {
    /// The ticket the next admission is issued.
    fn next(&self) -> u64 {
        self.base + self.tickets.len() as u64
    }

    /// Ticket `t`'s state: below the window it has ended; `None` if it
    /// was never issued.
    fn state(&self, t: u64) -> Option<TicketState> {
        match t.checked_sub(self.base) {
            None => Some(TicketState::Done),
            Some(i) => usize::try_from(i)
                .ok()
                .and_then(|i| self.tickets.get(i))
                .map(|rec| rec.state),
        }
    }

    /// Ticket `t`'s record; `t` is in the window (it has not ended).
    fn rec(&mut self, t: u64) -> &mut TicketRec {
        &mut self.tickets[(t - self.base) as usize]
    }

    /// Ends ticket `t`; if it is the oldest, trims the ended records
    /// off the front. Any other leaves the front as it was, not `Done`.
    fn end(&mut self, t: u64) {
        self.rec(t).state = TicketState::Done;
        if t != self.base {
            return;
        }
        while self
            .tickets
            .front()
            .is_some_and(|rec| rec.state == TicketState::Done)
        {
            self.tickets.pop_front();
            self.base += 1;
        }
    }

    /// Pending ticket `req`, for `me` to resolve. A ticket resolved
    /// already, or never issued, is a violation, and `None`.
    fn resolve(&mut self, me: CellId, req: RequestId) -> Option<&mut TicketRec> {
        let t = req.0;
        let v = match self.state(t) {
            Some(TicketState::Pending) => return Some(self.rec(t)),
            Some(_) => format!("{me} resolved ticket#{t} twice"),
            None => format!("{me} resolved ticket#{t}, never issued"),
        };
        self.violations.push(v);
        None
    }
}

/// What one thread hands other workers at once: `runs[w]` is bound for
/// worker `w`'s mailbox, each event with the band cell it is for.
type Runs<M> = Vec<Vec<(usize, TaskEvent<M>)>>;

/// One empty run a worker.
fn runs<M>(workers: usize) -> Runs<M> {
    (0..workers).map(|_| Vec::new()).collect()
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
    pending: AtomicU64,
    stopping: AtomicBool,
}

struct Inner<P: StateMachine> {
    topo: Arc<Topology>,
    cfg: ProductionConfig,
    epoch: Instant,
    /// One mailbox a worker; what another thread hands cell `t` goes
    /// into `mailboxes[home(t, ..)]`.
    mailboxes: Vec<Mailbox<(usize, TaskEvent<P::Msg>)>>,
    ledger: Mutex<Ledger>,
    answers: Mutex<Answers>,
    answered: Condvar,
    counters: Counters,
    /// Live [`ProductionAllocService`] clones sharing this executor;
    /// the last one to drop shuts the pool down.
    handles: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// What a worker thread owns: its band's protocol nodes, the buffers
/// its activations reuse, and its outbox (timers included).
struct Worker<P: StateMachine> {
    /// `nodes[t - out.own.start]` is cell `t`'s.
    nodes: Vec<P>,
    /// What the last mailbox take brought, on its way to the inboxes.
    taken: VecDeque<(usize, TaskEvent<P::Msg>)>,
    batch: VecDeque<TaskEvent<P::Msg>>,
    out: Outbox<P::Msg>,
}

/// One cell of a band, as its home worker keeps it.
struct Local<M> {
    /// What is waiting for the cell's next activation.
    inbox: VecDeque<TaskEvent<M>>,
    /// On the worker's ready list (so not appended again).
    queued: bool,
}

/// Where a worker's activations put what they emit: sends within the
/// band straight into the destination's inbox, timers into the heap,
/// sends to other bands collected until [`Inner::flush`] and answers
/// until [`Inner::publish`] — plus the buffer the worker lends to every
/// transition it runs.
struct Outbox<M> {
    /// The worker's band; `local[t - own.start]` is cell `t`.
    own: Range<usize>,
    local: Vec<Local<M>>,
    /// The grid's cell count, which [`home`] divides by.
    cells: usize,
    /// The band's cells due an activation, in the order they became
    /// due.
    ready: VecDeque<usize>,
    /// Sends since the last flush, which counts them.
    sent: usize,
    actions: Vec<Action<M>>,
    /// The sends to other bands, one run a destination worker.
    remote: Runs<M>,
    /// The band's armed timers, and how many were ever armed.
    timers: Timers,
    armed: u64,
    /// The round's answers, and how many of its indications end a call
    /// (the rest are handoffs' migrations).
    confirms: Vec<Confirm>,
    indications: Vec<Indication>,
    completed: usize,
}

impl<M> Outbox<M> {
    fn new(cells: usize, workers: usize, own: Range<usize>) -> Self {
        Outbox {
            local: own
                .clone()
                .map(|_| Local {
                    inbox: VecDeque::new(),
                    queued: false,
                })
                .collect(),
            own,
            cells,
            ready: VecDeque::new(),
            sent: 0,
            actions: Vec::new(),
            remote: runs(workers),
            timers: BinaryHeap::new(),
            armed: 0,
            confirms: Vec::new(),
            indications: Vec::new(),
            completed: 0,
        }
    }

    /// Files `ev` into band cell `t`'s inbox — a handoff's acquire
    /// behind the handoffs at its front and ahead of everything else
    /// (the paper serves handoffs before new calls, and in turn), any
    /// other event at the back — and makes the cell ready unless it is
    /// on the ready list already.
    fn file(&mut self, t: usize, ev: TaskEvent<M>) {
        let cell = &mut self.local[t - self.own.start];
        if is_handoff(&ev) {
            let at = cell
                .inbox
                .iter()
                .position(|e| !is_handoff(e))
                .unwrap_or(cell.inbox.len());
            cell.inbox.insert(at, ev);
        } else {
            cell.inbox.push_back(ev);
        }
        if !cell.queued {
            cell.queued = true;
            self.ready.push_back(t);
        }
    }

    fn send(&mut self, to: usize, ev: TaskEvent<M>) {
        self.sent += 1;
        if self.own.contains(&to) {
            self.file(to, ev);
        } else {
            let w = home(to, self.remote.len(), self.cells);
            self.remote[w].push((to, ev));
        }
    }

    /// Arms a timer for band cell `t` at tick `due`.
    fn arm(&mut self, due: u64, t: usize, what: Due) {
        self.timers.push(Reverse((due, self.armed, t, what)));
        self.armed += 1;
    }

    /// Files every timer due by tick `now` into its cell's inbox, in
    /// deadline order and FIFO among ties.
    fn fire(&mut self, now: u64) {
        while let Some(&Reverse((due, _, t, what))) = self.timers.peek() {
            if due > now {
                return;
            }
            self.timers.pop();
            let ev = match what {
                Due::Timer(tag) => TaskEvent::Timer { tag },
                Due::End(ticket) => TaskEvent::End { ticket },
            };
            self.file(t, ev);
        }
    }
}

fn is_handoff<M>(ev: &TaskEvent<M>) -> bool {
    matches!(
        ev,
        TaskEvent::Acquire {
            kind: RequestKind::Handoff,
            ..
        }
    )
}

impl<P> Inner<P>
where
    P: StateMachine + Send + 'static,
    P::Msg: Send + 'static,
{
    /// Ticks since `epoch`: one clock read.
    fn ticks(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 / self.cfg.ns_per_tick
    }

    /// Parks a handle until a publication signals it or `deadline` passes
    /// (`None`: no limit, and a wait of `Duration::MAX` is one without
    /// a timeout); `None` once it has passed.
    fn park<'a>(
        &self,
        mut answers: MutexGuard<'a, Answers>,
        deadline: Option<Instant>,
    ) -> Option<MutexGuard<'a, Answers>> {
        let left = deadline.map_or(Duration::MAX, |d| {
            d.saturating_duration_since(Instant::now())
        });
        if left.is_zero() {
            return None;
        }
        answers.waiting += 1;
        answers = self
            .answered
            .wait_timeout(answers, left)
            .expect("answers poisoned")
            .0;
        answers.waiting -= 1;
        Some(answers)
    }

    /// The worker that owns cell `t`.
    fn home(&self, t: usize) -> usize {
        home(t, self.mailboxes.len(), self.topo.num_cells())
    }

    /// Hands every non-empty run to its worker: one push, one mailbox
    /// lock, a destination, whatever the number of events. A caller
    /// (`wait`) waits for room and counts each push that had to; a
    /// worker's runs go in at once.
    fn push_runs(&self, runs: &mut Runs<P::Msg>, wait: bool) {
        for (w, run) in runs.iter_mut().enumerate() {
            if !run.is_empty() && self.mailboxes[w].push_run(run.drain(..), wait) {
                self.counters.stalls.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Hands an activation's sends over: the count, then one run a
    /// destination worker, none of which waits for room.
    fn flush(&self, out: &mut Outbox<P::Msg>) {
        if out.sent > 0 {
            let sent = std::mem::take(&mut out.sent) as u64;
            self.counters.messages.fetch_add(sent, Ordering::Relaxed);
        }
        self.push_runs(&mut out.remote, false);
    }

    /// Publishes a round's answers: counters, then the answers under one
    /// `answers` lock — waking a parked handle, if there is one, after
    /// the lock is released so that it does not block on it — then
    /// `pending`.
    fn publish(&self, out: &mut Outbox<P::Msg>) {
        let resolved = out.confirms.len();
        if resolved + out.indications.len() == 0 {
            return;
        }
        let c = &self.counters;
        let add = |counter: &AtomicU64, n: usize| {
            if n > 0 {
                counter.fetch_add(n as u64, Ordering::Relaxed);
            }
        };
        // Counted no later than published: `stats()` read after the
        // last confirm was taken agrees with what the handles took.
        let granted = out.confirms.iter().filter(|c| c.is_granted()).count();
        add(&c.granted, granted);
        add(&c.rejected, resolved - granted);
        add(&c.completed, std::mem::take(&mut out.completed));
        let wake = {
            let mut answers = self.answers.lock().expect("answers poisoned");
            answers.confirms.extend(out.confirms.drain(..));
            answers.indications.extend(out.indications.drain(..));
            answers.waiting > 0
        };
        if wake {
            self.answered.notify_one();
        }
        // Published, then no longer pending: when `quiesce` returns,
        // every confirm can be taken.
        c.pending.fetch_sub(resolved as u64, Ordering::Release);
    }

    /// A worker's loop: rounds of activations in ready-list order.
    /// Returns once the mailbox is closed.
    fn work(&self, w: usize, mut me: Worker<P>) {
        let mut round = 0;
        loop {
            if round == 0 {
                if !self.begin_round(w, &mut me) {
                    return;
                }
                round = me.out.ready.len();
            }
            round -= 1;
            let t = me
                .out
                .ready
                .pop_front()
                .expect("a round never outlasts the list");
            self.run_task(t, &mut me);
        }
    }

    /// The start of a round: the last round's answers published, then
    /// the timers due and the mailbox filed. Parks — until a push or
    /// the earliest due time — while no cell of the band is ready. False
    /// once the mailbox is closed.
    fn begin_round(&self, w: usize, me: &mut Worker<P>) -> bool {
        // Before any End or Relinquish can be filed: the `Released` of
        // this round's activations comes no earlier than the next round
        // publishes, so no ticket's `Released` overtakes its `Granted`.
        self.publish(&mut me.out);
        loop {
            me.out.fire(self.ticks());
            let wait = match me.out.timers.peek() {
                _ if !me.out.ready.is_empty() => Duration::ZERO,
                Some(Reverse((due, ..))) => {
                    let at = Duration::from_nanos(due.saturating_mul(self.cfg.ns_per_tick));
                    at.saturating_sub(self.epoch.elapsed())
                }
                None => Duration::MAX,
            };
            if !self.mailboxes[w].take(&mut me.taken, wait) {
                return false;
            }
            for (t, ev) in me.taken.drain(..) {
                me.out.file(t, ev);
            }
            if !me.out.ready.is_empty() {
                return true;
            }
        }
    }

    /// One activation of band cell `t`: its whole inbox into the node,
    /// then a flush of the sends that emitted.
    fn run_task(&self, t: usize, me: &mut Worker<P>) {
        let i = t - me.out.own.start;
        let local = &mut me.out.local[i];
        local.queued = false;
        std::mem::swap(&mut me.batch, &mut local.inbox);
        let (cell, node) = (CellId(t as u32), &mut me.nodes[i]);
        // One clock read for the activation: events taken together were
        // already waiting together.
        let now = SimTime(self.ticks());
        for ev in me.batch.drain(..) {
            let input = match ev {
                TaskEvent::Acquire { ticket, kind } => Input::Acquire {
                    req: RequestId(ticket),
                    kind,
                },
                TaskEvent::End { ticket } => {
                    self.end_call(ticket, cell, now, node, &mut me.out);
                    continue;
                }
                TaskEvent::Relinquish { ticket, ch } => {
                    // A migration, not a completion: counted nowhere.
                    me.out.indications.push(Indication::Released {
                        ticket: Ticket(ticket),
                        cell,
                        channel: ch,
                    });
                    Input::Release { ch }
                }
                TaskEvent::Msg { from, msg } => Input::Message { from, msg },
                TaskEvent::Timer { tag } => Input::Timer { tag },
            };
            self.step(cell, now, node, input, &mut me.out);
        }
        self.flush(&mut me.out);
    }

    fn shutdown(&self) {
        if self.counters.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        for mb in &self.mailboxes {
            mb.close();
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Feeds `input` to `me`'s node (the caller owns it) at
    /// time `now`, then applies the actions it emitted, in emission
    /// order; what is bound for another cell or thread goes to `out`.
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
                Action::Grant { req, ch } => self.grant(me, now, req, ch, out),
                Action::Reject { req, cause } => self.reject(me, req, cause, out),
                Action::SetTimer { delay, tag } => {
                    out.arm(now.0.saturating_add(delay), me.index(), Due::Timer(tag));
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
            let mut ledger = self.ledger.lock().expect("ledger poisoned");
            let Some(TicketState::Active(ch)) = ledger.state(ticket) else {
                // Benign race: released twice, or released while still
                // pending (the release path truncated the hold instead).
                return;
            };
            ledger.end(ticket);
            ledger.ground.release(me, ch);
            ch
        };
        self.step(me, now, node, Input::Release { ch }, out);
        out.indications.push(Indication::Released {
            ticket: Ticket(ticket),
            cell: me,
            channel: ch,
        });
        out.completed += 1;
    }

    fn grant(
        &self,
        me: CellId,
        now: SimTime,
        req: RequestId,
        ch: Channel,
        out: &mut Outbox<P::Msg>,
    ) {
        // Claim the ticket first (guards against a buggy protocol
        // resolving one request twice, which would corrupt the pending
        // counter), then audit + commit before the claim is let go:
        // whoever finds the ticket active — a handoff, a release — finds
        // its channel committed, to take back out of the ground truth.
        let (latency, hold) = {
            let mut ledger = self.ledger.lock().expect("ledger poisoned");
            let Some(rec) = ledger.resolve(me, req) else {
                return;
            };
            debug_assert_eq!(rec.cell, me, "grant from the wrong cell");
            rec.state = TicketState::Active(ch);
            let (latency, hold) = (now.0.saturating_sub(rec.issued), rec.hold);
            if let Some(v) = ledger.ground.grant(&self.topo, now, me, ch) {
                ledger.violations.push(v.to_string());
            }
            (latency, hold)
        };
        out.confirms.push(Confirm::Granted {
            ticket: Ticket(req.0),
            cell: me,
            channel: ch,
            latency,
        });
        out.arm(now.0.saturating_add(hold), me.index(), Due::End(req.0));
    }

    fn reject(&self, me: CellId, req: RequestId, cause: DropCause, out: &mut Outbox<P::Msg>) {
        {
            let mut ledger = self.ledger.lock().expect("ledger poisoned");
            if ledger.resolve(me, req).is_none() {
                return;
            }
            ledger.end(req.0);
        }
        out.confirms.push(Confirm::Rejected {
            ticket: Ticket(req.0),
            cell: me,
            cause,
        });
    }

    /// Admits or refuses one request of a burst, under the burst's
    /// `ledger` lock and at its clock read `issued`. An admitted
    /// request's acquire goes into `runs`; a handoff's source is
    /// claimed first, its channel taken out of the ground truth before
    /// any target search can observe it, and its `Relinquish` put into
    /// `runs` ahead of the acquire — break-before-make, matching the
    /// engine's `Ev::Hop`, so a rejected handoff drops the call with
    /// nothing left to clean up.
    fn admit(
        &self,
        ledger: &mut Ledger,
        req: &ChannelRequest,
        issued: u64,
        runs: &mut Runs<P::Msg>,
    ) -> Result<Ticket, ServeError> {
        let t = req.cell.index();
        if t >= self.topo.num_cells() {
            return Err(ServeError::UnknownCell(req.cell));
        }
        if req.kind == RequestKind::Handoff {
            let Some(src) = req.handoff_of else {
                return Err(ServeError::BadHandoff(
                    "a handoff needs its source ticket (ChannelRequest::handoff)",
                ));
            };
            // Claiming under the ledger lock makes concurrent handoffs
            // of the same source mutually exclusive: the loser sees Done
            // and is refused.
            let ch = match ledger.state(src.0) {
                None => return Err(ServeError::UnknownTicket(src)),
                Some(TicketState::Active(ch)) => ch,
                Some(_) => {
                    return Err(ServeError::BadHandoff(
                        "the source ticket is not holding a channel",
                    ))
                }
            };
            let src_cell = ledger.rec(src.0).cell;
            ledger.end(src.0);
            ledger.ground.release(src_cell, ch);
            let src_cell = src_cell.index();
            let relinquish = TaskEvent::Relinquish { ticket: src.0, ch };
            runs[self.home(src_cell)].push((src_cell, relinquish));
        }
        let ticket = ledger.next();
        ledger.tickets.push_back(TicketRec {
            cell: req.cell,
            hold: req.hold,
            issued,
            state: TicketState::Pending,
        });
        let kind = req.kind;
        runs[self.home(t)].push((t, TaskEvent::Acquire { ticket, kind }));
        Ok(Ticket(ticket))
    }
}

/// [`AllocService`] served live by the bounded-mailbox executor.
///
/// Each cell's protocol node runs as a task on a fixed worker pool;
/// requests are answered at wall-clock time (latencies are reported in
/// ticks of [`ProductionConfig::ns_per_tick`]). Granted calls
/// auto-release when their hold expires.
///
/// Its ticket table holds 24 B a ticket from the oldest unended one to
/// the newest, not a record for every request ever issued, so a
/// service that runs forever holds its calls in flight and the ended
/// tickets issued since the oldest of them. The limit: a call held for
/// a day keeps every ticket issued that day in the table until it ends.
/// Tickets are numbered in submission order all the same, and an ended
/// ticket answers as it did: a release is `Ok(())`, a handoff from it
/// is a [`ServeError::BadHandoff`].
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
    /// The buffers of this handle's admissions, reused burst after
    /// burst: the acquires (and a handoff's relinquish) one run a
    /// worker, and `request_channel`'s one result.
    runs: Runs<P::Msg>,
    one: Vec<Result<Ticket, ServeError>>,
}

impl<P> ProductionAllocService<P>
where
    P: StateMachine + Send + 'static,
    P::Msg: Send + 'static,
{
    /// Starts the executor: builds one `factory`-made node per cell,
    /// feeds every node [`Input::Start`] (before any request can be
    /// observed), and spawns the worker pool, moving each band's nodes
    /// — and the timers their start armed — into its worker.
    pub fn new<F>(topo: Arc<Topology>, cfg: ProductionConfig, mut factory: F) -> Self
    where
        F: FnMut(CellId, &Topology) -> P,
    {
        let n = topo.num_cells();
        let workers = cfg.workers.min(n).max(1);
        let cfg = ProductionConfig {
            ns_per_tick: cfg.ns_per_tick.max(1),
            ..cfg
        };
        // Built a band at a time, in id order, so that a band's nodes
        // are laid out together and move into their worker as they are.
        let mut bands: Vec<Worker<P>> = (0..workers)
            .map(|w| {
                let own = band(w, workers, n);
                Worker {
                    nodes: own
                        .clone()
                        .map(|t| factory(CellId(t as u32), &topo))
                        .collect(),
                    taken: VecDeque::new(),
                    batch: VecDeque::new(),
                    out: Outbox::new(n, workers, own),
                }
            })
            .collect();
        let mailboxes = (0..workers)
            .map(|w| {
                let cells = band(w, workers, n).len();
                Mailbox::new(cfg.mailbox_capacity.max(1).saturating_mul(cells))
            })
            .collect();
        let inner = Arc::new(Inner {
            ledger: Mutex::new(Ledger {
                tickets: VecDeque::new(),
                base: 0,
                ground: Ground::new(&topo),
                violations: Vec::new(),
            }),
            topo,
            cfg,
            epoch: Instant::now(),
            mailboxes,
            answers: Mutex::default(),
            answered: Condvar::new(),
            counters: Counters::default(),
            handles: AtomicU64::new(1),
            workers: Mutex::new(Vec::new()),
        });
        // Start before the workers exist, so no node can observe a
        // message before its own start ran; band by band, each through
        // its worker's outbox, so a start-up send takes the path its
        // link always takes.
        for me in &mut bands {
            for (node, t) in me.nodes.iter_mut().zip(me.out.own.clone()) {
                let now = SimTime(inner.ticks());
                inner.step(CellId(t as u32), now, node, Input::Start, &mut me.out);
                inner.flush(&mut me.out);
            }
        }
        let handles: Vec<JoinHandle<()>> = bands
            .into_iter()
            .enumerate()
            .map(|(w, me)| {
                let inner = inner.clone();
                std::thread::spawn(move || inner.work(w, me))
            })
            .collect();
        *inner.workers.lock().expect("workers poisoned") = handles;
        ProductionAllocService::handle(inner)
    }

    /// A handle onto `inner`, with empty buffers.
    fn handle(inner: Arc<Inner<P>>) -> Self {
        ProductionAllocService {
            runs: runs(inner.mailboxes.len()),
            one: Vec::new(),
            inner,
        }
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
        ProductionAllocService::handle(self.inner.clone())
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
    /// The burst of one.
    fn request_channel(&mut self, req: ChannelRequest) -> Result<Ticket, ServeError> {
        let mut one = std::mem::take(&mut self.one);
        self.request_channels(std::slice::from_ref(&req), &mut one);
        let result = one.pop().expect("one result a request");
        self.one = one;
        result
    }

    /// One pass over the burst: one `ledger` lock and one clock read
    /// for all of it, one add a counter, then one push a destination
    /// worker. The push is blocking: an overloaded band pushes back on
    /// the caller, which waits for room with no deadline, and a run
    /// fits or waits as a whole — a burst overshoots a mailbox's bound
    /// by itself at most. A handoff's acquire is filed ahead of what
    /// waits at its target — the paper prioritizes handoffs over new
    /// calls — but feels the same backpressure.
    fn request_channels(
        &mut self,
        reqs: &[ChannelRequest],
        out: &mut Vec<Result<Ticket, ServeError>>,
    ) {
        let inner = &*self.inner;
        if inner.counters.stopping.load(Ordering::Acquire) {
            let shutting = ServeError::Unsupported("service is shutting down");
            out.extend(reqs.iter().map(|_| Err(shutting)));
            return;
        }
        let admitted = {
            let issued = inner.ticks();
            let mut ledger = inner.ledger.lock().expect("ledger poisoned");
            let before = ledger.next();
            for req in reqs {
                out.push(inner.admit(&mut ledger, req, issued, &mut self.runs));
            }
            ledger.next() - before
        };
        if admitted == 0 {
            return;
        }
        inner
            .counters
            .offered
            .fetch_add(admitted, Ordering::Relaxed);
        inner
            .counters
            .pending
            .fetch_add(admitted, Ordering::Relaxed);
        inner.push_runs(&mut self.runs, true);
    }

    fn release(&mut self, ticket: Ticket) -> Result<(), ServeError> {
        let cell = {
            let mut ledger = self.inner.ledger.lock().expect("ledger poisoned");
            match ledger.state(ticket.0) {
                None => return Err(ServeError::UnknownTicket(ticket)),
                // Not granted yet: truncate the hold so the eventual
                // grant auto-releases immediately.
                Some(TicketState::Pending) => {
                    ledger.rec(ticket.0).hold = 0;
                    return Ok(());
                }
                Some(TicketState::Done) => return Ok(()), // benign double release
                Some(TicketState::Active(_)) => ledger.rec(ticket.0).cell.index(),
            }
        };
        // A run of one, behind the same bound as an admission.
        let end = TaskEvent::End { ticket: ticket.0 };
        self.runs[self.inner.home(cell)].push((cell, end));
        self.inner.push_runs(&mut self.runs, true);
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
        let deadline = Instant::now().checked_add(timeout);
        let mut answers = self.inner.answers.lock().expect("answers poisoned");
        loop {
            if let Some(c) = answers.confirms.pop_front() {
                // A round signals once however much it publishes: pass
                // the wake on while there is more for a parked handle.
                let more = answers.waiting > 0 && !answers.confirms.is_empty();
                drop(answers);
                if more {
                    self.inner.answered.notify_one();
                }
                return Some(c);
            }
            if !answers.indications.is_empty() {
                return None;
            }
            answers = self.inner.park(answers, deadline)?;
        }
    }

    /// One lock, one wait on both queues, two drains — so a ticket's
    /// `Released` is never taken by an earlier call than its `Granted`.
    /// Parked under `waiting` like `recv_confirm`, so a publication's
    /// one wake finds it, for a publication of indications alone too;
    /// taking everything, it leaves nothing to pass that wake on for.
    fn recv_answers(
        &mut self,
        timeout: Duration,
        confirms: &mut Vec<Confirm>,
        indications: &mut Vec<Indication>,
    ) {
        let deadline = Instant::now().checked_add(timeout);
        let mut answers = self.inner.answers.lock().expect("answers poisoned");
        while answers.confirms.is_empty() && answers.indications.is_empty() {
            match self.inner.park(answers, deadline) {
                Some(parked) => answers = parked,
                None => return,
            }
        }
        confirms.extend(answers.confirms.drain(..));
        indications.extend(answers.indications.drain(..));
    }

    fn quiesce(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now().checked_add(limit);
        while self.inner.counters.pending.load(Ordering::Acquire) > 0 {
            if deadline.is_some_and(|d| Instant::now() >= d) {
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
            backpressure_forced: 0,
            violations: self
                .inner
                .ledger
                .lock()
                .expect("ledger poisoned")
                .violations
                .clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_baselines::FixedNode;

    /// A pool larger than the grid is cut down to one worker a cell:
    /// a worker with no band would park on a mailbox nothing is pushed
    /// to.
    #[test]
    fn a_pool_larger_than_the_grid_is_clamped_to_it() {
        let topo = Arc::new(Topology::builder(1, 2).channels(7).build());
        let cfg = ProductionConfig {
            workers: 16,
            ..Default::default()
        };
        let mut svc = ProductionAllocService::new(topo, cfg, FixedNode::new);
        assert_eq!(svc.inner.mailboxes.len(), 2);
        assert_eq!(svc.inner.workers.lock().unwrap().len(), 2);
        assert_eq!([home(0, 2, 2), home(1, 2, 2)], [0, 1]);
        for c in [0, 1, 1, 0] {
            svc.request_channel(ChannelRequest::new_call(0, CellId(c), 0))
                .expect("request accepted");
        }
        assert!(svc.quiesce(Duration::from_secs(10)));
        let stats = svc.stats();
        assert_eq!(stats.granted + stats.rejected, 4);
        // Every mailbox is closed and every worker joined.
        svc.shutdown();
        assert!(svc.inner.workers.lock().unwrap().is_empty());
    }

    /// A zero tick is taken as 1 ns, so holds and timers are as long as
    /// the latencies say; a zero mailbox capacity as room for one event
    /// a cell.
    #[test]
    fn a_zero_tick_or_capacity_is_clamped_to_one() {
        let topo = Arc::new(Topology::builder(2, 2).channels(7).build());
        let cfg = ProductionConfig {
            workers: 1,
            ns_per_tick: 0,
            mailbox_capacity: 0,
        };
        let mut svc = ProductionAllocService::new(topo, cfg, FixedNode::new);
        assert_eq!(svc.inner.cfg.ns_per_tick, 1);
        for c in [0, 1, 2, 3, 0] {
            svc.request_channel(ChannelRequest::new_call(0, CellId(c), 0))
                .expect("request accepted");
        }
        assert!(svc.quiesce(Duration::from_secs(2)));
        let stats = svc.stats();
        assert_eq!(stats.granted + stats.rejected, 5);
    }

    /// The filing rule: a handoff's acquire is taken before the events
    /// already waiting in its cell's inbox, whichever path brought
    /// them, and after the handoffs filed before it; everything else is
    /// taken in the order it came. A cell is made ready once, and a send
    /// to another band waits in the outbox for the flush.
    #[test]
    fn a_handoff_acquire_is_taken_before_what_waits() {
        let mut out = Outbox::<()>::new(4, 2, 0..2);
        out.send(
            1,
            TaskEvent::Msg {
                from: CellId(0),
                msg: (),
            },
        );
        out.file(1, TaskEvent::Timer { tag: 5 });
        let acquire = |ticket, kind| TaskEvent::Acquire { ticket, kind };
        out.file(1, acquire(9, RequestKind::Handoff));
        out.file(1, acquire(10, RequestKind::NewCall));
        out.file(1, acquire(11, RequestKind::Handoff));
        out.send(3, TaskEvent::Timer { tag: 6 });
        let inbox = &out.local[1].inbox;
        assert_eq!(inbox.len(), 5);
        assert!(matches!(inbox[0], TaskEvent::Acquire { ticket: 9, .. }));
        assert!(matches!(inbox[1], TaskEvent::Acquire { ticket: 11, .. }));
        assert!(matches!(inbox[2], TaskEvent::Msg { .. }));
        assert!(matches!(inbox[3], TaskEvent::Timer { tag: 5 }));
        assert!(matches!(inbox[4], TaskEvent::Acquire { ticket: 10, .. }));
        assert_eq!(out.ready, [1]);
        assert!(out.local[0].inbox.is_empty() && out.remote[0].is_empty());
        assert!(matches!(
            out.remote[1][..],
            [(3, TaskEvent::Timer { tag: 6 })]
        ));
        assert_eq!(out.sent, 2);
    }

    /// A worker's timers fall due in deadline order, FIFO among ties,
    /// whichever kind they are and however they were armed; each is
    /// filed into its cell's inbox, a cell made ready once; and nothing
    /// is filed before its tick.
    #[test]
    fn timers_are_filed_in_deadline_order_fifo_among_ties() {
        let mut out = Outbox::<()>::new(4, 1, 0..4);
        // (due tick, cell, what), in arming order.
        let armed = [
            (30, 2, Due::Timer(1)),
            (10, 1, Due::End(7)),
            (30, 1, Due::End(8)),
            (20, 3, Due::Timer(2)),
            (10, 1, Due::Timer(3)),
            (30, 2, Due::Timer(4)),
        ];
        for (due, t, what) in armed {
            out.arm(due, t, what);
        }
        out.fire(9);
        assert!(out.ready.is_empty(), "filed before its tick");
        out.fire(30);
        let taken = |t: usize| -> Vec<String> {
            out.local[t]
                .inbox
                .iter()
                .map(|ev| match ev {
                    TaskEvent::Timer { tag } => format!("timer {tag}"),
                    TaskEvent::End { ticket } => format!("end {ticket}"),
                    _ => unreachable!("only timers were armed"),
                })
                .collect()
        };
        assert_eq!(taken(1), ["end 7", "timer 3", "end 8"]);
        assert_eq!(taken(2), ["timer 1", "timer 4"]);
        assert_eq!(taken(3), ["timer 2"]);
        // Cells in the order their first timer fell due.
        assert_eq!(out.ready, [1, 3, 2]);
        assert!(out.timers.is_empty());
    }

    /// A ticket's record is 24 bytes: its admission time is a tick
    /// count, not an `Instant`.
    #[test]
    fn a_ticket_record_is_three_words() {
        assert_eq!(std::mem::size_of::<TicketRec>(), 24);
    }

    /// The ticket table holds the tickets in flight, not every ticket
    /// issued: 200 000 zero-hold calls in bursts on 12×12, their answers
    /// drained as they come, never take it past 10 000 records, nor its
    /// allocation.
    #[test]
    fn the_ticket_table_stays_flat() {
        const CALLS: u64 = 200_000;
        const BURST: u64 = 500;
        const IN_FLIGHT: u64 = 1_000;
        let topo = Arc::new(Topology::builder(12, 12).channels(70).build());
        let cells = topo.num_cells() as u64;
        let cfg = ProductionConfig {
            workers: 2,
            ..Default::default()
        };
        let mut svc = ProductionAllocService::new(topo, cfg, FixedNode::new);
        let (mut issued, mut ended, mut widest) = (0, 0, 0);
        let (mut results, mut confirms, mut indications) = (Vec::new(), Vec::new(), Vec::new());
        while issued < CALLS {
            let reqs: Vec<ChannelRequest> = (issued..issued + BURST)
                .map(|i| ChannelRequest::new_call(0, CellId((i % cells) as u32), 0))
                .collect();
            svc.request_channels(&reqs, &mut results);
            assert!(results.drain(..).all(|r| r.is_ok()));
            issued += BURST;
            {
                let ledger = svc.inner.ledger.lock().unwrap();
                widest = widest
                    .max(ledger.tickets.len())
                    .max(ledger.tickets.capacity());
            }
            // A call ends with its rejection or its release.
            while issued - ended > IN_FLIGHT {
                svc.recv_answers(Duration::from_secs(10), &mut confirms, &mut indications);
                assert!(
                    !confirms.is_empty() || !indications.is_empty(),
                    "no answer in 10 s"
                );
                let rejected = confirms.drain(..).filter(|c| !c.is_granted()).count();
                ended += (rejected + indications.drain(..).count()) as u64;
            }
        }
        assert!(widest <= 10_000, "the ticket table reached {widest}");
    }

    /// Grants cell 0's requests a channel each, in turn. Any other cell
    /// rejects each request, then re-grants the next old ticket of its
    /// script: a protocol that resolves a request twice.
    struct Regrant {
        script: VecDeque<u64>,
        next: u16,
    }

    impl StateMachine for Regrant {
        type Msg = ();

        fn msg_kind(_: &()) -> &'static str {
            "NONE"
        }

        fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<()>) {
            match self.script.pop_front() {
                None => {
                    fx.grant(req, Channel(self.next));
                    self.next += 1;
                }
                Some(old) => {
                    fx.reject(req);
                    fx.grant(RequestId(old), Channel(0));
                }
            }
        }

        fn release(&mut self, _ch: Channel, _fx: &mut Effects<()>) {}

        fn message(&mut self, _from: CellId, _msg: (), _fx: &mut Effects<()>) {}
    }

    /// Waits for ticket `t`'s `Released`.
    fn await_release(svc: &mut ProductionAllocService<Regrant>, t: u64) {
        let (mut confirms, mut indications) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !indications
            .iter()
            .any(|i: &Indication| matches!(i, Indication::Released { ticket, .. } if ticket.0 == t))
        {
            assert!(Instant::now() < deadline, "ticket#{t} never released");
            svc.recv_answers(Duration::from_millis(100), &mut confirms, &mut indications);
        }
    }

    /// A ticket below the window has ended and one past it was never
    /// issued: a second resolution is one violation, whether the window
    /// still holds the ticket or has trimmed past it, and touches no
    /// channel; a trimmed ticket releases as an ended one and hands
    /// nothing off; an unissued one is unknown.
    #[test]
    fn tickets_outside_the_window_answer_as_ended_or_unknown() {
        let topo = Arc::new(Topology::builder(1, 2).channels(7).build());
        let cfg = ProductionConfig {
            workers: 1,
            ..Default::default()
        };
        let mut svc =
            ProductionAllocService::new(topo, cfg, |cell: CellId, _: &Topology| Regrant {
                script: if cell.0 == 0 {
                    VecDeque::new()
                } else {
                    [1, 1, 7_000].into()
                },
                next: 0,
            });
        let call = |cell, hold| ChannelRequest::new_call(0, CellId(cell), hold);
        let violations = |svc: &ProductionAllocService<Regrant>| svc.stats().violations;
        let window = |svc: &ProductionAllocService<Regrant>| {
            let ledger = svc.inner.ledger.lock().unwrap();
            let usage: Vec<usize> = ledger.ground.usage().iter().map(|u| u.len()).collect();
            (ledger.base, ledger.tickets.len(), usage)
        };
        // Ticket 0 holds channel 0 and pins the front; ticket 1 ends
        // behind it, in the window.
        assert_eq!(svc.request_channel(call(0, 1 << 40)), Ok(Ticket(0)));
        assert_eq!(svc.request_channel(call(0, 0)), Ok(Ticket(1)));
        await_release(&mut svc, 1);
        assert_eq!(window(&svc), (0, 2, vec![1, 0]));

        // Cell 1 rejects ticket 2 and re-grants ticket 1.
        assert_eq!(svc.request_channel(call(1, 0)), Ok(Ticket(2)));
        assert!(svc.quiesce(Duration::from_secs(10)));
        assert_eq!(violations(&svc), ["cell1 resolved ticket#1 twice"]);
        assert_eq!(window(&svc), (0, 3, vec![1, 0]));

        // Ticket 0 ends and the window trims past 0, 1 and 2; cell 1
        // re-grants ticket 1 again, then one never issued.
        assert_eq!(svc.release(Ticket(0)), Ok(()));
        await_release(&mut svc, 0);
        assert_eq!(window(&svc), (3, 0, vec![0, 0]));
        assert_eq!(svc.request_channel(call(1, 0)), Ok(Ticket(3)));
        assert_eq!(svc.request_channel(call(1, 0)), Ok(Ticket(4)));
        assert!(svc.quiesce(Duration::from_secs(10)));
        assert_eq!(
            violations(&svc),
            [
                "cell1 resolved ticket#1 twice",
                "cell1 resolved ticket#1 twice",
                "cell1 resolved ticket#7000, never issued"
            ]
        );
        assert_eq!(window(&svc), (5, 0, vec![0, 0]));

        // Below the window: ended.
        assert_eq!(svc.release(Ticket(1)), Ok(()));
        assert!(matches!(
            svc.request_channel(ChannelRequest::handoff(0, Ticket(1), CellId(1), 0)),
            Err(ServeError::BadHandoff(_))
        ));
        // Past it: never issued.
        let unissued = Ticket(7_000);
        assert_eq!(
            svc.release(unissued),
            Err(ServeError::UnknownTicket(unissued))
        );
        assert_eq!(
            svc.request_channel(ChannelRequest::handoff(0, unissued, CellId(1), 0)),
            Err(ServeError::UnknownTicket(unissued))
        );
        assert_eq!(violations(&svc).len(), 3);
        assert_eq!(window(&svc), (5, 0, vec![0, 0]));
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
