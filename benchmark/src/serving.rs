//! The four serving workloads and the benchmark's own load generators:
//! one closed loop and one open loop, over one `Endpoint` that is either
//! the in-process `AllocService` or a `WireClient` on loopback TCP.
//!
//! A round starts a fresh service (set-up), pushes a fixed number of
//! requests through it, checks every answer, and tears it down, so peak
//! memory and counts do not depend on how many rounds fit in the run.
//! Latency is timed on the client: from just before the submit call to
//! the answer being handed back to the caller.

use crate::span::Tracer;
use crate::util::{median, put, quantile, HostWalk, Round, SplitMix64, Vals, Withheld};
use crate::Workload;
use adca_core::AdaptiveNode;
use adca_harness::{Scenario, SchemeKind};
use adca_hexgrid::{CellId, Topology};
use adca_serve::{
    AllocService, ChannelRequest, Confirm, ProductionAllocService, ProductionConfig, Ticket,
};
use adca_wire::{deadline_wheel, WireClient, WireClientConfig, WireEvent, WireServer};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A round that has not resolved every request by now has failed.
const ROUND_DEADLINE: Duration = Duration::from_secs(60);

/// Hold given to a call the client will hand off or release itself: as
/// long as a round may last, so it never expires first (a 200 ms hold
/// did, when the host paused the client for longer, and the service
/// rightly refused the stale handoffs). At most one such call a
/// subscriber is ever up.
const CLIENT_ENDED_HOLD: u64 = 600_000_000;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// In-process, 14 subscribers a cell against 10 primaries.
    Borrow,
    /// Loopback TCP, 256 in flight, every grant local-mode.
    WireLocal,
    /// Loopback TCP, one request in flight.
    WireRtt,
    /// Loopback TCP with duplicates, handoffs and early releases.
    WireMixed,
}

pub struct Serving {
    kind: Kind,
    sc: Scenario,
    spec: LoopSpec,
    seed: u64,
    /// The windows of every round since `finish`.
    kept: Vec<Window>,
    walk: HostWalk,
    /// The host's slowdown before and after every loop since `finish`
    /// ([`HostWalk::five`]).
    walks: Vec<f64>,
    /// Runs from the first round after `finish` to the next `finish`.
    withheld: Option<Withheld>,
    /// The host's slowdown over the rounds the last `finish` folded.
    slowdown: f64,
}

/// Above this the five-walk samples say nothing more about the loops.
/// With the walks between 0.9 and 1.4 times their nominal, the rate of
/// either workload fell with their square root and set-up rose in
/// proportion (`finish`); in a later hour they took 1.5 to 3.9 times
/// their nominal from one run to the next and the loops ran at one
/// speed throughout (`wire_local` 62–70 k grants/s against 82–84 k at
/// 1.1, `serve_borrow` 100–105 k against 116–121 k). Over six sets of
/// ten runs a workload with walks from 1.1 to 2.1, the set medians lay
/// 30 % and 17 % of their median apart unscaled (`wire_local` first),
/// 8 % and 14 % with the square root of the walks as they were and
/// 14 % and 4 % with the walks cut off here; the runs inside the four
/// sets of that hour spread by up to 9 %, 29 % and 7 %.
const WALK_CEILING: f64 = 1.5;

/// Services started and stopped unused in each round, beside the one
/// the round uses: set-up takes a millisecond, so one sample a round
/// would leave its median to chance.
const SPARE_SETUPS: usize = 4;

#[derive(Clone, Copy)]
struct LoopSpec {
    subscribers: usize,
    requests: u64,
    /// Hold in backend ticks (100 ns each).
    hold: u64,
    /// One grant in four handed off, one in four released early.
    mixed: bool,
}

fn serving(kind: Kind, seed: u64, smoke: bool, spec: LoopSpec) -> Serving {
    Serving {
        kind,
        sc: Scenario::uniform(0.9, 0),
        spec: LoopSpec {
            requests: if smoke {
                spec.requests / 20
            } else {
                spec.requests
            },
            ..spec
        },
        seed,
        kept: Vec::new(),
        walk: HostWalk::new(),
        walks: Vec::new(),
        withheld: None,
        slowdown: 1.0,
    }
}

/// 2048 subscribers round-robin over 144 cells, 2 ms holds: 14 callers
/// a cell against 10 primary channels, so cells must borrow. Closed,
/// because a mobile host waits for its confirm.
pub fn borrow(seed: u64, smoke: bool) -> Serving {
    let spec = LoopSpec {
        subscribers: 2048,
        requests: 200_000,
        hold: 20_000,
        mixed: false,
    };
    serving(Kind::Borrow, seed, smoke, spec)
}

pub fn wire_local(seed: u64, smoke: bool) -> Serving {
    let spec = LoopSpec {
        subscribers: 256,
        requests: 150_000,
        hold: 200,
        mixed: false,
    };
    serving(Kind::WireLocal, seed, smoke, spec)
}

pub fn wire_rtt(seed: u64, smoke: bool) -> Serving {
    let spec = LoopSpec {
        subscribers: 1,
        requests: 2_000,
        hold: 200,
        mixed: false,
    };
    serving(Kind::WireRtt, seed, smoke, spec)
}

pub fn wire_mixed(seed: u64, smoke: bool) -> Serving {
    let spec = LoopSpec {
        subscribers: 256,
        requests: 120_000,
        hold: 200,
        mixed: true,
    };
    serving(Kind::WireMixed, seed, smoke, spec)
}

/// Zero injected inter-cell delay (a tick is 100 ns and mailboxes deliver
/// at once), so latencies are processor time only. `workers` is pinned
/// because the default depends on the host.
fn production_config() -> ProductionConfig {
    ProductionConfig {
        workers: 2,
        ns_per_tick: 100,
        ..ProductionConfig::default()
    }
}

enum Answer {
    Granted { id: u64, ticket: u64 },
    Rejected { id: u64 },
    Refused { id: u64 },
    TimedOut { id: u64 },
}

/// What a load generator needs from the system under test.
trait Endpoint {
    /// Submits without waiting; `None` when the call itself is refused.
    fn submit(&mut self, req: &ChannelRequest, n: u64, tr: &mut Tracer) -> Option<u64>;
    fn release(&mut self, ticket: u64, tr: &mut Tracer);
    /// The next answer, waiting at most `wait`.
    fn poll(&mut self, wait: Duration, tr: &mut Tracer) -> Option<Answer>;
}

struct InProc {
    svc: Box<dyn AllocService + Send>,
    confirm_calls: u64,
    confirm_hits: u64,
}

impl InProc {
    fn new(svc: Box<dyn AllocService + Send>) -> Self {
        InProc {
            svc,
            confirm_calls: 0,
            confirm_hits: 0,
        }
    }
}

fn answer_of(c: Confirm) -> Answer {
    match c {
        Confirm::Granted { ticket, .. } => Answer::Granted {
            id: ticket.0,
            ticket: ticket.0,
        },
        Confirm::Rejected { ticket, .. } => Answer::Rejected { id: ticket.0 },
    }
}

impl Endpoint for InProc {
    fn submit(&mut self, req: &ChannelRequest, n: u64, tr: &mut Tracer) -> Option<u64> {
        let s = tr.enter("serve.request_channel", n);
        let r = self.svc.request_channel(*req);
        tr.exit(s);
        r.ok().map(|t| t.0)
    }

    fn release(&mut self, ticket: u64, tr: &mut Tracer) {
        let s = tr.enter("serve.release", ticket);
        let _ = self.svc.release(Ticket(ticket));
        tr.exit(s);
    }

    fn poll(&mut self, wait: Duration, tr: &mut Tracer) -> Option<Answer> {
        // Indications are not needed here, but left alone they pile up.
        while self.svc.indication().is_some() {}
        let s = tr.enter("serve.confirm", 0);
        let c = self.svc.confirm();
        tr.exit(s);
        self.confirm_calls += 1;
        if c.is_some() {
            self.confirm_hits += 1;
            return c.map(answer_of);
        }
        if wait.is_zero() {
            return None;
        }
        let s = tr.enter("serve.recv_confirm", 0);
        let c = self.svc.recv_confirm(wait);
        tr.exit(s);
        c.map(answer_of)
    }
}

struct Wire {
    client: WireClient,
}

impl Endpoint for Wire {
    fn submit(&mut self, req: &ChannelRequest, n: u64, tr: &mut Tracer) -> Option<u64> {
        let s = tr.enter("wire.submit", n);
        let r = self.client.submit(req);
        tr.exit(s);
        r.ok()
    }

    fn release(&mut self, ticket: u64, tr: &mut Tracer) {
        let s = tr.enter("wire.release", ticket);
        let _ = self.client.release(ticket);
        tr.exit(s);
    }

    fn poll(&mut self, mut wait: Duration, tr: &mut Tracer) -> Option<Answer> {
        loop {
            let name = if wait.is_zero() {
                "wire.recv"
            } else {
                "wire.recv_wait"
            };
            let s = tr.enter(name, 0);
            let ev = self.client.recv(wait);
            tr.exit(s);
            return Some(match ev? {
                WireEvent::Granted { id, ticket, .. } => Answer::Granted { id, ticket },
                WireEvent::Rejected { id, .. } => Answer::Rejected { id },
                WireEvent::Refused { id, .. } => Answer::Refused { id },
                WireEvent::TimedOut { id } => Answer::TimedOut { id },
                WireEvent::Released { .. } => {
                    wait = Duration::ZERO;
                    continue;
                }
            });
        }
    }
}

/// What the client does once a call is granted.
#[derive(Clone, Copy, PartialEq)]
enum Then {
    Nothing,
    HandOff,
    Release,
}

struct Pending {
    sub: u32,
    cell: CellId,
    at: Instant,
    then: Then,
}

enum Next {
    NewCall,
    HandOff { of: u64, from: CellId },
}

#[derive(Default)]
struct LoopStats {
    offered: u64,
    granted: u64,
    rejected: u64,
    refused: u64,
    timed_out: u64,
    /// Answers for an id that is not (or no longer) in flight.
    stray: u64,
    unresolved: u64,
    wall: Duration,
    /// The share of `wall` the hypervisor withheld ([`Withheld`]).
    withheld: f64,
    lat_us: Vec<f64>,
    /// Beside `lat_us`: when each answer came back, in seconds since
    /// the loop started, and whether it was a grant.
    answered: Vec<(f64, bool)>,
}

/// One stretch of a loop: the grants a second over it and the median
/// latency of its answers.
#[derive(Clone, Copy)]
struct Window {
    rate: f64,
    p50_us: f64,
}

impl LoopStats {
    /// Grants a second over the whole loop.
    fn loop_rate(&self) -> f64 {
        self.granted as f64 / self.wall.as_secs_f64()
    }

    /// The loop cut into windows of equal answer counts (a twentieth of
    /// the loop, 1000 answers at most), without the first and the last:
    /// those hold the ramp-up to `subscribers` in flight and the drain.
    /// Rates and latencies are those of the time the hypervisor did
    /// not withhold ([`Withheld`]).
    /// Call before the latencies are sorted.
    fn windows(&self) -> Vec<Window> {
        let withheld = self.withheld;
        let per = (self.answered.len() / 20).clamp(50, 1_000);
        let n = self.answered.len() / per;
        (1..n.saturating_sub(1))
            .map(|k| {
                let (from, to) = (k * per, (k + 1) * per);
                let grants = self.answered[from..to].iter().filter(|a| a.1).count();
                let secs = self.answered[to - 1].0 - self.answered[from - 1].0;
                let mut lat = self.lat_us[from..to].to_vec();
                Window {
                    rate: grants as f64 / (secs * (1.0 - withheld)),
                    p50_us: quantile(&mut lat, 0.5) * (1.0 - withheld),
                }
            })
            .collect()
    }

    /// Everything that is neither a grant nor a protocol rejection.
    fn failed(&self) -> u64 {
        self.refused + self.timed_out + self.stray + self.unresolved
    }

    fn accounted(&self) -> bool {
        self.granted + self.rejected + self.refused + self.timed_out + self.unresolved
            == self.offered
    }
}

/// The rate and the median latency of the typical window.
fn typical(windows: &[Window]) -> Option<(f64, f64)> {
    if windows.is_empty() {
        return None;
    }
    let mut rates: Vec<f64> = windows.iter().map(|w| w.rate).collect();
    let mut p50s: Vec<f64> = windows.iter().map(|w| w.p50_us).collect();
    Some((quantile(&mut rates, 0.5), quantile(&mut p50s, 0.5)))
}

/// Closed loop: each subscriber has one request outstanding and submits
/// the next as soon as the last is answered, until `spec.requests` have
/// been offered.
fn closed_loop<E: Endpoint>(
    ep: &mut E,
    topo: &Topology,
    spec: &LoopSpec,
    seed: u64,
    tr: &mut Tracer,
) -> LoopStats {
    let cells = topo.num_cells();
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<u32> = (0..spec.subscribers as u32).collect();
    rng.shuffle(&mut order);
    let mut ready: VecDeque<(u32, Next)> = order.into_iter().map(|s| (s, Next::NewCall)).collect();
    let mut in_flight: HashMap<u64, Pending> = HashMap::with_capacity(spec.subscribers);
    let mut st = LoopStats::default();
    st.lat_us.reserve(spec.requests as usize);
    let host = Withheld::start();
    let start = Instant::now();
    let mut last_answer = start;
    loop {
        let mut progressed = false;
        while st.offered < spec.requests {
            let Some((sub, next)) = ready.pop_front() else {
                break;
            };
            progressed = true;
            let home = CellId(sub % cells as u32);
            let (req, cell, then) = match next {
                Next::NewCall => {
                    let then = match (spec.mixed, rng.below(4)) {
                        (true, 0) => Then::HandOff,
                        (true, 1) => Then::Release,
                        _ => Then::Nothing,
                    };
                    let hold = if then == Then::Nothing {
                        spec.hold
                    } else {
                        CLIENT_ENDED_HOLD
                    };
                    (ChannelRequest::new_call(0, home, hold), home, then)
                }
                Next::HandOff { of, from } => {
                    let around = topo.grid().neighbors(from);
                    let to = around[rng.below(around.len() as u64) as usize];
                    (
                        ChannelRequest::handoff(0, Ticket(of), to, spec.hold),
                        to,
                        Then::Nothing,
                    )
                }
            };
            let at = Instant::now();
            let n = st.offered;
            st.offered += 1;
            match ep.submit(&req, n, tr) {
                Some(id) => {
                    let p = Pending {
                        sub,
                        cell,
                        at,
                        then,
                    };
                    if in_flight.insert(id, p).is_some() {
                        st.stray += 1;
                    }
                }
                None => st.refused += 1,
            }
        }
        if in_flight.is_empty() {
            break;
        }
        // Answered subscribers go back to `ready`; submit them before
        // draining further, so the loop stays closed per subscriber.
        let mut wait = if progressed {
            Duration::ZERO
        } else {
            Duration::from_millis(1)
        };
        for _ in 0..64 {
            let Some(ans) = ep.poll(wait, tr) else { break };
            wait = Duration::ZERO;
            let now = Instant::now();
            let (id, granted_ticket) = match ans {
                Answer::Granted { id, ticket } => {
                    st.granted += 1;
                    (id, Some(ticket))
                }
                Answer::Rejected { id } => {
                    st.rejected += 1;
                    (id, None)
                }
                Answer::Refused { id } => {
                    st.refused += 1;
                    (id, None)
                }
                Answer::TimedOut { id } => {
                    st.timed_out += 1;
                    (id, None)
                }
            };
            let Some(p) = in_flight.remove(&id) else {
                st.stray += 1;
                continue;
            };
            last_answer = now;
            st.lat_us
                .push(now.duration_since(p.at).as_nanos() as f64 / 1e3);
            st.answered.push((
                now.duration_since(start).as_secs_f64(),
                granted_ticket.is_some(),
            ));
            let next = match (granted_ticket, p.then) {
                (Some(of), Then::HandOff) if st.offered < spec.requests => {
                    Next::HandOff { of, from: p.cell }
                }
                (Some(ticket), Then::HandOff | Then::Release) => {
                    ep.release(ticket, tr);
                    Next::NewCall
                }
                _ => Next::NewCall,
            };
            // A handoff keeps the subscriber's turn: it is the same call.
            match next {
                Next::HandOff { .. } => ready.push_front((p.sub, next)),
                Next::NewCall => ready.push_back((p.sub, next)),
            }
        }
        if start.elapsed() > ROUND_DEADLINE {
            st.unresolved = in_flight.len() as u64;
            break;
        }
    }
    st.wall = last_answer.duration_since(start);
    st.withheld = host.share();
    st
}

/// Open loop at `rate` requests a second for `secs`: requests go out on
/// schedule whether or not earlier ones were answered, and latency is
/// timed from the instant each was due. Returns (p50 µs, p99 µs, p99 of
/// how late the generator ran in µs, whether the backlog kept growing).
fn open_loop<E: Endpoint>(
    ep: &mut E,
    cells: usize,
    rate: f64,
    secs: f64,
    tr: &mut Tracer,
) -> (f64, f64, f64, bool) {
    let total = (rate * secs) as u64;
    let mut due_of: HashMap<u64, Instant> = HashMap::new();
    let (mut lat, mut lag) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let due_at = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    let mut sent = 0u64;
    // Requests unanswered when half, and when all, had been sent.
    let (mut backlog_mid, mut backlog_end) = (0usize, 0usize);
    let drain_until = start + Duration::from_secs_f64(secs + 2.0);
    while (sent < total || !due_of.is_empty()) && Instant::now() < drain_until {
        while sent < total && due_at(sent) <= Instant::now() {
            let due = due_at(sent);
            let cell = CellId((sent % cells as u64) as u32);
            if let Some(id) = ep.submit(&ChannelRequest::new_call(0, cell, 200), sent, tr) {
                due_of.insert(id, due);
            }
            lag.push(Instant::now().duration_since(due).as_nanos() as f64 / 1e3);
            sent += 1;
            if sent == total / 2 {
                backlog_mid = due_of.len();
            }
            if sent == total {
                backlog_end = due_of.len();
            }
        }
        let next_due = due_at(sent);
        let mut wait = if sent < total {
            next_due.saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(1)
        };
        while let Some(ans) = ep.poll(wait, tr) {
            wait = Duration::ZERO;
            let (Answer::Granted { id, .. }
            | Answer::Rejected { id }
            | Answer::Refused { id }
            | Answer::TimedOut { id }) = ans;
            if let Some(due) = due_of.remove(&id) {
                lat.push(Instant::now().duration_since(due).as_nanos() as f64 / 1e3);
            }
            if sent < total && Instant::now() >= next_due {
                break;
            }
        }
    }
    if lat.is_empty() || lag.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN, true);
    }
    (
        quantile(&mut lat, 0.5),
        quantile(&mut lat, 0.99),
        quantile(&mut lag, 0.99),
        backlog_end > 2 * backlog_mid + 64,
    )
}

/// A production service behind a `WireServer` on loopback, with one
/// client connected.
struct WireStack {
    svc: ProductionAllocService<AdaptiveNode>,
    server: WireServer,
    ep: Wire,
}

fn wire_stack(
    sc: &Scenario,
    topo: &Arc<Topology>,
    dup_first_send: bool,
    tr: &mut Tracer,
) -> std::io::Result<WireStack> {
    let ac = sc.adaptive.clone();
    let s = tr.enter("serve.start", 0);
    let svc = ProductionAllocService::new(topo.clone(), production_config(), move |c, t: &_| {
        AdaptiveNode::new(c, t, ac.clone())
    });
    tr.exit(s);
    let s = tr.enter("wire.server_start", 0);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0");
    tr.exit(s);
    let server = server?;
    let cfg = WireClientConfig {
        inject_dup_first_send: dup_first_send,
        ..WireClientConfig::default()
    };
    let s = tr.enter("wire.connect", 0);
    let client = WireClient::connect(server.local_addr(), cfg, &deadline_wheel());
    tr.exit(s);
    Ok(WireStack {
        svc,
        server,
        ep: Wire { client: client? },
    })
}

impl Serving {
    fn in_process(&self, kind: SchemeKind, tr: &mut Tracer) -> InProc {
        let s = tr.enter("serve.start", 0);
        let svc = self.sc.serve_production(kind, production_config());
        tr.exit(s);
        InProc::new(svc)
    }

    /// Sets the workload's service up, times that, and stops it again.
    fn spare_setup(&self, tr: &mut Tracer) -> Option<f64> {
        let t = Instant::now();
        let s = tr.enter("bench.setup", 0);
        let topo = self.sc.topology();
        let secs = if self.kind == Kind::Borrow {
            let ep = self.in_process(SchemeKind::Adaptive, tr);
            let secs = t.elapsed().as_secs_f64();
            drop(ep);
            Some(secs)
        } else {
            wire_stack(&self.sc, &topo, self.spec.mixed, tr)
                .ok()
                .map(|mut stack| {
                    let secs = t.elapsed().as_secs_f64();
                    // The client goes first: a server shut down while
                    // it is still accepting the connection starts a
                    // reader after closing the others, then joins it.
                    drop(stack.ep);
                    stack.server.shutdown();
                    secs
                })
        };
        tr.exit(s);
        secs
    }
}

fn put_latencies(vals: &mut Vals, st: &mut LoopStats) {
    let n = st.lat_us.len() as u64;
    if n == 0 {
        return;
    }
    put(vals, "latency_p50_us", quantile(&mut st.lat_us, 0.5), n);
    put(
        vals,
        "client.latency_p90_us",
        quantile(&mut st.lat_us, 0.9),
        n,
    );
    put(
        vals,
        "client.latency_p99_us",
        quantile(&mut st.lat_us, 0.99),
        n,
    );
    put(
        vals,
        "client.latency_p999_us",
        quantile(&mut st.lat_us, 0.999),
        n,
    );
}

impl Workload for Serving {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut vals = Vals::new();
        let spec = self.spec;
        self.withheld.get_or_insert_with(Withheld::start);
        let mut setups: Vec<f64> = (0..SPARE_SETUPS)
            .filter_map(|_| self.spare_setup(tr))
            .collect();
        let t_setup = Instant::now();
        let s_setup = tr.enter("bench.setup", 0);
        let s = tr.enter("hexgrid.topology", 0);
        let topo = self.sc.topology();
        tr.exit(s);
        let (mut st, stats) = if self.kind == Kind::Borrow {
            let mut ep = self.in_process(SchemeKind::Adaptive, tr);
            tr.exit(s_setup);
            setups.push(t_setup.elapsed().as_secs_f64());
            let s = tr.enter("bench.work", 0);
            self.walks.push(self.walk.five());
            let st = closed_loop(&mut ep, &topo, &spec, self.seed, tr);
            self.walks.push(self.walk.five());
            tr.exit(s);
            let hits = ep.confirm_hits as f64 / ep.confirm_calls.max(1) as f64;
            put(&mut vals, "serve.confirm_hit_share", hits, ep.confirm_calls);
            (st, ep.svc.stats())
        } else {
            let stack = wire_stack(&self.sc, &topo, spec.mixed, tr);
            tr.exit(s_setup);
            let Ok(mut stack) = stack else {
                return Round {
                    vals,
                    attempted: spec.requests,
                    failed: spec.requests,
                };
            };
            setups.push(t_setup.elapsed().as_secs_f64());
            let s = tr.enter("bench.work", 0);
            self.walks.push(self.walk.five());
            let st = closed_loop(&mut stack.ep, &topo, &spec, self.seed, tr);
            self.walks.push(self.walk.five());
            tr.exit(s);
            let client = &stack.ep.client;
            put(
                &mut vals,
                "wire.retries",
                client.retries() as f64,
                st.offered,
            );
            put(
                &mut vals,
                "wire.timeouts",
                client.timeouts() as f64,
                st.offered,
            );
            // The copy of a frame can still be in the socket when the
            // answer to the original is already back.
            let settle = Instant::now() + Duration::from_millis(500);
            while spec.mixed && stack.server.dedup_hits() < st.offered && Instant::now() < settle {
                std::thread::sleep(Duration::from_millis(1));
            }
            let dedup = stack.server.dedup_hits();
            put(&mut vals, "wire.dedup_hits", dedup as f64, st.offered);
            let conns = stack.server.connections_accepted();
            put(&mut vals, "wire.connections", conns as f64, 1);
            let s = tr.enter("wire.server_shutdown", 0);
            stack.server.shutdown();
            tr.exit(s);
            let mut st = st;
            // Every request frame went out twice: the server must have
            // absorbed exactly one duplicate for each.
            if spec.mixed && dedup != st.offered {
                st.stray += dedup.abs_diff(st.offered);
            }
            (st, stack.svc.stats())
        };
        let n_setups = setups.len() as u64;
        put(&mut vals, "setup_s", median(&mut setups), n_setups);
        let windows = st.windows();
        let (rate, _) = typical(&windows).unwrap_or((st.loop_rate(), f64::NAN));
        put(&mut vals, "ops_per_s", rate, st.granted);
        let raw = rate * (1.0 - st.withheld);
        put(&mut vals, "bench.raw_ops_per_s", raw, st.granted);
        put(
            &mut vals,
            "client.loop_ops_per_s",
            st.loop_rate(),
            st.granted,
        );
        put(
            &mut vals,
            "granted_share",
            st.granted as f64 / st.offered as f64,
            st.offered,
        );
        put_latencies(&mut vals, &mut st);
        put(
            &mut vals,
            "serve.granted",
            stats.granted as f64,
            stats.offered,
        );
        put(
            &mut vals,
            "serve.rejected",
            stats.rejected as f64,
            stats.offered,
        );
        put(
            &mut vals,
            "serve.bp_stalls",
            stats.backpressure_stalls as f64,
            stats.offered,
        );
        put(
            &mut vals,
            "serve.bp_forced",
            stats.backpressure_forced as f64,
            stats.offered,
        );
        put(
            &mut vals,
            "serve.violations",
            stats.violations.len() as f64,
            stats.offered,
        );
        let msgs = stats.messages as f64 / stats.granted.max(1) as f64;
        put(&mut vals, "core.adaptive.msgs_per_acq", msgs, stats.granted);
        let blocked = st.rejected as f64 / st.offered as f64;
        put(
            &mut vals,
            "core.adaptive.blocked_share",
            blocked,
            st.offered,
        );
        let mut failed = st.failed() + stats.violations.len() as u64;
        if !st.accounted() || stats.granted != st.granted || stats.rejected != st.rejected {
            failed += 1;
        }
        if failed > 0 {
            println!(
                "failures: refused {} timed_out {} stray {} unresolved {} violations {} \
                 client granted/rejected {}/{} backend {}/{}",
                st.refused,
                st.timed_out,
                st.stray,
                st.unresolved,
                stats.violations.len(),
                st.granted,
                st.rejected,
                stats.granted,
                stats.rejected
            );
        }
        // A failed round's timings say nothing about speed.
        if failed == 0 {
            self.kept.extend(windows);
        }
        Round {
            vals,
            attempted: st.offered.max(1),
            failed,
        }
    }

    /// Replaces the median over rounds of the rate and of the latency
    /// by those of the typical window of the whole run (a pause of the
    /// host spoils the windows it hits, not their rounds), and brings
    /// the timings to the host's nominal speed.
    ///
    /// The host runs fast for an hour and a fifth slower for the next,
    /// with nothing withheld: its neighbours and the caches. The median
    /// five-walk sample of a run tells the two apart, and over 40 runs
    /// a workload that spanned both, the rate of either workload fell
    /// with the square root of it (fitted exponents 0.47 and 0.43) and
    /// set-up, one thread's work like an engine invocation, in
    /// proportion to it, up to [`WALK_CEILING`]. The loops have shed
    /// the time withheld already, so the walks shed theirs before they
    /// are used.
    fn finish(&mut self, vals: &mut Vals) {
        let windows = std::mem::take(&mut self.kept);
        let mut walks = std::mem::take(&mut self.walks);
        let withheld = self.withheld.take().map_or(0.0, |w| w.share());
        self.slowdown = if walks.is_empty() {
            1.0
        } else {
            (median(&mut walks) * (1.0 - withheld)).min(WALK_CEILING)
        };
        let loops = self.slowdown.sqrt();
        if let Some((rate, p50)) = typical(&windows) {
            let n = windows.len() as u64;
            put(vals, "ops_per_s", rate * loops, n);
            put(vals, "latency_p50_us", p50 / loops, n);
        }
        if let Some(&setup) = vals.get("setup_s") {
            put(vals, "setup_s", setup.v / self.slowdown, setup.n);
        }
        if let (Some(&ops), Some(&raw)) = (vals.get("ops_per_s"), vals.get("bench.raw_ops_per_s")) {
            put(
                vals,
                "bench.host_slowdown",
                ops.v / raw.v,
                walks.len() as u64,
            );
        }
    }

    fn cells(&self) -> usize {
        (self.sc.rows * self.sc.cols) as usize
    }

    fn extras(&mut self, tr: &mut Tracer, vals: &mut Vals) {
        let topo = self.sc.topology();
        match self.kind {
            Kind::Borrow => {
                // That this load leaves local mode: `fixed`, which cannot
                // borrow, blocks about half of it.
                let spec = LoopSpec {
                    requests: self.spec.requests.min(100_000),
                    ..self.spec
                };
                let mut ep = self.in_process(SchemeKind::Fixed, tr);
                let st = closed_loop(&mut ep, &topo, &spec, self.seed, tr);
                let share = st.rejected as f64 / st.offered as f64;
                put(vals, "serve.fixed_blocked_share", share, st.offered);
                self.des_replay(&topo, spec.requests, tr, vals);
            }
            Kind::WireLocal => {
                // The same load without the wire: what TCP framing,
                // sockets and the server's threads add.
                let mut ep = self.in_process(SchemeKind::Adaptive, tr);
                let st = closed_loop(&mut ep, &topo, &self.spec, self.seed, tr);
                drop(ep);
                let n = st.lat_us.len() as u64;
                // At the speed `finish` brought the workload's own loops to.
                let loops = self.slowdown.sqrt();
                let (inproc_rate, inproc_p50) = typical(&st.windows())
                    .map_or((st.loop_rate(), f64::NAN), |(r, p)| (r * loops, p / loops));
                put(vals, "serve.inproc_acq_per_s", inproc_rate, st.granted);
                put(vals, "serve.inproc_p50_us", inproc_p50, n);
                if let (Some(p50), Some(rate)) = (vals.get("latency_p50_us"), vals.get("ops_per_s"))
                {
                    let (added, ratio) = (p50.v - inproc_p50, rate.v / inproc_rate);
                    put(vals, "wire.added_p50_us", added, n);
                    put(vals, "wire.throughput_ratio", ratio, st.granted);
                }
                self.open_ladder(&topo, tr, vals);
            }
            Kind::WireRtt | Kind::WireMixed => {}
        }
        for (metric, span) in [
            ("serve.request_channel_us_p50", "serve.request_channel"),
            ("wire.submit_us_p50", "wire.submit"),
            ("wire.recv_wait_us_p50", "wire.recv_wait"),
        ] {
            if let Some((p50, n)) = tr.p50_us(span) {
                put(vals, metric, p50, n);
            }
        }
    }
}

impl Serving {
    /// The same number of requests through `Scenario::serve`, the
    /// deterministic backend that replays them in the DES engine.
    fn des_replay(&self, topo: &Topology, requests: u64, tr: &mut Tracer, vals: &mut Vals) {
        let mut svc = self.sc.serve(SchemeKind::Adaptive);
        let cells = topo.num_cells() as u64;
        // One arrival every hold/subscribers ticks keeps about
        // `subscribers` calls up, like the closed loop does.
        let gap = (self.spec.hold / self.spec.subscribers as u64).max(1);
        for i in 0..requests {
            let cell = CellId((i % cells) as u32);
            let _ = svc.request_channel(ChannelRequest::new_call(i * gap, cell, self.spec.hold));
        }
        let t = Instant::now();
        let s = tr.enter("serve.des_quiesce", 0);
        let done = svc.quiesce(ROUND_DEADLINE);
        tr.exit(s);
        let wall = t.elapsed().as_secs_f64();
        let granted = svc.stats().granted;
        if done {
            put(
                vals,
                "serve.des_replay_acq_per_s",
                granted as f64 / wall,
                granted,
            );
        }
    }

    /// Open-loop ladder on the `wire_local` server: three fixed rates, a
    /// fresh server for each.
    fn open_ladder(&self, topo: &Arc<Topology>, tr: &mut Tracer, vals: &mut Vals) {
        const STEPS: [(f64, [&str; 4]); 3] = [
            (
                15_000.0,
                [
                    "loadgen.open.p50_us.r15k",
                    "loadgen.open.p99_us.r15k",
                    "loadgen.open.lag_p99_us.r15k",
                    "loadgen.open.backlog_growing.r15k",
                ],
            ),
            (
                30_000.0,
                [
                    "loadgen.open.p50_us.r30k",
                    "loadgen.open.p99_us.r30k",
                    "loadgen.open.lag_p99_us.r30k",
                    "loadgen.open.backlog_growing.r30k",
                ],
            ),
            (
                60_000.0,
                [
                    "loadgen.open.p50_us.r60k",
                    "loadgen.open.p99_us.r60k",
                    "loadgen.open.lag_p99_us.r60k",
                    "loadgen.open.backlog_growing.r60k",
                ],
            ),
        ];
        // The ladder's length follows the round's: a twentieth in smoke.
        let secs = self.spec.requests as f64 / 50_000.0;
        for (rate, names) in STEPS {
            let Ok(mut stack) = wire_stack(&self.sc, topo, false, tr) else {
                continue;
            };
            let (p50, p99, lag, growing) =
                open_loop(&mut stack.ep, topo.num_cells(), rate, secs, tr);
            stack.server.shutdown();
            let n = (rate * secs) as u64;
            put(vals, names[0], p50, n);
            put(vals, names[1], p99, n);
            put(vals, names[2], lag, n);
            put(vals, names[3], growing as u8 as f64, n);
        }
    }
}
