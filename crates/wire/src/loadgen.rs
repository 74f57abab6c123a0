//! Closed-loop load generation against a [`WireServer`] over real TCP.
//!
//! Mirrors `adca-serve`'s closed loop, but the service is on the other
//! end of a socket: `drivers` threads each own a [`WireClient`]
//! connection and a subscriber shard (`{s : s % drivers == d}`, global
//! numbering, so the spatial workload is identical at every driver
//! count), all deadlines ride one shared [`deadline_wheel`]. Each
//! subscriber has at most one request outstanding: the loop submits,
//! waits for the answer (grant, rejection, refusal, or timeout), thinks,
//! and submits again — offered load adapts to the server, so throughput
//! and tail latency stay honest under backpressure.
//!
//! [`WireServer`]: crate::WireServer

use crate::client::{deadline_wheel, WireClient, WireClientConfig, WireEvent};
use adca_hexgrid::CellId;
use adca_metrics::PercentileSketch;
use adca_serve::ChannelRequest;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Shape of one wire closed-loop run.
#[derive(Debug, Clone)]
pub struct WireLoadSpec {
    /// Concurrent subscribers, assigned to home cells round-robin.
    pub subscribers: usize,
    /// Requests each subscriber issues before retiring.
    pub requests_per_sub: u32,
    /// Think time between an answer and the next request.
    pub think: Duration,
    /// Hold declared on every request, in backend ticks.
    pub hold: u64,
    /// Wall-clock safety limit for the whole run.
    pub deadline: Duration,
    /// Concurrent driver threads (each with its own TCP connection).
    pub drivers: usize,
    /// Per-request deadline/retry tuning for every driver's client.
    pub client: WireClientConfig,
}

impl Default for WireLoadSpec {
    fn default() -> Self {
        WireLoadSpec {
            subscribers: 256,
            requests_per_sub: 4,
            think: Duration::ZERO,
            hold: 200,
            deadline: Duration::from_secs(60),
            drivers: 1,
            client: WireClientConfig::default(),
        }
    }
}

/// What a wire closed-loop run measured.
#[derive(Debug, Clone)]
pub struct WireLoadReport {
    /// Requests submitted over the wire.
    pub offered: u64,
    /// Requests answered with a grant.
    pub granted: u64,
    /// Requests answered with a protocol rejection.
    pub rejected: u64,
    /// Requests refused at admission.
    pub refused: u64,
    /// Retransmissions across all drivers.
    pub retries: u64,
    /// Requests that exhausted their retry budget.
    pub timeouts: u64,
    /// Requests still unresolved when the run deadline cut in.
    pub unresolved: u64,
    /// Wall-clock duration of the loop.
    pub wall: Duration,
    /// Acquisition latency sketch, in backend ticks.
    pub latency: PercentileSketch,
}

impl WireLoadReport {
    /// Sustained grant throughput over the run.
    pub fn acq_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.granted as f64 / s
        } else {
            0.0
        }
    }
}

/// Drives the server at `addr` with `spec.drivers` concurrent
/// closed-loop drivers over loopback-or-real TCP. `cells` is the
/// served topology's cell count (subscriber `s` homes at `s % cells`).
pub fn closed_loop_wire(
    addr: SocketAddr,
    cells: usize,
    spec: &WireLoadSpec,
) -> io::Result<WireLoadReport> {
    let drivers = spec.drivers.clamp(1, spec.subscribers.max(1));
    let wheel = deadline_wheel();
    let start = Instant::now();
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                let wheel = &wheel;
                scope.spawn(move || {
                    let client = WireClient::connect(addr, spec.client, wheel)?;
                    Ok::<_, io::Error>(run_driver(client, d, drivers, cells, spec, start))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wire driver panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let mut merged = WireLoadReport {
        offered: 0,
        granted: 0,
        rejected: 0,
        refused: 0,
        retries: 0,
        timeouts: 0,
        unresolved: 0,
        wall: start.elapsed(),
        latency: PercentileSketch::new(),
    };
    for r in reports {
        merged.offered += r.offered;
        merged.granted += r.granted;
        merged.rejected += r.rejected;
        merged.refused += r.refused;
        merged.retries += r.retries;
        merged.timeouts += r.timeouts;
        merged.unresolved += r.unresolved;
        merged.latency.merge(&r.latency);
    }
    Ok(merged)
}

/// One driver's closed loop over its subscriber shard.
fn run_driver(
    mut client: WireClient,
    d: usize,
    drivers: usize,
    cells: usize,
    spec: &WireLoadSpec,
    start: Instant,
) -> WireLoadReport {
    let subs: Vec<usize> = (d..spec.subscribers).step_by(drivers).collect();
    let total = subs.len() as u64 * spec.requests_per_sub as u64;
    let mut remaining: Vec<u32> = vec![spec.requests_per_sub; subs.len()];
    let mut ready: VecDeque<(Instant, usize)> = VecDeque::with_capacity(subs.len());
    let mut in_flight: HashMap<u64, usize> = HashMap::with_capacity(subs.len());
    for local in 0..subs.len() {
        ready.push_back((start, local));
    }
    let hard_deadline = start + spec.deadline;
    let mut report = WireLoadReport {
        offered: 0,
        granted: 0,
        rejected: 0,
        refused: 0,
        retries: 0,
        timeouts: 0,
        unresolved: 0,
        wall: Duration::ZERO,
        latency: PercentileSketch::new(),
    };
    let mut resolved = 0u64;
    while resolved < total {
        let now = Instant::now();
        if now >= hard_deadline {
            report.unresolved = total - resolved;
            break;
        }
        let mut progressed = false;
        // Submit every due request. They leave in one write when this
        // driver turns to `recv` below, or at 16 KiB queued; a closed
        // TCP window blocks that write — the server's backpressure
        // reaching this driver.
        while ready.front().is_some_and(|&(due, _)| due <= now) {
            let (_, local) = ready.pop_front().expect("peeked");
            let cell = CellId((subs[local] % cells) as u32);
            match client.submit(&ChannelRequest::new_call(0, cell, spec.hold)) {
                Ok(id) => {
                    report.offered += 1;
                    in_flight.insert(id, local);
                }
                Err(_) => {
                    // Connection gone: retire the subscriber.
                    resolved += remaining[local] as u64;
                    remaining[local] = 0;
                }
            }
            progressed = true;
        }
        // Settle answers; answered subscribers think, then requeue.
        let wait = if progressed {
            Duration::ZERO
        } else {
            let next_due = ready.front().map(|&(due, _)| due).unwrap_or(hard_deadline);
            next_due
                .min(hard_deadline)
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(1))
        };
        while let Some(ev) = client.recv(wait) {
            match ev {
                WireEvent::Granted { id, latency, .. } => {
                    report.granted += 1;
                    report.latency.push(latency as f64);
                    settle(&mut ready, &mut remaining, in_flight.remove(&id), spec);
                    resolved += 1;
                }
                WireEvent::Rejected { id, .. } => {
                    report.rejected += 1;
                    settle(&mut ready, &mut remaining, in_flight.remove(&id), spec);
                    resolved += 1;
                }
                WireEvent::Refused { id, .. } => {
                    report.refused += 1;
                    // Refusals retire the subscriber: its remaining
                    // budget will never be accepted either.
                    if let Some(local) = in_flight.remove(&id) {
                        resolved += remaining[local] as u64;
                        remaining[local] = 0;
                    }
                }
                WireEvent::TimedOut { id } => {
                    settle(&mut ready, &mut remaining, in_flight.remove(&id), spec);
                    resolved += 1;
                }
                WireEvent::Released { .. } => {}
            }
            if ready.front().is_some_and(|&(due, _)| due <= Instant::now()) {
                break; // a subscriber is due again; go submit first
            }
        }
    }
    report.wall = start.elapsed();
    report.retries = client.retries();
    report.timeouts = client.timeouts();
    report
}

/// After an answer, the subscriber thinks and (budget permitting)
/// becomes ready again.
fn settle(
    ready: &mut VecDeque<(Instant, usize)>,
    remaining: &mut [u32],
    local: Option<usize>,
    spec: &WireLoadSpec,
) {
    let Some(local) = local else { return };
    remaining[local] = remaining[local].saturating_sub(1);
    if remaining[local] > 0 {
        ready.push_back((Instant::now() + spec.think, local));
    }
}
