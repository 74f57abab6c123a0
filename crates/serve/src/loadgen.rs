//! Closed-loop load generation against a live [`AllocService`].
//!
//! A *closed loop* models subscribers, not an arrival rate: each of the
//! `subscribers` users has at most one request outstanding, waits for
//! its confirm, thinks for `think`, and submits the next request. The
//! offered load therefore adapts to the service — when the service
//! slows down (or its mailboxes push back), the loop slows with it,
//! which is what makes sustained acquisitions/sec and tail latency
//! honest numbers rather than queue-explosion artifacts.
//!
//! There is one loop, and it knows the service only through the trait:
//! [`closed_loop`] drives an in-process backend or a socket (the wire
//! crate's client is an `AllocService`) with the same code, and
//! [`closed_loop_drivers`] runs it on one thread a handle.

use crate::service::{AllocService, ChannelRequest, Confirm, Ticket};
use adca_hexgrid::{CellId, Topology};
use adca_metrics::PercentileSketch;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Shape of one closed-loop run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent subscribers (each with one request in flight at a
    /// time, assigned to home cells round-robin).
    pub subscribers: usize,
    /// Requests each subscriber issues before retiring.
    pub requests_per_sub: u32,
    /// Think time between a confirm and the subscriber's next request.
    pub think: Duration,
    /// Hold declared on every request, in backend ticks.
    pub hold: u64,
    /// Wall-clock safety limit for the whole run.
    pub deadline: Duration,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            subscribers: 256,
            requests_per_sub: 4,
            think: Duration::ZERO,
            hold: 200,
            deadline: Duration::from_secs(60),
        }
    }
}

/// What a closed-loop run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests submitted.
    pub offered: u64,
    /// Requests confirmed with a grant.
    pub granted: u64,
    /// Requests confirmed with a rejection.
    pub rejected: u64,
    /// Requests still unresolved when the deadline cut the run short
    /// (0 on a clean run).
    pub unresolved: u64,
    /// Wall-clock duration of the loop.
    pub wall: Duration,
    /// Acquisition latency sketch, in backend ticks.
    pub latency: PercentileSketch,
}

impl LoadReport {
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

/// Drives `svc` with a closed subscriber loop and measures it.
///
/// Requires a live service (confirms must arrive while the loop runs —
/// the deterministic backend resolves only inside `quiesce`, so drive
/// it open-loop instead), and one that answers **every** ticket with a
/// [`Confirm`]: the loop counts a request resolved when its confirm
/// comes, whatever became of it.
pub fn closed_loop<S: AllocService + ?Sized>(
    svc: &mut S,
    topo: &Topology,
    spec: &LoadSpec,
) -> LoadReport {
    drive(svc, topo.num_cells(), spec, (0, 1), Instant::now())
}

/// The closed loop on one thread a handle: handle `d` of `k` drives the
/// subscribers `{s : s % k == d}`. Subscribers keep their global
/// numbering (`cell = s % cells`), so the spatial workload is the same
/// at every `k`; only the submission concurrency changes. The reports
/// are merged into one.
///
/// **Each handle takes its own answers**: a driver settles only what
/// its handle hands it, so the handles must not share an answer queue.
/// One `WireClient` a connection is such a set (a connection is sent
/// the answers to its own requests and no others); clones of one
/// in-process backend are not.
pub fn closed_loop_drivers<S: AllocService + Send>(
    handles: &mut [S],
    topo: &Topology,
    spec: &LoadSpec,
) -> LoadReport {
    let (cells, k) = (topo.num_cells(), handles.len());
    let start = Instant::now();
    let reports: Vec<LoadReport> = std::thread::scope(|scope| {
        let drivers: Vec<_> = handles
            .iter_mut()
            .enumerate()
            .map(|(d, svc)| scope.spawn(move || drive(svc, cells, spec, (d, k), start)))
            .collect();
        drivers
            .into_iter()
            .map(|h| h.join().expect("driver panicked"))
            .collect()
    });
    let mut merged = LoadReport {
        wall: start.elapsed(),
        ..LoadReport::default()
    };
    for r in reports {
        merged.offered += r.offered;
        merged.granted += r.granted;
        merged.rejected += r.rejected;
        merged.unresolved += r.unresolved;
        merged.latency.merge(&r.latency);
    }
    merged
}

/// The loop: shard `d` of `k` of `spec`'s subscribers against `svc`.
fn drive<S: AllocService + ?Sized>(
    svc: &mut S,
    cells: usize,
    spec: &LoadSpec,
    (d, k): (usize, usize),
    start: Instant,
) -> LoadReport {
    // Local subscriber `i` is global subscriber `d + i * k`.
    let subs = (d..spec.subscribers).step_by(k).len();
    let total = subs as u64 * spec.requests_per_sub as u64;
    let mut remaining: Vec<u32> = vec![spec.requests_per_sub; subs];
    let mut ready: VecDeque<(Instant, usize)> = (0..subs).map(|sub| (start, sub)).collect();
    let mut in_flight: HashMap<Ticket, usize> = HashMap::with_capacity(subs);
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    let hard_deadline = start + spec.deadline;
    let mut report = LoadReport::default();
    let mut resolved = 0u64;
    while resolved < total {
        let now = Instant::now();
        if now >= hard_deadline {
            report.unresolved = total - resolved;
            break;
        }
        // Issue every due request. This is where backpressure reaches
        // the loop: a full mailbox blocks the call in process, a closed
        // TCP window blocks the write the socket's handle makes below.
        let mut issued = false;
        while ready.front().is_some_and(|&(due, _)| due <= now) {
            let (_, sub) = ready.pop_front().expect("peeked");
            let cell = CellId(((d + sub * k) % cells) as u32);
            match svc.request_channel(ChannelRequest::new_call(0, cell, spec.hold)) {
                Ok(ticket) => {
                    report.offered += 1;
                    in_flight.insert(ticket, sub);
                }
                Err(_) => {
                    // Admission refused: retire the subscriber (all of
                    // its outstanding budget counts as resolved).
                    resolved += remaining[sub] as u64;
                    remaining[sub] = 0;
                }
            }
            issued = true;
        }
        // Take the burst of answers, one lock of the service's queue
        // however many there are. After issuing, only what is already
        // there; otherwise wait for the earlier of the next
        // think-expiry and an answer.
        let wait = if issued {
            Duration::ZERO
        } else {
            let next_due = ready.front().map_or(hard_deadline, |&(due, _)| due);
            next_due
                .min(hard_deadline)
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(1))
        };
        svc.recv_answers(wait, &mut confirms, &mut indications);
        // Confirmed subscribers think, then requeue.
        let thought = Instant::now() + spec.think;
        for confirm in confirms.drain(..) {
            resolved += 1;
            match confirm {
                Confirm::Granted { latency, .. } => {
                    report.granted += 1;
                    report.latency.push(latency as f64);
                }
                Confirm::Rejected { .. } => report.rejected += 1,
            }
            if let Some(sub) = in_flight.remove(&confirm.ticket()) {
                remaining[sub] = remaining[sub].saturating_sub(1);
                if remaining[sub] > 0 {
                    ready.push_back((thought, sub));
                }
            }
        }
        indications.clear();
    }
    report.wall = start.elapsed();
    report
}
