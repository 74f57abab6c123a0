//! Per-layer probes that need no workload: each times one layer's public
//! functions from outside, on inputs shaped like the workloads'. They
//! run in every traced run, so their numbers can be read beside any
//! workload's end-to-end numbers from the same process and host state.

use crate::span::Tracer;
use crate::util::{put, quantile, SplitMix64, Vals};
use adca_hexgrid::{Channel, ChannelSet};
use adca_metrics::PercentileSketch;
use adca_simkit::equeue::EventQueue;
use adca_simkit::{RequestKind, SimTime};
use adca_threadnet::TimerWheel;
use adca_wire::frame::{decode, encode, WireMsg};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `cells` sizes the event queue's resident set (8 events a cell, about
/// what the engine keeps pending); `smoke` runs every probe a twentieth
/// as long.
pub fn probes(tr: &mut Tracer, vals: &mut Vals, cells: usize, smoke: bool) {
    let iters: u64 = if smoke { 20_000 } else { 400_000 };
    let mut rng = SplitMix64::new(0xADCA);

    // hexgrid: the fused set algebra of the protocols' hot path, on
    // 70-channel sets about a third full.
    let s = tr.enter("hexgrid.channelset_probe", 0);
    let random_set = |rng: &mut SplitMix64| {
        ChannelSet::from_iter_sized(70, (0..70).filter(|_| rng.below(3) == 0).map(Channel))
    };
    let sets: Vec<ChannelSet> = (0..64).map(|_| random_set(&mut rng)).collect();
    let mut acc = sets[0].clone();
    let t = Instant::now();
    let mut sink = 0usize;
    for i in 0..iters as usize {
        let (a, b, c) = (&sets[i % 64], &sets[(i + 1) % 64], &sets[(i + 2) % 64]);
        sink += a.first_excluding(b, c).map_or(0, |ch| ch.0 as usize);
        sink += a.count_excluding(b, c);
        acc.union_with(a);
        acc.subtract(b);
    }
    black_box((sink, &acc));
    let ns = t.elapsed().as_nanos() as f64 / (4 * iters) as f64;
    tr.exit(s);
    put(vals, "hexgrid.channelset_ns_per_op", ns, 4 * iters);

    // simkit::equeue: the hold model — pop the earliest, push it back
    // a random delay later — at a steady resident set.
    let s = tr.enter("simkit.equeue_probe", 0);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..(8 * cells) as u32 {
        q.push(SimTime(rng.below(2_000)), i);
    }
    let t = Instant::now();
    for _ in 0..iters {
        let e = q.pop().expect("resident set never drains");
        q.push(e.at + 1 + rng.below(2_000), e.item);
    }
    black_box(q.len());
    let ns = t.elapsed().as_nanos() as f64 / iters as f64;
    tr.exit(s);
    put(vals, "equeue.hold_ns_per_op", ns, iters);

    // metrics: one latency sample into the sketch.
    let s = tr.enter("metrics.sketch_probe", 0);
    let mut sketch = PercentileSketch::new();
    let t = Instant::now();
    for i in 0..iters {
        sketch.push(black_box((i % 5_000 + 1) as f64));
    }
    black_box(sketch.quantile(0.5));
    let ns = t.elapsed().as_nanos() as f64 / iters as f64;
    tr.exit(s);
    put(vals, "metrics.sketch_push_ns", ns, iters);

    // wire::frame: the three frames one granted request costs.
    let s = tr.enter("wire.frame_probe", 0);
    let request = WireMsg::Request {
        id: 123_456,
        at: 0,
        cell: 77,
        kind: RequestKind::NewCall,
        hold: 200,
        handoff_of: None,
    };
    let granted = WireMsg::Granted {
        id: 123_456,
        ticket: 123_456,
        cell: 77,
        channel: 33,
        latency: 2_700,
    };
    let released = WireMsg::Released {
        ticket: 123_456,
        cell: 77,
        channel: 33,
    };
    let frames = [encode(&request), encode(&granted), encode(&released)];
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let n = iters / 4;
    let t = Instant::now();
    for _ in 0..n {
        black_box(encode(black_box(&request)));
        black_box(encode(black_box(&granted)));
    }
    let enc = t.elapsed().as_nanos() as f64 / (2 * n) as f64;
    let t = Instant::now();
    for _ in 0..n {
        black_box(decode(black_box(&frames[0])).is_ok());
        black_box(decode(black_box(&frames[1])).is_ok());
    }
    let dec = t.elapsed().as_nanos() as f64 / (2 * n) as f64;
    tr.exit(s);
    put(vals, "wire.frame_encode_ns", enc, 2 * n);
    put(vals, "wire.frame_decode_ns", dec, 2 * n);
    put(vals, "wire.bytes_per_request", bytes as f64, 3);

    // threadnet: how late a hold-length (2 ms) timer fires. A late
    // release holds its channel that much longer.
    let s = tr.enter("threadnet.timer_probe", 0);
    let timers = if smoke { 50 } else { 500 };
    let (tx, rx) = mpsc::channel();
    let wheel = TimerWheel::new(move |due: Instant| {
        let _ = tx.send(Instant::now().duration_since(due));
    });
    let hold = Duration::from_millis(2);
    for _ in 0..timers {
        wheel.schedule(hold, Instant::now() + hold);
        std::thread::sleep(Duration::from_micros(100));
    }
    let mut lags: Vec<f64> = (0..timers)
        .filter_map(|_| rx.recv_timeout(Duration::from_secs(1)).ok())
        .map(|d| d.as_nanos() as f64 / 1e3)
        .collect();
    drop(wheel);
    tr.exit(s);
    if !lags.is_empty() {
        let n = lags.len() as u64;
        put(
            vals,
            "threadnet.timer_fire_lag_us_p50",
            quantile(&mut lags, 0.5),
            n,
        );
    }
}
