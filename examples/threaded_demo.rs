//! Run the adaptive protocol on real OS threads (the production
//! backend's worker pool and bounded mailboxes) instead of the
//! deterministic simulator: the scheduler supplies genuinely
//! nondeterministic interleavings, and the ground-truth auditor checks
//! Theorem 1 on every grant.
//!
//! ```text
//! cargo run --release --example threaded_demo
//! ```

use adca_core::{AdaptiveConfig, AdaptiveNode};
use adca_hexgrid::Topology;
use adca_serve::{AllocService, ChannelRequest, ProductionAllocService, ProductionConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let topo = Arc::new(Topology::builder(6, 6).channels(70).build());
    let production = ProductionConfig {
        ns_per_tick: 500,
        ..Default::default()
    };
    println!(
        "== {} calls across 36 cells on {} worker threads ==",
        topo.num_cells() * 12,
        production.workers
    );
    let t0 = Instant::now();
    let cfg = AdaptiveConfig::default();
    let mut svc = ProductionAllocService::new(topo.clone(), production, move |c, t: &_| {
        AdaptiveNode::new(c, t, cfg.clone())
    });
    // A burst: every cell offered 12 simultaneous calls (120% of its
    // static allotment) — maximal cross-thread contention.
    for c in topo.cells() {
        for k in 0..12 {
            svc.request_channel(ChannelRequest::new_call(k, c, 50_000))
                .expect("request accepted");
        }
    }
    assert!(
        svc.quiesce(Duration::from_secs(20)),
        "liveness: requests pending at deadline"
    );
    // Every granted call ends when its hold expires.
    let mut stats = svc.stats();
    while stats.completed < stats.granted {
        std::thread::sleep(Duration::from_millis(1));
        stats = svc.stats();
    }
    let wall = t0.elapsed();
    assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    println!("granted    {}", stats.granted);
    println!("rejected   {}", stats.rejected);
    println!("completed  {}", stats.completed);
    println!("messages   {}", stats.messages);
    println!("wall time  {wall:.2?}");
    println!(
        "violations {} (audited per grant, atomically)",
        stats.violations.len()
    );
}
