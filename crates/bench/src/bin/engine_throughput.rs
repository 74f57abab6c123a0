//! `engine_throughput` — the engine's events/sec over a grid sweep,
//! printed and nothing else.
//!
//! Runs every scheme over the `e9_scalability` grid sweep (constant
//! per-cell load, growing system size), then basic-update and adaptive
//! over two grids past the cache (48×48, 104×104, at shorter horizons),
//! and prints events/sec per `(scheme, grid)` cell. Nothing is stored or
//! compared: commits are compared by `benchmark/`, which alternates
//! pairs; this sweep is the one thing that reaches the two big grids.
//!
//! ```text
//! cargo run --release -p adca-bench --bin engine_throughput -- \
//!     [--repeat N] [--scheme NAME]
//! ```
//!
//! * `--repeat N` runs each cell N times and keeps the fastest wall
//!   clock (default 3; deterministic engines make repeats pure timing
//!   replicas — event counts are asserted identical).
//! * `--scheme NAME` restricts the sweep to one scheme (profiling aid).
//!
//! Every run is single-threaded and sequential so the wall clock
//! measures the engine inner loop, not pool contention.

use adca_harness::{Scenario, SchemeKind};

const RHO: f64 = 0.9;
const HORIZON: u64 = 100_000;
/// The message-heaviest baseline and the paper's scheme.
const BIG_GRID_SCHEMES: &[SchemeKind] = &[SchemeKind::BasicUpdate, SchemeKind::Adaptive];
/// `(rows, cols, horizon_ticks, schemes)`. The two largest grids get
/// shorter horizons so one cell stays in the seconds range; throughput
/// is only ever compared within a `(scheme, grid)` cell, where the
/// horizon is constant.
const GRIDS: [(u32, u32, u64, &[SchemeKind]); 8] = [
    (6, 6, HORIZON, &SchemeKind::ALL),
    (9, 9, HORIZON, &SchemeKind::ALL),
    (12, 12, HORIZON, &SchemeKind::ALL),
    (16, 16, HORIZON, &SchemeKind::ALL),
    (20, 20, HORIZON, &SchemeKind::ALL),
    (24, 24, HORIZON, &SchemeKind::ALL),
    (48, 48, 24_000, BIG_GRID_SCHEMES),
    (104, 104, 6_000, BIG_GRID_SCHEMES),
];

fn main() {
    let mut repeat: u32 = 3;
    let mut only_scheme: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--repeat" => {
                repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeat needs a positive integer");
            }
            "--scheme" => only_scheme = Some(args.next().expect("--scheme needs a name")),
            other => panic!("unknown argument `{other}`"),
        }
    }
    assert!(repeat >= 1, "--repeat needs a positive integer");

    println!("engine_throughput: e9 workload (rho={RHO}), repeat={repeat}");
    for (r, c, horizon, kinds) in GRIDS {
        let sc = Scenario::uniform(RHO, horizon).with_grid(r, c);
        let topo = sc.topology();
        let arrivals = sc.arrivals(&topo);
        for &kind in kinds {
            if only_scheme.as_deref().is_some_and(|s| s != kind.name()) {
                continue;
            }
            let mut best: Option<adca_harness::RunSummary> = None;
            for _ in 0..repeat {
                let s = sc.run_with(kind, topo.clone(), arrivals.clone());
                s.report.assert_clean();
                if let Some(b) = &best {
                    assert_eq!(
                        b.report.events_processed, s.report.events_processed,
                        "{kind} on {r}x{c}: repeats must process identical event counts"
                    );
                }
                if best.as_ref().is_none_or(|b| s.wall < b.wall) {
                    best = Some(s);
                }
            }
            let s = best.expect("repeat >= 1");
            println!(
                "  {:<16} {:>6}  events={:>9}  wall={:>7.3}s  events/s={:>12.0}",
                kind.name(),
                format!("{r}x{c}"),
                s.report.events_processed,
                s.wall.as_secs_f64(),
                s.events_per_sec(),
            );
        }
    }
}
