//! `e14_checkpoint` — the snapshot subsystem's correctness and cost
//! sweep, printed and asserted in-process.
//!
//! Over the `e9_scalability` grid sweep, for every scheme: run cold to
//! the horizon, then re-run to the midpoint, snapshot, restore, and
//! finish — asserting whole-report **resume identity** at every system
//! size while timing `snapshot()`/`restore()` and printing the snapshot
//! size.
//!
//! ```text
//! cargo run --release -p adca-bench --bin e14_checkpoint -- [--smoke]
//! ```
//!
//! * `--smoke` restricts the sweep to the two smallest grids (CI).

use adca_harness::{Scenario, SchemeKind};

const HORIZON: u64 = 100_000;
const RHO: f64 = 0.9;
const GRIDS: [(u32, u32); 6] = [(6, 6), (9, 9), (12, 12), (16, 16), (20, 20), (24, 24)];

struct SnapRow {
    scheme: String,
    snapshot_bytes: usize,
    save_ms: f64,
    restore_ms: f64,
    cold_wall_s: f64,
    resume_wall_s: f64,
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => panic!("unknown argument `{other}`"),
        }
    }
    let grids: &[(u32, u32)] = if smoke { &GRIDS[..2] } else { &GRIDS[..] };
    let ckpt_at = HORIZON / 2;

    println!("e14_checkpoint: e9 workload (rho={RHO}, horizon={HORIZON}), checkpoint at {ckpt_at}");
    for &(r, c) in grids {
        let sc = Scenario::uniform(RHO, HORIZON).with_grid(r, c);
        let grid = format!("{r}x{c}");
        let topo = sc.topology();
        let arrivals = sc.arrivals(&topo);
        let mut rows: Vec<SnapRow> = Vec::new();
        for kind in SchemeKind::ALL {
            let cold = sc.run_with(kind, topo.clone(), arrivals.clone());
            cold.report.assert_clean();
            let probe = sc.checkpoint_probe(kind, ckpt_at);
            assert_eq!(
                cold.report, probe.resumed.report,
                "{kind} on {grid}: snapshot/restore at the midpoint diverged \
                 from the cold run"
            );
            let row = SnapRow {
                scheme: kind.name().to_string(),
                snapshot_bytes: probe.snapshot_len,
                save_ms: probe.save.as_secs_f64() * 1e3,
                restore_ms: probe.restore.as_secs_f64() * 1e3,
                cold_wall_s: cold.wall.as_secs_f64(),
                resume_wall_s: probe.resumed.wall.as_secs_f64(),
            };
            println!(
                "  {:<16} {:>6}  snapshot={:>9}B  save={:>7.3}ms  restore={:>7.3}ms  resume=identical",
                row.scheme, grid, row.snapshot_bytes, row.save_ms, row.restore_ms,
            );
            // Warm-path parity: the resumed *half* run must not cost
            // more than the whole cold run (pre-fix it ran up to 11×
            // the cold wall; at parity it is ~0.5–0.6×).
            assert!(
                row.resume_wall_s <= 1.25 * row.cold_wall_s,
                "{kind} on {grid}: resumed half-run took {:.3}s vs {:.3}s cold — \
                 warm-path regression",
                row.resume_wall_s,
                row.cold_wall_s,
            );
            rows.push(row);
        }
        // Restore-cost outlier check: within one grid every scheme
        // decodes the same engine sections plus O(state) protocol bytes,
        // so restore times should sit within a small factor of each
        // other. advanced-update's 3.4× outlier (superlinear node
        // construction) motivated this gate; the +2ms floor keeps
        // sub-millisecond grids out of timer noise.
        let mut restores: Vec<f64> = rows.iter().map(|r| r.restore_ms).collect();
        restores.sort_by(f64::total_cmp);
        let median = restores[restores.len() / 2];
        for row in &rows {
            assert!(
                row.restore_ms <= 3.0 * median + 2.0,
                "{} on {grid}: restore {:.3}ms is an outlier (grid median {median:.3}ms)",
                row.scheme,
                row.restore_ms,
            );
        }
    }
}
