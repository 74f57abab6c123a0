//! `e14_checkpoint` — the snapshot subsystem's perf and correctness
//! baseline (`BENCH_snapshot.json`).
//!
//! Over the `e9_scalability` grid sweep, for every scheme: run cold to
//! the horizon, then re-run to the midpoint, snapshot, restore, and
//! finish — asserting whole-report **resume identity** at every system
//! size while timing `snapshot()`/`restore()` and recording the snapshot
//! size.
//!
//! ```text
//! cargo run --release -p adca-bench --bin e14_checkpoint -- \
//!     [--smoke] [--out PATH]
//! ```
//!
//! * `--smoke` restricts the sweep to the two smallest grids (CI).
//! * `--out` overrides the output path (default `BENCH_snapshot.json`).

use adca_harness::{Scenario, SchemeKind};
use std::fmt::Write as _;

const HORIZON: u64 = 100_000;
const RHO: f64 = 0.9;
/// Interval of the periodic on-disk checkpoint check, in ticks.
const CKPT_EVERY: u64 = 10_000;
const GRIDS: [(u32, u32); 6] = [(6, 6), (9, 9), (12, 12), (16, 16), (20, 20), (24, 24)];

struct SnapRow {
    scheme: String,
    grid: String,
    cells: u64,
    snapshot_bytes: usize,
    save_ms: f64,
    restore_ms: f64,
    cold_wall_s: f64,
    resume_wall_s: f64,
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_snapshot.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let grids: &[(u32, u32)] = if smoke { &GRIDS[..2] } else { &GRIDS[..] };
    let ckpt_at = HORIZON / 2;

    println!("e14_checkpoint: e9 workload (rho={RHO}, horizon={HORIZON}), checkpoint at {ckpt_at}");
    let mut rows: Vec<SnapRow> = Vec::new();
    for &(r, c) in grids {
        let sc = Scenario::uniform(RHO, HORIZON).with_grid(r, c);
        let grid = format!("{r}x{c}");
        let topo = sc.topology();
        let arrivals = sc.arrivals(&topo);
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
                grid: grid.clone(),
                cells: (r * c) as u64,
                snapshot_bytes: probe.snapshot_len,
                save_ms: probe.save.as_secs_f64() * 1e3,
                restore_ms: probe.restore.as_secs_f64() * 1e3,
                cold_wall_s: cold.wall.as_secs_f64(),
                resume_wall_s: probe.resumed.wall.as_secs_f64(),
            };
            println!(
                "  {:<16} {:>6}  snapshot={:>9}B  save={:>7.3}ms  restore={:>7.3}ms  resume=identical",
                row.scheme, row.grid, row.snapshot_bytes, row.save_ms, row.restore_ms,
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
        let grid_rows = &rows[rows.len() - SchemeKind::ALL.len()..];
        let mut restores: Vec<f64> = grid_rows.iter().map(|r| r.restore_ms).collect();
        restores.sort_by(f64::total_cmp);
        let median = restores[restores.len() / 2];
        for row in grid_rows {
            assert!(
                row.restore_ms <= 3.0 * median + 2.0,
                "{} on {grid}: restore {:.3}ms is an outlier (grid median {median:.3}ms)",
                row.scheme,
                row.restore_ms,
            );
        }
    }
    // Periodic on-disk checkpointing: the writes must not disturb the
    // run, and the file left behind must resume to the bit-identical
    // report.
    let sc = Scenario::uniform(RHO, HORIZON).with_grid(6, 6);
    let path = std::env::temp_dir().join("e14_adaptive.ckpt");
    let cold = sc.run(SchemeKind::Adaptive);
    let ckpt = sc
        .run_checkpointed(SchemeKind::Adaptive, &path, CKPT_EVERY)
        .expect("checkpoint file is writable");
    assert_eq!(
        cold.report, ckpt.report,
        "checkpoint writes disturbed the run"
    );
    let resumed = sc
        .resume_from(SchemeKind::Adaptive, &path)
        .expect("own checkpoint file restores");
    assert_eq!(
        cold.report, resumed.report,
        "resume_from diverged from cold"
    );
    let _ = std::fs::remove_file(&path);
    println!(
        "  periodic checkpointing every {CKPT_EVERY} ticks: run undisturbed, file resumes identical"
    );

    write_json(&out_path, smoke, ckpt_at, &rows)
        .unwrap_or_else(|e| panic!("cannot write `{out_path}`: {e}"));
    println!("wrote {out_path} ({} snapshot rows)", rows.len());
}

/// `BENCH_engine.json`-style hand-rolled JSON (no serde in the
/// workspace): one row per line so `jq`/grep tooling stays trivial.
fn write_json(path: &str, smoke: bool, ckpt_at: u64, rows: &[SnapRow]) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"e14_checkpoint\",\n");
    s.push_str(&adca_bench::perf::provenance_lines());
    s.push_str("  \"workload\": \"e9_scalability grid sweep\",\n");
    let _ = writeln!(s, "  \"rho\": {RHO},");
    let _ = writeln!(s, "  \"horizon_ticks\": {HORIZON},");
    let _ = writeln!(s, "  \"checkpoint_at_ticks\": {ckpt_at},");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scheme\": \"{}\", \"grid\": \"{}\", \"cells\": {}, \
             \"snapshot_bytes\": {}, \"save_ms\": {:.3}, \"restore_ms\": {:.3}, \
             \"cold_wall_s\": {:.6}, \"resume_wall_s\": {:.6}, \"resume_identical\": true}}",
            r.scheme,
            r.grid,
            r.cells,
            r.snapshot_bytes,
            r.save_ms,
            r.restore_ms,
            r.cold_wall_s,
            r.resume_wall_s,
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}
