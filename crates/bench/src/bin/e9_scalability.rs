//! `e9_scalability` — "its distributed nature makes it highly scalable"
//! (§6). All coordination is confined to interference regions, so
//! per-cell message rate and acquisition latency must stay flat as the
//! system grows at constant per-cell load.

use adca_bench::{banner, f2, pct, TextTable};
use adca_harness::{Scenario, SchemeKind, SweepRunner};

fn main() {
    banner(
        "e9_scalability",
        "§6's scalability claim",
        "grid sweep at constant per-cell load (rho = 0.9): per-cell costs must stay flat",
    );
    let table = TextTable::new(&[
        ("grid", 8),
        ("cells", 6),
        ("calls", 8),
        ("drop%", 7),
        ("msgs/acq", 9),
        ("msgs/cell/kT", 13),
        ("acq_T", 7),
    ]);
    let grids = [(6u32, 6u32), (9, 9), (12, 12), (16, 16), (20, 20), (24, 24)];
    let scenarios: Vec<Scenario> = grids
        .iter()
        .map(|&(rows, cols)| Scenario::uniform(0.9, 100_000).with_grid(rows, cols))
        .collect();
    let runs = SweepRunner::new().run_sweep(&scenarios, SchemeKind::Adaptive);
    for (&(rows, cols), s) in grids.iter().zip(&runs) {
        s.report.assert_clean();
        let cells = (rows * cols) as f64;
        let per_cell_rate =
            s.report.messages_total as f64 / cells / (s.report.end_time.ticks() as f64 / 1_000.0);
        table.row(&[
            format!("{rows}x{cols}"),
            format!("{}", rows * cols),
            format!("{}", s.report.offered_calls),
            pct(s.drop_rate()),
            f2(s.msgs_per_acq()),
            f2(per_cell_rate),
            f2(s.mean_acq_t()),
        ]);
    }
    println!(
        "\nshape: per-acquisition and per-cell message costs converge to a\n\
         constant as boundary effects shrink; nothing grows with system size\n\
         — no global state, no global arbiter."
    );
}
