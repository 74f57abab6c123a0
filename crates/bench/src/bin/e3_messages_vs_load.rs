//! `e3_messages_vs_load` — control messages per successful acquisition
//! vs offered load, plus the adaptive scheme's message taxonomy and mode
//! mix: the §5/§6 message-complexity story. At low load the adaptive
//! scheme is silent; as load grows its cost approaches the search
//! scheme's, by design.

use adca_bench::{banner, f2, TextTable};
use adca_harness::{Scenario, SchemeKind, SweepRunner};

fn main() {
    banner(
        "e3_messages_vs_load",
        "the §5 message-complexity comparison (series)",
        "messages per acquisition; adaptive mode mix (xi) per load on the right",
    );
    let loads = [0.15, 0.3, 0.5, 0.7, 0.9, 1.2, 1.6, 2.0];
    let mut cols: Vec<(&str, usize)> = vec![("rho", 5)];
    for k in SchemeKind::ALL {
        cols.push((k.name(), 16));
    }
    cols.push(("xi1/xi2/xi3", 18));
    let table = TextTable::new(&cols);
    let scenarios: Vec<Scenario> = loads
        .iter()
        .map(|&rho| Scenario::uniform(rho, 120_000))
        .collect();
    let grid = SweepRunner::new().run_matrix(&scenarios, &SchemeKind::ALL);
    for (&rho, summaries) in loads.iter().zip(&grid) {
        let mut cells = vec![format!("{rho}")];
        for s in summaries {
            s.report.assert_clean();
            cells.push(f2(s.msgs_per_acq()));
        }
        let adaptive = summaries
            .iter()
            .find(|s| s.scheme == SchemeKind::Adaptive)
            .expect("present");
        cells.push(format!(
            "{:.2}/{:.2}/{:.2}",
            adaptive.xi1(),
            adaptive.xi2(),
            adaptive.xi3()
        ));
        table.row(&cells);
    }
    println!();
    // Message taxonomy for the adaptive scheme at one moderate load —
    // the rho = 0.9 run from the sweep (bit-identical to a standalone
    // run of the same scenario).
    let s = &grid[loads.iter().position(|&r| r == 0.9).expect("0.9 swept")][SchemeKind::ALL
        .iter()
        .position(|&k| k == SchemeKind::Adaptive)
        .expect("adaptive swept")];
    println!("adaptive message taxonomy at rho = 0.9:");
    for (kind, count) in s.report.msg_kinds.iter() {
        println!(
            "  {kind:<12} {count:>8}  ({:.2} per acquisition)",
            count as f64 / s.report.granted as f64
        );
    }
}
