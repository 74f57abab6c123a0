//! `e10_mobility` — the §2.1 handoff model under random-walk mobility:
//! a moving call releases its channel in the old cell and re-acquires in
//! the new one; a failed re-acquisition is a forced termination (worse
//! than blocking a fresh call). We compare handoff failure rates and the
//! handoff's acquisition cost across schemes and dwell times.

use adca_bench::{banner, f2, pct, TextTable};
use adca_harness::{Scenario, SchemeKind, SweepRunner};
use adca_traffic::WorkloadSpec;

fn main() {
    banner(
        "e10_mobility",
        "§2.1's handoff procedure under mobility",
        "random-walk mobility at rho = 0.8: handoff failure rate vs dwell time",
    );
    let table = TextTable::new(&[
        ("dwell", 7),
        ("scheme", 18),
        ("handoffs", 9),
        ("ho_fail%", 9),
        ("newcall_drop%", 14),
        ("msgs/acq", 9),
    ]);
    let dwells = [2_000.0_f64, 5_000.0, 12_000.0];
    let kinds = [
        SchemeKind::Fixed,
        SchemeKind::Adaptive,
        SchemeKind::BasicSearch,
        SchemeKind::AdvancedSearch,
    ];
    let scenarios: Vec<Scenario> = dwells
        .iter()
        .map(|&dwell| {
            let wl = WorkloadSpec::uniform(0.8, 10_000.0, 120_000).with_mobility(dwell);
            Scenario::uniform(0.8, 120_000).with_workload(wl)
        })
        .collect();
    let grid = SweepRunner::new().run_matrix(&scenarios, &kinds);
    for (&dwell, row) in dwells.iter().zip(&grid) {
        for s in row {
            s.report.assert_clean();
            table.row(&[
                format!("{dwell}"),
                s.scheme.name().to_string(),
                format!("{}", s.report.custom.get("handoff_attempts")),
                pct(s.report.handoff_failure_rate()),
                pct(s.drop_rate()),
                f2(s.msgs_per_acq()),
            ]);
        }
        println!();
    }
    println!(
        "shape: shorter dwell = more handoffs = more chances to fail; the\n\
         borrowing schemes keep forced terminations well under the fixed\n\
         scheme's, at their usual message cost."
    );
}
