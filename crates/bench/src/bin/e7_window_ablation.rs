//! `e7_window_ablation` — the prediction window `W` (§3.1/§3.5): the
//! NFC extrapolator predicts free primaries `2T` ahead from the change
//! over the last `W` ticks. Short windows react fast but jitter; long
//! windows smooth but switch modes late under bursts.

use adca_bench::{banner, f2, pct, TextTable};
use adca_core::AdaptiveConfig;
use adca_harness::{Scenario, SchemeKind, SweepRunner};
use adca_hexgrid::CellId;
use adca_traffic::{Hotspot, WorkloadSpec};

fn main() {
    banner(
        "e7_window_ablation",
        "§3.1/§3.5's prediction window W (ablation)",
        "W sweep under a bursty workload (8x hot spot, 40% base): drops, churn, cost",
    );
    let horizon = 160_000;
    let base = Scenario::uniform(0.4, horizon);
    let topo = base.topology();
    let hot: Vec<CellId> = vec![
        topo.grid().at_offset(5, 5).expect("interior"),
        topo.grid().at_offset(6, 5).expect("interior"),
    ];
    let workload = WorkloadSpec::uniform(0.4, 8_000.0, horizon).with_hotspot(Hotspot {
        cells: hot,
        from: 50_000,
        until: 110_000,
        multiplier: 8.0,
    });
    let table = TextTable::new(&[
        ("W(ticks)", 9),
        ("W/T", 5),
        ("drop%", 7),
        ("msgs/acq", 9),
        ("acq_T", 7),
        ("mode_switches", 14),
    ]);
    let windows = [100u64, 200, 400, 800, 1_600, 3_200, 12_800];
    let scenarios: Vec<Scenario> = windows
        .iter()
        .map(|&w| {
            base.clone()
                .with_workload(workload.clone())
                .with_adaptive(AdaptiveConfig {
                    window: w,
                    ..Default::default()
                })
        })
        .collect();
    let runs = SweepRunner::new().run_sweep(&scenarios, SchemeKind::Adaptive);
    for (&w, s) in windows.iter().zip(&runs) {
        s.report.assert_clean();
        let switches =
            s.report.custom.get("mode_to_borrowing") + s.report.custom.get("mode_to_local");
        table.row(&[
            format!("{w}"),
            format!("{}", w / 100),
            pct(s.drop_rate()),
            f2(s.msgs_per_acq()),
            f2(s.mean_acq_t()),
            format!("{switches}"),
        ]);
    }
    println!(
        "\nshape: very short windows over-react to single-call noise (mode\n\
         churn); very long windows dilute the burst's slope so cells switch\n\
         on level rather than trend. The paper's W ≈ several round trips sits\n\
         in the flat middle."
    );
}
