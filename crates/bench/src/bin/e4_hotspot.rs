//! `e4_hotspot` — the abstract's scenario: "in case of even temporary
//! hot spots many calls may be dropped by a heavily loaded switching
//! station even when there are enough idle channels in the interference
//! region". A burst concentrates load on a small cluster of cells; we
//! compare drops inside the hot spot, the price in messages, and the
//! behavior across hot-spot intensities.

use adca_bench::{banner, f2, pct, TextTable};
use adca_harness::{Scenario, SchemeKind, SweepRunner};
use adca_hexgrid::CellId;
use adca_traffic::{Hotspot, WorkloadSpec};

fn main() {
    banner(
        "e4_hotspot",
        "the abstract/§1 hot-spot claim",
        "3-cell hot spot for 1/3 of the run over a 25%-loaded city; drops measured\n\
         inside the hot spot per scheme, across hot-spot intensities",
    );
    let horizon = 240_000;
    let base = Scenario::uniform(0.25, horizon);
    let topo = base.topology();
    let hot: Vec<CellId> = vec![
        topo.grid().at_offset(5, 5).expect("interior"),
        topo.grid().at_offset(6, 5).expect("interior"),
        topo.grid().at_offset(5, 6).expect("interior"),
    ];
    let table = TextTable::new(&[
        ("mult", 5),
        ("scheme", 18),
        ("hot_drop%", 10),
        ("city_drop%", 11),
        ("msgs/acq", 9),
        ("acq_T", 7),
    ]);
    let mults = [4.0, 8.0, 12.0];
    let kinds = [
        SchemeKind::Fixed,
        SchemeKind::Adaptive,
        SchemeKind::BasicUpdate,
        SchemeKind::BasicSearch,
        SchemeKind::AdvancedSearch,
    ];
    let scenarios: Vec<Scenario> = mults
        .iter()
        .map(|&mult| {
            let workload = WorkloadSpec::uniform(0.25, 10_000.0, horizon).with_hotspot(Hotspot {
                cells: hot.clone(),
                from: 80_000,
                until: 160_000,
                multiplier: mult,
            });
            base.clone().with_workload(workload)
        })
        .collect();
    let grid = SweepRunner::new().run_matrix(&scenarios, &kinds);
    for (&mult, row) in mults.iter().zip(&grid) {
        for s in row {
            s.report.assert_clean();
            let hot_arr: u64 = hot
                .iter()
                .map(|c| s.report.per_cell_arrivals[c.index()])
                .sum();
            let hot_drop: u64 = hot.iter().map(|c| s.report.per_cell_drops[c.index()]).sum();
            table.row(&[
                format!("{mult}x"),
                s.scheme.name().to_string(),
                pct(hot_drop as f64 / hot_arr.max(1) as f64),
                pct(s.drop_rate()),
                f2(s.msgs_per_acq()),
                f2(s.mean_acq_t()),
            ]);
        }
        println!();
    }
    println!(
        "shape: fixed drops grow with the multiplier (its hot cells are capped at\n\
         10 channels); every borrowing scheme absorbs the burst using idle\n\
         neighborhood channels — the adaptive scheme at a fraction of the\n\
         always-on schemes' message cost (its cold cells stay silent)."
    );
}
