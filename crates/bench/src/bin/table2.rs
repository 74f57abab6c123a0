//! `table2` — reproduces Table 2: comparison of the algorithms under
//! uniformly low load.
//!
//! Paper's claim (per acquisition): basic search 2N msgs / 2T, basic
//! update 4N / 2T, advanced update 2N / 0, adaptive **0 / 0**.

use adca_bench::{banner, f2, scheme_model, TextTable};
use adca_harness::{Scenario, SchemeKind, SweepRunner};

fn main() {
    banner(
        "table2",
        "Table 2 (comparison under low load)",
        "uniform 12% utilization: measured messages/acquisition and acquisition time (T)",
    );
    let sc = Scenario::uniform(0.12, 200_000);
    let topo = sc.topology();
    let n = topo.max_region_size() as f64;
    let alpha = sc.adaptive.alpha as f64;
    let summaries = SweepRunner::new()
        .run_matrix(std::slice::from_ref(&sc), &SchemeKind::TABLE_SCHEMES)
        .remove(0);
    let table = TextTable::new(&[
        ("scheme", 18),
        ("msgs(paper)", 12),
        ("msgs(meas)", 11),
        ("time_T(paper)", 14),
        ("time_T(meas)", 13),
    ]);
    for s in &summaries {
        s.report.assert_clean();
        let model = scheme_model(s.scheme);
        let (msgs, time) = model.low_load(n, alpha, 3.0);
        table.row(&[
            s.scheme.name().to_string(),
            f2(msgs),
            f2(s.msgs_per_acq()),
            f2(time),
            f2(s.mean_acq_t()),
        ]);
    }
    let adaptive = summaries
        .iter()
        .find(|s| s.scheme == SchemeKind::Adaptive)
        .expect("present");
    println!(
        "\nadaptive at low load: {} total control messages over {} acquisitions \
         (the paper's 0/0 row)",
        adaptive.report.messages_total, adaptive.report.granted
    );
    println!(
        "note: boundary cells have regions smaller than N = {n}, so measured\n\
         per-acquisition counts for the search/update schemes sit slightly\n\
         below the interior-cell formulas."
    );
}
