//! `table1` — reproduces Table 1: general-case message complexity and
//! channel acquisition time per scheme.
//!
//! The paper's Table 1 gives closed forms in `N, N_borrow, N_search, α,
//! m, ξ1..ξ3, n_p`. We run each scheme on a common mixed-load workload,
//! *measure* those inputs from the adaptive run, plug them into the
//! formulas (`adca-analysis`), and print model vs. measurement side by
//! side. Absolute agreement is not expected (the formulas ignore
//! queueing and retry correlation); the comparison is about shape: who
//! costs what, and how the costs scale.

use adca_bench::{banner, f2, measured_inputs, scheme_model, TextTable};
use adca_harness::{Scenario, SchemeKind, SweepRunner};

fn main() {
    banner(
        "table1",
        "Table 1 (comparison of different schemes in general)",
        "measured msgs/acquisition + acquisition time (units of T) vs the paper's formulas,\n\
         with the formula inputs (xi1..3, m, N_borrow, N_search) measured from the adaptive run",
    );
    let rhos = [0.5, 0.9];
    let scenarios: Vec<Scenario> = rhos
        .iter()
        .map(|&rho| Scenario::uniform(rho, 150_000))
        .collect();
    let grid = SweepRunner::new().run_matrix(&scenarios, &SchemeKind::TABLE_SCHEMES);
    for (&rho, (sc, summaries)) in rhos.iter().zip(scenarios.iter().zip(&grid)) {
        println!("--- offered load rho = {rho} Erlangs/primary channel ---\n");
        let topo = sc.topology();
        let n = topo.max_region_size() as f64;
        let alpha = sc.adaptive.alpha as f64;
        for s in summaries {
            s.report.assert_clean();
        }
        let adaptive = summaries
            .iter()
            .find(|s| s.scheme == SchemeKind::Adaptive)
            .expect("adaptive in table schemes");
        // n_p: primary owners of a borrowed channel within a region —
        // measured directly by the advanced-update run.
        let n_p = summaries
            .iter()
            .find(|s| s.scheme == SchemeKind::AdvancedUpdate)
            .and_then(|s| s.report.custom_samples.get("np_contacted"))
            .filter(|x| !x.is_empty())
            .map(|x| x.mean())
            .unwrap_or(3.0);
        let p = measured_inputs(adaptive, n, alpha, n_p);
        println!(
            "measured inputs: N={:.0} N_borrow={:.2} N_search={:.2} m={:.2} \
             xi1={:.3} xi2={:.3} xi3={:.3} n_p={:.2}\n",
            p.n, p.n_borrow, p.n_search, p.m, p.xi1, p.xi2, p.xi3, p.n_p
        );
        let table = TextTable::new(&[
            ("scheme", 18),
            ("msgs(model)", 12),
            ("msgs(meas)", 11),
            ("time_T(model)", 14),
            ("time_T(meas)", 13),
        ]);
        for s in summaries {
            let model = scheme_model(s.scheme);
            // Per-scheme model inputs: xi/m are scheme-specific where the
            // formula uses them.
            let mut pi = p;
            pi.xi1 = s.xi1();
            pi.xi2 = s.xi2();
            pi.xi3 = s.xi3();
            pi.m = s.mean_update_attempts().unwrap_or(p.m);
            // Protocol-level latency where available (excludes MSS
            // queueing, which the formulas do not model).
            let meas_t = s
                .report
                .custom_samples
                .get("attempt_ticks")
                .filter(|x| !x.is_empty())
                .map(|x| x.mean() / s.t_ticks as f64)
                .unwrap_or_else(|| s.mean_acq_t());
            table.row(&[
                s.scheme.name().to_string(),
                f2(model.messages(&pi)),
                f2(s.msgs_per_acq()),
                f2(model.acquisition_time(&pi)),
                f2(meas_t),
            ]);
        }
        println!();
    }
    println!(
        "notes: measured msgs/acq include RELEASE traffic at deallocation and\n\
         CHANGE_MODE signalling, which the per-acquisition formulas amortize\n\
         differently; the adaptive measured time is the protocol latency\n\
         (attempt start -> grant), matching the formulas' scope."
    );
}
