//! `e2_latency_vs_load` — mean and p99 channel-acquisition time (units
//! of `T`) vs offered load: the §5 latency story. The adaptive scheme is
//! near-zero at low load (local mode), pays bounded rounds under
//! contention, and never exhibits the update schemes' unbounded retry
//! tail.

use adca_bench::{banner, f2, TextTable};
use adca_harness::{Scenario, SchemeKind, SweepRunner};

fn main() {
    banner(
        "e2_latency_vs_load",
        "the §5 acquisition-time comparison (series)",
        "engine-level acquisition latency in T (includes MSS queueing; the paper's\n\
         protocol-scope numbers correspond to the adaptive 'attempt' column)",
    );
    let loads = [0.3, 0.6, 0.9, 1.2, 1.6, 2.0];
    let table = TextTable::new(&[
        ("rho", 5),
        ("scheme", 18),
        ("mean_T", 8),
        ("p99_T", 8),
        ("max_T", 8),
        ("attempt_mean_T", 15),
        ("attempt_max_T", 14),
    ]);
    let scenarios: Vec<Scenario> = loads
        .iter()
        .map(|&rho| Scenario::uniform(rho, 120_000))
        .collect();
    let grid = SweepRunner::new().run_matrix(&scenarios, &SchemeKind::ALL);
    for (&rho, row) in loads.iter().zip(&grid) {
        for s in row {
            let mut s = s.clone();
            s.report.assert_clean();
            let (a_mean, a_max) = s
                .report
                .custom_samples
                .get("attempt_ticks")
                .filter(|x| !x.is_empty())
                .map(|x| {
                    (
                        x.mean() / s.t_ticks as f64,
                        x.stats().max().unwrap_or(0.0) / s.t_ticks as f64,
                    )
                })
                .unwrap_or((f64::NAN, f64::NAN));
            let p99 = s.acq_quantile_t(0.99);
            table.row(&[
                format!("{rho}"),
                s.scheme.name().to_string(),
                f2(s.mean_acq_t()),
                f2(p99),
                f2(s.max_acq_t()),
                if a_mean.is_nan() {
                    "-".into()
                } else {
                    f2(a_mean)
                },
                if a_max.is_nan() {
                    "-".into()
                } else {
                    f2(a_max)
                },
            ]);
        }
        println!();
    }
}
