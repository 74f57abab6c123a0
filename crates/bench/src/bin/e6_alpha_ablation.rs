//! `e6_alpha_ablation` — the update-vs-search dial `α` (§5): the maximum
//! borrowing-update attempts before falling back to the sequenced
//! search. `α = 0` degenerates to pure search; large `α` approaches pure
//! update behavior with its retry storms under contention.

use adca_bench::{banner, f2, opt2, pct, TextTable};
use adca_core::AdaptiveConfig;
use adca_harness::{Scenario, SchemeKind, SweepRunner};

fn main() {
    banner(
        "e6_alpha_ablation",
        "§5's α parameter (ablation)",
        "alpha sweep at high load (rho = 1.3): acquisition mix, retries, cost",
    );
    let table = TextTable::new(&[
        ("alpha", 6),
        ("drop%", 7),
        ("msgs/acq", 9),
        ("acq_T", 7),
        ("xi2(update)", 12),
        ("xi3(search)", 12),
        ("m", 6),
        ("failed_rounds", 14),
    ]);
    let alphas = [0u32, 1, 2, 3, 5, 8];
    let scenarios: Vec<Scenario> = alphas
        .iter()
        .map(|&alpha| {
            Scenario::uniform(1.3, 120_000).with_adaptive(AdaptiveConfig {
                alpha,
                ..Default::default()
            })
        })
        .collect();
    let runs = SweepRunner::new().run_sweep(&scenarios, SchemeKind::Adaptive);
    for (&alpha, s) in alphas.iter().zip(&runs) {
        s.report.assert_clean();
        table.row(&[
            format!("{alpha}"),
            pct(s.drop_rate()),
            f2(s.msgs_per_acq()),
            f2(s.mean_acq_t()),
            f2(s.xi2()),
            f2(s.xi3()),
            opt2(s.mean_update_attempts()),
            format!("{}", s.report.custom.get("update_rounds_failed")),
        ]);
    }
    println!(
        "\nshape: alpha = 0 forces every borrow through the search round\n\
         (xi2 = 0); growing alpha shifts borrows to cheap update rounds until\n\
         contention makes extra attempts pure waste (failed rounds grow while\n\
         drops stay flat) — the bounded-retry design point of §5."
    );
}
