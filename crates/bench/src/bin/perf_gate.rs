//! `perf_gate` — the CI performance comparator.
//!
//! Diffs freshly generated `BENCH_engine.json` / `BENCH_snapshot.json`
//! rows against the checked-in baselines and fails naming the offending
//! row when a metric regresses beyond the tolerance band. Three checks:
//!
//! 1. **Throughput** (`--engine`): each `(scheme, grid)` row's
//!    `events_per_sec` must be at least `baseline / 2`.
//! 2. **Resume time** (`--snapshot`): each `(scheme, grid)` row's
//!    `resume_wall_s` must be at most `baseline × 2`. It is check 1 with
//!    the direction turned round ([`Check`]).
//! 3. **Warm-path parity** (`--snapshot`, internal to the fresh file):
//!    `resume_wall_s ≤ 1.25 × cold_wall_s` per row — the resumed half
//!    run may never cost more than the whole cold run. This one is
//!    machine-independent (both sides measured in the same process), so
//!    it gets no tolerance widening.
//!
//! A comparison with a wall time under one millisecond on either side —
//! the fresh row or the baseline row it would be compared with — is
//! skipped: at that scale the numbers are timer noise, not performance
//! (the checked-in fixed/6×6 row is a 0.78 ms run, and a fresh 1.7 ms
//! run of it is not a 2× regression). A fresh row with no baseline row
//! is not compared (a smoke run covers a subset of the baseline's
//! grids) — but **a gate that compared no row at all fails**, naming
//! itself: its keys match nothing, and it would pass whatever happened.
//!
//! Re-blessing: run with `ADCA_BLESS_PERF=1` to copy each fresh file
//! over its baseline instead of comparing (after verifying check 3,
//! which must hold on any machine).
//!
//! ```text
//! cargo run --release -p adca-bench --bin perf_gate -- \
//!     [--engine FRESH BASELINE] [--snapshot FRESH BASELINE]
//! ```

use adca_bench::perf::{rows, Row};
use std::process::ExitCode;

/// How far a metric may move against its baseline: generous enough to
/// absorb a CI runner that is half the speed of the machine that
/// blessed the baseline, and still far below the 3–11× regressions the
/// gate exists to catch.
const TOLERANCE: f64 = 2.0;
const WARM_PARITY_BAND: f64 = 1.25;
const SUB_MS: f64 = 1.0e-3;

/// One cross-file comparison, keyed on `(scheme, grid)`.
struct Check {
    /// The gate's name, for its messages.
    gate: &'static str,
    metric: &'static str,
    higher_is_better: bool,
    /// The row's wall-clock fields; with one of them under a
    /// millisecond the row is timer noise.
    walls: &'static [&'static str],
}

const ENGINE: Check = Check {
    gate: "engine",
    metric: "events_per_sec",
    higher_is_better: true,
    walls: &["wall_s"],
};

const SNAPSHOT: Check = Check {
    gate: "snapshot",
    metric: "resume_wall_s",
    higher_is_better: false,
    walls: &["cold_wall_s", "resume_wall_s"],
};

impl Check {
    fn sub_ms(&self, row: &Row<'_>) -> bool {
        (self.walls.iter()).any(|w| row.num(w).is_some_and(|s| s < SUB_MS))
    }
}

#[derive(Default)]
struct Gate {
    failures: Vec<String>,
    /// Cross-file comparisons made.
    checked: usize,
    /// Cross-file comparisons not made for a sub-millisecond side.
    skipped: usize,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        println!("  FAIL {msg}");
        self.failures.push(msg);
    }

    /// Checks 1 and 2: every row of `fresh` with a row of the same
    /// `(scheme, grid)` in `baseline` holds `check.metric` against it
    /// within [`TOLERANCE`] — and at least one row is so compared.
    fn compare(&mut self, check: &Check, fresh: &str, baseline: &str) {
        let base_rows = rows(baseline);
        let before = self.checked;
        for row in rows(fresh) {
            let Some((scheme, grid)) = row.key() else {
                continue;
            };
            let Some(base_row) = (base_rows.iter()).find(|b| b.key() == Some((scheme, grid)))
            else {
                continue;
            };
            let (Some(new), Some(old)) = (row.num(check.metric), base_row.num(check.metric)) else {
                continue;
            };
            if check.sub_ms(&row) || check.sub_ms(base_row) {
                self.skipped += 1;
                continue;
            }
            self.checked += 1;
            let worse = if check.higher_is_better {
                old / new
            } else {
                new / old
            };
            if worse > TOLERANCE {
                self.fail(format!(
                    "{scheme}/{grid}: {} {new} vs baseline {old} (>{worse:.2}x regression)",
                    check.metric
                ));
            }
        }
        if self.checked == before {
            self.fail(format!(
                "{} gate: no fresh row matches a baseline (scheme, grid) above a millisecond",
                check.gate
            ));
        }
    }

    /// Check 3, within `fresh`; returns the number of rows it held on
    /// or failed (a sub-millisecond cold run is timer noise).
    fn warm_parity(&mut self, fresh: &str) -> usize {
        let mut checked = 0;
        for row in rows(fresh) {
            let (Some((scheme, grid)), Some(cold), Some(resume)) =
                (row.key(), row.num("cold_wall_s"), row.num("resume_wall_s"))
            else {
                continue;
            };
            if cold < SUB_MS {
                continue;
            }
            checked += 1;
            if resume > WARM_PARITY_BAND * cold {
                self.fail(format!(
                    "{scheme}/{grid}: resume_wall {resume:.4}s vs cold_wall {cold:.4}s \
                     (warm-path parity band is {WARM_PARITY_BAND}x)",
                ));
            }
        }
        checked
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"))
}

/// `fs::copy` truncates the destination before reading finishes if the
/// two paths alias, so blessing a file onto itself must be a no-op.
fn bless_copy(fresh: &str, base: &str) {
    if fresh != base {
        std::fs::copy(fresh, base).unwrap_or_else(|e| panic!("cannot bless `{base}`: {e}"));
    }
    println!("blessed {base} from {fresh}");
}

fn main() -> ExitCode {
    let mut engine: Option<(String, String)> = None;
    let mut snapshot: Option<(String, String)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut pair = || {
            let fresh = args.next().expect("expected FRESH BASELINE paths");
            let base = args.next().expect("expected FRESH BASELINE paths");
            (fresh, base)
        };
        match arg.as_str() {
            "--engine" => engine = Some(pair()),
            "--snapshot" => snapshot = Some(pair()),
            other => panic!("unknown argument `{other}`"),
        }
    }
    if engine.is_none() && snapshot.is_none() {
        panic!("nothing to do: pass --engine and/or --snapshot");
    }

    let bless = std::env::var_os("ADCA_BLESS_PERF").is_some_and(|v| v == "1");
    let mut gate = Gate::default();

    if let Some((fresh_path, base_path)) = &engine {
        if bless {
            bless_copy(fresh_path, base_path);
        } else {
            println!("engine gate: {fresh_path} vs {base_path}");
            gate.compare(&ENGINE, &read(fresh_path), &read(base_path));
        }
    }
    if let Some((fresh_path, base_path)) = &snapshot {
        let fresh = read(fresh_path);
        if !bless {
            println!("snapshot gate: {fresh_path} vs {base_path}");
            gate.compare(&SNAPSHOT, &fresh, &read(base_path));
        }
        let held = gate.warm_parity(&fresh);
        println!("  warm-path parity checked on {held} rows");
        if bless {
            // Parity is machine-independent; never bless a file that
            // violates it.
            assert!(
                gate.failures.is_empty(),
                "refusing to bless {base_path}: fresh rows break warm-path parity"
            );
            bless_copy(fresh_path, base_path);
        }
    }

    println!(
        "perf gate: {} rows compared with a baseline, {} sub-millisecond rows skipped, \
         {} failures (tolerance {TOLERANCE}x)",
        gate.checked,
        gate.skipped,
        gate.failures.len(),
    );
    if gate.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("re-bless with ADCA_BLESS_PERF=1 if the new numbers are intended");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAP: &str = r#"{
  "rows": [
    {"scheme": "fixed", "grid": "6x6", "cells": 36, "save_ms": 0.5, "restore_ms": 0.4, "cold_wall_s": 0.000800, "resume_wall_s": 0.009000, "resume_identical": true},
    {"scheme": "adaptive", "grid": "24x24", "cells": 576, "save_ms": 12.0, "restore_ms": 13.0, "cold_wall_s": 0.600000, "resume_wall_s": 0.400000, "resume_identical": true}
  ]
}"#;

    #[test]
    fn sub_millisecond_rows_are_skipped() {
        // The fixed/6x6 row breaks parity 11x over but is under 1 ms
        // cold — timer noise, not a regression.
        let mut gate = Gate::default();
        gate.compare(&SNAPSHOT, SNAP, SNAP);
        assert_eq!(gate.warm_parity(SNAP), 1);
        assert_eq!((gate.checked, gate.skipped), (1, 1));
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
    }

    #[test]
    fn a_sub_millisecond_baseline_row_is_not_compared() {
        // BENCH_engine.json's fixed/6x6 row is a 0.78 ms run; a fresh
        // 1.7 ms run of the same 6 027 events reads "2.16x slow".
        let base = r#"{"scheme": "fixed", "grid": "6x6", "cells": 36, "horizon_ticks": 100000, "events": 6027, "wall_s": 0.000784, "events_per_sec": 7683658.2}
{"scheme": "adaptive", "grid": "6x6", "cells": 36, "horizon_ticks": 100000, "events": 114305, "wall_s": 0.013804, "events_per_sec": 8280650.6}"#;
        let fresh = r#"{"scheme": "fixed", "grid": "6x6", "cells": 36, "horizon_ticks": 100000, "events": 6027, "wall_s": 0.001694, "events_per_sec": 3557851.2}
{"scheme": "adaptive", "grid": "6x6", "cells": 36, "horizon_ticks": 100000, "events": 114305, "wall_s": 0.015000, "events_per_sec": 7620333.3}"#;
        let mut gate = Gate::default();
        gate.compare(&ENGINE, fresh, base);
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert_eq!((gate.checked, gate.skipped), (1, 1));
        // The snapshot gate skips the same way: the baseline's
        // fixed/6x6 row (0.8 ms cold) is not a resume-time reference
        // for a fresh run that crossed a millisecond.
        let fresh_snap = SNAP
            .replace("\"cold_wall_s\": 0.000800", "\"cold_wall_s\": 0.020000")
            .replace("\"resume_wall_s\": 0.009000", "\"resume_wall_s\": 0.020000");
        gate.compare(&SNAPSHOT, &fresh_snap, SNAP);
        gate.warm_parity(&fresh_snap);
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert_eq!((gate.checked, gate.skipped), (2, 2));
    }

    #[test]
    fn parity_violation_names_the_row() {
        let bad = SNAP.replace("\"resume_wall_s\": 0.400000", "\"resume_wall_s\": 2.400000");
        let mut gate = Gate::default();
        gate.compare(&SNAPSHOT, &bad, SNAP);
        gate.warm_parity(&bad);
        assert_eq!(gate.failures.len(), 2, "baseline regression + parity");
        assert!(gate.failures.iter().all(|f| f.contains("adaptive/24x24")));
        assert!(gate.failures[0].contains("6.00x regression"));
        assert!(gate.failures[1].contains("parity"));
    }

    #[test]
    fn engine_gate_flags_throughput_loss() {
        let base = r#"{"scheme": "adaptive", "grid": "24x24", "events": 100, "wall_s": 0.300000, "events_per_sec": 6000000.0, "speedup": 2.0}"#;
        let slow = r#"{"scheme": "adaptive", "grid": "24x24", "events": 100, "wall_s": 0.900000, "events_per_sec": 2000000.0, "speedup": 0.7}"#;
        let mut gate = Gate::default();
        gate.compare(&ENGINE, slow, base);
        assert_eq!(gate.failures.len(), 1);
        assert!(gate.failures[0].contains("adaptive/24x24"));
        // Within tolerance: half the baseline exactly passes at 2x.
        let half = base.replace("6000000.0", "4000000.0");
        let mut gate = Gate::default();
        gate.compare(&ENGINE, slow, &half);
        assert!(gate.failures.is_empty());
    }

    /// How `--serve` and `--wire` passed in CI from the day they were
    /// added: smoke rows keyed on one scale, baselines on another,
    /// nothing compared, exit 0.
    #[test]
    fn a_gate_that_compares_no_row_fails_naming_itself() {
        let base = r#"{"scheme": "adaptive", "grid": "6x6", "events": 100, "wall_s": 0.300000, "events_per_sec": 6000000.0}"#;
        let fresh = r#"{"scheme": "adaptive", "grid": "48x48", "events": 100, "wall_s": 0.900000, "events_per_sec": 10.0}"#;
        let mut gate = Gate::default();
        gate.compare(&ENGINE, fresh, base);
        assert_eq!(gate.checked, 0);
        assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
        assert!(gate.failures[0].starts_with("engine gate: no fresh row matches"));
        // Rows that match only below a millisecond were not compared
        // either.
        let mut gate = Gate::default();
        gate.compare(&SNAPSHOT, SNAP, &SNAP.replace("24x24", "9x9"));
        assert_eq!((gate.checked, gate.skipped), (0, 1));
        assert!(gate.failures[0].starts_with("snapshot gate: no fresh row matches"));
    }
}
