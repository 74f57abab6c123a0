//! `perf_gate` — the CI performance comparator (ROADMAP item 5).
//!
//! Diffs freshly generated `BENCH_engine.json` / `BENCH_snapshot.json`
//! rows against the checked-in baselines and fails naming the offending
//! row when a metric regresses beyond the tolerance band. Five gates:
//!
//! 1. **Throughput** (`--engine`): each `(scheme, grid)` row's
//!    `events_per_sec` must be at least `baseline / tolerance`.
//! 2. **Warm-path parity** (`--snapshot`, internal to the fresh file):
//!    `resume_wall_s ≤ 1.25 × cold_wall_s` per row — the resumed half
//!    run may never cost more than the whole cold run. This one is
//!    machine-independent (both sides measured in the same process), so
//!    it gets no tolerance widening.
//! 3. **Resume time** (`--snapshot`, cross-file): each row's
//!    `resume_wall_s` must be at most `baseline × tolerance`.
//! 4. **Serving throughput** (`--serve`): each `(backend, scheme, grid,
//!    drivers, subscribers)` row of `BENCH_serve.json` holds its
//!    `acq_per_sec` against the baseline, same band as gate 1 (rows
//!    written before the driver axis existed count as `drivers = 1`).
//! 5. **Wire throughput** (`--wire`): each `(scheme, grid, drivers,
//!    subscribers)` row of `BENCH_wire.json` holds its `acq_per_sec`
//!    against the baseline, same band as gate 1.
//!
//! Rows whose measured wall time is under one millisecond on either
//! side — the fresh row or the baseline row it would be compared with —
//! are skipped: at that scale the numbers are timer noise, not
//! performance (the checked-in fixed/6×6 row is a 0.78 ms run, and a
//! fresh 1.7 ms run of it is not a 2× regression).
//!
//! The default tolerance is 2×: generous enough to absorb a CI runner
//! that is half the speed of the machine that blessed the baseline, and
//! still far below the 3–11× regressions the gate exists to catch.
//!
//! Re-blessing: run with `ADCA_BLESS_PERF=1` to copy each fresh file
//! over its baseline instead of comparing (after verifying gate 2,
//! which must hold on any machine).
//!
//! ```text
//! cargo run --release -p adca-bench --bin perf_gate -- \
//!     [--engine FRESH BASELINE] [--snapshot FRESH BASELINE] \
//!     [--serve FRESH BASELINE] [--wire FRESH BASELINE] [--tolerance X]
//! ```

use std::process::ExitCode;

const WARM_PARITY_BAND: f64 = 1.25;
const SUB_MS: f64 = 1.0e-3;

/// One `{"k": v, ...}` row line from the hand-rolled bench JSON (the
/// workspace has no serde; rows are one object per line by design).
struct Row<'a>(&'a str);

impl<'a> Row<'a> {
    fn str_field(&self, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\": \"");
        let start = self.0.find(&pat)? + pat.len();
        let rest = &self.0[start..];
        Some(&rest[..rest.find('"')?])
    }

    fn f64_field(&self, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let start = self.0.find(&pat)? + pat.len();
        let rest = &self.0[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }

    /// `(scheme, grid)` — the row identity both bench files share.
    fn key(&self) -> Option<(String, String)> {
        Some((
            self.str_field("scheme")?.to_string(),
            self.str_field("grid")?.to_string(),
        ))
    }
}

/// The `"rows"` array entries of a bench JSON file (skips `warm_start`
/// and other arrays, whose rows have no `scheme` field).
fn scheme_rows(text: &str) -> Vec<Row<'_>> {
    text.lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{') && l.contains("\"scheme\""))
        .map(Row)
        .collect()
}

fn lookup<'a>(rows: &'a [Row<'a>], key: &(String, String)) -> Option<&'a Row<'a>> {
    rows.iter().find(|r| r.key().as_ref() == Some(key))
}

struct Gate {
    tolerance: f64,
    failures: Vec<String>,
    checked: usize,
    skipped: usize,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        println!("  FAIL {msg}");
        self.failures.push(msg);
    }

    /// The comparison the throughput gates share: `row`'s `metric` may
    /// not fall below its baseline row's by more than the tolerance
    /// band. A run under a millisecond on either side is timer noise
    /// and is skipped; a row with no baseline row is not compared (smoke
    /// runs cover a subset of the baseline's grids and scales).
    fn throughput(&mut self, label: &str, metric: &str, row: &Row<'_>, base_row: Option<&Row<'_>>) {
        let sub_ms = |r: &Row<'_>| r.f64_field("wall_s").is_some_and(|w| w < SUB_MS);
        let Some(fresh) = row.f64_field(metric) else {
            return;
        };
        if sub_ms(row) {
            self.skipped += 1;
            return;
        }
        let Some(base_row) = base_row else { return };
        let Some(base) = base_row.f64_field(metric) else {
            return;
        };
        if sub_ms(base_row) {
            self.skipped += 1;
            return;
        }
        self.checked += 1;
        if fresh * self.tolerance < base {
            self.fail(format!(
                "{label}: {metric} {fresh:.0} vs baseline {base:.0} (>{:.2}x regression)",
                base / fresh,
            ));
        }
    }

    /// Gate 1: `events_per_sec` vs baseline, per `(scheme, grid)` row.
    fn engine(&mut self, fresh: &str, baseline: &str) {
        let base_rows = scheme_rows(baseline);
        for row in scheme_rows(fresh) {
            let Some(key) = row.key() else { continue };
            let label = format!("{}/{}", key.0, key.1);
            self.throughput(&label, "events_per_sec", &row, lookup(&base_rows, &key));
        }
    }

    /// Gate 4 (`--serve`): each `(backend, scheme, grid, drivers,
    /// subscribers)` row of `BENCH_serve.json` holds its `acq_per_sec`
    /// against the baseline, under the same tolerance band and
    /// sub-millisecond skip as the engine gate. Rows keyed on `backend`,
    /// `drivers`, and `subscribers` as well: a CI smoke run (small
    /// subscriber count, fewer drivers) only ever matches baseline rows
    /// measured at the same scale. A row with no `drivers` field (files
    /// written before the driver axis existed) counts as `drivers = 1`.
    fn serve(&mut self, fresh: &str, baseline: &str) {
        let base_rows = scheme_rows(baseline);
        for row in scheme_rows(fresh) {
            let (Some(key), Some(backend), Some(subs)) = (
                row.key(),
                row.str_field("backend"),
                row.f64_field("subscribers"),
            ) else {
                continue;
            };
            let drivers = row.f64_field("drivers").unwrap_or(1.0);
            let base_row = base_rows.iter().find(|b| {
                b.key().as_ref() == Some(&key)
                    && b.str_field("backend") == Some(backend)
                    && b.f64_field("drivers").unwrap_or(1.0) == drivers
                    && b.f64_field("subscribers") == Some(subs)
            });
            let label = format!(
                "{backend}/{}/{}/{} drivers/{} subs",
                key.0, key.1, drivers as u64, subs as u64
            );
            self.throughput(&label, "acq_per_sec", &row, base_row);
        }
    }

    /// Gate 5 (`--wire`): each `(scheme, grid, drivers, subscribers)`
    /// row of `BENCH_wire.json` holds its `acq_per_sec` against the
    /// baseline, under the same tolerance band and sub-millisecond skip
    /// as the engine gate. Keying on `drivers` keeps the driver-sweep
    /// rows distinct; keying on `subscribers` keeps a CI smoke run from
    /// matching full-scale baseline rows.
    fn wire(&mut self, fresh: &str, baseline: &str) {
        let base_rows = scheme_rows(baseline);
        for row in scheme_rows(fresh) {
            let (Some(key), Some(drivers), Some(subs)) = (
                row.key(),
                row.f64_field("drivers"),
                row.f64_field("subscribers"),
            ) else {
                continue;
            };
            let base_row = base_rows.iter().find(|b| {
                b.key().as_ref() == Some(&key)
                    && b.f64_field("drivers") == Some(drivers)
                    && b.f64_field("subscribers") == Some(subs)
            });
            let label = format!(
                "wire/{}/{}/{} drivers/{} subs",
                key.0, key.1, drivers as u64, subs as u64
            );
            self.throughput(&label, "acq_per_sec", &row, base_row);
        }
    }

    /// Gates 2 and 3: warm-path parity within `fresh`, resume wall vs
    /// baseline across files.
    fn snapshot(&mut self, fresh: &str, baseline: Option<&str>) {
        let base_rows = baseline.map(scheme_rows);
        for row in scheme_rows(fresh) {
            let Some(key) = row.key() else { continue };
            let (Some(cold), Some(resume)) =
                (row.f64_field("cold_wall_s"), row.f64_field("resume_wall_s"))
            else {
                continue;
            };
            if cold < SUB_MS {
                self.skipped += 1;
                continue;
            }
            self.checked += 1;
            if resume > WARM_PARITY_BAND * cold {
                self.fail(format!(
                    "{}/{}: resume_wall {resume:.4}s vs cold_wall {cold:.4}s \
                     (warm-path parity band is {WARM_PARITY_BAND}x)",
                    key.0, key.1,
                ));
            }
            let Some(base_row) = base_rows.as_deref().and_then(|rows| lookup(rows, &key)) else {
                continue;
            };
            let Some(base) = base_row.f64_field("resume_wall_s") else {
                continue;
            };
            // The baseline's side of the sub-millisecond skip (the row
            // already counts as checked, for parity).
            let base_cold = base_row.f64_field("cold_wall_s").unwrap_or(base);
            if base.min(base_cold) < SUB_MS {
                continue;
            }
            if resume > base * self.tolerance {
                self.fail(format!(
                    "{}/{}: resume_wall {resume:.4}s vs baseline {base:.4}s \
                     (>{:.2}x regression)",
                    key.0,
                    key.1,
                    resume / base,
                ));
            }
        }
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
    let mut serve: Option<(String, String)> = None;
    let mut wire: Option<(String, String)> = None;
    let mut tolerance = 2.0f64;
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
            "--serve" => serve = Some(pair()),
            "--wire" => wire = Some(pair()),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance needs a number");
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    assert!(
        tolerance >= 1.0,
        "--tolerance below 1 rejects noise-free runs"
    );
    if engine.is_none() && snapshot.is_none() && serve.is_none() && wire.is_none() {
        panic!("nothing to do: pass --engine, --snapshot, --serve, and/or --wire");
    }

    let bless = std::env::var_os("ADCA_BLESS_PERF").is_some_and(|v| v == "1");
    let mut gate = Gate {
        tolerance,
        failures: Vec::new(),
        checked: 0,
        skipped: 0,
    };

    if let Some((fresh_path, base_path)) = &engine {
        if bless {
            bless_copy(fresh_path, base_path);
        } else {
            println!("engine gate: {fresh_path} vs {base_path}");
            gate.engine(&read(fresh_path), &read(base_path));
        }
    }
    if let Some((fresh_path, base_path)) = &serve {
        if bless {
            bless_copy(fresh_path, base_path);
        } else {
            println!("serve gate: {fresh_path} vs {base_path}");
            gate.serve(&read(fresh_path), &read(base_path));
        }
    }
    if let Some((fresh_path, base_path)) = &wire {
        if bless {
            bless_copy(fresh_path, base_path);
        } else {
            println!("wire gate: {fresh_path} vs {base_path}");
            gate.wire(&read(fresh_path), &read(base_path));
        }
    }
    if let Some((fresh_path, base_path)) = &snapshot {
        let fresh = read(fresh_path);
        if bless {
            // Parity is machine-independent; never bless a file that
            // violates it.
            gate.snapshot(&fresh, None);
            assert!(
                gate.failures.is_empty(),
                "refusing to bless {base_path}: fresh rows break warm-path parity"
            );
            bless_copy(fresh_path, base_path);
        } else {
            println!("snapshot gate: {fresh_path} vs {base_path}");
            gate.snapshot(&fresh, Some(&read(base_path)));
        }
    }

    println!(
        "perf gate: {} rows checked, {} sub-millisecond rows skipped, {} failures \
         (tolerance {tolerance}x)",
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
    fn row_fields_parse() {
        let rows = scheme_rows(SNAP);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1].key(),
            Some(("adaptive".to_string(), "24x24".to_string()))
        );
        assert_eq!(rows[1].f64_field("cold_wall_s"), Some(0.6));
        assert_eq!(rows[0].f64_field("resume_identical"), None);
    }

    #[test]
    fn sub_millisecond_rows_are_skipped() {
        // The fixed/6x6 row breaks parity 11x over but is under 1 ms
        // cold — timer noise, not a regression.
        let mut gate = Gate {
            tolerance: 2.0,
            failures: Vec::new(),
            checked: 0,
            skipped: 0,
        };
        gate.snapshot(SNAP, Some(SNAP));
        assert_eq!(gate.skipped, 1);
        assert_eq!(gate.checked, 1);
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
        let mut gate = Gate {
            tolerance: 2.0,
            failures: Vec::new(),
            checked: 0,
            skipped: 0,
        };
        gate.engine(fresh, base);
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert_eq!((gate.checked, gate.skipped), (1, 1));
        // The snapshot gate's cross-file half skips the same way: the
        // baseline's fixed/6x6 row (0.8 ms cold) is not a resume-time
        // reference for a fresh run that crossed a millisecond.
        let fresh_snap = SNAP
            .replace("\"cold_wall_s\": 0.000800", "\"cold_wall_s\": 0.020000")
            .replace("\"resume_wall_s\": 0.009000", "\"resume_wall_s\": 0.020000");
        gate.snapshot(&fresh_snap, Some(SNAP));
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
    }

    #[test]
    fn parity_violation_names_the_row() {
        let bad = SNAP.replace("\"resume_wall_s\": 0.400000", "\"resume_wall_s\": 2.400000");
        let mut gate = Gate {
            tolerance: 2.0,
            failures: Vec::new(),
            checked: 0,
            skipped: 0,
        };
        gate.snapshot(&bad, Some(SNAP));
        assert_eq!(gate.failures.len(), 2, "parity + baseline regression");
        assert!(gate.failures[0].contains("adaptive/24x24"));
    }

    #[test]
    fn serve_gate_keys_on_backend_and_subscribers() {
        let base = r#"{"backend": "des", "scheme": "adaptive", "grid": "12x12", "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 48, "wall_s": 0.100000, "acq_per_sec": 20000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}
{"backend": "production", "scheme": "adaptive", "grid": "12x12", "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 48, "wall_s": 0.100000, "acq_per_sec": 20000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}"#;
        // The production row regresses 4x; the des row (same scheme and
        // grid — what two-field keying would conflate) is fine, and a
        // smoke-scale row (32 subscribers) has no baseline to match.
        let fresh = r#"{"backend": "des", "scheme": "adaptive", "grid": "12x12", "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 48, "wall_s": 0.100000, "acq_per_sec": 19000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}
{"backend": "production", "scheme": "adaptive", "grid": "12x12", "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 48, "wall_s": 0.400000, "acq_per_sec": 5000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}
{"backend": "production", "scheme": "adaptive", "grid": "6x6", "subscribers": 32, "offered": 64, "granted": 64, "rejected": 0, "wall_s": 0.010000, "acq_per_sec": 6400.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}"#;
        let mut gate = Gate {
            tolerance: 2.0,
            failures: Vec::new(),
            checked: 0,
            skipped: 0,
        };
        gate.serve(fresh, base);
        assert_eq!(gate.checked, 2);
        assert_eq!(gate.failures.len(), 1);
        // Neither file carries a `drivers` field (pre-driver-axis
        // layout): both sides default to 1 and still match.
        assert!(
            gate.failures[0].contains("production/adaptive/12x12/1 drivers/256 subs"),
            "{:?}",
            gate.failures
        );
    }

    #[test]
    fn serve_gate_keys_on_drivers() {
        let base = r#"{"backend": "production", "scheme": "adaptive", "grid": "12x12", "drivers": 1, "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 48, "wall_s": 0.100000, "acq_per_sec": 20000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}
{"backend": "production", "scheme": "adaptive", "grid": "12x12", "drivers": 4, "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 48, "wall_s": 0.100000, "acq_per_sec": 60000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}"#;
        // The drivers=4 row regresses 4x; the drivers=1 row (same
        // backend/scheme/grid/subscribers — what driver-less keying
        // would conflate) is fine.
        let fresh = r#"{"backend": "production", "scheme": "adaptive", "grid": "12x12", "drivers": 1, "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 48, "wall_s": 0.100000, "acq_per_sec": 19000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}
{"backend": "production", "scheme": "adaptive", "grid": "12x12", "drivers": 4, "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 48, "wall_s": 0.400000, "acq_per_sec": 15000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}"#;
        let mut gate = Gate {
            tolerance: 2.0,
            failures: Vec::new(),
            checked: 0,
            skipped: 0,
        };
        gate.serve(fresh, base);
        assert_eq!(gate.checked, 2);
        assert_eq!(gate.failures.len(), 1);
        assert!(
            gate.failures[0].contains("production/adaptive/12x12/4 drivers/256 subs"),
            "{:?}",
            gate.failures
        );
    }

    #[test]
    fn wire_gate_keys_on_drivers_and_subscribers() {
        let base = r#"{"scheme": "adaptive", "grid": "12x12", "drivers": 1, "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 40, "refused": 0, "retries": 0, "timeouts": 0, "dedup_hits": 0, "wall_s": 0.100000, "acq_per_sec": 20000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}
{"scheme": "adaptive", "grid": "12x12", "drivers": 4, "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 40, "refused": 0, "retries": 0, "timeouts": 0, "dedup_hits": 0, "wall_s": 0.100000, "acq_per_sec": 60000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}"#;
        // drivers=4 regresses 4x; drivers=1 is fine; a smoke-scale row
        // (32 subscribers) has no baseline to match.
        let fresh = r#"{"scheme": "adaptive", "grid": "12x12", "drivers": 1, "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 40, "refused": 0, "retries": 0, "timeouts": 0, "dedup_hits": 0, "wall_s": 0.100000, "acq_per_sec": 19000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}
{"scheme": "adaptive", "grid": "12x12", "drivers": 4, "subscribers": 256, "offered": 2048, "granted": 2000, "rejected": 40, "refused": 0, "retries": 2, "timeouts": 0, "dedup_hits": 2, "wall_s": 0.400000, "acq_per_sec": 15000.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}
{"scheme": "adaptive", "grid": "6x6", "drivers": 2, "subscribers": 32, "offered": 64, "granted": 64, "rejected": 0, "refused": 0, "retries": 0, "timeouts": 0, "dedup_hits": 0, "wall_s": 0.010000, "acq_per_sec": 6400.0, "p50_ticks": 30.0, "p99_ticks": 90.0, "p999_ticks": 200.0, "bp_stalls": 0, "bp_forced": 0}"#;
        let mut gate = Gate {
            tolerance: 2.0,
            failures: Vec::new(),
            checked: 0,
            skipped: 0,
        };
        gate.wire(fresh, base);
        assert_eq!(gate.checked, 2);
        assert_eq!(gate.failures.len(), 1);
        assert!(
            gate.failures[0].contains("wire/adaptive/12x12/4 drivers/256 subs"),
            "{:?}",
            gate.failures
        );
    }

    #[test]
    fn engine_gate_flags_throughput_loss() {
        let base = r#"{"scheme": "adaptive", "grid": "24x24", "events": 100, "wall_s": 0.300000, "events_per_sec": 6000000.0, "speedup": 2.0}"#;
        let slow = r#"{"scheme": "adaptive", "grid": "24x24", "events": 100, "wall_s": 0.900000, "events_per_sec": 2000000.0, "speedup": 0.7}"#;
        let mut gate = Gate {
            tolerance: 2.0,
            failures: Vec::new(),
            checked: 0,
            skipped: 0,
        };
        gate.engine(slow, base);
        assert_eq!(gate.failures.len(), 1);
        assert!(gate.failures[0].contains("adaptive/24x24"));
        // Within tolerance: half the baseline exactly passes at 2x.
        let half = base.replace("6000000.0", "4000000.0");
        let mut gate = Gate {
            tolerance: 2.0,
            failures: Vec::new(),
            checked: 0,
            skipped: 0,
        };
        gate.engine(slow, &half);
        assert!(gate.failures.is_empty());
    }
}
