//! The repo's benchmark: seven workloads over the sequential DES engine,
//! the in-process serving backend and the TCP wire layer.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and ends with one JSON line (the driver's contract, see
//! `BENCHMARK.json`). Without `--workload`, every workload runs in a
//! fresh child process and the results land in one file. `README.md`
//! has the reasoning behind the workloads and metrics.

mod des;
mod layers;
mod metrics;
mod serving;
mod span;
mod util;

use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use span::Tracer;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use util::{host_json, json_num, medians, peak_rss_mb, put, Round, Vals};

/// Seconds one run measures; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: u64 = 30;
/// The seed the committed numbers were made with, and the one held out:
/// nothing was tuned on it, and it must come out clean as well.
const DEFAULT_SEED: u64 = 1998;
const HOLD_OUT_SEED: u64 = 4242;

/// One set of inputs the benchmark runs.
pub trait Workload {
    /// One set-up plus one fixed unit of work, with its outputs checked.
    fn round(&mut self, tr: &mut Tracer) -> Round;
    /// Traced runs only: twins and probes that put this workload's
    /// numbers in context.
    fn extras(&mut self, _tr: &mut Tracer, _vals: &mut Vals) {}
    /// Called with the per-metric medians of a batch of rounds, for a
    /// workload that can fold its timings finer than by whole rounds.
    fn finish(&mut self, _vals: &mut Vals) {}
    /// Cells in the workload's grid; sizes the layer probes like it.
    fn cells(&self) -> usize;
}

fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "des_small" => Box::new(des::small(seed, smoke)),
        "des_large" => Box::new(des::large(seed, smoke)),
        "des_faulted" => Box::new(des::faulted(seed, smoke)),
        "serve_borrow" => Box::new(serving::borrow(seed, smoke)),
        "wire_local" => Box::new(serving::wire_local(seed, smoke)),
        "wire_rtt" => Box::new(serving::wire_rtt(seed, smoke)),
        "wire_mixed" => Box::new(serving::wire_mixed(seed, smoke)),
        _ => return None,
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check_repeat: Option<usize>,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        check_repeat: None,
        describe: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--check-repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--check-repeat: {e}"))?;
                if n < 2 {
                    return Err("--check-repeat needs at least 2 passes a set".to_string());
                }
                a.check_repeat = Some(n);
            }
            "--describe" => a.describe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Rounds until another one would overrun `budget_s`; always at least one.
fn run_rounds(w: &mut dyn Workload, tr: &mut Tracer, budget_s: f64) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let t = Instant::now();
        let mut round = w.round(tr);
        if rounds.is_empty() {
            // After one round, not at exit: how many rounds fit in the
            // run depends on the host's speed, and freed memory that
            // the allocator keeps grows with them.
            put(&mut round.vals, "peak_rss_mb", peak_rss_mb(), 1);
        }
        // A run holds up to hundreds of rounds: show the first few.
        if rounds.len() < 3 {
            let of = |name| round.vals.get(name).map_or(f64::NAN, |v| v.v);
            println!(
                "round {} ops_per_s {:.0} latency_p50_us {:.1} setup_s {:.6} wall_s {:.3}",
                rounds.len(),
                of("ops_per_s"),
                of("latency_p50_us"),
                of("setup_s"),
                t.elapsed().as_secs_f64()
            );
        }
        rounds.push(round);
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > budget_s {
            return rounds;
        }
    }
}

struct Outcome {
    vals: Vals,
    attempted: u64,
    failed: u64,
    rounds: usize,
}

/// Runs rounds for `budget_s`; each metric is its median over them.
fn measure(w: &mut dyn Workload, tr: &mut Tracer, budget_s: f64) -> Outcome {
    let rounds = run_rounds(w, tr, budget_s);
    let mut vals = medians(&rounds);
    w.finish(&mut vals);
    Outcome {
        vals,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        rounds: rounds.len(),
    }
}

/// One workload in this process. Untraced, the whole budget goes to
/// plain rounds and the end-to-end metrics come from them. Traced, a
/// third goes to plain rounds (the base for the tracing overhead), a
/// third to rounds with spans on, and the rest to twins and probes;
/// no end-to-end number is taken from it.
fn run_one(name: &str, args: &Args) -> Result<(Outcome, bool), String> {
    let mut w = build(name, args.seed, args.smoke).ok_or(format!("unknown workload `{name}`"))?;
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { RUN_SECONDS as f64 });
    // The run ends on its own even if the program under test hangs (a
    // `WireServer::shutdown` did once while this was sized): no process
    // is left behind, and the driver sees a failed run, not a timeout.
    let limit = Duration::from_secs_f64(seconds + 90.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("no result {limit:?} after the start: giving up");
        std::process::exit(3);
    });
    let t_run = Instant::now();
    let mut out = if !args.trace {
        measure(&mut *w, &mut Tracer::new(false), seconds)
    } else {
        let base = measure(&mut *w, &mut Tracer::new(false), seconds / 3.0);
        let mut tr = Tracer::new(true);
        let s = tr.enter("bench.traced_rounds", 0);
        let mut out = measure(&mut *w, &mut tr, seconds / 3.0);
        tr.exit(s);
        out.attempted += base.attempted;
        out.failed += base.failed;
        let (plain, traced) = (base.vals["ops_per_s"].v, out.vals["ops_per_s"].v);
        put(
            &mut out.vals,
            "bench.untraced_ops_per_s",
            plain,
            base.rounds as u64,
        );
        put(
            &mut out.vals,
            "bench.trace_overhead_share",
            plain / traced - 1.0,
            out.rounds as u64,
        );
        let s = tr.enter("bench.extras", 0);
        w.extras(&mut tr, &mut out.vals);
        layers::probes(&mut tr, &mut out.vals, w.cells(), args.smoke);
        tr.exit(s);
        if let Some(work) = tr.by_name.get("bench.work") {
            put(
                &mut out.vals,
                "bench.work_self_ms",
                work.self_ns as f64 / 1e6,
                work.durs.len() as u64,
            );
        }
        let spans: usize = tr.by_name.values().map(|a| a.durs.len()).sum();
        put(&mut out.vals, "bench.span_count", spans as f64, 1);
        let path = out_dir().join(format!("trace-{name}.json"));
        tr.write(&path, name, args.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        out
    };
    put(
        &mut out.vals,
        "bench.rounds",
        out.rounds as f64,
        out.rounds as u64,
    );
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    put(&mut out.vals, "bench.failed_share", share, out.attempted);
    // An end-to-end metric that is missing, zero or not a number means
    // the run measured nothing: report it as incorrect, not as fast.
    let measured = args.trace
        || END_TO_END.iter().all(|m| {
            out.vals
                .get(m.name)
                .is_some_and(|v| v.v.is_finite() && v.v > 0.0)
        });
    let correct = out.failed == 0 && measured;
    let label = if args.smoke {
        " SMOKE (wiring only, never compare)"
    } else {
        ""
    };
    println!(
        "workload {name} seed {} trace {} seconds {seconds} wall_s {:.3}{label}",
        args.seed,
        args.trace as u8,
        t_run.elapsed().as_secs_f64()
    );
    for (defs, kind) in [
        (&END_TO_END[..], "end_to_end"),
        (&PER_LAYER[..], "per_layer"),
    ] {
        for m in defs {
            if let Some(v) = out.vals.get(m.name) {
                println!(
                    "metric {kind} {} {} {} n={}",
                    m.name,
                    json_num(v.v),
                    m.unit,
                    v.n
                );
            }
        }
    }
    println!(
        "result correct={correct} attempted={} failed={} rounds={}",
        out.attempted, out.failed, out.rounds
    );
    Ok((out, correct))
}

/// The driver's last line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, holding every end-to-end metric (untraced) or every
/// per-layer metric (traced; 0 where the workload does not touch the
/// layer).
fn contract_line(out: &Outcome, correct: bool, trace: bool) -> String {
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let body: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = out.vals.get(m.name).map_or(0.0, |v| v.v);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

/// What a child run printed, read back from its `metric`/`result` lines.
struct ChildRun {
    vals: Vec<(String, f64, String, u64)>,
    correct: bool,
    failed: u64,
    wall_s: f64,
    /// The child's `failures:` lines, saying what kind of check broke.
    notes: Vec<String>,
}

fn run_child(name: &str, seed: u64, trace: bool, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let t = Instant::now();
    let out = cmd.output().map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{name} seed {seed}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut run = ChildRun {
        vals: Vec::new(),
        correct: false,
        failed: 0,
        wall_s,
        notes: Vec::new(),
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", _, name, value, unit, n] => run.vals.push((
                name.to_string(),
                value.parse().unwrap_or(f64::NAN),
                unit.to_string(),
                n.trim_start_matches("n=").parse().unwrap_or(0),
            )),
            ["result", correct, _, failed, _] => {
                run.correct = *correct == "correct=true";
                run.failed = failed
                    .trim_start_matches("failed=")
                    .parse()
                    .unwrap_or(u64::MAX);
            }
            ["failures:", ..] => run.notes.push(line.to_string()),
            _ => {}
        }
    }
    Ok(run)
}

/// Every workload, each in a fresh child process: an untraced pass for
/// the end-to-end metrics and, with `--trace`, a traced pass for the
/// per-layer ones. Prints every metric by name and writes the result
/// file.
fn run_all(args: &Args) -> Result<bool, String> {
    let label = if args.smoke { "smoke" } else { "full" };
    let mut all_correct = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let run = run_child(w.name, args.seed, trace, args)?;
            all_correct &= run.correct;
            println!(
                "== {} trace={} correct={} failed={} wall_s={:.2}",
                w.name, trace as u8, run.correct, run.failed, run.wall_s
            );
            for (name, v, unit, n) in &run.vals {
                println!(
                    "{:<14} {name:<40} {:>16} {unit:<6} n={n}",
                    w.name,
                    json_num(*v)
                );
            }
            let metrics: Vec<String> = run
                .vals
                .iter()
                .map(|(name, v, unit, n)| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {n}}}",
                        json_num(*v)
                    )
                })
                .collect();
            rows.push(format!(
                "  {{\"workload\": \"{}\", \"traced\": {trace}, \"correct\": {}, \"failed\": {}, \
                 \"wall_s\": {:.3}, \"metrics\": {{{}}}}}",
                w.name,
                run.correct,
                run.failed,
                run.wall_s,
                metrics.join(", ")
            ));
        }
    }
    let path = out_dir().join(format!("results-{label}-seed{}.json", args.seed));
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let text = format!(
        "{{{}, \"seed\": {}, \"size\": \"{label}\", \"runs\": [\n{}\n]}}\n",
        host_json(),
        args.seed,
        rows.join(",\n")
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), and the median.
fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        if lo >= n {
            v[n - 1]
        } else {
            v[lo - 1] + frac * (v[lo] - v[lo - 1])
        }
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Two sets of `n` untraced runs of every gated workload (or of the one
/// `--workload` names), run `i` of either set with seed `seed + i`. Per (metric, workload): both medians, both
/// inter-quartile ranges as a share of the median, and pass/fail against
/// the declared bound — the check the driver makes before it accepts the
/// benchmark. Prints Markdown (`REPEATABILITY.md`).
fn check_repeat(n: usize, args: &Args) -> Result<bool, String> {
    println!("# Repeatability\n");
    println!(
        "`--check-repeat {n}`: two sets of {n} untraced runs a workload, run *i* of either set \
         with seed {} + *i*, {} s a run.\n",
        args.seed,
        args.seconds.unwrap_or(RUN_SECONDS as f64)
    );
    println!("Host: `{{{}}}`\n", host_json());
    println!(
        "A row passes when both spreads (inter-quartile range over median, `setup_s` exempt) \
         are within the bound and the second median is not worse than the first by more than \
         the bound.\n"
    );
    println!("| workload | metric | bound | median A | IQR A | median B | IQR B | B vs A | |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    let mut repeat_exact = true;
    let mut incorrect: Vec<String> = Vec::new();
    let chosen = |w: &&metrics::WorkloadDef| match &args.workload {
        Some(name) => w.name == name,
        None => w.gated,
    };
    for w in WORKLOADS.iter().filter(chosen) {
        let mut sets: [Vec<ChildRun>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..n {
                let run = run_child(w.name, args.seed + i as u64, false, args)?;
                if !run.correct {
                    incorrect.push(format!(
                        "{} seed {}: failed={} {}",
                        w.name,
                        args.seed + i as u64,
                        run.failed,
                        run.notes.join("; ")
                    ));
                }
                // Beside the table, not in it: each run's timings with
                // and without the scaling to the host's speed.
                let of = |name: &str| run.vals.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1);
                eprintln!(
                    "{} seed {} ops_per_s {} raw {} host_slowdown {} setup_s {}",
                    w.name,
                    args.seed + i as u64,
                    of("ops_per_s"),
                    of("bench.raw_ops_per_s"),
                    of("bench.host_slowdown"),
                    of("setup_s")
                );
                set.push(run);
            }
        }
        let series = |set: &[ChildRun], metric: &str| -> Vec<f64> {
            set.iter()
                .filter_map(|r| r.vals.iter().find(|v| v.0 == metric).map(|v| v.1))
                .collect()
        };
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are gated");
            let (mut a, mut b) = (series(&sets[0], m.name), series(&sets[1], m.name));
            if a.len() != n || b.len() != n {
                return Err(format!("{}: {} missing from a run", w.name, m.name));
            }
            let ((q1a, ma, q3a), (q1b, mb, q3b)) = (quartiles(&mut a), quartiles(&mut b));
            let (iqr_a, iqr_b) = ((q3a - q1a) / ma, (q3b - q1b) / mb);
            let worse = if m.better == "higher" {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let steady = m.name == "setup_s" || (iqr_a <= bound && iqr_b <= bound);
            let pass = steady && worse <= bound;
            all_pass &= pass;
            println!(
                "| {} | {} | {bound} | {ma:.6} | {:.2} % | {mb:.6} | {:.2} % | {:+.2} % | {} |",
                w.name,
                m.name,
                iqr_a * 100.0,
                iqr_b * 100.0,
                worse * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
        // Not gated: what the timings above would read without the
        // benchmark's scaling to the host's speed.
        let (mut a, mut b) = (
            series(&sets[0], "bench.raw_ops_per_s"),
            series(&sets[1], "bench.raw_ops_per_s"),
        );
        if a.len() == n && b.len() == n {
            let ((q1a, ma, q3a), (q1b, mb, q3b)) = (quartiles(&mut a), quartiles(&mut b));
            println!(
                "| {} | bench.raw_ops_per_s | none | {ma:.6} | {:.2} % | {mb:.6} | {:.2} % | {:+.2} % | |",
                w.name,
                (q3a - q1a) / ma * 100.0,
                (q3b - q1b) / mb * 100.0,
                (ma - mb) / ma * 100.0
            );
        }
        // Simulated statistics depend on the seed alone: run i of set A
        // and run i of set B must agree to the last digit.
        if w.name.starts_with("des_") {
            let unsorted = |set: &[ChildRun]| series(set, "granted_share");
            repeat_exact &= unsorted(&sets[0]) == unsorted(&sets[1]);
        }
    }
    println!();
    println!(
        "Simulated statistics (`granted_share` on the DES workloads) identical between the sets, \
         seed by seed: **{}**. Every run correct (no failed operation): **{}**. All rows within \
         bounds: **{}**.",
        if repeat_exact { "yes" } else { "NO" },
        if incorrect.is_empty() { "yes" } else { "NO" },
        if all_pass { "yes" } else { "NO" }
    );
    for line in &incorrect {
        println!("- incorrect: {line}");
    }
    Ok(all_pass && repeat_exact && incorrect.is_empty())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: [--workload NAME] [--seed N (default {DEFAULT_SEED}, hold-out \
                 {HOLD_OUT_SEED})] [--seconds S] [--trace [0|1]] [--smoke] [--check-repeat N] \
                 [--describe]"
            );
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", metrics::benchmark_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let done = if let Some(n) = args.check_repeat {
        check_repeat(n, &args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args).map(|(out, correct)| {
            println!("{}", contract_line(&out, correct, args.trace));
            let _ = std::io::stdout().flush();
            correct
        })
    } else {
        run_all(&args)
    };
    match done {
        // The contract line reports an incorrect run; the exit code is
        // for runs that could not be made at all.
        Ok(_) if args.workload.is_some() && args.check_repeat.is_none() => ExitCode::SUCCESS,
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
