//! `e13_observability` — protocol-level tracing demo + runtime analytic
//! audit (no direct paper artifact; exercises the `simkit::trace` layer).
//!
//! Runs the adaptive scheme with a bounded ring sink attached and renders
//! what the trace makes visible and the aggregate counters cannot show:
//!
//! 1. a per-cell **mode timeline** (`.` local, `b` borrowing, `U` update
//!    round, `S` search round — dominant mode per time bucket),
//! 2. per-cell mode-occupancy fractions, borrowed-channel inventory, and
//!    interference-region message counts,
//! 3. a **messages-per-acquisition breakdown** by protocol message kind,
//! 4. an **analytic audit**: the measured messages/acquisition and
//!    protocol acquisition latency are checked against Table 1's closed
//!    forms (inputs ξ1–ξ3, `m`, `N_borrow`, `N_search` measured from the
//!    same run) within tolerance bands, plus exact cross-checks of the
//!    trace against the engine's own counters.
//!
//! A failed audit check panics after the verdict line. One flag:
//! `--trace-out F` exports the captured trace as JSONL to file `F`.

use adca_analysis::{Audit, SchemeModel};
use adca_bench::{banner, f2, measured_inputs, TextTable};
use adca_harness::{Scenario, SchemeKind};
use adca_hexgrid::CellId;
use adca_simkit::trace::{CellTimeline, JsonlSink, RingSink, TraceEvent, TraceSink};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = args
        .windows(2)
        .find(|w| w[0] == "--trace-out")
        .map(|w| w[1].clone());

    banner(
        "e13_observability",
        "the trace layer (DESIGN.md trace subsystem; no direct paper artifact)",
        "per-cell mode timelines, borrowed-channel inventory and message breakdown from a\n\
         structured trace of the adaptive scheme, audited against Table 1's closed forms",
    );

    let horizon = 150_000;
    let rho = 0.9;
    let sc = Scenario::uniform(rho, horizon).with_grid(6, 6);
    let topo = sc.topology();
    let arrivals = sc.arrivals(&topo);
    let (summary, sink) = sc.run_with_sink(
        SchemeKind::Adaptive,
        topo.clone(),
        arrivals,
        RingSink::new(1 << 21),
    );
    summary.report.assert_clean();
    let report = &summary.report;
    println!(
        "adaptive scheme, 6x6 grid, rho = {rho}, horizon = {horizon} ticks (seed {:#x})",
        sc.sim_seed
    );
    println!(
        "trace captured {} events ({} dropped by the ring bound)\n",
        sink.len(),
        sink.dropped()
    );

    if let Some(path) = &trace_out {
        let file = std::fs::File::create(path).expect("create --trace-out file");
        let mut jsonl = JsonlSink::new(std::io::BufWriter::new(file));
        for rec in sink.records() {
            jsonl.record(rec.at, rec.ev.clone());
        }
        let written = jsonl.written();
        jsonl.finish().expect("flush --trace-out file");
        println!("wrote {written} JSONL events to {path}\n");
    }

    let num_cells = (sc.rows * sc.cols) as usize;
    let tl = CellTimeline::build(num_cells, report.end_time, sink.records());

    // 1. Mode timeline: one row per cell, dominant mode glyph per bucket.
    let buckets = 64;
    println!(
        "per-cell mode timeline ({buckets} buckets over {} ticks):",
        report.end_time.ticks()
    );
    println!("  glyphs: '.' local  'b' borrowing  'U' update round  'S' search round\n");
    for c in 0..num_cells {
        let cell = CellId(c as u32);
        println!("  cell{c:<3} |{}|", tl.render_row(cell, buckets));
    }

    // 2. Per-cell occupancy / inventory / message-rate table.
    println!("\nper-cell observability metrics:");
    let table = TextTable::new(&[
        ("cell", 6),
        ("f_local", 8),
        ("f_borrow", 9),
        ("f_round", 8),
        ("borrow_acqs", 12),
        ("peak_inv", 9),
        ("msgs_sent", 10),
        ("msgs_recv", 10),
    ]);
    for c in 0..num_cells {
        let cell = CellId(c as u32);
        let f_round = tl.mode_fraction(cell, 2) + tl.mode_fraction(cell, 3);
        table.row(&[
            format!("{c}"),
            f2(tl.mode_fraction(cell, 0)),
            f2(tl.mode_fraction(cell, 1)),
            f2(f_round),
            format!("{}", tl.borrow_acqs(cell)),
            format!("{}", tl.borrowed_peak(cell)),
            format!("{}", tl.msgs_sent(cell)),
            format!("{}", tl.msgs_recv(cell)),
        ]);
    }
    println!(
        "\nmean borrowing-mode occupancy across cells: {}",
        f2(tl.mean_borrowing_fraction())
    );

    // 3. Messages per acquisition, broken down by protocol message kind.
    let granted = report.granted.max(1) as f64;
    println!(
        "\nmessage breakdown (per successful acquisition, {} grants):",
        report.granted
    );
    let table = TextTable::new(&[("kind", 14), ("total", 10), ("per_acq", 9)]);
    let mut kinds: Vec<(&'static str, u64)> = report.msg_kinds.iter().collect();
    kinds.sort_by_key(|&(_, total)| std::cmp::Reverse(total));
    for (kind, total) in kinds {
        table.row(&[
            kind.to_string(),
            format!("{total}"),
            f2(total as f64 / granted),
        ]);
    }
    table.row(&[
        "TOTAL".to_string(),
        format!("{}", report.messages_total),
        f2(summary.msgs_per_acq()),
    ]);

    // 4. Analytic audit: measurement vs Table 1 closed forms + exact
    // trace-vs-engine cross-checks.
    let n = topo.max_region_size() as f64;
    let alpha = sc.adaptive.alpha as f64;
    let p = measured_inputs(&summary, n, alpha, 3.0);
    println!(
        "\nanalytic audit (Table 1, adaptive row) with measured inputs:\n\
         N={:.0} N_borrow={:.2} N_search={:.2} m={:.2} xi1={:.3} xi2={:.3} xi3={:.3}\n",
        p.n, p.n_borrow, p.n_search, p.m, p.xi1, p.xi2, p.xi3
    );
    let mut audit = Audit::new();
    // The closed forms ignore queueing, retry correlation and RELEASE /
    // CHANGE_MODE amortization (see `table1` notes), so the bands are
    // deliberately wide: they catch regressions that change the *shape*
    // of the cost, not measurement noise.
    audit.check(
        "adaptive msgs/acq vs Table 1",
        summary.msgs_per_acq(),
        SchemeModel::Adaptive.messages(&p),
        0.50,
    );
    let meas_t = report
        .custom_samples
        .get("attempt_ticks")
        .filter(|x| !x.is_empty())
        .map(|x| x.mean() / summary.t_ticks as f64)
        .unwrap_or_else(|| summary.mean_acq_t());
    // Table 1's time formula uses the *instantaneous* searcher count and
    // is known-optimistic under sustained load (searches chain; see the
    // note in `adca-analysis::model`), so latency is audited against
    // Table 3's load-independent bounds instead: the band
    // [time_min, time_max] expressed as midpoint ± half-width.
    let bounds = SchemeModel::Adaptive.bounds(n, alpha);
    let t_max = bounds.time_max.expect("adaptive time is bounded");
    audit.check_with_floor(
        "adaptive acq time (T) within Table 3 bounds",
        meas_t,
        (bounds.time_min + t_max) / 2.0,
        1.0,
        (t_max - bounds.time_min) / 2.0,
    );
    // Exact cross-checks: the trace is a pure observer, so its event
    // counts must reconcile with the engine's own counters.
    let traced_sends: u64 = (0..num_cells).map(|c| tl.msgs_sent(CellId(c as u32))).sum();
    audit.check_with_floor(
        "traced sends vs messages_total",
        traced_sends as f64,
        report.messages_total as f64,
        0.0,
        0.0,
    );
    let traced_grants = sink
        .records()
        .filter(|r| matches!(r.ev, TraceEvent::Granted { .. }))
        .count() as u64;
    audit.check_with_floor(
        "traced grants vs report.granted",
        traced_grants as f64,
        report.granted as f64,
        0.0,
        0.0,
    );
    for c in audit.checks() {
        println!("  {c}");
    }
    println!(
        "\naudit verdict: {}",
        if audit.all_pass() { "PASS" } else { "FAIL" }
    );
    audit.assert_pass();
}
