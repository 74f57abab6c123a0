//! Machine-readable perf baselines (`BENCH_engine.json`).
//!
//! The workspace has no serde (offline build), so this module hand-rolls
//! the writer and a deliberately narrow reader: it parses exactly the
//! row-per-line layout [`write_json`] emits, which is all the baseline
//! comparison needs. The file itself is plain JSON so external tooling
//! (CI trend charts, `jq`) can consume it.

use std::fmt::Write as _;
use std::io;

/// One `(scheme, grid)` measurement row.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Scheme name (`SchemeKind::name`).
    pub scheme: String,
    /// Grid label, e.g. `"24x24"`.
    pub grid: String,
    /// Cell count of the grid.
    pub cells: u64,
    /// Horizon of this grid's workload, ticks (the largest grids run
    /// shorter ones).
    pub horizon: u64,
    /// Events processed by the run (identical across repeats).
    pub events: u64,
    /// Best wall clock over the repeats, seconds.
    pub wall_s: f64,
    /// Engine throughput at the best wall clock.
    pub events_per_sec: f64,
    /// Throughput of the same cell in the baseline file, if one was given.
    pub baseline_events_per_sec: Option<f64>,
    /// `events_per_sec / baseline_events_per_sec`.
    pub speedup: Option<f64>,
}

/// Two header lines saying where a baseline was measured: the host's CPU
/// model and core count, and `git describe --always --dirty` of the
/// checkout (`unknown` where either cannot be read). The gate compares
/// rows; these lines tell a reader whether two files are comparable.
pub fn provenance_lines() -> String {
    // Both values land between JSON quotes.
    let clean = |s: &str| s.trim().replace(['"', '\\'], "'");
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(clean(line.split_once(':')?.1))
        });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| clean(&String::from_utf8_lossy(&out.stdout)));
    format!(
        "  \"host\": \"{}, {cores} cores\",\n  \"commit\": \"{}\",\n",
        cpu.as_deref().unwrap_or("unknown"),
        commit.as_deref().unwrap_or("unknown"),
    )
}

/// The process's peak resident set (`VmHWM`), MiB; `None` where
/// `/proc/self/status` cannot be read.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Writes `rows` as `BENCH_engine.json`-style JSON to `path`. The header
/// carries the writing process's peak RSS so far — for a whole sweep,
/// that of its largest grid.
pub fn write_json(path: &str, rho: f64, repeat: u32, rows: &[BenchRow]) -> io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"engine_throughput\",\n");
    s.push_str(&provenance_lines());
    if let Some(mib) = peak_rss_mib() {
        let _ = writeln!(s, "  \"peak_rss_mb\": {mib:.1},");
    }
    s.push_str("  \"workload\": \"e9_scalability grid sweep\",\n");
    let _ = writeln!(s, "  \"rho\": {rho},");
    let _ = writeln!(s, "  \"repeat\": {repeat},");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scheme\": \"{}\", \"grid\": \"{}\", \"cells\": {}, \
             \"horizon_ticks\": {}, \"events\": {}, \"wall_s\": {:.6}, \
             \"events_per_sec\": {:.1}",
            r.scheme, r.grid, r.cells, r.horizon, r.events, r.wall_s, r.events_per_sec
        );
        if let (Some(b), Some(x)) = (r.baseline_events_per_sec, r.speedup) {
            let _ = write!(
                s,
                ", \"baseline_events_per_sec\": {b:.1}, \"speedup\": {x:.3}"
            );
        }
        s.push('}');
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// One `(backend, scheme, grid)` measurement row of the serving bench
/// (`BENCH_serve.json`).
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Serving backend: `"des"` (deterministic replay) or
    /// `"production"` (bounded-mailbox executor).
    pub backend: String,
    /// Scheme name (`SchemeKind::name`).
    pub scheme: String,
    /// Grid label, e.g. `"12x12"`.
    pub grid: String,
    /// Concurrent closed-loop driver threads (1 for the des backend's
    /// batch replay).
    pub drivers: u64,
    /// Closed-loop subscribers (production) or buffered requests (des).
    pub subscribers: u64,
    /// Requests submitted.
    pub offered: u64,
    /// Requests granted a channel.
    pub granted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Wall clock of the serving run, seconds.
    pub wall_s: f64,
    /// Sustained grant throughput over the run.
    pub acq_per_sec: f64,
    /// Median acquisition latency, backend ticks.
    pub p50_ticks: f64,
    /// 99th-percentile acquisition latency, backend ticks.
    pub p99_ticks: f64,
    /// 99.9th-percentile acquisition latency, backend ticks.
    pub p999_ticks: f64,
    /// Admissions that blocked on a full mailbox before fitting.
    pub bp_stalls: u64,
    /// Pushes forced past a still-full mailbox after the stall patience
    /// expired (the deadlock-freedom escape valve; should be rare).
    pub bp_forced: u64,
}

/// Writes `rows` as `BENCH_serve.json`-style JSON to `path`.
pub fn write_serve_json(path: &str, rho: f64, repeat: u32, rows: &[ServeRow]) -> io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"e17_serving\",\n");
    s.push_str("  \"workload\": \"closed-loop subscribers vs buffered DES replay\",\n");
    let _ = writeln!(s, "  \"rho\": {rho},");
    let _ = writeln!(s, "  \"repeat\": {repeat},");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"backend\": \"{}\", \"scheme\": \"{}\", \"grid\": \"{}\", \
             \"drivers\": {}, \"subscribers\": {}, \"offered\": {}, \"granted\": {}, \
             \"rejected\": {}, \"wall_s\": {:.6}, \"acq_per_sec\": {:.1}, \
             \"p50_ticks\": {:.1}, \"p99_ticks\": {:.1}, \"p999_ticks\": {:.1}, \
             \"bp_stalls\": {}, \"bp_forced\": {}}}",
            r.backend,
            r.scheme,
            r.grid,
            r.drivers,
            r.subscribers,
            r.offered,
            r.granted,
            r.rejected,
            r.wall_s,
            r.acq_per_sec,
            r.p50_ticks,
            r.p99_ticks,
            r.p999_ticks,
            r.bp_stalls,
            r.bp_forced
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// One `(scheme, grid, drivers)` measurement row of the wire-transport
/// bench (`BENCH_wire.json`): the production backend behind a
/// `WireServer` on loopback TCP, driven by `drivers` concurrent
/// closed-loop `WireClient` connections.
#[derive(Debug, Clone)]
pub struct WireRow {
    /// Scheme name (`SchemeKind::name`).
    pub scheme: String,
    /// Grid label, e.g. `"12x12"`.
    pub grid: String,
    /// Concurrent driver threads, each with its own TCP connection.
    pub drivers: u64,
    /// Closed-loop subscribers across all drivers.
    pub subscribers: u64,
    /// Requests submitted over the wire.
    pub offered: u64,
    /// Requests granted a channel.
    pub granted: u64,
    /// Requests rejected by the protocol.
    pub rejected: u64,
    /// Requests refused at admission.
    pub refused: u64,
    /// Client-side retransmissions across all drivers.
    pub retries: u64,
    /// Requests that exhausted their retry budget.
    pub timeouts: u64,
    /// Duplicate submissions absorbed by the server's idempotency layer.
    pub dedup_hits: u64,
    /// Wall clock of the wire run, seconds.
    pub wall_s: f64,
    /// Sustained grant throughput over the run.
    pub acq_per_sec: f64,
    /// Median acquisition latency, backend ticks.
    pub p50_ticks: f64,
    /// 99th-percentile acquisition latency, backend ticks.
    pub p99_ticks: f64,
    /// 99.9th-percentile acquisition latency, backend ticks.
    pub p999_ticks: f64,
    /// Admissions that blocked on a full mailbox before fitting.
    pub bp_stalls: u64,
    /// Pushes forced past a still-full mailbox after the stall patience
    /// expired.
    pub bp_forced: u64,
}

/// Writes `rows` as `BENCH_wire.json`-style JSON to `path`.
pub fn write_wire_json(path: &str, rho: f64, repeat: u32, rows: &[WireRow]) -> io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"e18_wire\",\n");
    s.push_str("  \"workload\": \"closed-loop drivers over loopback TCP\",\n");
    let _ = writeln!(s, "  \"rho\": {rho},");
    let _ = writeln!(s, "  \"repeat\": {repeat},");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scheme\": \"{}\", \"grid\": \"{}\", \"drivers\": {}, \
             \"subscribers\": {}, \"offered\": {}, \"granted\": {}, \"rejected\": {}, \
             \"refused\": {}, \"retries\": {}, \"timeouts\": {}, \"dedup_hits\": {}, \
             \"wall_s\": {:.6}, \"acq_per_sec\": {:.1}, \"p50_ticks\": {:.1}, \
             \"p99_ticks\": {:.1}, \"p999_ticks\": {:.1}, \"bp_stalls\": {}, \
             \"bp_forced\": {}}}",
            r.scheme,
            r.grid,
            r.drivers,
            r.subscribers,
            r.offered,
            r.granted,
            r.rejected,
            r.refused,
            r.retries,
            r.timeouts,
            r.dedup_hits,
            r.wall_s,
            r.acq_per_sec,
            r.p50_ticks,
            r.p99_ticks,
            r.p999_ticks,
            r.bp_stalls,
            r.bp_forced
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// A previously written `BENCH_engine.json`, reduced to its throughput
/// cells.
#[derive(Debug, Clone, Default)]
pub struct PerfBaseline {
    cells: Vec<(String, String, f64)>,
}

impl PerfBaseline {
    /// Loads the throughput cells from a file written by [`write_json`].
    pub fn load(path: &str) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut cells = Vec::new();
        for line in text.lines() {
            let Some(scheme) = find_str(line, "scheme") else {
                continue;
            };
            let (Some(grid), Some(eps)) =
                (find_str(line, "grid"), find_num(line, "events_per_sec"))
            else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed baseline row: {line}"),
                ));
            };
            cells.push((scheme.to_string(), grid.to_string(), eps));
        }
        Ok(PerfBaseline { cells })
    }

    /// The baseline throughput recorded for `(scheme, grid)`, if any.
    pub fn events_per_sec(&self, scheme: &str, grid: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|(s, g, _)| s == scheme && g == grid)
            .map(|&(_, _, eps)| eps)
    }
}

/// Extracts the string value of `"key": "…"` from a single JSON row line.
fn find_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Extracts the numeric value of `"key": n` from a single JSON row line.
fn find_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scheme: &str, grid: &str, eps: f64) -> BenchRow {
        BenchRow {
            scheme: scheme.into(),
            grid: grid.into(),
            cells: 36,
            horizon: 100_000,
            events: 1000,
            wall_s: 0.5,
            events_per_sec: eps,
            baseline_events_per_sec: None,
            speedup: None,
        }
    }

    #[test]
    fn json_roundtrips_through_the_baseline_reader() {
        let dir = std::env::temp_dir().join("adca_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let rows = vec![row("adaptive", "6x6", 123456.7), row("fixed", "9x9", 9e6)];
        write_json(path, 0.9, 3, &rows).unwrap();
        let base = PerfBaseline::load(path).unwrap();
        assert_eq!(base.events_per_sec("adaptive", "6x6"), Some(123456.7));
        assert_eq!(base.events_per_sec("fixed", "9x9"), Some(9_000_000.0));
        assert_eq!(base.events_per_sec("fixed", "6x6"), None);
    }

    #[test]
    fn rows_with_their_own_horizons_key_on_scheme_and_grid() {
        let dir = std::env::temp_dir().join("adca_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench_horizons.json");
        let path = path.to_str().unwrap();
        let mut big = row("adaptive", "104x104", 1.1e6);
        big.horizon = 6_000;
        let rows = vec![row("adaptive", "24x24", 5.0e6), big];
        write_json(path, 0.9, 3, &rows).unwrap();
        let base = PerfBaseline::load(path).unwrap();
        assert_eq!(base.events_per_sec("adaptive", "24x24"), Some(5_000_000.0));
        assert_eq!(
            base.events_per_sec("adaptive", "104x104"),
            Some(1_100_000.0)
        );
        let text = std::fs::read_to_string(path).unwrap();
        let horizons: Vec<_> = text
            .lines()
            .filter_map(|l| Some((find_str(l, "grid")?, find_num(l, "horizon_ticks")?)))
            .collect();
        assert_eq!(horizons, [("24x24", 100_000.0), ("104x104", 6_000.0)]);
        // The horizon is a property of a row; the header carries none.
        assert_eq!(text.matches("horizon_ticks").count(), 2);
    }

    #[test]
    fn speedup_fields_are_emitted_when_present() {
        let dir = std::env::temp_dir().join("adca_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench_speedup.json");
        let path = path.to_str().unwrap();
        let mut r = row("adaptive", "24x24", 3.0e6);
        r.baseline_events_per_sec = Some(1.5e6);
        r.speedup = Some(2.0);
        write_json(path, 0.9, 1, &[r]).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"speedup\": 2.000"));
        assert!(text.contains("\"baseline_events_per_sec\": 1500000.0"));
    }

    #[test]
    fn serve_rows_parse_back_with_the_row_extractors() {
        let dir = std::env::temp_dir().join("adca_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench_serve.json");
        let path = path.to_str().unwrap();
        let r = ServeRow {
            backend: "production".into(),
            scheme: "adaptive".into(),
            grid: "12x12".into(),
            drivers: 4,
            subscribers: 256,
            offered: 2048,
            granted: 2000,
            rejected: 48,
            wall_s: 1.25,
            acq_per_sec: 1600.0,
            p50_ticks: 30.0,
            p99_ticks: 90.0,
            p999_ticks: 200.0,
            bp_stalls: 3,
            bp_forced: 0,
        };
        write_serve_json(path, 0.9, 1, &[r]).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let row = text
            .lines()
            .find(|l| l.contains("\"backend\""))
            .expect("one row line");
        assert_eq!(find_str(row, "backend"), Some("production"));
        assert_eq!(find_str(row, "scheme"), Some("adaptive"));
        assert_eq!(find_num(row, "drivers"), Some(4.0));
        assert_eq!(find_num(row, "subscribers"), Some(256.0));
        assert_eq!(find_num(row, "acq_per_sec"), Some(1600.0));
        assert_eq!(find_num(row, "p999_ticks"), Some(200.0));
    }

    #[test]
    fn wire_rows_parse_back_with_the_row_extractors() {
        let dir = std::env::temp_dir().join("adca_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench_wire.json");
        let path = path.to_str().unwrap();
        let r = WireRow {
            scheme: "adaptive".into(),
            grid: "12x12".into(),
            drivers: 4,
            subscribers: 256,
            offered: 2048,
            granted: 2000,
            rejected: 40,
            refused: 0,
            retries: 8,
            timeouts: 0,
            dedup_hits: 8,
            wall_s: 0.75,
            acq_per_sec: 2666.7,
            p50_ticks: 35.0,
            p99_ticks: 120.0,
            p999_ticks: 400.0,
            bp_stalls: 2,
            bp_forced: 0,
        };
        write_wire_json(path, 0.9, 2, &[r]).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let row = text
            .lines()
            .find(|l| l.contains("\"retries\""))
            .expect("one row line");
        assert_eq!(find_str(row, "scheme"), Some("adaptive"));
        assert_eq!(find_num(row, "drivers"), Some(4.0));
        assert_eq!(find_num(row, "retries"), Some(8.0));
        assert_eq!(find_num(row, "timeouts"), Some(0.0));
        assert_eq!(find_num(row, "dedup_hits"), Some(8.0));
        assert_eq!(find_num(row, "acq_per_sec"), Some(2666.7));
    }

    #[test]
    fn field_extractors() {
        let line = "    {\"scheme\": \"adaptive\", \"grid\": \"6x6\", \"events_per_sec\": 42.5},";
        assert_eq!(find_str(line, "scheme"), Some("adaptive"));
        assert_eq!(find_str(line, "grid"), Some("6x6"));
        assert_eq!(find_num(line, "events_per_sec"), Some(42.5));
        assert_eq!(find_num(line, "missing"), None);
    }
}
