//! Machine-readable perf baselines (`BENCH_engine.json`).
//!
//! The workspace has no serde (offline build), so this module hand-rolls
//! the writer and a deliberately narrow reader ([`rows`]): it parses
//! exactly the row-per-line layout [`write_json`] emits, which is all
//! the baseline comparison needs. The file itself is plain JSON so external tooling
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
        for row in rows(&text) {
            let (Some((scheme, grid)), Some(eps)) = (row.key(), row.num("events_per_sec")) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed baseline row: {}", row.0),
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

/// One `{"k": v, ...}` row line of a bench file: the one reader of the
/// one-object-a-line layout the writers here and in `e14_checkpoint`
/// emit, shared by [`PerfBaseline::load`] and `perf_gate`.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a>(&'a str);

impl<'a> Row<'a> {
    /// The string value of `"key": "…"`.
    pub fn str(&self, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\": \"");
        let start = self.0.find(&pat)? + pat.len();
        let rest = &self.0[start..];
        Some(&rest[..rest.find('"')?])
    }

    /// The numeric value of `"key": n`; `None` for a value that is not a
    /// number.
    pub fn num(&self, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let start = self.0.find(&pat)? + pat.len();
        let rest = &self.0[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }

    /// `(scheme, grid)` — the row identity every bench file shares.
    pub fn key(&self) -> Option<(&'a str, &'a str)> {
        Some((self.str("scheme")?, self.str("grid")?))
    }
}

/// The `"rows"` entries of a bench file: its object lines that carry a
/// `scheme` (which skips `warm_start` and other arrays).
pub fn rows(text: &str) -> Vec<Row<'_>> {
    text.lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{') && l.contains("\"scheme\""))
        .map(Row)
        .collect()
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
        let horizons: Vec<_> = super::rows(&text)
            .iter()
            .filter_map(|r| Some((r.str("grid")?, r.num("horizon_ticks")?)))
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
    fn row_reader() {
        let text = r#"{
  "rows": [
    {"scheme": "adaptive", "grid": "6x6", "events_per_sec": 42.5, "wall_s": 1.5e-3},
    {"scheme": "fixed", "grid": "24x24", "cold_wall_s": 0.600000, "resume_identical": true}
  ],
  "warm_start": [
    {"seeds": 4, "grid": "6x6"}
  ]
}"#;
        let rows = super::rows(text);
        assert_eq!(rows.len(), 2, "only the lines with a scheme");
        assert_eq!(rows[0].key(), Some(("adaptive", "6x6")));
        assert_eq!(rows[0].num("events_per_sec"), Some(42.5));
        assert_eq!(rows[0].num("wall_s"), Some(0.0015));
        assert_eq!(rows[0].num("missing"), None);
        assert_eq!(rows[1].key(), Some(("fixed", "24x24")));
        assert_eq!(rows[1].num("cold_wall_s"), Some(0.6));
        assert_eq!(rows[1].num("resume_identical"), None);
    }
}
