//! Small shared pieces: the benchmark's own RNG, order statistics, the
//! per-round value map, and host facts for result files.

use std::collections::BTreeMap;

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
/// The program under test never sees it, only the inputs made with it.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Dependent loads in one walk.
const WALK_STEPS: u32 = 100_000;
/// What one walk takes on this class of host when its neighbours leave
/// the caches alone (20 ns a load): the speed timings are scaled to.
const WALK_NOMINAL_S: f64 = 2e-3;

/// What five walks back to back take on such a host: the first from
/// memory, the other four mostly out of L2.
const FIVE_WALKS_NOMINAL_S: f64 = 5e-3;

/// The host's memory speed, measured beside the work it slows down.
///
/// The benchmark runs on a few cores of a shared host whose neighbours
/// fill the same caches: the same engine invocation takes up to twice as
/// long from one minute to the next. A pointer chase through 1 MiB (past
/// L1, around L2, like the engine's working set) slows down with it, so
/// a wall time divided by the slowdown of the walks on either side of it
/// repeats two to three times better than the wall time alone. The walk
/// is the benchmark's own code: no change to the program speeds it up.
pub struct HostWalk {
    next: Vec<u32>,
    at: u32,
    /// The last walk's time over the nominal.
    last: f64,
}

impl HostWalk {
    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every slot.
        let mut rng = SplitMix64::new(0x5EED_CAFE);
        let mut next: Vec<u32> = (0..1 << 18).collect();
        for i in (1..next.len()).rev() {
            next.swap(i, rng.below(i as u64) as usize);
        }
        HostWalk {
            next,
            at: 0,
            last: 1.0,
        }
    }

    /// Walks once. The stretch that [`HostWalk::since_mark`] spans
    /// starts here.
    pub fn mark(&mut self) {
        let t = std::time::Instant::now();
        for _ in 0..WALK_STEPS {
            self.at = self.next[self.at as usize];
        }
        std::hint::black_box(self.at);
        self.last = t.elapsed().as_secs_f64() / WALK_NOMINAL_S;
    }

    /// Five walks back to back over their nominal time: the sample the
    /// serving workloads take before and after each loop, and fold by
    /// the run.
    pub fn five(&mut self) -> f64 {
        let t = std::time::Instant::now();
        for _ in 0..5 {
            self.mark();
        }
        t.elapsed().as_secs_f64() / FIVE_WALKS_NOMINAL_S
    }

    /// The host's slowdown over the stretch since the last walk (above
    /// 1 when the host is slow): the geometric mean of that walk's time
    /// over the nominal and of one made now, which starts the next
    /// stretch.
    pub fn since_mark(&mut self) -> f64 {
        let before = self.last;
        self.mark();
        (before * self.last).sqrt()
    }
}

/// Nearest-rank quantile; sorts `v`. `v` must not be empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the middle two for an even count); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Val {
    pub v: f64,
    pub n: u64,
}

/// Metric name → value, for one round or for a whole run.
pub type Vals = BTreeMap<&'static str, Val>;

pub fn put(vals: &mut Vals, name: &'static str, v: f64, n: u64) {
    vals.insert(name, Val { v, n });
}

/// What one round (one set-up plus one fixed unit of work) produced.
pub struct Round {
    pub vals: Vals,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check (never aborts the run).
    pub failed: u64,
}

/// Per-metric median over rounds; `n` sums the rounds' sample counts.
pub fn medians(rounds: &[Round]) -> Vals {
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for r in rounds {
        for (&name, val) in &r.vals {
            let e = by_name.entry(name).or_default();
            e.0.push(val.v);
            e.1 += val.n;
        }
    }
    by_name
        .into_iter()
        .map(|(name, (mut vs, n))| {
            (
                name,
                Val {
                    v: median(&mut vs),
                    n,
                },
            )
        })
        .collect()
}

/// Seconds the hypervisor withheld and seconds in all, summed over the
/// processors, from the first line of `/proc/stat` (ticks of 10 ms).
fn host_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (f.len() == 8).then(|| (f[7] / 100.0, f.iter().sum::<f64>() / 100.0))
}

/// The share of the processors' time the hypervisor gave to other
/// guests over a stretch (`steal` in `/proc/stat`).
///
/// The serving loops keep both processors busy from several threads for
/// seconds; a walk of [`HostWalk`] sees one processor for 2 ms and says
/// little about the time the host took from them. This does: a loop
/// that ran while a sixth of it was withheld took a sixth longer, and
/// its wall time less that sixth was the wall time of its neighbours.
/// A rate divided by, and a latency multiplied by, `1 - share` is what
/// the processors delivered while the guest had them.
pub struct Withheld(Option<(f64, f64)>);

impl Withheld {
    pub fn start() -> Self {
        Withheld(host_seconds())
    }

    /// 0 where the host does not say (then nothing is corrected).
    pub fn share(&self) -> f64 {
        match (self.0, host_seconds()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => ((s1 - s0) / (t1 - t0)).clamp(0.0, 0.9),
            _ => 0.0,
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host, toolchain and commit, as a JSON object body (no braces), for
/// every file the benchmark writes.
pub fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"cpu\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"",
        json_escape(&cpu),
        nproc,
        json_escape(&command_line("rustc", &["--version"])),
        json_escape(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// A JSON number: every digit as measured; non-finite values (which the
/// run already counts as incorrect) print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
