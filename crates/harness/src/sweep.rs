//! Parallel, replicated experiment sweeps.
//!
//! Each simulation run stays single-threaded and bit-identical to its
//! sequential execution; the parallelism here is purely *across*
//! independent `(scenario × scheme × seed)` cells, fanned out over a
//! bounded worker pool. Results always come back in input order, so a
//! parallel sweep prints exactly what the sequential loop it replaced
//! printed.
//!
//! The pool size comes from the `ADCA_THREADS` environment variable
//! (default: available parallelism); `ADCA_THREADS=1` recovers fully
//! sequential execution.

use crate::scenario::{Scenario, SchemeKind};
use crate::summary::RunSummary;
use adca_hexgrid::Topology;
use adca_metrics::StreamingStats;
use adca_simkit::Arrival;
use crossbeam::channel::unbounded;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable controlling the sweep worker-pool size.
const THREADS_ENV: &str = "ADCA_THREADS";

/// The machine's available parallelism (1 if unknown).
fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker count for sweeps: `ADCA_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism (1 if unknown).
/// `ADCA_THREADS=1` recovers fully sequential execution.
///
/// A set but unparseable value warns **once** per process (sweeps call
/// this per experiment cell; repeating the warning would drown the
/// experiment's own output), naming both the rejected value and the
/// fallback actually used.
fn worker_count() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "warning: ignoring invalid {THREADS_ENV}={v:?} (want a positive \
                 integer); falling back to available parallelism ({})",
                available()
            );
        });
    }
    available()
}

/// Runs every closure in `jobs` on a pool of `workers` threads and
/// returns the results **in input order**, regardless of completion
/// order. A panicking job propagates the panic to the caller (after the
/// surviving workers drain).
pub fn run_jobs_on<T, F>(workers: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    // Shared work queue: each slot is taken exactly once via the atomic
    // cursor, so jobs never wait behind a slow neighbor's predecessor.
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let next = AtomicUsize::new(0);
    let (tx, rx) = unbounded::<(usize, T)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let slots = &slots;
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        return;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot lock")
                        .take()
                        .expect("each slot is claimed once");
                    // If `job()` panics the thread dies without sending
                    // (its sender drops during unwind), and the explicit
                    // join below re-raises the original payload.
                    tx.send((i, job())).expect("collector outlives workers");
                })
            })
            .collect();
        drop(tx);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, result) in rx {
            out[i] = Some(result);
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        out.into_iter()
            .map(|r| r.expect("all jobs completed"))
            .collect()
    })
}

/// [`run_jobs_on`] with `ADCA_THREADS` workers, or the machine's
/// available parallelism.
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_jobs_on(worker_count(), jobs)
}

/// A parallel sweep runner over `(scenario × scheme × seed)` cells.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner sized by `ADCA_THREADS`, or the machine's available
    /// parallelism.
    pub fn new() -> Self {
        SweepRunner {
            workers: worker_count(),
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The worker-pool size this runner fans out over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `kinds` over every scenario, in parallel across all
    /// `(scenario × scheme)` cells. Within one scenario every scheme sees
    /// the *same* topology and workload (as [`Scenario::run_all`] does),
    /// and the result grid is indexed `[scenario][scheme]` in input
    /// order.
    pub fn run_matrix(&self, scenarios: &[Scenario], kinds: &[SchemeKind]) -> Vec<Vec<RunSummary>> {
        // Materialize each scenario's workload once, up front, so the
        // parallel cells share it instead of regenerating it per scheme.
        let prepared: Vec<(Arc<Topology>, Arc<Vec<Arrival>>)> = scenarios
            .iter()
            .map(|sc| {
                let topo = sc.topology();
                let arrivals = Arc::new(sc.arrivals(&topo));
                (topo, arrivals)
            })
            .collect();
        let mut jobs = Vec::with_capacity(scenarios.len() * kinds.len());
        for (sc, (topo, arrivals)) in scenarios.iter().zip(&prepared) {
            for &kind in kinds {
                let topo = topo.clone();
                let arrivals = arrivals.clone();
                jobs.push(move || sc.run_with(kind, topo, (*arrivals).clone()));
            }
        }
        let flat = run_jobs_on(self.workers, jobs);
        let mut rows: Vec<Vec<RunSummary>> = Vec::with_capacity(scenarios.len());
        let mut it = flat.into_iter();
        for _ in scenarios {
            rows.push(it.by_ref().take(kinds.len()).collect());
        }
        rows
    }

    /// Runs one scheme over every scenario in parallel, in input order.
    pub fn run_sweep(&self, scenarios: &[Scenario], kind: SchemeKind) -> Vec<RunSummary> {
        let jobs: Vec<_> = scenarios.iter().map(|sc| move || sc.run(kind)).collect();
        run_jobs_on(self.workers, jobs)
    }

    /// Runs `kinds` over `base` re-seeded with each of `seeds` (via
    /// [`Scenario::with_seed`]) and aggregates each scheme's replicas
    /// into a [`Replicated`]. All `(seed × scheme)` cells run in
    /// parallel.
    pub fn run_replicated(
        &self,
        base: &Scenario,
        kinds: &[SchemeKind],
        seeds: &[u64],
    ) -> Vec<Replicated> {
        let variants: Vec<Scenario> = seeds.iter().map(|&s| base.clone().with_seed(s)).collect();
        let grid = self.run_matrix(&variants, kinds);
        kinds
            .iter()
            .enumerate()
            .map(|(k, &kind)| {
                let runs: Vec<RunSummary> = grid.iter().map(|row| row[k].clone()).collect();
                Replicated::from_runs(kind, runs)
            })
            .collect()
    }
}

/// One scheme's results aggregated over several independently seeded
/// replications of the same scenario.
#[derive(Debug, Clone)]
pub struct Replicated {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// The per-seed runs, in seed order.
    pub runs: Vec<RunSummary>,
    /// Across-seed distribution of the per-run drop rate.
    pub drop_rate: StreamingStats,
    /// Across-seed distribution of per-run messages per acquisition.
    pub msgs_per_acq: StreamingStats,
    /// Across-seed distribution of per-run mean acquisition time (`T`).
    pub mean_acq_t: StreamingStats,
    /// All acquisition-latency samples pooled across seeds (ticks),
    /// merged with the parallel Welford update.
    pub pooled_acq_latency: StreamingStats,
}

impl Replicated {
    /// Aggregates per-seed runs (panics on an empty slice).
    pub fn from_runs(scheme: SchemeKind, runs: Vec<RunSummary>) -> Self {
        assert!(!runs.is_empty(), "replication needs at least one run");
        let mut drop_rate = StreamingStats::new();
        let mut msgs_per_acq = StreamingStats::new();
        let mut mean_acq_t = StreamingStats::new();
        let mut pooled = StreamingStats::new();
        for run in &runs {
            drop_rate.push(run.drop_rate());
            msgs_per_acq.push(run.msgs_per_acq());
            mean_acq_t.push(run.mean_acq_t());
            pooled.merge(run.report.acq_latency.stats());
        }
        Replicated {
            scheme,
            runs,
            drop_rate,
            msgs_per_acq,
            mean_acq_t,
            pooled_acq_latency: pooled,
        }
    }

    /// `mean ± ci` rendering of an across-seed statistic.
    pub fn mean_pm_ci(stats: &StreamingStats) -> String {
        format!("{:.3} ± {:.3}", stats.mean(), stats.ci95_half_width())
    }

    /// One formatted report row: scheme, then each headline metric as
    /// `mean ± 95% CI half-width` across seeds.
    pub fn row(&self) -> String {
        format!(
            "{:<18} drop%={:>14}  msgs/acq={:>14}  acq_T(mean)={:>14}",
            self.scheme.name(),
            format!(
                "{:.2} ± {:.2}",
                self.drop_rate.mean() * 100.0,
                self.drop_rate.ci95_half_width() * 100.0
            ),
            Self::mean_pm_ci(&self.msgs_per_acq),
            Self::mean_pm_ci(&self.mean_acq_t),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario::uniform(0.6, 30_000).with_grid(6, 6)
    }

    #[test]
    fn jobs_return_in_input_order() {
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Stagger completion so later jobs finish first.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((64 - i) % 7) as u64 * 100,
                    ));
                    i * 3
                }
            })
            .collect();
        let out = run_jobs_on(8, jobs);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_single_job_edge_cases() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(run_jobs_on(4, none).is_empty());
        assert_eq!(run_jobs_on(4, vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let _ = run_jobs_on(2, jobs);
    }

    /// The acceptance gate: a parallel sweep must reproduce the
    /// sequential loop bit for bit, cell for cell.
    #[test]
    fn parallel_matrix_matches_sequential() {
        let scenarios = vec![small(), small().with_seed(11)];
        let kinds = [
            SchemeKind::Fixed,
            SchemeKind::BasicSearch,
            SchemeKind::Adaptive,
        ];
        let parallel = SweepRunner::new()
            .with_workers(4)
            .run_matrix(&scenarios, &kinds);
        for (sc, row) in scenarios.iter().zip(&parallel) {
            let sequential = sc.run_all(&kinds);
            for (p, s) in row.iter().zip(&sequential) {
                assert_eq!(p.scheme, s.scheme);
                assert_eq!(
                    p.report, s.report,
                    "{} diverged across thread counts",
                    p.scheme
                );
            }
        }
    }

    #[test]
    fn sweep_keeps_scenario_order() {
        let scenarios: Vec<Scenario> = [0.3, 0.9, 1.5]
            .iter()
            .map(|&rho| Scenario::uniform(rho, 20_000).with_grid(6, 6))
            .collect();
        let out = SweepRunner::new()
            .with_workers(3)
            .run_sweep(&scenarios, SchemeKind::Fixed);
        assert_eq!(out.len(), 3);
        // Higher offered load must show monotonically more offered calls.
        assert!(out[0].report.offered_calls < out[1].report.offered_calls);
        assert!(out[1].report.offered_calls < out[2].report.offered_calls);
    }

    #[test]
    fn replication_aggregates_across_seeds() {
        let reps = SweepRunner::new().with_workers(4).run_replicated(
            &small(),
            &[SchemeKind::Adaptive],
            &[1, 2, 3],
        );
        assert_eq!(reps.len(), 1);
        let r = &reps[0];
        assert_eq!(r.runs.len(), 3);
        assert_eq!(r.drop_rate.count(), 3);
        // Pooled latency holds every granted acquisition of every seed.
        let total: u64 = r.runs.iter().map(|s| s.report.granted).sum();
        assert_eq!(r.pooled_acq_latency.count(), total);
        // Distinct seeds must actually produce distinct workloads.
        assert!(
            r.runs[0].report.offered_calls != r.runs[1].report.offered_calls
                || r.runs[0].report.granted != r.runs[1].report.granted
                || r.runs[0].report.end_time != r.runs[1].report.end_time,
            "seeds 1 and 2 produced identical runs"
        );
        assert!(r.row().contains("±"));
    }

    #[test]
    fn wall_clock_and_throughput_recorded() {
        let s = small().run(SchemeKind::Adaptive);
        assert!(s.wall > std::time::Duration::ZERO);
        assert!(s.report.events_processed > 0);
        assert!(s.events_per_sec() > 0.0);
    }

    #[test]
    fn worker_count_respects_env_shape() {
        // Can't set the env var here without racing other tests; just pin
        // the fallback contract.
        assert!(worker_count() >= 1);
        assert!(SweepRunner::new().workers() >= 1);
    }

    #[test]
    fn with_workers_sets_the_pool_size() {
        assert_eq!(SweepRunner::new().with_workers(64).workers(), 64);
        assert_eq!(SweepRunner::new().with_workers(0).workers(), 1);
    }
}
