//! Scenario description and scheme dispatch.

use crate::summary::RunSummary;
use adca_baselines::{
    AdvancedSearchNode, AdvancedUpdateNode, BasicSearchConfig, BasicSearchNode, BasicUpdateConfig,
    BasicUpdateNode, FixedNode,
};
use adca_core::{AdaptiveConfig, AdaptiveNode};
use adca_hexgrid::Topology;
use adca_serve::{AllocService, DesAllocService, ProductionAllocService, ProductionConfig};
use adca_simkit::engine::{run_protocol, run_traced, Engine};
use adca_simkit::trace::TraceSink;
use adca_simkit::{Arrival, AuditMode, FaultPlan, LatencyModel, SimConfig, SimTime};
use adca_traffic::WorkloadSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Expands `$body` once per scheme with `$factory` bound to that
/// scheme's node factory (a `Clone` closure/fn, so one body can build
/// two engines), so the run, trace, serve and checkpoint entry points
/// all dispatch through one definition instead of six hand-copied match
/// arms each.
macro_rules! dispatch_scheme {
    ($sc:expr, $kind:expr, $factory:ident => $body:expr) => {{
        match $kind {
            SchemeKind::Fixed => {
                let $factory = FixedNode::new;
                $body
            }
            SchemeKind::BasicSearch => {
                let bs = $sc.basic_search.clone();
                let $factory = move |c, t: &_| BasicSearchNode::with_config(c, t, bs.clone());
                $body
            }
            SchemeKind::BasicUpdate => {
                let bu = $sc.basic_update.clone();
                let $factory = move |c, t: &_| BasicUpdateNode::new(c, t, bu.clone());
                $body
            }
            SchemeKind::AdvancedUpdate => {
                let $factory = AdvancedUpdateNode::new;
                $body
            }
            SchemeKind::AdvancedSearch => {
                let $factory = AdvancedSearchNode::new;
                $body
            }
            SchemeKind::Adaptive => {
                let ac = $sc.adaptive.clone();
                let $factory = move |c, t: &_| AdaptiveNode::new(c, t, ac.clone());
                $body
            }
        }
    }};
}

/// The six channel-allocation schemes under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Static reuse-pattern allocation.
    Fixed,
    /// Dong & Lai's basic search.
    BasicSearch,
    /// Dong & Lai's basic update.
    BasicUpdate,
    /// Dong & Lai's advanced update (primary-cells-only permission).
    AdvancedUpdate,
    /// Prakash et al.'s advanced search (allocated sets + transfer).
    AdvancedSearch,
    /// The paper's adaptive scheme.
    Adaptive,
}

impl SchemeKind {
    /// All schemes, in the paper's comparison order.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::Fixed,
        SchemeKind::BasicSearch,
        SchemeKind::BasicUpdate,
        SchemeKind::AdvancedUpdate,
        SchemeKind::AdvancedSearch,
        SchemeKind::Adaptive,
    ];

    /// The four schemes of the paper's Table 1–3 comparisons.
    pub const TABLE_SCHEMES: [SchemeKind; 4] = [
        SchemeKind::BasicSearch,
        SchemeKind::BasicUpdate,
        SchemeKind::AdvancedUpdate,
        SchemeKind::Adaptive,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Fixed => "fixed",
            SchemeKind::BasicSearch => "basic-search",
            SchemeKind::BasicUpdate => "basic-update",
            SchemeKind::AdvancedUpdate => "advanced-update",
            SchemeKind::AdvancedSearch => "advanced-search",
            SchemeKind::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchemeKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchemeKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown scheme `{s}`"))
    }
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Grid rows.
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Spectrum size.
    pub channels: u16,
    /// The paper's `T` in simulator ticks (all latencies are reported in
    /// units of it).
    pub t_ticks: u64,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Adaptive-scheme tunables.
    pub adaptive: AdaptiveConfig,
    /// Basic-update retry cap.
    pub basic_update: BasicUpdateConfig,
    /// Basic-search hardening knobs.
    pub basic_search: BasicSearchConfig,
    /// Fault injection plan handed to the engine. The default
    /// [`FaultPlan::none()`] leaves every report bit-identical to a
    /// fault-free engine.
    pub faults: FaultPlan,
    /// Liveness watchdog bound in ticks (`None` disables); defaults to
    /// the engine default.
    pub watchdog_ticks: Option<u64>,
    /// Simulator seed (latency jitter).
    pub sim_seed: u64,
    /// Audit behavior.
    pub audit: AuditMode,
    /// Wrap the grid onto a torus (no boundary effects; requires
    /// pattern-compatible dimensions, e.g. 14×14 for the 7-cell cluster).
    pub wrap: bool,
}

impl Scenario {
    /// The defaults of `DESIGN.md` §8: 12×12 grid, 70 channels, `T` = 100
    /// ticks, θ = (1, 3), `W` = 8T, `α` = 3 — at uniform offered load
    /// `rho` (Erlangs per primary channel) for `horizon` ticks.
    pub fn uniform(rho: f64, horizon: u64) -> Self {
        let t_ticks = 100;
        Scenario {
            rows: 12,
            cols: 12,
            channels: 70,
            t_ticks,
            workload: WorkloadSpec::uniform(rho, 10_000.0, horizon),
            adaptive: AdaptiveConfig {
                t_latency: t_ticks,
                window: 8 * t_ticks,
                ..Default::default()
            },
            basic_update: BasicUpdateConfig::default(),
            basic_search: BasicSearchConfig::default(),
            faults: FaultPlan::none(),
            watchdog_ticks: SimConfig::default().watchdog_ticks,
            sim_seed: 0xADCA,
            audit: AuditMode::Panic,
            wrap: false,
        }
    }

    /// Overrides the workload.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides the grid size.
    pub fn with_grid(mut self, rows: u32, cols: u32) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Overrides the adaptive tunables.
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Wraps the grid onto a torus (see [`adca_hexgrid::TopologyBuilder::wrap`]).
    pub fn with_wrap(mut self) -> Self {
        self.wrap = true;
        self
    }

    /// Overrides the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the liveness watchdog bound (`None` disables it).
    pub fn with_watchdog(mut self, ticks: Option<u64>) -> Self {
        self.watchdog_ticks = ticks;
        self
    }

    /// Arms response-deadline/retry hardening on every scheme that
    /// supports it (the adaptive scheme and both basic baselines), with
    /// deadline `d` ticks. Pick `d` ≥ 2·latency so an undisturbed round
    /// trip never times out.
    pub fn with_hardening(mut self, d: u64) -> Self {
        self.adaptive.retry_ticks = Some(d);
        self.basic_update.retry_ticks = Some(d);
        self.basic_search.retry_ticks = Some(d);
        self
    }

    /// Re-seeds both randomness sources (workload generation and latency
    /// jitter) so replicated sweeps get independent, reproducible runs.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.workload = self.workload.with_seed(seed);
        // Decorrelate the two streams while keeping them a pure function
        // of `seed`.
        self.sim_seed = seed ^ 0xADCA_1998;
        self
    }

    /// Builds the topology for this scenario.
    pub fn topology(&self) -> Arc<Topology> {
        let mut builder = Topology::builder(self.rows, self.cols).channels(self.channels);
        if self.wrap {
            builder = builder.wrap();
        }
        Arc::new(builder.build())
    }

    /// Materializes the workload.
    pub fn arrivals(&self, topo: &Topology) -> Vec<Arrival> {
        self.workload.generate(topo)
    }

    /// The engine configuration this scenario runs under.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            latency: LatencyModel::Fixed(self.t_ticks),
            seed: self.sim_seed,
            audit: self.audit,
            faults: self.faults.clone(),
            watchdog_ticks: self.watchdog_ticks,
            ..Default::default()
        }
    }

    /// Runs one scheme over this scenario.
    pub fn run(&self, kind: SchemeKind) -> RunSummary {
        let topo = self.topology();
        let arrivals = self.arrivals(&topo);
        self.run_with(kind, topo, arrivals)
    }

    /// Runs one scheme over a pre-built topology and workload (lets
    /// sweeps share the workload across schemes).
    pub fn run_with(
        &self,
        kind: SchemeKind,
        topo: Arc<Topology>,
        arrivals: Vec<Arrival>,
    ) -> RunSummary {
        let cfg = self.sim_config();
        let started = Instant::now();
        let report =
            dispatch_scheme!(self, kind, factory => run_protocol(topo, cfg, factory, arrivals));
        RunSummary::new(kind, report, self.t_ticks).with_wall(started.elapsed())
    }

    /// Wraps this scenario as a *deterministic*
    /// [`AllocService`]: requests buffer until
    /// [`AllocService::quiesce`] replays them through the DES engine
    /// with this scenario's topology, latency `T`, seed, and audit
    /// settings. Feeding it this scenario's own
    /// [`arrivals`](Scenario::arrivals) yields a
    /// [`SimReport`](adca_simkit::SimReport) bit-identical to
    /// [`Scenario::run`]'s (pinned by the `serve_identity` integration
    /// test for all six schemes).
    pub fn serve(&self, kind: SchemeKind) -> Box<dyn AllocService + Send> {
        let topo = self.topology();
        let cfg = self.sim_config();
        dispatch_scheme!(self, kind, factory => {
            Box::new(DesAllocService::new(topo, cfg, factory))
        })
    }

    /// Starts this scenario's protocol as a *live* [`AllocService`] on
    /// the bounded-mailbox production executor (`serve_cfg` sets
    /// workers, tick scale, mailbox capacity). Confirms arrive at
    /// wall-clock time; drop the returned service (or let it fall out
    /// of scope) to stop the executor.
    pub fn serve_production(
        &self,
        kind: SchemeKind,
        serve_cfg: ProductionConfig,
    ) -> Box<dyn AllocService + Send> {
        let topo = self.topology();
        dispatch_scheme!(self, kind, factory => {
            Box::new(ProductionAllocService::new(topo, serve_cfg, factory))
        })
    }

    /// Runs one scheme with a [`TraceSink`] attached, returning the
    /// summary together with the sink (ring buffer, JSONL writer, …).
    ///
    /// Sinks are pure observers: the returned [`RunSummary`]'s report is
    /// identical to what [`Scenario::run_with`] produces for the same
    /// inputs (pinned by the `trace_determinism` integration tests).
    pub fn run_with_sink<S: TraceSink>(
        &self,
        kind: SchemeKind,
        topo: Arc<Topology>,
        arrivals: Vec<Arrival>,
        sink: S,
    ) -> (RunSummary, S) {
        let cfg = self.sim_config();
        let started = Instant::now();
        let (report, sink) = dispatch_scheme!(self, kind, factory => {
            run_traced(topo, cfg, factory, arrivals, sink)
        });
        (
            RunSummary::new(kind, report, self.t_ticks).with_wall(started.elapsed()),
            sink,
        )
    }

    /// Runs every scheme in `kinds` on the *same* workload.
    pub fn run_all(&self, kinds: &[SchemeKind]) -> Vec<RunSummary> {
        let topo = self.topology();
        let arrivals = self.arrivals(&topo);
        kinds
            .iter()
            .map(|&k| self.run_with(k, topo.clone(), arrivals.clone()))
            .collect()
    }

    /// Runs `kind` up to tick `warmup` (inclusive) and returns the
    /// engine's [`Engine::state_digests`]: the input of the golden-digest
    /// test.
    pub fn warmup_digests(&self, kind: SchemeKind, warmup: u64) -> Vec<(&'static str, u128)> {
        let topo = self.topology();
        let arrivals = self.arrivals(&topo);
        let cfg = self.sim_config();
        dispatch_scheme!(self, kind, factory => {
            let mut engine = Engine::new(topo, cfg, factory, arrivals);
            engine.run_until(SimTime(warmup));
            engine.state_digests()
        })
    }

    /// Timing probe behind `des_faulted`'s checkpoint: runs to tick
    /// `at` and times hashing its state ([`Engine::hash_state`]); then
    /// builds a second engine from the same inputs, runs it to `at` and
    /// requires its [`Engine::state_digests`] to equal the first's (timed
    /// together as `restore`); then drops the first engine and runs the
    /// second to completion.
    ///
    /// # Panics
    /// Panics if the two engines' state digests differ: a run to `at` is
    /// not a pure function of the scenario.
    pub fn checkpoint_probe(&self, kind: SchemeKind, at: u64) -> CheckpointProbe {
        let topo = self.topology();
        let arrivals = self.arrivals(&topo);
        let cfg = self.sim_config();
        dispatch_scheme!(self, kind, factory => {
            // Some arms bind `Copy` fn items, others `Clone`-only
            // closures; `clone()` is the one spelling that covers both.
            #[allow(clippy::clone_on_copy)]
            let replay_factory = factory.clone();
            let mut engine = Engine::new(topo.clone(), cfg.clone(), factory, arrivals.clone());
            engine.run_until(SimTime(at));
            let t_save = Instant::now();
            let mut digests = Vec::new();
            let mut hashed = 0;
            engine.hash_state(|name, h| {
                digests.push((name, h.finish128()));
                hashed += h.bytes();
            });
            let save = t_save.elapsed();
            let t_restore = Instant::now();
            let mut resumed = Engine::new(topo, cfg, replay_factory, arrivals);
            resumed.run_until(SimTime(at));
            assert!(
                resumed.state_digests() == digests,
                "{kind}: a replay to tick {at} reached another state than the run it replays"
            );
            let restore = t_restore.elapsed();
            // Drop the first engine before timing the resumed run: a
            // second live engine's worth of state doubles the cache
            // footprint and taxes the run being measured.
            drop(engine);
            let t_run = Instant::now();
            let report = resumed.run();
            CheckpointProbe {
                snapshot_len: hashed as usize,
                save,
                restore,
                resumed: RunSummary::new(kind, report, self.t_ticks).with_wall(t_run.elapsed()),
            }
        })
    }
}

/// What [`Scenario::checkpoint_probe`] measured.
#[derive(Debug)]
pub struct CheckpointProbe {
    /// Bytes the state hasher absorbed over every section of
    /// [`Engine::hash_state`] (the benchmark's `snapshot.bytes`).
    pub snapshot_len: usize,
    /// Wall-clock time hashing the first engine's state took.
    pub save: Duration,
    /// Wall-clock time the replay took: building the second engine,
    /// running it to the checkpoint and comparing its state digests.
    pub restore: Duration,
    /// The run finished by the replayed engine (its `wall` covers only
    /// the part after the checkpoint).
    pub resumed: RunSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_roundtrip() {
        for k in SchemeKind::ALL {
            assert_eq!(k.name().parse::<SchemeKind>().unwrap(), k);
        }
        assert!("bogus".parse::<SchemeKind>().is_err());
    }

    #[test]
    fn all_schemes_run_clean_at_moderate_load() {
        let sc = Scenario::uniform(0.5, 60_000).with_grid(6, 6);
        for summary in sc.run_all(&SchemeKind::ALL) {
            summary.report.assert_clean();
            assert!(summary.report.offered_calls > 0);
            assert!(summary.report.granted > 0);
        }
    }

    #[test]
    fn shared_workload_is_identical_across_schemes() {
        let sc = Scenario::uniform(0.4, 40_000).with_grid(6, 6);
        let summaries = sc.run_all(&[SchemeKind::Fixed, SchemeKind::Adaptive]);
        assert_eq!(
            summaries[0].report.offered_calls,
            summaries[1].report.offered_calls
        );
    }

    #[test]
    fn fixed_drops_more_than_dynamic_at_high_load() {
        let sc = Scenario::uniform(1.3, 80_000).with_grid(6, 6);
        let summaries = sc.run_all(&[SchemeKind::Fixed, SchemeKind::BasicSearch]);
        let fixed = &summaries[0];
        let search = &summaries[1];
        assert!(
            fixed.drop_rate() > search.drop_rate(),
            "fixed {:.3} must exceed search {:.3}",
            fixed.drop_rate(),
            search.drop_rate()
        );
    }
}
