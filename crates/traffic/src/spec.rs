//! Declarative workload specification and materialization.

use crate::dist::{exponential_ticks, poisson_times};
use crate::mobility::random_walk_hops;
use adca_hexgrid::{CellId, Topology};
use adca_simkit::workload::sort_arrivals;
use adca_simkit::Arrival;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// How the per-cell base arrival rate is specified.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseLoad {
    /// Offered load in Erlangs *per primary channel*: cell `i` gets
    /// `λ_i = rho · |PR_i| / holding_mean`. `rho = 1.0` saturates a
    /// cell's static allotment on average.
    Erlangs(f64),
    /// Explicit arrivals-per-tick for every cell.
    PerCellRate(Vec<f64>),
}

/// A temporary hot spot: the named cells receive `multiplier ×` their
/// base rate during `[from, until)` ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// Affected cells.
    pub cells: Vec<CellId>,
    /// Start tick (inclusive).
    pub from: u64,
    /// End tick (exclusive).
    pub until: u64,
    /// Rate multiplier during the window.
    pub multiplier: f64,
}

/// Random-walk mobility: calls move to a uniformly random neighbor after
/// exponential dwell times.
#[derive(Debug, Clone, PartialEq)]
pub struct Mobility {
    /// Mean dwell time in a cell (ticks) before handing off.
    pub dwell_mean: f64,
}

/// A complete, materializable workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Base offered load.
    pub load: BaseLoad,
    /// Mean call holding time (ticks).
    pub holding_mean: f64,
    /// Arrivals are generated over `[0, horizon)` ticks.
    pub horizon: u64,
    /// Optional hot spots layered over the base load.
    pub hotspots: Vec<Hotspot>,
    /// Optional mobility model.
    pub mobility: Option<Mobility>,
    /// Seed for all randomness in this workload.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A uniform load of `rho` Erlangs per primary channel with the
    /// given holding mean and horizon — the bread-and-butter experiment
    /// configuration.
    pub fn uniform(rho: f64, holding_mean: f64, horizon: u64) -> Self {
        WorkloadSpec {
            load: BaseLoad::Erlangs(rho),
            holding_mean,
            horizon,
            hotspots: Vec::new(),
            mobility: None,
            seed: 7,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a hot spot.
    pub fn with_hotspot(mut self, hotspot: Hotspot) -> Self {
        self.hotspots.push(hotspot);
        self
    }

    /// Enables random-walk mobility.
    pub fn with_mobility(mut self, dwell_mean: f64) -> Self {
        self.mobility = Some(Mobility { dwell_mean });
        self
    }

    /// The base arrival rate (arrivals/tick) for `cell`.
    pub fn base_rate(&self, topo: &Topology, cell: CellId) -> f64 {
        match &self.load {
            BaseLoad::Erlangs(rho) => rho * topo.primary(cell).len() as f64 / self.holding_mean,
            BaseLoad::PerCellRate(rates) => rates[cell.index()],
        }
    }

    /// Materializes the workload into a time-sorted arrival list.
    ///
    /// Generation is piecewise-constant-rate exact: for each cell the
    /// timeline is split at hot-spot boundaries and a Poisson process with
    /// the correct rate is generated on each segment.
    pub fn generate(&self, topo: &Topology) -> Vec<Arrival> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Reserve the expected count up front (hot spots aside): the
        // records are 48 bytes, and growing by doubling copied them all
        // about once more than needed.
        let expected: f64 = topo
            .cells()
            .map(|cell| self.base_rate(topo, cell).max(0.0) * self.horizon as f64)
            .sum();
        let mut arrivals: Vec<Arrival> = Vec::with_capacity((expected * 1.05) as usize + 16);
        let mut times: Vec<u64> = Vec::new();
        let mut cuts: Vec<u64> = Vec::new();
        for cell in topo.cells() {
            let base = self.base_rate(topo, cell);
            // Segment boundaries: 0, horizon, and all hotspot edges
            // affecting this cell.
            cuts.clear();
            cuts.extend([0, self.horizon]);
            for h in self.hotspots.iter().filter(|h| h.cells.contains(&cell)) {
                cuts.push(h.from.min(self.horizon));
                cuts.push(h.until.min(self.horizon));
            }
            cuts.sort_unstable();
            cuts.dedup();
            times.clear();
            for w in cuts.windows(2) {
                let (s, e) = (w[0], w[1]);
                let mult: f64 = self
                    .hotspots
                    .iter()
                    .filter(|h| h.cells.contains(&cell) && h.from <= s && e <= h.until)
                    .map(|h| h.multiplier)
                    .product();
                poisson_times(&mut rng, base * mult, s, e, &mut times);
            }
            for &at in &times {
                let duration = exponential_ticks(&mut rng, self.holding_mean);
                let hops = match &self.mobility {
                    Some(m) => random_walk_hops(&mut rng, topo, cell, duration, m.dwell_mean),
                    None => Vec::new(),
                };
                arrivals.push(Arrival {
                    at,
                    cell,
                    duration,
                    hops,
                });
            }
        }
        sort_arrivals(&mut arrivals);
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::default_paper(6, 6)
    }

    #[test]
    fn uniform_load_volume_matches_expectation() {
        let t = topo();
        // rho=0.5, |PR|=10, holding=1000 → λ=0.005/tick/cell over 1e5
        // ticks → 500 per cell, 18_000 total.
        let spec = WorkloadSpec::uniform(0.5, 1000.0, 100_000);
        let arrivals = spec.generate(&t);
        let n = arrivals.len() as f64;
        assert!((n - 18_000.0).abs() < 800.0, "total arrivals = {n}");
    }

    #[test]
    fn generation_is_deterministic() {
        let t = topo();
        let spec = WorkloadSpec::uniform(0.3, 500.0, 50_000).with_seed(99);
        assert_eq!(spec.generate(&t), spec.generate(&t));
    }

    #[test]
    fn different_seeds_differ() {
        let t = topo();
        let a = WorkloadSpec::uniform(0.3, 500.0, 50_000)
            .with_seed(1)
            .generate(&t);
        let b = WorkloadSpec::uniform(0.3, 500.0, 50_000)
            .with_seed(2)
            .generate(&t);
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_sorted_and_in_horizon() {
        let t = topo();
        let arrivals = WorkloadSpec::uniform(0.8, 300.0, 20_000).generate(&t);
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(arrivals.iter().all(|a| a.at < 20_000));
        assert!(arrivals.iter().all(|a| a.duration >= 1));
    }

    #[test]
    fn hotspot_concentrates_load() {
        let t = topo();
        let hot = CellId(14);
        let spec = WorkloadSpec::uniform(0.2, 1000.0, 100_000).with_hotspot(Hotspot {
            cells: vec![hot],
            from: 0,
            until: 100_000,
            multiplier: 8.0,
        });
        let arrivals = spec.generate(&t);
        let hot_count = arrivals.iter().filter(|a| a.cell == hot).count() as f64;
        let cold_count = arrivals.iter().filter(|a| a.cell == CellId(0)).count() as f64;
        // Hot cell sees ~8x the arrivals of a cold one.
        assert!(
            hot_count > 4.0 * cold_count,
            "hot {hot_count} vs cold {cold_count}"
        );
    }

    #[test]
    fn hotspot_window_respected() {
        let t = topo();
        let hot = CellId(14);
        let spec = WorkloadSpec::uniform(0.1, 1000.0, 100_000).with_hotspot(Hotspot {
            cells: vec![hot],
            from: 40_000,
            until: 60_000,
            multiplier: 20.0,
        });
        let arrivals = spec.generate(&t);
        let in_window = arrivals
            .iter()
            .filter(|a| a.cell == hot && (40_000..60_000).contains(&a.at))
            .count();
        let out_window = arrivals
            .iter()
            .filter(|a| a.cell == hot && !(40_000..60_000).contains(&a.at))
            .count();
        // Window is 1/4 of the horizon but carries 20x rate: expect the
        // in-window count to dominate.
        assert!(in_window > 2 * out_window, "{in_window} vs {out_window}");
    }

    #[test]
    fn per_cell_rates() {
        let t = topo();
        let mut rates = vec![0.0; t.num_cells()];
        rates[5] = 0.01;
        let spec = WorkloadSpec {
            load: BaseLoad::PerCellRate(rates),
            holding_mean: 100.0,
            horizon: 100_000,
            hotspots: vec![],
            mobility: None,
            seed: 3,
        };
        let arrivals = spec.generate(&t);
        assert!(!arrivals.is_empty());
        assert!(arrivals.iter().all(|a| a.cell == CellId(5)));
    }

    #[test]
    fn mobility_generates_hops() {
        let t = topo();
        let spec = WorkloadSpec::uniform(0.3, 2000.0, 50_000).with_mobility(500.0);
        let arrivals = spec.generate(&t);
        let with_hops = arrivals.iter().filter(|a| !a.hops.is_empty()).count();
        assert!(with_hops > 0, "no call got a hop");
        for a in &arrivals {
            // Hops strictly increasing and within duration.
            for w in a.hops.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            assert!(a.hops.iter().all(|&(off, _)| off < a.duration));
        }
    }
}
