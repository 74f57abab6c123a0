//! Derived per-run quantities matching the paper's reporting.

use crate::scenario::SchemeKind;
use adca_metrics::fairness;
use adca_simkit::SimReport;
use std::time::Duration;

/// One scheme's results over one scenario, with the paper's metrics
/// derived.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// The raw engine report.
    pub report: SimReport,
    /// Ticks per paper time unit `T`.
    pub t_ticks: u64,
    /// Wall-clock time the run took. Not part of the simulation outcome:
    /// two reproductions of the same run differ here while their
    /// `report`s stay bit-identical.
    pub wall: Duration,
}

impl RunSummary {
    /// Wraps a report.
    pub fn new(scheme: SchemeKind, report: SimReport, t_ticks: u64) -> Self {
        RunSummary {
            scheme,
            report,
            t_ticks,
            wall: Duration::ZERO,
        }
    }

    /// Attaches the measured wall-clock time.
    pub fn with_wall(mut self, wall: Duration) -> Self {
        self.wall = wall;
        self
    }

    /// Engine throughput in events per wall-clock second (0 when no wall
    /// time was recorded).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.report.events_processed as f64 / secs
        }
    }

    /// Whether this run recorded any fault-layer activity (injected
    /// faults or their consequences). Gates the fault-accounting footer
    /// so fault-free experiments keep their result files unchanged.
    pub fn has_fault_activity(&self) -> bool {
        let r = &self.report;
        r.crashes > 0
            || r.restarts > 0
            || r.messages_lost > 0
            || r.messages_duplicated > 0
            || r.messages_crash_dropped > 0
            || r.drops_retry_exhausted > 0
            || r.drops_crashed > 0
            || r.custom.get("partition_dropped") > 0
    }

    /// New-call drop (blocking) rate.
    pub fn drop_rate(&self) -> f64 {
        self.report.drop_rate()
    }

    /// Mean control messages per successful acquisition — the paper's
    /// "message complexity".
    pub fn msgs_per_acq(&self) -> f64 {
        self.report.msgs_per_grant()
    }

    /// Mean channel acquisition time in units of `T`.
    pub fn mean_acq_t(&self) -> f64 {
        self.report.acq_latency.mean() / self.t_ticks as f64
    }

    /// Minimum observed acquisition time in units of `T`. Relies on the
    /// stats carrying real `+∞`/`-∞` identity elements: a zeroed
    /// `min` (the old derived `Default`) silently reported 0 here.
    pub fn min_acq_t(&self) -> f64 {
        self.report.acq_latency.stats().min().unwrap_or(0.0) / self.t_ticks as f64
    }

    /// Maximum observed acquisition time in units of `T`.
    pub fn max_acq_t(&self) -> f64 {
        self.report.acq_latency.stats().max().unwrap_or(0.0) / self.t_ticks as f64
    }

    /// p-quantile of acquisition time in units of `T` (needs `&mut` for
    /// the lazily sorted sample series).
    pub fn acq_quantile_t(&mut self, q: f64) -> f64 {
        self.report.acq_latency.quantile(q).unwrap_or(0.0) / self.t_ticks as f64
    }

    /// ξ1: fraction of acquisitions served without a message round
    /// (local/allocated-set hits). Zero for schemes with no local path.
    pub fn xi1(&self) -> f64 {
        self.xi_of("acq_local")
    }

    /// ξ2: fraction of acquisitions through an update-style grant round.
    pub fn xi2(&self) -> f64 {
        self.xi_of("acq_update")
    }

    /// ξ3: fraction of acquisitions through a search-style round
    /// (including advanced search's claim/transfer paths).
    pub fn xi3(&self) -> f64 {
        self.xi_of("acq_search") + self.xi_of("acq_claim") + self.xi_of("acq_transfer")
    }

    fn xi_of(&self, counter: &str) -> f64 {
        if self.report.granted == 0 {
            0.0
        } else {
            self.report.custom.get(counter) as f64 / self.report.granted as f64
        }
    }

    /// The paper's `m`: mean update attempts per update-mode acquisition
    /// (`None` when the scheme/run had no update acquisitions).
    pub fn mean_update_attempts(&self) -> Option<f64> {
        self.report
            .custom_samples
            .get("update_attempts")
            .filter(|s| !s.is_empty())
            .map(|s| s.mean())
    }

    /// Jain fairness index over per-cell drop counts (1.0 = drops spread
    /// evenly; small = a few cells starve). `None` if nothing dropped.
    pub fn drop_fairness(&self) -> Option<f64> {
        if self.report.dropped_new + self.report.dropped_handoff == 0 {
            return None;
        }
        let drops: Vec<f64> = self
            .report
            .per_cell_drops
            .iter()
            .map(|&d| d as f64)
            .collect();
        fairness::jain_index(&drops)
    }

    /// Jain fairness index over per-cell *service rates* (grants divided
    /// by arrivals, cells with no arrivals skipped).
    pub fn service_fairness(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .report
            .per_cell_arrivals
            .iter()
            .zip(&self.report.per_cell_grants)
            .filter(|(&a, _)| a > 0)
            .map(|(&a, &g)| g as f64 / a as f64)
            .collect();
        fairness::jain_index(&rates)
    }

    /// One formatted report row: scheme, drop%, msgs/acq, mean & max
    /// acquisition time in `T`.
    pub fn row(&self) -> String {
        format!(
            "{:<18} drop={:>6.2}%  msgs/acq={:>7.2}  acq_T(mean)={:>6.2}  acq_T(max)={:>6.1}",
            self.scheme.name(),
            self.drop_rate() * 100.0,
            self.msgs_per_acq(),
            self.mean_acq_t(),
            self.max_acq_t(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn adaptive_xi_fractions_sum_to_one_when_all_granted() {
        let sc = Scenario::uniform(0.8, 60_000).with_grid(6, 6);
        let s = sc.run(SchemeKind::Adaptive);
        s.report.assert_clean();
        if s.report.dropped_new == 0 {
            let total = s.xi1() + s.xi2() + s.xi3();
            assert!((total - 1.0).abs() < 1e-9, "ξ sum = {total}");
        }
    }

    #[test]
    fn fixed_scheme_metrics_shape() {
        let sc = Scenario::uniform(0.5, 40_000).with_grid(6, 6);
        let s = sc.run(SchemeKind::Fixed);
        assert_eq!(s.msgs_per_acq(), 0.0);
        assert_eq!(s.mean_acq_t(), 0.0);
        assert_eq!(s.xi1(), 1.0);
        assert_eq!(s.mean_update_attempts(), None);
    }

    #[test]
    fn row_is_formatted() {
        let sc = Scenario::uniform(0.5, 30_000).with_grid(6, 6);
        let s = sc.run(SchemeKind::BasicSearch);
        let row = s.row();
        assert!(row.contains("basic-search"));
        assert!(row.contains("msgs/acq"));
    }

    #[test]
    fn fault_activity_is_seen_only_in_faulted_runs() {
        let sc = Scenario::uniform(0.5, 30_000).with_grid(6, 6);
        let s = sc.run(SchemeKind::BasicSearch);
        // Fault-free: no activity, nothing to print.
        assert!(!s.has_fault_activity());
        let sf = sc
            .with_hardening(400)
            .with_faults(adca_simkit::FaultPlan::none().with_loss(0.02).with_crash(
                adca_hexgrid::CellId(7),
                10_000,
                5_000,
            ))
            .run(SchemeKind::BasicSearch);
        assert!(sf.has_fault_activity());
        assert_eq!(sf.report.restarts, 1);
    }

    #[test]
    fn fairness_indices_in_range() {
        let sc = Scenario::uniform(1.5, 60_000).with_grid(6, 6);
        let s = sc.run(SchemeKind::Fixed);
        let f = s.service_fairness().unwrap();
        assert!(f > 0.0 && f <= 1.0);
        if let Some(df) = s.drop_fairness() {
            assert!(df > 0.0 && df <= 1.0);
        }
    }
}
