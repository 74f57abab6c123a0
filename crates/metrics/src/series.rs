//! Retained-sample series.

use crate::stats::StreamingStats;

/// A series that retains every sample, providing exact order statistics.
///
/// Simulation runs produce at most a few million samples per metric, so
/// exact retention is affordable and avoids quantile-sketch error in the
/// reproduced tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSeries {
    samples: Vec<f64>,
    stats: StreamingStats,
    sorted: bool,
}

/// Must agree with [`SampleSeries::new`]: deriving `Default` would embed
/// a zeroed [`StreamingStats`] (min = max = 0.0 instead of the ±∞
/// identity elements) and start with `sorted: false`, corrupting the
/// min/max of every series created via `..Default::default()`.
impl Default for SampleSeries {
    fn default() -> Self {
        SampleSeries::new()
    }
}

impl SampleSeries {
    /// An empty series.
    pub fn new() -> Self {
        SampleSeries {
            samples: Vec::new(),
            stats: StreamingStats::new(),
            sorted: true,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.stats.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Streaming statistics over the samples.
    pub fn stats(&self) -> &StreamingStats {
        &self.stats
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Exact quantile by nearest-rank (`q ∈ [0, 1]`), `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.stats.max()
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.stats.min()
    }

    /// Borrow the raw samples (unsorted order not guaranteed after
    /// quantile calls).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another series into this one.
    pub fn merge(&mut self, other: &SampleSeries) {
        self.samples.extend_from_slice(&other.samples);
        self.stats.merge(&other.stats);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_quantiles_exact() {
        let mut s = SampleSeries::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.2), Some(1.0));
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series() {
        let mut s = SampleSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.median(), None);
        assert_eq!(s.max(), None);
    }

    /// Regression: a derived `Default` embedded zeroed streaming stats,
    /// so `stats().min()` on a default-constructed series reported 0.0
    /// no matter what was pushed.
    #[test]
    fn default_is_identical_to_new() {
        assert_eq!(SampleSeries::default(), SampleSeries::new());
        let mut s = SampleSeries::default();
        s.push(4.25);
        assert_eq!(s.min(), Some(4.25), "min must be the pushed sample, not 0");
        assert_eq!(s.stats().min(), Some(4.25));
    }

    #[test]
    fn series_merge() {
        let mut a = SampleSeries::new();
        a.push(1.0);
        let mut b = SampleSeries::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn push_after_quantile_stays_consistent() {
        let mut s = SampleSeries::new();
        s.push(10.0);
        s.push(1.0);
        assert_eq!(s.median(), Some(1.0));
        s.push(20.0);
        assert_eq!(s.quantile(1.0), Some(20.0));
        assert_eq!(s.median(), Some(10.0));
    }
}
