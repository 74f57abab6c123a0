//! Named event counters.

use std::collections::BTreeMap;

/// A map of named `u64` counters keyed by `&'static str`.
///
/// Protocols label their messages and decisions with static strings
/// (`"REQUEST"`, `"acq_local"`, `"mode_0_to_1"`, …); the simulator and the
/// harness aggregate them here. `BTreeMap` keeps report output
/// deterministic and alphabetical.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CounterMap {
    counters: BTreeMap<&'static str, u64>,
}

impl CounterMap {
    /// An empty counter map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// The value of counter `name` (0 if never touched).
    #[inline]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name passes `pred`.
    pub fn sum_matching<F: Fn(&str) -> bool>(&self, pred: F) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, v)| v)
            .sum()
    }

    /// Merges another counter map into this one.
    pub fn merge(&mut self, other: &CounterMap) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
    }

    /// Iterates over `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of distinct counter names.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl std::fmt::Display for CounterMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<28} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_add_get() {
        let mut c = CounterMap::new();
        c.incr("a");
        c.incr("a");
        c.add("b", 5);
        assert_eq!(c.get("a"), 2);
        assert_eq!(c.get("b"), 5);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn merge_sums() {
        let mut a = CounterMap::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = CounterMap::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn sum_matching_prefix() {
        let mut c = CounterMap::new();
        c.add("msg/REQUEST", 10);
        c.add("msg/RESPONSE", 20);
        c.add("acq_local", 7);
        assert_eq!(c.sum_matching(|k| k.starts_with("msg/")), 30);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut c = CounterMap::new();
        c.incr("zeta");
        c.incr("alpha");
        c.incr("mid");
        let names: Vec<_> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
