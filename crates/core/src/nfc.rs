//! The `NFC_i` list and the free-primary-channel predictor.
//!
//! Section 3.1: "`NFC_i` is a list of tuples `(t, s)` which indicates that
//! the number of free primary channels at time `t` changed to `s` … It is
//! maintained to retrieve the number of free primary channels at time `t`,
//! `0 ≤ t ≤ W` units in the past, where `W` is the window size used to
//! predict the future value of the number of free channels."
//!
//! `check_mode()` (Figure 6) uses it as a linear extrapolator:
//!
//! ```text
//! s    = |PR_i − (I_i ∪ Use_i)|          current free primaries
//! last = get_nfc(now − W)                 free primaries W ago
//! next = s + 2·T·(s − last)/W             predicted value one round trip ahead
//! ```

use adca_simkit::SimTime;
use std::collections::VecDeque;

/// Sliding-window history of the number of free primary channels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NfcWindow {
    /// Window size `W` in ticks.
    window: u64,
    /// `(t, s)` entries, oldest first. One entry older than the window is
    /// retained so `get(now − W)` can answer with the value in effect at
    /// the window edge.
    entries: VecDeque<(SimTime, u32)>,
}

impl NfcWindow {
    /// Creates a window of `w` ticks.
    ///
    /// # Panics
    /// Panics if `w == 0`.
    pub fn new(w: u64) -> Self {
        assert!(w > 0, "NFC window must be positive");
        NfcWindow {
            window: w,
            entries: VecDeque::new(),
        }
    }

    /// The window size `W`.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// `add_nfc(t, s)`: records that at time `t` the free-primary count
    /// became `s`, and prunes entries that can no longer be queried
    /// (everything strictly older than the *second*-oldest entry at or
    /// before `t − W`).
    pub fn record(&mut self, t: SimTime, s: u32) {
        debug_assert!(
            self.entries.back().is_none_or(|&(lt, _)| lt <= t),
            "NFC entries must be recorded in time order"
        );
        // Coalesce equal-time updates: the last write wins.
        if let Some(back) = self.entries.back_mut() {
            if back.0 == t {
                back.1 = s;
                return;
            }
        }
        self.entries.push_back((t, s));
        let edge = t.ticks().saturating_sub(self.window);
        // Keep exactly one entry at or before the edge.
        while self.entries.len() >= 2 && self.entries[1].0.ticks() <= edge {
            self.entries.pop_front();
        }
    }

    /// `get_nfc(t)`: the free-primary count in effect at time `t` — the
    /// value of the latest entry at or before `t`. If every entry is
    /// newer than `t` (cold start), the oldest known value is returned;
    /// `None` only if nothing was ever recorded.
    pub fn get(&self, t: SimTime) -> Option<u32> {
        let mut result = None;
        for &(et, s) in &self.entries {
            if et <= t {
                result = Some(s);
            } else {
                break;
            }
        }
        result.or_else(|| self.entries.front().map(|&(_, s)| s))
    }

    /// Figure 6's prediction: given the just-recorded current count `s`
    /// at time `now`, extrapolate `2·T` ticks ahead using the change over
    /// the last `W` ticks. Returns `s` unchanged on a cold start.
    pub fn predict(&self, now: SimTime, s: u32, t_latency: u64) -> f64 {
        let edge = SimTime(now.ticks().saturating_sub(self.window));
        let last = self.get(edge).unwrap_or(s);
        s as f64 + 2.0 * t_latency as f64 * (s as f64 - last as f64) / self.window as f64
    }

    /// Number of retained entries (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_returns_value_in_effect() {
        let mut n = NfcWindow::new(100);
        n.record(SimTime(0), 10);
        n.record(SimTime(50), 7);
        n.record(SimTime(80), 5);
        assert_eq!(n.get(SimTime(0)), Some(10));
        assert_eq!(n.get(SimTime(49)), Some(10));
        assert_eq!(n.get(SimTime(50)), Some(7));
        assert_eq!(n.get(SimTime(79)), Some(7));
        assert_eq!(n.get(SimTime(200)), Some(5));
    }

    #[test]
    fn cold_start_returns_oldest() {
        let mut n = NfcWindow::new(100);
        assert_eq!(n.get(SimTime(0)), None);
        n.record(SimTime(500), 3);
        // Query before the first entry: best effort = oldest value.
        assert_eq!(n.get(SimTime(100)), Some(3));
    }

    #[test]
    fn pruning_keeps_edge_answerable() {
        let mut n = NfcWindow::new(100);
        for i in 0..50 {
            n.record(SimTime(i * 10), 50 - i as u32);
        }
        // Window edge is t=390; value in effect there was recorded at 390.
        assert_eq!(n.get(SimTime(390)), Some(50 - 39));
        // Retention is bounded: roughly window/step + slack entries.
        assert!(n.len() <= 13, "retained {} entries", n.len());
    }

    #[test]
    fn equal_time_updates_coalesce() {
        let mut n = NfcWindow::new(100);
        n.record(SimTime(10), 5);
        n.record(SimTime(10), 3);
        assert_eq!(n.len(), 1);
        assert_eq!(n.get(SimTime(10)), Some(3));
    }

    #[test]
    fn predict_steady_state() {
        let mut n = NfcWindow::new(80);
        n.record(SimTime(0), 6);
        n.record(SimTime(100), 6);
        // No change over the window → prediction = current.
        assert_eq!(n.predict(SimTime(100), 6, 10), 6.0);
    }

    #[test]
    fn predict_declining() {
        let mut n = NfcWindow::new(80);
        n.record(SimTime(0), 10);
        n.record(SimTime(80), 2);
        // Lost 8 channels over W=80; with T=10 the round trip is 20 ticks
        // → predicted 2 + 20·(2−10)/80 = 0.
        let p = n.predict(SimTime(80), 2, 10);
        assert!((p - 0.0).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn predict_recovering() {
        let mut n = NfcWindow::new(100);
        n.record(SimTime(0), 0);
        n.record(SimTime(100), 5);
        let p = n.predict(SimTime(100), 5, 25);
        // 5 + 50·(5−0)/100 = 7.5
        assert!((p - 7.5).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn predict_cold_start_is_flat() {
        let n = NfcWindow::new(100);
        assert_eq!(n.predict(SimTime(0), 4, 10), 4.0);
    }

    #[test]
    #[should_panic]
    fn zero_window_panics() {
        let _ = NfcWindow::new(0);
    }
}
