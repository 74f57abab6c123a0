//! Tunables of the adaptive scheme.

/// A deliberately seeded protocol fault, used to validate the model
/// checker (`adca-checker`): each variant disables one documented safety
/// measure so the checker can demonstrate that it finds the resulting
/// Theorem 1 violation with a minimized counterexample. Never enabled
/// outside checker self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Skip the `waiting_i = 0` gate in `Request_Channel`: a cell with
    /// outstanding owed searchers silently grabs a free primary anyway.
    /// A searcher holding the pre-acquisition `Use` snapshot may then
    /// pick the same channel — a co-channel interference race the gate
    /// exists to close (documented deviation #7).
    SkipOweGate,
}

/// Parameters of the adaptive protocol (Section 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// `θ_l`: predicted free-primary threshold below which a local-mode
    /// cell switches to borrowing mode. Must be ≥ 1 so that a cell with
    /// zero free primaries always switches (the algorithm's progress
    /// argument relies on this).
    pub theta_l: f64,
    /// `θ_h`: predicted free-primary threshold at or above which a
    /// borrowing-mode cell returns to local mode. Must exceed `θ_l`
    /// (hysteresis preventing mode thrash, Section 3.5).
    pub theta_h: f64,
    /// `W`: prediction window in ticks.
    pub window: u64,
    /// `α`: maximum borrowing-update attempts before falling back to the
    /// search round.
    pub alpha: u32,
    /// `T`: the assumed one-way message latency in ticks (used by the
    /// predictor for the `2T` round-trip horizon). Should match the
    /// simulator's latency model.
    pub t_latency: u64,
    /// Response deadline for timeout/retry hardening, in ticks. When
    /// `Some(d)`, every round that waits on responses (`AwaitStatus`,
    /// `Update`, `Search`) arms a deadline of `d` ticks, resends the
    /// round's request to the members still outstanding on expiry (same
    /// timestamp, so the timestamp-deferral safety argument is
    /// unchanged), up to `α` times, then degrades: a timed-out status or
    /// update round falls back to a search round; a timed-out search
    /// round rejects the call. The local-mode `WaitQuiet` gate gets a
    /// generous `d·(α + 2)` deadline after which the node assumes the
    /// ACQUISITION notice was lost and recovers through a forced search.
    /// `None` (default) arms no timers at all — behavior, messages and
    /// reports are bit-identical to the pre-hardening protocol. Pick
    /// `d ≥ 2·t_latency` so an undisturbed round trip never times out
    /// (`4·t_latency` is a sensible default under jitter).
    pub retry_ticks: Option<u64>,
    /// Figure 4's `mode = 2` case rejects any update request younger than
    /// the node's own pending request *regardless of channel*; the prose
    /// only requires rejecting requests for the *same* channel. `true`
    /// (default) follows the pseudocode; `false` follows the prose
    /// (documented deviation #5; `tests/theorems.rs`'s
    /// `mode2_variants_equivalent_service` runs both).
    pub strict_mode2_reject: bool,
    /// Seeded fault for checker validation — see [`Mutation`]. `None`
    /// (the default, and the only value any scheme ships with) leaves
    /// the protocol untouched; comparing against `None` is the sole
    /// runtime cost, so reports stay bit-identical.
    pub mutation: Option<Mutation>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            theta_l: 1.0,
            theta_h: 3.0,
            window: 800,
            alpha: 3,
            t_latency: 100,
            retry_ticks: None,
            strict_mode2_reject: true,
            mutation: None,
        }
    }
}

impl AdaptiveConfig {
    /// Validates the parameter constraints; panics with a diagnostic on
    /// violation. Called by `AdaptiveNode::new`.
    pub fn validate(&self) {
        assert!(
            self.theta_l >= 1.0,
            "theta_l must be >= 1 (got {}): a cell out of primaries must switch to borrowing",
            self.theta_l
        );
        assert!(
            self.theta_l < self.theta_h,
            "hysteresis requires theta_l < theta_h (got {} >= {})",
            self.theta_l,
            self.theta_h
        );
        assert!(self.window > 0, "window W must be positive");
        assert!(self.t_latency > 0, "T must be positive");
        if let Some(d) = self.retry_ticks {
            assert!(d > 0, "retry_ticks must be positive when set");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        AdaptiveConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "theta_l must be >= 1")]
    fn zero_theta_l_rejected() {
        AdaptiveConfig {
            theta_l: 0.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        AdaptiveConfig {
            theta_l: 3.0,
            theta_h: 3.0,
            ..Default::default()
        }
        .validate();
    }
}
