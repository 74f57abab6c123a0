//! Deterministic fault injection for the discrete-event engine.
//!
//! The paper's system model (Section 2) assumes reliable FIFO links and
//! always-up MSSs; a [`FaultPlan`] relaxes both assumptions while keeping
//! every run a pure function of `(topology, workload, seed, config)`:
//!
//! * **Message loss** — each sent message is dropped independently with
//!   probability [`FaultPlan::loss`].
//! * **Message duplication** — each *delivered* message is duplicated
//!   with probability [`FaultPlan::duplicate`]; the copy arrives at the
//!   same tick, immediately after the original (FIFO order preserved).
//! * **Link partitions** — a [`Partition`] schedule cuts individual
//!   links for deterministic windows: while `[at, at + down_for)` is
//!   open, every message between the two endpoints — in *both*
//!   directions — is dropped at send time. Partition drops are counted
//!   under the `partition_dropped` custom counter (and traced as
//!   [`MsgLost`](crate::trace::TraceEvent::MsgLost)); they consume no
//!   fault RNG, so a partition schedule never perturbs the loss or
//!   duplication streams.
//! * **Crash/recovery** — a [`Crash`] schedule takes whole cells down:
//!   a down cell sends nothing, receives nothing (inbound deliveries and
//!   timers are silently dropped), its active calls are killed, and
//!   arrivals/handoffs into it are dropped with
//!   [`DropCause::Crashed`](crate::report::DropCause::Crashed). On
//!   restart the engine calls
//!   [`StateMachine::restart`](crate::StateMachine::restart) so
//!   the node re-initializes its volatile state.
//!
//! All fault decisions are drawn from a dedicated [`SplitMix64`] stream
//! seeded by [`FaultPlan::seed`] — never from the engine's latency RNG —
//! so [`FaultPlan::none()`] (the default) leaves every [`SimReport`]
//! bit-identical to a build without this module.
//!
//! [`SplitMix64`]: crate::rng::SplitMix64
//! [`SimReport`]: crate::report::SimReport

use adca_hexgrid::CellId;

/// One scheduled crash/recovery window for a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Crash {
    /// The cell that goes down.
    pub cell: CellId,
    /// Tick at which the cell crashes.
    pub at: u64,
    /// Ticks until it restarts (`at + down_for` is the restart tick).
    pub down_for: u64,
}

/// One scheduled link-partition window: the `a`↔`b` link drops traffic
/// in **both directions** while `[at, at + down_for)` is open.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// One endpoint of the cut link.
    pub a: CellId,
    /// The other endpoint.
    pub b: CellId,
    /// Tick at which the link goes down.
    pub at: u64,
    /// Ticks until it heals (`at + down_for` is the first tick traffic
    /// flows again).
    pub down_for: u64,
}

impl Partition {
    /// Whether this window cuts the `x`↔`y` link (either orientation)
    /// at tick `now`.
    pub fn cuts(&self, x: CellId, y: CellId, now: u64) -> bool {
        let same_link = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        same_link && now >= self.at && now < self.at + self.down_for
    }
}

/// A deterministic fault schedule for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-message loss probability in `[0, 1)`.
    pub loss: f64,
    /// Per-delivered-message duplication probability in `[0, 1)`.
    pub duplicate: f64,
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
    /// Crash/recovery schedule.
    pub crashes: Vec<Crash>,
    /// Link-partition schedule.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// No faults at all: the engine behaves exactly as if this module did
    /// not exist (bit-identical reports).
    pub fn none() -> Self {
        FaultPlan {
            loss: 0.0,
            duplicate: 0.0,
            seed: 0xFA_0175,
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// A plan dropping each message with probability `loss`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// A plan duplicating each delivered message with probability `p`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Overrides the fault RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds one crash window to the schedule.
    pub fn with_crash(mut self, cell: CellId, at: u64, down_for: u64) -> Self {
        self.crashes.push(Crash { cell, at, down_for });
        self
    }

    /// Adds one link-partition window: the `a`↔`b` link drops traffic
    /// in both directions while `[at, at + down_for)` is open.
    pub fn with_partition(mut self, a: CellId, b: CellId, at: u64, down_for: u64) -> Self {
        self.partitions.push(Partition { a, b, at, down_for });
        self
    }

    /// Whether the `x`↔`y` link is cut (in either direction) at `now`
    /// under this plan's partition schedule.
    pub fn link_cut(&self, x: CellId, y: CellId, now: u64) -> bool {
        self.partitions.iter().any(|p| p.cuts(x, y, now))
    }

    /// Whether any fault can occur under this plan. When `false` the
    /// engine takes none of the fault branches (and pushes no crash
    /// events), which is what makes disabled plans costless.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0
            || self.duplicate > 0.0
            || !self.crashes.is_empty()
            || !self.partitions.is_empty()
    }

    /// Validates probability ranges and the crash schedule; panics with a
    /// diagnostic on nonsense. Called by the engine constructor.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.loss),
            "loss probability must be in [0, 1) (got {})",
            self.loss
        );
        assert!(
            (0.0..1.0).contains(&self.duplicate),
            "duplication probability must be in [0, 1) (got {})",
            self.duplicate
        );
        for c in &self.crashes {
            assert!(c.down_for > 0, "{}: crash window must be non-empty", c.cell);
        }
        for p in &self.partitions {
            assert!(
                p.down_for > 0,
                "{}-{}: partition window must be non-empty",
                p.a,
                p.b
            );
            assert!(
                p.a != p.b,
                "{}: partition endpoints must differ (links are between cells)",
                p.a
            );
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::default().is_active());
        FaultPlan::none().validate();
    }

    #[test]
    fn zero_probabilities_are_inactive() {
        let p = FaultPlan::none().with_loss(0.0).with_duplication(0.0);
        assert!(!p.is_active());
    }

    #[test]
    fn builders_activate() {
        assert!(FaultPlan::none().with_loss(0.05).is_active());
        assert!(FaultPlan::none().with_duplication(0.05).is_active());
        assert!(FaultPlan::none().with_crash(CellId(3), 100, 50).is_active());
        assert!(FaultPlan::none()
            .with_partition(CellId(0), CellId(1), 100, 50)
            .is_active());
    }

    #[test]
    fn partition_cuts_both_directions_within_window() {
        let plan = FaultPlan::none().with_partition(CellId(2), CellId(5), 100, 50);
        plan.validate();
        // Both orientations, half-open window [100, 150).
        assert!(plan.link_cut(CellId(2), CellId(5), 100));
        assert!(plan.link_cut(CellId(5), CellId(2), 149));
        assert!(!plan.link_cut(CellId(2), CellId(5), 99));
        assert!(!plan.link_cut(CellId(5), CellId(2), 150));
        // Other links are unaffected.
        assert!(!plan.link_cut(CellId(2), CellId(3), 120));
    }

    #[test]
    #[should_panic(expected = "partition window")]
    fn empty_partition_window_rejected() {
        FaultPlan::none()
            .with_partition(CellId(0), CellId(1), 10, 0)
            .validate();
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_partition_rejected() {
        FaultPlan::none()
            .with_partition(CellId(4), CellId(4), 10, 5)
            .validate();
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn certain_loss_rejected() {
        FaultPlan::none().with_loss(1.0).validate();
    }

    #[test]
    #[should_panic(expected = "crash window")]
    fn empty_crash_window_rejected() {
        FaultPlan::none().with_crash(CellId(0), 10, 0).validate();
    }
}
