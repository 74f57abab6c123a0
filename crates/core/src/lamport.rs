//! Lamport logical clocks and request timestamps.
//!
//! The paper sequences concurrent channel requests with "the timestamp of
//! the node at the time of generating the request". For the Theorem 1/2
//! arguments to hold under message delay, these must behave like Lamport
//! clocks: a node that *responds* to a request must generate any later
//! request of its own with a larger timestamp. [`LamportClock::observe`]
//! provides exactly that, and the node id breaks ties into a total order.

use adca_hexgrid::CellId;

/// A totally ordered logical timestamp: `(counter, node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// Lamport counter.
    pub counter: u64,
    /// Issuing node (tie-break).
    pub node: u32,
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.counter, self.node)
    }
}

/// A per-node Lamport clock.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LamportClock {
    counter: u64,
    node: u32,
}

impl LamportClock {
    /// A clock for `node`, starting at counter 0.
    pub fn new(node: CellId) -> Self {
        LamportClock {
            counter: 0,
            node: node.0,
        }
    }

    /// Advances the clock and returns a fresh timestamp (send/request
    /// event).
    pub fn tick(&mut self) -> Timestamp {
        self.counter += 1;
        Timestamp {
            counter: self.counter,
            node: self.node,
        }
    }

    /// Merges a remote timestamp (receive event): the local counter
    /// jumps past it.
    pub fn observe(&mut self, ts: Timestamp) {
        self.counter = self.counter.max(ts.counter);
    }

    /// The current counter value (for tests/diagnostics).
    pub fn counter(&self) -> u64 {
        self.counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotonic() {
        let mut c = LamportClock::new(CellId(3));
        let a = c.tick();
        let b = c.tick();
        assert!(a < b);
        assert_eq!(a.node, 3);
    }

    #[test]
    fn observe_jumps_forward() {
        let mut c = LamportClock::new(CellId(0));
        c.observe(Timestamp {
            counter: 41,
            node: 9,
        });
        let t = c.tick();
        assert_eq!(t.counter, 42);
    }

    #[test]
    fn observe_never_goes_backwards() {
        let mut c = LamportClock::new(CellId(0));
        for _ in 0..10 {
            c.tick();
        }
        c.observe(Timestamp {
            counter: 2,
            node: 5,
        });
        assert_eq!(c.counter(), 10);
    }

    #[test]
    fn node_id_breaks_ties() {
        let a = Timestamp {
            counter: 5,
            node: 1,
        };
        let b = Timestamp {
            counter: 5,
            node: 2,
        };
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn happened_before_through_observation() {
        // p requests, l responds to p, then l requests: ts_l > ts_p.
        let mut p = LamportClock::new(CellId(0));
        let mut l = LamportClock::new(CellId(1));
        let ts_p = p.tick();
        l.observe(ts_p); // l processes p's request
        let ts_l = l.tick();
        assert!(ts_p < ts_l);
    }
}
