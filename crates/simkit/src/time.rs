//! Virtual simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in integer *ticks*.
///
/// All results in the reproduction are reported in units of the paper's
/// message latency `T`; the harness sets `T` to a fixed number of ticks
/// and converts on output. Integer ticks keep the event queue total order
/// exact (no floating-point ties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// The raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating subtraction, returning a tick duration.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(10);
        assert_eq!(t + 5, SimTime(15));
        assert_eq!(SimTime(15) - t, 5);
        assert_eq!(SimTime(3).saturating_since(SimTime(10)), 0);
        assert_eq!(SimTime(10).saturating_since(SimTime(3)), 7);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime(1));
        assert!(SimTime(1) < SimTime::MAX);
    }
}
