//! A tiny deterministic PRNG for the simulator's own needs.
//!
//! The engine only needs randomness for latency jitter; depending on the
//! full `rand` crate here would force every protocol crate to carry it.
//! SplitMix64 (Steele, Lea & Flood 2014) is tiny, fast, and passes BigCrush
//! when used as a 64-bit stream.

/// SplitMix64 pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The current internal state. Because `new` installs the seed as the
    /// state verbatim, `SplitMix64::new(rng.state())` is an exact clone of
    /// the stream position — this is how the state digests capture RNG
    /// streams.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Uses rejection-free
    /// modulo reduction; the bias is negligible for the simulator's small
    /// ranges.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo + 1;
        lo + self.next_u64() % span
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.range_inclusive(3, 9);
            assert!((3..=9).contains(&x));
        }
        assert_eq!(r.range_inclusive(5, 5), 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SplitMix64::new(123);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[(r.next_f64() * 10.0) as usize] += 1;
        }
        for b in buckets {
            assert!((700..1300).contains(&b), "bucket count {b} out of range");
        }
    }
}
