//! Workload description consumed by the engine.
//!
//! Workloads are materialized up front (by `adca-traffic` or by hand in
//! tests) as a list of [`Arrival`]s. Materialization keeps the engine free
//! of probability distributions and makes every experiment trivially
//! replayable.

use adca_hexgrid::CellId;

/// One call offered to the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival tick.
    pub at: u64,
    /// Cell where the call originates.
    pub cell: CellId,
    /// Holding time in ticks (from successful acquisition to hang-up).
    pub duration: u64,
    /// Mobility plan: `(offset, target)` pairs meaning "at `at + offset`
    /// ticks the mobile has moved to cell `target`". Offsets must be
    /// strictly increasing. Empty for stationary calls.
    pub hops: Vec<(u64, CellId)>,
}

impl Arrival {
    /// A stationary call.
    pub fn new(at: u64, cell: CellId, duration: u64) -> Self {
        Arrival {
            at,
            cell,
            duration,
            hops: Vec::new(),
        }
    }

    /// Adds a handoff at `offset` ticks after arrival.
    pub fn with_hop(mut self, offset: u64, target: CellId) -> Self {
        debug_assert!(
            self.hops.last().is_none_or(|&(o, _)| o < offset),
            "hop offsets must be strictly increasing"
        );
        self.hops.push((offset, target));
        self
    }
}

/// Sorts arrivals by time (stable), as the engine requires.
///
/// A byte-wise radix sort of *indices* by arrival tick, then one move of
/// each record into place: a comparison sort shuffles the 48-byte records
/// `log n` times over, and workload generators hand in one sorted run a
/// cell, which it cannot use. Passes stop at the top byte of the latest
/// arrival (two for a 30 000-tick horizon).
pub fn sort_arrivals(arrivals: &mut [Arrival]) {
    let n = u32::try_from(arrivals.len()).expect("call indices are u32");
    let ats: Vec<u64> = arrivals.iter().map(|a| a.at).collect();
    let latest = ats.iter().copied().max().unwrap_or(0);
    let mut order: Vec<u32> = (0..n).collect();
    let mut scattered = vec![0u32; ats.len()];
    let mut shift = 0;
    while shift < u64::BITS && latest >> shift != 0 {
        let digit = |at: u64| (at >> shift) as usize & 0xFF;
        let mut starts = [0usize; 257];
        for &at in &ats {
            starts[digit(at) + 1] += 1;
        }
        for d in 0..256 {
            starts[d + 1] += starts[d];
        }
        for &i in &order {
            let slot = &mut starts[digit(ats[i as usize])];
            scattered[*slot] = i;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut scattered);
        shift += 8;
    }
    let placeholder = || Arrival::new(0, CellId(0), 0);
    let mut sorted: Vec<Arrival> = order
        .iter()
        .map(|&i| std::mem::replace(&mut arrivals[i as usize], placeholder()))
        .collect();
    arrivals.swap_with_slice(&mut sorted);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder() {
        let a = Arrival::new(10, CellId(3), 500)
            .with_hop(100, CellId(4))
            .with_hop(200, CellId(5));
        assert_eq!(a.hops.len(), 2);
        assert_eq!(a.hops[1], (200, CellId(5)));
    }

    #[test]
    fn sorting() {
        let mut v = vec![
            Arrival::new(30, CellId(0), 1),
            Arrival::new(10, CellId(1), 1),
            Arrival::new(20, CellId(2), 1),
        ];
        sort_arrivals(&mut v);
        let times: Vec<u64> = v.iter().map(|a| a.at).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn sorting_matches_a_stable_comparison_sort() {
        // Ties (stability shows in `cell`/`duration`), every key width
        // from no pass at all to all eight, and the empty list.
        let mut rng = crate::rng::SplitMix64::new(0x50F7);
        for (len, max_at) in [
            (0, 0),
            (1, 0),
            (500, 0),
            (2_000, 40),
            (3_000, 30_000),
            (800, u64::MAX - 1),
        ] {
            let mut v: Vec<Arrival> = (0..len)
                .map(|i| {
                    Arrival::new(rng.range_inclusive(0, max_at), CellId(i), i as u64)
                        .with_hop(1 + i as u64 % 3, CellId(i + 1))
                })
                .collect();
            let mut want = v.clone();
            want.sort_by_key(|a| a.at);
            sort_arrivals(&mut v);
            assert_eq!(v, want, "{len} arrivals up to tick {max_at}");
        }
    }
}
