//! Ground-truth audit for the production backend, keyed by channel.
//!
//! Interference is a per-channel property: a grant of channel `r` can
//! only conflict with another use of `r`. So the ground truth is one
//! mutex a channel over the set of cells using it, and a grant's
//! Theorem-1 check and its commit are one lock, one bit test a cell of
//! the interference region and one store — atomic for that channel,
//! which is all the atomicity the check needs, and grants of different
//! channels never meet. A differential test below pins it verdict for
//! verdict against a single-threaded model with one `ChannelSet` a
//! cell.

use adca_hexgrid::{CellId, Channel, Topology};
use std::sync::Mutex;

/// Ground-truth channel usage: for every channel, the cells using it.
pub(crate) struct GroundTruth {
    /// `users[ch]` is a bitset over cell indices.
    users: Vec<Mutex<Box<[u64]>>>,
}

fn bit(cell: CellId) -> (usize, u64) {
    (cell.index() / 64, 1 << (cell.index() % 64))
}

fn uses(users: &[u64], cell: CellId) -> bool {
    let (w, m) = bit(cell);
    users[w] & m != 0
}

impl GroundTruth {
    /// Empty ground truth for `topo`.
    pub(crate) fn new(topo: &Topology) -> Self {
        let words = topo.num_cells().div_ceil(64);
        let users = (0..topo.spectrum().len())
            .map(|_| Mutex::new(vec![0u64; words].into_boxed_slice()))
            .collect();
        GroundTruth { users }
    }

    /// Theorem-1 audit + commit, atomic under the channel's lock:
    /// checks that `ch` is unused at `cell` and everywhere in its
    /// interference region, then records the grant. Returns the
    /// violation message, if any (the grant is recorded regardless — the
    /// audit observes the protocol, it does not veto it).
    pub(crate) fn commit_grant(
        &self,
        topo: &Topology,
        cell: CellId,
        ch: Channel,
    ) -> Option<String> {
        let mut users = self.users[ch.0 as usize]
            .lock()
            .expect("ground truth poisoned");
        let mut v = None;
        if uses(&users, cell) {
            v = Some(format!("{cell} double-assigned {ch}"));
        }
        for &j in topo.region(cell) {
            if uses(&users, j) {
                v = Some(format!(
                    "{cell} granted {ch} already used by {j} (interference)"
                ));
            }
        }
        let (w, m) = bit(cell);
        users[w] |= m;
        v
    }

    /// Removes `ch` from `cell`'s usage (channel returned to the pool).
    pub(crate) fn remove(&self, cell: CellId, ch: Channel) {
        let (w, m) = bit(cell);
        self.users[ch.0 as usize]
            .lock()
            .expect("ground truth poisoned")[w] &= !m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_hexgrid::ChannelSet;
    use std::sync::{Arc, Barrier};

    fn topo() -> Topology {
        Topology::default_paper(6, 6)
    }

    impl GroundTruth {
        /// Every cell's usage set (takes the channels one at a time, so
        /// only consistent when callers are quiet).
        fn snapshot_sets(&self, topo: &Topology) -> Vec<ChannelSet> {
            let mut sets = vec![topo.spectrum().empty_set(); topo.num_cells()];
            for (ch, users) in self.users.iter().enumerate() {
                let users = users.lock().unwrap();
                for c in topo.cells().filter(|&c| uses(&users, c)) {
                    sets[c.index()].insert(Channel(ch as u16));
                }
            }
            sets
        }
    }

    /// The reference the audit is tested against: one `ChannelSet` a
    /// cell, no locks, the check written the obvious way.
    struct Naive(Vec<ChannelSet>);

    impl Naive {
        fn commit_grant(&mut self, topo: &Topology, cell: CellId, ch: Channel) -> Option<String> {
            let mut v = None;
            if self.0[cell.index()].contains(ch) {
                v = Some(format!("{cell} double-assigned {ch}"));
            }
            for &j in topo.region(cell) {
                if self.0[j.index()].contains(ch) {
                    v = Some(format!(
                        "{cell} granted {ch} already used by {j} (interference)"
                    ));
                }
            }
            self.0[cell.index()].insert(ch);
            v
        }
    }

    /// Tiny deterministic LCG so the script is a pure function of the
    /// seed.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// A fixed-seed script of grants (clean, interfering and double)
    /// and removes gets the same verdict at every step, and ends in the
    /// same state, as the naive model.
    #[test]
    fn audit_matches_naive_model_on_fixed_seed() {
        let topo = topo();
        let n = topo.num_cells();
        let ground = GroundTruth::new(&topo);
        let mut naive = Naive(vec![topo.spectrum().empty_set(); n]);
        let mut rng = Lcg(0xADCA_1998);
        let mut held: Vec<(CellId, Channel)> = Vec::new();
        let mut dirty = 0;
        for _ in 0..4_000 {
            if rng.next().is_multiple_of(4) && !held.is_empty() {
                let (cell, ch) = held.swap_remove((rng.next() as usize) % held.len());
                ground.remove(cell, ch);
                naive.0[cell.index()].remove(ch);
            } else {
                let cell = CellId((rng.next() as usize % n) as u32);
                let ch = Channel((rng.next() % 70) as u16);
                let got = ground.commit_grant(&topo, cell, ch);
                let want = naive.commit_grant(&topo, cell, ch);
                assert_eq!(got, want, "verdicts diverged at {cell}/{ch}");
                dirty += got.is_some() as u32;
                // Track for removal only when the commit was fresh at
                // this cell (a double-assign keeps one set bit).
                if !held.contains(&(cell, ch)) {
                    held.push((cell, ch));
                }
            }
        }
        assert!(dirty > 100, "the script must exercise violations: {dirty}");
        assert_eq!(ground.snapshot_sets(&topo), naive.0, "final state diverged");
    }

    /// Concurrent commit/remove traffic on disjoint channels stays
    /// audit-clean under any interleaving.
    #[test]
    fn concurrent_disjoint_grants_commit_cleanly() {
        let topo = Arc::new(topo());
        let g = Arc::new(GroundTruth::new(&topo));
        let n = topo.num_cells();
        let handles: Vec<_> = (0..4u16)
            .map(|t| {
                let g = g.clone();
                let topo = topo.clone();
                std::thread::spawn(move || {
                    // Each thread owns its channel exclusively and vacates
                    // each cell before the next, so no thread can ever
                    // observe interference — every verdict must be clean.
                    for c in 0..n {
                        let cell = CellId(c as u32);
                        assert_eq!(g.commit_grant(&topo, cell, Channel(t)), None);
                        g.remove(cell, Channel(t));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let sets = g.snapshot_sets(&topo);
        assert!(sets.iter().all(|s| s.is_empty()), "all grants were vacated");
    }

    /// Two threads grant the same channel in two interfering cells at
    /// the same moment: whichever commits second must see the first.
    /// Exactly one violation a round — never none (a check that is not
    /// atomic with its commit lets both pass), never two.
    #[test]
    fn racing_interferers_get_exactly_one_verdict() {
        const ROUNDS: usize = 10_000;
        let topo = Arc::new(topo());
        let a = CellId(14);
        let b = topo.region(a)[0];
        let g = Arc::new(GroundTruth::new(&topo));
        let barrier = Arc::new(Barrier::new(2));
        let racers: Vec<_> = [a, b]
            .into_iter()
            .map(|cell| {
                let (g, topo, barrier) = (g.clone(), topo.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let mut verdicts = Vec::with_capacity(ROUNDS);
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        verdicts.push(g.commit_grant(&topo, cell, Channel(7)).is_some());
                        // Both have committed before either vacates.
                        barrier.wait();
                        g.remove(cell, Channel(7));
                    }
                    verdicts
                })
            })
            .collect();
        let verdicts: Vec<Vec<bool>> = racers.into_iter().map(|h| h.join().unwrap()).collect();
        for (round, (&va, &vb)) in verdicts[0].iter().zip(&verdicts[1]).enumerate() {
            assert!(va ^ vb, "round {round}: verdicts {va}/{vb}");
        }
    }
}
