//! Striped ground-truth audit for the production backend.
//!
//! PR 9 audited every grant under **one** global mutex: correct, but the
//! lock serialized grants across the whole grid, so two calls granted in
//! cells 50 reuse distances apart still queued behind each other. This
//! module shards the ground truth into `stripes` lock stripes (stripe of
//! cell `c` = `c.index() % stripes`). A grant locks only the stripes
//! covering its own cell plus its interference region — non-interfering
//! grants touch disjoint stripe sets and commit concurrently.
//!
//! Deadlock freedom: every operation acquires its stripes in ascending
//! stripe order (a total order), so no cyclic wait can form. Atomicity:
//! the Theorem-1 check and the commit happen while *all* covering
//! stripes are held, exactly as strong as the old global lock for that
//! region (with `stripes = 1` this *is* the old global lock). A
//! fixed-seed equivalence test below pins the striped path verdict-for-
//! verdict against the global-lock path.

use adca_hexgrid::{CellId, Channel, ChannelSet, Topology};
use std::sync::{Mutex, MutexGuard};

/// Sharded ground-truth channel usage with per-stripe locks.
pub(crate) struct GroundTruth {
    stripes: usize,
    /// `data[s]` holds the [`ChannelSet`]s of cells `{c : c % stripes == s}`,
    /// indexed by `c / stripes`.
    data: Vec<Mutex<Vec<ChannelSet>>>,
}

impl GroundTruth {
    /// Empty ground truth for `topo`, sharded into `stripes` lock
    /// stripes (clamped to `[1, num_cells]`).
    pub(crate) fn new(topo: &Topology, stripes: usize) -> Self {
        let n = topo.num_cells();
        let stripes = stripes.clamp(1, n.max(1));
        let data = (0..stripes)
            .map(|s| {
                let cells_in_stripe = (n + stripes - 1 - s) / stripes;
                Mutex::new(vec![topo.spectrum().empty_set(); cells_in_stripe])
            })
            .collect();
        GroundTruth { stripes, data }
    }

    /// The ascending, deduplicated stripe list covering `cells`.
    fn covering(&self, cells: impl Iterator<Item = usize>) -> Vec<usize> {
        let mut s: Vec<usize> = cells.map(|c| c % self.stripes).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Locks `stripe_ids` (must be ascending — that order is the
    /// deadlock-freedom argument) and returns the guards, parallel to
    /// `stripe_ids`.
    fn lock<'a>(&'a self, stripe_ids: &[usize]) -> Vec<MutexGuard<'a, Vec<ChannelSet>>> {
        stripe_ids
            .iter()
            .map(|&s| self.data[s].lock().expect("ground stripe poisoned"))
            .collect()
    }

    /// The set for `cell` inside already-held guards.
    fn set<'g>(
        &self,
        stripe_ids: &[usize],
        guards: &'g [MutexGuard<'_, Vec<ChannelSet>>],
        cell: usize,
    ) -> &'g ChannelSet {
        let s = cell % self.stripes;
        let k = stripe_ids.binary_search(&s).expect("stripe was locked");
        &guards[k][cell / self.stripes]
    }

    /// Theorem-1 audit + commit, atomic under the covering stripe locks:
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
        let region = topo.region(cell);
        let ids =
            self.covering(std::iter::once(cell.index()).chain(region.iter().map(|j| j.index())));
        let mut guards = self.lock(&ids);
        let mut v = None;
        if self.set(&ids, &guards, cell.index()).contains(ch) {
            v = Some(format!("{cell} double-assigned {ch}"));
        }
        for &j in region {
            if self.set(&ids, &guards, j.index()).contains(ch) {
                v = Some(format!(
                    "{cell} granted {ch} already used by {j} (interference)"
                ));
            }
        }
        let s = cell.index() % self.stripes;
        let k = ids.binary_search(&s).expect("own stripe was locked");
        guards[k][cell.index() / self.stripes].insert(ch);
        v
    }

    /// Removes `ch` from `cell`'s usage (channel returned to the pool).
    pub(crate) fn remove(&self, cell: CellId, ch: Channel) {
        let mut g = self.data[cell.index() % self.stripes]
            .lock()
            .expect("ground stripe poisoned");
        g[cell.index() / self.stripes].remove(ch);
    }

    /// Snapshot of every cell's usage set (test hook; takes the stripes
    /// one at a time, so only consistent when callers are quiet).
    #[cfg(test)]
    pub(crate) fn snapshot_sets(&self, num_cells: usize) -> Vec<ChannelSet> {
        (0..num_cells)
            .map(|c| {
                self.data[c % self.stripes]
                    .lock()
                    .expect("ground stripe poisoned")[c / self.stripes]
                    .clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn topo() -> Topology {
        Topology::default_paper(6, 6)
    }

    /// Tiny deterministic LCG so the equivalence sequence is a pure
    /// function of the seed.
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

    /// Satellite-1 pin: a fixed-seed sequence of grant/remove operations
    /// produces the *same verdict sequence and final state* under the
    /// striped audit as under the global-lock path (`stripes = 1`, which
    /// is exactly PR 9's one-mutex audit).
    #[test]
    fn striped_audit_matches_global_lock_path_on_fixed_seed() {
        let topo = topo();
        let n = topo.num_cells();
        for stripes in [2usize, 5, 7] {
            let striped = GroundTruth::new(&topo, stripes);
            let global = GroundTruth::new(&topo, 1);
            let mut rng = Lcg(0xADCA_1998);
            let mut held: Vec<(CellId, Channel)> = Vec::new();
            for _ in 0..4_000 {
                if rng.next().is_multiple_of(4) && !held.is_empty() {
                    let (cell, ch) = held.swap_remove((rng.next() as usize) % held.len());
                    striped.remove(cell, ch);
                    global.remove(cell, ch);
                } else {
                    let cell = CellId((rng.next() as usize % n) as u32);
                    let ch = Channel((rng.next() % 70) as u16);
                    let vs = striped.commit_grant(&topo, cell, ch);
                    let vg = global.commit_grant(&topo, cell, ch);
                    assert_eq!(vs, vg, "verdicts diverged at {cell}/{ch}");
                    // Track for removal only when the commit was fresh at
                    // this cell (a double-assign keeps one set bit).
                    if !held.contains(&(cell, ch)) {
                        held.push((cell, ch));
                    }
                }
            }
            assert_eq!(
                striped.snapshot_sets(n),
                global.snapshot_sets(n),
                "final ground truth diverged at {stripes} stripes"
            );
        }
    }

    /// Concurrent commit/remove traffic on disjoint channels stays
    /// audit-clean under any interleaving of the stripe locks.
    #[test]
    fn concurrent_disjoint_grants_commit_cleanly() {
        let topo = Arc::new(topo());
        let g = Arc::new(GroundTruth::new(&topo, 4));
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
        let sets = g.snapshot_sets(n);
        assert!(sets.iter().all(|s| s.is_empty()), "all grants were vacated");
    }
}
