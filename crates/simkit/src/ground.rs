//! Ground-truth channel usage: the paper's Theorem 1 (no channel used
//! twice inside an interference region), written once. The engine, the
//! model checker and the production backend each keep a [`Ground`] and
//! hand it every grant they apply. It is single-threaded: a concurrent
//! driver keeps it under the lock that orders its grants, so a grant's
//! check and its commit are one critical section.

use crate::report::Violation;
use crate::time::SimTime;
use adca_hexgrid::{CellId, Channel, ChannelSet, Topology};

/// The channels each cell is using: `usage[i]` is cell `i`'s.
#[derive(Debug, Clone)]
pub struct Ground {
    usage: Vec<ChannelSet>,
}

impl Ground {
    /// Nothing in use on `topo`.
    pub fn new(topo: &Topology) -> Self {
        Ground {
            usage: vec![topo.spectrum().empty_set(); topo.num_cells()],
        }
    }

    /// Audits and commits `cell`'s grant of `channel` at `at`, returning
    /// the first conflict: `channel` in use at `cell` itself, else at the
    /// lowest-id cell of its region. The audit observes, it does not
    /// veto: the grant is committed either way.
    pub fn grant(
        &mut self,
        topo: &Topology,
        at: SimTime,
        cell: CellId,
        channel: Channel,
    ) -> Option<Violation> {
        let usage = &mut self.usage;
        let conflict = if usage[cell.index()].contains(channel) {
            Some(Violation::DoubleAssign { at, cell, channel })
        } else {
            let mut region = topo.region(cell).iter();
            let first = region.find(|j| usage[j.index()].contains(channel));
            first.map(|&conflicting| Violation::Interference {
                at,
                cell,
                conflicting,
                channel,
            })
        };
        usage[cell.index()].insert(channel);
        conflict
    }

    /// `cell` returns `ch` (a call ended or handed off).
    pub fn release(&mut self, cell: CellId, ch: Channel) {
        self.usage[cell.index()].remove(ch);
    }

    /// `cell` goes silent and frees every channel it used (a crash).
    pub fn vacate(&mut self, cell: CellId) {
        self.usage[cell.index()].clear();
    }

    /// Every cell's channels, in id order.
    pub fn usage(&self) -> &[ChannelSet] {
        &self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AT: SimTime = SimTime(7);

    fn topo() -> Topology {
        Topology::default_paper(6, 6)
    }

    #[test]
    fn a_clean_grant_is_committed_and_reports_nothing() {
        let topo = topo();
        let mut g = Ground::new(&topo);
        assert_eq!(g.grant(&topo, AT, CellId(14), Channel(3)), None);
        assert!(g.usage()[14].contains(Channel(3)));
        assert_eq!(g.usage().iter().map(ChannelSet::len).sum::<usize>(), 1);
    }

    #[test]
    fn double_assignment_is_reported_before_interference() {
        let topo = topo();
        let (cell, ch) = (CellId(14), Channel(3));
        let mut g = Ground::new(&topo);
        g.grant(&topo, AT, topo.region(cell)[0], ch);
        g.grant(&topo, AT, cell, ch);
        assert_eq!(
            g.grant(&topo, AT, cell, ch),
            Some(Violation::DoubleAssign {
                at: AT,
                cell,
                channel: ch
            })
        );
    }

    #[test]
    fn the_lowest_id_interferer_is_named() {
        let topo = topo();
        let (cell, ch) = (CellId(14), Channel(3));
        let region = topo.region(cell);
        let (low, high) = (region[1], region[region.len() - 1]);
        let mut g = Ground::new(&topo);
        // The higher id is granted first: the verdict goes by id, not
        // by the order of the grants (the second may conflict with the
        // first; it is committed all the same).
        g.grant(&topo, AT, high, ch);
        g.grant(&topo, AT, low, ch);
        assert_eq!(
            g.grant(&topo, AT, cell, ch),
            Some(Violation::Interference {
                at: AT,
                cell,
                conflicting: low,
                channel: ch
            })
        );
    }

    #[test]
    fn a_conflicting_grant_is_committed_all_the_same() {
        let topo = topo();
        let (cell, ch) = (CellId(14), Channel(3));
        let other = topo.region(cell)[0];
        let mut g = Ground::new(&topo);
        g.grant(&topo, AT, other, ch);
        assert!(g.grant(&topo, AT, cell, ch).is_some());
        assert!(g.usage()[cell.index()].contains(ch));
        // Committed: the other cell now conflicts with it in turn.
        g.release(other, ch);
        assert!(matches!(
            g.grant(&topo, AT, other, ch),
            Some(Violation::Interference { conflicting, .. }) if conflicting == cell
        ));
    }

    #[test]
    fn release_and_vacate_free_what_they_name() {
        let topo = topo();
        let cell = CellId(14);
        let other = topo.region(cell)[0];
        let mut g = Ground::new(&topo);
        for ch in [1, 2, 3].map(Channel) {
            assert_eq!(g.grant(&topo, AT, cell, ch), None);
        }
        g.release(cell, Channel(2));
        assert_eq!(
            g.usage()[cell.index()].iter().collect::<Vec<_>>(),
            [Channel(1), Channel(3)]
        );
        assert_eq!(g.grant(&topo, AT, other, Channel(2)), None);
        g.vacate(cell);
        assert!(g.usage()[cell.index()].is_empty());
        assert!(
            g.usage()[other.index()].contains(Channel(2)),
            "vacate is one cell's"
        );
        assert_eq!(g.grant(&topo, AT, cell, Channel(1)), None);
    }
}
