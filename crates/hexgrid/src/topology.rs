//! The complete system model: grid + interference regions + reuse pattern
//! + spectrum + primary channel assignment.
//!
//! A [`Topology`] is the immutable world every protocol node is given at
//! construction. It precomputes, for each cell `i`:
//!
//! * its interference region `IN_i` (cells within the reuse distance) as
//!   one sorted row, which also answers "is `j` in my interference
//!   region", and
//! * its color under the reuse pattern and its primary set `PR_i`.

use crate::channels::{ChannelSet, Spectrum};
use crate::grid::{CellId, HexGrid};
use crate::reuse::{partition_spectrum, ReusePattern};
use std::sync::Arc;

/// Immutable description of the cellular system under simulation.
///
/// A handle onto shared tables: `clone()` is a reference-count bump, so
/// a protocol node that needs its neighbours' regions or primary sets
/// keeps a clone instead of copying rows per cell.
#[derive(Debug, Clone)]
pub struct Topology {
    inner: Arc<Tables>,
}

#[derive(Debug)]
struct Tables {
    grid: HexGrid,
    spectrum: Spectrum,
    pattern: ReusePattern,
    interference_radius: u32,
    /// `IN_i` per cell, sorted by id.
    regions: Vec<Vec<CellId>>,
    /// Reuse color per cell.
    colors: Vec<u32>,
    /// Primary set `PR_i` per cell.
    primary: Vec<ChannelSet>,
}

impl Topology {
    /// Starts building a topology over a `rows × cols` hex grid.
    pub fn builder(rows: u32, cols: u32) -> TopologyBuilder {
        TopologyBuilder {
            rows,
            cols,
            spectrum: Spectrum::new(70),
            pattern: ReusePattern::seven_cell(),
            interference_radius: 2,
            wrap: false,
        }
    }

    /// The paper's default configuration: `rows × cols` cells, 70
    /// channels, 7-cell reuse cluster, interference radius 2.
    pub fn default_paper(rows: u32, cols: u32) -> Topology {
        Topology::builder(rows, cols).build()
    }

    /// The underlying hex grid.
    #[inline]
    pub fn grid(&self) -> &HexGrid {
        &self.inner.grid
    }

    /// Number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.inner.grid.len()
    }

    /// Iterates over all cells.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        self.inner.grid.cells()
    }

    /// The channel spectrum.
    #[inline]
    pub fn spectrum(&self) -> Spectrum {
        self.inner.spectrum
    }

    /// The reuse pattern in force.
    #[inline]
    pub fn pattern(&self) -> ReusePattern {
        self.inner.pattern
    }

    /// The interference radius (minimum reuse distance) in cells.
    #[inline]
    pub fn interference_radius(&self) -> u32 {
        self.inner.interference_radius
    }

    /// The interference region `IN_i`: all cells within the reuse distance
    /// of `cell`, excluding `cell`, sorted by id.
    #[inline]
    pub fn region(&self, cell: CellId) -> &[CellId] {
        &self.inner.regions[cell.index()]
    }

    /// Whether `other ∈ IN_cell`.
    #[inline]
    pub fn in_region(&self, cell: CellId, other: CellId) -> bool {
        self.region(cell).binary_search(&other).is_ok()
    }

    /// The reuse color of `cell`.
    #[inline]
    pub fn color(&self, cell: CellId) -> u32 {
        self.inner.colors[cell.index()]
    }

    /// The primary channel set `PR_cell`.
    #[inline]
    pub fn primary(&self, cell: CellId) -> &ChannelSet {
        &self.inner.primary[cell.index()]
    }

    /// The cells for which `other`'s color makes them primary owners of
    /// channel `ch` *within `IN_cell`* — used by the advanced update
    /// scheme, which contacts only the `n_p` primary cells of a channel.
    pub fn primaries_of_channel_in_region(
        &self,
        cell: CellId,
        ch: crate::channels::Channel,
    ) -> Vec<CellId> {
        self.region(cell)
            .iter()
            .copied()
            .filter(|&j| self.primary(j).contains(ch))
            .collect()
    }

    /// The largest interference region size in this topology (the paper's
    /// `N`; 18 for interior cells at radius 2).
    pub fn max_region_size(&self) -> usize {
        self.inner.regions.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Hex distance between two cells.
    #[inline]
    pub fn distance(&self, a: CellId, b: CellId) -> u32 {
        self.inner.grid.distance(a, b)
    }
}

/// Builder for [`Topology`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    rows: u32,
    cols: u32,
    spectrum: Spectrum,
    pattern: ReusePattern,
    interference_radius: u32,
    wrap: bool,
}

impl TopologyBuilder {
    /// Sets the number of channels in the spectrum (default 70).
    pub fn channels(mut self, n: u16) -> Self {
        self.spectrum = Spectrum::new(n);
        self
    }

    /// Sets the reuse pattern (default: 7-cell cluster).
    pub fn pattern(mut self, pattern: ReusePattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the interference radius / minimum reuse distance (default 2).
    pub fn interference_radius(mut self, radius: u32) -> Self {
        self.interference_radius = radius;
        self
    }

    /// Wraps the grid onto a torus — the geometry the cited simulation
    /// studies use to eliminate boundary effects (every cell gets the
    /// full-size interference region). Requires an even row count and
    /// dimensions compatible with the reuse pattern; `build` verifies
    /// the coloring stays interference-safe across the seams and panics
    /// otherwise (for the 7-cell cluster: `cols ≡ 0 (mod 7)` and
    /// `rows ≡ 0 (mod 14)`, e.g. 14×14).
    pub fn wrap(mut self) -> Self {
        self.wrap = true;
        self
    }

    /// Builds the topology.
    ///
    /// # Panics
    /// Panics if the reuse pattern does not support the interference
    /// radius (same-color cells would fall within each other's regions),
    /// since static assignment would then be unsound.
    pub fn build(self) -> Topology {
        assert!(
            self.pattern.supports_radius(self.interference_radius),
            "reuse pattern {:?} (min reuse distance {}) cannot support interference radius {}",
            self.pattern.shift(),
            self.pattern.min_reuse_distance(),
            self.interference_radius
        );
        let grid = if self.wrap {
            HexGrid::new_wrapped(self.rows, self.cols)
        } else {
            HexGrid::new(self.rows, self.cols)
        };
        let regions: Vec<Vec<CellId>> = grid
            .cells()
            .map(|c| grid.region(c, self.interference_radius))
            .collect();
        let colors: Vec<u32> = grid
            .cells()
            .map(|c| self.pattern.color(grid.axial(c)))
            .collect();
        if self.wrap {
            // The planar coloring is only torus-safe when the grid
            // periods are lattice-compatible; verify exhaustively.
            for i in grid.cells() {
                for j in grid.region(i, self.interference_radius) {
                    assert!(
                        colors[i.index()] != colors[j.index()],
                        "wrapped {}x{} grid is incompatible with the reuse pattern:                          {i} and {j} share color {} across a seam (for the 7-cell                          cluster use cols % 7 == 0 and rows % 14 == 0, e.g. 14x14)",
                        self.rows,
                        self.cols,
                        colors[i.index()],
                    );
                }
            }
        }
        let sets = partition_spectrum(self.spectrum, self.pattern.cluster_size());
        let primary: Vec<ChannelSet> = colors.iter().map(|&c| sets[c as usize].clone()).collect();
        Topology {
            inner: Arc::new(Tables {
                grid,
                spectrum: self.spectrum,
                pattern: self.pattern,
                interference_radius: self.interference_radius,
                regions,
                colors,
                primary,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::Channel;

    #[test]
    fn default_topology_shape() {
        let t = Topology::default_paper(12, 12);
        assert_eq!(t.num_cells(), 144);
        assert_eq!(t.spectrum().len(), 70);
        assert_eq!(t.max_region_size(), 18);
        assert_eq!(t.interference_radius(), 2);
    }

    #[test]
    fn primary_sets_disjoint_within_regions() {
        // The static soundness property: PR_i ∩ PR_j = ∅ whenever
        // j ∈ IN_i. This is what makes local-mode allocation safe.
        let t = Topology::default_paper(10, 10);
        for i in t.cells() {
            for &j in t.region(i) {
                assert!(
                    t.primary(i).is_disjoint(t.primary(j)),
                    "PR_{i} and PR_{j} overlap inside an interference region"
                );
            }
        }
    }

    #[test]
    fn region_rows_match_the_definition() {
        // j ∈ IN_i iff j ≠ i and distance(i, j) ≤ the interference radius.
        let open = Topology::default_paper(6, 6);
        let torus = Topology::builder(14, 14).wrap().build();
        for t in [open, torus] {
            for i in t.cells() {
                for j in t.cells() {
                    let near = j != i && t.grid().distance(i, j) <= t.interference_radius();
                    assert_eq!(t.in_region(i, j), near, "{i} {j}");
                    assert_eq!(t.region(i).contains(&j), near, "{i} {j}");
                }
            }
        }
    }

    #[test]
    fn region_symmetry() {
        let t = Topology::default_paper(8, 8);
        for i in t.cells() {
            for j in t.cells() {
                assert_eq!(t.in_region(i, j), t.in_region(j, i));
            }
        }
    }

    #[test]
    fn primaries_of_channel_in_region() {
        let t = Topology::default_paper(10, 10);
        let center = t.grid().at_offset(5, 5).unwrap();
        let ch = Channel(0); // belongs to color 0
        let primaries = t.primaries_of_channel_in_region(center, ch);
        for p in &primaries {
            assert!(t.primary(*p).contains(ch));
            assert!(t.in_region(center, *p));
        }
        // Every region cell holding ch as primary is found.
        let expect = t
            .region(center)
            .iter()
            .filter(|&&j| t.primary(j).contains(ch))
            .count();
        assert_eq!(primaries.len(), expect);
    }

    #[test]
    #[should_panic]
    fn unsupported_radius_panics() {
        // 3-cell cluster has reuse distance 2 — cannot support radius 2.
        let _ = Topology::builder(5, 5)
            .pattern(ReusePattern::three_cell())
            .interference_radius(2)
            .build();
    }

    #[test]
    fn wrapped_14x14_has_no_boundary() {
        let t = Topology::builder(14, 14).wrap().build();
        assert!(t.grid().is_wrapped());
        for c in t.cells() {
            assert_eq!(t.region(c).len(), 18, "{c} must have a full region");
        }
        // Primary-set disjointness survives the seams.
        for i in t.cells() {
            for &j in t.region(i) {
                assert!(t.primary(i).is_disjoint(t.primary(j)));
            }
        }
    }

    #[test]
    fn wrapped_distance_is_a_torus_metric() {
        let t = Topology::builder(14, 14).wrap().build();
        let g = t.grid();
        // Symmetric, and never larger than the planar distance.
        for a in [CellId(0), CellId(7), CellId(100), CellId(195)] {
            for b in [CellId(0), CellId(13), CellId(98), CellId(182)] {
                assert_eq!(g.distance(a, b), g.distance(b, a));
                assert!(g.distance(a, b) <= g.axial(a).distance(g.axial(b)));
            }
        }
        // Opposite corners are close on the torus.
        let corner_a = g.at_offset(0, 0).unwrap();
        let corner_b = g.at_offset(13, 13).unwrap();
        assert!(g.distance(corner_a, corner_b) <= 3);
    }

    #[test]
    #[should_panic(expected = "incompatible with the reuse pattern")]
    fn wrapped_incompatible_dims_panic() {
        // 12 columns is not a multiple of 7: colors collide across the
        // vertical seam.
        let _ = Topology::builder(14, 12).wrap().build();
    }

    #[test]
    #[should_panic(expected = "even row count")]
    fn wrapped_odd_rows_panic() {
        let _ = Topology::builder(7, 14).wrap().build();
    }

    #[test]
    fn three_cell_cluster_with_radius_one() {
        let t = Topology::builder(6, 6)
            .pattern(ReusePattern::three_cell())
            .interference_radius(1)
            .channels(30)
            .build();
        assert_eq!(t.max_region_size(), 6);
        for i in t.cells() {
            for &j in t.region(i) {
                assert!(t.primary(i).is_disjoint(t.primary(j)));
            }
        }
    }
}
