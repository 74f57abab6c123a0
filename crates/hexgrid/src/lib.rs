//! Hexagonal cellular geometry for distributed channel allocation.
//!
//! This crate models the system of Section 2.1 of Kahol, Khurana, Gupta &
//! Srimani, *Adaptive Distributed Dynamic Channel Allocation for Wireless
//! Networks* (ICPP Workshop on Wireless Networks and Mobile Computing, 1998):
//! a field of hexagonal cells, each managed by a mobile service station
//! (MSS), a spectrum of `n` numbered channels, and for every cell `i` an
//! *interference region* `IN_i` — the set of cells within the minimum reuse
//! distance of `i` — inside which no channel may be simultaneously reused.
//!
//! The crate provides:
//!
//! * [`Axial`]/[`Cube`] hex coordinates with exact integer distance
//!   ([`coords`]),
//! * rectangular hex grids with cell indexing and neighbor/region queries
//!   ([`grid`]),
//! * channel identifiers and a compact [`ChannelSet`] bitset used by every
//!   protocol hot path ([`channels`]),
//! * classic cellular *reuse patterns* (cluster colorings such as the
//!   7-cell cluster) and primary-channel partitioning ([`reuse`]),
//! * a [`Topology`] bundling all of the above for the simulator
//!   ([`topology`]), and
//! * ASCII rendering of grids and colorings, used to regenerate the paper's
//!   Figure 1 ([`render`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channels;
pub mod coords;
pub mod grid;
pub mod render;
pub mod reuse;
pub mod topology;

pub use channels::{Channel, ChannelSet, Spectrum};
pub use coords::{Axial, Cube};
pub use grid::{CellId, HexGrid};
pub use reuse::{partition_spectrum, ReuseError, ReusePattern};
pub use topology::{Topology, TopologyBuilder};
