//! Umbrella crate for the `adca` reproduction workspace.
//!
//! Re-exports the public API of every member crate so examples and
//! integration tests have a single dependency root:
//!
//! ```
//! use adca_repro::prelude::*;
//!
//! let summary = Scenario::uniform(0.5, 50_000)
//!     .with_grid(6, 6)
//!     .run(SchemeKind::Adaptive);
//! summary.report.assert_clean();
//! ```

pub use adca_analysis as analysis;
pub use adca_baselines as baselines;
pub use adca_checker as checker;
pub use adca_core as core;
pub use adca_harness as harness;
pub use adca_hexgrid as hexgrid;
pub use adca_metrics as metrics;
pub use adca_serve as serve;
pub use adca_simkit as simkit;
pub use adca_threadnet as threadnet;
pub use adca_traffic as traffic;

/// The names most experiments need.
pub mod prelude {
    pub use adca_analysis::{erlang_b, ModelInputs, SchemeModel};
    pub use adca_core::{AdaptiveConfig, AdaptiveNode, Mode};
    pub use adca_harness::{Replicated, RunSummary, Scenario, SchemeKind, SweepRunner};
    pub use adca_hexgrid::{CellId, Channel, ChannelSet, Spectrum, Topology};
    pub use adca_serve::{
        AllocService, ChannelRequest, Confirm, ProductionConfig, ServeStats, Ticket,
    };
    pub use adca_simkit::{Arrival, AuditMode, LatencyModel, SimConfig, SimReport};
    pub use adca_traffic::{Hotspot, WorkloadSpec};
}
