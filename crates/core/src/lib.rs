//! `adca-core` — the paper's proposed scheme: **A**daptive **D**istributed
//! dynamic **C**hannel **A**llocation (Kahol, Khurana, Gupta & Srimani,
//! ICPP Workshop on Wireless Networks and Mobile Computing, 1998).
//!
//! Every mobile service station runs an [`adaptive::AdaptiveNode`], a
//! per-cell state machine that:
//!
//! 1. serves calls from its statically assigned primary set `PR_i` while
//!    lightly loaded (**local mode**, zero latency, no control messages),
//! 2. predicts — with a windowed linear extrapolation over the number of
//!    free primary channels ([`nfc::NfcWindow`]) — when it is about to run
//!    out, and proactively switches to **borrowing mode**, announcing the
//!    switch to its interference region (`CHANGE_MODE`),
//! 3. in borrowing mode *borrows* channels: up to `α` compare-and-grant
//!    **update** rounds against the lender picked by the `Best()`
//!    heuristic, then a timestamp-sequenced **search** round that finds a
//!    channel whenever one exists in the region,
//! 4. falls back to local mode (with hysteresis `θ_l < θ_h`) when load
//!    subsides.
//!
//! Shared protocol infrastructure used by the baseline schemes as well
//! lives here: Lamport timestamps ([`lamport`]), the reference-counted
//! interference view `I_i`/`U_j` ([`view`]), the per-round mask of region
//! members still to answer ([`mask`]), and the per-node FIFO of
//! outstanding call requests ([`queue`]).
//!
//! See `DESIGN.md` at the repository root for the list of documented
//! deviations from the paper's pseudocode (typo fixes and
//! under-specification resolutions).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod config;
pub mod lamport;
pub mod mask;
pub mod nfc;
pub mod queue;
pub mod view;

pub use adaptive::{AdaptiveMsg, AdaptiveNode, Mode};
pub use config::{AdaptiveConfig, Mutation};
pub use lamport::{LamportClock, Timestamp};
pub use mask::RegionMask;
pub use nfc::NfcWindow;
pub use queue::CallQueue;
pub use view::NeighborView;
