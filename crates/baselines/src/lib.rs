//! Baseline channel-allocation schemes the paper compares against.
//!
//! | Scheme | Source | Character |
//! |--------|--------|-----------|
//! | [`FixedNode`] | Macdonald '79 (static reuse patterns) | zero messages, zero latency, drops under skew |
//! | [`BasicSearchNode`] | Dong & Lai, ICDCS '97 | query the whole region per acquisition |
//! | [`BasicUpdateNode`] | Dong & Lai, ICDCS '97 | maintain region state, compare-and-grant rounds |
//! | [`AdvancedUpdateNode`] | Dong & Lai, TR OSU-CISRC-10/96-TR48 | update variant asking only a channel's primary cells (exhibits the paper's Figure 11 unfairness) |
//! | [`AdvancedSearchNode`] | Prakash, Shivaratri & Singhal, PODC '95 | dynamic *allocated* sets with TRANSFER/AGREE/KEEP hand-over |
//!
//! All five implement [`adca_simkit::StateMachine`] against the same engine
//! and auditor as the adaptive scheme, so Tables 1–3 and the extended
//! experiments compare like against like.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod advanced_search;
pub mod advanced_update;
pub mod basic_search;
pub mod basic_update;
pub mod fixed;

pub use advanced_search::{AdvancedSearchMsg, AdvancedSearchNode};
pub use advanced_update::{AdvancedUpdateMsg, AdvancedUpdateNode};
pub use basic_search::{BasicSearchConfig, BasicSearchMsg, BasicSearchNode};
pub use basic_update::{BasicUpdateConfig, BasicUpdateMsg, BasicUpdateNode};
pub use fixed::FixedNode;
