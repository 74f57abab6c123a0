//! Shared plumbing for the experiment binaries that regenerate every
//! table and figure of the paper (see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for recorded results).
//!
//! Each binary prints a self-describing report to stdout; run them with
//! `cargo run --release -p adca-bench --bin <id>`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use adca_harness::{RunSummary, SchemeKind};

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper_artifact: &str, what: &str) {
    println!("================================================================");
    println!("experiment {id} — reproduces {paper_artifact}");
    println!("{what}");
    println!("================================================================\n");
}

/// A fixed-width text table that prints a header once and aligned rows.
pub struct TextTable {
    widths: Vec<usize>,
}

impl TextTable {
    /// Prints the header and remembers column widths.
    pub fn new(columns: &[(&str, usize)]) -> Self {
        let mut header = String::new();
        for (name, w) in columns {
            header.push_str(&format!("{name:>w$} ", w = *w));
        }
        println!("{header}");
        println!("{}", "-".repeat(header.len()));
        TextTable {
            widths: columns.iter().map(|(_, w)| *w).collect(),
        }
    }

    /// Prints one row of already-formatted cells.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "column count mismatch");
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{cell:>w$} ", w = *w));
        }
        println!("{line}");
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats an optional float ("-" when absent).
pub fn opt2(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into())
}

/// Prints the fault-accounting footer: the restart counter and the
/// drop-cause split per run — recorded in every [`SimReport`] since the
/// fault layer landed, but previously absent from `results/*.txt`. Rows
/// are emitted only for runs that saw fault activity, and the footer is
/// skipped entirely when none did, so fault-free experiments keep their
/// result files unchanged.
///
/// [`SimReport`]: adca_simkit::SimReport
pub fn fault_footer<'a, I>(runs: I)
where
    I: IntoIterator<Item = (String, &'a RunSummary)>,
{
    let active: Vec<(String, &RunSummary)> = runs
        .into_iter()
        .filter(|(_, s)| s.has_fault_activity())
        .collect();
    if active.is_empty() {
        return;
    }
    println!();
    println!("fault accounting (restarts and drop-cause split):");
    for (label, s) in active {
        let r = &s.report;
        println!(
            "  {label:<28} crashes={:>2} restarts={:>2}  \
             drops[blocked={:>4} retry_ex={:>3} crashed={:>3}]  \
             msgs[lost={:>6} dup={:>4} part={:>4}]",
            r.crashes,
            r.restarts,
            r.drops_blocked,
            r.drops_retry_exhausted,
            r.drops_crashed,
            r.messages_lost,
            r.messages_duplicated,
            r.custom.get("partition_dropped"),
        );
    }
}

/// The analytic model of one of [`SchemeKind::TABLE_SCHEMES`].
pub fn scheme_model(kind: SchemeKind) -> adca_analysis::SchemeModel {
    use adca_analysis::SchemeModel;
    match kind {
        SchemeKind::BasicSearch => SchemeModel::BasicSearch,
        SchemeKind::BasicUpdate => SchemeModel::BasicUpdate,
        SchemeKind::AdvancedUpdate => SchemeModel::AdvancedUpdate,
        SchemeKind::Adaptive => SchemeModel::Adaptive,
        _ => unreachable!("table schemes only"),
    }
}

/// The measured Section 5 model inputs extracted from an adaptive run.
pub fn measured_inputs(s: &RunSummary, n: f64, alpha: f64, n_p: f64) -> adca_analysis::ModelInputs {
    let n_borrow = s
        .report
        .custom_samples
        .get("n_borrow_at_acq")
        .filter(|x| !x.is_empty())
        .map(|x| x.mean())
        .unwrap_or(0.0);
    // N_search estimator: each deferral a search experiences means one
    // more concurrent search serialized ahead of it, so
    // deferrals-per-search ≈ N_search − 1.
    let searches = s.report.custom.get("search_rounds_started").max(1) as f64;
    let n_search = 1.0 + s.report.custom.get("deferred_search_reqs") as f64 / searches;
    adca_analysis::ModelInputs {
        n,
        n_borrow,
        n_search,
        alpha,
        m: s.mean_update_attempts().unwrap_or(0.0),
        xi1: s.xi1(),
        xi2: s.xi2(),
        xi3: s.xi3(),
        n_p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(opt2(None), "-");
        assert_eq!(opt2(Some(2.5)), "2.50");
    }
}
