//! `mck` — exhaustive model-check sweep over the pure protocol cores
//! (experiment e16).
//!
//! Explores every message delivery order, loss, duplication, timer
//! firing, crash/restart point, and link-partition window on 2–4-cell
//! strips for the adaptive scheme and the two basic baselines, within
//! bounded fault budgets, plus the fault-free two-cell interleavings of
//! the fixed and the two advanced schemes. Rows marked `exhaustive` are
//! completed breadth-first exhaustions: zero violations over the printed
//! state count *proves* Theorem 1 safety, resolution discipline, and
//! terminal-state request resolution for that scheme/topology/budget
//! combination. Rows marked `bounded` hit the per-row state cap first
//! (the hardened schemes' retry deadline timers and Lamport clocks
//! fragment the crash space combinatorially); they are exhaustive up to
//! the cap and still fail loudly on any violation found within it.
//!
//! The results table goes to stdout (no wall clock: a function of the
//! tree); per-row progress with wall times goes to stderr. Run with
//! `--smoke` for the CI-sized subset. On a violation the minimized
//! counterexample schedule is printed to stderr and written to
//! `e16_counterexample.sched` in the working directory for artifact
//! upload, and the process exits non-zero.

use adca_baselines::{
    AdvancedSearchNode, AdvancedUpdateNode, BasicSearchConfig, BasicSearchNode, BasicUpdateConfig,
    BasicUpdateNode, FixedNode,
};
use adca_checker::{Budgets, CheckNode, CheckOutcome, Model, Op};
use adca_core::{AdaptiveConfig, AdaptiveNode};
use adca_hexgrid::{CellId, ReusePattern, Topology};
use std::sync::Arc;
use std::time::Instant;

/// A 1×n strip with 3-cell reuse at radius 1: adjacent cells interfere,
/// and channels are dealt to the three colors round-robin.
fn strip(cells: u32, channels: u16) -> Arc<Topology> {
    Arc::new(
        Topology::builder(1, cells)
            .channels(channels)
            .pattern(ReusePattern::three_cell())
            .interference_radius(1)
            .build(),
    )
}

/// Response deadline for the hardened rows (the value is irrelevant
/// under the checker's frozen clock; arming the timers is what matters).
const DEADLINE: u64 = 400;

const CALL: &[Op] = &[Op::StartCall, Op::EndCall];
const START: &[Op] = &[Op::StartCall];

#[derive(Clone, Copy, PartialEq)]
enum Scheme {
    Adaptive,
    BasicSearch,
    BasicUpdate,
    Fixed,
    AdvancedUpdate,
    AdvancedSearch,
}

impl Scheme {
    fn name(self) -> &'static str {
        match self {
            Scheme::Adaptive => "adaptive",
            Scheme::BasicSearch => "basic-search",
            Scheme::BasicUpdate => "basic-update",
            Scheme::Fixed => "fixed",
            Scheme::AdvancedUpdate => "advanced-update",
            Scheme::AdvancedSearch => "advanced-search",
        }
    }
}

struct Spec {
    scheme: Scheme,
    hardened: bool,
    cells: u32,
    script: &'static [Op],
    budgets: Budgets,
    /// `None` = must exhaust (truncation is a failure); `Some(cap)` =
    /// bounded search up to `cap` states.
    cap: Option<usize>,
}

fn explore(spec: &Spec) -> CheckOutcome {
    let retry_ticks = spec.hardened.then_some(DEADLINE);
    match spec.scheme {
        Scheme::Adaptive => run(spec, move |cell, t| {
            AdaptiveNode::new(
                cell,
                t,
                AdaptiveConfig {
                    retry_ticks,
                    ..AdaptiveConfig::default()
                },
            )
        }),
        Scheme::BasicSearch => run(spec, move |cell, t| {
            BasicSearchNode::with_config(cell, t, BasicSearchConfig { retry_ticks })
        }),
        Scheme::BasicUpdate => run(spec, move |cell, t| {
            BasicUpdateNode::new(cell, t, BasicUpdateConfig { retry_ticks })
        }),
        Scheme::Fixed => run(spec, FixedNode::new),
        Scheme::AdvancedUpdate => run(spec, AdvancedUpdateNode::new),
        Scheme::AdvancedSearch => run(spec, AdvancedSearchNode::new),
    }
}

fn run<N: CheckNode>(spec: &Spec, factory: impl Fn(CellId, &Topology) -> N) -> CheckOutcome {
    Model::new(strip(spec.cells, 3), factory)
        .with_uniform_script(spec.script)
        .with_budgets(spec.budgets)
        // Must-exhaust rows still get a backstop cap so a regression
        // fails fast instead of eating all memory.
        .with_max_states(spec.cap.unwrap_or(4_000_000))
        .explore()
}

fn label(spec: &Spec) -> String {
    format!(
        "{}{}/{}-cell{}",
        spec.scheme.name(),
        if spec.hardened { "+hard" } else { "" },
        spec.cells,
        if spec.script.len() == 1 { "/start" } else { "" },
    )
}

fn result_str(spec: &Spec, out: &CheckOutcome) -> &'static str {
    if out.violation.is_some() {
        "VIOLATION"
    } else if out.truncated {
        if spec.cap.is_some() {
            "clean (bounded)"
        } else {
            "BLOWUP"
        }
    } else {
        "exhaustive"
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let zero = Budgets::none();
    let loss_dup = Budgets {
        losses: 1,
        dups: 1,
        crashes: 0,
        partitions: 0,
    };
    let loss_crash = Budgets {
        losses: 1,
        dups: 0,
        crashes: 1,
        partitions: 0,
    };
    let crash1 = Budgets {
        losses: 0,
        dups: 0,
        crashes: 1,
        partitions: 0,
    };
    let part1 = Budgets {
        losses: 0,
        dups: 0,
        crashes: 0,
        partitions: 1,
    };

    // The crash rows are bounded: the hardened schemes' Lamport clocks
    // and deadline timers fragment the post-crash space combinatorially
    // (measured > 4M states on 2 cells), so CI runs them as a
    // fixed-budget search, exhaustive up to the cap.
    let crash_cap = Some(if smoke { 150_000 } else { 500_000 });

    let mut specs: Vec<Spec> = Vec::new();
    // Pure interleavings, unhardened, exhaustive: all six schemes on two
    // cells, the three with fault budgets below on the larger strips too.
    let pure = |scheme, cells| Spec {
        scheme,
        hardened: false,
        cells,
        script: CALL,
        budgets: zero,
        cap: None,
    };
    let sizes: &[u32] = if smoke { &[2, 3] } else { &[2, 3, 4] };
    for &cells in sizes {
        for scheme in [Scheme::Adaptive, Scheme::BasicSearch, Scheme::BasicUpdate] {
            specs.push(pure(scheme, cells));
        }
    }
    for scheme in [
        Scheme::Fixed,
        Scheme::AdvancedUpdate,
        Scheme::AdvancedSearch,
    ] {
        specs.push(pure(scheme, 2));
    }
    // Loss+dup budget, hardened. Only the adaptive scheme's fault space
    // is exhaustible — its deferral rule quiesces rounds quickly, while
    // the basic baselines' retry deadline timers blow past 4M states
    // even on 2 cells, so they run as bounded rows.
    specs.push(Spec {
        scheme: Scheme::Adaptive,
        hardened: true,
        cells: 2,
        script: CALL,
        budgets: loss_dup,
        cap: None,
    });
    if !smoke {
        specs.push(Spec {
            scheme: Scheme::Adaptive,
            hardened: true,
            cells: 3,
            script: CALL,
            budgets: loss_dup,
            cap: None,
        });
    }
    for scheme in [Scheme::BasicSearch, Scheme::BasicUpdate] {
        specs.push(Spec {
            scheme,
            hardened: true,
            cells: 2,
            script: CALL,
            budgets: loss_dup,
            cap: crash_cap,
        });
    }
    // Full loss+crash budget on 3 cells, bounded (the CI job's required
    // coverage for adaptive + basic-search).
    for scheme in [Scheme::Adaptive, Scheme::BasicSearch] {
        specs.push(Spec {
            scheme,
            hardened: true,
            cells: 3,
            script: CALL,
            budgets: loss_crash,
            cap: crash_cap,
        });
    }
    // One *exhaustive* crash exploration (single call per cell keeps the
    // adaptive 2-cell space nearly exhaustible; full mode only).
    if !smoke {
        specs.push(Spec {
            scheme: Scheme::Adaptive,
            hardened: true,
            cells: 2,
            script: START,
            budgets: crash1,
            cap: None,
        });
    }
    // Link-partition fault class, hardened. Adaptive exhausts in well
    // under 1k states; the basic baselines' retry timers re-fire into
    // the cut link and fragment past 1M states, so they get bounded
    // rows.
    specs.push(Spec {
        scheme: Scheme::Adaptive,
        hardened: true,
        cells: 2,
        script: CALL,
        budgets: part1,
        cap: None,
    });
    specs.push(Spec {
        scheme: Scheme::BasicSearch,
        hardened: true,
        cells: 2,
        script: CALL,
        budgets: part1,
        cap: crash_cap,
    });

    println!("================================================================");
    println!("experiment e16_model_check — exhaustive fault-interleaving model check");
    println!("BFS over all deliveries/losses/dups/timers/crashes/partitions on 1xN strips");
    println!("================================================================");
    println!();
    println!(
        "  {:<28} {:>15} {:>10} {:>12} {:>9}  result",
        "config", "budget(l/d/c/p)", "states", "transitions", "terminals"
    );
    println!("{}", "-".repeat(100));

    let mut failed = false;
    let mut first_violation = None;
    for spec in specs {
        let start = Instant::now();
        let out = explore(&spec);
        let wall_ms = start.elapsed().as_millis();
        let res = result_str(&spec, &out);
        failed |= out.violation.is_some() || res == "BLOWUP";
        let budget = format!(
            "{}/{}/{}/{}",
            spec.budgets.losses, spec.budgets.dups, spec.budgets.crashes, spec.budgets.partitions
        );
        eprintln!(
            "  {:<28} budget(l/d/c/p)={budget}  states={:>9}  terminals={:>6}  wall={:>7}ms  {res}",
            label(&spec),
            out.states,
            out.terminals,
            wall_ms,
        );
        println!(
            "  {:<28} {:>15} {:>10} {:>12} {:>9}  {res}",
            label(&spec),
            budget,
            out.states,
            out.transitions,
            out.terminals,
        );
        if first_violation.is_none() {
            first_violation = out.violation.map(|cex| (label(&spec), cex));
        }
    }
    println!();
    println!("'exhaustive' rows are completed BFS exhaustions: no Theorem 1 violation,");
    println!("no double assignment, no unresolved request in any terminal state.");
    println!("'clean (bounded)' rows are exhaustive up to the per-row state cap.");

    // ---- counterexample artifact ------------------------------------
    if let Some((label, cex)) = first_violation {
        let sched_path = "e16_counterexample.sched";
        eprintln!();
        eprintln!("VIOLATION in {label}: {}", cex.defect);
        eprintln!("minimized schedule ({} choices):", cex.schedule.len());
        eprint!("{}", cex.schedule.to_text());
        if let Err(e) = std::fs::write(sched_path, cex.schedule.to_text()) {
            eprintln!("warning: could not write {sched_path}: {e}");
        } else {
            eprintln!("schedule written to {sched_path}");
        }
    }

    if failed {
        std::process::exit(1);
    }
    eprintln!("all explorations clean");
}
