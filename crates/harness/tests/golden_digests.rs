//! Golden state digests — the simulation's drift alarm.
//!
//! For every scheme, the engine state of a pinned `(scenario, seed, T)`
//! run is reduced to its per-section [`Engine::state_digests`] (clock,
//! rng, down, usage, links, calls, reqs, slots, report, queue, nodes:
//! each the 128-bit `StateHasher` digest of the section's values) and
//! compared against a checked-in golden file. Any change to the engine's
//! event ordering, a node's or message's fields, or the simulation
//! itself shows up as a digest mismatch that **names the drifted
//! section** — e.g. `nodes` or `queue` — instead of a bare "state
//! differs".
//!
//! The `nodes` section covers what each node holds and a transition
//! changes: its cell id, use set, view block and interference set,
//! queues, clocks, phases and timers. What it is given when it is built
//! — spectrum, primary and borrowable sets, region list, configuration,
//! topology, the view's layout — is a `RunInput`, the same in every
//! state of a run, and writes nothing.
//!
//! A derived `Hash` writes an enum's discriminant as an `isize`, whose
//! value the language does not promise across compiler versions: a
//! toolchain change can move the goldens with no change in behaviour.
//! When a change is *intentional* (a new field, a simulation fix, such
//! a toolchain move), re-bless the goldens and commit the diff:
//!
//! ```text
//! ADCA_BLESS=1 cargo test -p adca-harness --test golden_digests
//! ```
//!
//! The digest files live in `tests/golden/<scheme>.hash`.
//!
//! [`Engine::state_digests`]: adca_simkit::Engine::state_digests

use adca_harness::{Scenario, SchemeKind};
use std::path::PathBuf;

/// The pinned coordinates: e1-shaped 6×6 scenario, seed 7, digests at
/// the midpoint of a 20k-tick horizon. Changing any of these is itself
/// a golden change.
const GOLDEN_SEED: u64 = 7;
const GOLDEN_HORIZON: u64 = 20_000;
const GOLDEN_AT: u64 = 10_000;

fn golden_path(kind: SchemeKind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.hash", kind.name()))
}

/// `name digest` a line, one line a section of `Engine::state_digests`.
fn render_digests(kind: SchemeKind) -> String {
    Scenario::uniform(0.9, GOLDEN_HORIZON)
        .with_grid(6, 6)
        .with_seed(GOLDEN_SEED)
        .warmup_digests(kind, GOLDEN_AT)
        .into_iter()
        .map(|(name, digest)| format!("{name} {digest:032x}\n"))
        .collect()
}

#[test]
fn state_digests_match_checked_in_goldens() {
    let bless = std::env::var("ADCA_BLESS").is_ok_and(|v| v == "1");
    let jobs: Vec<_> = SchemeKind::ALL
        .into_iter()
        .map(|kind| move || (kind, render_digests(kind)))
        .collect();
    let mut drifted = Vec::new();
    for (kind, actual) in adca_harness::run_jobs(jobs) {
        let path = golden_path(kind);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden digest {} ({e}); bless with \
                 ADCA_BLESS=1 cargo test -p adca-harness --test golden_digests",
                path.display()
            )
        });
        if golden == actual {
            continue;
        }
        // Name exactly which section drifted, not just "bytes differ".
        let parse = |s: &str| {
            s.lines()
                .filter_map(|l| l.split_once(' '))
                .map(|(n, d)| (n.to_string(), d.to_string()))
                .collect::<Vec<_>>()
        };
        let (want, got) = (parse(&golden), parse(&actual));
        let mut diffs = Vec::new();
        for (w, g) in want.iter().zip(&got) {
            if w.0 != g.0 {
                diffs.push(format!(
                    "section order: expected `{}`, found `{}`",
                    w.0, g.0
                ));
                break;
            }
            if w.1 != g.1 {
                diffs.push(format!("section `{}`: {} -> {}", w.0, w.1, g.1));
            }
        }
        if want.len() != got.len() {
            diffs.push(format!("section count: {} -> {}", want.len(), got.len()));
        }
        drifted.push(format!("{kind}: {}", diffs.join("; ")));
    }
    assert!(
        drifted.is_empty(),
        "state digests drifted from the checked-in goldens — if \
         intentional, re-bless with ADCA_BLESS=1 and commit:\n  {}",
        drifted.join("\n  ")
    );
}

/// The digest pin is only as good as its determinism: two digest sets
/// of the same pinned run must agree, on every platform.
#[test]
fn golden_rendering_is_deterministic() {
    let a = render_digests(SchemeKind::Adaptive);
    let b = render_digests(SchemeKind::Adaptive);
    assert_eq!(a, b);
    assert!(a.lines().count() >= 10, "suspiciously few sections:\n{a}");
}
