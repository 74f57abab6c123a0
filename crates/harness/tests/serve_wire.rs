//! The PR's acceptance pin for the wire fabric: `Scenario::serve_wire`
//! runs the adaptive scheme on the paper's 12×12 grid behind a real
//! loopback TCP socket, with every client configured to transmit each
//! request **twice** (injected aggressive retries). The run must drain,
//! the Theorem-1 audit must stay clean, and no grant may ever be
//! double-committed: the backend sees each request exactly once because
//! the server's idempotency layer absorbs every duplicate.

use adca_harness::{Scenario, SchemeKind};
use adca_serve::{LoadSpec, ProductionConfig};
use adca_wire::WireClientConfig;
use std::time::Duration;

#[test]
fn adaptive_12x12_over_loopback_survives_injected_retries() {
    let sc = Scenario::uniform(0.9, 10_000); // 12x12, 70 channels
    let spec = LoadSpec {
        subscribers: 144,
        requests_per_sub: 2,
        think: Duration::ZERO,
        hold: 200,
        deadline: Duration::from_secs(120),
    };
    let client_cfg = WireClientConfig {
        inject_dup_first_send: true,
        ..WireClientConfig::default()
    };
    let cfg = ProductionConfig {
        workers: 4,
        ..ProductionConfig::default()
    };
    let (report, stats, wire) = sc
        .serve_wire(SchemeKind::Adaptive, cfg, &spec, 3, client_cfg)
        .expect("loopback wire loop runs");

    assert_eq!(report.unresolved, 0, "the closed loop drained");
    assert_eq!(wire.refused, 0, "every request was admissible");
    assert_eq!(wire.timeouts, 0, "no request exhausted its retries");
    assert_eq!(
        report.offered,
        (spec.subscribers as u64) * u64::from(spec.requests_per_sub),
        "every subscriber spent its whole budget"
    );
    assert_eq!(
        report.granted + report.rejected,
        report.offered,
        "each request resolved exactly once"
    );

    // Zero double-commits: although every frame went out twice, the
    // backend was offered each request exactly once, granted exactly
    // what the clients saw granted, and every duplicate landed in the
    // server's idempotency cache instead.
    assert_eq!(
        stats.offered, report.offered,
        "duplicates reached the backend"
    );
    assert_eq!(stats.granted, report.granted, "hidden extra grants");
    assert!(
        wire.dedup_hits >= report.offered,
        "each injected duplicate is a dedup hit ({} < {})",
        wire.dedup_hits,
        report.offered
    );
    assert!(
        stats.violations.is_empty(),
        "Theorem-1 audit clean: {:?}",
        stats.violations
    );
}
