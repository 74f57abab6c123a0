//! End-to-end: a production backend behind [`WireServer`], driven by
//! [`WireClient`]s over loopback TCP — grants, rejections, refusals,
//! handoffs, release indications, and the idempotency guarantee under
//! injected client retries.

use adca_baselines::FixedNode;
use adca_core::{AdaptiveConfig, AdaptiveNode};
use adca_hexgrid::{CellId, Topology};
use adca_serve::{AllocService, ChannelRequest, ProductionAllocService, ProductionConfig, Ticket};
use adca_wire::{
    deadline_wheel, decode, WireClient, WireClientConfig, WireEvent, WireMsg, WireServer,
};
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A day of ticks: "holds forever" at any ns_per_tick used here.
const FOREVER: u64 = 86_400_000;

fn production(topo: &Arc<Topology>, ns_per_tick: u64) -> ProductionAllocService<FixedNode> {
    let cfg = ProductionConfig {
        workers: 4,
        ns_per_tick,
        ..ProductionConfig::default()
    };
    ProductionAllocService::new(topo.clone(), cfg, FixedNode::new)
}

fn recv_all(client: &mut WireClient, n: usize, within: Duration) -> Vec<WireEvent> {
    let mut events = Vec::new();
    while events.len() < n {
        match client.recv(within) {
            Some(ev) => events.push(ev),
            None => break,
        }
    }
    events
}

#[test]
fn grant_release_and_reject_over_loopback() {
    let topo = Arc::new(Topology::default_paper(4, 4));
    let svc = production(&topo, 1_000_000); // 1 ms per tick
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let mut client = WireClient::connect(server.local_addr(), WireClientConfig::default(), &wheel)
        .expect("connect");

    // One short call: the grant arrives, then its 50 ms hold expires
    // and the release indication follows.
    let id = client
        .submit(&ChannelRequest::new_call(0, CellId(5), 50))
        .expect("submit");
    let Some(WireEvent::Granted {
        id: gid,
        ticket,
        cell,
        ..
    }) = client.recv(Duration::from_secs(5))
    else {
        panic!("expected a grant first");
    };
    assert_eq!(gid, id);
    assert_eq!(cell, 5);
    let Some(WireEvent::Released {
        ticket: rt,
        cell: rc,
        ..
    }) = client.recv(Duration::from_secs(5))
    else {
        panic!("expected the hold expiry to release");
    };
    assert_eq!(rt, ticket);
    assert_eq!(rc, 5);

    // Saturate one cell with forever-holds: the fixed scheme's per-cell
    // allocation runs out, so the tail must be rejected.
    let burst = topo.spectrum().len() as usize;
    for _ in 0..burst {
        client
            .submit(&ChannelRequest::new_call(0, CellId(0), FOREVER))
            .expect("submit");
    }
    let events = recv_all(&mut client, burst, Duration::from_secs(10));
    let granted = events
        .iter()
        .filter(|e| matches!(e, WireEvent::Granted { .. }))
        .count();
    let rejected = events
        .iter()
        .filter(|e| matches!(e, WireEvent::Rejected { .. }))
        .count();
    assert_eq!(granted + rejected, burst, "every request answered");
    assert!(granted > 0, "the fixed allocation grants its own channels");
    assert!(rejected > 0, "past capacity the protocol must reject");
    assert!(svc.stats().violations.is_empty(), "Theorem-1 audit clean");
}

#[test]
fn handoff_migrates_the_call_over_the_wire() {
    let topo = Arc::new(Topology::default_paper(4, 4));
    let svc = production(&topo, 1_000_000);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let mut client = WireClient::connect(server.local_addr(), WireClientConfig::default(), &wheel)
        .expect("connect");

    client
        .submit(&ChannelRequest::new_call(0, CellId(1), FOREVER))
        .expect("submit");
    let Some(WireEvent::Granted {
        ticket: src,
        cell: 1,
        ..
    }) = client.recv(Duration::from_secs(5))
    else {
        panic!("expected the source grant");
    };

    // Hand the call off to cell 2: the grant lands at the target and
    // the source ticket's channel is released (break-before-make).
    client
        .submit(&ChannelRequest::handoff(1, Ticket(src), CellId(2), FOREVER))
        .expect("submit handoff");
    let mut hop_granted_at = None;
    let mut source_released = false;
    for _ in 0..2 {
        match client.recv(Duration::from_secs(5)) {
            Some(WireEvent::Granted { cell, .. }) => hop_granted_at = Some(cell),
            Some(WireEvent::Released { ticket, .. }) => source_released = ticket == src,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(hop_granted_at, Some(2), "the hop grant is at the target");
    assert!(source_released, "the source ticket released its channel");

    // A second handoff off the already-vacated source is refused.
    let id = client
        .submit(&ChannelRequest::handoff(2, Ticket(src), CellId(3), FOREVER))
        .expect("submit");
    let Some(WireEvent::Refused { id: rid, reason }) = client.recv(Duration::from_secs(5)) else {
        panic!("expected a refusal");
    };
    assert_eq!(rid, id);
    assert!(
        reason.contains("bad handoff"),
        "the refusal carries the service error, got {reason:?}"
    );
    assert!(svc.stats().violations.is_empty());
}

/// The acceptance pin: with the clients transmitting **every request
/// twice** (an injected aggressive retry), the server's idempotency
/// layer must absorb every duplicate — the backend sees each request
/// exactly once, each id resolves exactly once, and the Theorem-1 audit
/// stays clean. A double-committed grant would surface as a duplicated
/// backend submission, a second answer for some id, or an audit
/// violation. `n` calls of `hold` ticks go round-robin over the cells
/// and the connections; returns the server's dedup hits.
fn double_sent<S: AllocService + Clone + Send + 'static>(
    svc: S,
    cells: usize,
    connections: usize,
    n: usize,
    hold: u64,
) -> u64 {
    let mut server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let cfg = WireClientConfig {
        inject_dup_first_send: true,
        ..WireClientConfig::default()
    };
    let mut clients: Vec<WireClient> = (0..connections)
        .map(|_| WireClient::connect(server.local_addr(), cfg, &wheel).expect("connect"))
        .collect();
    for s in 0..n {
        clients[s % connections]
            .submit(&ChannelRequest::new_call(
                0,
                CellId((s % cells) as u32),
                hold,
            ))
            .expect("submit");
    }
    // A hold that ends meanwhile is an indication, not an answer.
    let mut events = Vec::new();
    for (c, client) in clients.iter_mut().enumerate() {
        let mine = events.len() + (c..n).step_by(connections).len();
        while events.len() < mine {
            match client.recv(Duration::from_secs(30)) {
                Some(WireEvent::Released { .. }) => {}
                Some(ev) => events.push(ev),
                None => break,
            }
        }
    }
    assert_eq!(events.len(), n, "each id resolves exactly once");
    let answered = events
        .iter()
        .all(|e| matches!(e, WireEvent::Granted { .. } | WireEvent::Rejected { .. }));
    assert!(answered, "no refusals/timeouts expected, got {events:?}");
    drop(clients);
    server.shutdown();

    let stats = svc.stats();
    assert_eq!(
        stats.offered, n as u64,
        "every duplicate frame was absorbed before the backend"
    );
    let granted_events = events
        .iter()
        .filter(|e| matches!(e, WireEvent::Granted { .. }))
        .count() as u64;
    assert_eq!(stats.granted, granted_events, "no hidden extra grants");
    assert!(
        stats.violations.is_empty(),
        "Theorem-1 audit clean: {:?}",
        stats.violations
    );
    server.dedup_hits()
}

#[test]
fn injected_retries_never_double_commit() {
    // Fixed on 4×4, one connection, calls that hold forever.
    let topo = Arc::new(Topology::default_paper(4, 4));
    let hits = double_sent(
        production(&topo, 1_000_000),
        topo.num_cells(),
        1,
        48,
        FOREVER,
    );
    assert_eq!(hits, 48, "each of the 48 duplicates was a dedup hit");

    // Adaptive on the paper's 12×12 over three connections, two
    // requests a cell with holds that end while the run lasts.
    let topo = Arc::new(Topology::default_paper(12, 12));
    let cfg = ProductionConfig {
        workers: 4,
        ..ProductionConfig::default()
    };
    let ac = AdaptiveConfig::default();
    let svc = ProductionAllocService::new(topo.clone(), cfg, move |c, t: &_| {
        AdaptiveNode::new(c, t, ac.clone())
    });
    let hits = double_sent(svc, topo.num_cells(), 3, 288, 200);
    assert!(
        hits >= 288,
        "each injected duplicate is a dedup hit ({hits})"
    );
}

#[test]
fn unknown_cell_is_refused_with_the_service_error() {
    let topo = Arc::new(Topology::default_paper(3, 3));
    let svc = production(&topo, 1_000_000);
    let server = WireServer::start(svc, "127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let mut client = WireClient::connect(server.local_addr(), WireClientConfig::default(), &wheel)
        .expect("connect");
    let id = client
        .submit(&ChannelRequest::new_call(0, CellId(999), 10))
        .expect("submit");
    let Some(WireEvent::Refused { id: rid, reason }) = client.recv(Duration::from_secs(5)) else {
        panic!("expected a refusal");
    };
    assert_eq!(rid, id);
    assert!(reason.contains("unknown cell"), "got {reason:?}");
}

/// A request whose answer never arrives (the "server" accepts the
/// connection and then stays mute) is written once and resolves as a
/// timeout no earlier than its deadline — bounded, not forever.
#[test]
fn mute_server_times_out_at_the_deadline() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mute = std::thread::spawn(move || {
        // Hold the connection open without ever answering, and keep
        // what arrives until the client closes.
        let (mut stream, _) = listener.accept().expect("accept");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read until EOF");
        bytes
    });
    let wheel = deadline_wheel();
    let cfg = WireClientConfig {
        deadline: Duration::from_millis(50),
        ..WireClientConfig::default()
    };
    let mut client = WireClient::connect(addr, cfg, &wheel).expect("connect");
    let started = Instant::now();
    let id = client
        .submit(&ChannelRequest::new_call(0, CellId(0), 10))
        .expect("submit");
    let ev = client.recv(Duration::from_secs(10));
    assert_eq!(ev, Some(WireEvent::TimedOut { id }));
    assert!(started.elapsed() >= cfg.deadline, "timed out early");
    assert_eq!(client.timeouts(), 1);
    drop(client);
    let bytes = mute.join().unwrap();
    let (msg, used) = decode(&bytes).expect("one whole frame");
    assert!(matches!(msg, WireMsg::Request { id: a, .. } if a == id));
    assert_eq!(used, bytes.len(), "written once");
}
