//! What must survive waking and writing once per batch: every request
//! answered exactly once and in order under pipelining, the client's
//! retry schedule with one wheel entry a client, and a `shutdown` that
//! races the accept loop.

use adca_baselines::FixedNode;
use adca_hexgrid::{CellId, Topology};
use adca_serve::{AllocService, ChannelRequest, ProductionAllocService, ProductionConfig};
use adca_wire::{
    deadline_wheel, decode, encode, FrameDecoder, WireClient, WireClientConfig, WireEvent, WireMsg,
    WireServer,
};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn production(topo: &Arc<Topology>, ns_per_tick: u64) -> ProductionAllocService<FixedNode> {
    let cfg = ProductionConfig {
        workers: 2,
        ns_per_tick,
        ..ProductionConfig::default()
    };
    ProductionAllocService::new(topo.clone(), cfg, FixedNode::new)
}

/// 20 000 requests over one connection, 256 in flight, 20 µs holds: the
/// server's writer and the client's reader both work in batches of
/// whatever has queued up. Every id is answered exactly once, and a
/// ticket's `Released` never overtakes its `Granted`.
#[test]
fn pipelined_answers_come_exactly_once_and_in_order() {
    const REQUESTS: u64 = 20_000;
    const IN_FLIGHT: u64 = 256;
    let topo = Arc::new(Topology::default_paper(4, 4));
    let cells = topo.num_cells() as u64;
    let svc = production(&topo, 100);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let mut client = WireClient::connect(server.local_addr(), WireClientConfig::default(), &wheel)
        .expect("connect");

    let mut submitted = 0u64;
    let mut answered: HashSet<u64> = HashSet::new();
    let mut holding: HashSet<u64> = HashSet::new();
    let (mut granted, mut released) = (0u64, 0u64);
    let give_up = Instant::now() + Duration::from_secs(120);
    while (answered.len() as u64) < REQUESTS || released < granted {
        while submitted < REQUESTS && submitted - (answered.len() as u64) < IN_FLIGHT {
            let cell = CellId((submitted % cells) as u32);
            let id = client
                .submit(&ChannelRequest::new_call(0, cell, 200))
                .expect("submit");
            assert_eq!(id, submitted, "ids are handed out in submit order");
            submitted += 1;
        }
        assert!(Instant::now() < give_up, "stalled at {}", answered.len());
        match client.recv(Duration::from_millis(100)) {
            Some(WireEvent::Granted { id, ticket, .. }) => {
                assert!(id < submitted && answered.insert(id), "id {id} twice");
                assert!(holding.insert(ticket), "ticket {ticket} granted twice");
                granted += 1;
            }
            Some(WireEvent::Rejected { id, .. }) => {
                assert!(id < submitted && answered.insert(id), "id {id} twice");
            }
            Some(WireEvent::Released { ticket, .. }) => {
                assert!(
                    holding.remove(&ticket),
                    "released {ticket} before its grant"
                );
                released += 1;
            }
            Some(other) => panic!("unexpected {other:?}"),
            None => {}
        }
    }
    assert_eq!(
        client.recv(Duration::from_millis(50)),
        None,
        "nothing extra"
    );
    assert_eq!(client.in_flight(), 0);
    assert_eq!((client.retries(), client.timeouts()), (0, 0));
    assert!(granted > 0 && released == granted);
    let stats = svc.stats();
    assert_eq!(stats.offered, REQUESTS);
    assert_eq!(stats.granted, granted);
    assert!(stats.violations.is_empty(), "Theorem-1 audit clean");
    assert!(
        wheel.pending() <= 1,
        "one wheel entry a client, not one a request"
    );
}

/// Accepts one connection and swallows what it sends until it closes;
/// returns every byte received.
fn black_hole() -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let sink = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut bytes = Vec::new();
        stream
            .read_to_end(&mut bytes)
            .expect("read until the client closes");
        bytes
    });
    (addr, sink)
}

/// Against a server that never answers, each of N pipelined requests is
/// sent `1 + max_retries` times, byte for byte the same, and then times
/// out exactly once, while the shared wheel holds at most one entry for
/// the client whatever N is.
#[test]
fn black_hole_retries_then_times_out_each_request_once() {
    const N: usize = 64;
    let (addr, sink) = black_hole();
    let wheel = deadline_wheel();
    let cfg = WireClientConfig {
        deadline: Duration::from_millis(40),
        max_retries: 2,
        backoff: Duration::from_millis(5),
        ..WireClientConfig::default()
    };
    let mut client = WireClient::connect(addr, cfg, &wheel).expect("connect");
    let started = Instant::now();
    for s in 0..N {
        client
            .submit(&ChannelRequest::new_call(0, CellId(s as u32), 10))
            .expect("submit");
        assert!(
            wheel.pending() <= 1,
            "one entry a client, not one a request"
        );
    }
    assert_eq!(client.in_flight(), N);

    let mut timed_out = HashSet::new();
    while timed_out.len() < N {
        assert!(started.elapsed() < Duration::from_secs(20), "stalled");
        assert!(wheel.pending() <= 1);
        match client.recv(Duration::from_millis(20)) {
            Some(WireEvent::TimedOut { id }) => assert!(timed_out.insert(id), "id {id} twice"),
            Some(other) => panic!("unexpected {other:?}"),
            None => {}
        }
    }
    // Attempt k waits `deadline` plus the k-th backoff delay.
    assert!(started.elapsed() >= Duration::from_millis(40 + 45 + 50));
    assert_eq!(
        client.recv(Duration::from_millis(100)),
        None,
        "nothing extra"
    );
    assert_eq!(client.in_flight(), 0);
    assert_eq!(client.timeouts(), N as u64);
    assert_eq!(client.retries(), 2 * N as u64);
    drop(client);

    let bytes = sink.join().expect("sink");
    let mut copies: HashMap<u64, Vec<&[u8]>> = HashMap::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let (msg, used) = decode(rest).expect("whole, sound frames only");
        let WireMsg::Request { id, .. } = msg else {
            panic!("unexpected {msg:?}");
        };
        copies.entry(id).or_default().push(&rest[..used]);
        rest = &rest[used..];
    }
    assert_eq!(copies.len(), N);
    for (id, sent) in copies {
        assert_eq!(sent.len(), 3, "id {id}: first send and two retries");
        assert!(sent.iter().all(|f| *f == sent[0]), "id {id}: same bytes");
    }
}

/// The server answers request 0 only once its retry has arrived, and
/// then twice (the original's answer racing the retry's): the driver
/// sees one grant, no timeout.
#[test]
fn answer_racing_its_retry_is_delivered_once() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 1024];
        let mut seen = 0;
        while seen < 2 {
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "client went away early");
            dec.extend(&buf[..n]);
            while let Some(msg) = dec.next_frame().expect("sound frames") {
                assert!(matches!(msg, WireMsg::Request { id: 0, .. }));
                seen += 1;
            }
        }
        let grant = encode(&WireMsg::Granted {
            id: 0,
            ticket: 7,
            cell: 3,
            channel: 5,
            latency: 1,
        });
        stream
            .write_all(&[&grant[..], &grant[..]].concat())
            .expect("write");
        // Hold the connection until the client is done with it.
        let _ = stream.read(&mut buf);
    });
    let wheel = deadline_wheel();
    let cfg = WireClientConfig {
        deadline: Duration::from_millis(30),
        max_retries: 3,
        backoff: Duration::from_millis(5),
        ..WireClientConfig::default()
    };
    let mut client = WireClient::connect(addr, cfg, &wheel).expect("connect");
    let id = client
        .submit(&ChannelRequest::new_call(0, CellId(3), 10))
        .expect("submit");
    let ev = client.recv(Duration::from_secs(10));
    assert!(
        matches!(ev, Some(WireEvent::Granted { id: got, ticket: 7, .. }) if got == id),
        "got {ev:?}"
    );
    assert_eq!(client.recv(Duration::from_millis(200)), None, "once only");
    // One retry, unless the host stalled this test past a second deadline.
    assert!(client.retries() >= 1);
    assert_eq!(client.timeouts(), 0);
    assert_eq!(client.in_flight(), 0);
    drop(client);
    server.join().expect("server");
}

/// `shutdown` while connections are still arriving: one that the accept
/// loop registers after `shutdown` closed the ones it knew must still
/// be closed, or `shutdown` joins its reader for as long as the peer
/// stays (here: until the test gives up).
#[test]
fn shutdown_racing_connects_returns() {
    let topo = Arc::new(Topology::default_paper(3, 3));
    let svc = production(&topo, 1_000);
    for round in 0..200 {
        let mut server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr();
        let first = TcpStream::connect(addr).expect("connect");
        let start = Arc::new(Barrier::new(2));
        let connector = {
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                // Peers that stay: nothing but the server closes them.
                (0..8)
                    .filter_map(|_| TcpStream::connect(addr).ok())
                    .collect::<Vec<_>>()
            })
        };
        let (done, finished) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            start.wait();
            server.shutdown();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("round {round}: shutdown did not return"));
        stopper.join().expect("stopper");
        drop(connector.join().expect("connector"));
        drop(first);
    }
}
