//! What must survive the burst being the unit on the wire — one write
//! a burst of submits, one write a batch of answers — and the client
//! reading its own socket: every request answered exactly once and in
//! order under pipelining, each connection its own answers, each
//! request written once and timed out once with nothing armed on the
//! wheel, a long wait woken by the front's deadline, a zero wait that
//! reads what arrived, a failed `submit` registering nothing, and a
//! `shutdown` that races the accept loop. And what must survive the
//! server's idempotency state being one expected id a connection: a
//! retry of an answered id is dropped without reaching the backend, an
//! id that skips ahead closes the connection, and hostile ids get a
//! typed outcome.

use adca_baselines::FixedNode;
use adca_hexgrid::{CellId, Topology};
use adca_serve::{AllocService, ChannelRequest, ProductionAllocService, ProductionConfig};
use adca_wire::{
    deadline_wheel, decode, encode, FrameDecoder, WireClient, WireClientConfig, WireEvent, WireMsg,
    WireServer,
};
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
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

const DAY: u64 = 86_400 * 10_000_000; // in 100 ns ticks

/// `requests` new calls over `client`, 256 in flight, 20 µs holds, the
/// k-th to `cell_of(k)`: every id is answered exactly once and by a
/// grant or rejection of the cell it named, and a ticket's `Released`
/// never overtakes its `Granted`. Returns the grants.
fn pipeline(client: &mut WireClient, requests: u64, cell_of: impl Fn(u64) -> CellId) -> u64 {
    const IN_FLIGHT: u64 = 256;
    let mut submitted = 0u64;
    let mut answered: HashSet<u64> = HashSet::new();
    let mut holding: HashSet<u64> = HashSet::new();
    let (mut granted, mut released) = (0u64, 0u64);
    let give_up = Instant::now() + Duration::from_secs(120);
    while (answered.len() as u64) < requests || released < granted {
        while submitted < requests && submitted - (answered.len() as u64) < IN_FLIGHT {
            let id = client
                .submit(&ChannelRequest::new_call(0, cell_of(submitted), 200))
                .expect("submit");
            assert_eq!(id, submitted, "ids are handed out in submit order");
            submitted += 1;
        }
        assert!(Instant::now() < give_up, "stalled at {}", answered.len());
        match client.recv(Duration::from_millis(100)) {
            Some(WireEvent::Granted {
                id, ticket, cell, ..
            }) => {
                assert!(id < submitted && answered.insert(id), "id {id} twice");
                assert_eq!(CellId(cell), cell_of(id), "another request's answer");
                assert!(holding.insert(ticket), "ticket {ticket} granted twice");
                granted += 1;
            }
            Some(WireEvent::Rejected { id, cell, .. }) => {
                assert!(id < submitted && answered.insert(id), "id {id} twice");
                assert_eq!(CellId(cell), cell_of(id), "another request's answer");
            }
            Some(WireEvent::Released { ticket, .. }) => {
                assert!(
                    holding.remove(&ticket),
                    "released {ticket} before its grant, or not this connection's"
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
    granted
}

/// 20 000 requests over one connection: the server's dispatcher and
/// writer and the client's reads all work in batches of whatever has
/// queued up (this driver re-submits after every answer, so its own
/// bursts are of one).
#[test]
fn pipelined_answers_come_exactly_once_and_in_order() {
    const REQUESTS: u64 = 20_000;
    let topo = Arc::new(Topology::default_paper(4, 4));
    let cells = topo.num_cells() as u64;
    let svc = production(&topo, 100);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let mut client = WireClient::connect(server.local_addr(), WireClientConfig::default(), &wheel)
        .expect("connect");
    let granted = pipeline(&mut client, REQUESTS, |k| CellId((k % cells) as u32));
    let stats = svc.stats();
    assert_eq!(stats.offered, REQUESTS);
    assert_eq!(stats.granted, granted);
    assert!(stats.violations.is_empty(), "Theorem-1 audit clean");
    assert_eq!(wheel.pending(), 0, "the client arms nothing");
}

/// Two connections pipelining at once, so that the dispatcher's bursts
/// mix their answers: each connection gets only its own — one asks the
/// even cells and one the odd, and both use the same ids — each exactly
/// once, and no `Released` before its `Granted`.
#[test]
fn two_connections_each_get_only_their_own_answers() {
    const REQUESTS: u64 = 10_000;
    let topo = Arc::new(Topology::default_paper(4, 4));
    let half = topo.num_cells() as u64 / 2;
    let svc = production(&topo, 100);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let start = Barrier::new(2);
    let granted: u64 = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..2u64)
            .map(|parity| {
                let (wheel, start) = (&wheel, &start);
                let addr = server.local_addr();
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr, WireClientConfig::default(), wheel)
                        .expect("connect");
                    start.wait();
                    pipeline(&mut client, REQUESTS, |k| {
                        CellId((2 * (k % half) + parity) as u32)
                    })
                })
            })
            .collect();
        drivers.into_iter().map(|d| d.join().expect("driver")).sum()
    });
    let stats = svc.stats();
    assert_eq!(stats.offered, 2 * REQUESTS);
    assert_eq!(stats.granted, granted);
    assert!(stats.violations.is_empty(), "Theorem-1 audit clean");
    assert_eq!(server.dedup_hits(), 0);
}

/// Requests submitted through the backend's own handle while a client
/// pipelines over the wire: the server's dispatcher takes their answers
/// too, finds no route and drops them, so the client still gets each of
/// its own answers exactly once and nothing else, and the backend counts
/// the direct requests like any other.
#[test]
fn answers_nobody_on_the_wire_asked_for_are_dropped() {
    const REQUESTS: u64 = 20_000;
    let topo = Arc::new(Topology::default_paper(4, 4));
    let cells = topo.num_cells() as u64;
    let mut svc = production(&topo, 100);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let mut client = WireClient::connect(server.local_addr(), WireClientConfig::default(), &wheel)
        .expect("connect");
    let (granted, direct) = std::thread::scope(|scope| {
        let wire = scope.spawn(|| pipeline(&mut client, REQUESTS, |k| CellId((k % cells) as u32)));
        let burst: Vec<_> = (0..8u32)
            .map(|c| ChannelRequest::new_call(0, CellId(c), 200))
            .collect();
        let (mut direct, mut results) = (0u64, Vec::new());
        while !wire.is_finished() {
            svc.request_channels(&burst, &mut results);
            assert!(
                results.drain(..).all(|r| r.is_ok()),
                "a direct request refused"
            );
            direct += burst.len() as u64;
            std::thread::sleep(Duration::from_micros(200));
        }
        (wire.join().expect("the wire load"), direct)
    });
    assert!(direct > 0, "no request was submitted beside the load");
    assert!(svc.quiesce(Duration::from_secs(10)), "the backend settles");
    assert_eq!(
        client.recv(Duration::from_millis(50)),
        None,
        "no direct answer reached the client"
    );
    let stats = svc.stats();
    assert_eq!(stats.offered, REQUESTS + direct);
    assert_eq!(stats.granted + stats.rejected, REQUESTS + direct);
    assert!(
        stats.granted > granted,
        "the direct requests were served too"
    );
    assert!(stats.violations.is_empty(), "Theorem-1 audit clean");
}

/// The frame of a new call at `cell` that holds for a day (every new
/// call's frame is as long).
fn request_frame(id: u64, cell: u32) -> Vec<u8> {
    encode(&WireMsg::Request {
        id,
        at: 0,
        cell,
        kind: adca_simkit::RequestKind::NewCall,
        hold: DAY,
        handoff_of: None,
    })
}

/// A listening socket, a client connected to it, and the peer's end.
fn client_and_peer(cfg: WireClientConfig) -> (WireClient, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let client = WireClient::connect(listener.local_addr().expect("addr"), cfg, &deadline_wheel())
        .expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    (client, peer)
}

/// Reads `peer` until `n` whole request frames have arrived and returns
/// their ids in arrival order.
fn read_request_ids(peer: &mut TcpStream, dec: &mut FrameDecoder, n: usize) -> Vec<u64> {
    peer.set_nonblocking(false).expect("blocking");
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut ids = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(msg) = dec.next_frame().expect("sound frames") {
            let WireMsg::Request { id, .. } = msg else {
                panic!("unexpected {msg:?}");
            };
            ids.push(id);
        }
        if ids.len() >= n {
            return ids;
        }
        let got = peer.read(&mut buf).expect("frames on their way");
        assert!(got > 0, "closed after {} frames", ids.len());
        dec.extend(&buf[..got]);
    }
}

/// Whether a read of `peer` that does not wait finds nothing.
fn nothing_arrived(peer: &mut TcpStream) -> bool {
    peer.set_nonblocking(true).expect("non-blocking");
    matches!(peer.read(&mut [0u8; 64]), Err(e) if e.kind() == ErrorKind::WouldBlock)
}

/// 64 submits are queued — the peer sees nothing — until the driver
/// turns to listen: then they leave in one write, whole and in order.
/// `flush` does the same for a driver that will block elsewhere.
#[test]
fn a_burst_of_submits_is_one_write() {
    const BURST: u64 = 64;
    let (mut client, mut peer) = client_and_peer(WireClientConfig::default());
    let mut dec = FrameDecoder::new();
    for turn in 0..2u64 {
        for k in 0..BURST {
            let id = client
                .submit(&ChannelRequest::new_call(0, CellId(k as u32), 10))
                .expect("submit");
            assert_eq!(id, turn * BURST + k);
        }
        assert_eq!(client.writes(), turn, "submits only queue");
        assert!(nothing_arrived(&mut peer));
        if turn == 0 {
            assert_eq!(client.recv(Duration::ZERO), None);
        } else {
            client.flush().expect("flush");
        }
        assert_eq!(client.writes(), turn + 1, "one write for the burst");
        let ids = read_request_ids(&mut peer, &mut dec, BURST as usize);
        assert!(ids.into_iter().eq(turn * BURST..(turn + 1) * BURST));
        assert_eq!(dec.buffered(), 0, "whole frames only");
    }
    // Nothing queued: neither call writes.
    client.flush().expect("flush");
    assert_eq!(client.recv(Duration::ZERO), None);
    assert_eq!(client.writes(), 2);
    assert_eq!(client.in_flight(), 2 * BURST as usize);
}

/// A driver that only submits is not held to its next `recv`: the queue
/// leaves by itself when it reaches 16 KiB.
#[test]
fn submits_past_the_threshold_leave_without_a_recv() {
    let (mut client, mut peer) = client_and_peer(WireClientConfig::default());
    let fill = (16 * 1024usize).div_ceil(request_frame(0, 0).len());
    for _ in 0..fill - 1 {
        client
            .submit(&ChannelRequest::new_call(0, CellId(0), 10))
            .expect("submit");
    }
    assert_eq!(client.writes(), 0);
    assert!(nothing_arrived(&mut peer));
    for _ in 0..10 {
        client
            .submit(&ChannelRequest::new_call(0, CellId(0), 10))
            .expect("submit");
    }
    assert_eq!(client.writes(), 1, "the submit that filled the queue wrote");
    let mut dec = FrameDecoder::new();
    let ids = read_request_ids(&mut peer, &mut dec, fill);
    assert!(ids.into_iter().eq(0..fill as u64), "the other nine wait");
    assert_eq!(dec.buffered(), 0);
    assert!(nothing_arrived(&mut peer));
}

/// `release` then drop, with no `recv` in between: the drop writes the
/// queue out before it closes, so the call ends at the server.
#[test]
fn a_release_queued_at_drop_still_reaches_the_server() {
    let topo = Arc::new(Topology::default_paper(3, 3));
    let svc = production(&topo, 100);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(
        server.local_addr(),
        WireClientConfig::default(),
        &deadline_wheel(),
    )
    .expect("connect");
    client
        .submit(&ChannelRequest::new_call(0, CellId(4), DAY))
        .expect("submit");
    let Some(WireEvent::Granted { ticket, .. }) = client.recv(Duration::from_secs(10)) else {
        panic!("an idle cell grants");
    };
    client.release(ticket).expect("queued");
    drop(client);
    let give_up = Instant::now() + Duration::from_secs(10);
    while svc.stats().completed < 1 {
        assert!(Instant::now() < give_up, "the release never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// With one request in flight nothing is held back for a batch: each
/// `submit` + `recv` is one write.
#[test]
fn one_in_flight_is_one_write_a_request() {
    const N: u64 = 200;
    let topo = Arc::new(Topology::default_paper(3, 3));
    let svc = production(&topo, 100);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(
        server.local_addr(),
        WireClientConfig::default(),
        &deadline_wheel(),
    )
    .expect("connect");
    for k in 0..N {
        let id = client
            .submit(&ChannelRequest::new_call(0, CellId((k % 9) as u32), 200))
            .expect("submit");
        loop {
            match client.recv(Duration::from_secs(10)) {
                Some(WireEvent::Granted { id: got, .. }) => break assert_eq!(got, id),
                Some(WireEvent::Released { .. }) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    assert_eq!(client.writes(), N);
    assert_eq!(client.retries(), 0);
}

/// A retry of an *answered* id is dropped: no frame comes back, the
/// backend never sees the request again, and it counts as a dedup hit.
/// Likewise for a request refused at admission. Each id is resent the
/// moment its answer has been read, and the next id's answer is the
/// next frame on the connection, so a reply to a retry would be read
/// in its place.
#[test]
fn a_retry_of_an_answered_id_is_dropped() {
    const IDS: u64 = 200;
    let (svc, server, mut raw) = raw_server();
    let mut dec = FrameDecoder::new();
    // Day-long calls, twenty a cell against ten primaries, and every
    // tenth to a cell that does not exist.
    let (mut granted, mut rejected, mut refused) = (0, 0, 0);
    for id in 0..IDS {
        let cell = if id % 10 == 9 { 999 } else { (id % 9) as u32 };
        let frame = request_frame(id, cell);
        raw.write_all(&frame).expect("send");
        let got = read_frames(&mut raw, &mut dec, 1);
        match got[..] {
            [WireMsg::Granted { id: a, cell: c, .. }] if (a, c) == (id, cell) => granted += 1,
            [WireMsg::Rejected { id: a, cell: c, .. }] if (a, c) == (id, cell) => rejected += 1,
            [WireMsg::Refused { id: a, .. }] if (a, cell) == (id, 999) => refused += 1,
            _ => panic!("unexpected {got:?}"),
        }
        assert_eq!(server.dedup_hits(), id);
        let offered = svc.stats().offered;
        assert_eq!(offered, granted + rejected, "each admitted id offered once");
        raw.write_all(&frame).expect("send again");
        let give_up = Instant::now() + Duration::from_secs(10);
        while server.dedup_hits() == id && svc.stats().offered == offered {
            assert!(
                Instant::now() < give_up,
                "id {id}: the retry was never read"
            );
            std::thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(server.dedup_hits(), id + 1);
        assert_eq!(
            svc.stats().offered,
            offered,
            "id {id} reached the backend again"
        );
    }
    assert!(granted > 0 && rejected > 0 && refused > 0);
    assert_eq!(granted + rejected + refused, IDS);
    assert!(nothing_arrived(&mut raw), "a retry was answered");
}

/// The server admits a read together, and in frame order: one read
/// carries two requests, a retry of the first — still in flight, so
/// answered by nothing — and a release of the first's ticket. The
/// backend is offered each id once, and the release, behind the
/// requests, finds the call it ends: its `Released` comes back. Had it
/// run ahead of them it would have named a ticket not yet issued, and
/// the day-long call would have held on.
#[test]
fn a_read_is_admitted_together_and_in_frame_order() {
    let topo = Arc::new(Topology::default_paper(3, 3));
    let svc = production(&topo, 100);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // A fresh backend issues tickets from 0: the first request's is 0.
    let mut read = request_frame(0, 3);
    read.extend(request_frame(1, 4));
    read.extend(request_frame(0, 3));
    read.extend(encode(&WireMsg::Release { ticket: 0 }));
    raw.write_all(&read).expect("send one read");
    let (mut dec, mut got, mut buf) = (FrameDecoder::new(), Vec::new(), [0u8; 256]);
    while got.len() < 3 {
        let n = raw.read(&mut buf).expect("answers on their way");
        assert!(n > 0, "closed after {got:?}");
        dec.extend(&buf[..n]);
        while let Some(msg) = dec.next_frame().expect("sound answers") {
            got.push(msg);
        }
    }
    assert_eq!(got.len(), 3, "{got:?}");
    let granted = |id, cell| {
        got.iter()
            .position(|m| matches!(*m, WireMsg::Granted { id: a, ticket, cell: c, .. } if (a, ticket, c) == (id, id, cell)))
    };
    let released = got.iter().position(|m| {
        matches!(
            *m,
            WireMsg::Released {
                ticket: 0,
                cell: 3,
                ..
            }
        )
    });
    let (first, second) = (granted(0, 3), granted(1, 4));
    assert!(first.is_some() && second.is_some(), "{got:?}");
    assert!(released > first, "{got:?}");
    raw.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    assert!(
        raw.read(&mut [0u8; 64]).is_err(),
        "the retry is answered by nothing"
    );
    assert_eq!(server.dedup_hits(), 1);
    let stats = svc.stats();
    assert_eq!((stats.offered, stats.granted, stats.completed), (2, 2, 1));
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
/// written once and then times out exactly once, no earlier than its
/// deadline, while the wheel the client was handed holds nothing: the
/// client services its deadlines in its own reads.
#[test]
fn black_hole_sends_once_then_times_out_each_request_once() {
    const N: usize = 64;
    let (addr, sink) = black_hole();
    let wheel = deadline_wheel();
    let cfg = WireClientConfig {
        deadline: Duration::from_millis(40),
        ..WireClientConfig::default()
    };
    let mut client = WireClient::connect(addr, cfg, &wheel).expect("connect");
    let started = Instant::now();
    for s in 0..N {
        client
            .submit(&ChannelRequest::new_call(0, CellId(s as u32), 10))
            .expect("submit");
        assert_eq!(wheel.pending(), 0, "the client arms nothing");
    }
    assert_eq!(client.in_flight(), N);

    let mut timed_out = HashSet::new();
    while timed_out.len() < N {
        assert!(started.elapsed() < Duration::from_secs(20), "stalled");
        assert_eq!(wheel.pending(), 0);
        match client.recv(Duration::from_millis(20)) {
            Some(WireEvent::TimedOut { id }) => {
                // The write that carried it came after `started`.
                assert!(started.elapsed() >= cfg.deadline, "id {id} early");
                assert!(timed_out.insert(id), "id {id} twice");
            }
            Some(other) => panic!("unexpected {other:?}"),
            None => {}
        }
    }
    assert_eq!(
        client.recv(Duration::from_millis(100)),
        None,
        "nothing extra"
    );
    assert_eq!(wheel.pending(), 0);
    assert_eq!(client.in_flight(), 0);
    assert_eq!(client.timeouts(), N as u64);
    drop(client);

    let bytes = sink.join().expect("sink");
    let mut copies: HashMap<u64, usize> = HashMap::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let (msg, used) = decode(rest).expect("whole, sound frames only");
        let WireMsg::Request { id, .. } = msg else {
            panic!("unexpected {msg:?}");
        };
        *copies.entry(id).or_default() += 1;
        rest = &rest[used..];
    }
    assert_eq!(copies.len(), N);
    for (id, sent) in copies {
        assert_eq!(sent, 1, "id {id}: written once");
    }
}

/// A deadline no `Instant` can reach is none: the request goes out once
/// and waits for its answer, never retransmitted and never timed out —
/// where the deadline sum used to panic in `submit`. The client arms
/// nothing on the wheel, as for any deadline.
#[test]
fn an_endless_deadline_neither_retries_nor_times_out() {
    let (addr, sink) = black_hole();
    let wheel = deadline_wheel();
    let cfg = WireClientConfig {
        deadline: Duration::MAX,
        ..WireClientConfig::default()
    };
    let mut client = WireClient::connect(addr, cfg, &wheel).expect("connect");
    let id = client
        .submit(&ChannelRequest::new_call(0, CellId(1), 10))
        .expect("submit");
    assert_eq!(client.recv(Duration::from_millis(100)), None);
    assert_eq!(wheel.pending(), 0, "the client arms nothing");
    assert_eq!(client.in_flight(), 1);
    assert_eq!((client.retries(), client.timeouts()), (0, 0));
    drop(client);
    let bytes = sink.join().expect("sink");
    let (msg, used) = decode(&bytes).expect("one whole frame");
    assert!(matches!(msg, WireMsg::Request { id: a, .. } if a == id));
    assert_eq!(used, bytes.len(), "sent once");
}

/// A wait ends at the front request's deadline, not at its own end:
/// against a peer that never answers, a 10 s `recv` returns the
/// request's `TimedOut` no earlier than the 40 ms deadline and long
/// before the 10 s are up.
#[test]
fn a_long_recv_wakes_at_the_front_deadline() {
    let (addr, sink) = black_hole();
    let cfg = WireClientConfig {
        deadline: Duration::from_millis(40),
        ..WireClientConfig::default()
    };
    let mut client = WireClient::connect(addr, cfg, &deadline_wheel()).expect("connect");
    let id = client
        .submit(&ChannelRequest::new_call(0, CellId(1), 10))
        .expect("submit");
    let started = Instant::now();
    assert_eq!(
        client.recv(Duration::from_secs(10)),
        Some(WireEvent::TimedOut { id })
    );
    let waited = started.elapsed();
    assert!(waited >= cfg.deadline, "timed out early, after {waited:?}");
    assert!(
        waited < Duration::from_secs(2),
        "woke only at the wait's end, after {waited:?}"
    );
    drop(client);
    sink.join().expect("sink");
}

/// A `recv` that does not wait reads the socket itself, and does not
/// wait for it: before the peer answers it returns `None`, and once the
/// grant is in the socket a poll returns it — no thread of the
/// client's reads it in between. The peer answers when the first poll
/// is over, or after `PATIENCE` should that poll wait for it instead.
#[test]
fn a_zero_wait_recv_reads_what_arrived() {
    const PATIENCE: Duration = Duration::from_secs(5);
    let (mut client, mut peer) = client_and_peer(WireClientConfig::default());
    let id = client
        .submit(&ChannelRequest::new_call(0, CellId(3), 10))
        .expect("submit");
    client.flush().expect("flush");
    assert_eq!(
        read_request_ids(&mut peer, &mut FrameDecoder::new(), 1),
        [id]
    );
    let (polled, answer_now) = mpsc::channel::<()>();
    let answer = std::thread::spawn(move || {
        let _ = answer_now.recv_timeout(PATIENCE);
        let grant = encode(&WireMsg::Granted {
            id,
            ticket: 7,
            cell: 3,
            channel: 5,
            latency: 1,
        });
        peer.write_all(&grant).expect("answer");
        peer
    });
    assert_eq!(
        client.recv(Duration::ZERO),
        None,
        "nothing had arrived: the poll waited for the answer"
    );
    let _ = polled.send(());
    let give_up = Instant::now() + Duration::from_secs(10);
    let ev = loop {
        if let Some(ev) = client.recv(Duration::ZERO) {
            break ev;
        }
        assert!(Instant::now() < give_up, "the grant was never read");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        matches!(ev, WireEvent::Granted { id: got, ticket: 7, .. } if got == id),
        "got {ev:?}"
    );
    assert_eq!(client.in_flight(), 0);
    drop(answer.join().expect("peer"));
}

/// The peer answers request 0 twice once it has arrived: the driver
/// sees one grant and no timeout, and the request was written once —
/// the peer's next read is the end of the stream, not a second copy.
#[test]
fn a_duplicated_answer_is_delivered_once() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut dec = FrameDecoder::new();
        let ids = read_request_ids(&mut stream, &mut dec, 1);
        assert_eq!(ids, [0]);
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
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read until EOF");
        dec.extend(&rest);
        assert_eq!(dec.next_frame().expect("sound frames"), None, "sent once");
    });
    let wheel = deadline_wheel();
    let cfg = WireClientConfig {
        deadline: Duration::from_millis(30),
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
    assert_eq!(client.timeouts(), 0);
    assert_eq!(client.in_flight(), 0);
    drop(client);
    server.join().expect("server");
}

/// A `submit` that fails registered nothing. The peer closes its end
/// with ten requests in flight; further submits succeed until the
/// client's first read after the close — the one after the write of a
/// full queue — and fail from then on. Every id
/// that times out afterwards is one a `submit` returned, each exactly
/// once, and the peer, still reading, got each of them once.
#[test]
fn a_failed_submit_registers_nothing() {
    let cfg = WireClientConfig {
        deadline: Duration::from_millis(20),
        ..WireClientConfig::default()
    };
    let (mut client, mut peer) = client_and_peer(cfg);
    let request = ChannelRequest::new_call(0, CellId(0), 10);
    let mut returned: HashSet<u64> = (0..10)
        .map(|_| client.submit(&request).expect("connected"))
        .collect();
    peer.shutdown(Shutdown::Write)
        .expect("close the peer's end");
    let sink = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        peer.read_to_end(&mut bytes)
            .expect("read until the client closes");
        bytes
    });
    let started = Instant::now();
    while let Ok(id) = client.submit(&request) {
        assert!(returned.insert(id), "id {id} returned twice");
        assert!(started.elapsed() < Duration::from_secs(10), "never closed");
    }
    assert!(client.submit(&request).is_err(), "closed stays closed");
    let mut sent = returned.clone();
    while client.in_flight() > 0 {
        assert!(started.elapsed() < Duration::from_secs(20), "stalled");
        match client.recv(Duration::from_millis(5)) {
            Some(WireEvent::TimedOut { id }) => {
                assert!(returned.remove(&id), "id {id}: never returned, or twice")
            }
            Some(other) => panic!("unexpected {other:?}"),
            // A closed connection does not wait.
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    while let Some(ev) = client.recv(Duration::ZERO) {
        let WireEvent::TimedOut { id } = ev else {
            panic!("unexpected {ev:?}");
        };
        assert!(returned.remove(&id), "id {id}: never returned, or twice");
    }
    assert!(returned.is_empty(), "unresolved: {returned:?}");
    assert_eq!(client.in_flight(), 0);
    drop(client);

    let bytes = sink.join().expect("sink");
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let (msg, used) = decode(rest).expect("whole, sound frames only");
        let WireMsg::Request { id, .. } = msg else {
            panic!("unexpected {msg:?}");
        };
        assert!(sent.remove(&id), "id {id}: never returned, or sent twice");
        rest = &rest[used..];
    }
    assert!(sent.is_empty(), "never sent: {sent:?}");
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

/// Reads `raw` until `n` whole frames have arrived.
fn read_frames(raw: &mut TcpStream, dec: &mut FrameDecoder, n: usize) -> Vec<WireMsg> {
    let (mut got, mut buf) = (Vec::new(), [0u8; 256]);
    loop {
        while let Some(msg) = dec.next_frame().expect("sound frames") {
            got.push(msg);
        }
        if got.len() >= n {
            return got;
        }
        let k = raw.read(&mut buf).expect("frames on their way");
        assert!(k > 0, "closed after {got:?}");
        dec.extend(&buf[..k]);
    }
}

/// A raw connection to a fresh 3×3 fixed-scheme server.
fn raw_server() -> (ProductionAllocService<FixedNode>, WireServer, TcpStream) {
    let topo = Arc::new(Topology::default_paper(3, 3));
    let svc = production(&topo, 100);
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    (svc, server, raw)
}

/// Reads `raw` to its end, which must come within the read timeout:
/// the server closed the connection. Returns the frames before it.
fn read_to_close(raw: &mut TcpStream, dec: &mut FrameDecoder) -> Vec<WireMsg> {
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes)
        .expect("the server closes the connection");
    dec.extend(&bytes);
    let mut got = Vec::new();
    while let Some(msg) = dec.next_frame().expect("sound frames") {
        got.push(msg);
    }
    got
}

/// One read: requests 0 and 1, a release of 0's call, then a request
/// that skips id 2 and one more behind it. The frames before the skip
/// take effect — both calls offered, the first released — and then the
/// connection closes: neither request from the skip on is offered.
#[test]
fn a_request_that_skips_an_id_closes_the_connection() {
    let (svc, _server, mut raw) = raw_server();
    // A fresh backend issues tickets from 0: the first request's is 0.
    let mut read = request_frame(0, 3);
    read.extend(request_frame(1, 4));
    read.extend(encode(&WireMsg::Release { ticket: 0 }));
    read.extend(request_frame(3, 5));
    read.extend(request_frame(4, 6));
    raw.write_all(&read).expect("send one read");
    let got = read_to_close(&mut raw, &mut FrameDecoder::new());
    assert!(
        got.iter().all(|m| matches!(
            m,
            WireMsg::Granted { id: 0 | 1, .. } | WireMsg::Released { ticket: 0, .. }
        )),
        "{got:?}"
    );
    let give_up = Instant::now() + Duration::from_secs(10);
    while svc.stats().completed < 1 {
        assert!(Instant::now() < give_up, "the release never took effect");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = svc.stats();
    assert_eq!((stats.offered, stats.granted), (2, 2));
}

/// Hostile ids after ids 0–2 were admitted: one read carries the next
/// id, 3, which is admitted; 0, a retry, which is dropped; `u64::MAX`,
/// which skips ahead and closes the connection; and 4, which comes too
/// late to be admitted. A reader that panicked on one of them would not
/// have admitted id 3. CI runs this in a release build too, where
/// overflow would wrap.
#[test]
fn hostile_ids_get_a_typed_outcome() {
    let (svc, server, mut raw) = raw_server();
    let mut dec = FrameDecoder::new();
    for id in 0..3 {
        raw.write_all(&request_frame(id, id as u32)).expect("send");
        assert_eq!(read_frames(&mut raw, &mut dec, 1).len(), 1);
    }
    let mut read = request_frame(3, 3);
    read.extend(request_frame(0, 0));
    read.extend(request_frame(u64::MAX, 0));
    read.extend(request_frame(4, 4));
    raw.write_all(&read).expect("send");
    read_to_close(&mut raw, &mut dec);
    assert_eq!(
        svc.stats().offered,
        4,
        "id 3 admitted, nothing after the skip"
    );
    assert_eq!(server.dedup_hits(), 1, "id 0 was a dedup hit");
}
