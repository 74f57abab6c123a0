//! The [`AllocService`] contract, stated once and run on both
//! transports: against a [`ProductionAllocService`] in process, and
//! against a [`WireClient`] in front of one over loopback TCP. Then what
//! only the socket can do to a request — refuse it at admission, never
//! answer it — and that the trait view keeps the client's burst and
//! deadline rules.

use adca_baselines::FixedNode;
use adca_hexgrid::{CellId, Topology};
use adca_serve::{
    AllocService, ChannelRequest, Confirm, Indication, ProductionAllocService, ProductionConfig,
    ServeError, Ticket,
};
use adca_simkit::DropCause;
use adca_wire::{deadline_wheel, decode, WireClient, WireClientConfig, WireMsg, WireServer};
use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A day of 1 ms ticks: only a release or a handoff ends such a call.
const FOREVER: u64 = 86_400_000;
const PATIENCE: Duration = Duration::from_secs(10);

fn production() -> ProductionAllocService<FixedNode> {
    let cfg = ProductionConfig {
        workers: 2,
        ns_per_tick: 1_000_000,
        ..ProductionConfig::default()
    };
    ProductionAllocService::new(Arc::new(Topology::default_paper(6, 6)), cfg, FixedNode::new)
}

fn next_confirm<S: AllocService>(svc: &mut S) -> Confirm {
    let give_up = Instant::now() + PATIENCE;
    loop {
        if let Some(c) = svc.recv_confirm(Duration::from_millis(50)) {
            return c;
        }
        assert!(Instant::now() < give_up, "no confirm");
    }
}

fn next_indication<S: AllocService>(svc: &mut S) -> Indication {
    let give_up = Instant::now() + PATIENCE;
    loop {
        if let Some(i) = svc.indication() {
            return i;
        }
        assert!(Instant::now() < give_up, "no indication");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What a caller may rely on whatever is behind the trait.
fn contract<S: AllocService>(svc: &mut S) {
    assert!(svc.quiesce(PATIENCE), "nothing is in flight yet");
    assert_eq!(
        svc.release(Ticket(7_777)),
        Err(ServeError::UnknownTicket(Ticket(7_777))),
        "a ticket that was never issued"
    );

    // The confirm carries the ticket `request_channel` returned.
    let call = svc
        .request_channel(ChannelRequest::new_call(0, CellId(7), FOREVER))
        .expect("admitted");
    match next_confirm(svc) {
        Confirm::Granted { ticket, cell, .. } => assert_eq!((ticket, cell), (call, CellId(7))),
        other => panic!("an idle cell grants: {other:?}"),
    }
    assert!(svc.quiesce(PATIENCE), "confirmed, so no longer in flight");

    // A release comes back as an indication under the same ticket.
    svc.release(call).expect("the call is holding");
    let Indication::Released { ticket, cell, .. } = next_indication(svc);
    assert_eq!((ticket, cell), (call, CellId(7)));
    assert_eq!(svc.stats().completed, 1);
    assert_eq!(svc.release(call), Ok(()), "the race is benign");

    // A handoff names its source by the caller's own ticket.
    let src = svc
        .request_channel(ChannelRequest::new_call(0, CellId(1), FOREVER))
        .expect("admitted");
    assert_eq!(next_confirm(svc).ticket(), src);
    let hop = svc
        .request_channel(ChannelRequest::handoff(0, src, CellId(2), FOREVER))
        .expect("the source is holding");
    match next_confirm(svc) {
        Confirm::Granted { ticket, cell, .. } => assert_eq!((ticket, cell), (hop, CellId(2))),
        other => panic!("a handoff into an idle cell is granted: {other:?}"),
    }
    let Indication::Released { ticket, cell, .. } = next_indication(svc);
    assert_eq!((ticket, cell), (src, CellId(1)), "break before make");

    // The draining call: three 20 ms calls, everything exactly once,
    // and no release handed out ahead of its grant.
    let short: HashSet<Ticket> = (10..13)
        .map(|cell| {
            svc.request_channel(ChannelRequest::new_call(0, CellId(cell), 20))
                .expect("admitted")
        })
        .collect();
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    let give_up = Instant::now() + PATIENCE;
    while indications.len() < short.len() {
        assert!(Instant::now() < give_up, "the holds never expired");
        svc.recv_answers(Duration::from_millis(50), &mut confirms, &mut indications);
        for Indication::Released { ticket, .. } in &indications {
            assert!(
                confirms.iter().any(|c| c.ticket() == *ticket),
                "{ticket} released before it was granted"
            );
        }
    }
    svc.recv_answers(Duration::from_millis(50), &mut confirms, &mut indications);
    assert!(svc.confirm().is_none() && svc.indication().is_none());
    let granted: HashSet<Ticket> = confirms.iter().map(Confirm::ticket).collect();
    let released: HashSet<Ticket> = (indications.iter())
        .map(|Indication::Released { ticket, .. }| *ticket)
        .collect();
    assert_eq!((confirms.len(), indications.len()), (3, 3), "once each");
    assert!(confirms.iter().all(Confirm::is_granted));
    assert_eq!((&granted, &released), (&short, &short));
    assert!(svc.quiesce(PATIENCE));

    // A burst: one result a request, in order. A refusal in mid-burst
    // refuses that request alone and takes no ticket; a handoff in
    // mid-burst releases its source and is answered once, at its target.
    let src = svc
        .request_channel(ChannelRequest::new_call(0, CellId(21), FOREVER))
        .expect("admitted");
    assert_eq!(next_confirm(svc).ticket(), src);
    let offered = svc.stats().offered;
    let burst = [
        ChannelRequest::new_call(0, CellId(22), FOREVER),
        ChannelRequest::handoff(0, Ticket(9_999), CellId(23), FOREVER),
        ChannelRequest::handoff(0, src, CellId(24), FOREVER),
        ChannelRequest::new_call(0, CellId(999), FOREVER),
        ChannelRequest::new_call(0, CellId(25), FOREVER),
    ];
    let mut out = Vec::new();
    svc.request_channels(&burst, &mut out);
    assert_eq!(out.len(), burst.len(), "one result a request");
    assert_eq!(out[1], Err(ServeError::UnknownTicket(Ticket(9_999))));
    let admitted = |r: Result<Ticket, ServeError>| r.expect("admitted");
    let (first, hop, last) = (admitted(out[0]), admitted(out[2]), admitted(out[4]));
    assert_eq!(hop.0, first.0 + 1, "the refused handoff took no ticket");
    let mut expect: HashMap<Ticket, CellId> =
        HashMap::from([(first, CellId(22)), (hop, CellId(24)), (last, CellId(25))]);
    // The wire client cannot know the cell: it issues a ticket, the
    // server refuses the request, and its one confirm is a `Blocked`
    // rejection.
    let mut refused = match out[3] {
        Ok(ticket) => Some(ticket),
        Err(e) => {
            assert_eq!(e, ServeError::UnknownCell(CellId(999)));
            assert_eq!(last.0, hop.0 + 1, "the unknown cell took no ticket");
            None
        }
    };
    while !expect.is_empty() || refused.is_some() {
        match next_confirm(svc) {
            Confirm::Granted { ticket, cell, .. } => {
                assert_eq!(
                    expect.remove(&ticket),
                    Some(cell),
                    "{ticket}: once, in its cell"
                )
            }
            Confirm::Rejected {
                ticket,
                cell: CellId(999),
                cause: DropCause::Blocked,
            } if refused == Some(ticket) => refused = None,
            other => panic!("idle cells grant: {other:?}"),
        }
    }
    let Indication::Released { ticket, cell, .. } = next_indication(svc);
    assert_eq!((ticket, cell), (src, CellId(21)), "break before make");
    assert!(svc.quiesce(PATIENCE));
    assert!(svc.confirm().is_none() && svc.indication().is_none());
    assert_eq!(svc.stats().offered, offered + 3);

    // A wait with no limit is a wait, not a panic on the deadline sum:
    // with the answer on its way, both calls return once it is there.
    let call = svc
        .request_channel(ChannelRequest::new_call(0, CellId(20), FOREVER))
        .expect("admitted");
    assert!(svc.quiesce(Duration::MAX), "the confirm arrives");
    let confirm = svc.recv_confirm(Duration::MAX).expect("queued");
    assert!(confirm.is_granted() && confirm.ticket() == call);
}

#[test]
fn contract_holds_in_process() {
    contract(&mut production());
}

#[test]
fn contract_holds_over_the_wire() {
    let mut svc = production();
    // Three calls of the backend's own first, come and gone: from here
    // on no server ticket equals the id of the request it answers, so
    // the view has to translate, both ways.
    for cell in 30..33 {
        svc.request_channel(ChannelRequest::new_call(0, CellId(cell), 1))
            .expect("admitted");
    }
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    while indications.len() < 3 {
        svc.recv_answers(PATIENCE, &mut confirms, &mut indications);
    }
    let server = WireServer::start(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(
        server.local_addr(),
        WireClientConfig::default(),
        &deadline_wheel(),
    )
    .expect("connect");
    contract(&mut client);
    assert_eq!(client.timeouts(), 0);
    assert_eq!(client.refused(), 1, "the burst's unknown cell");
    // The client's counts are the backend's: eleven calls offered and
    // granted, none lost or doubled on the way.
    let (near, far) = (client.stats(), svc.stats());
    assert_eq!((near.offered, near.granted), (11, 11));
    assert_eq!((far.offered, far.granted), (3 + 11, 3 + 11));
    assert!(far.violations.is_empty(), "{:?}", far.violations);
}

/// A refusal is the ticket's one confirm, and was never offered.
#[test]
fn a_refused_request_is_confirmed_once_as_blocked() {
    let server = WireServer::start(production(), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(
        server.local_addr(),
        WireClientConfig::default(),
        &deadline_wheel(),
    )
    .expect("connect");
    let ticket = client
        .request_channel(ChannelRequest::new_call(0, CellId(999), 10))
        .expect("the server refuses, not the client");
    assert_eq!(
        next_confirm(&mut client),
        Confirm::Rejected {
            ticket,
            cell: CellId(999),
            cause: DropCause::Blocked
        }
    );
    assert_eq!(client.recv_confirm(Duration::from_millis(100)), None);
    assert_eq!(client.refused(), 1);
    assert_eq!(client.stats().offered, 0);
    assert!(client.quiesce(PATIENCE));

    // A handoff has to name a call this view has seen granted.
    assert!(matches!(
        client.request_channel(ChannelRequest::handoff(0, ticket, CellId(2), 10)),
        Err(ServeError::BadHandoff(_))
    ));
    assert_eq!(
        client.request_channel(ChannelRequest::handoff(0, Ticket(55), CellId(2), 10)),
        Err(ServeError::UnknownTicket(Ticket(55)))
    );
}

/// Accepts one connection and swallows what it sends until it closes;
/// returns every byte received (`wire_batching.rs`'s black-hole peer).
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

/// Against a peer that never answers, a driver that knows only the
/// trait still times out (the view services the deadlines): every
/// request is written once, and every ticket resolves once, as a
/// rejection whose deadline passed with no answer.
#[test]
fn a_mute_server_rejects_every_ticket_once_as_retry_exhausted() {
    const N: usize = 16;
    let (addr, sink) = black_hole();
    let cfg = WireClientConfig {
        deadline: Duration::from_millis(40),
        ..WireClientConfig::default()
    };
    let mut client = WireClient::connect(addr, cfg, &deadline_wheel()).expect("connect");
    let mut waiting: HashMap<Ticket, CellId> = (0..N as u32)
        .map(|cell| {
            let req = ChannelRequest::new_call(0, CellId(cell), 10);
            (
                client.request_channel(req).expect("connected"),
                CellId(cell),
            )
        })
        .collect();
    assert!(!client.quiesce(Duration::ZERO), "all of them in flight");

    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    let give_up = Instant::now() + PATIENCE;
    while !waiting.is_empty() {
        assert!(Instant::now() < give_up, "stalled");
        client.recv_answers(Duration::from_millis(20), &mut confirms, &mut indications);
        for confirm in confirms.drain(..) {
            let Confirm::Rejected {
                ticket,
                cell,
                cause: DropCause::RetryExhausted,
            } = confirm
            else {
                panic!("unexpected {confirm:?}");
            };
            assert_eq!(waiting.remove(&ticket), Some(cell), "{ticket} twice");
        }
    }
    assert!(indications.is_empty());
    assert!(client.quiesce(Duration::ZERO));
    assert_eq!(client.recv_confirm(Duration::from_millis(100)), None);
    assert_eq!(client.timeouts(), N as u64);
    let stats = client.stats();
    assert_eq!((stats.offered, stats.rejected), (N as u64, N as u64));
    drop(client);

    // Each request went out once.
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

/// `request_channel` only queues. A loop that never calls `recv` or
/// `flush`, only the non-blocking `confirm()`, is answered all the
/// same: every receiving call of the view writes the queue out first.
#[test]
fn polling_confirm_alone_sends_the_request() {
    let server = WireServer::start(production(), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(
        server.local_addr(),
        WireClientConfig::default(),
        &deadline_wheel(),
    )
    .expect("connect");
    let ticket = client
        .request_channel(ChannelRequest::new_call(0, CellId(3), FOREVER))
        .expect("connected");
    assert_eq!(client.writes(), 0, "queued, not written");
    let give_up = Instant::now() + PATIENCE;
    let confirm = loop {
        if let Some(c) = client.confirm() {
            break c;
        }
        assert!(Instant::now() < give_up, "the request never left");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(confirm.is_granted() && confirm.ticket() == ticket);
    assert_eq!(client.writes(), 1);
}
