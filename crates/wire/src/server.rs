//! [`WireServer`]: an [`AllocService`] on a real TCP listener.
//!
//! Threading model, per server:
//!
//! * one **accept** thread on the [`TcpListener`];
//! * per connection, a **reader**/**writer** worker pair — the reader
//!   decodes the frames of one read and admits their requests together
//!   on its own service clone, the writer drains that connection's
//!   outbox;
//! * one **dispatcher** thread that takes everything the backend has
//!   answered in one [`AllocService::recv_answers`], matches the burst
//!   with its routes under one lock, and hands each connection its run
//!   of frames under one outbox lock (the writer then sends them in one
//!   `write`).
//!
//! **Routing trusts two orders** and checks neither. A reader registers
//! the routes of a read's tickets under the `routes` lock it holds
//! across the backend call, so no answer to a request admitted here can
//! reach the dispatcher before its route; an answer that finds none was
//! not admitted through this server, and it is dropped. And the backend
//! never hands out a ticket's `Released` by an earlier
//! [`recv_answers`](AllocService::recv_answers) call than its
//! `Granted`: the dispatcher stages a burst's confirms before its
//! indications, so the frames keep that order on the wire.
//!
//! **Backpressure** needs no queue of its own: the reader admits a
//! read — the Request frames of one `read`, at most 16 KiB of them — in
//! one [`AllocService::request_channels`] call, which on the production
//! backend pushes one run a destination worker and blocks while that
//! worker's bounded mailbox is full. A blocked reader stops reading,
//! the kernel receive buffer fills, the client's TCP window closes, and
//! the client's `write` stalls — mailbox pressure propagated to the
//! socket with no unbounded buffer anywhere on the path, and a mailbox
//! overshoots its bound by one read at most. A Release frame, or one
//! that closes the connection, first admits the requests read before
//! it, so frames take effect in the order they came.
//!
//! **Idempotency**: a client numbers a connection's requests 0, 1, 2, …
//! and the connection's reader keeps one number, the id it expects
//! next. A request that carries it is admitted. One below it was
//! admitted before and is dropped, with no reply and no backend call,
//! so a duplicated request can never double-commit a grant. The
//! duplicate needs no answer of its own: the connection is one TCP
//! stream, so the original's answer reaches the client once, in order,
//! or not at all when the connection is gone. An id above the
//! expected one skips an id, which no client does, and closes the
//! connection. So a connection's idempotency state is one `u64`,
//! whatever it has served.

use crate::frame::{encode_into, FrameDecoder, WireMsg};
use adca_hexgrid::CellId;
use adca_serve::{AllocService, ChannelRequest, Confirm, Indication, ServeError, Ticket};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest the idle dispatcher waits for the backend before it looks at
/// the `stopping` flag again (nothing of the server's can wake it out
/// of the backend's wait, and `shutdown` joins it).
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// Where a ticket's answers go: which connection, under which client id.
struct Route {
    conn: u64,
    id: u64,
}

/// Server ticket → its [`Route`].
type Routes = HashMap<u64, Route, BuildHasherDefault<TicketHasher>>;

/// Hashes a ticket with one multiply. Tickets are issued by the
/// backend, never chosen by a peer, so no key is picked to collide and
/// a keyed hash buys nothing; an odd multiplier keeps consecutive
/// tickets apart in the low bits and spreads them into the high ones.
#[derive(Default)]
struct TicketHasher(u64);

impl Hasher for TicketHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Per-connection outbound bytes: whole frames back to back, taken by
/// the writer worker all at once.
#[derive(Default)]
struct Outbox {
    q: Mutex<OutboxState>,
    cv: Condvar,
}

#[derive(Default)]
struct OutboxState {
    bytes: Vec<u8>,
    closed: bool,
}

impl Outbox {
    /// Appends the frames of `msgs`, in order, under one lock.
    fn send<'a>(&self, msgs: impl IntoIterator<Item = &'a WireMsg>) {
        let mut st = self.q.lock().expect("outbox poisoned");
        if !st.closed {
            // The writer waits only on an empty outbox, so only the
            // send that ends the emptiness can find it waiting.
            let wake = st.bytes.is_empty();
            for msg in msgs {
                encode_into(&mut st.bytes, msg);
            }
            if wake {
                self.cv.notify_one();
            }
        }
    }

    fn close(&self) {
        self.q.lock().expect("outbox poisoned").closed = true;
        self.cv.notify_all();
    }
}

/// One connection's state, shared by its reader, its writer and the
/// dispatcher.
struct ConnState {
    out: Outbox,
    /// Reader-side stream handle, shut down to unblock the reader.
    stream: TcpStream,
}

struct Shared {
    stopping: AtomicBool,
    /// Server ticket → where its confirm (and later release) goes. A
    /// reader holds it across its backend call and registers the read's
    /// routes before it lets go, so the dispatcher, which matches under
    /// it, never meets an answer to this server's admissions before its
    /// route. The lock order is `routes`, then the backend's own locks
    /// (on the production backend `ledger`, then a worker's mailbox);
    /// the dispatcher takes it with no other lock held, and nothing
    /// takes it under a backend lock. A grant keeps its route for the
    /// ticket's `Released`; a rejection or the `Released` removes it.
    routes: Mutex<Routes>,
    /// Live connections by id.
    conns: Mutex<HashMap<u64, Arc<ConnState>>>,
    /// Duplicate submissions absorbed by the idempotency layer.
    dedup_hits: AtomicU64,
    connections: AtomicU64,
}

/// A TCP server exposing one [`AllocService`] backend to remote
/// [`WireClient`](crate::WireClient)s.
///
/// The server holds clones of the service (one per connection reader,
/// one for the dispatcher); with the production backend those clones
/// share the one executor, which shuts down only when the last handle
/// drops. The dispatcher takes every answer the backend publishes, so
/// the caller's own handle is for [`stats`](AllocService::stats) and
/// [`shutdown`](adca_serve::ProductionAllocService::shutdown): a request
/// submitted through it while the server runs is counted, and its
/// answer is dropped with no connection to go to.
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl WireServer {
    /// Binds `addr` and starts serving `svc`. Bind to port 0 and read
    /// back [`local_addr`](WireServer::local_addr) for an ephemeral
    /// loopback server.
    pub fn start<S>(svc: S, addr: impl ToSocketAddrs) -> io::Result<WireServer>
    where
        S: AllocService + Clone + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stopping: AtomicBool::new(false),
            routes: Mutex::default(),
            conns: Mutex::new(HashMap::new()),
            dedup_hits: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        });
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();

        let dispatcher = {
            let shared = shared.clone();
            let svc = svc.clone();
            std::thread::spawn(move || run_dispatcher(&shared, svc))
        };

        let accept = {
            let shared = shared.clone();
            let workers = workers.clone();
            std::thread::spawn(move || run_accept(listener, &shared, &workers, svc))
        };

        Ok(WireServer {
            addr,
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
            workers,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Duplicate request submissions absorbed by the per-connection
    /// idempotency layer (each one a duplicate that did **not** reach
    /// the backend a second time).
    pub fn dedup_hits(&self) -> u64 {
        self.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Stops accepting, closes every connection, and joins all workers.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close every live connection to unblock its reader.
        for conn in self.shared.conns.lock().expect("conns poisoned").values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // A throwaway connection unblocks the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.lock().expect("workers poisoned").drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_accept<S>(
    listener: TcpListener,
    shared: &Arc<Shared>,
    workers: &Mutex<Vec<JoinHandle<()>>>,
    proto: S,
) where
    S: AllocService + Clone + Send + 'static,
{
    let mut next_conn = 0u64;
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let conn_id = next_conn;
        next_conn += 1;
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(ConnState {
            out: Outbox::default(),
            stream,
        });
        shared
            .conns
            .lock()
            .expect("conns poisoned")
            .insert(conn_id, conn.clone());
        // `shutdown` closes the connections it finds registered, once.
        // One that registers after that pass has to close itself, or
        // `shutdown` would join a reader that nobody ever unblocks.
        if shared.stopping.load(Ordering::SeqCst) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }

        let reader = {
            let shared = shared.clone();
            let conn = conn.clone();
            let svc = proto.clone();
            std::thread::spawn(move || run_reader(&shared, conn_id, &conn, svc))
        };
        let writer = std::thread::spawn(move || run_writer(conn, write_half));
        let mut w = workers.lock().expect("workers poisoned");
        // Join the threads of the connections that have closed, so the
        // list holds the live connections' threads and not those of
        // every connection ever accepted.
        for done in w.extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        w.push(reader);
        w.push(writer);
    }
}

/// Reads and executes one connection's frames until EOF, a protocol
/// error, or shutdown. The Request frames of one read are admitted
/// together; a Release, or a frame that ends the connection, first
/// admits what was collected before it, so frames take effect in the
/// order they came. A Request whose id skips ahead ends the connection
/// once the frames before it took effect.
fn run_reader(shared: &Shared, conn_id: u64, conn: &ConnState, mut svc: impl AllocService) {
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut burst = Burst::default();
    let mut stream = &conn.stream;
    'conn: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        dec.extend(&buf[..n]);
        loop {
            match dec.next_frame() {
                Ok(Some(WireMsg::Request {
                    id,
                    at,
                    cell,
                    kind,
                    hold,
                    handoff_of,
                })) => burst.ids.push((
                    id,
                    ChannelRequest {
                        at,
                        cell: CellId(cell),
                        kind,
                        hold,
                        handoff_of: handoff_of.map(Ticket),
                    },
                )),
                Ok(Some(WireMsg::Release { ticket })) => {
                    if !burst.admit(shared, conn_id, conn, &mut svc) {
                        break 'conn;
                    }
                    // Releasing an unknown or already-ended ticket is
                    // benign (the service call reports it; the wire
                    // stays silent — the interesting answer is the
                    // Released indication).
                    let _ = svc.release(Ticket(ticket));
                }
                Ok(None) => break,
                // Server→client vocabulary arriving at the server is a
                // protocol violation, and a stream that does not decode
                // (bad magic/version/checksum/…) cannot be resynced:
                // either way the connection closes, after what came
                // before took effect.
                Ok(Some(
                    WireMsg::Granted { .. }
                    | WireMsg::Rejected { .. }
                    | WireMsg::Refused { .. }
                    | WireMsg::Released { .. },
                ))
                | Err(_) => {
                    let _ = burst.admit(shared, conn_id, conn, &mut svc);
                    break 'conn;
                }
            }
        }
        if !burst.admit(shared, conn_id, conn, &mut svc) {
            break 'conn;
        }
    }
    shared
        .conns
        .lock()
        .expect("conns poisoned")
        .remove(&conn_id);
    conn.out.close();
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// A reader's Request frames on their way to the backend, the id its
/// client sends next, and the buffers their admission reuses read after
/// read.
#[derive(Default)]
struct Burst {
    /// Client id and request of every Request frame collected; once
    /// the id pass is done, of those to admit.
    ids: Vec<(u64, ChannelRequest)>,
    /// The id the connection's next new request carries: every id below
    /// it has been admitted.
    next: u64,
    /// The requests of `ids`, for the backend.
    fresh: Vec<ChannelRequest>,
    results: Vec<Result<Ticket, ServeError>>,
    /// Refusals, for the client.
    refused: Vec<WireMsg>,
}

impl Burst {
    /// Admits what was collected: one pass over the ids against `next`,
    /// then one backend call for the new ones, under the one `routes`
    /// lock that registers their tickets. An id below `next`, within the
    /// burst or before it, is a dedup hit and is dropped. Returns
    /// `false` when a request skipped ahead of `next`: what came before
    /// it is admitted, it and what follows are not, and the connection
    /// must close.
    #[must_use]
    fn admit(
        &mut self,
        shared: &Shared,
        conn_id: u64,
        conn: &ConnState,
        svc: &mut impl AllocService,
    ) -> bool {
        if self.ids.is_empty() {
            return true;
        }
        let (mut hits, mut skipped) = (0, false);
        let next = &mut self.next;
        self.ids.retain(|&(id, _)| {
            if skipped {
                return false;
            }
            match id.cmp(next) {
                std::cmp::Ordering::Equal => {
                    *next += 1;
                    true
                }
                std::cmp::Ordering::Less => {
                    hits += 1;
                    false
                }
                std::cmp::Ordering::Greater => {
                    skipped = true;
                    false
                }
            }
        });
        if hits > 0 {
            shared.dedup_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if self.ids.is_empty() {
            return !skipped;
        }
        self.fresh.extend(self.ids.iter().map(|&(_, req)| req));
        {
            // Held across the call, so that no answer the dispatcher
            // matches can beat its route (see `Shared::routes` for the
            // lock order).
            let mut routes = shared.routes.lock().expect("routes poisoned");
            // On the production backend this call *blocks* while a
            // destination worker's mailbox is full — the backpressure
            // path.
            svc.request_channels(&self.fresh, &mut self.results);
            for (&(id, _), result) in self.ids.iter().zip(&self.results) {
                match *result {
                    Ok(ticket) => {
                        routes.insert(ticket.0, Route { conn: conn_id, id });
                    }
                    Err(e) => self.refused.push(WireMsg::Refused {
                        id,
                        reason: e.to_string(),
                    }),
                }
            }
        }
        if !self.refused.is_empty() {
            conn.out.send(&self.refused);
            self.refused.clear();
        }
        self.ids.clear();
        self.fresh.clear();
        self.results.clear();
        !skipped
    }
}

/// Writes whatever the outbox holds each time it looks, in one
/// `write_all`: one frame when one is queued, hundreds under load.
fn run_writer(conn: Arc<ConnState>, mut stream: TcpStream) {
    let mut batch = Vec::new();
    loop {
        {
            let mut st = conn.out.q.lock().expect("outbox poisoned");
            while st.bytes.is_empty() {
                if st.closed {
                    return;
                }
                st = conn.out.cv.wait(st).expect("outbox poisoned");
            }
            // `batch` is empty: the outbox keeps filling into its
            // allocation while this one is on its way out.
            std::mem::swap(&mut st.bytes, &mut batch);
        }
        if stream.write_all(&batch).is_err() {
            conn.out.close();
            let _ = conn.stream.shutdown(Shutdown::Both);
            return;
        }
        batch.clear();
        // One burst must not pin its size for the connection's life.
        batch.shrink_to(64 * 1024);
    }
}

/// Takes what the backend has answered, a burst at a time, and relays
/// it to the connections that own the tickets: the confirms before the
/// indications, so a ticket's `Granted` is staged before a `Released`
/// taken with it.
fn run_dispatcher(shared: &Shared, mut svc: impl AllocService) {
    let (mut confirms, mut indications) = (Vec::new(), Vec::new());
    let mut staged: Vec<(u64, WireMsg)> = Vec::new();
    loop {
        // Read before the pass, so the pass that sees it set still
        // takes what the backend answered until then.
        let stopping = shared.stopping.load(Ordering::SeqCst);
        let wait = if stopping { Duration::ZERO } else { IDLE_WAIT };
        svc.recv_answers(wait, &mut confirms, &mut indications);
        if !(confirms.is_empty() && indications.is_empty()) {
            let mut routes = shared.routes.lock().expect("routes poisoned");
            staged.extend(confirms.drain(..).filter_map(|c| confirmed(&mut routes, c)));
            staged.extend(
                indications
                    .drain(..)
                    .filter_map(|i| released(&mut routes, i)),
            );
            drop(routes);
            relay(shared, &mut staged);
        }
        if stopping {
            return;
        }
    }
}

/// A confirm's connection and frame. A grant keeps its route for the
/// ticket's `Released`; a rejection ends the ticket and its route.
/// `None` for a ticket this server did not admit.
fn confirmed(routes: &mut Routes, confirm: Confirm) -> Option<(u64, WireMsg)> {
    match confirm {
        Confirm::Granted {
            ticket,
            cell,
            channel,
            latency,
        } => {
            let route = routes.get(&ticket.0)?;
            Some((
                route.conn,
                WireMsg::Granted {
                    id: route.id,
                    ticket: ticket.0,
                    cell: cell.index() as u32,
                    channel: channel.0,
                    latency,
                },
            ))
        }
        Confirm::Rejected {
            ticket,
            cell,
            cause,
        } => {
            let route = routes.remove(&ticket.0)?;
            Some((
                route.conn,
                WireMsg::Rejected {
                    id: route.id,
                    ticket: ticket.0,
                    cell: cell.index() as u32,
                    cause,
                },
            ))
        }
    }
}

/// A `Released`'s connection and frame; it ends the ticket and its
/// route. `None` for a ticket this server did not admit.
fn released(routes: &mut Routes, indication: Indication) -> Option<(u64, WireMsg)> {
    let Indication::Released {
        ticket,
        cell,
        channel,
    } = indication;
    let route = routes.remove(&ticket.0)?;
    Some((
        route.conn,
        WireMsg::Released {
            ticket: ticket.0,
            cell: cell.index() as u32,
            channel: channel.0,
        },
    ))
}

/// Hands the staged frames over, a run of equal connection id at a
/// time: one `conns` lookup, then one outbox lock for the run's frames.
/// A dead connection drops its frames.
fn relay(shared: &Shared, staged: &mut Vec<(u64, WireMsg)>) {
    for run in staged.chunk_by(|a, b| a.0 == b.0) {
        let conn = shared
            .conns
            .lock()
            .expect("conns poisoned")
            .get(&run[0].0)
            .cloned();
        if let Some(conn) = conn {
            conn.out.send(run.iter().map(|(_, msg)| msg));
        }
    }
    staged.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_baselines::FixedNode;
    use adca_hexgrid::Topology;
    use adca_serve::{ProductionAllocService, ProductionConfig};
    use std::sync::mpsc;
    use std::time::Instant;

    fn production(topo: &Arc<Topology>) -> ProductionAllocService<FixedNode> {
        let cfg = ProductionConfig {
            workers: 2,
            ns_per_tick: 100,
            ..ProductionConfig::default()
        };
        ProductionAllocService::new(topo.clone(), cfg, FixedNode::new)
    }

    /// A connection as the accept loop would register it, its writer
    /// running, and the peer's end of the socket.
    fn connection_with_queued(frames: u64) -> (Arc<ConnState>, mpsc::Receiver<()>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let write_half = stream.try_clone().expect("clone");
        let conn = Arc::new(ConnState {
            out: Outbox::default(),
            stream,
        });
        // Queued before the writer starts, so it takes them as one batch.
        for ticket in 0..frames {
            conn.out.send([&WireMsg::Released {
                ticket,
                cell: 1,
                channel: 2,
            }]);
        }
        let (done, finished) = mpsc::channel();
        let writer = conn.clone();
        std::thread::spawn(move || {
            run_writer(writer, write_half);
            let _ = done.send(());
        });
        (conn, finished, peer)
    }

    /// A batch of 3.4 MB, many times what one `write(2)` moves: every
    /// frame arrives whole and in order.
    #[test]
    fn writer_splits_a_large_batch_without_tearing_a_frame() {
        const FRAMES: u64 = 100_000;
        let (conn, finished, mut peer) = connection_with_queued(FRAMES);
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let mut next = 0;
        while next < FRAMES {
            let n = peer.read(&mut buf).expect("read");
            assert!(n > 0, "closed after {next} frames");
            dec.extend(&buf[..n]);
            while let Some(msg) = dec.next_frame().expect("sound frame") {
                let WireMsg::Released { ticket, .. } = msg else {
                    panic!("unexpected {msg:?}");
                };
                assert_eq!(ticket, next);
                next += 1;
            }
        }
        assert_eq!(dec.buffered(), 0);
        conn.out.close();
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("a closed, empty outbox ends the writer");
    }

    /// The peer reads a little and goes away with most of the batch
    /// unsent: the write fails, and the writer closes the outbox and the
    /// socket (which unblocks the connection's reader) and ends.
    #[test]
    fn writer_closes_the_connection_when_the_peer_leaves_mid_batch() {
        let (conn, finished, mut peer) = connection_with_queued(400_000);
        let mut buf = [0u8; 1024];
        peer.read_exact(&mut buf).expect("the batch has started");
        drop(peer);
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the failed write ends the writer");
        assert!(conn.out.q.lock().expect("outbox poisoned").closed);
        let n = (&conn.stream).read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "the reader's half was shut down");
    }

    /// 200 connections opened and closed one after another: once each
    /// reader has left `conns`, its threads are joined at a later
    /// accept, so the server holds the handles of the last few
    /// connections and not two for every one it ever accepted.
    #[test]
    fn a_closed_connections_threads_are_joined_at_the_next_accept() {
        const CYCLES: u64 = 200;
        let topo = Arc::new(Topology::default_paper(2, 2));
        let server = WireServer::start(production(&topo), "127.0.0.1:0").expect("bind loopback");
        let conns_empty = || {
            let give_up = Instant::now() + Duration::from_secs(10);
            while !server
                .shared
                .conns
                .lock()
                .expect("conns poisoned")
                .is_empty()
            {
                assert!(Instant::now() < give_up, "a reader never left");
                std::thread::sleep(Duration::from_micros(100));
            }
        };
        for k in 1..=CYCLES {
            drop(TcpStream::connect(server.local_addr()).expect("connect"));
            let give_up = Instant::now() + Duration::from_secs(10);
            while server.connections_accepted() < k {
                assert!(Instant::now() < give_up, "connection {k} not accepted");
                std::thread::sleep(Duration::from_micros(100));
            }
            conns_empty();
        }
        conns_empty();
        let held = server.workers.lock().expect("workers poisoned").len();
        assert!(
            held <= 16,
            "{held} handles after {CYCLES} closed connections"
        );
    }
}
