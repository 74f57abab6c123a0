//! The production backend's workers keep their band's time: a protocol
//! timer and a call's end are armed in the worker's own heap and filed
//! at a round start. Probe machines log what fires and at which tick:
//! the order is the deadline order, FIFO among ties, and nothing fires
//! before it is due; a parked worker with nothing pushed to it wakes for
//! its earliest timer, a busy one files what fell due at its next round;
//! and a service dropped with armed timers stops at once and fires none.

use adca_hexgrid::{CellId, Channel, Topology};
use adca_serve::{AllocService, ChannelRequest, ProductionAllocService, ProductionConfig};
use adca_simkit::{Effects, RequestId, RequestKind, StateMachine};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);
/// One tick is a microsecond.
const NS_PER_TICK: u64 = 1_000;
const HOUR: u64 = 3_600_000_000;

fn service<N, F>(factory: F) -> ProductionAllocService<N>
where
    N: StateMachine + Send + 'static,
    N::Msg: Send + 'static,
    F: FnMut(CellId, &Topology) -> N,
{
    let topo = Arc::new(Topology::builder(5, 5).channels(70).build());
    let cfg = ProductionConfig {
        workers: 1,
        ns_per_tick: NS_PER_TICK,
        ..Default::default()
    };
    ProductionAllocService::new(topo, cfg, factory)
}

/// What fired, at which tick, in firing order.
type Log = Arc<Mutex<Vec<(String, u64)>>>;

/// Waits until `log` holds `n` entries and returns them.
fn await_log(log: &Log, n: usize) -> Vec<(String, u64)> {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let got = log.lock().unwrap().clone();
        if got.len() >= n {
            return got;
        }
        assert!(Instant::now() < deadline, "fired only {got:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Arms what `timers` lists — `(delay, tag)`, with tag 0 standing for
/// the grant whose hold arms the call's end — when a request comes, and
/// logs every timer and every release with the tick it came at.
struct Alarm {
    timers: Vec<(u64, u64)>,
    log: Log,
}

impl StateMachine for Alarm {
    type Msg = ();

    fn msg_kind(_: &()) -> &'static str {
        "NONE"
    }

    fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<()>) {
        self.log.lock().unwrap().push(("armed".into(), fx.now().0));
        for &(delay, tag) in &self.timers {
            if tag == 0 {
                fx.grant(req, Channel(0));
            } else {
                fx.set_timer(delay, tag);
            }
        }
    }

    fn release(&mut self, _ch: Channel, fx: &mut Effects<()>) {
        self.log.lock().unwrap().push(("end".into(), fx.now().0));
    }

    fn message(&mut self, _from: CellId, _msg: (), _fx: &mut Effects<()>) {}

    fn timer(&mut self, tag: u64, fx: &mut Effects<()>) {
        self.log
            .lock()
            .unwrap()
            .push((format!("timer {tag}"), fx.now().0));
    }
}

/// Protocol timers and a call's end, armed by one activation with
/// deadlines that tie: they fire in deadline order, FIFO among ties
/// (the call's end was armed second, between two protocol timers), and
/// none at a tick before its due one. Nothing is pushed after the
/// request, so the worker parks between them.
#[test]
fn a_protocol_timer_and_a_call_end_fire_in_deadline_order_never_early() {
    const HOLD: u64 = 2_000;
    // (delay in ticks, tag) in arming order; tag 0 is the grant.
    let timers = vec![(3_000, 1), (HOLD, 0), (3_000, 2), (1_000, 3), (2_000, 4)];
    let log = Log::default();
    let mut svc = service(|_, _: &Topology| Alarm {
        timers: timers.clone(),
        log: log.clone(),
    });
    svc.request_channel(ChannelRequest::new_call(0, CellId(7), HOLD))
        .expect("request accepted");
    let got = await_log(&log, 1 + timers.len());
    let armed = got[0].1;
    let order: Vec<&str> = got[1..].iter().map(|(what, _)| what.as_str()).collect();
    assert_eq!(order, ["timer 3", "end", "timer 4", "timer 1", "timer 2"]);
    for ((what, at), due) in got[1..].iter().zip([1_000, HOLD, 2_000, 3_000, 3_000]) {
        assert!(
            *at >= armed + due,
            "{what} fired at tick {at}, due at {}",
            armed + due
        );
    }
    assert_eq!(svc.stats().completed, 1);
}

/// Logs its timers; arms one from `Input::Start` on cell 0.
struct Waker {
    log: Log,
}

impl StateMachine for Waker {
    type Msg = ();

    fn msg_kind(_: &()) -> &'static str {
        "NONE"
    }

    fn start(&mut self, fx: &mut Effects<()>) {
        if fx.me() == CellId(0) {
            fx.set_timer(20_000, 1);
        }
    }

    fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<()>) {
        fx.reject(req);
    }

    fn release(&mut self, _ch: Channel, _fx: &mut Effects<()>) {}

    fn message(&mut self, _from: CellId, _msg: (), _fx: &mut Effects<()>) {}

    fn timer(&mut self, tag: u64, fx: &mut Effects<()>) {
        self.log
            .lock()
            .unwrap()
            .push((format!("timer {tag}"), fx.now().0));
    }
}

/// A timer armed at start-up, on a service that is handed nothing at
/// all: no push ever wakes the worker, which parks from the start, and
/// still the timer fires — not before its tick.
#[test]
fn a_parked_worker_wakes_for_its_timer_with_no_push() {
    let log = Log::default();
    let svc = service(|_, _: &Topology| Waker { log: log.clone() });
    let got = await_log(&log, 1);
    assert_eq!(got[0].0, "timer 1");
    assert!(got[0].1 >= 20_000, "fired at tick {}", got[0].1);
    assert_eq!(svc.stats().offered, 0);
}

/// Cells 0 and 1 pass a message back and forth until told to stop, so
/// their worker always has a cell ready and never parks; a request at
/// cell 12 arms a timer and is rejected.
struct Rally {
    log: Log,
    volleys: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl StateMachine for Rally {
    type Msg = ();

    fn msg_kind(_: &()) -> &'static str {
        "BALL"
    }

    fn start(&mut self, fx: &mut Effects<()>) {
        if fx.me() == CellId(0) {
            fx.send(CellId(1), ());
        }
    }

    fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<()>) {
        fx.set_timer(1_000, 1);
        fx.reject(req);
    }

    fn release(&mut self, _ch: Channel, _fx: &mut Effects<()>) {}

    fn message(&mut self, from: CellId, _msg: (), fx: &mut Effects<()>) {
        self.volleys.fetch_add(1, Ordering::Relaxed);
        if !self.stop.load(Ordering::Relaxed) {
            fx.send(from, ());
        }
    }

    fn timer(&mut self, tag: u64, fx: &mut Effects<()>) {
        self.log
            .lock()
            .unwrap()
            .push((format!("timer {tag}"), fx.now().0));
    }
}

/// A worker that never runs out of work still files its timers: at the
/// round start after they fall due, between two volleys of a rally
/// that goes on before and after.
#[test]
fn a_busy_worker_fires_its_timers_at_the_next_round() {
    let log = Log::default();
    let volleys = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut svc = service(|_, _: &Topology| Rally {
        log: log.clone(),
        volleys: volleys.clone(),
        stop: stop.clone(),
    });
    while volleys.load(Ordering::Relaxed) < 1_000 {
        std::thread::yield_now();
    }
    svc.request_channel(ChannelRequest::new_call(0, CellId(12), 0))
        .expect("request accepted");
    let got = await_log(&log, 1);
    let at_fire = volleys.load(Ordering::Relaxed);
    while volleys.load(Ordering::Relaxed) < at_fire + 1_000 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    assert_eq!(got[0].0, "timer 1");
    assert_eq!(svc.stats().rejected, 1);
}

/// Counts what fires; arms a timer an hour out from start-up, and
/// grants every request with its hold.
struct Sleeper {
    fired: Arc<AtomicU64>,
}

impl StateMachine for Sleeper {
    type Msg = ();

    fn msg_kind(_: &()) -> &'static str {
        "NONE"
    }

    fn start(&mut self, fx: &mut Effects<()>) {
        fx.set_timer(HOUR, 1);
    }

    fn acquire(&mut self, req: RequestId, _kind: RequestKind, fx: &mut Effects<()>) {
        fx.grant(req, Channel(0));
    }

    fn release(&mut self, _ch: Channel, _fx: &mut Effects<()>) {
        self.fired.fetch_add(1, Ordering::SeqCst);
    }

    fn message(&mut self, _from: CellId, _msg: (), _fx: &mut Effects<()>) {}

    fn timer(&mut self, _tag: u64, _fx: &mut Effects<()>) {
        self.fired.fetch_add(1, Ordering::SeqCst);
    }
}

/// Dropping the service with a protocol timer on every cell and a call
/// holding for an hour stops its worker at once, parked as it is until
/// the earliest of them, and none of them fires.
#[test]
fn a_dropped_service_discards_its_timers_promptly() {
    let fired = Arc::new(AtomicU64::new(0));
    let mut svc = service(|_, _: &Topology| Sleeper {
        fired: fired.clone(),
    });
    svc.request_channel(ChannelRequest::new_call(0, CellId(3), HOUR))
        .expect("request accepted");
    assert!(svc.quiesce(DEADLINE));
    assert!(svc.confirm().expect("resolved").is_granted());
    let began = Instant::now();
    drop(svc);
    let took = began.elapsed();
    assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    assert_eq!(fired.load(Ordering::SeqCst), 0, "a discarded timer fired");
}
