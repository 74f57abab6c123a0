//! The deterministic backend: [`AllocService`] over the DES engine.

use crate::service::{
    AllocService, ChannelRequest, Confirm, Indication, ServeError, ServeStats, Ticket,
};
use adca_hexgrid::{CellId, Channel, Topology};
use adca_simkit::engine::Engine;
use adca_simkit::{Arrival, DropCause, RequestKind, SimConfig, SimReport, StateMachine};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

/// What a ticket issued by [`DesAllocService`] stands for.
enum DesTicket {
    /// A new call: index into the pending arrival list.
    Call(usize),
    /// A mobility hop appended to pending call `call`, issued at
    /// absolute tick `at`.
    Hop { call: usize, at: u64 },
}

/// [`AllocService`] backed by the deterministic discrete-event engine.
///
/// Requests are *buffered*, not served: each accepted new-call ticket
/// becomes one [`Arrival`] at its declared tick, each accepted
/// [`RequestKind::Handoff`] ticket appends a hop to its source call's
/// mobility plan, and [`AllocService::quiesce`] replays the whole batch
/// through [`Engine`] — same topology, same seed, same event
/// interleaving as `Scenario::run`, so the resulting [`SimReport`] is
/// bit-identical to a plain simulation of the same workload (tests pin
/// this for all six schemes, and for handoff plans under the adaptive
/// scheme). Confirms are then synthesized from the engine's per-request
/// outcome log, in resolution order, and release indications mirror the
/// engine's break-before-make mobility: a hop relinquishes the held
/// channel at its hop tick, a completing call at first-grant + hold.
///
/// Handoff notes: the hop tick is [`ChannelRequest::at`] and must be
/// strictly after the source call's arrival, with hops per call
/// submitted in strictly increasing time order; the engine's mobility
/// model keeps the call's original holding time, so
/// [`ChannelRequest::hold`] is ignored on handoffs. A hop the engine
/// never issues (its call was not holding a channel at hop time) is
/// surfaced as a [`DropCause::Blocked`] rejection after the engine's
/// outcome stream, so every ticket resolves exactly once.
///
/// Because virtual time only advances inside `quiesce`, this backend is
/// single-shot: submissions after quiescence return
/// [`ServeError::Quiesced`]. Latencies in confirms are virtual ticks.
pub struct DesAllocService<P, F> {
    topo: Arc<Topology>,
    cfg: SimConfig,
    factory: Option<F>,
    pending: Vec<Arrival>,
    tickets: Vec<DesTicket>,
    confirms: VecDeque<Confirm>,
    indications: VecDeque<Indication>,
    report: Option<SimReport>,
    synthesized_rejects: u64,
    _protocol: PhantomData<fn() -> P>,
}

impl<P, F> DesAllocService<P, F>
where
    P: StateMachine,
    F: FnMut(CellId, &Topology) -> P,
{
    /// A fresh deterministic service over `topo`, running one
    /// `factory`-built protocol node per cell under `cfg`.
    pub fn new(topo: Arc<Topology>, cfg: SimConfig, factory: F) -> Self {
        DesAllocService {
            topo,
            cfg,
            factory: Some(factory),
            pending: Vec::new(),
            tickets: Vec::new(),
            confirms: VecDeque::new(),
            indications: VecDeque::new(),
            report: None,
            synthesized_rejects: 0,
            _protocol: PhantomData,
        }
    }
}

impl<P, F> AllocService for DesAllocService<P, F>
where
    P: StateMachine,
    F: FnMut(CellId, &Topology) -> P,
{
    fn request_channel(&mut self, req: ChannelRequest) -> Result<Ticket, ServeError> {
        if self.report.is_some() {
            return Err(ServeError::Quiesced);
        }
        if req.cell.index() >= self.topo.num_cells() {
            return Err(ServeError::UnknownCell(req.cell));
        }
        let ticket = Ticket(self.tickets.len() as u64);
        match req.kind {
            RequestKind::NewCall => {
                self.tickets.push(DesTicket::Call(self.pending.len()));
                self.pending.push(Arrival::new(req.at, req.cell, req.hold));
            }
            RequestKind::Handoff => {
                let Some(src) = req.handoff_of else {
                    return Err(ServeError::BadHandoff(
                        "a handoff needs its source ticket (ChannelRequest::handoff)",
                    ));
                };
                let call = match self.tickets.get(src.0 as usize) {
                    Some(DesTicket::Call(i)) => *i,
                    // Chained mobility: handing off a hop ticket extends
                    // the same call's plan.
                    Some(DesTicket::Hop { call, .. }) => *call,
                    None => return Err(ServeError::UnknownTicket(src)),
                };
                let arr = &mut self.pending[call];
                if req.at <= arr.at {
                    return Err(ServeError::BadHandoff(
                        "a hop must be strictly after the call's arrival",
                    ));
                }
                let offset = req.at - arr.at;
                if arr.hops.last().is_some_and(|&(o, _)| o >= offset) {
                    return Err(ServeError::BadHandoff(
                        "hops must be submitted in strictly increasing time order",
                    ));
                }
                arr.hops.push((offset, req.cell));
                self.tickets.push(DesTicket::Hop { call, at: req.at });
            }
        }
        Ok(ticket)
    }

    fn release(&mut self, ticket: Ticket) -> Result<(), ServeError> {
        let Some(t) = self.tickets.get(ticket.0 as usize) else {
            return Err(ServeError::UnknownTicket(ticket));
        };
        if self.report.is_some() {
            return Err(ServeError::Quiesced);
        }
        match *t {
            // "Hang up immediately": the replay grants and instantly
            // ends the call.
            DesTicket::Call(i) => self.pending[i].duration = 0,
            DesTicket::Hop { .. } => {
                return Err(ServeError::Unsupported(
                    "release the call's root ticket; hop tickets resolve at replay",
                ));
            }
        }
        Ok(())
    }

    fn confirm(&mut self) -> Option<Confirm> {
        self.confirms.pop_front()
    }

    fn indication(&mut self) -> Option<Indication> {
        self.indications.pop_front()
    }

    fn quiesce(&mut self, _limit: Duration) -> bool {
        if self.report.is_some() {
            return true;
        }
        let factory = self.factory.take().expect("factory present until quiesce");
        // The engine wants time-sorted arrivals. A *stable* sort keeps
        // the replay bit-identical to a pre-sorted workload fed to
        // `Scenario::run`, and `order` maps engine call indices back to
        // pending indices for any submission order.
        let mut order: Vec<u32> = (0..self.pending.len() as u32).collect();
        order.sort_by_key(|&i| self.pending[i as usize].at);
        let arrivals: Vec<Arrival> = order
            .iter()
            .map(|&i| self.pending[i as usize].clone())
            .collect();
        let mut engine = Engine::new(self.topo.clone(), self.cfg.clone(), factory, arrivals);
        let report = engine.run();

        // Ticket lookup: pending index -> root (new-call) ticket, and
        // pending index -> [(absolute hop tick, hop ticket)] in plan
        // order. Hop ticks are strictly increasing per call, so a
        // handoff outcome's issue tick identifies its hop uniquely.
        let n_pending = self.pending.len();
        let mut root = vec![u64::MAX; n_pending];
        let mut hop_tickets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_pending];
        for (t, dt) in self.tickets.iter().enumerate() {
            match *dt {
                DesTicket::Call(i) => root[i] = t as u64,
                DesTicket::Hop { call, at } => hop_tickets[call].push((at, t as u64)),
            }
        }

        struct Held {
            ticket: u64,
            cell: CellId,
            ch: Channel,
        }
        let mut matched = vec![false; self.tickets.len()];
        let mut held: Vec<Option<Held>> = (0..n_pending).map(|_| None).collect();
        let mut end_at: Vec<Option<u64>> = vec![None; n_pending];
        // (tick, ticket, cell, channel) of every channel return.
        let mut released: Vec<(u64, u64, CellId, Channel)> = Vec::new();
        for o in engine.take_outcomes() {
            let p = order[o.call as usize] as usize;
            let issue = o.resolved_at.ticks() - o.latency;
            let ticket_id = match o.kind {
                RequestKind::NewCall => root[p],
                RequestKind::Handoff => {
                    let hop = hop_tickets[p]
                        .iter()
                        .find(|&&(at, _)| at == issue)
                        .expect("handoff outcome matches a submitted hop");
                    // Break-before-make, as in the engine's hop event:
                    // the held channel is relinquished at the hop tick,
                    // whatever the handoff's own outcome.
                    if let Some(h) = held[p].take() {
                        released.push((issue, h.ticket, h.cell, h.ch));
                    }
                    hop.1
                }
            };
            matched[ticket_id as usize] = true;
            match o.result {
                Ok(channel) => {
                    self.confirms.push_back(Confirm::Granted {
                        ticket: Ticket(ticket_id),
                        cell: o.cell,
                        channel,
                        latency: o.latency,
                    });
                    // The first grant pins the call's end (the engine
                    // arms End once, at first-grant + duration). A
                    // handoff grant resolving at or after that end is
                    // stale: the engine auto-releases it immediately
                    // and it never holds the channel.
                    let end =
                        *end_at[p].get_or_insert(o.resolved_at.ticks() + self.pending[p].duration);
                    let stale = o.kind == RequestKind::Handoff && o.resolved_at.ticks() >= end;
                    if !stale {
                        held[p] = Some(Held {
                            ticket: ticket_id,
                            cell: o.cell,
                            ch: channel,
                        });
                    }
                }
                Err(cause) => {
                    self.confirms.push_back(Confirm::Rejected {
                        ticket: Ticket(ticket_id),
                        cell: o.cell,
                        cause,
                    });
                }
            }
        }
        // A channel still held when the outcome stream ends is returned
        // at the call's end tick.
        for (p, h) in held.iter_mut().enumerate() {
            if let Some(h) = h.take() {
                let end = end_at[p].expect("a held channel implies a grant");
                released.push((end, h.ticket, h.cell, h.ch));
            }
        }
        released.sort_unstable_by_key(|&(at, ticket, _, _)| (at, ticket));
        for (_, ticket, cell, channel) in released {
            self.indications.push_back(Indication::Released {
                ticket: Ticket(ticket),
                cell,
                channel,
            });
        }
        // Hops the engine never issued (the call was not holding a
        // channel at hop time: ended, dropped, or still acquiring) are
        // surfaced as Blocked rejections so every ticket resolves.
        for (p, plan) in hop_tickets.iter().enumerate() {
            for (k, &(_, t)) in plan.iter().enumerate() {
                if !matched[t as usize] {
                    self.synthesized_rejects += 1;
                    self.confirms.push_back(Confirm::Rejected {
                        ticket: Ticket(t),
                        cell: self.pending[p].hops[k].1,
                        cause: DropCause::Blocked,
                    });
                }
            }
        }
        self.report = Some(report);
        true
    }

    fn stats(&self) -> ServeStats {
        let mut stats = ServeStats {
            offered: self.tickets.len() as u64,
            ..Default::default()
        };
        if let Some(r) = &self.report {
            stats.granted = r.granted;
            stats.rejected = r.dropped_new + r.dropped_handoff + self.synthesized_rejects;
            // A call a crash killed still ends (its `Released` comes at
            // its end tick), though the report counts it apart.
            stats.completed = r.completed_calls + r.custom.get("crash_killed_calls");
            stats.messages = r.messages_total;
            stats.violations = r.violations.iter().map(|v| v.to_string()).collect();
        }
        stats
    }

    fn sim_report(&self) -> Option<&SimReport> {
        self.report.as_ref()
    }
}
