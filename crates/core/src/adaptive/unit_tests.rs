//! Message-level state-machine tests: one [`AdaptiveNode`] driven
//! event-by-event, its actions recorded, asserting each reaction
//! against Figures 2–10.

use super::*;
use adca_simkit::sm::{Action, Input};

/// Echo timestamp for handcrafted responses. The default (unhardened)
/// config matches responses laxly, so any value works.
fn echo_ts() -> Timestamp {
    Timestamp {
        counter: 0,
        node: 0,
    }
}

/// 3×3 grid: the center cell's interference region is all 8 other cells.
fn world() -> (Topology, CellId) {
    let topo = Topology::builder(3, 3).channels(70).build();
    let me = topo.grid().at_offset(1, 1).expect("center");
    assert_eq!(topo.region(me).len(), 8);
    (topo, me)
}

/// What the node did to the world, in emission order (metric and trace
/// actions are not recorded).
#[derive(Default)]
struct Recorded {
    actions: Vec<Action<AdaptiveMsg>>,
}

impl Recorded {
    fn take_actions(&mut self) -> Vec<Action<AdaptiveMsg>> {
        std::mem::take(&mut self.actions)
    }

    /// The messages sent (kind, to) in order, ignoring other actions.
    fn sends(&self) -> Vec<(&'static str, CellId)> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((AdaptiveNode::msg_kind(msg), *to)),
                _ => None,
            })
            .collect()
    }

    /// The first grant recorded, if any.
    fn granted(&self) -> Option<(RequestId, Channel)> {
        self.actions.iter().find_map(|a| match a {
            Action::Grant { req, ch } => Some((*req, *ch)),
            _ => None,
        })
    }

    fn rejected(&self) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, Action::Reject { .. }))
    }
}

struct Tester {
    node: AdaptiveNode,
    me: CellId,
    mock: Recorded,
    next_req: u64,
}

impl Tester {
    fn new() -> Self {
        Tester::with_alpha(AdaptiveConfig::default().alpha)
    }

    fn with_alpha(alpha: u32) -> Self {
        let (topo, me) = world();
        let node = AdaptiveNode::new(
            me,
            &topo,
            AdaptiveConfig {
                alpha,
                ..Default::default()
            },
        );
        Tester {
            node,
            me,
            mock: Recorded::default(),
            next_req: 0,
        }
    }

    fn step(&mut self, input: Input<AdaptiveMsg>) {
        let mut fx = Effects::new(self.me, adca_simkit::SimTime::ZERO, false);
        self.node.step(input, &mut fx);
        self.mock
            .actions
            .extend(fx.into_actions().into_iter().filter(|a| {
                matches!(
                    a,
                    Action::Send { .. }
                        | Action::Grant { .. }
                        | Action::Reject { .. }
                        | Action::SetTimer { .. }
                )
            }));
    }

    fn acquire(&mut self) -> RequestId {
        let req = RequestId(self.next_req);
        self.next_req += 1;
        self.step(Input::Acquire {
            req,
            kind: RequestKind::NewCall,
        });
        req
    }

    fn deliver(&mut self, from: CellId, msg: AdaptiveMsg) {
        self.step(Input::Message { from, msg });
    }

    fn release(&mut self, ch: Channel) {
        self.step(Input::Release { ch });
    }

    /// Saturate all 10 primaries (silently, in local mode).
    fn fill_primaries(&mut self) -> Vec<Channel> {
        let mut got = Vec::new();
        for _ in 0..10 {
            self.acquire();
            let (_, ch) = self.mock.granted().expect("local grant");
            got.push(ch);
            self.mock.take_actions();
        }
        got
    }
}

#[test]
fn local_grant_is_instant_and_silent() {
    let mut t = Tester::new();
    let req = t.acquire();
    let (greq, ch) = t.mock.granted().expect("granted");
    assert_eq!(greq, req);
    assert!(
        t.mock.sends().is_empty(),
        "no borrowing subscribers -> no messages"
    );
    // The channel is the lowest primary of the center's color.
    let (topo, me) = world();
    assert_eq!(ch, topo.primary(me).first().expect("primaries exist"));
    assert_eq!(t.node.mode(), Mode::Local);
}

#[test]
fn local_acquisition_announces_to_borrowing_subscribers() {
    let mut t = Tester::new();
    let neighbor = CellId(0);
    t.deliver(neighbor, AdaptiveMsg::ChangeMode { borrowing: true });
    // Figure 5: CHANGE_MODE is answered with a Status snapshot.
    let sends = t.mock.sends();
    assert_eq!(sends, vec![("RESPONSE", neighbor)]);
    assert!(t.node.update_subscribers().contains(&neighbor));
    t.mock.take_actions();
    // A local acquisition now announces to the subscriber (Figure 3).
    t.acquire();
    assert!(t.mock.sends().contains(&("ACQUISITION", neighbor)));
}

#[test]
fn change_mode_off_unsubscribes() {
    let mut t = Tester::new();
    let neighbor = CellId(0);
    t.deliver(neighbor, AdaptiveMsg::ChangeMode { borrowing: true });
    t.deliver(neighbor, AdaptiveMsg::ChangeMode { borrowing: false });
    assert!(t.node.update_subscribers().is_empty());
    t.mock.take_actions();
    t.acquire();
    assert!(t.mock.sends().is_empty(), "no subscribers left");
}

#[test]
fn exhaustion_triggers_borrowing_transition() {
    let mut t = Tester::new();
    // After 9 fills one primary remains: still local.
    for _ in 0..9 {
        t.acquire();
    }
    assert_eq!(t.node.mode(), Mode::Local);
    t.mock.take_actions();
    // The 10th acquisition zeroes the free-primary count; check_mode's
    // prediction drops below theta_l and the node announces borrowing.
    t.acquire();
    assert_eq!(t.node.mode(), Mode::Borrowing);
    let sends = t.mock.sends();
    let change_modes = sends.iter().filter(|(k, _)| *k == "CHANGE_MODE").count();
    assert_eq!(change_modes, 8, "CHANGE_MODE(1) to the whole region");
}

#[test]
fn await_status_path_when_snapshots_eat_primaries() {
    // Phase::AwaitStatus (Figure 2's local-branch miss) is reachable only
    // when the view changes WITHOUT a check_mode — i.e. via a Status/
    // SearchUse snapshot claiming our primaries — so the node is still
    // Local with zero free primaries when a call arrives.
    let mut t = Tester::new();
    let (topo, me) = world();
    // A neighbor's snapshot claims every one of our primaries.
    t.deliver(
        CellId(0),
        AdaptiveMsg::Status {
            used: topo.primary(me).clone(),
        },
    );
    assert_eq!(
        t.node.mode(),
        Mode::Local,
        "snapshots do not run check_mode"
    );
    t.mock.take_actions();
    let req = t.acquire();
    // Now the local branch misses, switches mode, announces, and waits
    // for the region's status snapshots.
    assert_eq!(t.node.mode(), Mode::Borrowing);
    assert!(t
        .node
        .attempt_summary()
        .expect("pending")
        .contains("AwaitStatus"));
    let sends = t.mock.take_actions();
    let change_modes = sends
        .iter()
        .filter(|a| {
            matches!(
                a,
                Action::Send {
                    msg: AdaptiveMsg::ChangeMode { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(change_modes, 8);
    // Fresh statuses show the claim was stale: the node re-runs the
    // request and serves it (its primaries are free after all).
    let empty = topo.spectrum().empty_set();
    for &j in topo.region(me) {
        t.deliver(
            j,
            AdaptiveMsg::Status {
                used: empty.clone(),
            },
        );
    }
    let (greq, _) = t.mock.granted().expect("served after status refresh");
    assert_eq!(greq, req);
}

/// Drives the node to the borrowing-update round and returns the
/// requested channel. (Filling all primaries flips the node to borrowing
/// mode via check_mode, so the next call borrows directly.)
fn to_update_round(t: &mut Tester) -> Channel {
    t.fill_primaries();
    assert_eq!(t.node.mode(), Mode::Borrowing);
    t.acquire();
    // Figure 2's borrowing branch picks Best() — the lowest-id idle
    // neighbor — and requests its lowest primary channel region-wide.
    assert_eq!(t.node.mode(), Mode::BorrowUpdate);
    let actions = t.mock.take_actions();
    let mut req_ch = None;
    let mut req_count = 0;
    for a in &actions {
        if let Action::Send {
            msg: AdaptiveMsg::Request {
                update: Some(ch), ..
            },
            ..
        } = a
        {
            req_ch = Some(*ch);
            req_count += 1;
        }
    }
    assert_eq!(req_count, 8, "update REQUEST to the whole region");
    req_ch.expect("update request carries a channel")
}

#[test]
fn update_round_requests_lenders_channel() {
    let mut t = Tester::new();
    let ch = to_update_round(&mut t);
    // Best() on an idle region picks the lowest-id non-borrowing
    // neighbor; the candidate channel comes from ITS primary set
    // (deviation #2).
    let (topo, _) = world();
    assert!(
        topo.primary(CellId(0)).contains(ch),
        "candidate {ch} must be a primary of the lender cell0"
    );
}

#[test]
fn unanimous_grants_complete_the_borrow() {
    let mut t = Tester::new();
    let ch = to_update_round(&mut t);
    let (topo, me) = world();
    for &j in topo.region(me) {
        t.deliver(
            j,
            AdaptiveMsg::Grant {
                ch,
                ts: echo_ts(),
                round: 1,
            },
        );
    }
    let (_, got) = t.mock.granted().expect("borrow granted");
    assert_eq!(got, ch);
    assert_eq!(t.node.mode(), Mode::Borrowing, "mode 2 -> 1 after acquire");
    // Figure 3 case 2: granters already know — no ACQUISITION broadcast.
    assert!(!t.mock.sends().iter().any(|(k, _)| *k == "ACQUISITION"));
}

#[test]
fn one_reject_releases_granters_and_retries() {
    let mut t = Tester::new();
    let ch = to_update_round(&mut t);
    let (topo, me) = world();
    let region: Vec<CellId> = topo.region(me).to_vec();
    // First 7 grant, the last one rejects.
    for &j in &region[..7] {
        t.deliver(
            j,
            AdaptiveMsg::Grant {
                ch,
                ts: echo_ts(),
                round: 1,
            },
        );
    }
    t.mock.take_actions();
    t.deliver(
        region[7],
        AdaptiveMsg::Reject {
            ch,
            ts: echo_ts(),
            round: 1,
        },
    );
    assert!(t.mock.granted().is_none(), "round failed");
    let actions = t.mock.take_actions();
    let releases: Vec<CellId> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: AdaptiveMsg::Release { .. },
            } => Some(*to),
            _ => None,
        })
        .collect();
    assert_eq!(releases.len(), 7, "every granter is repaid");
    assert!(!releases.contains(&region[7]));
    // And the retry went out (a fresh REQUEST round for another channel).
    let new_requests = actions
        .iter()
        .filter(|a| {
            matches!(
                a,
                Action::Send {
                    msg: AdaptiveMsg::Request { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(new_requests, 8, "retry round");
}

#[test]
fn alpha_zero_goes_straight_to_search() {
    let mut t = Tester::with_alpha(0);
    t.fill_primaries();
    t.acquire();
    assert_eq!(
        t.node.mode(),
        Mode::BorrowSearch,
        "no update attempts allowed"
    );
    let search_reqs = t
        .mock
        .take_actions()
        .iter()
        .filter(|a| {
            matches!(
                a,
                Action::Send {
                    msg: AdaptiveMsg::Request { update: None, .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(search_reqs, 8);
}

#[test]
fn failed_search_drops_and_broadcasts_minus_one() {
    let mut t = Tester::with_alpha(0);
    t.fill_primaries();
    t.acquire();
    t.mock.take_actions();
    let (topo, me) = world();
    // Everyone reports the full spectrum in use: nothing to find.
    let full = topo.spectrum().full_set();
    for &j in topo.region(me) {
        t.deliver(
            j,
            AdaptiveMsg::SearchUse {
                used: full.clone(),
                ts: echo_ts(),
                round: 1,
            },
        );
    }
    assert!(t.mock.rejected(), "no channel anywhere -> drop");
    // Deviation #4: the failed search still broadcasts ACQUISITION(1,
    // -1) so responders decrement waiting.
    let acq_none = t
        .mock
        .actions
        .iter()
        .filter(|a| {
            matches!(
                a,
                Action::Send {
                    msg: AdaptiveMsg::Acquisition {
                        search: true,
                        ch: None
                    },
                    ..
                }
            )
        })
        .count();
    assert_eq!(acq_none, 8);
    assert_eq!(t.node.mode(), Mode::Borrowing);
}

#[test]
fn grants_own_free_primary_to_borrower_and_avoids_it() {
    let mut t = Tester::new();
    let (topo, me) = world();
    let my_lowest = topo.primary(me).first().expect("primaries");
    let borrower = CellId(0);
    let ts = Timestamp {
        counter: 5,
        node: 0,
    };
    t.deliver(
        borrower,
        AdaptiveMsg::Request {
            update: Some(my_lowest),
            ts,
            round: 0,
        },
    );
    let actions = t.mock.take_actions();
    assert!(
        actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: AdaptiveMsg::Grant { ch, .. },
                ..
            } if *ch == my_lowest
        )),
        "free channel must be granted"
    );
    // The pledge keeps the channel out of our own local picks.
    t.acquire();
    let (_, got) = t.mock.granted().expect("still 9 free primaries");
    assert_ne!(got, my_lowest, "pledged channel must not be reused");
}

#[test]
fn rejects_update_request_for_channel_in_use() {
    let mut t = Tester::new();
    t.acquire();
    let (_, ch) = t.mock.granted().expect("granted");
    t.mock.take_actions();
    t.deliver(
        CellId(0),
        AdaptiveMsg::Request {
            update: Some(ch),
            ts: Timestamp {
                counter: 1,
                node: 0,
            },
            round: 0,
        },
    );
    assert!(matches!(
        t.mock.actions.as_slice(),
        [Action::Send {
            msg: AdaptiveMsg::Reject { .. },
            ..
        }]
    ));
}

#[test]
fn search_response_sets_waiting_and_blocks_local_grant() {
    let mut t = Tester::new();
    let searcher = CellId(0);
    t.deliver(
        searcher,
        AdaptiveMsg::Request {
            update: None,
            ts: Timestamp {
                counter: 1,
                node: 0,
            },
            round: 0,
        },
    );
    assert_eq!(t.node.waiting(), 1);
    assert!(matches!(
        t.mock.take_actions().as_slice(),
        [Action::Send {
            msg: AdaptiveMsg::SearchUse { .. },
            ..
        }]
    ));
    // A local call now must WAIT (Figure 2 / deviation #7): the searcher
    // may pick any channel we'd otherwise take.
    let req = t.acquire();
    assert!(t.mock.granted().is_none(), "gated on waiting_i");
    // The searcher's ACQUISITION releases the gate.
    t.deliver(
        searcher,
        AdaptiveMsg::Acquisition {
            search: true,
            ch: Some(Channel(0)),
        },
    );
    assert_eq!(t.node.waiting(), 0);
    let (greq, ch) = t.mock.granted().expect("resumed and granted");
    assert_eq!(greq, req);
    assert_ne!(ch, Channel(0), "must avoid what the searcher just took");
}

#[test]
fn younger_search_is_deferred_while_pending() {
    let mut t = Tester::new();
    // Gate the node first so its local attempt parks in WaitQuiet.
    let older_searcher = CellId(0);
    t.deliver(
        older_searcher,
        AdaptiveMsg::Request {
            update: None,
            ts: Timestamp {
                counter: 1,
                node: 0,
            },
            round: 0,
        },
    );
    t.acquire(); // pending, ts > the observed counter 1
    t.mock.take_actions();
    // A YOUNGER search arrives: must be deferred, not answered.
    t.deliver(
        CellId(1),
        AdaptiveMsg::Request {
            update: None,
            ts: Timestamp {
                counter: 999,
                node: 1,
            },
            round: 0,
        },
    );
    assert!(t.mock.sends().is_empty(), "younger search deferred");
    assert_eq!(t.node.deferred(), 1);
    // An OLDER search still gets an immediate answer.
    t.deliver(
        CellId(2),
        AdaptiveMsg::Request {
            update: None,
            ts: Timestamp {
                counter: 0,
                node: 2,
            },
            round: 0,
        },
    );
    assert_eq!(t.mock.sends(), vec![("RESPONSE", CellId(2))]);
    assert_eq!(t.node.waiting(), 2);
}

#[test]
fn release_message_frees_view_entry() {
    let mut t = Tester::new();
    let (topo, me) = world();
    let my_lowest = topo.primary(me).first().expect("primaries");
    let borrower = CellId(0);
    t.deliver(
        borrower,
        AdaptiveMsg::Request {
            update: Some(my_lowest),
            ts: Timestamp {
                counter: 1,
                node: 0,
            },
            round: 0,
        },
    );
    t.deliver(borrower, AdaptiveMsg::Release { ch: my_lowest });
    t.mock.take_actions();
    // The channel is pick-able again.
    t.acquire();
    let (_, got) = t.mock.granted().expect("granted");
    assert_eq!(got, my_lowest);
}

#[test]
fn deallocate_in_borrowing_mode_tells_whole_region() {
    let mut t = Tester::new();
    let chans = t.fill_primaries();
    // Filling every primary flipped the node to borrowing mode.
    t.mock.take_actions();
    assert_eq!(t.node.mode(), Mode::Borrowing);
    // Now a call ends: Figure 9's borrowing branch broadcasts RELEASE.
    t.release(chans[0]);
    let releases = t
        .mock
        .sends()
        .iter()
        .filter(|(k, _)| *k == "RELEASE")
        .count();
    assert_eq!(releases, 8);
}
