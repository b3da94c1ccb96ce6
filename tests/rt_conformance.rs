//! Cross-backend conformance: the same seeded group scenario runs on the deterministic
//! simulation backend and on the multi-threaded backend, and both must satisfy the
//! virtual-synchrony invariants the simulator tests pin — identical per-group delivery
//! orders relative to views (paper Section 2.4).
//!
//! What "the same" can mean differs by backend: the simulation replays one exact schedule;
//! the threaded run is scheduled by the OS (with seeded delay/jitter injection on top), so
//! its interleaving is not reproducible.  The conformance contract is therefore the
//! *invariant*, not the schedule:
//!
//! * every member observes the same sequence of views;
//! * between any two consecutive views, every member delivers exactly the same messages in
//!   exactly the same order (the traffic is ABCAST, so the order must be total);
//! * messages sent by survivors are delivered exactly once, atomically, at every survivor;
//! * across backends, survivors deliver the same *set* of messages (the order may differ
//!   between backends — both are valid total orders).

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use vsync::core::{
    Duration, EntryId, GroupId, Message, ProcessId, ProtocolKind, SiteId, StackConfig,
};
use vsync::proto::ProtoConfig;
use vsync::rt::{
    FaultPlan, IsisHarness, IsisRuntime, NemesisEvent, NemesisSchedule, SimRuntime, ThreadedRuntime,
};
use vsync::tools::{FileStore, RecoveryManager, StateTransfer};
use vsync::util::NetParams;

const APPLY: EntryId = EntryId(5);

/// One observation from a member process, tagged with the member's site.  Observations
/// from one member arrive in its local order (handlers run sequentially on the member's
/// node), so filtering the shared stream by member reconstructs each member's event log.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Obs {
    Delivered { member: u16, body: u64 },
    ViewInstalled { member: u16, seq: u64, len: usize },
}

/// Per-member event log: deliveries partitioned by the views they happened in.
#[derive(Debug, Default, PartialEq, Eq)]
struct MemberLog {
    /// `(view_seq_at_delivery_time, body)` in local delivery order.
    deliveries: Vec<(u64, u64)>,
    /// View sequence numbers in installation order.
    views: Vec<u64>,
}

fn member_logs(observations: &[Obs], members: &[u16]) -> Vec<MemberLog> {
    members
        .iter()
        .map(|m| {
            let mut log = MemberLog::default();
            let mut current_view = 0;
            for obs in observations {
                match obs {
                    Obs::ViewInstalled { member, seq, .. } if member == m => {
                        current_view = *seq;
                        log.views.push(*seq);
                    }
                    Obs::Delivered { member, body } if member == m => {
                        log.deliveries.push((current_view, *body));
                    }
                    _ => {}
                }
            }
            log
        })
        .collect()
}

/// Runs the scenario: a three-member group over sites 0-2, a first ABCAST burst from every
/// member, a crash of site 2 once the burst is fully delivered, a second burst from the
/// survivors, and a drain.  Returns the collected observations.
fn run_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Obs> {
    let (tx, rx) = mpsc::channel::<Obs>();
    let gid_slot = h.allocate_group_id();
    let members: Vec<ProcessId> = (0..3u16)
        .map(|site| {
            let tx = tx.clone();
            h.spawn(SiteId(site), move |b| {
                let tx2 = tx.clone();
                b.on_entry(APPLY, move |_ctx, msg| {
                    let _ = tx.send(Obs::Delivered {
                        member: site,
                        body: msg.get_u64("body").unwrap_or(u64::MAX),
                    });
                });
                b.on_view_change(gid_slot, move |_ctx, ev| {
                    let _ = tx2.send(Obs::ViewInstalled {
                        member: site,
                        seq: ev.view.seq(),
                        len: ev.view.len(),
                    });
                });
            })
        })
        .collect();
    h.create_group_with_id("conf", gid_slot, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid_slot, *m, None, Duration::from_secs(20))
            .expect("join");
    }

    // Barrier: every member site has installed the fully-formed view (seq 3: create plus
    // two joins) before any traffic flows, so all sixteen messages belong to views every
    // member participates in.
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        (0..3u16).all(|s| {
            h.view_of(SiteId(s), gid_slot)
                .map(|v| v.seq() == 3 && v.len() == 3)
                .unwrap_or(false)
        })
    });
    assert!(ok, "three-member view never installed everywhere");

    // Phase one: eight ABCASTs, senders rotating over all three members.
    for i in 0..8u64 {
        h.client_send(
            members[(i % 3) as usize],
            gid_slot,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    // Wait until all 24 phase-one deliveries (8 messages × 3 members) are observed, so the
    // crash cannot take phase-one messages with it and both backends settle on one set.
    let mut observations: Vec<Obs> = Vec::new();
    let all_phase_one = |obs: &[Obs]| {
        obs.iter()
            .filter(|o| matches!(o, Obs::Delivered { .. }))
            .count()
            >= 24
    };
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        while let Ok(o) = rx.try_recv() {
            observations.push(o);
        }
        all_phase_one(&observations)
    });
    assert!(ok, "phase-one deliveries incomplete: {observations:?}");

    // Crash the third member's site; survivors must flush and install the 2-member view.
    h.rt.kill_site(SiteId(2));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        [0u16, 1].iter().all(|s| {
            h.view_of(SiteId(*s), gid_slot)
                .map(|v| v.len() == 2)
                .unwrap_or(false)
        })
    });
    assert!(ok, "survivors never installed the post-crash view");

    // Phase two: eight more ABCASTs from the survivors only.
    for i in 8..16u64 {
        h.client_send(
            members[(i % 2) as usize],
            gid_slot,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        while let Ok(o) = rx.try_recv() {
            observations.push(o);
        }
        // 24 phase-one + 16 phase-two survivor deliveries; the crashed member may have
        // logged some phase-one deliveries of its own on top.
        let survivor_deliveries = observations
            .iter()
            .filter(|o| matches!(o, Obs::Delivered { member, .. } if *member < 2))
            .count();
        survivor_deliveries >= 16 + 16
    });
    // Final drain of anything still in flight.
    h.settle(Duration::from_millis(50));
    while let Ok(o) = rx.try_recv() {
        observations.push(o);
    }
    assert!(ok, "phase-two deliveries incomplete: {observations:?}");
    observations
}

/// The virtual-synchrony checks both backends must pass.
fn check_virtual_synchrony(observations: &[Obs]) -> Vec<u64> {
    let logs = member_logs(observations, &[0, 1]);
    // Survivors observe the same view sequence from the fully-formed view onward (before
    // that their histories legitimately differ: each member starts observing the group at
    // its own join).
    let views_from_full =
        |log: &MemberLog| -> Vec<u64> { log.views.iter().copied().filter(|s| *s >= 3).collect() };
    assert_eq!(
        views_from_full(&logs[0]),
        views_from_full(&logs[1]),
        "survivors disagree on the view sequence"
    );
    // Identical delivery orders relative to views: every delivery is tagged with the view
    // it was delivered in, and the full tagged sequences must match — same total order
    // (ABCAST) and same partitioning across view boundaries (the virtual synchrony cut).
    assert_eq!(
        logs[0].deliveries, logs[1].deliveries,
        "survivors disagree on delivery order relative to views"
    );
    // Exactly-once: no body repeats.
    let mut bodies: Vec<u64> = logs[0].deliveries.iter().map(|(_, b)| *b).collect();
    let order = bodies.clone();
    bodies.sort_unstable();
    let before = bodies.len();
    bodies.dedup();
    assert_eq!(before, bodies.len(), "duplicate deliveries");
    // All sixteen messages (both phases came from processes that stayed alive through
    // their sends and the waits) are delivered.
    assert_eq!(bodies, (0..16).collect::<Vec<u64>>(), "lost deliveries");
    order
}

/// Runs the join-under-load scenario: a three-member group, a first ABCAST burst, then a
/// fourth member whose join is submitted **while a second burst is still in flight**, a
/// final burst in which the joiner also sends, and a drain.  Returns the observations.
fn run_join_under_load_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Obs> {
    let (tx, rx) = mpsc::channel::<Obs>();
    let gid_slot = h.allocate_group_id();
    let spawn_observer = |h: &mut IsisHarness<R>, site: u16, tx: mpsc::Sender<Obs>| {
        h.spawn(SiteId(site), move |b| {
            let tx2 = tx.clone();
            b.on_entry(APPLY, move |_ctx, msg| {
                let _ = tx.send(Obs::Delivered {
                    member: site,
                    body: msg.get_u64("body").unwrap_or(u64::MAX),
                });
            });
            b.on_view_change(gid_slot, move |_ctx, ev| {
                let _ = tx2.send(Obs::ViewInstalled {
                    member: site,
                    seq: ev.view.seq(),
                    len: ev.view.len(),
                });
            });
        })
    };
    let members: Vec<ProcessId> = (0..3u16)
        .map(|site| spawn_observer(&mut h, site, tx.clone()))
        .collect();
    h.create_group_with_id("load", gid_slot, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid_slot, *m, None, Duration::from_secs(20))
            .expect("join");
    }
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        (0..3u16).all(|s| {
            h.view_of(SiteId(s), gid_slot)
                .map(|v| v.seq() == 3 && v.len() == 3)
                .unwrap_or(false)
        })
    });
    assert!(ok, "three-member view never installed everywhere");

    // Phase one: eight ABCASTs, fully delivered before the join traffic starts.
    for i in 0..8u64 {
        h.client_send(
            members[(i % 3) as usize],
            gid_slot,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let mut observations: Vec<Obs> = Vec::new();
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        while let Ok(o) = rx.try_recv() {
            observations.push(o);
        }
        observations
            .iter()
            .filter(|o| matches!(o, Obs::Delivered { .. }))
            .count()
            >= 24
    });
    assert!(ok, "phase-one deliveries incomplete: {observations:?}");

    // Phase two: eight more ABCASTs, and the fourth member joins while they are in
    // flight — the join races unstable traffic.
    for i in 8..16u64 {
        h.client_send(
            members[(i % 3) as usize],
            gid_slot,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let joiner = spawn_observer(&mut h, 3, tx.clone());
    h.join_and_wait(gid_slot, joiner, None, Duration::from_secs(20))
        .expect("join under load");

    // Phase three: the joiner is a full member and sends too.
    let all = [members[0], members[1], members[2], joiner];
    for i in 16..24u64 {
        h.client_send(
            all[(i % 4) as usize],
            gid_slot,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        while let Ok(o) = rx.try_recv() {
            observations.push(o);
        }
        // The three original members deliver all 24 bodies; the joiner delivers at least
        // the 8 post-join ones (how much of phase two lands after its cut is schedule-
        // dependent).
        (0..3u16).all(|m| {
            observations
                .iter()
                .filter(|o| matches!(o, Obs::Delivered { member, .. } if *member == m))
                .count()
                >= 24
        }) && observations
            .iter()
            .filter(|o| matches!(o, Obs::Delivered { member, .. } if *member == 3))
            .count()
            >= 8
    });
    h.settle(Duration::from_millis(50));
    while let Ok(o) = rx.try_recv() {
        observations.push(o);
    }
    assert!(
        ok,
        "join-under-load deliveries incomplete: {observations:?}"
    );
    observations
}

/// The join-under-load invariants both backends must pass: exactly-once everywhere, and
/// identical delivery orders relative to views — including at the joiner, whose log must
/// coincide with every older member's log restricted to the views the joiner belongs to.
fn check_join_under_load(observations: &[Obs]) {
    let logs = member_logs(observations, &[0, 1, 2, 3]);
    // Original members: all 24 bodies, exactly once, in identical view-tagged order from
    // the fully-formed view onward.
    for (m, log) in logs.iter().take(3).enumerate() {
        let mut bodies: Vec<u64> = log.deliveries.iter().map(|(_, b)| *b).collect();
        bodies.sort_unstable();
        assert_eq!(
            bodies,
            (0..24).collect::<Vec<u64>>(),
            "member {m} lost or duplicated deliveries"
        );
    }
    let tagged_from = |log: &MemberLog, seq: u64| -> Vec<(u64, u64)> {
        log.deliveries
            .iter()
            .copied()
            .filter(|(v, _)| *v >= seq)
            .collect()
    };
    for m in 1..3 {
        assert_eq!(
            tagged_from(&logs[0], 3),
            tagged_from(&logs[m], 3),
            "member {m} disagrees on delivery order relative to views"
        );
    }
    // The joiner: duplicate-free, and from its first view onward its entire log is
    // *identical* to every older member's log restricted to those views — the joiner sees
    // exactly the post-cut suffix of the group's history (the pre-cut prefix reaches it
    // as state, not as messages).
    let join_seq = *logs[3].views.first().expect("joiner installed a view");
    assert!(
        join_seq >= 4,
        "the joiner's first view follows the join cut"
    );
    let joiner_log = tagged_from(&logs[3], 0);
    let mut bodies: Vec<u64> = joiner_log.iter().map(|(_, b)| *b).collect();
    bodies.sort_unstable();
    let before = bodies.len();
    bodies.dedup();
    assert_eq!(before, bodies.len(), "duplicate deliveries at the joiner");
    for (m, log) in logs.iter().enumerate().take(3) {
        assert_eq!(
            tagged_from(log, join_seq),
            joiner_log,
            "joiner's delivery order diverges from member {m}'s post-cut suffix"
        );
    }
}

#[test]
fn simulated_backend_join_under_load_preserves_view_relative_order() {
    let params = NetParams::modern();
    let h = IsisHarness::new(SimRuntime::new(
        4,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        2027,
    ));
    let obs = run_join_under_load_scenario(h);
    check_join_under_load(&obs);
}

#[test]
fn threaded_backend_join_under_load_preserves_view_relative_order() {
    let faults = FaultPlan::none()
        .with_delay(Duration::from_micros(100))
        .with_jitter(Duration::from_micros(300));
    let h = IsisHarness::new(ThreadedRuntime::new(
        4,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        2027,
    ));
    let obs = run_join_under_load_scenario(h);
    check_join_under_load(&obs);
}

#[test]
fn simulated_backend_preserves_virtual_synchrony() {
    let params = NetParams::modern();
    let h = IsisHarness::new(SimRuntime::new(
        3,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        2026,
    ));
    let obs = run_scenario(h);
    check_virtual_synchrony(&obs);
}

#[test]
fn threaded_backend_preserves_virtual_synchrony() {
    // Delay + jitter injection on top of real threads; the FIFO clamp keeps channels
    // in order, the protocols do the rest.
    let faults = FaultPlan::none()
        .with_delay(Duration::from_micros(100))
        .with_jitter(Duration::from_micros(300));
    let h = IsisHarness::new(ThreadedRuntime::new(
        3,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        2026,
    ));
    let obs = run_scenario(h);
    check_virtual_synchrony(&obs);
}

// ---------------------------------------------------------------------------------------
// Relay: a client at a site with no member of the group multicasts to it.  Its site sends
// each multicast to a contact site as a `ProtoMsg::Relay` frame, and the contact makes the
// multicast under the client's address (paper Figure 1).  On threads every relay crosses a
// thread boundary as bytes, so the threaded run parses each one.

/// Bodies the outside client sends; even ones go by CBCAST, odd ones by ABCAST.
const RELAYED: u64 = 16;

/// A three-member group on sites 0-2 and a client on site 3 that sends [`RELAYED`]
/// multicasts to it.  Returns each member's delivered bodies in local delivery order; a
/// delivery that does not carry the client's address reads as `u64::MAX`.
fn run_relay_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Vec<u64>> {
    let (tx, rx) = mpsc::channel::<Obs>();
    let gid = h.allocate_group_id();
    let client = h.spawn(SiteId(3), |_| {});
    let members: Vec<ProcessId> = (0..3u16)
        .map(|site| {
            let tx = tx.clone();
            h.spawn(SiteId(site), move |b| {
                b.on_entry(APPLY, move |_ctx, msg| {
                    let from_client = msg.sender() == Some(client);
                    let _ = tx.send(Obs::Delivered {
                        member: site,
                        body: msg
                            .get_u64("body")
                            .filter(|_| from_client)
                            .unwrap_or(u64::MAX),
                    });
                });
            })
        })
        .collect();
    h.create_group_with_id("relayed", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(20))
            .expect("join");
    }
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        (0..3u16).all(|s| h.view_of(SiteId(s), gid).is_some_and(|v| v.len() == 3))
    });
    assert!(ok, "three-member view never installed everywhere");
    assert!(
        h.view_of(SiteId(3), gid).is_none(),
        "site 3 hosts no member"
    );

    for i in 0..RELAYED {
        let protocol = if i % 2 == 0 {
            ProtocolKind::Cbcast
        } else {
            ProtocolKind::Abcast
        };
        h.client_send(client, gid, APPLY, Message::with_body(i), protocol);
    }
    let mut observations = Vec::new();
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        observations.extend(rx.try_iter());
        observations.len() as u64 >= 3 * RELAYED
    });
    // Anything beyond the expected count would be a duplicate: give it time to show.
    h.settle(Duration::from_millis(50));
    observations.extend(rx.try_iter());
    assert!(
        ok,
        "relayed multicasts not delivered everywhere: {observations:?}"
    );
    member_logs(&observations, &[0, 1, 2])
        .into_iter()
        .map(|log| log.deliveries.into_iter().map(|(_, body)| body).collect())
        .collect()
}

/// Every member delivers every relayed multicast exactly once, under the client's address,
/// and all members deliver the ABCASTs in one order.
fn check_relay(delivered: &[Vec<u64>]) {
    let abcasts =
        |order: &Vec<u64>| -> Vec<u64> { order.iter().copied().filter(|b| b % 2 == 1).collect() };
    for (member, order) in delivered.iter().enumerate() {
        let mut bodies = order.clone();
        bodies.sort_unstable();
        assert_eq!(
            bodies,
            (0..RELAYED).collect::<Vec<u64>>(),
            "member {member} did not deliver each relayed multicast once: {order:?}"
        );
        assert_eq!(
            abcasts(order),
            abcasts(&delivered[0]),
            "member {member} disagrees with member 0 on the ABCAST order"
        );
    }
}

#[test]
fn simulated_backend_relays_a_non_member_clients_multicasts() {
    let params = NetParams::modern();
    let h = IsisHarness::new(SimRuntime::new(
        4,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        2028,
    ));
    check_relay(&run_relay_scenario(h));
}

#[test]
fn threaded_backend_relays_a_non_member_clients_multicasts() {
    let faults = FaultPlan::none()
        .with_delay(Duration::from_micros(100))
        .with_jitter(Duration::from_micros(300));
    let h = IsisHarness::new(ThreadedRuntime::new(
        4,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        2028,
    ));
    check_relay(&run_relay_scenario(h));
}

// ---------------------------------------------------------------------------------------
// Crash → durable-log replay → rejoin
// ---------------------------------------------------------------------------------------
//
// A member site that fully dies (process and memory both gone) replays its on-disk
// recovery log to rebuild pre-crash state, then rejoins via state transfer.  The scenario
// pins the exactly-once partition — every message reaches the recovered member through
// exactly one of {log replay, rejoin snapshot, post-snapshot delivery} — and the recovery
// delivery *order*: the recovered member's full state order must equal every survivor's,
// because the replay preserves the pre-crash total order, the snapshot preserves the
// serving survivor's, and post-cut traffic is totally ordered ABCAST.

/// Deliveries of the recovery scenario, in phases of eight: pre-crash, while down, after
/// rejoin.
const REC_TOTAL: u64 = 24;

struct RecMirror {
    /// Every body added to the member's state, in state order.
    order: Arc<Mutex<Vec<u64>>>,
    ready: Arc<AtomicBool>,
}

struct ReplayCounters {
    replayed: Arc<AtomicU64>,
    snapshot_added: Arc<AtomicU64>,
    applies: Arc<AtomicU64>,
}

/// Spawns a group member whose state is the ordered list of delivered bodies.  With a
/// `root`, deliveries and view markers are also appended to a durable on-disk recovery log
/// (fsync'd per record), which is what the respawn leg replays.
fn spawn_durable_member<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    site: SiteId,
    gid: GroupId,
    ready: bool,
    root: Option<PathBuf>,
) -> (ProcessId, RecMirror) {
    let mirror = RecMirror {
        order: Arc::new(Mutex::new(Vec::new())),
        ready: Arc::new(AtomicBool::new(ready)),
    };
    let m_order = mirror.order.clone();
    let m_ready = mirror.ready.clone();
    let pid = h.spawn(site, move |b| {
        let rm = root.map(|r| {
            RecoveryManager::new(
                Rc::new(FileStore::new(r).expect("store").with_fsync_interval(1)),
                "recovery",
            )
        });
        if let Some(rm) = &rm {
            rm.attach_logging(b, gid);
        }
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let s_encode = state.clone();
        let s_apply = state.clone();
        let o_apply = m_order.clone();
        let xfer = StateTransfer::new(
            gid,
            move || {
                s_encode
                    .borrow()
                    .iter()
                    .map(|v| Message::new().with("rec-entry", *v))
                    .collect()
            },
            move |_ctx, block| {
                if let Some(v) = block.get_u64("rec-entry") {
                    let mut s = s_apply.borrow_mut();
                    if !s.contains(&v) {
                        s.push(v);
                        o_apply.lock().unwrap().push(v);
                    }
                }
                if block.get_bool("xfer-last").unwrap_or(false) {
                    m_ready.store(true, Ordering::Relaxed);
                }
            },
        );
        xfer.attach(b);
        if ready {
            xfer.mark_ready();
        }
        let s_update = state.clone();
        xfer.on_entry_buffered(b, APPLY, move |_ctx, msg| {
            // Log first, then apply: the test's "all delivered" observation reads the
            // mirror, so a kill can never land between a mirrored apply and its record.
            if let Some(rm) = &rm {
                let _ = rm.log_delivery(APPLY, msg);
            }
            let v = msg.get_u64("body").unwrap_or(u64::MAX);
            s_update.borrow_mut().push(v);
            m_order.lock().unwrap().push(v);
        });
    });
    (pid, mirror)
}

/// Respawns the member of a fully-dead site: reopen the on-disk store, replay the log to
/// rebuild pre-crash state, *then* wire the transfer tool and rejoin.  The counters pin
/// where each body came from.
fn respawn_recovered_member<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    site: SiteId,
    gid: GroupId,
    root: PathBuf,
) -> (ProcessId, RecMirror, ReplayCounters) {
    let mirror = RecMirror {
        order: Arc::new(Mutex::new(Vec::new())),
        ready: Arc::new(AtomicBool::new(false)),
    };
    let counters = ReplayCounters {
        replayed: Arc::new(AtomicU64::new(0)),
        snapshot_added: Arc::new(AtomicU64::new(0)),
        applies: Arc::new(AtomicU64::new(0)),
    };
    let m_order = mirror.order.clone();
    let m_ready = mirror.ready.clone();
    let c_replayed = counters.replayed.clone();
    let c_snapshot = counters.snapshot_added.clone();
    let c_applies = counters.applies.clone();
    let pid = h.spawn(site, move |b| {
        let rm = RecoveryManager::new(
            Rc::new(
                FileStore::new(root)
                    .expect("reopen store")
                    .with_fsync_interval(1),
            ),
            "recovery",
        );
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        // Replay before anything else: the durable log rebuilds the pre-crash state in
        // delivery order.
        {
            let s = state.clone();
            let o = m_order.clone();
            let summary = rm
                .replay(|entry, payload| {
                    if entry == APPLY {
                        let v = payload.get_u64("body").unwrap_or(u64::MAX);
                        s.borrow_mut().push(v);
                        o.lock().unwrap().push(v);
                    }
                })
                .expect("replay");
            c_replayed.store(summary.messages as u64, Ordering::Relaxed);
        }
        rm.attach_logging(b, gid);
        let s_encode = state.clone();
        let s_apply = state.clone();
        let o_apply = m_order.clone();
        let xfer = StateTransfer::new(
            gid,
            move || {
                s_encode
                    .borrow()
                    .iter()
                    .map(|v| Message::new().with("rec-entry", *v))
                    .collect()
            },
            move |_ctx, block| {
                if let Some(v) = block.get_u64("rec-entry") {
                    let mut s = s_apply.borrow_mut();
                    // The rejoin snapshot overlaps the replayed prefix; only genuinely new
                    // bodies count as snapshot-recovered.
                    if !s.contains(&v) {
                        s.push(v);
                        o_apply.lock().unwrap().push(v);
                        c_snapshot.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if block.get_bool("xfer-last").unwrap_or(false) {
                    m_ready.store(true, Ordering::Relaxed);
                }
            },
        );
        xfer.attach(b);
        let s_update = state.clone();
        xfer.on_entry_buffered(b, APPLY, move |_ctx, msg| {
            let _ = rm.log_delivery(APPLY, msg);
            let v = msg.get_u64("body").unwrap_or(u64::MAX);
            s_update.borrow_mut().push(v);
            m_order.lock().unwrap().push(v);
            c_applies.fetch_add(1, Ordering::Relaxed);
        });
    });
    (pid, mirror, counters)
}

/// Runs the crash → replay → rejoin scenario and returns the three members' state orders
/// plus the recovered member's partition counters.
fn run_recovery_scenario<R: IsisRuntime>(
    mut h: IsisHarness<R>,
    root: &std::path::Path,
) -> (Vec<Vec<u64>>, [u64; 3]) {
    let gid = h.allocate_group_id();
    let (m0, c0) = spawn_durable_member(&mut h, SiteId(0), gid, true, None);
    h.create_group_with_id("rec", gid, m0);
    let (m1, c1) = spawn_durable_member(&mut h, SiteId(1), gid, false, None);
    h.join_and_wait(gid, m1, None, Duration::from_secs(20))
        .expect("join m1");
    let (m2, c2) = spawn_durable_member(&mut h, SiteId(2), gid, false, Some(root.to_path_buf()));
    h.join_and_wait(gid, m2, None, Duration::from_secs(20))
        .expect("join m2");
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        c1.ready.load(Ordering::Relaxed) && c2.ready.load(Ordering::Relaxed)
    });
    assert!(ok, "initial transfers never completed");

    let order_len = |c: &RecMirror| c.order.lock().unwrap().len() as u64;

    // Phase one: eight ABCASTs, logged durably at site 2, delivered everywhere.
    for i in 0..8u64 {
        h.client_send(
            [m0, m1, m2][(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        [&c0, &c1, &c2].iter().all(|c| order_len(c) == 8)
    });
    assert!(ok, "phase-one deliveries incomplete");

    // Full site death: process, memory and in-flight state all gone; only the disk log
    // survives.
    h.rt.kill_site(SiteId(2));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        [0u16, 1].iter().all(|s| {
            h.view_of(SiteId(*s), gid)
                .map(|v| v.len() == 2)
                .unwrap_or(false)
        })
    });
    assert!(ok, "survivors never installed the post-crash view");

    // Phase two: eight more ABCASTs the dead site misses entirely.
    for i in 8..16u64 {
        h.client_send(
            [m0, m1][(i % 2) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    // Quiesce before the rejoin so the cut is clean: phase two fully delivered *and*
    // stable, which forces the partition counters to exact values below.
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        order_len(&c0) == 16 && order_len(&c1) == 16 && h.unstable_count(SiteId(0), gid) == 0
    });
    assert!(ok, "phase-two deliveries never stabilised");

    // Respawn: fresh stack, fresh process, state rebuilt from the disk log, rejoin via
    // state transfer.
    h.rt.recover_site(SiteId(2));
    let (r2, c2b, counters) = respawn_recovered_member(&mut h, SiteId(2), gid, root.to_path_buf());
    h.query(SiteId(2), move |stack, _now, _out| {
        // The fresh stack lost its namespace cache; both survivor sites as contacts.
        stack.register_group("rec", gid, vec![SiteId(0), SiteId(1)]);
    });
    h.join_and_wait(gid, r2, None, Duration::from_secs(20))
        .expect("rejoin after replay");
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        c2b.ready.load(Ordering::Relaxed)
    });
    assert!(ok, "rejoin transfer never completed");

    // Phase three: eight more ABCASTs, the recovered member sending too.
    for i in 16..REC_TOTAL {
        h.client_send(
            [m0, m1, r2][(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        [&c0, &c1, &c2b].iter().all(|c| order_len(c) == REC_TOTAL)
    });
    assert!(ok, "phase-three deliveries incomplete");
    h.settle(Duration::from_millis(50));

    let orders = [&c0, &c1, &c2b]
        .iter()
        .map(|c| c.order.lock().unwrap().clone())
        .collect();
    (
        orders,
        [
            counters.replayed.load(Ordering::Relaxed),
            counters.snapshot_added.load(Ordering::Relaxed),
            counters.applies.load(Ordering::Relaxed),
        ],
    )
}

/// The invariants the recovery scenario must satisfy on every backend.
fn check_recovery(orders: &[Vec<u64>], partition: [u64; 3]) {
    // Identical recovery delivery orders: replay preserves the pre-crash prefix, the
    // snapshot the serving survivor's order, post-cut ABCAST the total order — so all
    // three full state orders coincide.
    assert_eq!(orders[0], orders[1], "survivors disagree on delivery order");
    assert_eq!(
        orders[0], orders[2],
        "recovered member's state order diverges from the survivors'"
    );
    let mut bodies = orders[2].clone();
    bodies.sort_unstable();
    assert_eq!(
        bodies,
        (0..REC_TOTAL).collect::<Vec<u64>>(),
        "recovered member lost or duplicated deliveries"
    );
    // The exactly-once partition, pinned to exact per-phase counts by the quiesced cut:
    // phase one arrives via the replayed log, phase two via the rejoin snapshot, phase
    // three via post-snapshot delivery.
    assert_eq!(partition, [8, 8, 8], "recovery partition off");
    assert_eq!(
        partition.iter().sum::<u64>(),
        REC_TOTAL,
        "log-replayed + snapshot + post-snapshot applies must equal the total"
    );
}

fn recovery_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vsync-recovery-{tag}-{}", std::process::id()))
}

#[test]
fn simulated_backend_recovers_from_its_durable_log() {
    let root = recovery_root("sim");
    let _ = std::fs::remove_dir_all(&root);
    let params = NetParams::modern();
    let h = IsisHarness::new(SimRuntime::new(
        3,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        2026,
    ));
    let (orders, partition) = run_recovery_scenario(h, &root);
    check_recovery(&orders, partition);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn threaded_backend_recovers_from_its_durable_log() {
    let root = recovery_root("threaded");
    let _ = std::fs::remove_dir_all(&root);
    let faults = FaultPlan::none()
        .with_delay(Duration::from_micros(100))
        .with_jitter(Duration::from_micros(300));
    let h = IsisHarness::new(ThreadedRuntime::new(
        3,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        2027,
    ));
    let (orders, partition) = run_recovery_scenario(h, &root);
    check_recovery(&orders, partition);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn both_backends_deliver_the_same_message_set() {
    let params = NetParams::modern();
    let sim_obs = run_scenario(IsisHarness::new(SimRuntime::new(
        3,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        2026,
    )));
    let sim_order = check_virtual_synchrony(&sim_obs);
    let thr_obs = run_scenario(IsisHarness::new(ThreadedRuntime::new(
        3,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        FaultPlan::none(),
        2026,
    )));
    let thr_order = check_virtual_synchrony(&thr_obs);
    // Both backends deliver exactly the same set; each backend's order is a valid total
    // order but the two need not coincide (the threaded schedule is the OS's).
    let set = |v: &[u64]| {
        let mut s = v.to_vec();
        s.sort_unstable();
        s
    };
    assert_eq!(set(&sim_order), set(&thr_order));
}

// ---------------------------------------------------------------------------------------
// Partition → wedge → heal → rejoin
// ---------------------------------------------------------------------------------------
//
// The same primary-partition contract on both backends: a symmetric cut exiles the
// minority member (the majority flushes it out; the minority wedges instead of forming a
// rump view), and after the heal the exile discards its tail and rejoins through a state
// transfer.  Conformance is again the invariant, not the schedule: the continuous members'
// view-tagged delivery logs stay identical, and the rejoined member's *body order* equals
// theirs — phase-one live deliveries, then the exile-gap bodies in the snapshot server's
// state order (which is the majority's delivery order), then post-heal traffic.

/// Spawns a member whose replicated state is the ordered list of delivered bodies, wired
/// through `StateTransfer` so a heal-rejoin can catch it up exactly once.
fn spawn_partition_member<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    site: u16,
    gid: GroupId,
    ready: bool,
    tx: mpsc::Sender<Obs>,
) -> ProcessId {
    h.spawn(SiteId(site), move |b| {
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let s_encode = state.clone();
        let s_apply = state.clone();
        let tx_apply = tx.clone();
        let xfer = StateTransfer::new(
            gid,
            move || {
                s_encode
                    .borrow()
                    .iter()
                    .map(|v| Message::new().with("ph-entry", *v))
                    .collect()
            },
            move |_ctx, block| {
                if let Some(v) = block.get_u64("ph-entry") {
                    let mut s = s_apply.borrow_mut();
                    // A rejoin snapshot overlaps the prefix the exile already delivered.
                    if !s.contains(&v) {
                        s.push(v);
                        let _ = tx_apply.send(Obs::Delivered {
                            member: site,
                            body: v,
                        });
                    }
                }
            },
        );
        xfer.attach(b);
        if ready {
            xfer.mark_ready();
        }
        let s_update = state.clone();
        let tx_deliver = tx.clone();
        xfer.on_entry_buffered(b, APPLY, move |_ctx, msg| {
            let v = msg.get_u64("body").unwrap_or(u64::MAX);
            s_update.borrow_mut().push(v);
            let _ = tx_deliver.send(Obs::Delivered {
                member: site,
                body: v,
            });
        });
        b.on_view_change(gid, move |_ctx, ev| {
            let _ = tx.send(Obs::ViewInstalled {
                member: site,
                seq: ev.view.seq(),
                len: ev.view.len(),
            });
        });
    })
}

/// Cut `{0,1} | {2}`, run majority traffic while the minority is wedged, heal, and demand
/// full convergence plus a post-heal burst in which the rejoined member also sends.
fn run_partition_heal_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Obs> {
    let (tx, rx) = mpsc::channel::<Obs>();
    let gid = h.allocate_group_id();
    let members: Vec<ProcessId> = (0..3u16)
        .map(|site| spawn_partition_member(&mut h, site, gid, site == 0, tx.clone()))
        .collect();
    h.create_group_with_id("part-conf", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(20))
            .expect("join");
    }
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        (0..3u16).all(|s| {
            h.view_of(SiteId(s), gid)
                .map(|v| v.seq() == 3 && v.len() == 3)
                .unwrap_or(false)
        })
    });
    assert!(ok, "three-member view never installed everywhere");

    let mut observations: Vec<Obs> = Vec::new();
    let drain = |obs: &mut Vec<Obs>, rx: &mpsc::Receiver<Obs>| {
        while let Ok(o) = rx.try_recv() {
            obs.push(o);
        }
    };
    let delivered = |obs: &[Obs], member: u16| -> usize {
        let mut bodies: Vec<u64> = obs
            .iter()
            .filter_map(|o| match o {
                Obs::Delivered { member: m, body } if *m == member => Some(*body),
                _ => None,
            })
            .collect();
        bodies.sort_unstable();
        bodies.dedup();
        bodies.len()
    };

    // Phase one: six ABCASTs from all three members, fully delivered before the cut.
    for i in 0..6u64 {
        h.client_send(
            members[(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        drain(&mut observations, &rx);
        (0..3u16).all(|m| delivered(&observations, m) >= 6)
    });
    assert!(ok, "phase-one deliveries incomplete");

    // Cut the third member away and hold the cut open (no scheduled heal): the cut lasts
    // exactly as long as the scenario needs it to, on either backend's clock.
    h.run_nemesis(&NemesisSchedule::new().at(
        Duration::from_millis(10),
        NemesisEvent::Partition {
            components: vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)]],
        },
    ));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        [0u16, 1].iter().all(|s| {
            h.view_of(SiteId(*s), gid)
                .map(|v| v.len() == 2)
                .unwrap_or(false)
        })
    });
    assert!(ok, "the majority never cut the minority out");

    // Phase two: majority-only traffic while the exile is wedged.
    for i in 6..12u64 {
        h.client_send(
            members[(i % 2) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        drain(&mut observations, &rx);
        [0u16, 1].iter().all(|m| delivered(&observations, *m) >= 12)
    });
    assert!(ok, "phase-two survivor deliveries incomplete");

    // Heal.  The wedged exile learns of the primary's view, discards its tail, rejoins,
    // and catches up through the snapshot.
    h.run_nemesis(&NemesisSchedule::new().at(Duration::from_millis(1), NemesisEvent::Heal));
    let ok = h.wait_until(Duration::from_secs(60), |h| {
        drain(&mut observations, &rx);
        (0..3u16).all(|s| {
            h.view_of(SiteId(s), gid)
                .map(|v| members.iter().all(|m| v.contains(*m)))
                .unwrap_or(false)
        }) && delivered(&observations, 2) >= 12
    });
    assert!(ok, "the exiled member never rejoined and converged");

    // Phase three: everyone sends, including the rejoined member.
    for i in 12..18u64 {
        h.client_send(
            members[(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        drain(&mut observations, &rx);
        (0..3u16).all(|m| delivered(&observations, m) >= 18)
    });
    assert!(ok, "phase-three deliveries incomplete");
    h.settle(Duration::from_millis(50));
    drain(&mut observations, &rx);
    observations
}

fn check_partition_heal(observations: &[Obs]) {
    let logs = member_logs(observations, &[0, 1, 2]);
    // The continuous members observe identical view sequences from the fully-formed view
    // on (3-member, cut to 2, back to 3) and identical view-tagged delivery orders.
    let views_from_full =
        |log: &MemberLog| -> Vec<u64> { log.views.iter().copied().filter(|s| *s >= 3).collect() };
    assert_eq!(
        views_from_full(&logs[0]),
        views_from_full(&logs[1]),
        "continuous members disagree on the view sequence"
    );
    assert_eq!(
        logs[0].deliveries, logs[1].deliveries,
        "continuous members disagree on delivery order relative to views"
    );
    // Every member — including the exile — ends with the same duplicate-free body order:
    // the snapshot hands the exile the gap bodies in the majority's state order.
    for (m, log) in logs.iter().enumerate() {
        let bodies: Vec<u64> = log.deliveries.iter().map(|(_, b)| *b).collect();
        let mut sorted = bodies.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len(), "member {m} delivered a duplicate");
        assert_eq!(
            sorted,
            (0..18).collect::<Vec<u64>>(),
            "member {m} lost bodies"
        );
    }
    let order = |log: &MemberLog| -> Vec<u64> { log.deliveries.iter().map(|(_, b)| *b).collect() };
    assert_eq!(
        order(&logs[2]),
        order(&logs[0]),
        "the rejoined member's body order diverged from the primary's"
    );
}

#[test]
fn simulated_backend_conforms_across_a_partition_heal_cycle() {
    let params = NetParams::modern();
    let obs = run_partition_heal_scenario(IsisHarness::new(SimRuntime::new(
        3,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        2027,
    )));
    check_partition_heal(&obs);
}

#[test]
fn threaded_backend_conforms_across_a_partition_heal_cycle() {
    let faults = FaultPlan::none()
        .with_delay(Duration::from_micros(100))
        .with_jitter(Duration::from_micros(300));
    let obs = run_partition_heal_scenario(IsisHarness::new(ThreadedRuntime::new(
        3,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        2027,
    )));
    check_partition_heal(&obs);
}

#[test]
fn one_way_cut_exiles_the_silenced_member_without_a_wedge() {
    // Asymmetric failure: site 2 can still *hear* the majority but the majority cannot
    // hear it.  The majority suspects the silent member and cuts it; the member itself
    // never loses its majority (it hears every heartbeat), so it never wedges — it learns
    // of its exile from the commit that excludes it and goes straight to rejoin, which
    // stalls on the outbound cut until the heal.
    let params = NetParams::modern();
    let mut h = IsisHarness::new(SimRuntime::new(
        3,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        2028,
    ));
    let (tx, rx) = mpsc::channel::<Obs>();
    let gid = h.allocate_group_id();
    let members: Vec<ProcessId> = (0..3u16)
        .map(|site| spawn_partition_member(&mut h, site, gid, site == 0, tx.clone()))
        .collect();
    h.create_group_with_id("oneway", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(20))
            .expect("join");
    }

    let mut observations: Vec<Obs> = Vec::new();
    let delivered = |obs: &[Obs], member: u16| -> Vec<u64> {
        obs.iter()
            .filter_map(|o| match o {
                Obs::Delivered { member: m, body } if *m == member => Some(*body),
                _ => None,
            })
            .collect()
    };

    // A fully delivered burst before the cut.
    for i in 0..6u64 {
        h.client_send(
            members[(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        while let Ok(o) = rx.try_recv() {
            observations.push(o);
        }
        (0..3u16).all(|m| delivered(&observations, m).len() >= 6)
    });
    assert!(ok, "pre-cut deliveries incomplete");

    h.run_nemesis(&NemesisSchedule::new().at(
        Duration::from_millis(10),
        NemesisEvent::OneWayCut {
            from: vec![SiteId(2)],
            to: vec![SiteId(0), SiteId(1)],
        },
    ));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        [0u16, 1].iter().all(|s| {
            h.view_of(SiteId(*s), gid)
                .map(|v| v.len() == 2)
                .unwrap_or(false)
        })
    });
    assert!(ok, "the majority never cut the silenced member");
    assert_eq!(
        h.rt.stats().minority_wedges,
        0,
        "the silenced member hears the majority and must not wedge"
    );

    // Heal the outbound direction; the pending rejoin can now reach a contact.
    h.run_nemesis(&NemesisSchedule::new().at(Duration::from_millis(1), NemesisEvent::Heal));
    let ok = h.wait_until(Duration::from_secs(60), |h| {
        (0..3u16).all(|s| {
            h.view_of(SiteId(s), gid)
                .map(|v| members.iter().all(|m| v.contains(*m)))
                .unwrap_or(false)
        })
    });
    assert!(ok, "the exiled member never rejoined after the heal");
    assert!(
        h.rt.stats().rejoins_after_heal >= 1,
        "the rejoin path was not taken"
    );

    // Post-heal traffic from everyone lands everywhere, in one order.
    for i in 6..12u64 {
        h.client_send(
            members[(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        while let Ok(o) = rx.try_recv() {
            observations.push(o);
        }
        (0..3u16).all(|m| {
            let mut b = delivered(&observations, m);
            b.sort_unstable();
            b.dedup();
            b.len() >= 12
        })
    });
    assert!(ok, "post-heal deliveries incomplete");
    h.settle(Duration::from_millis(50));
    while let Ok(o) = rx.try_recv() {
        observations.push(o);
    }
    let logs = member_logs(&observations, &[0, 1, 2]);
    for (m, log) in logs.iter().enumerate() {
        let bodies: Vec<u64> = log.deliveries.iter().map(|(_, b)| *b).collect();
        let mut sorted = bodies.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len(), "member {m} delivered a duplicate");
        assert_eq!(
            sorted,
            (0..12).collect::<Vec<u64>>(),
            "member {m} lost bodies"
        );
    }
}
