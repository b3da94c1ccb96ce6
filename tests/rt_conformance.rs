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

mod support;

use support::{
    body, check, form_group, holding, jitter, send, sim, spawn_member, temp_root, threaded,
    view_at, Disk, Recorder, APPLY,
};
use vsync::core::{Duration, ProtocolKind, SiteId};
use vsync::rt::PartitionInvariants as Inv;
use vsync::rt::{FaultPlan, IsisHarness, IsisRuntime, NemesisEvent, NemesisSchedule};

const ABCAST: ProtocolKind = ProtocolKind::Abcast;

/// Runs the scenario: a three-member group over sites 0-2, a first ABCAST burst from every
/// member, a crash of site 2 once the burst is fully delivered, a second burst from the
/// survivors, and a drain.  Returns the members' recorders.
fn run_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Recorder> {
    // Every member has installed the fully-formed view (seq 3: create plus two joins)
    // before any traffic flows, so all sixteen messages belong to views every member
    // participates in.
    let (gid, pids, recs) = form_group(&mut h, 3);

    // Phase one: eight ABCASTs, senders rotating over all three members.
    for i in 0..8u64 {
        send(&mut h, pids[(i % 3) as usize], gid, i, ABCAST);
    }
    // Wait until all 24 phase-one deliveries are observed, so the crash cannot take
    // phase-one messages with it and both backends settle on one set.
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, 8));
    assert!(ok, "phase-one deliveries incomplete");

    // Crash the third member's site; survivors must flush and install the 2-member view.
    h.rt.kill_site(SiteId(2));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        view_at(h, gid, [0, 1], |v| v.len() == 2)
    });
    assert!(ok, "survivors never installed the post-crash view");

    // Phase two: eight more ABCASTs from the survivors only.
    for i in 8..16u64 {
        send(&mut h, pids[(i % 2) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs[..2], 16));
    // Final drain of anything still in flight.
    h.settle(Duration::from_millis(50));
    assert!(ok, "phase-two deliveries incomplete");
    recs
}

/// The virtual-synchrony checks both backends must pass; returns a survivor's order.
fn check_virtual_synchrony(recs: &[Recorder]) -> Vec<u64> {
    // Survivors observe the same view sequence from the fully-formed view onward (before
    // that their histories legitimately differ: each member starts at its own join).
    let from_full =
        |r: &Recorder| -> Vec<u64> { r.views().into_iter().filter(|s| *s >= 3).collect() };
    assert_eq!(
        from_full(&recs[0]),
        from_full(&recs[1]),
        "survivors disagree on the view sequence"
    );
    // Same total order (ABCAST) in each view, exactly once, and the same partitioning
    // across view boundaries (the virtual synchrony cut); the crashed member delivered a
    // prefix.
    check(recs, Inv::check_view_order);
    // All sixteen messages (both phases came from processes that stayed alive through
    // their sends and the waits) are delivered.
    assert_eq!(
        recs[0].sorted(),
        (0..16).collect::<Vec<u64>>(),
        "lost deliveries"
    );
    recs[0].bodies()
}

/// Runs the join-under-load scenario: a three-member group, a first ABCAST burst, then a
/// fourth member whose join is submitted **while a second burst is still in flight**, a
/// final burst in which the joiner also sends, and a drain.  Returns the recorders.
fn run_join_under_load_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Recorder> {
    let (gid, mut pids, mut recs) = form_group(&mut h, 3);

    // Phase one: eight ABCASTs, fully delivered before the join traffic starts.
    for i in 0..8u64 {
        send(&mut h, pids[(i % 3) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, 8));
    assert!(ok, "phase-one deliveries incomplete");

    // Phase two: eight more ABCASTs, and the fourth member joins while they are in
    // flight — the join races unstable traffic.
    for i in 8..16u64 {
        send(&mut h, pids[(i % 3) as usize], gid, i, ABCAST);
    }
    let (joiner, rec) = spawn_member(&mut h, SiteId(3), gid, false, Disk::None);
    h.join_and_wait(gid, joiner, None, Duration::from_secs(20))
        .expect("join under load");
    pids.push(joiner);
    recs.push(rec);

    // Phase three: the joiner is a full member and sends too.
    for i in 16..24u64 {
        send(&mut h, pids[(i % 4) as usize], gid, i, ABCAST);
    }
    // Every member ends with all 24 bodies: the joiner takes the pre-cut prefix as state.
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, 24));
    h.settle(Duration::from_millis(50));
    assert!(ok, "join-under-load deliveries incomplete");
    recs
}

/// The join-under-load invariants both backends must pass: exactly-once everywhere, and
/// identical delivery orders relative to views — including at the joiner, which delivers
/// exactly the post-cut suffix of the group's history (the pre-cut prefix reaches it as
/// state, not as messages).
fn check_join_under_load(recs: &[Recorder]) {
    assert!(
        recs[3].views()[0] >= 4,
        "the joiner's first view follows the join cut"
    );
    check(recs, Inv::check_view_order);
    for (m, r) in recs.iter().enumerate() {
        assert_eq!(
            r.sorted(),
            (0..24).collect::<Vec<u64>>(),
            "member {m} lost or duplicated deliveries"
        );
    }
}

#[test]
fn simulated_backend_join_under_load_preserves_view_relative_order() {
    let recs = run_join_under_load_scenario(sim(4, 2027, FaultPlan::none()));
    check_join_under_load(&recs);
}

#[test]
fn threaded_backend_join_under_load_preserves_view_relative_order() {
    let recs = run_join_under_load_scenario(threaded(4, 2027, jitter()));
    check_join_under_load(&recs);
}

#[test]
fn simulated_backend_preserves_virtual_synchrony() {
    check_virtual_synchrony(&run_scenario(sim(3, 2026, FaultPlan::none())));
}

#[test]
fn threaded_backend_preserves_virtual_synchrony() {
    // Delay + jitter injection on top of real threads; the FIFO clamp keeps channels
    // in order, the protocols do the rest.
    check_virtual_synchrony(&run_scenario(threaded(3, 2026, jitter())));
}

// ---------------------------------------------------------------------------------------
// Relay: a client at a site with no member of the group multicasts to it.  Its site sends
// each multicast to a contact site as a `ProtoMsg::Relay` frame, and the contact makes the
// multicast under the client's address (paper Figure 1).  On threads every relay crosses a
// thread boundary as bytes, so the threaded run parses each one.

/// Bodies the outside client sends; even ones go by CBCAST, odd ones by ABCAST.
const RELAYED: u64 = 16;

/// A three-member group on sites 0-2 and a client on site 3 that sends [`RELAYED`]
/// multicasts to it.  Returns the members' recorders; a delivery that does not carry the
/// client's address reads as `u64::MAX`.
fn run_relay_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Recorder> {
    let gid = h.allocate_group_id();
    let client = h.spawn(SiteId(3), |_| {});
    let recs: Vec<Recorder> = (0..3).map(|_| Recorder::new(true)).collect();
    let members: Vec<_> = recs
        .iter()
        .enumerate()
        .map(|(site, rec)| {
            let r = rec.clone();
            let pid = h.spawn(SiteId(site as u16), move |b| {
                r.watch(b, gid);
                b.on_entry(APPLY, move |_ctx, msg| {
                    let from_client = msg.sender() == Some(client);
                    r.deliver(if from_client { body(msg) } else { u64::MAX });
                });
            });
            rec.label(pid);
            pid
        })
        .collect();
    h.create_group_with_id("relayed", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(20))
            .expect("join");
    }
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        view_at(h, gid, 0..3, |v| v.len() == 3)
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
            ABCAST
        };
        send(&mut h, client, gid, i, protocol);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        holding(&recs, RELAYED as usize)
    });
    // Anything beyond the expected count would be a duplicate: give it time to show.
    h.settle(Duration::from_millis(50));
    assert!(ok, "relayed multicasts not delivered everywhere");
    recs
}

/// Every member delivers every relayed multicast exactly once, under the client's address,
/// and all members deliver the ABCASTs in one order.
fn check_relay(recs: &[Recorder]) {
    check(recs, Inv::check_view_agreement);
    let abcasts =
        |r: &Recorder| -> Vec<u64> { r.bodies().into_iter().filter(|b| b % 2 == 1).collect() };
    for (member, r) in recs.iter().enumerate() {
        assert_eq!(
            r.sorted(),
            (0..RELAYED).collect::<Vec<u64>>(),
            "member {member} did not deliver each relayed multicast once: {:?}",
            r.bodies()
        );
        assert_eq!(
            abcasts(r),
            abcasts(&recs[0]),
            "member {member} disagrees with member 0 on the ABCAST order"
        );
    }
}

#[test]
fn simulated_backend_relays_a_non_member_clients_multicasts() {
    check_relay(&run_relay_scenario(sim(4, 2028, FaultPlan::none())));
}

#[test]
fn threaded_backend_relays_a_non_member_clients_multicasts() {
    check_relay(&run_relay_scenario(threaded(4, 2028, jitter())));
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

/// Runs the crash → replay → rejoin scenario and returns the recorders of the two
/// survivors, the member that died, and its recovered incarnation.
fn run_recovery_scenario<R: IsisRuntime>(
    mut h: IsisHarness<R>,
    root: &std::path::Path,
) -> Vec<Recorder> {
    let gid = h.allocate_group_id();
    let (m0, c0) = spawn_member(&mut h, SiteId(0), gid, true, Disk::None);
    h.create_group_with_id("rec", gid, m0);
    let (m1, c1) = spawn_member(&mut h, SiteId(1), gid, false, Disk::None);
    h.join_and_wait(gid, m1, None, Duration::from_secs(20))
        .expect("join m1");
    let (m2, c2) = spawn_member(&mut h, SiteId(2), gid, false, Disk::Log(root.into(), None));
    h.join_and_wait(gid, m2, None, Duration::from_secs(20))
        .expect("join m2");
    let ok = h.wait_until(Duration::from_secs(20), |_| c1.is_ready() && c2.is_ready());
    assert!(ok, "initial transfers never completed");

    // Phase one: eight ABCASTs, logged durably at site 2, delivered everywhere.
    for i in 0..8u64 {
        send(&mut h, [m0, m1, m2][(i % 3) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        holding(&[c0.clone(), c1.clone(), c2.clone()], 8)
    });
    assert!(ok, "phase-one deliveries incomplete");

    // Full site death: process, memory and in-flight state all gone; only the disk log
    // survives.
    h.rt.kill_site(SiteId(2));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        view_at(h, gid, [0, 1], |v| v.len() == 2)
    });
    assert!(ok, "survivors never installed the post-crash view");

    // Phase two: eight more ABCASTs the dead site misses entirely.
    for i in 8..16u64 {
        send(&mut h, [m0, m1][(i % 2) as usize], gid, i, ABCAST);
    }
    // Quiesce before the rejoin so the cut is clean: phase two fully delivered *and*
    // stable, which forces the partition counters to exact values below.
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        holding(&[c0.clone(), c1.clone()], 16) && h.unstable_count(SiteId(0), gid) == 0
    });
    assert!(ok, "phase-two deliveries never stabilised");

    // Respawn: fresh stack, fresh process, state rebuilt from the disk log, rejoin via
    // state transfer.
    h.rt.recover_site(SiteId(2));
    let (r2, c2b) = spawn_member(&mut h, SiteId(2), gid, false, Disk::Recover(root.into()));
    h.query(SiteId(2), move |stack, _now, _out| {
        // The fresh stack lost its namespace cache; both survivor sites as contacts.
        stack.register_group("rec", gid, vec![SiteId(0), SiteId(1)]);
    });
    h.join_and_wait(gid, r2, None, Duration::from_secs(20))
        .expect("rejoin after replay");
    let ok = h.wait_until(Duration::from_secs(20), |_| c2b.is_ready());
    assert!(ok, "rejoin transfer never completed");

    // Phase three: eight more ABCASTs, the recovered member sending too.
    for i in 16..REC_TOTAL {
        send(&mut h, [m0, m1, r2][(i % 3) as usize], gid, i, ABCAST);
    }
    let recs = vec![c0, c1, c2b, c2];
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        holding(&recs[..3], REC_TOTAL as usize)
    });
    assert!(ok, "phase-three deliveries incomplete");
    h.settle(Duration::from_millis(50));
    recs
}

/// The invariants the recovery scenario must satisfy on every backend.
fn check_recovery(recs: &[Recorder]) {
    // Identical recovery delivery orders: replay preserves the pre-crash prefix, the
    // snapshot the serving survivor's order, post-cut ABCAST the total order — so all
    // three full state orders coincide, each duplicate-free.
    check(&recs[..3], Inv::check_all);
    check(recs, Inv::check_view_order);
    assert_eq!(
        recs[2].sorted(),
        (0..REC_TOTAL).collect::<Vec<u64>>(),
        "recovered member lost or duplicated deliveries"
    );
    // The exactly-once partition, pinned to exact per-phase counts by the quiesced cut:
    // phase one arrives via the replayed log, phase two via the rejoin snapshot, phase
    // three via post-snapshot delivery.
    assert_eq!(recs[2].from(), [8, 8, 8], "recovery partition off");
}

#[test]
fn simulated_backend_recovers_from_its_durable_log() {
    let root = temp_root("recovery-sim");
    check_recovery(&run_recovery_scenario(
        sim(3, 2026, FaultPlan::none()),
        &root,
    ));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn threaded_backend_recovers_from_its_durable_log() {
    let root = temp_root("recovery-threaded");
    check_recovery(&run_recovery_scenario(threaded(3, 2027, jitter()), &root));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn both_backends_deliver_the_same_message_set() {
    let sim_order = check_virtual_synchrony(&run_scenario(sim(3, 2026, FaultPlan::none())));
    let thr_order = check_virtual_synchrony(&run_scenario(threaded(3, 2026, FaultPlan::none())));
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

/// Cut `{0,1} | {2}`, run majority traffic while the minority is wedged, heal, and demand
/// full convergence plus a post-heal burst in which the rejoined member also sends.
fn run_partition_heal_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Recorder> {
    let (gid, members, recs) = form_group(&mut h, 3);

    // Phase one: six ABCASTs from all three members, fully delivered before the cut.
    for i in 0..6u64 {
        send(&mut h, members[(i % 3) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, 6));
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
        view_at(h, gid, [0, 1], |v| v.len() == 2)
    });
    assert!(ok, "the majority never cut the minority out");

    // Phase two: majority-only traffic while the exile is wedged.
    for i in 6..12u64 {
        send(&mut h, members[(i % 2) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs[..2], 12));
    assert!(ok, "phase-two survivor deliveries incomplete");

    // Heal.  The wedged exile learns of the primary's view, discards its tail, rejoins,
    // and catches up through the snapshot.
    h.run_nemesis(&NemesisSchedule::new().at(Duration::from_millis(1), NemesisEvent::Heal));
    let ok = h.wait_until(Duration::from_secs(60), |h| {
        view_at(h, gid, 0..3, |v| members.iter().all(|m| v.contains(*m))) && holding(&recs[2..], 12)
    });
    assert!(ok, "the exiled member never rejoined and converged");

    // Phase three: everyone sends, including the rejoined member.
    for i in 12..18u64 {
        send(&mut h, members[(i % 3) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, 18));
    assert!(ok, "phase-three deliveries incomplete");
    h.settle(Duration::from_millis(50));
    recs
}

fn check_partition_heal(recs: &[Recorder]) {
    // The continuous members observe identical view sequences from the fully-formed view
    // on (3-member, cut to 2, back to 3) and identical view-tagged delivery orders.
    let from_full =
        |r: &Recorder| -> Vec<u64> { r.views().into_iter().filter(|s| *s >= 3).collect() };
    assert_eq!(
        from_full(&recs[0]),
        from_full(&recs[1]),
        "continuous members disagree on the view sequence"
    );
    check(recs, Inv::check_view_order);
    // Every member — including the exile — ends with the same duplicate-free body order:
    // the snapshot hands the exile the gap bodies in the majority's state order.
    check(recs, Inv::check_all);
    assert_eq!(
        recs[0].sorted(),
        (0..18).collect::<Vec<u64>>(),
        "lost bodies"
    );
}

#[test]
fn simulated_backend_conforms_across_a_partition_heal_cycle() {
    check_partition_heal(&run_partition_heal_scenario(sim(
        3,
        2027,
        FaultPlan::none(),
    )));
}

#[test]
fn threaded_backend_conforms_across_a_partition_heal_cycle() {
    check_partition_heal(&run_partition_heal_scenario(threaded(3, 2027, jitter())));
}

#[test]
fn one_way_cut_exiles_the_silenced_member_without_a_wedge() {
    // Asymmetric failure: site 2 can still *hear* the majority but the majority cannot
    // hear it.  The majority suspects the silent member and cuts it; the member itself
    // never loses its majority (it hears every heartbeat), so it never wedges — it learns
    // of its exile from the commit that excludes it and goes straight to rejoin, which
    // stalls on the outbound cut until the heal.
    let mut h = sim(3, 2028, FaultPlan::none());
    let (gid, members, recs) = form_group(&mut h, 3);

    // A fully delivered burst before the cut.
    for i in 0..6u64 {
        send(&mut h, members[(i % 3) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, 6));
    assert!(ok, "pre-cut deliveries incomplete");

    h.run_nemesis(&NemesisSchedule::new().at(
        Duration::from_millis(10),
        NemesisEvent::OneWayCut {
            from: vec![SiteId(2)],
            to: vec![SiteId(0), SiteId(1)],
        },
    ));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        view_at(h, gid, [0, 1], |v| v.len() == 2)
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
        view_at(h, gid, 0..3, |v| members.iter().all(|m| v.contains(*m)))
    });
    assert!(ok, "the exiled member never rejoined after the heal");
    assert!(
        h.rt.stats().rejoins_after_heal >= 1,
        "the rejoin path was not taken"
    );

    // Post-heal traffic from everyone lands everywhere, in one order.
    for i in 6..12u64 {
        send(&mut h, members[(i % 3) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, 12));
    assert!(ok, "post-heal deliveries incomplete");
    h.settle(Duration::from_millis(50));
    check(&recs, Inv::check_all);
    check(&recs, Inv::check_view_order);
    assert_eq!(
        recs[0].sorted(),
        (0..12).collect::<Vec<u64>>(),
        "lost bodies"
    );
}

// ---------------------------------------------------------------------------------------
// Last member leaves → the site has no part in the group → a fresh member joins there
// ---------------------------------------------------------------------------------------
//
// A site's part in a group is its endpoint.  Once the site's last member has left, the
// site answers like one that was never in the group — no view, no endpoint — and a fresh
// process there joins through a contact like any newcomer, its state brought by transfer.

/// Forms a group on sites 0-2, sends a burst, lets site 2's member leave, checks that site
/// 2 dropped its part in the group, then joins a fresh member at site 2 and sends a second
/// burst in which it takes part.  Returns the recorders: the three first members, then the
/// fresh one.
fn run_rehost_scenario<R: IsisRuntime>(mut h: IsisHarness<R>) -> Vec<Recorder> {
    let (gid, mut pids, mut recs) = form_group(&mut h, 3);
    for i in 0..6u64 {
        send(&mut h, pids[(i % 3) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, 6));
    assert!(ok, "first-burst deliveries incomplete");

    h.leave_and_wait(gid, pids[2], Duration::from_secs(20))
        .expect("leave");
    let part = h.query(SiteId(2), move |stack, _now, _out| {
        (stack.view_of(gid).is_some(), stack.has_endpoint(gid))
    });
    assert_eq!(
        part,
        Some((false, false)),
        "site 2 keeps a (view, endpoint) of the group its last member left"
    );

    let (fresh, rec) = spawn_member(&mut h, SiteId(2), gid, false, Disk::None);
    h.join_and_wait(gid, fresh, None, Duration::from_secs(20))
        .expect("a fresh member joins at site 2");
    pids[2] = fresh;
    recs.push(rec);
    for i in 6..12u64 {
        send(&mut h, pids[(i % 3) as usize], gid, i, ABCAST);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        holding(&recs[..2], 12) && holding(&recs[3..], 12)
    });
    h.settle(Duration::from_millis(50));
    assert!(ok, "second-burst deliveries incomplete");
    recs
}

/// Every member agrees with every other on each view they share, and the fresh member
/// holds every body: the first burst by transfer, the second by delivery.
fn check_rehost(recs: &[Recorder]) {
    check(recs, Inv::check_view_agreement);
    for m in [0, 1, 3] {
        assert_eq!(
            recs[m].sorted(),
            (0..12).collect::<Vec<u64>>(),
            "member {m} lost or duplicated bodies"
        );
    }
}

#[test]
fn simulated_backend_site_hosts_a_group_again_after_its_last_member_left() {
    check_rehost(&run_rehost_scenario(sim(3, 2029, FaultPlan::none())));
}

#[test]
fn threaded_backend_site_hosts_a_group_again_after_its_last_member_left() {
    check_rehost(&run_rehost_scenario(threaded(3, 2029, jitter())));
}
