//! End-to-end group lifecycle over the **threaded** backend: join, concurrent CBCAST and
//! ABCAST traffic under load, a member-site crash, the flush, the new view, and a state
//! transfer to a late joiner — the full sequence the simulator tests pin, now on real OS
//! threads with packets crossing lock-protected channels.
//!
//! The late join deliberately happens **while pre-join multicasts are still unstable**
//! (asserted: at least eight would be redistributed by a flush at the moment the join is
//! submitted).  This used to double-apply at the joiner — once inside the transferred
//! snapshot and once via the flush's unstable-message redelivery — and forced a
//! settle-until-stable workaround before every join.  The cut-coordinated state transfer
//! (snapshot at the view cut, covered-frontier suppression at the joining endpoint,
//! buffered application entries) makes the join exactly-once, and the partition is pinned
//! by application-side counters: `snapshot + post-snapshot applies == total`.

mod support;

use support::{check, holding, send, spawn_member, temp_root, threaded, view_at, Disk, Recorder};
use vsync::core::{Duration, ProtocolKind, SiteId};
use vsync::rt::{FaultPlan, IsisRuntime, PartitionInvariants};

/// CBCAST for even bodies, ABCAST for odd ones.
fn mixed(i: u64) -> ProtocolKind {
    if i % 2 == 0 {
        ProtocolKind::Cbcast
    } else {
        ProtocolKind::Abcast
    }
}

#[test]
fn full_lifecycle_over_real_threads() {
    // Real concurrency plus injected link delay, jitter and modelled loss.
    let faults = FaultPlan::none()
        .with_delay(Duration::from_micros(50))
        .with_jitter(Duration::from_micros(200))
        .with_drop(0.005);
    let mut h = threaded(4, 99, faults);
    let gid = h.allocate_group_id();

    // -- Join ---------------------------------------------------------------------------
    let (creator, c0) = spawn_member(&mut h, SiteId(0), gid, true, Disk::None);
    h.create_group_with_id("lifecycle", gid, creator);
    let (m1, c1) = spawn_member(&mut h, SiteId(1), gid, false, Disk::None);
    let (m2, c2) = spawn_member(&mut h, SiteId(2), gid, false, Disk::None);
    h.join_and_wait(gid, m1, None, Duration::from_secs(20))
        .expect("join m1");
    h.join_and_wait(gid, m2, None, Duration::from_secs(20))
        .expect("join m2");
    let ok = h.wait_until(Duration::from_secs(10), |h| {
        view_at(h, gid, 0..3, |v| v.len() == 3)
    });
    assert!(ok, "three-member view installed everywhere");

    // -- Concurrent CBCAST and ABCAST traffic under load ---------------------------------
    // 30 messages, interleaving both primitives and all three senders.
    let senders = [creator, m1, m2];
    for i in 0..30u64 {
        send(&mut h, senders[(i % 3) as usize], gid, i, mixed(i));
    }
    let survivors = [c0.clone(), c1.clone()];
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&survivors, 30));
    assert!(
        ok,
        "all 30 messages applied everywhere (c0={}, c1={})",
        c0.len(),
        c1.len()
    );

    // -- Crash, flush, new view -----------------------------------------------------------
    h.rt.kill_site(SiteId(2));
    assert!(!h.rt.site_is_up(SiteId(2)));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        view_at(h, gid, [0, 1], |v| v.len() == 2 && !v.contains(m2))
    });
    assert!(ok, "survivors flushed and installed the two-member view");

    // Traffic keeps flowing in the new view.
    for i in 30..40u64 {
        send(&mut h, creator, gid, i, ProtocolKind::Abcast);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&survivors, 40));
    assert!(ok, "post-crash traffic delivered to both survivors");

    // -- State transfer to a late joiner, mid-burst ---------------------------------------
    // No settling: burst fresh messages and submit the join while at least eight of them
    // are still *unstable* (a flush would redistribute them).  The snapshot is taken at the
    // view cut and the joining endpoint suppresses the covered redelivery, so the join is
    // exactly-once no matter how the OS schedules the race.
    let mut sent = 40u64;
    let mut unstable_at_join = 0usize;
    for _attempt in 0..4 {
        for i in 0..8u64 {
            send(&mut h, senders[(i % 2) as usize], gid, sent + i, mixed(i));
        }
        sent += 8;
        unstable_at_join = h.unstable_count(SiteId(0), gid);
        if unstable_at_join >= 8 {
            break;
        }
    }
    assert!(
        unstable_at_join >= 8,
        "join must race unstable traffic (saw only {unstable_at_join} unstable)"
    );
    let expected = sent as usize;
    let (late, c3) = spawn_member(&mut h, SiteId(3), gid, false, Disk::None);
    h.join_and_wait(gid, late, None, Duration::from_secs(20))
        .expect("late join under unstable traffic");
    let recs = [c0.clone(), c1.clone(), c3.clone()];
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, expected));
    assert!(
        ok,
        "every member converged to {expected} exactly once (c0={}, c1={}, c3={})",
        c0.len(),
        c1.len(),
        c3.len()
    );
    // Let any straggler (a duplicate would be one) land, then re-check: nothing may move.
    h.settle(Duration::from_millis(100));
    assert_eq!(
        c3.len(),
        expected,
        "late duplicate application at the joiner"
    );
    check(
        &[c0, c1, c2, c3.clone()],
        PartitionInvariants::check_view_agreement,
    );
    // The exactly-once partition: the snapshot accounts for every pre-cut message, the
    // buffered APPLY entry for every post-cut one, and together they cover each message
    // exactly once.
    let [_, snapshot, applies] = c3.from();
    assert_eq!(
        snapshot + applies,
        sent,
        "snapshot + post-snapshot applies must partition the message history"
    );

    // Clean shutdown: every node thread joins, none leak.
    let reports = h.rt.shutdown();
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.events > 0));
}

/// Full process death and log-based resurrection on real threads: a member's node thread
/// is killed outright, everything in memory is lost, and the respawned incarnation must
/// rebuild from its fsync'd on-disk log, rejoin **mid-burst** via state transfer, and end
/// exactly-once — `log-replayed + snapshot + post-snapshot applies == total`, every term
/// nonzero.
#[test]
fn full_process_death_replays_its_log_and_rejoins() {
    let root = temp_root("lifecycle-death");
    let mut h = threaded(3, 99, FaultPlan::none());
    let gid = h.allocate_group_id();
    let (m0, c0) = spawn_member(&mut h, SiteId(0), gid, true, Disk::None);
    h.create_group_with_id("death", gid, m0);
    let (m1, c1) = spawn_member(&mut h, SiteId(1), gid, false, Disk::None);
    h.join_and_wait(gid, m1, None, Duration::from_secs(20))
        .expect("join m1");
    let (m2, c2) = spawn_member(&mut h, SiteId(2), gid, false, Disk::Log(root.clone(), None));
    h.join_and_wait(gid, m2, None, Duration::from_secs(20))
        .expect("join m2");
    let ok = h.wait_until(Duration::from_secs(20), |_| c1.is_ready() && c2.is_ready());
    assert!(ok, "initial transfers never completed");

    // Phase one: twelve messages, logged durably at site 2 before each recorded apply.
    for i in 0..12u64 {
        send(
            &mut h,
            [m0, m1, m2][(i % 3) as usize],
            gid,
            i,
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        holding(&[c0.clone(), c1.clone(), c2.clone()], 12)
    });
    assert!(ok, "phase-one deliveries incomplete");

    // Full process death: the node thread is terminated; only the disk log survives.
    h.rt.kill_site(SiteId(2));
    assert!(!h.rt.site_is_up(SiteId(2)));
    let ok = h.wait_until(Duration::from_secs(30), |h| {
        view_at(h, gid, [0, 1], |v| v.len() == 2 && !v.contains(m2))
    });
    assert!(ok, "survivors never installed the post-crash view");

    // Phase two: twelve messages the dead site misses entirely.
    for i in 12..24u64 {
        send(
            &mut h,
            [m0, m1][(i % 2) as usize],
            gid,
            i,
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        holding(&[c0.clone(), c1.clone()], 24)
    });
    assert!(ok, "phase-two deliveries incomplete");

    // Resurrection: fresh thread, fresh stack, fresh process; state rebuilt by replaying
    // the on-disk log before the transfer tool is even wired.
    h.rt.recover_site(SiteId(2));
    assert!(h.rt.site_is_up(SiteId(2)));
    let (r2, c2b) = spawn_member(&mut h, SiteId(2), gid, false, Disk::Recover(root.clone()));
    // The configure closure runs asynchronously on the respawned node's thread; wait for
    // the replay it performs before judging its result.
    let ok = h.wait_until(Duration::from_secs(10), |_| c2b.from()[0] == 12);
    assert!(
        ok,
        "the log replay must rebuild exactly the pre-crash deliveries (replayed={})",
        c2b.from()[0]
    );
    h.query(SiteId(2), move |stack, _now, _out| {
        // The fresh stack lost its namespace cache; both survivor sites as contacts.
        stack.register_group("death", gid, vec![SiteId(0), SiteId(1)]);
    });

    // Phase three: burst fresh traffic and submit the rejoin while it is in flight, so
    // the join cut races unstable messages just like the late-join leg above.
    let mut sent = 0u64;
    for _attempt in 0..4 {
        for i in 0..8u64 {
            send(
                &mut h,
                [m0, m1][(i % 2) as usize],
                gid,
                24 + sent + i,
                ProtocolKind::Abcast,
            );
        }
        sent += 8;
        if h.unstable_count(SiteId(0), gid) >= 4 {
            break;
        }
    }
    h.join_and_wait(gid, r2, None, Duration::from_secs(20))
        .expect("rejoin after replay");
    let ok = h.wait_until(Duration::from_secs(20), |_| c2b.is_ready());
    assert!(ok, "rejoin transfer never completed");

    // Phase four: a post-rejoin tail the recovered member must apply live (not via the
    // snapshot), so every partition term is exercised.
    for i in 0..4u64 {
        send(&mut h, r2, gid, 24 + sent + i, ProtocolKind::Abcast);
    }
    let total = 24 + sent + 4;
    let recs = [c0.clone(), c1.clone(), c2b.clone()];
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&recs, total as usize));
    assert!(
        ok,
        "final convergence failed (c0={}, c1={}, recovered={}, want {total})",
        c0.len(),
        c1.len(),
        c2b.len(),
    );
    // Nothing may move once settled: a late duplicate would.
    h.settle(Duration::from_millis(100));
    assert_eq!(c2b.len() as u64, total);
    check(&recs, PartitionInvariants::check_all);
    check(
        &[c0, c1, c2, c2b.clone()],
        PartitionInvariants::check_view_order,
    );

    // The exactly-once partition across the member's three lives: pre-crash history via
    // the replayed log, missed history via the rejoin snapshot, live history via
    // post-snapshot applies.  Each term nonzero, together covering every message once.
    let [replayed, snapshot, applies] = c2b.from();
    assert_eq!(replayed, 12);
    assert!(
        snapshot >= 12,
        "the snapshot must cover at least the missed phase-two traffic (saw {snapshot})"
    );
    assert!(
        applies >= 4,
        "post-snapshot tail must apply live (saw {applies})"
    );
    assert_eq!(
        replayed + snapshot + applies,
        total,
        "log-replayed + snapshot + post-snapshot applies must equal the total"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn site_recovery_rejoins_the_cluster() {
    let mut h = threaded(3, 99, FaultPlan::none());
    let gid = h.allocate_group_id();
    let (creator, c0) = spawn_member(&mut h, SiteId(0), gid, true, Disk::None);
    h.create_group_with_id("recover", gid, creator);
    h.rt.kill_site(SiteId(1));
    assert!(!h.rt.site_is_up(SiteId(1)));
    h.rt.recover_site(SiteId(1));
    assert!(h.rt.site_is_up(SiteId(1)));
    // The recovered site hosts a fresh process that can join the existing group.
    let (joiner, c1) = spawn_member(&mut h, SiteId(1), gid, false, Disk::None);
    // The fresh stack lost its namespace cache; repopulate the contact entry (the
    // recovery-manager tool does this from stable storage in the full system).
    h.query(SiteId(1), move |stack, _now, _out| {
        stack.register_group("recover", gid, vec![SiteId(0)]);
    });
    h.join_and_wait(gid, joiner, None, Duration::from_secs(20))
        .expect("join after recovery");
    send(&mut h, creator, gid, 5, ProtocolKind::Cbcast);
    let recs: [Recorder; 2] = [c0, c1];
    let ok = h.wait_until(Duration::from_secs(10), |_| holding(&recs, 1));
    assert!(ok, "both members deliver after recovery");
    assert_eq!(
        [recs[0].bodies(), recs[1].bodies()],
        [vec![5], vec![5]],
        "both members deliver after recovery"
    );
}
