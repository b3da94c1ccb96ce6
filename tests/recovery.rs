//! Integration: stable storage, the recovery manager's rejoin advice to a member whose
//! group outlived it, and rebuilding replicated state after a total failure (paper Section 3.8 and Section 5 Step 6).

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use vsync_core::{Duration, EntryId, LatencyProfile, Message, ProtocolKind, SiteId, View};
use vsync_rt::{IsisHarness, IsisRuntime, SimRuntime};
use vsync_tools::{
    FileStore, MemoryStore, RecoveryManager, ReplicatedData, StableStore, UpdateOrdering,
};

const DATA: EntryId = EntryId(60);

#[test]
fn replicated_data_survives_total_failure_through_checkpoint_and_log() {
    // "Stable" storage shared across incarnations of the simulated service.
    let store: Rc<dyn StableStore> = Rc::new(MemoryStore::new());

    // First incarnation: two members, some updates, a checkpoint, more updates, then a total
    // failure (both sites die).
    let mut sys = IsisHarness::new(SimRuntime::for_profile(2, LatencyProfile::Modern, 42));
    let gid = sys.allocate_group_id();
    let data0 = ReplicatedData::new(gid, DATA, UpdateOrdering::Total)
        .with_logging(store.clone(), "inventory");
    let d0 = data0.clone();
    let creator = sys.spawn_local(SiteId(0), move |b| d0.attach(b));
    sys.create_group_with_id("inventory", gid, creator);
    let data1 = ReplicatedData::new(gid, DATA, UpdateOrdering::Total);
    let d1 = data1.clone();
    let member1 = sys.spawn_local(SiteId(1), move |b| d1.attach(b));
    sys.join_and_wait(gid, member1, None, Duration::from_secs(5))
        .unwrap();

    sys.client_send(
        creator,
        gid,
        DATA,
        Message::new()
            .with("rd-item", "widgets")
            .with("rd-value", 10u64),
        ProtocolKind::Abcast,
    );
    sys.settle(Duration::from_millis(300));
    data0.checkpoint().unwrap();
    sys.client_send(
        creator,
        gid,
        DATA,
        Message::new()
            .with("rd-item", "widgets")
            .with("rd-value", 25u64),
        ProtocolKind::Abcast,
    );
    sys.client_send(
        creator,
        gid,
        DATA,
        Message::new()
            .with("rd-item", "gadgets")
            .with("rd-value", 3u64),
        ProtocolKind::Abcast,
    );
    sys.settle(Duration::from_millis(300));
    assert_eq!(data0.read_u64("widgets"), Some(25));
    sys.rt.kill_site(SiteId(0));
    sys.rt.kill_site(SiteId(1));

    // Second incarnation: a fresh replica recovers from the checkpoint plus the logged
    // updates, exactly as the original version of the program "would have read the database
    // from disk".
    let recovered =
        ReplicatedData::new(gid, DATA, UpdateOrdering::Total).with_logging(store, "inventory");
    let replayed = recovered.recover_from_log().unwrap();
    assert_eq!(replayed, 2, "two post-checkpoint updates replayed");
    assert_eq!(recovered.read_u64("widgets"), Some(25));
    assert_eq!(recovered.read_u64("gadgets"), Some(3));
}

#[test]
fn a_member_restarting_while_its_group_lives_rejoins_and_discards_its_log() {
    // The group survives on site 0 while site 1's member dies with its site.  Restarted
    // from its log, the member's reform election hears from the live member, so the stack
    // joins it through site 0 and the member throws its stale log away at that first view.
    let mut sys = IsisHarness::new(SimRuntime::for_profile(2, LatencyProfile::Modern, 42));
    let store: Rc<dyn StableStore> = Rc::new(MemoryStore::new());
    let rm = RecoveryManager::new(store.clone(), "svc");
    let gid = sys.allocate_group_id();
    let a = sys.spawn_local(SiteId(0), |_| {});
    sys.create_group_with_id("svc", gid, a);
    let rm_attach = rm.clone();
    let b = sys.spawn_local(SiteId(1), move |builder| {
        rm_attach.attach_logging(builder, gid)
    });
    sys.join_and_wait(gid, b, None, Duration::from_secs(5))
        .unwrap();
    rm.log_delivery(DATA, &Message::with_body(1u64)).unwrap();
    sys.rt.kill_site(SiteId(1));
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(0), gid).is_some_and(|v| v.len() == 1)
    });
    assert!(ok);

    sys.rt.recover_site(SiteId(1));
    let restarted = RecoveryManager::new(store, "svc");
    let r = restarted.clone();
    let seen: Rc<RefCell<Vec<View>>> = Rc::default();
    let record = seen.clone();
    let b2 = sys.spawn_local(SiteId(1), move |builder| {
        let replay = |_: EntryId, _: &Message| panic!("a rejoining member replays nothing");
        r.attach_restart(builder, gid, |_| {}, replay);
        r.attach_logging(builder, gid);
        builder.on_view_change(gid, move |_ctx, ev| {
            record.borrow_mut().push(ev.view.clone())
        });
    });
    let summary = restarted.log_summary(b).unwrap().expect("b logged");
    let expected = restarted.last_known_sites().unwrap();
    sys.with_stack(SiteId(1), move |stack, _now, out| {
        stack.begin_reform("svc", gid, b2, None, summary, expected, out)
    });
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(0), gid).is_some_and(|v| v.contains(b2))
    });
    assert!(ok, "the restarted member never rejoined");
    // Every view the member heard of holds it: the commit site 0 sent to site 1's dead
    // incarnation finds no endpoint at the fresh stack and installs nothing there.
    let seen = seen.borrow();
    assert!(
        !seen.is_empty() && seen.iter().all(|v| v.contains(b2)),
        "{seen:?}"
    );
    // The stale delivery is gone: the log holds only the rejoin's view marker.
    let left = restarted.recover(|_| {}, |_, _| {}).unwrap();
    assert_eq!((left.messages, left.views), (0, 1));
}

#[test]
fn recovered_site_can_host_a_rejoining_member() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(3, LatencyProfile::Modern, 42));
    let data_b = ReplicatedData::new(vsync_core::GroupId(1), DATA, UpdateOrdering::Causal);
    let gid = sys.allocate_group_id();
    assert_eq!(gid, vsync_core::GroupId(1));
    // The group is founded on site 1, which survives the crash below: in a two-member
    // group the primary-partition fence only lets the half holding the oldest member cut
    // the dead half out, so the survivor must be the founder.
    let d = data_b.clone();
    let b = sys.spawn_local(SiteId(1), move |builder| d.attach(builder));
    sys.create_group_with_id("svc", gid, b);
    let data_a = ReplicatedData::new(gid, DATA, UpdateOrdering::Causal);
    let d = data_a.clone();
    let a = sys.spawn_local(SiteId(0), move |builder| d.attach(builder));
    sys.join_and_wait(gid, a, None, Duration::from_secs(5))
        .unwrap();

    // Site 0 crashes and later recovers empty; the group survives on site 1.
    sys.rt.kill_site(SiteId(0));
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(1), gid)
            .map(|v| v.len() == 1)
            .unwrap_or(false)
    });
    assert!(ok);
    sys.rt.recover_site(SiteId(0));
    sys.settle(Duration::from_millis(200));

    // The namespace on the recovered site is rebuilt by re-registration (the namespace
    // service push), after which a fresh process there can rejoin the surviving group.
    sys.with_stack(SiteId(0), |stack, _now, _out| {
        stack.register_group("svc", gid, vec![SiteId(1)]);
    });
    let data_a2 = ReplicatedData::new(gid, DATA, UpdateOrdering::Causal);
    let d = data_a2.clone();
    let a2 = sys.spawn_local(SiteId(0), move |builder| d.attach(builder));
    sys.join_and_wait(gid, a2, None, Duration::from_secs(5))
        .unwrap();
    let v = sys.view_of(SiteId(1), gid).unwrap();
    assert_eq!(v.members.len(), 2);
    assert!(v.contains(a2));

    // Updates now reach both the survivor and the recovered member.
    sys.client_send(
        b,
        gid,
        DATA,
        Message::new().with("rd-item", "x").with("rd-value", 1u64),
        ProtocolKind::Cbcast,
    );
    sys.settle(Duration::from_millis(300));
    assert_eq!(data_b.read_u64("x"), Some(1));
    assert_eq!(data_a2.read_u64("x"), Some(1));
}

// ---------------------------------------------------------------------------------------
// Torn-tail log replay
// ---------------------------------------------------------------------------------------
//
// A machine that dies mid-append leaves a torn final record on disk.  Replay must recover
// every *complete* record, in order, exactly once, and treat the torn tail as the crash
// artifact it is — never as an error, and never by replaying around a mid-log hole.

/// Unique on-disk root per proptest case (cases run sequentially in one process).
fn torn_root(case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vsync-torn-replay-{}-{case}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]
    #[test]
    fn torn_log_tails_replay_every_complete_record(
        case in 0u64..u64::MAX,
        records in 1u64..10,
        mode in 0u8..3,
        cut in 1usize..4096,
    ) {
        let dir = torn_root(case);
        let _ = std::fs::remove_dir_all(&dir);

        // First incarnation: log `records` fsync'd deliveries.
        {
            let store: Rc<dyn StableStore> =
                Rc::new(FileStore::new(&dir).unwrap().with_fsync_interval(1));
            let rm = RecoveryManager::new(store, "torn");
            for i in 0..records {
                rm.log_delivery(DATA, &Message::with_body(i)).unwrap();
            }
        }

        // The crash artifact: mangle the tail of the log directory.
        let log_dir = dir.join("recovery-log-torn.log");
        let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(&log_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        let last = entries.last().unwrap().clone();
        // Whether the final *complete* record survives the mangling.
        let tail_survives = match mode {
            0 => {
                // Truncate the final record to a strict prefix: the classic torn write.
                let bytes = std::fs::read(&last).unwrap();
                std::fs::write(&last, &bytes[..cut % bytes.len()]).unwrap();
                false
            }
            1 => {
                // Overwrite the final record with garbage of arbitrary length.
                let garbage: Vec<u8> = (0..(cut % 64) + 1).map(|_| 0xFF).collect();
                std::fs::write(&last, garbage).unwrap();
                false
            }
            _ => {
                // A torn append *after* the last complete record: a fresh entry file the
                // crash left undecodable.  Every complete record must survive.
                let name = format!("{:08}.msg", entries.len());
                std::fs::write(log_dir.join(name), [0xFFu8, 0x00, 0xFF]).unwrap();
                true
            }
        };

        // Second incarnation: replay recovers the complete records, in order, once.
        let store: Rc<dyn StableStore> = Rc::new(FileStore::new(&dir).unwrap());
        let rm = RecoveryManager::new(store, "torn");
        let got = RefCell::new(Vec::new());
        let summary = rm
            .recover(
                |_| {},
                |entry, payload| {
                    assert_eq!(entry, DATA);
                    got.borrow_mut().push(payload.get_u64("body").unwrap());
                },
            )
            .expect("torn tail must not fail replay");
        let got = got.into_inner();
        let expect: Vec<u64> = if tail_survives {
            (0..records).collect()
        } else {
            (0..records - 1).collect()
        };
        prop_assert_eq!(&got, &expect, "mode {}: wrong records replayed", mode);
        prop_assert_eq!(summary.messages, expect.len());

        // The torn entry was repaired on first read: a second replay sees a clean log and
        // yields exactly the same records (no error, no double-apply).
        let again = RefCell::new(Vec::new());
        rm.recover(
            |_| {},
            |_, payload| {
                again.borrow_mut().push(payload.get_u64("body").unwrap());
            },
        )
        .expect("repaired log must replay cleanly");
        prop_assert_eq!(again.into_inner(), expect);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
