//! Integration: state transfer to joining members and process "migration" (join then leave),
//! paper Section 3.8.
//!
//! Joins here are deliberately **not** preceded by any settling: the state-receiving join
//! is submitted while the pre-join multicast burst is still unstable (asserted), and the
//! view-cut-coordinated transfer — snapshot at the cut, covered-frontier suppression at
//! the joining endpoint, buffered application entries — must still apply every message
//! exactly once.

use std::cell::RefCell;
use std::rc::Rc;

use vsync_core::{Duration, EntryId, LatencyProfile, Message, ProtocolKind, SiteId};
use vsync_rt::{IsisHarness, SimRuntime};
use vsync_tools::StateTransfer;

const APPLY: EntryId = EntryId(2);

/// One member's counter state: the value, how many increments its APPLY entry executed,
/// and the value its received snapshot carried (joiners only).
struct CounterState {
    value: Rc<RefCell<u64>>,
    applies: Rc<RefCell<u64>>,
    snapshot: Rc<RefCell<u64>>,
}

/// Spawns a member holding a counter that is updated by multicast and transferred on join.
/// The APPLY entry goes through the transfer tool's buffering, so a joiner holds post-cut
/// messages until its snapshot has been applied.
fn spawn_counter_member(
    sys: &mut IsisHarness<SimRuntime>,
    site: SiteId,
    gid: vsync_core::GroupId,
) -> (vsync_core::ProcessId, CounterState, StateTransfer) {
    let state = CounterState {
        value: Rc::new(RefCell::new(0)),
        applies: Rc::new(RefCell::new(0)),
        snapshot: Rc::new(RefCell::new(0)),
    };
    let c_for_encode = state.value.clone();
    let c_for_apply = state.value.clone();
    let snap = state.snapshot.clone();
    let xfer = StateTransfer::new(
        gid,
        move || vec![Message::new().with("counter", *c_for_encode.borrow())],
        move |_ctx, block| {
            if let Some(v) = block.get_u64("counter") {
                *c_for_apply.borrow_mut() = v;
                *snap.borrow_mut() = v;
            }
        },
    );
    let xfer_attach = xfer.clone();
    let c_for_updates = state.value.clone();
    let applies = state.applies.clone();
    let pid = sys.spawn_local(site, move |b| {
        xfer_attach.attach(b);
        xfer_attach.on_entry_buffered(b, APPLY, move |_ctx, msg| {
            *c_for_updates.borrow_mut() += msg.get_u64("body").unwrap_or(0);
            *applies.borrow_mut() += 1;
        });
    });
    (pid, state, xfer)
}

#[test]
fn joiner_receives_the_state_current_at_the_join_while_traffic_is_unstable() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(3, LatencyProfile::Modern, 42));
    let gid = sys.allocate_group_id();
    let (creator, c0, x0) = spawn_counter_member(&mut sys, SiteId(0), gid);
    sys.create_group_with_id("counter", gid, creator);
    x0.mark_ready();
    // A second member site, so the burst below actually has somewhere to be unstable
    // towards (a single-site group stabilizes its own messages instantly).
    let (m1, c1, x1) = spawn_counter_member(&mut sys, SiteId(1), gid);
    sys.join_and_wait(gid, m1, None, Duration::from_secs(5))
        .unwrap();
    let ok = sys.wait_until(Duration::from_secs(5), |_s| x1.is_ready());
    assert!(ok, "first transfer never completed");

    // Burst state updates and join immediately: no settling, the burst is still in flight.
    for _ in 0..10 {
        sys.client_send(
            creator,
            gid,
            APPLY,
            Message::with_body(1u64),
            ProtocolKind::Cbcast,
        );
    }
    assert_eq!(*c0.value.borrow(), 10, "CBCAST self-delivery is immediate");
    assert!(
        sys.unstable_count(SiteId(0), gid) >= 8,
        "the join must race unstable traffic (saw {})",
        sys.unstable_count(SiteId(0), gid)
    );

    // The join races the unstable burst; the joiner must converge to the same counter
    // value with every message applied exactly once (snapshot + post-cut flow partition
    // the history — no replay, no double application).
    let (joiner, c2, x2) = spawn_counter_member(&mut sys, SiteId(2), gid);
    sys.join_and_wait(gid, joiner, None, Duration::from_secs(5))
        .unwrap();
    let ok = sys.wait_until(Duration::from_secs(5), |_s| x2.is_ready());
    assert!(ok, "state transfer never completed");
    let ok = sys.wait_until(Duration::from_secs(5), |_s| {
        *c1.value.borrow() == 10 && *c2.value.borrow() == 10
    });
    assert!(
        ok,
        "joiner state differs from the source (c1={}, c2={})",
        *c1.value.borrow(),
        *c2.value.borrow()
    );
    assert_eq!(
        *c2.snapshot.borrow() + *c2.applies.borrow(),
        10,
        "snapshot + post-snapshot applies must partition the history exactly once"
    );
    assert!(x0.transfers_served() >= 1);
    // The snapshot blocks carried the cut's covered frontier.
    let covered = x2.covered().expect("snapshot blocks are frontier-tagged");
    assert!(!covered.is_empty(), "a cut over unstable traffic covers it");

    // Updates after the join reach all three replicas, exactly once each.
    sys.client_send(
        creator,
        gid,
        APPLY,
        Message::with_body(5u64),
        ProtocolKind::Cbcast,
    );
    let ok = sys.wait_until(Duration::from_secs(5), |_s| {
        *c0.value.borrow() == 15 && *c1.value.borrow() == 15 && *c2.value.borrow() == 15
    });
    assert!(ok, "post-join update lost or duplicated");
}

#[test]
fn process_migration_as_join_then_leave() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(3, LatencyProfile::Modern, 42));
    let gid = sys.allocate_group_id();
    let (old, c_old, x_old) = spawn_counter_member(&mut sys, SiteId(0), gid);
    sys.create_group_with_id("migrating", gid, old);
    x_old.mark_ready();
    for _ in 0..4 {
        sys.client_send(
            old,
            gid,
            APPLY,
            Message::with_body(1u64),
            ProtocolKind::Cbcast,
        );
    }
    assert_eq!(*c_old.value.borrow(), 4);

    // Migration: start the replacement and let it join immediately (no settling), absorb
    // the state, then retire the original member.  Clients see this as an atomic handover
    // (paper Section 3.8).
    let (new, c_new, x_new) = spawn_counter_member(&mut sys, SiteId(2), gid);
    sys.join_and_wait(gid, new, None, Duration::from_secs(5))
        .unwrap();
    let ok = sys.wait_until(Duration::from_secs(5), |_s| x_new.is_ready());
    assert!(ok);
    assert_eq!(*c_new.value.borrow(), 4);
    sys.leave_and_wait(gid, old, Duration::from_secs(5))
        .unwrap();
    sys.settle(Duration::from_millis(100));

    let v = sys.view_of(SiteId(2), gid).unwrap();
    assert_eq!(v.members, vec![new]);
    // The migrated service keeps working.
    sys.client_send(
        new,
        gid,
        APPLY,
        Message::with_body(1u64),
        ProtocolKind::Cbcast,
    );
    sys.settle(Duration::from_millis(200));
    assert_eq!(*c_new.value.borrow(), 5);
}
