//! Integration: ordering guarantees of the three multicast primitives observed end-to-end by
//! application handlers.

mod support;

use support::{check, form_group, send, sim, Recorder};
use vsync::core::{Duration, GroupId, ProcessId, ProtocolKind};
use vsync::rt::{FaultPlan, IsisHarness, PartitionInvariants, SimRuntime};

fn deploy(
    n: u16,
) -> (
    IsisHarness<SimRuntime>,
    GroupId,
    Vec<ProcessId>,
    Vec<Recorder>,
) {
    let mut sys = sim(n as usize, 42, FaultPlan::none());
    let (gid, members, recs) = form_group(&mut sys, n);
    (sys, gid, members, recs)
}

#[test]
fn cbcast_is_fifo_per_sender_and_delivered_everywhere() {
    let (mut sys, gid, members, recs) = deploy(3);
    for i in 0..10u64 {
        send(&mut sys, members[0], gid, i, ProtocolKind::Cbcast);
    }
    sys.settle(Duration::from_millis(500));
    check(&recs, PartitionInvariants::check_all);
    assert_eq!(recs[0].bodies(), (0..10).collect::<Vec<u64>>());
}

#[test]
fn abcast_total_order_is_identical_at_every_member() {
    let (mut sys, gid, members, recs) = deploy(4);
    // Concurrent ABCASTs from every member, interleaved.
    for round in 0..5u64 {
        for (i, m) in members.iter().enumerate() {
            send(
                &mut sys,
                *m,
                gid,
                round * 10 + i as u64,
                ProtocolKind::Abcast,
            );
        }
    }
    sys.settle(Duration::from_millis(2_000));
    let reference = recs[0].bodies();
    assert_eq!(
        reference.len(),
        20,
        "every multicast delivered: {reference:?}"
    );
    // One total order at every member.
    check(&recs, PartitionInvariants::check_all);
}

#[test]
fn gbcast_is_ordered_with_respect_to_cbcast_traffic() {
    let (mut sys, gid, members, recs) = deploy(3);
    // A stream of CBCASTs with one GBCAST in the middle: every member must observe the
    // GBCAST at the same position relative to the stream (virtual synchrony cut).
    for i in 0..5u64 {
        send(&mut sys, members[0], gid, i, ProtocolKind::Cbcast);
    }
    sys.settle(Duration::from_millis(200));
    send(&mut sys, members[0], gid, 100, ProtocolKind::Gbcast);
    sys.settle(Duration::from_millis(200));
    for i in 5..10u64 {
        send(&mut sys, members[0], gid, i, ProtocolKind::Cbcast);
    }
    sys.settle(Duration::from_millis(1_000));
    // One order everywhere puts the GBCAST at one position.
    check(&recs, PartitionInvariants::check_all);
    assert!(recs[0].bodies().contains(&100), "gbcast delivered");
    assert_eq!(recs[0].len(), 11);
}

#[test]
fn every_primitive_reaches_every_member_exactly_once() {
    let (mut sys, gid, members, recs) = deploy(3);
    send(&mut sys, members[0], gid, 1, ProtocolKind::Cbcast);
    send(&mut sys, members[1], gid, 2, ProtocolKind::Abcast);
    send(&mut sys, members[2], gid, 3, ProtocolKind::Gbcast);
    sys.settle(Duration::from_millis(1_000));
    check(&recs, PartitionInvariants::check_view_agreement);
    for (i, r) in recs.iter().enumerate() {
        assert_eq!(
            r.sorted(),
            vec![1, 2, 3],
            "member {i} missed or duplicated a message"
        );
    }
}
