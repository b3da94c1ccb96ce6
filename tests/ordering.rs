//! Integration: ordering guarantees of the three multicast primitives observed end-to-end by
//! application handlers.

mod support;

use support::{check, form_group, send, sim, Recorder};
use vsync::core::{Duration, GroupId, ProcessId, ProtocolKind, SiteId};
use vsync::rt::{FaultPlan, IsisHarness, IsisRuntime, PartitionInvariants, SimRuntime};

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

/// An initiator delivers an ABCAST the moment it decides it, so the order must be on its way
/// to the other members by then: a site that delivers and crashes before its next tick or
/// its next frame must not leave the survivors to settle a different order.
///
/// Site 0 ABCASTs `A` (1) and site 2, just after, `B` (2).  Every site sends a CBCAST once
/// both have arrived everywhere, and site 2 one more once it has decided `B`, so every
/// proposal and `B`'s order leave at once whenever a site sends its next frame.  Site 0
/// decides `A` and delivers it, delivers `B` when `B`'s order comes, and crashes.  Had `A`'s
/// order stayed behind with it, the survivors would settle `A` at the crash's flush above
/// every priority they know, after `B`.
#[test]
fn an_initiator_that_delivers_an_abcast_and_then_crashes_has_sent_its_order() {
    let (mut sys, gid, members, recs) = deploy(3);
    let abcasts =
        |rec: &Recorder| -> Vec<u64> { rec.bodies().into_iter().filter(|b| *b <= 2).collect() };
    send(&mut sys, members[0], gid, 1, ProtocolKind::Abcast);
    sys.settle(Duration::from_micros(10));
    send(&mut sys, members[2], gid, 2, ProtocolKind::Abcast);
    sys.settle(Duration::from_micros(60));
    for (i, m) in members.iter().enumerate() {
        send(&mut sys, *m, gid, 3 + i as u64, ProtocolKind::Cbcast);
    }
    sys.settle(Duration::from_micros(60));
    send(&mut sys, members[2], gid, 6, ProtocolKind::Cbcast);
    for _ in 0..1_000 {
        if abcasts(&recs[0]).len() == 2 {
            break;
        }
        sys.settle(Duration::from_micros(1));
    }
    sys.rt.kill_site(SiteId(0));
    sys.settle(Duration::from_millis(2_000));
    assert_eq!(
        abcasts(&recs[0]),
        [1, 2],
        "site 0 delivered A, then B, then crashed"
    );
    for rec in &recs[1..] {
        assert_eq!(abcasts(rec), [1, 2], "a survivor's ABCAST order");
    }
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
