//! Property test: joining a group at a **random instant inside an ongoing multicast
//! burst** is exactly-once (simulated backend, seeded).
//!
//! Every case runs the same scenario — a two-member group blasting interleaved CBCAST and
//! ABCAST increments, with a third member whose join is injected at a randomized point of
//! the burst — under a randomized network schedule.  Whatever the interleaving, the
//! virtual-synchrony contract must hold: the joiner's snapshot is taken at the view cut,
//! the flush's redelivery of snapshot-covered messages is suppressed at the joining
//! endpoint, and post-cut messages are buffered until the snapshot lands.  The pinned
//! property is the application-visible one: **every member's applied-message multiset is
//! identical and duplicate-free** — no message is lost, replayed, or double-applied, no
//! matter when the join happened.

mod support;

use proptest::prelude::*;
use support::{check, holding, send, sim, spawn_member, Disk, Recorder};
use vsync::core::{Duration, GroupId, ProtocolKind, SiteId};
use vsync::rt::{FaultPlan, IsisHarness, IsisRuntime, PartitionInvariants, SimRuntime};

/// Messages in the burst the join is injected into.
const TOTAL: u64 = 16;

/// Spawns the joiner at site 2 and submits its join without waiting for it.
fn submit_join(h: &mut IsisHarness<SimRuntime>, gid: GroupId) -> Recorder {
    let (pid, rec) = spawn_member(h, SiteId(2), gid, false, Disk::None);
    h.rt.with_stack_job(
        SiteId(2),
        Box::new(move |stack, _now, out| {
            stack
                .join_group(gid, pid, None, out)
                .expect("join submitted");
        }),
    );
    rec
}

/// Runs one seeded scenario with the join submitted after `join_after` of the burst's
/// `TOTAL` sends (`join_after > TOTAL` degenerates to a join after the whole burst is in
/// flight).  Panics if any member's applied multiset is wrong.
fn join_races_burst(seed: u64, join_after: u64) {
    let mut h = sim(3, seed, FaultPlan::none());
    let gid = h.allocate_group_id();
    let (m0, log0) = spawn_member(&mut h, SiteId(0), gid, true, Disk::None);
    h.create_group_with_id("load", gid, m0);
    let (m1, log1) = spawn_member(&mut h, SiteId(1), gid, false, Disk::None);
    h.join_and_wait(gid, m1, None, Duration::from_secs(10))
        .expect("first join");
    assert!(
        h.wait_until(Duration::from_secs(10), |_| log1.is_ready()),
        "first transfer never completed"
    );

    // The burst, with the joiner injected mid-flight.  Sends execute immediately at the
    // sender; the tiny settles let the join's flush interleave with in-flight traffic
    // instead of everything happening at one instant.
    let senders = [m0, m1];
    let mut joiner: Option<Recorder> = None;
    for i in 0..TOTAL {
        if i == join_after {
            joiner = Some(submit_join(&mut h, gid));
        }
        let protocol = if i % 2 == 0 {
            ProtocolKind::Cbcast
        } else {
            ProtocolKind::Abcast
        };
        send(&mut h, senders[(i % 2) as usize], gid, i, protocol);
        h.settle(Duration::from_micros(500));
    }
    let log2 = joiner.unwrap_or_else(|| submit_join(&mut h, gid));

    // Everyone converges: the joiner's transfer completed and all three logs hold the
    // full burst.
    let recs = [log0, log1, log2];
    let ok = h.wait_until(Duration::from_secs(40), |_| {
        recs[2].is_ready() && holding(&recs, TOTAL as usize)
    });
    assert!(
        ok,
        "seed {seed}, join_after {join_after}: logs never converged \
         (m0={:?}, m1={:?}, joiner={:?}, ready={})",
        recs[0].bodies(),
        recs[1].bodies(),
        recs[2].bodies(),
        recs[2].is_ready(),
    );

    // The property: identical, duplicate-free applied multisets at every member, and
    // the same deliveries in each view.
    check(&recs, PartitionInvariants::check_view_agreement);
    let want: Vec<u64> = (0..TOTAL).collect();
    for (who, log) in ["m0", "m1", "joiner"].iter().zip(&recs) {
        assert_eq!(
            log.sorted(),
            want,
            "seed {seed}, join_after {join_after}: {who} applied a wrong multiset"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]
    #[test]
    fn randomized_join_instants_are_exactly_once(
        seed in 0u64..1_000_000,
        join_after in 0u64..(TOTAL + 2),
    ) {
        join_races_burst(seed, join_after);
    }
}

/// The corner instants (join before the first send, join after the last) are always part
/// of the suite, independent of what the randomized cases drew.
#[test]
fn boundary_join_instants_are_exactly_once() {
    join_races_burst(7, 0);
    join_races_burst(11, TOTAL);
}
