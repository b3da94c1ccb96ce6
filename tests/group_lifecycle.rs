//! Integration: process-group lifecycle — create, lookup, join, rank, leave — across the full
//! stack (simulator → transport → protocol endpoints → site stacks → application handlers).

use vsync_core::{Duration, EntryId, LatencyProfile, Message, SiteId};
use vsync_rt::{IsisHarness, SimRuntime};

const ECHO: EntryId = EntryId(1);

fn spawn_echo(sys: &mut IsisHarness<SimRuntime>, site: SiteId) -> vsync_core::ProcessId {
    sys.spawn(site, |b| {
        b.on_entry(ECHO, |ctx, msg| {
            ctx.reply(
                msg,
                Message::with_body(msg.get_u64("body").unwrap_or(0) + 1),
            );
        });
    })
}

#[test]
fn create_join_leave_lifecycle() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(4, LatencyProfile::Modern, 42));
    let a = spawn_echo(&mut sys, SiteId(0));
    let b = spawn_echo(&mut sys, SiteId(1));
    let c = spawn_echo(&mut sys, SiteId(2));

    let gid = sys.create_group("service", a);
    assert_eq!(
        sys.lookup(SiteId(3), "service"),
        Some(gid),
        "namespace visible everywhere"
    );

    sys.join_and_wait(gid, b, None, Duration::from_secs(5))
        .unwrap();
    sys.join_and_wait(gid, c, None, Duration::from_secs(5))
        .unwrap();

    // Ranks reflect decreasing age and are identical at every member site.
    for site in [0u16, 1, 2] {
        let v = sys.view_of(SiteId(site), gid).unwrap();
        assert_eq!(v.members, vec![a, b, c], "site {site}");
    }
    assert_eq!(sys.rank_of(gid, a), Some(0));
    assert_eq!(sys.rank_of(gid, b), Some(1));
    assert_eq!(sys.rank_of(gid, c), Some(2));

    // The middle member leaves; survivors promote consistently.
    sys.leave_and_wait(gid, b, Duration::from_secs(5)).unwrap();
    sys.settle(Duration::from_millis(100));
    for site in [0u16, 2] {
        let v = sys.view_of(SiteId(site), gid).unwrap();
        assert_eq!(v.members, vec![a, c], "site {site}");
    }
    assert_eq!(sys.rank_of(gid, c), Some(1), "survivor promoted to rank 1");
}

#[test]
fn every_member_observes_the_same_view_sequence() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(3, LatencyProfile::Modern, 42));
    let members: Vec<_> = (0..3).map(|i| spawn_echo(&mut sys, SiteId(i))).collect();
    let gid = sys.create_group("seq", members[0]);
    for m in &members[1..] {
        sys.join_and_wait(gid, *m, None, Duration::from_secs(5))
            .unwrap();
    }
    // All sites agree on the final view id and membership.
    let views: Vec<_> = (0..3)
        .map(|i| sys.view_of(SiteId(i), gid).unwrap())
        .collect();
    assert!(views.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(views[0].seq(), 3);
}

#[test]
fn joining_a_nonexistent_group_fails_cleanly() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(2, LatencyProfile::Modern, 42));
    let p = spawn_echo(&mut sys, SiteId(0));
    let bogus = vsync_core::GroupId(999);
    let res = sys.join_and_wait(bogus, p, None, Duration::from_millis(200));
    assert!(res.is_err());
}

#[test]
fn two_groups_are_independent() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(3, LatencyProfile::Modern, 42));
    let a = spawn_echo(&mut sys, SiteId(0));
    let b = spawn_echo(&mut sys, SiteId(1));
    let c = spawn_echo(&mut sys, SiteId(2));
    let g1 = sys.create_group("g1", a);
    let g2 = sys.create_group("g2", b);
    sys.join_and_wait(g1, c, None, Duration::from_secs(5))
        .unwrap();
    sys.join_and_wait(g2, c, None, Duration::from_secs(5))
        .unwrap();
    assert_eq!(sys.view_of(SiteId(0), g1).unwrap().members, vec![a, c]);
    assert_eq!(sys.view_of(SiteId(1), g2).unwrap().members, vec![b, c]);
    // Killing a member of g1 does not disturb g2's membership.
    sys.kill_process(a);
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(2), g1)
            .map(|v| v.len() == 1)
            .unwrap_or(false)
    });
    assert!(ok);
    assert_eq!(sys.view_of(SiteId(2), g2).unwrap().members, vec![b, c]);
}
