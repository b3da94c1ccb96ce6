//! Integration: the twenty-questions service of paper Section 5, step by step.

use vsync_apps::twenty::{Answer, Database, Op, Query, TwentyQuestions};
use vsync_core::{Duration, LatencyProfile, SiteId};
use vsync_rt::{IsisHarness, SimRuntime};

fn sites(n: usize) -> Vec<SiteId> {
    (0..n as u16).map(SiteId).collect()
}

#[test]
fn vertical_queries_are_answered_by_exactly_one_member() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(5, LatencyProfile::Modern, 42));
    let svc = TwentyQuestions::deploy(&mut sys, "twenty", &sites(4), 4, Database::demo());
    let client = sys.spawn(SiteId(4), |_| {});

    let answers = svc.query(
        &mut sys,
        client,
        &Query::vertical("object", Op::Eq, "car"),
        Duration::from_secs(5),
    );
    assert_eq!(answers, vec![Answer::Yes]);

    let answers = svc.query(
        &mut sys,
        client,
        &Query::vertical("color", Op::Eq, "purple"),
        Duration::from_secs(5),
    );
    assert_eq!(answers, vec![Answer::No]);

    // Only one member produced a real reply per query; the others sent nulls.
    let answered: u64 = svc.handles.iter().map(|h| *h.answered.borrow()).sum();
    assert_eq!(answered, 2);
}

#[test]
fn horizontal_queries_fan_out_across_all_members() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(5, LatencyProfile::Modern, 42));
    let svc = TwentyQuestions::deploy(&mut sys, "twenty", &sites(5), 5, Database::demo());
    let client = sys.spawn(SiteId(4), |_| {});
    let mut answers = svc.query(
        &mut sys,
        client,
        &Query::horizontal("price", Op::Gt, "9000"),
        Duration::from_secs(5),
    );
    assert_eq!(answers.len(), 5, "one answer per member");
    // The paper's example result for *price > 9000 with 5 members: no / sometimes x3 / yes.
    answers.sort_by_key(|a| match a {
        Answer::No => 0,
        Answer::Sometimes => 1,
        Answer::Yes => 2,
        Answer::Unknown => 3,
    });
    assert_eq!(
        answers,
        vec![
            Answer::No,
            Answer::Sometimes,
            Answer::Sometimes,
            Answer::Sometimes,
            Answer::Yes
        ]
    );
}

#[test]
fn dynamic_updates_reach_every_replica_and_later_queries_see_them() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(4, LatencyProfile::Modern, 42));
    let svc = TwentyQuestions::deploy(&mut sys, "twenty", &sites(3), 3, Database::demo());
    let client = sys.spawn(SiteId(3), |_| {});

    // Before the update no car costs more than 50000.
    let before = svc.query(
        &mut sys,
        client,
        &Query::vertical("price", Op::Gt, "50000"),
        Duration::from_secs(5),
    );
    assert_eq!(before, vec![Answer::No]);

    svc.update(
        &mut sys,
        client,
        vec![
            ("object".into(), "car".into()),
            ("color".into(), "silver".into()),
            ("size".into(), "sport".into()),
            ("price".into(), "120000".into()),
            ("make".into(), "Ferrari".into()),
            ("model".into(), "Testarossa".into()),
        ],
    );
    sys.settle(Duration::from_millis(500));
    assert_eq!(
        svc.replica_sizes(),
        vec![11, 11, 11],
        "every replica applied the update"
    );

    let after = svc.query(
        &mut sys,
        client,
        &Query::vertical("price", Op::Gt, "50000"),
        Duration::from_secs(5),
    );
    assert_eq!(after, vec![Answer::Sometimes]);
}

#[test]
fn member_failure_is_tolerated_with_standbys_taking_over() {
    // Step 4: deploy 4 members but NMEMBERS = 3, so the youngest is a hot standby.
    let mut sys = IsisHarness::new(SimRuntime::for_profile(5, LatencyProfile::Modern, 42));
    let svc = TwentyQuestions::deploy(&mut sys, "twenty", &sites(4), 3, Database::demo());
    let client = sys.spawn(SiteId(4), |_| {});

    let before = svc.query(
        &mut sys,
        client,
        &Query::horizontal("object", Op::Eq, "car"),
        Duration::from_secs(5),
    );
    assert_eq!(before.len(), 3, "standby stays invisible to clients");

    // Kill an active member: the standby inherits its rank at the next view and the service
    // keeps answering with the full decomposition.
    sys.kill_process(svc.members[1]);
    let gid = svc.gid;
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(0), gid)
            .map(|v| v.len() == 3)
            .unwrap_or(false)
    });
    assert!(ok, "view never shrank after the failure");
    sys.settle(Duration::from_millis(100));

    let after = svc.query(
        &mut sys,
        client,
        &Query::horizontal("object", Op::Eq, "car"),
        Duration::from_secs(5),
    );
    assert_eq!(
        after.len(),
        3,
        "the standby answers in place of the failed member"
    );
    assert!(after.iter().all(|a| *a == Answer::Yes));
}
