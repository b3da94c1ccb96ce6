//! The distributed twenty-questions service of paper Section 5, end to end: vertical and
//! horizontal queries, a dynamic update, and a member failure with a hot standby taking over.
//!
//! Run with: `cargo run --example twenty_questions`

use vsync_apps::twenty::{Database, Op, Query, TwentyQuestions};
use vsync_core::{Duration, LatencyProfile, SiteId};
use vsync_rt::{IsisHarness, SimRuntime};

fn main() {
    // Four service sites plus one client site (the paper ran on four SUN 3/50s).
    let mut sys = IsisHarness::new(SimRuntime::for_profile(5, LatencyProfile::Modern, 42));
    let sites: Vec<SiteId> = (0..4).map(SiteId).collect();

    // Deploy with NMEMBERS = 3 active members and one hot standby (Step 4).
    let svc = TwentyQuestions::deploy(&mut sys, "twenty", &sites, 3, Database::demo());
    let client = sys.spawn(SiteId(4), |_| {});

    // Vertical query: exactly one member answers, selected by column mod NMEMBERS.
    let q = Query::vertical("price", Op::Gt, "9000");
    println!(
        "price > 9000        -> {:?}",
        svc.query(&mut sys, client, &q, Duration::from_secs(5))
    );

    // Horizontal query: every active member answers over its rows.
    let q = Query::horizontal("price", Op::Gt, "9000");
    println!(
        "*price > 9000       -> {:?}",
        svc.query(&mut sys, client, &q, Duration::from_secs(5))
    );

    // Dynamic update (Step 5): add a very expensive car, delivered by GBCAST.
    svc.update(
        &mut sys,
        client,
        vec![
            ("object".into(), "car".into()),
            ("color".into(), "silver".into()),
            ("size".into(), "sport".into()),
            ("price".into(), "120000".into()),
            ("make".into(), "Ferrari".into()),
            ("model".into(), "F40".into()),
        ],
    );
    sys.settle(Duration::from_millis(300));
    println!("replica sizes after update: {:?}", svc.replica_sizes());
    let q = Query::vertical("price", Op::Gt, "50000");
    println!(
        "price > 50000       -> {:?}",
        svc.query(&mut sys, client, &q, Duration::from_secs(5))
    );

    // Failure: kill an active member; the standby takes over its rank (Steps 3-4).
    sys.kill_process(svc.members[1]);
    let gid = svc.gid;
    sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(0), gid)
            .map(|v| v.len() == 3)
            .unwrap_or(false)
    });
    let q = Query::horizontal("object", Op::Eq, "car");
    println!(
        "after failure, *object = car -> {:?}",
        svc.query(&mut sys, client, &q, Duration::from_secs(5))
    );
    println!("multicasts used: {}", sys.rt.stats().multicast_summary());
}
