//! Quickstart: create a process group, join members on three sites, multicast with CBCAST
//! and ABCAST, issue a group RPC, and watch a view change when a member fails.
//!
//! Run with: `cargo run --example quickstart`

use std::cell::RefCell;
use std::rc::Rc;

use vsync_core::{
    Address, Duration, EntryId, LatencyProfile, Message, ProtocolKind, ReplyWanted, SiteId,
};
use vsync_rt::{IsisHarness, SimRuntime};

const HELLO: EntryId = EntryId(1);

fn main() {
    // A four-site simulated LAN with a modern latency profile.
    let mut sys = IsisHarness::new(SimRuntime::for_profile(4, LatencyProfile::Modern, 42));

    // Spawn three members; each logs what it receives and answers group RPCs.
    let logs: Vec<Rc<RefCell<Vec<u64>>>> =
        (0..3).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let members: Vec<_> = (0..3)
        .map(|i| {
            let log = logs[i].clone();
            sys.spawn_local(SiteId(i as u16), move |b| {
                b.on_entry(HELLO, move |ctx, msg| {
                    let n = msg.get_u64("body").unwrap_or(0);
                    log.borrow_mut().push(n);
                    ctx.reply(msg, Message::with_body(n * 10));
                });
            })
        })
        .collect();

    // pg_create + pg_join: the group spans three sites, ranked by age.
    let gid = sys.create_group("hello-service", members[0]);
    for m in &members[1..] {
        sys.join_and_wait(gid, *m, None, Duration::from_secs(5))
            .expect("join");
    }
    println!("view: {:?}", sys.view_of(SiteId(0), gid).unwrap().members);

    // Asynchronous CBCAST: the caller continues immediately.
    sys.client_send(
        members[0],
        gid,
        HELLO,
        Message::with_body(1u64),
        ProtocolKind::Cbcast,
    );
    // Totally ordered ABCAST.
    sys.client_send(
        members[1],
        gid,
        HELLO,
        Message::with_body(2u64),
        ProtocolKind::Abcast,
    );
    sys.settle(Duration::from_millis(200));

    // Group RPC from a client outside the group: wait for all three replies.
    let client = sys.spawn(SiteId(3), |_| {});
    let outcome = sys.client_call(
        client,
        vec![Address::Group(gid)],
        HELLO,
        Message::with_body(7u64),
        ProtocolKind::Cbcast,
        ReplyWanted::Count(3),
        Duration::from_secs(5),
    );
    println!(
        "group RPC got {} replies: {:?}",
        outcome.replies.len(),
        outcome
            .replies
            .iter()
            .filter_map(|r| r.get_u64("body"))
            .collect::<Vec<_>>()
    );

    // Kill a member: the surviving members install a new view (a clean, agreed event).
    sys.kill_process(members[2]);
    sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(0), gid)
            .map(|v| v.len() == 2)
            .unwrap_or(false)
    });
    println!(
        "view after failure: {:?}",
        sys.view_of(SiteId(0), gid).unwrap().members
    );
    for (i, log) in logs.iter().enumerate() {
        println!("member {i} delivered {:?}", log.borrow());
    }
    println!("multicast counters: {}", sys.rt.stats().multicast_summary());
}
