//! Focused demonstration of the coordinator–cohort tool (paper Section 6): the deterministic
//! coordinator selection, the cohort's monitoring, and take-over after a failure.
//!
//! Run with: `cargo run --example coordinator_failover`

use std::cell::RefCell;
use std::rc::Rc;

use vsync_core::{
    Address, Duration, EntryId, LatencyProfile, Message, ProtocolKind, ReplyWanted, SiteId,
};
use vsync_rt::{IsisHarness, SimRuntime};
use vsync_tools::CoordCohort;

const WORK: EntryId = EntryId(33);

fn main() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(4, LatencyProfile::Modern, 42));
    let gid = sys.allocate_group_id();

    // Three members; each records which requests it executed as coordinator.
    let mut members = Vec::new();
    let mut executed: Vec<Rc<RefCell<Vec<u64>>>> = Vec::new();
    for i in 0..3u16 {
        let cc = CoordCohort::new(gid);
        let cc_attach = cc.clone();
        let cc_handle = cc.clone();
        let log = Rc::new(RefCell::new(Vec::new()));
        let log_for_action = log.clone();
        let pid = sys.spawn_local(SiteId(i), move |b| {
            cc_attach.attach(b);
            let cc = cc_handle.clone();
            let log = log_for_action.clone();
            b.on_entry(WORK, move |ctx, msg| {
                let group = msg.group().unwrap_or(gid);
                let Some(view) = ctx.view_of(group).cloned() else {
                    ctx.null_reply(msg);
                    return;
                };
                let plist = view.members.clone();
                let log = log.clone();
                cc.handle(
                    ctx,
                    msg,
                    plist,
                    move |_ctx, request| {
                        let job = request.get_u64("job").unwrap_or(0);
                        log.borrow_mut().push(job);
                        Message::new().with("done", job)
                    },
                    |_ctx, _copy| {},
                );
            });
        });
        if i == 0 {
            sys.create_group_with_id("workers", gid, pid);
        } else {
            sys.join_and_wait(gid, pid, None, Duration::from_secs(5))
                .expect("join");
        }
        members.push(pid);
        executed.push(log);
    }

    let client = sys.spawn(SiteId(3), |_| {});
    let submit = |sys: &mut IsisHarness<SimRuntime>, job: u64| {
        let outcome = sys.client_call(
            client,
            vec![Address::Group(gid)],
            WORK,
            Message::new().with("job", job),
            ProtocolKind::Cbcast,
            ReplyWanted::One,
            Duration::from_secs(5),
        );
        outcome.replies.first().and_then(|r| r.get_u64("done"))
    };

    println!("job 1 -> {:?}", submit(&mut sys, 1));
    println!("job 2 -> {:?}", submit(&mut sys, 2));

    // Kill whichever member has been doing the work; the cohorts take over transparently.
    let busiest = executed
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.borrow().len())
        .map(|(i, _)| i)
        .unwrap();
    println!("killing member {busiest} (the current coordinator)");
    sys.kill_process(members[busiest]);
    sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId((busiest as u16 + 1) % 3), gid)
            .map(|v| v.len() == 2)
            .unwrap_or(false)
    });
    println!("job 3 -> {:?}", submit(&mut sys, 3));

    for (i, log) in executed.iter().enumerate() {
        println!("member {i} executed jobs {:?}", log.borrow());
    }
}
