//! Integration: failure detection, view changes under crashes, coordinator–cohort take-over,
//! and the virtual-synchrony guarantee that survivors agree on what was delivered before a
//! failure.

use std::cell::RefCell;
use std::rc::Rc;

use vsync_apps::factory::Factory;
use vsync_core::{
    Address, Duration, EntryId, LatencyProfile, Message, ProtocolKind, ReplyWanted, SiteId,
};
use vsync_rt::{IsisHarness, IsisRuntime, SimRuntime};

const APPLY: EntryId = EntryId(2);

#[test]
fn site_crash_is_converted_into_a_clean_membership_change() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(4, LatencyProfile::Modern, 42));
    let logs: Vec<Rc<RefCell<Vec<u64>>>> =
        (0..4).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let members: Vec<_> = (0..4)
        .map(|i| {
            let l = logs[i].clone();
            sys.spawn_local(SiteId(i as u16), move |b| {
                b.on_entry(APPLY, move |_ctx, msg| {
                    l.borrow_mut().push(msg.get_u64("body").unwrap_or(0));
                });
            })
        })
        .collect();
    let gid = sys.create_group("svc", members[0]);
    for m in &members[1..] {
        sys.join_and_wait(gid, *m, None, Duration::from_secs(5))
            .unwrap();
    }
    // Traffic flows, then a site dies.
    for i in 0..5u64 {
        sys.client_send(
            members[1],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Cbcast,
        );
    }
    sys.settle(Duration::from_millis(200));
    sys.rt.kill_site(SiteId(3));
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        [0u16, 1, 2].iter().all(|i| {
            s.view_of(SiteId(*i), gid)
                .map(|v| v.len() == 3)
                .unwrap_or(false)
        })
    });
    assert!(ok, "survivors never agreed on the three-member view");
    // All survivors delivered the same pre-crash messages.
    let reference = logs[0].borrow().clone();
    assert_eq!(reference.len(), 5);
    for (i, log) in logs.iter().enumerate().take(3).skip(1) {
        assert_eq!(*log.borrow(), reference, "survivor {i} diverged");
    }
}

#[test]
fn coordinator_cohort_fail_over_still_answers_the_caller() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(4, LatencyProfile::Modern, 42));
    let factory = Factory::deploy(&mut sys, &[SiteId(0), SiteId(1), SiteId(2)]);
    let client = sys.spawn(SiteId(3), |_| {});

    // Healthy case: a batch is processed exactly once.
    let done = factory.submit_batch(&mut sys, client, 1, Duration::from_secs(5));
    assert_eq!(done, Some(1));
    assert_eq!(factory.total_batches_processed(), 1);

    // Kill the member co-located with nothing in particular (rank 0 member's site) and submit
    // again: the coordinator selection skips the dead member and the batch still completes.
    sys.kill_process(factory.emulsion[0].pid);
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(1), factory.emulsion_gid)
            .map(|v| v.len() == 2)
            .unwrap_or(false)
    });
    assert!(ok, "emulsion group never shrank");
    let done = factory.submit_batch(&mut sys, client, 2, Duration::from_secs(5));
    assert_eq!(done, Some(2), "batch must complete despite the failure");
}

#[test]
fn rpc_in_flight_when_a_destination_dies_still_completes() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(3, LatencyProfile::Modern, 42));
    let responder = sys.spawn(SiteId(0), |b| {
        b.on_entry(APPLY, |ctx, msg| {
            ctx.reply(msg, Message::with_body(7u64));
        });
    });
    let silent = sys.spawn(SiteId(1), |b| {
        // Never replies: the caller can only be released by the failure notification.
        b.on_entry(APPLY, |_ctx, _msg| {});
    });
    let gid = sys.create_group("svc", responder);
    sys.join_and_wait(gid, silent, None, Duration::from_secs(5))
        .unwrap();
    let client = sys.spawn(SiteId(2), |_| {});

    // Ask for ALL replies, then kill the silent member while the call is outstanding.
    sys.kill_process(silent);
    let outcome = sys.client_call(
        client,
        vec![Address::Group(gid)],
        APPLY,
        Message::with_body(1u64),
        ProtocolKind::Cbcast,
        ReplyWanted::All,
        Duration::from_secs(10),
    );
    // The collection completes (short) with the one real reply rather than hanging.
    assert_eq!(outcome.replies.len(), 1);
}
