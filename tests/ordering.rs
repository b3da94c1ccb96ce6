//! Integration: ordering guarantees of the three multicast primitives observed end-to-end by
//! application handlers.

use std::cell::RefCell;
use std::rc::Rc;

use vsync_core::{
    Duration, EntryId, GroupId, LatencyProfile, Message, ProcessId, ProtocolKind, SiteId,
};
use vsync_rt::{IsisHarness, SimRuntime};

const APPLY: EntryId = EntryId(2);

type Log = Rc<RefCell<Vec<u64>>>;

fn spawn_logger(sys: &mut IsisHarness<SimRuntime>, site: SiteId) -> (ProcessId, Log) {
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let l = log.clone();
    let pid = sys.spawn_local(site, move |b| {
        b.on_entry(APPLY, move |_ctx, msg| {
            l.borrow_mut().push(msg.get_u64("body").unwrap_or(0));
        });
    });
    (pid, log)
}

fn deploy(n: usize) -> (IsisHarness<SimRuntime>, GroupId, Vec<ProcessId>, Vec<Log>) {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(n, LatencyProfile::Modern, 42));
    let mut members = Vec::new();
    let mut logs = Vec::new();
    for i in 0..n {
        let (p, l) = spawn_logger(&mut sys, SiteId(i as u16));
        members.push(p);
        logs.push(l);
    }
    let gid = sys.create_group("ordered", members[0]);
    for m in &members[1..] {
        sys.join_and_wait(gid, *m, None, Duration::from_secs(5))
            .unwrap();
    }
    (sys, gid, members, logs)
}

#[test]
fn cbcast_is_fifo_per_sender_and_delivered_everywhere() {
    let (mut sys, gid, members, logs) = deploy(3);
    for i in 0..10u64 {
        sys.client_send(
            members[0],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Cbcast,
        );
    }
    sys.settle(Duration::from_millis(500));
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<u64>>(), "member {i}");
    }
}

#[test]
fn abcast_total_order_is_identical_at_every_member() {
    let (mut sys, gid, members, logs) = deploy(4);
    // Concurrent ABCASTs from every member, interleaved.
    for round in 0..5u64 {
        for (i, m) in members.iter().enumerate() {
            sys.client_send(
                *m,
                gid,
                APPLY,
                Message::with_body(round * 10 + i as u64),
                ProtocolKind::Abcast,
            );
        }
    }
    sys.settle(Duration::from_millis(2_000));
    let reference = logs[0].borrow().clone();
    assert_eq!(
        reference.len(),
        20,
        "every multicast delivered: {reference:?}"
    );
    for (i, log) in logs.iter().enumerate().skip(1) {
        assert_eq!(
            *log.borrow(),
            reference,
            "member {i} disagrees on the total order"
        );
    }
}

#[test]
fn gbcast_is_ordered_with_respect_to_cbcast_traffic() {
    let (mut sys, gid, members, logs) = deploy(3);
    // A stream of CBCASTs with one GBCAST in the middle: every member must observe the
    // GBCAST at the same position relative to the stream (virtual synchrony cut).
    for i in 0..5u64 {
        sys.client_send(
            members[0],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Cbcast,
        );
    }
    sys.settle(Duration::from_millis(200));
    sys.client_send(
        members[0],
        gid,
        APPLY,
        Message::with_body(100),
        ProtocolKind::Gbcast,
    );
    sys.settle(Duration::from_millis(200));
    for i in 5..10u64 {
        sys.client_send(
            members[0],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Cbcast,
        );
    }
    sys.settle(Duration::from_millis(1_000));
    let positions: Vec<usize> = logs
        .iter()
        .map(|l| {
            l.borrow()
                .iter()
                .position(|v| *v == 100)
                .expect("gbcast delivered")
        })
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] == w[1]),
        "GBCAST observed at different positions: {positions:?}"
    );
    for log in &logs {
        assert_eq!(log.borrow().len(), 11);
    }
}

#[test]
fn every_primitive_reaches_every_member_exactly_once() {
    let (mut sys, gid, members, logs) = deploy(3);
    sys.client_send(
        members[0],
        gid,
        APPLY,
        Message::with_body(1u64),
        ProtocolKind::Cbcast,
    );
    sys.client_send(
        members[1],
        gid,
        APPLY,
        Message::with_body(2u64),
        ProtocolKind::Abcast,
    );
    sys.client_send(
        members[2],
        gid,
        APPLY,
        Message::with_body(3u64),
        ProtocolKind::Gbcast,
    );
    sys.settle(Duration::from_millis(1_000));
    for (i, log) in logs.iter().enumerate() {
        let mut seen = log.borrow().clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![1, 2, 3],
            "member {i} missed or duplicated a message"
        );
    }
}
