//! Integration: the toolkit tools running over real (simulated) groups — replicated data,
//! configuration, semaphores, news, bulletin boards.

use std::cell::RefCell;
use std::rc::Rc;

use vsync_core::{
    Duration, EntryId, GroupId, LatencyProfile, Message, ProcessId, ProtocolKind, SiteId,
};
use vsync_rt::{IsisHarness, SimRuntime};
use vsync_tools::{
    BulletinBoard, ConfigTool, NewsService, ReplicatedData, SemaphoreTool, SiteMonitor,
    UpdateOrdering,
};

const DATA: EntryId = EntryId(60);
const CFG: EntryId = EntryId(61);
const SEM: EntryId = EntryId(62);
const NEWS: EntryId = EntryId(63);
const BB: EntryId = EntryId(64);

struct Member {
    pid: ProcessId,
    data: ReplicatedData,
    cfg: ConfigTool,
    sem: SemaphoreTool,
    news: NewsService,
    bb: BulletinBoard,
    monitor: SiteMonitor,
}

fn deploy(n: usize) -> (IsisHarness<SimRuntime>, GroupId, Vec<Member>) {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(n, LatencyProfile::Modern, 42));
    let gid = sys.allocate_group_id();
    let mut members = Vec::new();
    for i in 0..n {
        let data = ReplicatedData::new(gid, DATA, UpdateOrdering::Total);
        let cfg = ConfigTool::new(gid, CFG);
        let sem = SemaphoreTool::new(gid, SEM);
        sem.define("mutex", 1);
        let news = NewsService::new(gid, NEWS);
        let bb = BulletinBoard::new(gid, BB);
        let monitor = SiteMonitor::new(gid);
        let (d, c, s, nw, b, m) = (
            data.clone(),
            cfg.clone(),
            sem.clone(),
            news.clone(),
            bb.clone(),
            monitor.clone(),
        );
        let pid = sys.spawn_local(SiteId(i as u16), move |builder| {
            d.attach(builder);
            c.attach(builder);
            s.attach(builder);
            nw.attach(builder);
            b.attach(builder);
            m.attach(builder);
        });
        if i == 0 {
            sys.create_group_with_id("tools", gid, pid);
        } else {
            sys.join_and_wait(gid, pid, None, Duration::from_secs(5))
                .unwrap();
        }
        members.push(Member {
            pid,
            data,
            cfg,
            sem,
            news,
            bb,
            monitor,
        });
    }
    sys.settle(Duration::from_millis(50));
    (sys, gid, members)
}

#[test]
fn replicated_data_converges_at_every_member() {
    let (mut sys, gid, members) = deploy(3);
    // Drive updates through the tool by sending the tool's own wire format from a member.
    sys.client_send(
        members[0].pid,
        gid,
        DATA,
        Message::new()
            .with("rd-item", "inventory")
            .with("rd-value", 42u64),
        vsync_core::ProtocolKind::Abcast,
    );
    sys.settle(Duration::from_millis(500));
    for (i, m) in members.iter().enumerate() {
        assert_eq!(m.data.read_u64("inventory"), Some(42), "member {i}");
        assert_eq!(m.data.updates_applied(), 1, "member {i}");
    }
}

#[test]
fn configuration_changes_are_seen_by_every_member() {
    let (mut sys, gid, members) = deploy(3);
    sys.client_send(
        members[1].pid,
        gid,
        CFG,
        Message::new()
            .with("cfg-item", "nworkers")
            .with("cfg-value", 7u64),
        vsync_core::ProtocolKind::Gbcast,
    );
    sys.settle(Duration::from_millis(500));
    for (i, m) in members.iter().enumerate() {
        assert_eq!(m.cfg.read_u64("nworkers"), Some(7), "member {i}");
        assert_eq!(m.cfg.version(), 1, "member {i}");
    }
}

#[test]
fn semaphore_grants_are_mutually_exclusive_and_fifo() {
    let (mut sys, gid, members) = deploy(3);
    // Two members request the mutex; the requests travel by ABCAST so everyone agrees who
    // holds it and who queues.
    for idx in [0usize, 1] {
        sys.client_send(
            members[idx].pid,
            gid,
            SEM,
            Message::new()
                .with("sem-name", "mutex")
                .with("sem-op", "P")
                .with("sem-proc", members[idx].pid),
            vsync_core::ProtocolKind::Abcast,
        );
    }
    sys.settle(Duration::from_millis(500));
    let holders: Vec<_> = members.iter().map(|m| m.sem.holders("mutex")).collect();
    assert!(
        holders.windows(2).all(|w| w[0] == w[1]),
        "holder sets diverged: {holders:?}"
    );
    assert_eq!(holders[0].len(), 1);
    assert_eq!(members[0].sem.queue_len("mutex"), 1);
    // Release: the queued requester is granted at every member.
    let holder = holders[0][0];
    sys.client_send(
        members[0].pid,
        gid,
        SEM,
        Message::new()
            .with("sem-name", "mutex")
            .with("sem-op", "V")
            .with("sem-proc", holder),
        vsync_core::ProtocolKind::Abcast,
    );
    sys.settle(Duration::from_millis(500));
    for m in &members {
        assert_eq!(m.sem.holders("mutex").len(), 1);
        assert_ne!(m.sem.holders("mutex")[0], holder);
        assert_eq!(m.sem.queue_len("mutex"), 0);
    }
}

#[test]
fn semaphore_p_from_a_handler_grants_in_fifo_order_and_v_hands_on() {
    const ACQUIRE: EntryId = EntryId(65);
    const RELEASE: EntryId = EntryId(66);
    let mut sys = IsisHarness::new(SimRuntime::for_profile(3, LatencyProfile::Modern, 42));
    let gid = sys.allocate_group_id();
    // Every `on_acquired` run: which requester's callback it was, and where it ran.
    let acquired: Rc<RefCell<Vec<(usize, ProcessId)>>> = Rc::default();
    let mut members: Vec<(ProcessId, SemaphoreTool)> = Vec::new();
    for i in 0..3usize {
        let sem = SemaphoreTool::new(gid, SEM);
        sem.define("mutex", 1);
        let (tool, log) = (sem.clone(), acquired.clone());
        let pid = sys.spawn_local(SiteId(i as u16), move |b| {
            tool.attach(b);
            let p_tool = tool.clone();
            b.on_entry(ACQUIRE, move |ctx, _msg| {
                let log = log.clone();
                p_tool.p(ctx, "mutex", move |ctx| {
                    log.borrow_mut().push((i, ctx.me()))
                });
            });
            b.on_entry(RELEASE, move |ctx, _msg| tool.v(ctx, "mutex"));
        });
        if i == 0 {
            sys.create_group_with_id("sem", gid, pid);
        } else {
            sys.join_and_wait(gid, pid, None, Duration::from_secs(5))
                .unwrap();
        }
        members.push((pid, sem));
    }
    let pid = |i: usize| members[i].0;
    let kick = |sys: &mut IsisHarness<SimRuntime>, who: ProcessId, entry: EntryId| {
        sys.client_send(who, who, entry, Message::new(), ProtocolKind::Cbcast);
        sys.settle(Duration::from_millis(200));
    };
    // Members 1 and then 2 call P from inside their own handlers.
    kick(&mut sys, pid(1), ACQUIRE);
    kick(&mut sys, pid(2), ACQUIRE);
    assert_eq!(
        *acquired.borrow(),
        vec![(1, pid(1))],
        "only the first requester"
    );
    for (_, sem) in &members {
        assert_eq!(sem.holders("mutex"), vec![pid(1)]);
        assert_eq!(sem.queue_len("mutex"), 1);
    }
    // The holder calls V from its handler: the queued requester is granted, and its
    // `on_acquired` runs once, at that requester.
    kick(&mut sys, pid(1), RELEASE);
    assert_eq!(*acquired.borrow(), vec![(1, pid(1)), (2, pid(2))]);
    for (_, sem) in &members {
        assert_eq!(sem.holders("mutex"), vec![pid(2)]);
        assert_eq!(sem.queue_len("mutex"), 0);
    }
}

#[test]
fn semaphore_held_by_a_failed_member_is_released() {
    let (mut sys, gid, members) = deploy(3);
    sys.client_send(
        members[2].pid,
        gid,
        SEM,
        Message::new()
            .with("sem-name", "mutex")
            .with("sem-op", "P")
            .with("sem-proc", members[2].pid),
        vsync_core::ProtocolKind::Abcast,
    );
    sys.settle(Duration::from_millis(500));
    assert_eq!(members[0].sem.holders("mutex"), vec![members[2].pid]);
    sys.kill_process(members[2].pid);
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(0), gid)
            .map(|v| v.len() == 2)
            .unwrap_or(false)
    });
    assert!(ok);
    sys.settle(Duration::from_millis(100));
    for m in &members[..2] {
        assert!(
            m.sem.holders("mutex").is_empty(),
            "failed holder must be auto-released"
        );
        assert_eq!(m.sem.auto_releases(), 1);
    }
}

#[test]
fn news_postings_arrive_in_the_same_order_for_every_subscriber() {
    let (mut sys, gid, members) = deploy(3);
    let seen: Vec<Rc<RefCell<Vec<u64>>>> =
        (0..3).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    for (m, s) in members.iter().zip(&seen) {
        let s = s.clone();
        m.news.subscribe("alerts", move |_ctx, msg| {
            s.borrow_mut().push(msg.get_u64("body").unwrap_or(0));
        });
    }
    for i in 0..5u64 {
        let poster = &members[(i % 3) as usize];
        sys.client_send(
            poster.pid,
            gid,
            NEWS,
            Message::with_body(i).with("news-subject", "alerts"),
            vsync_core::ProtocolKind::Abcast,
        );
    }
    sys.settle(Duration::from_millis(1_000));
    let reference = seen[0].borrow().clone();
    assert_eq!(reference.len(), 5);
    for s in &seen[1..] {
        assert_eq!(
            *s.borrow(),
            reference,
            "subscribers observed different posting orders"
        );
    }
    // Unsubscribed subjects are not delivered to callbacks but are kept in the history.
    assert_eq!(members[0].news.posts_seen(), 5);
    assert_eq!(members[0].news.history("alerts").len(), 5);
}

#[test]
fn bulletin_board_replicates_postings_in_order() {
    let (mut sys, gid, members) = deploy(2);
    for i in 0..4u64 {
        sys.client_send(
            members[(i % 2) as usize].pid,
            gid,
            BB,
            Message::with_body(i).with("bb-board", "sensor"),
            vsync_core::ProtocolKind::Abcast,
        );
    }
    sys.settle(Duration::from_millis(500));
    let a: Vec<u64> = members[0]
        .bb
        .read("sensor")
        .iter()
        .filter_map(|m| m.get_u64("body"))
        .collect();
    let b: Vec<u64> = members[1]
        .bb
        .read("sensor")
        .iter()
        .filter_map(|m| m.get_u64("body"))
        .collect();
    assert_eq!(a.len(), 4);
    assert_eq!(a, b);
}

#[test]
fn site_monitor_reports_clean_membership_events() {
    let (mut sys, gid, members) = deploy(3);
    sys.kill_process(members[2].pid);
    let ok = sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(0), gid)
            .map(|v| v.len() == 2)
            .unwrap_or(false)
    });
    assert!(ok);
    sys.settle(Duration::from_millis(100));
    assert_eq!(members[0].monitor.departures(), 1);
    assert_eq!(members[1].monitor.departures(), 1);
}
