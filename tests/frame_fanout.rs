//! Integration: the shared-frame fan-out contract.
//!
//! A protocol frame is born as wire bytes with its typed value attached.  A multicast to N
//! sites must therefore write its frame exactly once, parse it **never** where every site
//! shares the process (the simulator) and at most once per receiving site where frames
//! cross a thread boundary as bytes, build no field tree anywhere — and still hand every
//! receiver an isolated payload: one receiver editing its copy can never be observed by
//! another.  A flush follows the same rule at scale: one commit frame is written
//! cluster-wide and every copy that is sent, applied, kept or relayed aliases it.  And a
//! large body is not part of what is written: it rides in the frame's segment list by
//! reference, so a 64 KiB multicast to four other sites copies its body zero times.
//!
//! The counts come from `vsync_proto::messages::wire_stats` (typed encodes and decodes),
//! `vsync_msg::frame::wire_cache` (tree → bytes encodes) and `vsync_msg::frame::tree_builds`
//! (bytes → tree decodes), all per thread.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use vsync::core::{
    Duration, EntryId, GroupId, Message, ProcessId, ProtocolKind, SiteId, StackConfig,
};
use vsync::msg::frame::{tree_builds, wire_cache};
use vsync::msg::{Bytes, Frame};
use vsync::net::{MsgId, Outbox, Packet, PacketKind, SiteHandler};
use vsync::proto::messages::wire_stats;
use vsync::proto::{ProtoConfig, ProtoMsg};
use vsync::rt::{IsisHarness, IsisRuntime, SimCluster, SimRuntime, ThreadedRuntime, WirePacket};
use vsync::util::{NetParams, SimTime, VectorClock};

const APPLY: EntryId = EntryId(2);

/// Every periodic timer pushed beyond the test horizon, so the only wire traffic during a
/// measurement window is the traffic under test (no heartbeats, no stability gossip).
fn quiet_configs() -> (StackConfig, ProtoConfig) {
    let hour = Duration::from_secs(3_600);
    let stack_cfg = StackConfig {
        tick_interval: hour,
        heartbeat_interval: hour,
        failure_timeout: hour,
        rpc_timeout: hour,
        reform_timeout: hour,
    };
    let proto_cfg = ProtoConfig {
        stability_interval: hour,
        flush_timeout: hour,
    };
    (stack_cfg, proto_cfg)
}

/// `(typed encodes, typed decodes, tree → bytes encodes, bytes → tree decodes)` on the
/// calling thread.
fn wire_work() -> [u64; 4] {
    [
        wire_stats::frame_encodes(),
        wire_stats::frame_decodes(),
        wire_cache::encodes(),
        tree_builds(),
    ]
}

fn since(before: [u64; 4]) -> [u64; 4] {
    let now = wire_work();
    [0, 1, 2, 3].map(|i| now[i] - before[i])
}

/// A group with one member on each of the first `members` sites; every member counts the
/// bodies it applies into the returned totals.
fn spawn_group<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    members: u16,
) -> (GroupId, Vec<ProcessId>, Vec<Arc<AtomicU64>>) {
    let gid = h.allocate_group_id();
    let mut pids = Vec::new();
    let mut applied = Vec::new();
    for site in 0..members {
        let total = Arc::new(AtomicU64::new(0));
        applied.push(total.clone());
        pids.push(h.spawn(SiteId(site), move |b| {
            b.on_entry(APPLY, move |_ctx, msg| {
                total.fetch_add(msg.get_u64("body").unwrap_or(0), Ordering::Relaxed);
            });
        }));
    }
    h.create_group_with_id("fanout", gid, pids[0]);
    for m in &pids[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(30))
            .expect("join");
    }
    (gid, pids, applied)
}

/// Every threaded site's [`wire_work`], read once the cluster has gone quiet: two reads of
/// all sites, a pause apart, that agree.  `join_and_wait` returns when the *joiner's* site
/// shows the new view, and that is not yet quiet: every site that installs a view relays
/// the `FlushCommit` frame to every member site (`GroupEndpoint::apply_commit`), so copies
/// relayed by the last join can still be on their way to the coordinator's site, which
/// parses each one before dropping it as already installed — a decode that must land
/// before a measurement window opens, not inside it.
fn wire_work_at_rest(h: &mut IsisHarness<ThreadedRuntime>, sites: u16) -> Vec<[u64; 4]> {
    let read = |h: &mut IsisHarness<ThreadedRuntime>| -> Vec<[u64; 4]> {
        (0..sites)
            .map(|site| {
                h.query(SiteId(site), |_stack, _now, _out| wire_work())
                    .expect("node is up")
            })
            .collect()
    };
    let mut last = read(h);
    for _ in 0..500 {
        h.settle(Duration::from_millis(20));
        let now = read(h);
        if now == last {
            return now;
        }
        last = now;
    }
    panic!("the cluster never went quiet: {last:?}");
}

/// Four simulated sites, members on the first three.
fn quiet_sim() -> (
    IsisHarness<SimRuntime>,
    GroupId,
    Vec<ProcessId>,
    Vec<Arc<AtomicU64>>,
) {
    let (stack_cfg, proto_cfg) = quiet_configs();
    let mut h = IsisHarness::new(SimRuntime::new(
        4,
        NetParams::modern(),
        stack_cfg,
        proto_cfg,
        11,
    ));
    let (gid, pids, applied) = spawn_group(&mut h, 3);
    h.settle(Duration::from_millis(50));
    (h, gid, pids, applied)
}

fn totals(applied: &[Arc<AtomicU64>]) -> Vec<u64> {
    applied.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

#[test]
fn sim_cbcast_writes_one_frame_and_parses_none() {
    let (mut h, gid, members, applied) = quiet_sim();
    let before = wire_work();
    h.client_send(
        members[0],
        gid,
        APPLY,
        Message::with_body(77u64),
        ProtocolKind::Cbcast,
    );
    h.settle(Duration::from_millis(50));
    assert_eq!(totals(&applied), [77, 77, 77], "every member delivered");
    assert_eq!(
        since(before),
        [1, 0, 0, 0],
        "one frame written for both peer sites; both read the typed value it was born \
         with, so nothing is parsed, encoded from a tree or decoded into one"
    );
}

#[test]
fn sim_abcast_writes_one_frame_per_protocol_message_and_parses_none() {
    let (mut h, gid, members, applied) = quiet_sim();
    let before = wire_work();
    h.client_send(
        members[1],
        gid,
        APPLY,
        Message::with_body(99u64),
        ProtocolKind::Abcast,
    );
    h.settle(Duration::from_millis(100));
    assert_eq!(totals(&applied), [99, 99, 99], "every member delivered");
    // ABCAST = 1 AbData (fanned out, shared) + 1 AbPropose per destination site (2 here,
    // distinct frames) + 1 AbOrder (fanned out, shared): with two sites that is the 3
    // packets per multicast of the paper; with three it is 4 frames for 6 packets.
    assert_eq!(
        since(before),
        [4, 0, 0, 0],
        "one write per distinct protocol message, regardless of fan-out width, no parse"
    );
}

#[test]
fn sim_ten_thousand_multicasts_build_no_tree_and_parse_nothing() {
    let (mut h, gid, members, applied) = quiet_sim();
    let before = wire_work();
    let n = 10_000u64;
    for i in 0..n {
        let kind = if i % 5 == 4 {
            ProtocolKind::Abcast
        } else {
            ProtocolKind::Cbcast
        };
        h.client_send(
            members[(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(1u64),
            kind,
        );
        if i % 64 == 63 {
            h.settle(Duration::from_millis(1));
        }
    }
    h.settle(Duration::from_millis(200));
    assert_eq!(totals(&applied), [n, n, n]);
    let [encodes, decodes, tree_encodes, tree_decodes] = since(before);
    assert_eq!(encodes, n * 4 / 5 + n / 5 * 4, "1 per CBCAST, 4 per ABCAST");
    assert_eq!([decodes, tree_encodes, tree_decodes], [0, 0, 0]);
}

#[test]
fn sim_join_under_load_writes_one_commit_that_every_site_aliases() {
    let (mut h, gid, members, applied) = quiet_sim();
    // Load: with stability gossip an hour away every multicast stays unstable, so the
    // join's flush has to redistribute all of them.
    for i in 0..24u64 {
        let kind = if i % 3 == 2 {
            ProtocolKind::Abcast
        } else {
            ProtocolKind::Cbcast
        };
        h.client_send(
            members[(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(1u64),
            kind,
        );
    }
    h.settle(Duration::from_millis(100));
    assert_eq!(totals(&applied), [24, 24, 24]);
    assert!(
        h.unstable_count(SiteId(1), gid) >= 24,
        "the join races held copies"
    );

    let joiner = h.spawn(SiteId(3), |b| {
        b.on_entry(APPLY, |_ctx, _msg| {});
    });
    let before = wire_work();
    h.join_and_wait(gid, joiner, None, Duration::from_secs(30))
        .expect("join under load");
    h.settle(Duration::from_millis(100));
    // JoinReq, FlushReq (one frame to both participants), a FlushAck from each of the two
    // participants, and ONE FlushCommit: sent to three sites, applied at four, kept as the
    // bulletin at four and relayed by three, all as the frame the coordinator wrote.  The
    // 24 held multicasts are held as bytes, ride inside the acks and the commit spliced,
    // and are read only as far as their ids: every site had delivered them all, so the
    // cut delivers, and parses, none.
    assert_eq!(
        since(before),
        [5, 0, 0, 0],
        "one commit write cluster-wide, nothing parsed, no tree in either direction"
    );
    let bulletins: Vec<(usize, usize)> = (0..4u16)
        .map(|s| {
            h.query(SiteId(s), move |stack, _now, _out| {
                let commit = stack.last_commit(gid).expect("installed through a commit");
                (commit.handle_count(), commit.wire_bytes().as_ptr() as usize)
            })
            .expect("site is up")
        })
        .collect();
    assert!(
        bulletins.iter().all(|b| b.1 == bulletins[0].1),
        "every site's bulletin is the same buffer: {bulletins:?}"
    );
    assert!(
        bulletins[0].0 >= 4,
        "and the same frame, held once per site: {bulletins:?}"
    );
}

/// Two nodes on two threads: frames cross as bytes, so the receiving node parses each one
/// exactly once; nothing is ever encoded from a tree or decoded into one.
#[test]
fn threaded_frames_are_parsed_once_per_receiving_site_and_never_become_trees() {
    let (stack_cfg, proto_cfg) = quiet_configs();
    let mut h = IsisHarness::new(ThreadedRuntime::new(
        2,
        stack_cfg,
        proto_cfg,
        Default::default(),
        7,
    ));
    let (gid, members, applied) = spawn_group(&mut h, 2);
    let work_at = |h: &mut IsisHarness<ThreadedRuntime>, site: u16| {
        h.query(SiteId(site), |_stack, _now, _out| wire_work())
            .expect("node is up")
    };
    let before = wire_work_at_rest(&mut h, 2);
    let n = 10_000u64;
    for i in 0..n {
        let kind = if i % 5 == 4 {
            ProtocolKind::Abcast
        } else {
            ProtocolKind::Cbcast
        };
        h.client_send(members[0], gid, APPLY, Message::with_body(1u64), kind);
    }
    assert!(
        h.wait_until(Duration::from_secs(60), |_| totals(&applied) == [n, n]),
        "deliveries never completed: {:?}",
        totals(&applied)
    );
    let delta = |site: usize, now: [u64; 4]| [0, 1, 2, 3].map(|i| now[i] - before[site][i]);
    let (cb, ab) = (n * 4 / 5, n / 5);
    // Site 0 writes every data frame and the order frames, and reads the proposal frames;
    // site 1 reads each frame site 0 writes once and writes the proposal frames.  How many
    // ordering frames there are depends on how the packets bunch into runs: one per ABCAST
    // when every run is a single packet, one in all when site 1 handles the whole stream
    // in one run.
    let [written, read, trees_0 @ ..] = delta(0, work_at(&mut h, 0));
    let [proposals, their_read, trees_1 @ ..] = delta(1, work_at(&mut h, 1));
    let orders = written - cb - ab;
    assert!((1..=ab).contains(&orders), "{orders} order frames");
    assert!((1..=ab).contains(&proposals), "{proposals} proposal frames");
    assert_eq!(
        [read, their_read],
        [proposals, written],
        "every frame read once"
    );
    assert_eq!([trees_0, trees_1], [[0, 0]; 2], "no tree either way");
    h.rt.shutdown();
}

/// Three sites on three threads, every member ABCASTing a burst at once.  A site handles
/// what arrives in runs of packets: it proposes for every multicast of a run in one frame
/// to its initiator, and an initiator orders every multicast it decided during a run in
/// one frame for all its peers.  So the sites write fewer ordering frames than the three
/// per ABCAST (two proposals, one order) of a frame per entry, and every member still
/// delivers one total order.
#[test]
fn threaded_abcast_bursts_from_every_site_share_ordering_frames() {
    let (stack_cfg, proto_cfg) = quiet_configs();
    let mut h = IsisHarness::new(ThreadedRuntime::new(
        3,
        stack_cfg,
        proto_cfg,
        Default::default(),
        5,
    ));
    let gid = h.allocate_group_id();
    let logs: Vec<Arc<std::sync::Mutex<Vec<u64>>>> = (0..3).map(|_| Arc::default()).collect();
    let members: Vec<ProcessId> = (0..3u16)
        .map(|site| {
            let log = logs[usize::from(site)].clone();
            h.spawn(SiteId(site), move |b| {
                b.on_entry(APPLY, move |_ctx, msg| {
                    let body = msg.get_u64("body").unwrap_or(u64::MAX);
                    log.lock().expect("log").push(body);
                });
            })
        })
        .collect();
    h.create_group_with_id("bursts", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(30))
            .expect("join");
    }
    let before = wire_work_at_rest(&mut h, 3);
    let n = 300u64;
    for i in 0..n {
        for (k, m) in (0u64..).zip(&members) {
            let body = Message::with_body(3 * i + k);
            h.client_send(*m, gid, APPLY, body, ProtocolKind::Abcast);
        }
    }
    let delivered = |logs: &[Arc<std::sync::Mutex<Vec<u64>>>]| -> Vec<usize> {
        logs.iter().map(|l| l.lock().expect("log").len()).collect()
    };
    assert!(
        h.wait_until(Duration::from_secs(60), |_| delivered(&logs)
            == [3 * n as usize; 3]),
        "deliveries never completed: {:?}",
        delivered(&logs)
    );
    let after = wire_work_at_rest(&mut h, 3);
    let written: u64 = (0..3).map(|s| after[s][0] - before[s][0]).sum();
    let ordering = written - 3 * n;
    assert!(
        (1..3 * 3 * n).contains(&ordering),
        "{ordering} ordering frames for {} ABCASTs",
        3 * n
    );
    let order = logs[0].lock().expect("log").clone();
    for log in &logs[1..] {
        assert_eq!(*log.lock().expect("log"), order, "one total order");
    }
    h.rt.shutdown();
}

/// A 64 KiB multicast to four other sites: the frame is written once, each receiving site
/// parses it once, no tree is encoded or decoded — the counts of a 16 B multicast — and the
/// body is copied nowhere: the four wire packets carry the sender's buffer as their second
/// segment, and every handler, on the sender's thread and on four others, is handed it.
#[test]
fn a_bulk_multicast_to_four_sites_is_written_once_and_its_body_copied_nowhere() {
    let body = Bytes::from(vec![0x5Au8; 64 * 1024]);

    // At the thread boundary: four packets of one fan-out.
    let before = wire_work();
    let frame = ProtoMsg::CbData {
        id: MsgId::new(SiteId(0), 1),
        sender: ProcessId::new(SiteId(0), 1),
        sender_rank: 0,
        view_seq: 1,
        vt: VectorClock::from_entries(vec![1, 0, 0, 0, 0]),
        payload: Message::with_body(body.clone()),
    }
    .into_frame(GroupId(9));
    let wires: Vec<WirePacket> = (1..=4u16)
        .map(|site| {
            let pkt = Packet::new(
                ProcessId::new(SiteId(0), 0),
                ProcessId::new(SiteId(site), 0),
                PacketKind::Data,
                frame.clone(),
            );
            WirePacket::from_packet(&pkt, SimTime(1))
        })
        .collect();
    assert_eq!(since(before), [1, 0, 0, 0], "written once for four sites");
    for wire in &wires {
        let segments: Vec<&Bytes> = wire.segments().iter().collect();
        assert_eq!(segments.len(), 2, "what the writer wrote, then the body");
        assert_eq!(segments[1].as_ptr(), body.as_ptr(), "the body itself");
        assert_eq!(
            segments[0].as_ptr(),
            wires[0].segments().iter().next().expect("first").as_ptr()
        );
        assert!(wire.wire_len() - body.len() < 256);
    }

    // End to end: five nodes on five threads.
    let (stack_cfg, proto_cfg) = quiet_configs();
    let mut h = IsisHarness::new(ThreadedRuntime::new(
        5,
        stack_cfg,
        proto_cfg,
        Default::default(),
        9,
    ));
    let gid = h.allocate_group_id();
    let handed: Vec<Arc<AtomicUsize>> = (0..5).map(|_| Arc::default()).collect();
    let members: Vec<ProcessId> = (0..5u16)
        .map(|site| {
            let at = handed[site as usize].clone();
            h.spawn(SiteId(site), move |b| {
                b.on_entry(APPLY, move |_ctx, msg| {
                    let body = msg.get_bytes("body").expect("body");
                    at.store(body.as_ptr() as usize, Ordering::Relaxed);
                });
            })
        })
        .collect();
    h.create_group_with_id("bulk-fanout", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(30))
            .expect("join");
    }
    let work_at = |h: &mut IsisHarness<ThreadedRuntime>, site: u16| {
        h.query(SiteId(site), |_stack, _now, _out| wire_work())
            .expect("node is up")
    };
    let before = wire_work_at_rest(&mut h, 5);
    h.client_send(
        members[0],
        gid,
        APPLY,
        Message::with_body(body.clone()),
        ProtocolKind::Cbcast,
    );
    let everywhere = h.wait_until(Duration::from_secs(30), |_| {
        handed.iter().all(|at| at.load(Ordering::Relaxed) != 0)
    });
    assert!(everywhere, "the multicast was not delivered to all five");
    for site in 0..5u16 {
        let now = work_at(&mut h, site);
        let delta = [0, 1, 2, 3].map(|i| now[i] - before[site as usize][i]);
        let want = if site == 0 {
            [1, 0, 0, 0]
        } else {
            [0, 1, 0, 0]
        };
        assert_eq!(
            delta, want,
            "site {site}: one write at the sender, one parse each"
        );
        assert_eq!(
            handed[site as usize].load(Ordering::Relaxed),
            body.as_ptr() as usize,
            "site {site}: handed a copy of the body"
        );
    }
    h.rt.shutdown();
}

/// Simulator-level isolation: two packets of one fan-out alias a single frame; a receiver
/// that edits its packet payload (copy-on-write) must not be observable by the other.
struct Editor {
    edit: bool,
    seen: Rc<RefCell<Vec<String>>>,
}

impl SiteHandler for Editor {
    fn on_packet(&mut self, _now: SimTime, mut pkt: Packet, _out: &mut Outbox) {
        if self.edit {
            pkt.payload_mut().set("body", "defaced");
        }
        self.seen
            .borrow_mut()
            .push(pkt.payload.get_str("body").unwrap_or("?").to_owned());
    }

    fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Outbox) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn shared_frame_fan_out_preserves_payload_isolation_between_receivers() {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut sim = SimCluster::new(3, NetParams::instant(), 5);
    sim.install(
        SiteId(0),
        Box::new(Editor {
            edit: false,
            seen: seen.clone(),
        }),
    );
    // Site 1 edits its delivered copy; site 2 receives the sibling packet of the same
    // fan-out afterwards (same instant, pushed later) and must see the original body.
    sim.install(
        SiteId(1),
        Box::new(Editor {
            edit: true,
            seen: seen.clone(),
        }),
    );
    sim.install(
        SiteId(2),
        Box::new(Editor {
            edit: false,
            seen: seen.clone(),
        }),
    );
    let src = ProcessId::new(SiteId(0), 0);
    let frame = Frame::new(Message::with_body("pristine"));
    sim.with_node::<Editor, _>(SiteId(0), |_h, _now, out| {
        for dst_site in [1u16, 2] {
            out.send(Packet::new(
                src,
                ProcessId::new(SiteId(dst_site), 0),
                PacketKind::Data,
                frame.clone(),
            ));
        }
    });
    sim.run_until(SimTime(1_000_000));
    assert_eq!(
        seen.borrow().as_slice(),
        ["defaced", "pristine"],
        "the editing receiver sees its edit; the aliasing receiver sees the original"
    );
    // And the sender's own handle still reads the original: copy-on-write never wrote
    // through the shared allocation.
    assert_eq!(frame.get_str("body"), Some("pristine"));
}
