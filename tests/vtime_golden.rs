//! Tier-1 golden: the simulator's wire-size model and virtual-time behaviour, pinned.
//!
//! One fixed-seed `rt::sim` scenario — 4 sites, 300 paced operations mixing CBCAST, ABCAST
//! and group RPC, one join with a state transfer and one site crash, both under load —
//! must reproduce, to the packet, byte and microsecond, the numbers captured on the commit
//! before protocol frames became wire-born (the byte total has been re-pinned since, each
//! time with its reason beside the constant).  Packet sizes drive fragmentation
//! and link delay in the simulator, so a change that moves the size model
//! (`Message::encoded_len` / `Frame::model_len` / `Packet::wire_size`) or the number of
//! packets a primitive costs shows up here, in `cargo test`, and not only in the
//! benchmark's exact-per-seed rows or `crates/bench/golden/repro_all.md`.
//!
//! If a change moves these numbers *on purpose* (a new header format, batching), re-capture
//! them with `VTIME_GOLDEN_PRINT=1 cargo test --test vtime_golden -- --nocapture` and say
//! so in the PR; otherwise a diff here is a bug.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use vsync::core::{
    Duration, EntryId, GroupId, Message, ProcessId, ProtocolKind, ReplyWanted, SiteId, StackConfig,
};
use vsync::net::PacketKind;
use vsync::proto::ProtoConfig;
use vsync::rt::{IsisHarness, IsisRuntime, SimRuntime};
use vsync::tools::StateTransfer;
use vsync::util::NetParams;

const APPLY: EntryId = EntryId(3);
const ASK: EntryId = EntryId(4);
const OPS: u64 = 300;
const JOIN_AT: u64 = 100;
const CRASH_AT: u64 = 200;

/// `(body, delivery instant in virtual µs)` per delivery, all members in one log.
type Deliveries = Arc<Mutex<Vec<(u64, u64)>>>;

struct Member {
    pid: ProcessId,
    ready: Arc<AtomicBool>,
}

/// A member whose state is the list of applied bodies padded to a few KiB, so the join's
/// state transfer ships real blocks.
fn spawn_member(
    h: &mut IsisHarness<SimRuntime>,
    site: SiteId,
    gid: GroupId,
    founder: bool,
    deliveries: &Deliveries,
) -> Member {
    let ready = Arc::new(AtomicBool::new(founder));
    let ready2 = ready.clone();
    let deliveries = deliveries.clone();
    let pid = h.spawn(site, move |b| {
        let state: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let (s_encode, s_apply, s_update) = (state.clone(), state.clone(), state);
        let xfer = StateTransfer::new(
            gid,
            move || {
                vec![
                    Message::new().with("log", s_encode.lock().unwrap().clone()),
                    Message::new().with("pad", vec![7u8; 8 * 1024]),
                ]
            },
            move |_ctx, block| {
                if let Some(snapshot) = block.get_u64_list("log") {
                    *s_apply.lock().unwrap() = snapshot.to_vec();
                }
                if block.get_bool("xfer-last").unwrap_or(false) {
                    ready2.store(true, Ordering::Relaxed);
                }
            },
        );
        xfer.attach(b);
        if founder {
            xfer.mark_ready();
        }
        xfer.on_entry_buffered(b, APPLY, move |ctx, msg| {
            let body = msg.get_u64("body").unwrap_or(u64::MAX);
            s_update.lock().unwrap().push(body);
            deliveries.lock().unwrap().push((body, ctx.now().0));
        });
        b.on_entry(ASK, move |ctx, msg| {
            let body = msg.get_u64("body").unwrap_or(0);
            ctx.reply(msg, Message::with_body(body + 1));
        });
    });
    Member { pid, ready }
}

#[derive(Debug, PartialEq, Eq)]
struct Latencies {
    n: usize,
    p50: u64,
    p99: u64,
    max: u64,
    sum: u64,
}

fn summarise(mut v: Vec<u64>) -> Latencies {
    v.sort_unstable();
    let at = |q: usize| v[(v.len() * q / 100).min(v.len() - 1)];
    Latencies {
        n: v.len(),
        p50: at(50),
        p99: at(99),
        max: *v.last().expect("non-empty"),
        sum: v.iter().sum(),
    }
}

#[test]
fn fixed_seed_scenario_reproduces_packet_byte_and_latency_counts_exactly() {
    let params = NetParams::modern();
    let mut h = IsisHarness::new(SimRuntime::new(
        4,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        20_240_914,
    ));
    let gid = h.allocate_group_id();
    let deliveries: Deliveries = Arc::new(Mutex::new(Vec::new()));
    let mut members = vec![spawn_member(&mut h, SiteId(0), gid, true, &deliveries)];
    h.create_group_with_id("golden", gid, members[0].pid);
    for s in 1..3u16 {
        let m = spawn_member(&mut h, SiteId(s), gid, false, &deliveries);
        h.join_and_wait(gid, m.pid, None, Duration::from_secs(10))
            .expect("founding join");
        members.push(m);
    }
    assert!(h.wait_until(Duration::from_secs(10), |_| {
        members.iter().all(|m| m.ready.load(Ordering::Relaxed))
    }));
    let baseline = h.rt.stats();

    // The run: one operation per 200 µs virtual, 70/20/10 CBCAST/ABCAST/RPC, senders
    // rotating over the live, ready members.
    let mut sent_at: Vec<(u64, ProtocolKind, u64)> = Vec::new();
    let rpc_latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut joiner: Option<Member> = None;
    for i in 0..OPS {
        if i == JOIN_AT {
            let m = spawn_member(&mut h, SiteId(3), gid, false, &deliveries);
            let pid = m.pid;
            h.rt.with_stack_job(
                SiteId(3),
                Box::new(move |stack, _now, out| {
                    stack
                        .join_group(gid, pid, None, out)
                        .expect("join submitted");
                }),
            );
            joiner = Some(m);
        }
        if i == CRASH_AT {
            h.rt.kill_site(SiteId(1));
            members.retain(|m| m.pid.site != SiteId(1));
        }
        if let Some(j) = joiner.take_if(|j| j.ready.load(Ordering::Relaxed)) {
            members.push(j);
        }
        let sender = members[(i as usize) % members.len()].pid;
        let now = h.rt.now().0;
        match i % 10 {
            0..=6 => {
                sent_at.push((i, ProtocolKind::Cbcast, now));
                h.client_send(
                    sender,
                    gid,
                    APPLY,
                    Message::with_body(i),
                    ProtocolKind::Cbcast,
                );
            }
            7 | 8 => {
                sent_at.push((i, ProtocolKind::Abcast, now));
                h.client_send(
                    sender,
                    gid,
                    APPLY,
                    Message::with_body(i),
                    ProtocolKind::Abcast,
                );
            }
            _ => {
                let done = rpc_latencies.clone();
                h.rt.with_stack_job(
                    sender.site,
                    Box::new(move |stack, sent, out| {
                        stack.issue_call(
                            sender,
                            vec![gid.into()],
                            ASK,
                            Message::with_body(i),
                            ProtocolKind::Cbcast,
                            ReplyWanted::One,
                            Some(Box::new(move |ctx, outcome| {
                                assert!(outcome.error.is_none(), "rpc {i}: {:?}", outcome.error);
                                done.lock().unwrap().push(ctx.now().0 - sent.0);
                            })),
                            out,
                        );
                    }),
                );
            }
        }
        h.settle(Duration::from_micros(200));
    }
    h.settle(Duration::from_secs(3));
    assert!(joiner.is_none(), "the joiner's transfer completed mid-run");

    // Send → last delivery, per multicast.
    let log = deliveries.lock().unwrap().clone();
    let mut cb = Vec::new();
    let mut ab = Vec::new();
    for (body, kind, sent) in &sent_at {
        let last = log
            .iter()
            .filter(|(b, _)| b == body)
            .map(|(_, at)| *at)
            .max()
            .unwrap_or_else(|| panic!("multicast {body} was never delivered"));
        match kind {
            ProtocolKind::Abcast => ab.push(last - sent),
            _ => cb.push(last - sent),
        }
    }
    let (cb, ab) = (summarise(cb), summarise(ab));
    let rpc = summarise(rpc_latencies.lock().unwrap().clone());
    let stats = h.rt.stats().delta_since(&baseline);
    let packets: Vec<(PacketKind, u64)> = stats.packets.iter().map(|(k, n)| (*k, *n)).collect();
    let totals = (
        stats.packets_sent,
        stats.inter_site_packets,
        stats.intra_site_packets,
        stats.fragments_sent,
        stats.bytes_sent,
        stats.deliveries,
        log.len(),
    );
    if std::env::var_os("VTIME_GOLDEN_PRINT").is_some() {
        println!(
            "packets = {packets:?}\ntotals = {totals:?}\ncb = {cb:?}\nab = {ab:?}\nrpc = {rpc:?}"
        );
    }

    use PacketKind::*;
    assert_eq!(
        packets,
        [
            (Data, 801),
            (Proposal, 140),
            (SetOrder, 160),
            (Flush, 30),
            (Reply, 100),
            (Heartbeat, 2766),
            (Stability, 90),
        ],
        "packets by kind"
    );
    // Bytes were 1 047 319 until issue 17 made stability gossip a site-level frame: each of
    // the 90 gossip packets here carries one entry, and under the size model a one-entry
    // frame is 67 B larger than the per-group frame it replaced — the top-level `view-seq`
    // (23 B) goes, and `entries` (18), its count `n` (16), the element `i0` (13) and inside it
    // `group` (20) and `view-seq` (23) come.  90 × 67 = 6 030; no other figure moved.
    // Then 1 053 349 → 1 072 215 when an ABCAST began to enter a site's gossiped set only
    // once decided there: an undecided ABCAST is a gap in its origin's run, and the ids
    // received beyond it are listed, +19 008 B over the same 90 gossip packets.  Flush
    // packets −142 B: an ack gains its `ab-clock` and loses `abp` on undecided copies.  The
    // larger gossip costs one CBCAST 1 µs below; the 19 ABCASTs that wait for the crashed
    // site are decided after the survivors' acks and so delivered at the commit, 167 µs later.
    // Then 1 072 215 → 1 071 690 when a commit stopped carrying `target-seq`, always its
    // view's own sequence number: 21 commit packets × 25 B for the field.
    // Then 1 071 690 → 985 336 when the site stacks stopped speaking a second vocabulary
    // and stopped stamping `@protocol`.  A heartbeat became an empty message, 4 B where the
    // one-field control message it replaced was 18: 2 766 × 14 = 38 724.  `@protocol` was
    // 22 B on every stamped payload the run put on the wire, in a data packet or held in a
    // flush packet: 2 165 × 22 = 47 630.  Packets by kind did not move.
    assert_eq!(
        totals,
        (4087, 4057, 30, 0, 985_336, 999, 899),
        "(packets, inter-site, intra-site, fragments, bytes, deliveries, logged)"
    );
    let lat = |n, p50, p99, max, sum| Latencies {
        n,
        p50,
        p99,
        max,
        sum,
    };
    assert_eq!(
        cb,
        lat(210, 51, 51, 64, 10_724),
        "CBCAST send → last delivery (µs)"
    );
    // The ABCAST sum was 960 313 until the same change: the flush packets that carry held
    // copies lost 22 B a copy, so the 19 ABCASTs delivered at the crash's commit arrive
    // 4 µs sooner each, 19 × 4 = 76.  n, p50, p99 and max are those of ABCASTs it does
    // not touch.
    assert_eq!(
        ab,
        lat(60, 153, 56_651, 56_651, 960_237),
        "ABCAST send → last delivery (µs)"
    );
    assert_eq!(rpc, lat(30, 6, 6, 6, 180), "RPC send → first reply (µs)");
}
