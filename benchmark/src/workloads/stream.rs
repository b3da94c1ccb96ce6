//! The threaded steady-state streams: `stream-cbcast-thr2`, `stream-abcast-thr2`,
//! `stream-bulk-thr2`.
//!
//! Two sites on two OS threads (the runner has two processors), one group with one member
//! per site, no injected faults or delay.  The driver — this thread — multicasts
//! asynchronously, senders alternating, and keeps a closed window of up to [`WINDOW`]
//! multicasts outstanding (sent but not yet delivered at every member).  It refills the
//! window in bursts: it sleeps until half of it has drained, then tops it up.  That keeps
//! it off the processors (a few hundred short wake-ups a second) and keeps both node
//! threads in work, which is the point: a node that runs dry parks, and a run in which
//! nodes park on every message measures the hypervisor's wake-up latency, not the stack.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration as WallDuration, Instant};

use vsync_core::{Address, GroupId, Message, ProcessId, ProtocolKind, ReplyWanted};
use vsync_msg::frame::wire_cache;
use vsync_proto::messages::wire_stats;
use vsync_rt::{IsisHarness, IsisRuntime};
use vsync_util::{DetRng, Duration, SiteId};

use crate::alloc;
use crate::common::{record_delivery, Bodies, LatencyBoard, MemberHandle, Outcome, RunArgs, ENTRY};
use crate::oracle::{check_stable_group, OpId, OpKind};
use crate::runtime::BenchThreaded;
use crate::stats;
use crate::trace::{self, Layer};
use crate::window::Window;

pub const SITES: usize = 2;
/// Most multicasts outstanding at once.
const WINDOW: u64 = 1024;
/// Every how many of a sender's multicasts a latency sample is taken.
const LATENCY_STRIDE: u32 = 8;
/// How long the driver naps between looks at the window.
const NAP: WallDuration = WallDuration::from_micros(500);

/// The shape of one stream workload.
#[derive(Clone, Copy)]
pub struct StreamShape {
    pub kind: OpKind,
    pub body_len: usize,
    /// Untimed multicasts that end set-up.
    pub warmup: u64,
    /// Timed multicasts per second of `--seconds`: the frozen size of the run.
    pub ops_per_s: u64,
}

impl StreamShape {
    fn protocol(&self) -> ProtocolKind {
        match self.kind {
            OpKind::Abcast => ProtocolKind::Abcast,
            _ => ProtocolKind::Cbcast,
        }
    }
}

/// One member's sending side: its multicast counter and the latency samples of its
/// multicasts.  Shared because in relay mode the member's own handler sends.
#[derive(Clone)]
struct SenderState {
    next: Arc<AtomicU32>,
    /// Runtime-clock send instants of the sampled multicasts (`k % LATENCY_STRIDE == 0`),
    /// in order.
    sent_at: Arc<Mutex<Vec<u64>>>,
    /// Latest delivery instant of each sampled multicast of this sender, at any member.
    board: Arc<LatencyBoard>,
}

impl SenderState {
    /// Builds this sender's next multicast, stamping a latency sample when it is one.
    /// Ids of one sender increase with its multicast number.
    fn next_op(&self, shape: &StreamShape, slot: usize, now_us: u64, bodies: &Bodies) -> Message {
        // One writer at a time (the driver, or in relay mode the node's own thread).
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        if k.is_multiple_of(LATENCY_STRIDE) {
            self.sent_at
                .lock()
                .expect("send log poisoned: a handler panicked")
                .push(now_us);
        }
        bodies.message(OpId::new(k * SITES as u32 + slot as u32, shape.kind, slot))
    }
}

struct Cluster {
    h: IsisHarness<BenchThreaded>,
    gid: GroupId,
    members: Vec<ProcessId>,
    handles: Vec<MemberHandle>,
    senders: Vec<SenderState>,
    /// When set, a member answers every multicast of the other member with one of its
    /// own (the one-token relay of `relay_hop_us`).
    relay: Arc<AtomicBool>,
    bodies: Bodies,
    shape: StreamShape,
    traced: bool,
    /// Driver-side cost of each injection, and the node-side cost of the `issue_call` it
    /// made (traced runs).
    invoke_ns: Vec<u64>,
    issue_ns: Arc<Mutex<Vec<u64>>>,
}

fn build(shape: StreamShape, seed: u64, traced: bool) -> Cluster {
    let mut h = IsisHarness::new(BenchThreaded::new(SITES, seed, traced));
    let handles: Vec<MemberHandle> = (0..SITES).map(|_| MemberHandle::new()).collect();
    let senders: Vec<SenderState> = (0..SITES)
        .map(|_| SenderState {
            next: Arc::new(AtomicU32::new(0)),
            sent_at: Arc::new(Mutex::new(Vec::new())),
            board: LatencyBoard::new(LATENCY_STRIDE),
        })
        .collect();
    let relay = Arc::new(AtomicBool::new(false));
    let gid = h.allocate_group_id();
    let members: Vec<ProcessId> = (0..SITES)
        .map(|slot| {
            let site = SiteId(slot as u16);
            let handle = handles[slot].clone();
            let senders = senders.clone();
            let relay = relay.clone();
            h.spawn(site, move |b| {
                let bodies = Bodies::new(&mut DetRng::new(seed ^ slot as u64), shape.body_len);
                b.on_entry(ENTRY, move |ctx, msg| {
                    if traced {
                        trace::begin(Layer::Handler, site);
                    }
                    let now_us = ctx.now().as_micros();
                    if let Some(id) = record_delivery(msg, &handle, traced) {
                        let from = id.sender();
                        let k = id.index() / SITES as u32;
                        if k.is_multiple_of(LATENCY_STRIDE) {
                            senders[from].board.delivered(k, now_us);
                        }
                        // Relaxed: the flag publishes nothing; a late read relays once more.
                        if from != slot && relay.load(Ordering::Relaxed) {
                            let payload = senders[slot].next_op(&shape, slot, now_us, &bodies);
                            ctx.send(gid, ENTRY, payload, shape.protocol());
                        }
                    }
                    if traced {
                        trace::end();
                    }
                });
            })
        })
        .collect();
    h.create_group_with_id("stream", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(20))
            .expect("stream set-up: join failed");
    }
    let all_see_all = h.wait_until(Duration::from_secs(20), |h| {
        (0..SITES).all(|s| {
            h.view_of(SiteId(s as u16), gid)
                .is_some_and(|v| v.len() == SITES)
        })
    });
    assert!(all_see_all, "stream set-up: full view never installed");
    Cluster {
        h,
        gid,
        members,
        handles,
        senders,
        relay,
        bodies: Bodies::new(&mut DetRng::new(seed), shape.body_len),
        shape,
        traced,
        invoke_ns: Vec::new(),
        issue_ns: Arc::new(Mutex::new(Vec::new())),
    }
}

impl Cluster {
    fn sent(&self) -> u64 {
        self.senders
            .iter()
            .map(|s| u64::from(s.next.load(Ordering::Relaxed)))
            .sum()
    }

    fn delivered(&self) -> u64 {
        self.handles.iter().map(MemberHandle::delivered).sum()
    }

    /// Multicasts every member has delivered.
    fn completed(&self) -> u64 {
        self.handles
            .iter()
            .map(MemberHandle::delivered)
            .min()
            .unwrap_or(0)
    }

    /// Injects one multicast at the member whose turn it is.
    fn send_one(&mut self) {
        let slot = self.sent() as usize % SITES;
        let now_us = self.h.rt.now().as_micros();
        let payload = self.senders[slot].next_op(&self.shape, slot, now_us, &self.bodies);
        let (caller, gid, protocol, traced) = (
            self.members[slot],
            self.gid,
            self.shape.protocol(),
            self.traced,
        );
        let issue_ns = traced.then(|| self.issue_ns.clone());
        let started = traced.then(Instant::now);
        self.h.rt.with_stack_job(
            caller.site,
            Box::new(move |stack, _now, out| {
                let t = Instant::now();
                if traced {
                    trace::begin(Layer::IssueCall, caller.site);
                }
                stack.issue_call(
                    caller,
                    vec![Address::Group(gid)],
                    ENTRY,
                    payload,
                    protocol,
                    ReplyWanted::None,
                    None,
                    out,
                );
                if traced {
                    trace::end();
                }
                if let Some(log) = issue_ns {
                    log.lock()
                        .expect("issue log poisoned")
                        .push(t.elapsed().as_nanos() as u64);
                }
            }),
        );
        if let Some(t) = started {
            self.invoke_ns.push(t.elapsed().as_nanos() as u64);
        }
    }

    /// Sends until `total` multicasts have been sent in all, keeping the window in work
    /// while `keep_going` holds (it is asked once per look at the window): naps until half
    /// of it has drained, then tops it up.
    fn pump(&mut self, total: u64, mut keep_going: impl FnMut(&Self) -> bool) {
        while self.sent() < total && keep_going(self) {
            let outstanding = self.sent() - self.completed();
            if outstanding <= WINDOW / 2 {
                for _ in outstanding..WINDOW.min(outstanding + total - self.sent()) {
                    self.send_one();
                }
            } else {
                std::thread::sleep(NAP);
            }
        }
    }

    /// Waits until every multicast sent so far was delivered everywhere.
    fn drain(&self) {
        let deadline = Instant::now() + WallDuration::from_secs(60);
        while self.delivered() < self.sent() * SITES as u64 && Instant::now() < deadline {
            std::thread::sleep(WallDuration::from_millis(1));
        }
    }

    /// Latencies (runtime-clock us, send -> delivered at the last member) of the sampled
    /// multicasts each sender sent from its `from[slot]`-th on.  Call after `drain`.
    fn latencies(&self, from: &[u32]) -> Vec<u64> {
        let mut all = Vec::new();
        for (state, first) in self.senders.iter().zip(from) {
            let sent_at = state.sent_at.lock().expect("send log poisoned");
            let first_sample = first.div_ceil(LATENCY_STRIDE) as usize;
            for (i, sent) in sent_at.iter().enumerate().skip(first_sample) {
                let k = i as u32 * LATENCY_STRIDE;
                all.push(state.board.last_delivery(k).saturating_sub(*sent));
            }
        }
        all
    }

    fn sent_per_sender(&self) -> Vec<u32> {
        self.senders
            .iter()
            .map(|s| s.next.load(Ordering::Relaxed))
            .collect()
    }
}

pub fn run(shape: &StreamShape, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let traced = args.traced;

    // Set-up, repeated: build the cluster, form the group, pass the warm-up stream.  Every
    // repetition but the last is torn down again; the last, built from exactly `--seed`,
    // carries the timed window.
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for rep in (0..args.setups as u64).rev() {
        let t = Instant::now();
        let mut c = build(*shape, args.seed.wrapping_add(rep), traced);
        c.pump(args.scaled(shape.warmup), |_| true);
        c.drain();
        setup_secs.push(t.elapsed().as_secs_f64());
        if rep > 0 {
            c.h.rt.shutdown();
        } else {
            kept = Some(c);
        }
    }
    let mut c = kept.expect("at least one set-up");
    out.set("setup_s", stats::median(&setup_secs));

    // Thread-local codec counters live on the node threads (traced runs only: reading
    // them costs a round trip through every node).
    let counters = |c: &Cluster| {
        let per_node = c.h.rt.on_each_node(|_stack| {
            (
                wire_cache::encodes(),
                wire_stats::frame_encodes(),
                wire_stats::frame_decodes(),
            )
        });
        per_node
            .into_iter()
            .fold((0, 0, 0), |a, n| (a.0 + n.0, a.1 + n.1, a.2 + n.2))
    };
    let codec0 = traced.then(|| {
        let _ = c.h.rt.take_traces();
        counters(&c)
    });
    c.invoke_ns.clear();
    c.issue_ns.lock().expect("issue log poisoned").clear();
    let stats0 = c.h.rt.stats();
    let alloc0 = alloc::snapshot();

    // The timed window.
    let first_timed = c.sent_per_sender();
    let (sent0, delivered0) = (c.sent(), c.delivered());
    let mut unstable_max = 0usize;
    let target = args.timed(shape.ops_per_s);
    let mut window = Window::open(args.cap_seconds);
    c.pump(sent0 + target, |c| {
        if window.look(c.delivered() - delivered0) && traced {
            let gid = c.gid;
            let seen = c.h.rt.on_each_node(move |stack| stack.unstable_count(gid));
            unstable_max = unstable_max.max(seen.into_iter().max().unwrap_or(0));
        }
        window.is_open()
    });
    c.drain();
    let timed_ops = c.sent() - sent0;
    let deliveries = c.delivered() - delivered0;
    let measured = window.close(deliveries);
    measured.record(&mut out);

    let latencies = c.latencies(&first_timed);
    out.notes.push(format!(
        "{}, {deliveries} deliveries; {} wall-clock latency samples (us: mean {:.0} p50 {} \
         p99 {})",
        measured.describe("multicasts", timed_ops, target),
        latencies.len(),
        stats::mean(&latencies),
        stats::segment_percentile(&latencies, 50.0),
        stats::segment_percentile(&latencies, 99.0),
    ));

    if let Some((enc0, fenc0, fdec0)) = codec0 {
        let delta = c.h.rt.stats().delta_since(&stats0);
        let (enc1, fenc1, fdec1) = counters(&c);
        let spans = c.h.rt.take_traces();
        let per_mcast = |n: u64| n as f64 / timed_ops.max(1) as f64;
        super::net_metrics(&mut out, &delta, timed_ops);
        out.set("msg.wire_encodes_per_mcast", per_mcast(enc1 - enc0));
        out.set("proto.frame_encodes_per_mcast", per_mcast(fenc1 - fenc0));
        out.set("proto.frame_decodes_per_mcast", per_mcast(fdec1 - fdec0));
        out.set("endpoint.unstable_max", unstable_max as f64);
        out.set("rt.invoke_ns", stats::median_u64(&c.invoke_ns));
        super::span_metrics(&mut out, &spans, measured.wall_s, SITES, timed_ops);
        out.set(
            "core.issue_call_ns",
            stats::median_u64(&c.issue_ns.lock().expect("issue log poisoned")),
        );
        out.set("rt.idle_share", 1.0 - out.get("core.busy_share"));
        let events = spans.count(Layer::OnPacket)
            + spans.count(Layer::OnTimer)
            + spans.count(Layer::IssueCall);
        out.notes.push(format!(
            "rt::threaded spends {:.0} ns of processor time per event outside the stack",
            super::runtime_ns_per_event(&spans, measured.cpu_s, events)
        ));
        super::alloc_metrics(&mut out, alloc0, deliveries);
        super::write_spans(&args.workload, &spans);
    }

    let sent = c.sent();
    let reports = c.h.rt.shutdown();
    if traced {
        // Whole-run events over whole-run deliveries: the warm-up has the same shape.
        let events: u64 = reports.iter().map(|r| r.events).sum();
        out.set(
            "rt.events_per_delivery",
            events as f64 / (sent * SITES as u64).max(1) as f64,
        );
    }
    let logs: Vec<Vec<OpId>> = c.handles.iter().map(MemberHandle::log).collect();
    out.verdict = check_stable_group(sent, &logs);
    out
}

/// Wall-clock time of one relay hop with nothing else going on: a single token relayed
/// from inside the handlers, so every multicast waits for the other node to be woken.
/// On two shared processors this figure is bimodal between runs (the wake-up path
/// sometimes costs one scheduler hop, sometimes two), so five short runs are made;
/// returns the median of their medians and their smallest and largest.
pub fn relay_hop_us(kind: OpKind, seed: u64) -> (f64, f64, f64) {
    let shape = StreamShape {
        kind,
        body_len: 16,
        warmup: 0,
        ops_per_s: 0,
    };
    let medians: Vec<f64> = (0..5)
        .map(|run| {
            let mut c = build(shape, seed.wrapping_add(run), false);
            c.relay.store(true, Ordering::Relaxed);
            c.send_one();
            std::thread::sleep(WallDuration::from_millis(150));
            c.relay.store(false, Ordering::Relaxed);
            c.drain();
            let latencies = c.latencies(&[0, 0]);
            c.h.rt.shutdown();
            stats::segment_percentile(&latencies, 50.0)
        })
        .collect();
    let (lo, hi) = medians
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), m| (lo.min(*m), hi.max(*m)));
    (stats::median(&medians), lo, hi)
}
