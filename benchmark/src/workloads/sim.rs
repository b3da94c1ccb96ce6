//! The paced simulator workloads: `paced-mix-sim8` and `multigroup-sim4`.
//!
//! Both run on `rt::sim` with `NetParams::modern` (50 us between sites, 5 us within one,
//! 1 us per packet) and are *open loops on the virtual clock*: operation `i` is injected at
//! virtual instant `i x interval` whatever the state of the system, so latencies on the
//! virtual clock include any wait a stall imposes.  The simulator runs as fast as the
//! processor lets it; throughput is deliveries per second of processor time.

use std::sync::{Arc, Mutex};

use vsync_core::process::ReplyCallback;
use vsync_core::{Address, GroupId, ProcessId, ProtocolKind, ReplyWanted, RpcOutcome};
use vsync_rt::{IsisHarness, IsisRuntime};
use vsync_util::{DetRng, Duration, SimTime, SiteId};

use crate::alloc;
use crate::common::{bind_recorder, Bodies, LatencyBoard, MemberHandle, Outcome, RunArgs, ENTRY};
use crate::oracle::{check_stable_group, OpId, OpKind, Verdict};
use crate::runtime::BenchSim;
use crate::stats;
use crate::trace::{self, Layer};
use crate::window::Window;

/// The shape of one paced workload.
#[derive(Clone, Copy)]
pub struct PacedShape {
    pub sites: usize,
    /// Groups; each has one member on every site.
    pub groups: usize,
    /// Virtual microseconds between consecutive operations (groups take turns).
    pub interval_us: u64,
    /// Percent of operations that are ABCAST and CBCAST RPC-all; the rest are CBCAST.
    pub abcast_pct: u64,
    pub rpc_pct: u64,
    pub body_len: usize,
    /// Untimed operations that end set-up.
    pub warmup_ops: u32,
    /// Timed operations per second of `--seconds`: the frozen size of the run.
    pub ops_per_s: u64,
}

/// One RPC's completion: operation index, virtual instant, whether every reply came.
type RpcLog = Arc<Mutex<Vec<(u32, u64, bool)>>>;

struct Cluster {
    h: IsisHarness<BenchSim>,
    shape: PacedShape,
    groups: Vec<GroupId>,
    /// `members[g][s]`: group g's member on site s.
    members: Vec<Vec<ProcessId>>,
    handles: Vec<Vec<MemberHandle>>,
    board: Arc<LatencyBoard>,
    rpcs: RpcLog,
    bodies: Bodies,
    rng: DetRng,
    traced: bool,
    /// Every operation injected so far, and its virtual send instant.
    ops: Vec<OpId>,
    sent_at: Vec<u64>,
    issued_per_group: Vec<u64>,
    rpcs_issued: u64,
    /// Virtual instant the next operation is due at.
    next_due: SimTime,
    /// Driver-side cost of each injection (on the simulator the call runs the whole
    /// `issue_call` synchronously).
    invoke_ns: Vec<u64>,
}

fn build(shape: PacedShape, seed: u64, traced: bool) -> Cluster {
    let mut rng = DetRng::new(seed);
    let mut h = IsisHarness::new(BenchSim::new(shape.sites, seed, traced));
    let board = LatencyBoard::new(1);
    let mut groups = Vec::new();
    let mut members = Vec::new();
    let mut handles = Vec::new();
    for g in 0..shape.groups {
        let group_handles: Vec<MemberHandle> =
            (0..shape.sites).map(|_| MemberHandle::new()).collect();
        let group_members: Vec<ProcessId> = group_handles
            .iter()
            .enumerate()
            .map(|(s, handle)| {
                let site = SiteId(s as u16);
                let (handle, board) = (handle.clone(), board.clone());
                h.spawn(site, move |b| bind_recorder(b, site, handle, board, traced))
            })
            .collect();
        let gid = h.create_group(&format!("g{g}"), group_members[0]);
        for m in &group_members[1..] {
            h.join_and_wait(gid, *m, None, Duration::from_secs(5))
                .expect("paced set-up: join failed");
        }
        groups.push(gid);
        members.push(group_members);
        handles.push(group_handles);
    }
    // Let the last view reach every member before traffic starts.
    let last = *groups.last().expect("at least one group");
    let sites = shape.sites;
    let settled = h.wait_until(Duration::from_secs(5), |h| {
        (0..sites).all(|s| {
            h.view_of(SiteId(s as u16), last)
                .is_some_and(|v| v.len() == sites)
        })
    });
    assert!(settled, "paced set-up: full view never installed");
    let next_due = h.rt.now();
    Cluster {
        bodies: Bodies::new(&mut rng, shape.body_len),
        h,
        shape,
        groups,
        members,
        handles,
        board,
        rpcs: Arc::new(Mutex::new(Vec::new())),
        rng,
        traced,
        ops: Vec::new(),
        sent_at: Vec::new(),
        issued_per_group: vec![0; shape.groups],
        rpcs_issued: 0,
        next_due,
        invoke_ns: Vec::new(),
    }
}

impl Cluster {
    /// Advances virtual time to the next operation's due instant and injects it.
    fn inject_next(&mut self) {
        let index = self.ops.len() as u32;
        let g = index as usize % self.shape.groups;
        let slot = self.rng.next_index(self.shape.sites);
        let roll = self.rng.next_below(100);
        let kind = if roll < self.shape.abcast_pct {
            OpKind::Abcast
        } else if roll < self.shape.abcast_pct + self.shape.rpc_pct {
            OpKind::Rpc
        } else {
            OpKind::Cbcast
        };
        let id = OpId::new(index, kind, slot);
        let payload = self.bodies.message(id);
        let (caller, gid, traced) = (self.members[g][slot], self.groups[g], self.traced);
        let protocol = match kind {
            OpKind::Abcast => ProtocolKind::Abcast,
            _ => ProtocolKind::Cbcast,
        };

        self.h.rt.cluster.run_until(self.next_due);
        // Stamp with the runtime's clock, not a handler's: the stack's own notion of now
        // is only refreshed by packets and timers and may lag inside an injected call.
        let now = self.h.rt.now();
        self.next_due = SimTime(self.next_due.0 + self.shape.interval_us);
        self.ops.push(id);
        self.sent_at.push(now.as_micros());
        self.issued_per_group[g] += 1;

        // The callback is not `Send`; build it on the node, from parts that are.
        let rpc = (kind == OpKind::Rpc).then(|| (self.rpcs.clone(), self.shape.sites));
        self.rpcs_issued += u64::from(rpc.is_some());
        let started = traced.then(std::time::Instant::now);
        self.h.rt.with_stack_job(
            caller.site,
            Box::new(move |stack, _now, out| {
                let (wanted, callback) = match rpc {
                    Some((rpcs, expect)) => {
                        let cb: ReplyCallback = Box::new(move |ctx, outcome: RpcOutcome| {
                            let ok = outcome.error.is_none() && outcome.replies.len() == expect;
                            rpcs.lock().expect("rpc log poisoned").push((
                                index,
                                ctx.now().as_micros(),
                                ok,
                            ));
                        });
                        (ReplyWanted::All, Some(cb))
                    }
                    None => (ReplyWanted::None, None),
                };
                if traced {
                    trace::begin(Layer::IssueCall, caller.site);
                    trace::set_op(index);
                }
                stack.issue_call(
                    caller,
                    vec![Address::Group(gid)],
                    ENTRY,
                    payload,
                    protocol,
                    wanted,
                    callback,
                    out,
                );
                if traced {
                    trace::end();
                }
            }),
        );
        if let Some(t) = started {
            self.invoke_ns.push(t.elapsed().as_nanos() as u64);
        }
    }

    fn delivered(&self) -> u64 {
        self.handles
            .iter()
            .flatten()
            .map(MemberHandle::delivered)
            .sum()
    }

    fn expected_deliveries(&self) -> u64 {
        self.ops.len() as u64 * self.shape.sites as u64
    }

    /// Runs virtual time forward until everything injected was delivered and answered.
    fn drain(&mut self) {
        for _ in 0..2_000 {
            let rpcs_done = self.rpcs.lock().expect("rpc log poisoned").len() as u64;
            if self.delivered() >= self.expected_deliveries() && rpcs_done >= self.rpcs_issued {
                break;
            }
            self.h.rt.advance(Duration::from_micros(100));
        }
        self.next_due = self.next_due.max(self.h.rt.now());
    }
}

pub fn run(shape: &PacedShape, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let traced = args.traced;

    // Set-up, repeated; every cluster is dropped before the next is built, and the one
    // that carries the timed window is built from exactly `--seed`.
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for rep in (0..args.setups as u64).rev() {
        drop(kept.take());
        let t = std::time::Instant::now();
        let mut c = build(*shape, args.seed.wrapping_add(rep), traced);
        for _ in 0..args.scaled(u64::from(shape.warmup_ops)) {
            c.inject_next();
        }
        c.drain();
        setup_secs.push(t.elapsed().as_secs_f64());
        kept = Some(c);
    }
    let mut c = kept.expect("at least one set-up");
    out.set("setup_s", stats::median(&setup_secs));

    if traced {
        let _ = trace::take();
    }
    let stats0 = c.h.rt.stats();
    let alloc0 = alloc::snapshot();
    c.invoke_ns.clear();
    let events0 = c.h.rt.cluster.events_processed();
    let codec0 = super::frame_counters();
    let first_timed = c.ops.len();
    let delivered0 = c.delivered();
    let mut unstable_max = 0usize;
    let target = args.timed(shape.ops_per_s);
    let mut window = Window::open(args.cap_seconds);
    let mut timed_ops = 0;
    while timed_ops < target && window.is_open() {
        c.inject_next();
        timed_ops += 1;
        if timed_ops.is_multiple_of(32) {
            window.look(c.delivered() - delivered0);
        }
        if traced && timed_ops.is_multiple_of(1_000) {
            let gid = c.groups[0];
            for s in 0..shape.sites {
                unstable_max = unstable_max.max(c.h.unstable_count(SiteId(s as u16), gid));
            }
        }
    }
    c.drain();
    let deliveries = c.delivered() - delivered0;
    let measured = window.close(deliveries);
    measured.record(&mut out);

    // Latency on the virtual clock, by primitive: send -> delivered at the last member
    // (RPC: -> the callback holding every reply).
    let mut by_kind: [Vec<u64>; 3] = Default::default();
    let rpc_done: std::collections::HashMap<u32, (u64, bool)> = c
        .rpcs
        .lock()
        .expect("rpc log poisoned")
        .iter()
        .map(|(i, t, ok)| (*i, (*t, *ok)))
        .collect();
    let mut rpc_failed = 0u64;
    for (i, id) in c.ops.iter().enumerate() {
        let done = match id.kind() {
            OpKind::Rpc => match rpc_done.get(&id.index()) {
                Some((t, true)) => *t,
                _ => {
                    rpc_failed += 1;
                    continue;
                }
            },
            _ => c.board.last_delivery(id.index()),
        };
        if i >= first_timed {
            by_kind[id.kind() as usize].push(done.saturating_sub(c.sent_at[i]));
        }
    }
    out.notes.push(format!(
        "{}, {deliveries} deliveries; virtual latency samples: {} cbcast, {} abcast, {} rpc",
        measured.describe("operations", timed_ops, target),
        by_kind[0].len(),
        by_kind[1].len(),
        by_kind[2].len(),
    ));
    for (kind, sample) in [OpKind::Cbcast, OpKind::Abcast, OpKind::Rpc]
        .into_iter()
        .zip(&by_kind)
    {
        super::vlatency_metrics(&mut out, kind, sample);
    }
    let delta = c.h.rt.stats().delta_since(&stats0);
    let events = c.h.rt.cluster.events_processed() - events0;
    super::net_metrics(&mut out, &delta, timed_ops);
    out.set(
        "rt.events_per_delivery",
        events as f64 / deliveries.max(1) as f64,
    );

    if traced {
        let spans = trace::take();
        super::frame_metrics(&mut out, codec0, timed_ops);
        super::span_metrics(&mut out, &spans, measured.wall_s, 1, timed_ops);
        out.set(
            "rt.sim_ns_per_event",
            super::runtime_ns_per_event(&spans, measured.cpu_s, events),
        );
        super::alloc_metrics(&mut out, alloc0, deliveries);
        out.set("rt.invoke_ns", stats::median_u64(&c.invoke_ns));
        out.set("endpoint.unstable_max", unstable_max as f64);
        super::write_spans(&args.workload, &spans);
    }

    let mut verdict = Verdict::default();
    for (g, handles) in c.handles.iter().enumerate() {
        let logs: Vec<Vec<OpId>> = handles.iter().map(MemberHandle::log).collect();
        verdict.add(&check_stable_group(c.issued_per_group[g], &logs));
    }
    verdict.attempted += c.rpcs_issued;
    verdict.rpc = rpc_failed;
    out.verdict = verdict;
    out
}
