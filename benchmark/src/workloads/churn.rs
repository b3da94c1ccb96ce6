//! `churn-sim5`: membership changes under load, on the simulator.
//!
//! Five sites, one group.  Sites 0–3 host the standing members; site 4 hosts a member
//! that comes and goes.  A background stream (80 % CBCAST, 20 % ABCAST, one operation per
//! 200 us of virtual time, seeded sender among the current members) runs throughout while
//! a seeded schedule repeats this cycle until the window closes:
//!
//! join (64 KiB state transfer) → leave → kill a site that does not host the coordinator
//! → recover it and rejoin → kill the coordinator's site → recover it and rejoin.
//!
//! Every step waits for its completion — the new view installed at every member, and for
//! joins the snapshot applied — before the next one starts, and the time that took on the
//! virtual clock is the step's latency.  A step that has not completed [`STEP_DEADLINE_US`]
//! after it started is a failed operation and ends the schedule.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vsync_core::{Address, GroupId, Message, ProcessId, ProtocolKind, ReplyWanted};
use vsync_msg::codec;
use vsync_net::PacketKind;
use vsync_rt::{IsisHarness, IsisRuntime, MemberTimeline, PartitionInvariants};
use vsync_tools::StateTransfer;
use vsync_util::{DetRng, Duration, SimTime, SiteId};

use crate::alloc;
use crate::common::{seeded_bytes, Bodies, LatencyBoard, Outcome, RunArgs, ENTRY};
use crate::oracle::{check_churn, Entry, History, OpId, OpKind};
use crate::runtime::BenchSim;
use crate::stats;
use crate::trace::{self, Layer};
use crate::window::Window;

const SITES: usize = 5;
/// The site whose member joins and leaves every cycle.
const FLOATER: usize = 4;
const INTERVAL_US: u64 = 200;
const ABCAST_PCT: u64 = 20;
const BODY_LEN: usize = 256;
const STATE_LEN: usize = 64 * 1024;
/// Virtual time between two steps of the schedule (plus a seeded jitter of the same size).
const GAP_US: u64 = 2_000;
/// Cycles that end set-up, untimed.
const WARMUP_CYCLES: u32 = 20;
/// Timed cycles per second of `--seconds`: the frozen size of the run.
const CYCLES_PER_S: u64 = 30;
/// Virtual time a step may take before it counts as stuck: about eighteen times what the
/// slowest kind of step (failure detection plus flush, 56 ms) takes.
const STEP_DEADLINE_US: u64 = 1_000_000;

/// What a member incarnation shares with the driver.  All of it is written on the
/// simulator's single thread; the atomics exist because handler state must be `Send`.
#[derive(Clone)]
struct Incarnation {
    pid: ProcessId,
    site: usize,
    history: Arc<Mutex<Vec<Entry>>>,
    /// Latest installed view: `seq << 16 | coordinator site << 8 | member-site bitmask`.
    view: Arc<AtomicU64>,
    /// Virtual instant of that install.
    view_at: Arc<AtomicU64>,
    /// True once the member holds the group state (founder, or snapshot applied).
    ready: Arc<AtomicBool>,
    applied_at: Arc<AtomicU64>,
    /// Encoded bytes of the snapshot blocks this member applied.
    xfer_bytes: Arc<AtomicU64>,
    delivered: Arc<AtomicU64>,
    /// Killed with its site (as opposed to still running or having left).
    killed: bool,
}

impl Incarnation {
    fn view_mask(&self) -> u64 {
        self.view.load(Ordering::Relaxed) & 0xff
    }
    fn coordinator_site(&self) -> usize {
        ((self.view.load(Ordering::Relaxed) >> 8) & 0xff) as usize
    }
}

fn spawn_member(
    h: &mut IsisHarness<BenchSim>,
    site: usize,
    gid: GroupId,
    founder: bool,
    board: &Arc<LatencyBoard>,
    traced: bool,
    seed: u64,
) -> Incarnation {
    let mut inc = Incarnation {
        pid: ProcessId::new(SiteId(site as u16), 0),
        site,
        history: Arc::new(Mutex::new(Vec::new())),
        view: Arc::new(AtomicU64::new(0)),
        view_at: Arc::new(AtomicU64::new(0)),
        ready: Arc::new(AtomicBool::new(founder)),
        applied_at: Arc::new(AtomicU64::new(0)),
        xfer_bytes: Arc::new(AtomicU64::new(0)),
        delivered: Arc::new(AtomicU64::new(0)),
        killed: false,
    };
    let shared = inc.clone();
    let board = board.clone();
    let site_id = SiteId(site as u16);
    inc.pid = h.spawn(site_id, move |b| {
        // The replicated state: a 64 KiB blob plus how many operations were applied.
        let blob = seeded_bytes(&mut DetRng::new(seed), STATE_LEN);
        let applied: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let (enc_applied, apply_applied, on_applied) =
            (applied.clone(), applied.clone(), applied.clone());
        let at_apply = shared.clone();
        let xfer = StateTransfer::new(
            gid,
            move || {
                vec![Message::new()
                    .with("blob", blob.clone())
                    .with("applied", *enc_applied.borrow())]
            },
            move |ctx, block| {
                if let Some(n) = block.get_u64("applied") {
                    *apply_applied.borrow_mut() = n;
                }
                at_apply
                    .xfer_bytes
                    .fetch_add(codec::wire_len(block) as u64, Ordering::Relaxed);
                at_apply
                    .applied_at
                    .store(ctx.now().as_micros(), Ordering::Relaxed);
                at_apply.ready.store(true, Ordering::Relaxed);
            },
        );
        xfer.attach(b);
        if founder {
            xfer.mark_ready();
        }
        let at_deliver = shared.clone();
        xfer.on_entry_buffered(b, ENTRY, move |ctx, msg| {
            if traced {
                trace::begin(Layer::Handler, site_id);
            }
            if let Some(raw) = msg.get_u64("op") {
                let id = OpId(raw as u32);
                if traced {
                    trace::set_op(id.index());
                }
                at_deliver
                    .history
                    .lock()
                    .expect("history poisoned")
                    .push(Entry::Deliver(id));
                board.delivered(id.index(), ctx.now().as_micros());
                *on_applied.borrow_mut() += 1;
                at_deliver.delivered.fetch_add(1, Ordering::Relaxed);
            }
            if traced {
                trace::end();
            }
        });
        let at_view = shared.clone();
        b.on_view_change(gid, move |ctx, ev| {
            let members: Vec<usize> = ev.view.members.iter().map(|p| p.site.index()).collect();
            let mask = members.iter().fold(0u64, |m, s| m | 1 << s);
            let coordinator = members.first().copied().unwrap_or(0) as u64;
            at_view.view.store(
                ev.view.seq() << 16 | coordinator << 8 | mask,
                Ordering::Relaxed,
            );
            at_view
                .view_at
                .store(ctx.now().as_micros(), Ordering::Relaxed);
            at_view
                .history
                .lock()
                .expect("history poisoned")
                .push(Entry::View {
                    seq: ev.view.seq(),
                    members,
                });
        });
    });
    inc
}

/// One step of the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Join,
    Leave,
    KillOther,
    RejoinOther,
    KillCoordinator,
    RejoinCoordinator,
}

const CYCLE: [Step; 6] = [
    Step::Join,
    Step::Leave,
    Step::KillOther,
    Step::RejoinOther,
    Step::KillCoordinator,
    Step::RejoinCoordinator,
];

/// A step in progress.
struct Pending {
    step: Step,
    site: usize,
    started_us: u64,
    packets0: u64,
}

/// Per-step measurements of the timed window.
#[derive(Default)]
struct StepLog {
    join_us: Vec<u64>,
    crash_us: Vec<u64>,
    transfer_us: Vec<u64>,
    transfer_bytes: Vec<u64>,
    flush_packets: Vec<u64>,
    unstable_at_start: Vec<u64>,
}

struct Churn {
    h: IsisHarness<BenchSim>,
    gid: GroupId,
    board: Arc<LatencyBoard>,
    traced: bool,
    seed: u64,
    rng: DetRng,
    bodies: Bodies,
    /// Every incarnation ever spawned; `live[site]` indexes the current member there.
    incs: Vec<Incarnation>,
    live: [Option<usize>; SITES],
    ops: Vec<OpId>,
    sent_at: Vec<u64>,
    /// Index into `incs` of each operation's sender.
    sender_inc: Vec<u32>,
    /// Driver-side cost of each injection (traced runs).
    invoke_ns: Vec<u64>,
    next_due: SimTime,
    step_index: usize,
    pending: Option<Pending>,
    next_step_at: u64,
    last_killed: usize,
    steps_started: u64,
    steps_done: u64,
    step_deadline_us: u64,
    /// The step that missed its deadline, if one did; nothing is scheduled after it.
    stuck: Option<Step>,
    log: StepLog,
}

impl Churn {
    fn build(seed: u64, traced: bool) -> Churn {
        let mut h = IsisHarness::new(BenchSim::new(SITES, seed, traced));
        let board = LatencyBoard::new(1);
        let gid = h.allocate_group_id();
        let mut incs = Vec::new();
        let mut live = [None; SITES];
        for (site, slot) in live.iter_mut().enumerate().take(FLOATER) {
            let inc = spawn_member(&mut h, site, gid, site == 0, &board, traced, seed);
            if site == 0 {
                h.create_group_with_id("churn", gid, inc.pid);
            } else {
                h.join_and_wait(gid, inc.pid, None, Duration::from_secs(5))
                    .expect("churn set-up: join failed");
            }
            *slot = Some(incs.len());
            incs.push(inc);
        }
        let mut rng = DetRng::new(seed);
        let mut c = Churn {
            bodies: Bodies::new(&mut rng, BODY_LEN),
            next_due: h.rt.now(),
            h,
            gid,
            board,
            traced,
            seed,
            rng,
            incs,
            live,
            ops: Vec::new(),
            sent_at: Vec::new(),
            sender_inc: Vec::new(),
            invoke_ns: Vec::new(),
            step_index: 0,
            pending: None,
            next_step_at: 0,
            last_killed: 0,
            steps_started: 0,
            steps_done: 0,
            step_deadline_us: STEP_DEADLINE_US,
            stuck: None,
            log: StepLog::default(),
        };
        let settled = c.run_until(50_000, |c| c.members_agree(0b1111));
        assert!(
            settled,
            "churn set-up: founding view never installed everywhere"
        );
        c
    }

    fn live_members(&self) -> impl Iterator<Item = &Incarnation> {
        self.live.iter().flatten().map(|i| &self.incs[*i])
    }

    /// True when every live member's latest view has exactly the member sites in `mask`.
    fn members_agree(&self, mask: u64) -> bool {
        self.live_members().all(|m| m.view_mask() == mask)
    }

    fn current_mask(&self) -> u64 {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_some())
            .fold(0, |m, (s, _)| m | 1 << s)
    }

    /// Injects one background operation if it is due, then advances virtual time to the
    /// next due instant.
    fn tick(&mut self) {
        // A member that is about to leave stops sending first; a joiner starts once it
        // holds the state and sees itself in the view.
        let leaving = self
            .pending
            .as_ref()
            .filter(|p| p.step == Step::Leave)
            .map(|p| p.site);
        let mut senders = [0usize; SITES];
        let mut eligible = 0;
        for i in self.live.iter().flatten() {
            let m = &self.incs[*i];
            if m.ready.load(Ordering::Relaxed)
                && m.view_mask() & (1 << m.site) != 0
                && Some(m.site) != leaving
            {
                senders[eligible] = *i;
                eligible += 1;
            }
        }
        let senders = &senders[..eligible];
        if !senders.is_empty() {
            let inc_index = senders[self.rng.next_index(senders.len())];
            let kind = if self.rng.next_below(100) < ABCAST_PCT {
                OpKind::Abcast
            } else {
                OpKind::Cbcast
            };
            let (caller, site) = (self.incs[inc_index].pid, self.incs[inc_index].site);
            let id = OpId::new(self.ops.len() as u32, kind, site);
            let payload = self.bodies.message(id);
            let protocol = match kind {
                OpKind::Abcast => ProtocolKind::Abcast,
                _ => ProtocolKind::Cbcast,
            };
            let (gid, traced) = (self.gid, self.traced);
            self.ops.push(id);
            self.sent_at.push(self.h.rt.now().as_micros());
            self.sender_inc.push(inc_index as u32);
            let started = traced.then(std::time::Instant::now);
            self.h.rt.with_stack_job(
                caller.site,
                Box::new(move |stack, _now, out| {
                    if traced {
                        trace::begin(Layer::IssueCall, caller.site);
                        trace::set_op(id.index());
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
                }),
            );
            if let Some(t) = started {
                self.invoke_ns.push(t.elapsed().as_nanos() as u64);
            }
        }
        self.next_due = SimTime(self.next_due.0 + INTERVAL_US);
        self.h.rt.cluster.run_until(self.next_due);
    }

    /// Ticks until `done` holds or `max_us` of virtual time passed.
    fn run_until(&mut self, max_us: u64, done: impl Fn(&Churn) -> bool) -> bool {
        let deadline = self.h.rt.now().as_micros() + max_us;
        while !done(self) {
            if self.h.rt.now().as_micros() >= deadline {
                return false;
            }
            self.tick();
        }
        true
    }

    fn flush_packets(&self) -> u64 {
        self.h
            .rt
            .stats()
            .packets
            .get(&PacketKind::Flush)
            .copied()
            .unwrap_or(0)
    }

    fn join(&mut self, site: usize) {
        let inc = spawn_member(
            &mut self.h,
            site,
            self.gid,
            false,
            &self.board,
            self.traced,
            self.seed,
        );
        let (gid, joiner) = (self.gid, inc.pid);
        let contacts: Vec<SiteId> = (0..SITES)
            .filter(|s| self.live[*s].is_some())
            .map(|s| SiteId(s as u16))
            .collect();
        self.h.rt.with_stack_job(
            joiner.site,
            Box::new(move |stack, _now, out| {
                // A recovered site starts with an empty namespace cache.
                stack.register_group("churn", gid, contacts);
                stack
                    .join_group(gid, joiner, None, out)
                    .expect("churn: join refused");
            }),
        );
        self.live[site] = Some(self.incs.len());
        self.incs.push(inc);
    }

    /// Starts the next step of the schedule.
    fn start_step(&mut self) {
        let step = CYCLE[self.step_index % CYCLE.len()];
        self.step_index += 1;
        self.steps_started += 1;
        let coordinator = self
            .live_members()
            .next()
            .map_or(0, Incarnation::coordinator_site);
        let site = match step {
            Step::Join | Step::Leave => FLOATER,
            Step::KillOther => {
                let others: Vec<usize> = (0..FLOATER)
                    .filter(|s| *s != coordinator && self.live[*s].is_some())
                    .collect();
                others[self.rng.next_index(others.len())]
            }
            Step::KillCoordinator => coordinator,
            Step::RejoinOther | Step::RejoinCoordinator => self.last_killed,
        };
        let unstable = (0..SITES)
            .filter(|s| self.live[*s].is_some())
            .map(|s| self.h.unstable_count(SiteId(s as u16), self.gid) as u64)
            .max()
            .unwrap_or(0);
        self.log.unstable_at_start.push(unstable);
        let pending = Pending {
            step,
            site,
            started_us: self.h.rt.now().as_micros(),
            packets0: self.flush_packets(),
        };
        match step {
            Step::Join => self.join(site),
            Step::RejoinOther | Step::RejoinCoordinator => {
                self.h.rt.recover_site(SiteId(site as u16));
                self.join(site);
            }
            Step::Leave => {
                let (gid, member) = (self.gid, self.incs[self.live[site].expect("floater")].pid);
                self.h.rt.with_stack_job(
                    member.site,
                    Box::new(move |stack, _now, out| {
                        stack
                            .leave_group(gid, member, out)
                            .expect("churn: leave refused");
                    }),
                );
            }
            Step::KillOther | Step::KillCoordinator => {
                self.h.rt.kill_site(SiteId(site as u16));
                let i = self.live[site].take().expect("killed site hosted a member");
                self.incs[i].killed = true;
                self.last_killed = site;
            }
        }
        self.pending = Some(pending);
    }

    /// Completes the step in progress if its view is installed everywhere (and, for
    /// joins, the snapshot applied).
    fn poll_step(&mut self) {
        let Some(p) = &self.pending else { return };
        let (step, site, started_us) = (p.step, p.site, p.started_us);
        let joining = matches!(
            step,
            Step::Join | Step::RejoinOther | Step::RejoinCoordinator
        );
        let done = match step {
            Step::Leave => {
                let mask = self.current_mask() & !(1 << site);
                self.live_members()
                    .filter(|m| m.site != site)
                    .all(|m| m.view_mask() == mask)
            }
            _ => {
                let joiner_ready = !joining
                    || self.live[site].is_some_and(|i| self.incs[i].ready.load(Ordering::Relaxed));
                joiner_ready && self.members_agree(self.current_mask())
            }
        };
        if !done {
            if self.h.rt.now().as_micros() >= started_us + self.step_deadline_us {
                self.stuck = Some(step);
                self.pending = None;
            }
            return;
        }
        let p = self.pending.take().expect("checked above");
        let installed = self
            .live_members()
            .filter(|m| !(p.step == Step::Leave && m.site == site))
            .map(|m| m.view_at.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        self.log
            .flush_packets
            .push(self.flush_packets() - p.packets0);
        if joining {
            let j = &self.incs[self.live[site].expect("joiner is live")];
            let applied = j.applied_at.load(Ordering::Relaxed);
            self.log
                .join_us
                .push(installed.max(applied).saturating_sub(p.started_us));
            self.log
                .transfer_us
                .push(applied.saturating_sub(j.view_at.load(Ordering::Relaxed)));
            self.log
                .transfer_bytes
                .push(j.xfer_bytes.load(Ordering::Relaxed));
        } else if p.step == Step::Leave {
            // The departed process no longer belongs to the group; retire it so the
            // site's process table does not grow by one per cycle.
            let i = self.live[site].take().expect("floater was live");
            let gone = self.incs[i].pid;
            self.h.rt.with_stack_job(
                gone.site,
                Box::new(move |stack, _now, out| stack.crash_local_process(gone, out)),
            );
        } else {
            self.log
                .crash_us
                .push(installed.saturating_sub(p.started_us));
        }
        self.steps_done += 1;
        let gap = GAP_US + self.rng.next_below(GAP_US);
        self.next_step_at = self.h.rt.now().as_micros() + gap;
    }

    /// One tick of load plus whatever the schedule has to do at this instant.
    fn advance(&mut self, start_new_steps: bool) {
        self.tick();
        if self.pending.is_some() {
            self.poll_step();
        } else if start_new_steps
            && self.stuck.is_none()
            && self.h.rt.now().as_micros() >= self.next_step_at
        {
            self.start_step();
        }
    }

    /// Runs load and schedule until `steps` steps have completed.  False if a step got
    /// stuck or `keep_going` said stop first.
    fn run_steps(&mut self, steps: u64, mut keep_going: impl FnMut(&Churn) -> bool) -> bool {
        while self.steps_done < steps {
            if self.stuck.is_some() || !keep_going(self) {
                return false;
            }
            self.advance(true);
        }
        true
    }

    fn delivered(&self) -> u64 {
        self.incs
            .iter()
            .map(|i| i.delivered.load(Ordering::Relaxed))
            .sum()
    }

    /// Finishes the step in progress (or sees it miss its deadline), then lets in-flight
    /// traffic land.
    fn drain(&mut self) {
        while self.pending.is_some() {
            self.advance(false);
        }
        let quiet_until = self.h.rt.now().as_micros() + 5_000;
        while self.h.rt.now().as_micros() < quiet_until {
            self.h.rt.advance(Duration::from_micros(500));
        }
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    run_with_deadline(args, STEP_DEADLINE_US)
}

fn run_with_deadline(args: &RunArgs, step_deadline_us: u64) -> Outcome {
    let mut out = Outcome::default();
    let traced = args.traced;

    // Set-up, repeated; every cluster is dropped before the next is built, and the one
    // that carries the timed window is built from exactly `--seed`.
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for rep in (0..args.setups as u64).rev() {
        drop(kept.take());
        let t = std::time::Instant::now();
        let mut c = Churn::build(args.seed.wrapping_add(rep), traced);
        c.step_deadline_us = step_deadline_us;
        c.run_steps(
            args.scaled(u64::from(WARMUP_CYCLES)) * CYCLE.len() as u64,
            |_| true,
        );
        setup_secs.push(t.elapsed().as_secs_f64());
        kept = Some(c);
    }
    let mut c = kept.expect("at least one set-up");
    out.set("setup_s", stats::median(&setup_secs));

    if traced {
        let _ = trace::take();
    }
    c.log = StepLog::default();
    c.invoke_ns.clear();
    let stats0 = c.h.rt.stats();
    let alloc0 = alloc::snapshot();
    let codec0 = super::frame_counters();
    let events0 = c.h.rt.cluster.events_processed();
    let first_timed = c.ops.len();
    let delivered0 = c.delivered();
    let (started0, done0) = (c.steps_started, c.steps_done);
    let target = args.timed(CYCLES_PER_S) * CYCLE.len() as u64;
    let mut window = Window::open(args.cap_seconds);
    let mut ticks = 0u32;
    c.run_steps(done0 + target, |c| {
        ticks += 1;
        if ticks.is_multiple_of(16) {
            window.look(c.delivered() - delivered0);
        }
        window.is_open()
    });
    c.drain();
    let timed_ops = (c.ops.len() - first_timed) as u64;
    let deliveries = c.delivered() - delivered0;
    let views = c.steps_done - done0;
    let measured = window.close(deliveries);
    measured.record(&mut out);

    let mut by_kind: [Vec<u64>; 2] = Default::default();
    for (i, id) in c.ops.iter().enumerate().skip(first_timed) {
        let done = c.board.last_delivery(id.index());
        if done > 0 {
            by_kind[id.kind() as usize].push(done.saturating_sub(c.sent_at[i]));
        }
    }
    out.notes.push(format!(
        "{}, {timed_ops} operations, {deliveries} deliveries; virtual latency samples: {} \
         cbcast, {} abcast, {} joins, {} crashes",
        measured.describe("view changes", views, target),
        by_kind[0].len(),
        by_kind[1].len(),
        c.log.join_us.len(),
        c.log.crash_us.len(),
    ));
    let ms = |sample: &[u64]| stats::segment_percentile(sample, 50.0) / 1000.0;
    super::vlatency_metrics(&mut out, OpKind::Cbcast, &by_kind[0]);
    super::vlatency_metrics(&mut out, OpKind::Abcast, &by_kind[1]);
    out.set("join_vms_p50", ms(&c.log.join_us));
    out.set("crash_view_vms_p50", ms(&c.log.crash_us));
    out.set("tools.transfer_vms_p50", ms(&c.log.transfer_us));
    out.set(
        "tools.transfer_bytes_per_join",
        stats::median_u64(&c.log.transfer_bytes),
    );
    out.set("flush.packets_per_view", stats::mean(&c.log.flush_packets));
    out.set(
        "flush.redelivered_per_view",
        stats::mean(&c.log.unstable_at_start),
    );
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
        out.set(
            "endpoint.unstable_max",
            c.log.unstable_at_start.iter().copied().max().unwrap_or(0) as f64,
        );
        super::write_spans(&args.workload, &spans);
    }

    // The oracle: every incarnation's view-tagged history.
    let histories: Vec<History> = c
        .incs
        .iter()
        .enumerate()
        .map(|(i, inc)| History {
            entries: inc.history.lock().expect("history poisoned").clone(),
            alive_at_end: c.live[inc.site] == Some(i),
        })
        .collect();
    // Only a message whose sender was killed may vanish.
    let must_deliver: Vec<OpId> = c
        .ops
        .iter()
        .zip(&c.sender_inc)
        .filter(|(_, inc)| !c.incs[**inc as usize].killed)
        .map(|(id, _)| *id)
        .collect();
    let mut verdict = check_churn(&histories, &must_deliver);
    // Every membership step of the timed window is an operation too; one that missed its
    // deadline failed.
    verdict.attempted += c.steps_started - started0;
    if let Some(step) = c.stuck {
        out.notes.push(format!(
            "{step:?} did not complete within {} virtual ms",
            c.step_deadline_us / 1000
        ));
        verdict.view += 1;
    }
    // The repository's own membership checker, over the same view logs.
    let mut invariants = PartitionInvariants::new();
    for (i, h) in histories.iter().enumerate() {
        let mut timeline = MemberTimeline::new(format!("{}#{i}", c.incs[i].pid));
        for e in &h.entries {
            if let Entry::View { seq, members } = e {
                timeline.install(
                    *seq,
                    members
                        .iter()
                        .map(|s| ProcessId::new(SiteId(*s as u16), 0))
                        .collect(),
                );
            }
        }
        invariants.record(timeline);
    }
    if let Err(violation) = invariants.check_no_split_brain() {
        out.notes.push(format!("invariant violated: {violation}"));
        verdict.view += 1;
    }
    out.verdict = verdict;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seed: u64) -> RunArgs {
        RunArgs {
            workload: "churn-sim5".into(),
            seed,
            seconds: 0.1,
            cap_seconds: 60.0,
            traced: false,
            setups: 1,
            scale: 0.05,
        }
    }

    #[test]
    fn every_step_of_a_healthy_run_completes_and_counts_as_attempted() {
        let out = run(&args(5));
        assert_eq!(out.verdict.failed(), 0, "{}", out.verdict.describe());
        assert!(out.get("join_vms_p50") > 0.0 && out.get("crash_view_vms_p50") > 0.0);
    }

    #[test]
    fn a_step_that_misses_its_deadline_is_a_failed_operation() {
        let mut c = Churn::build(5, false);
        // Failure detection alone takes tens of virtual milliseconds: with a deadline of
        // one, the first kill of the cycle cannot make it.
        c.step_deadline_us = 1_000;
        assert!(!c.run_steps(CYCLE.len() as u64, |_| true));
        assert_eq!(c.stuck, Some(Step::KillOther));
        assert!(c.pending.is_none());
        // Nothing is scheduled after a stuck step, and draining returns.
        let started = c.steps_started;
        c.drain();
        for _ in 0..100 {
            c.advance(true);
        }
        assert_eq!(c.steps_started, started);
    }

    #[test]
    fn a_stuck_step_fails_the_run() {
        let out = run_with_deadline(&args(5), 1_000);
        assert_eq!(out.verdict.view, 1, "{}", out.verdict.describe());
        assert!(out.verdict.failed() > 0 && out.verdict.attempted > 0);
        assert!(
            out.notes.iter().any(|n| n.contains("did not complete")),
            "{:?}",
            out.notes
        );
    }
}
