//! Backend-generic construction and driving of ISIS protocol stacks.
//!
//! [`IsisRuntime`] is the small surface a test, example or benchmark needs to run a cluster
//! of [`SiteStack`]s on *any* backend: schedule a closure against a site's stack, let time
//! pass, and crash/recover sites.  [`SimRuntime`] implements it over the deterministic
//! [`SimCluster`]; [`ThreadedRuntime`] over real OS threads.  [`IsisHarness`] then builds
//! the familiar toolkit operations (spawn, `pg_create`/`pg_join`, multicast, group RPC) on
//! top of that surface once, so the same scenario — including the cross-backend conformance
//! suite — runs unchanged on both.  It is the one way tests, examples, the applications and
//! the paper reproduction drive a cluster.
//!
//! The threaded implementation answers queries by round-tripping a closure through the
//! node's event loop and an `mpsc` reply channel; the simulated one executes it
//! synchronously at the current virtual time.  Everything shipped into a stack job must be
//! `Send`: plain data, [`Message`]s (whose byte values are `Arc`-backed) and channel
//! senders all qualify, while `Rc`-based protocol state cannot leave its node even by
//! accident.  On the simulator, where caller and node share one thread, the two methods of
//! `IsisHarness<SimRuntime>` — [`IsisHarness::with_stack`] and [`IsisHarness::spawn_local`] —
//! lift that bound, so handlers may share `Rc` state the caller reads (as the tools do).

use std::sync::mpsc;

use vsync_core::process::ReplyCallback;
use vsync_core::{
    Address, Message, ProcessBuilder, ProtectionPolicy, ProtocolKind, ReplyWanted, RpcOutcome,
    SiteStack, StackConfig, ToolCtx, View,
};
use vsync_net::{NetStats, Outbox, SharedStats};
use vsync_proto::ProtoConfig;
use vsync_util::{
    Duration, EntryId, FaultPlan, GroupId, LatencyProfile, NetParams, ProcessId, Rank, Result,
    SimTime, SiteId, VsError,
};

use crate::faults::{LinkFaults, NemesisEvent, NemesisSchedule};
use crate::sim::SimCluster;
use crate::threaded::{NodeReport, ThreadedCluster};
use crate::transport::invoke_fn;

/// A closure scheduled against one site's protocol stack.
pub type StackJob = Box<dyn FnOnce(&mut SiteStack, SimTime, &mut Outbox) + Send>;

/// The backend surface the harness drives: stack access, time, and failure injection.
pub trait IsisRuntime {
    /// Number of sites in the cluster.
    fn num_sites(&self) -> usize;

    /// The backend's current time (virtual or wall-clock microseconds since start).
    fn now(&self) -> SimTime;

    /// Schedules `job` to run with exclusive access to the site's stack.  Simulated
    /// backends run it synchronously; threaded backends enqueue it into the node's event
    /// loop.  Returns `false` (dropping the job) if the site is down.
    fn with_stack_job(&mut self, site: SiteId, job: StackJob) -> bool;

    /// Lets roughly `d` of backend time pass (runs the event loop / sleeps).
    fn advance(&mut self, d: Duration);

    /// Crashes a site (fail-stop).
    fn kill_site(&mut self, site: SiteId);

    /// Recovers a crashed site with a fresh, empty protocols process.
    fn recover_site(&mut self, site: SiteId);

    /// True if the site is currently operational.
    fn site_is_up(&self, site: SiteId) -> bool;

    /// Installs a link table of cuts and delay spikes (`LinkFaults::default()` heals every link).
    fn set_link_faults(&mut self, links: LinkFaults);
}

// ---------------------------------------------------------------------------------------
// Simulated backend
// ---------------------------------------------------------------------------------------

/// [`IsisRuntime`] over the deterministic [`SimCluster`].
pub struct SimRuntime {
    cluster: SimCluster,
    all_sites: Vec<SiteId>,
    stack_cfg: StackConfig,
    proto_cfg: ProtoConfig,
}

impl SimRuntime {
    /// Builds a simulated cluster with one protocols process per site.
    pub fn new(
        num_sites: usize,
        params: NetParams,
        stack_cfg: StackConfig,
        proto_cfg: ProtoConfig,
        seed: u64,
    ) -> Self {
        let cluster = SimCluster::new(num_sites, params, seed);
        let all_sites: Vec<SiteId> = (0..num_sites as u16).map(SiteId).collect();
        let mut rt = SimRuntime {
            cluster,
            all_sites: all_sites.clone(),
            stack_cfg,
            proto_cfg,
        };
        for s in all_sites {
            rt.install_stack(s);
        }
        rt
    }

    /// Builds a simulated cluster for a named latency profile: the profile's network
    /// parameters, stack timers derived from them, and the paper's protocol timers under
    /// `Paper1987` ([`ProtoConfig::fast`] otherwise).
    pub fn for_profile(num_sites: usize, profile: LatencyProfile, seed: u64) -> Self {
        let params = NetParams::for_profile(profile);
        let proto_cfg = match profile {
            LatencyProfile::Paper1987 => ProtoConfig::default(),
            _ => ProtoConfig::fast(),
        };
        SimRuntime::new(
            num_sites,
            params,
            StackConfig::from_params(&params),
            proto_cfg,
            seed,
        )
    }

    fn install_stack(&mut self, site: SiteId) {
        let stack = SiteStack::new(
            site,
            self.all_sites.clone(),
            self.stack_cfg,
            self.proto_cfg,
            self.cluster.stats(),
        );
        self.cluster.install(site, Box::new(stack));
    }

    /// Cluster-wide statistics snapshot.
    pub fn stats(&self) -> NetStats {
        self.cluster.stats().snapshot()
    }

    /// Kills a site *and* drops its in-flight outbound packets (see
    /// `SimCluster::kill_dropping_outbound`) — the kill the crash-instant fuzz tests use,
    /// so a crash can truncate a multi-packet exchange such as a state transfer.
    pub fn kill_site_dropping_outbound(&mut self, site: SiteId) {
        self.cluster.kill_dropping_outbound(site);
    }
}

impl IsisRuntime for SimRuntime {
    fn num_sites(&self) -> usize {
        self.cluster.num_sites()
    }

    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn with_stack_job(&mut self, site: SiteId, job: StackJob) -> bool {
        self.cluster
            .with_node::<SiteStack, _>(site, |stack, now, out| job(stack, now, out))
            .is_some()
    }

    fn advance(&mut self, d: Duration) {
        self.cluster.run_for(d);
    }

    fn kill_site(&mut self, site: SiteId) {
        self.cluster.kill(site);
    }

    fn recover_site(&mut self, site: SiteId) {
        self.install_stack(site);
    }

    fn site_is_up(&self, site: SiteId) -> bool {
        self.cluster.site_is_up(site)
    }

    fn set_link_faults(&mut self, links: LinkFaults) {
        self.cluster.set_link_faults(links);
    }
}

// ---------------------------------------------------------------------------------------
// Threaded backend
// ---------------------------------------------------------------------------------------

/// [`IsisRuntime`] over real OS threads ([`ThreadedCluster`]).
pub struct ThreadedRuntime {
    cluster: ThreadedCluster,
    all_sites: Vec<SiteId>,
    stack_cfg: StackConfig,
    proto_cfg: ProtoConfig,
}

impl ThreadedRuntime {
    /// Builds a threaded cluster with one protocols process per site, each on its own OS
    /// thread with its own statistics counters (no cross-thread counter contention).
    pub fn new(
        num_sites: usize,
        stack_cfg: StackConfig,
        proto_cfg: ProtoConfig,
        faults: FaultPlan,
        seed: u64,
    ) -> Self {
        let mut rt = ThreadedRuntime {
            cluster: ThreadedCluster::new(num_sites, faults, seed),
            all_sites: (0..num_sites as u16).map(SiteId).collect(),
            stack_cfg,
            proto_cfg,
        };
        for s in rt.all_sites.clone() {
            rt.spawn_stack(s);
        }
        rt
    }

    /// Stack timers suited to in-process threads: fast enough that lifecycle tests finish
    /// in tens of milliseconds of wall-clock, with a failure timeout generous enough that
    /// scheduler stalls on a loaded machine do not read as site crashes.
    pub fn fast_local_config() -> StackConfig {
        StackConfig {
            tick_interval: Duration::from_millis(2),
            heartbeat_interval: Duration::from_millis(10),
            failure_timeout: Duration::from_millis(300),
            rpc_timeout: Duration::from_millis(1500),
            reform_timeout: Duration::from_millis(1200),
        }
    }

    fn spawn_stack(&mut self, site: SiteId) {
        let all = self.all_sites.clone();
        let stack_cfg = self.stack_cfg;
        let proto_cfg = self.proto_cfg;
        self.cluster.spawn_site(site, move |_now| {
            Box::new(SiteStack::new(
                site,
                all,
                stack_cfg,
                proto_cfg,
                SharedStats::new(),
            ))
        });
    }

    /// Stops every node and returns the per-node reports.
    pub fn shutdown(self) -> Vec<NodeReport> {
        self.cluster.shutdown()
    }
}

impl IsisRuntime for ThreadedRuntime {
    fn num_sites(&self) -> usize {
        self.cluster.num_sites()
    }

    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn with_stack_job(&mut self, site: SiteId, job: StackJob) -> bool {
        self.cluster.invoke(
            site,
            invoke_fn(move |h, now, out| {
                if let Some(stack) = h.as_any_mut().downcast_mut::<SiteStack>() {
                    job(stack, now, out);
                }
            }),
        )
    }

    fn advance(&mut self, d: Duration) {
        std::thread::sleep(std::time::Duration::from_micros(d.as_micros()));
    }

    fn kill_site(&mut self, site: SiteId) {
        self.cluster.kill_site(site);
    }

    fn recover_site(&mut self, site: SiteId) {
        self.spawn_stack(site);
    }

    fn site_is_up(&self, site: SiteId) -> bool {
        self.cluster.site_is_up(site)
    }

    fn set_link_faults(&mut self, links: LinkFaults) {
        self.cluster.set_link_faults(links);
    }
}

// ---------------------------------------------------------------------------------------
// The generic harness
// ---------------------------------------------------------------------------------------

/// Toolkit-level operations over any [`IsisRuntime`]: spawn processes, create, join and
/// leave groups, multicast, group RPC, and inject failures.
pub struct IsisHarness<R: IsisRuntime> {
    /// The underlying runtime, reachable for backend-specific calls.
    pub rt: R,
    next_group: u64,
    next_local: Vec<u32>,
}

impl<R: IsisRuntime> IsisHarness<R> {
    /// Wraps a runtime.
    pub fn new(rt: R) -> Self {
        let next_local = vec![1; rt.num_sites()];
        IsisHarness {
            rt,
            next_group: 0,
            next_local,
        }
    }

    /// The sites of the cluster.
    pub fn sites(&self) -> Vec<SiteId> {
        (0..self.rt.num_sites() as u16).map(SiteId).collect()
    }

    /// Drives the runtime in 1 ms steps until `poll` yields a value or `max_wait` of
    /// runtime time passes.  The single pacing loop behind [`IsisHarness::query`],
    /// [`IsisHarness::client_call`] and [`IsisHarness::wait_until`], so their
    /// step/deadline bookkeeping cannot drift apart.
    fn drive<T>(
        &mut self,
        max_wait: Duration,
        mut poll: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<T> {
        let step = Duration::from_millis(1);
        let mut waited = Duration::ZERO;
        loop {
            if let Some(v) = poll(self) {
                return Some(v);
            }
            if waited >= max_wait {
                return None;
            }
            self.rt.advance(step);
            waited += step;
        }
    }

    /// Runs `f` against a site's stack and waits (driving the runtime) for its result.
    /// `None` if the site is down or the job was lost to a crash.
    pub fn query<T: Send + 'static>(
        &mut self,
        site: SiteId,
        f: impl FnOnce(&mut SiteStack, SimTime, &mut Outbox) -> T + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        let sent = self.rt.with_stack_job(
            site,
            Box::new(move |stack, now, out| {
                let _ = tx.send(f(stack, now, out));
            }),
        );
        if !sent {
            return None;
        }
        self.drive(Duration::from_secs(10), |_h| match rx.try_recv() {
            Ok(v) => Some(Some(v)),
            // The job died with its node: no result will ever come.
            Err(mpsc::TryRecvError::Disconnected) => Some(None),
            Err(mpsc::TryRecvError::Empty) => None,
        })
        .flatten()
    }

    /// The next process id at `site` (shared by every spawn path, so pids never repeat).
    fn next_pid(&mut self, site: SiteId) -> ProcessId {
        let local = self.next_local[site.index()];
        self.next_local[site.index()] += 1;
        ProcessId::new(site, local)
    }

    /// Spawns a client process at `site`.  The `configure` closure runs on the site's node
    /// (thread) to build the handlers, so handler state never crosses threads.
    pub fn spawn(
        &mut self,
        site: SiteId,
        configure: impl FnOnce(&mut ProcessBuilder) + Send + 'static,
    ) -> ProcessId {
        let pid = self.next_pid(site);
        let sent = self.rt.with_stack_job(
            site,
            Box::new(move |stack, _now, _out| {
                let mut b = ProcessBuilder::new(pid);
                configure(&mut b);
                stack.add_process(b.build());
            }),
        );
        // Returning a pid for a process that was silently never created only defers the
        // failure to a confusing join/RPC timeout later.
        assert!(sent, "spawn at {site:?}: site is down");
        pid
    }

    /// Pre-allocates a group id (for tools that must know it before the group exists).
    pub fn allocate_group_id(&mut self) -> GroupId {
        self.next_group += 1;
        GroupId(self.next_group)
    }

    /// Creates a group with `creator` as founding member; registers the name everywhere.
    pub fn create_group(&mut self, name: &str, creator: ProcessId) -> GroupId {
        let gid = self.allocate_group_id();
        self.create_group_with_id(name, gid, creator);
        gid
    }

    /// Creates a group using a pre-allocated id.  A group is open unless
    /// [`IsisHarness::set_policy`] protected the id first.
    pub fn create_group_with_id(&mut self, name: &str, gid: GroupId, creator: ProcessId) {
        let n = name.to_owned();
        self.query(creator.site, move |stack, _now, out| {
            stack.create_group(&n, gid, creator, out);
        });
        for s in self.sites() {
            let n = name.to_owned();
            self.rt.with_stack_job(
                s,
                Box::new(move |stack, _now, _out| {
                    stack.register_group(&n, gid, vec![creator.site]);
                }),
            );
        }
    }

    /// Installs a protection policy (join credentials, trusted senders) for `gid` at every
    /// site, since any site may come to coordinate the group's joins.  Call it between
    /// [`IsisHarness::allocate_group_id`] and [`IsisHarness::create_group_with_id`], so no
    /// join is ever checked without it.
    pub fn set_policy(&mut self, gid: GroupId, policy: ProtectionPolicy) {
        for s in self.sites() {
            let policy = policy.clone();
            self.rt.with_stack_job(
                s,
                Box::new(move |stack, _now, _out| stack.set_policy(gid, policy)),
            );
        }
    }

    /// `pg_lookup` as seen from a site's namespace cache.
    pub fn lookup(&mut self, site: SiteId, name: &str) -> Option<GroupId> {
        let name = name.to_owned();
        self.query(site, move |stack, _now, _out| stack.lookup(&name))
            .flatten()
    }

    /// The view of a group installed at a site; `None` at a site where no member lives.
    pub fn view_of(&mut self, site: SiteId, gid: GroupId) -> Option<View> {
        self.query(site, move |stack, _now, _out| stack.view_of(gid).cloned())
            .flatten()
    }

    /// The rank of a member in the group, as seen from its own site.
    pub fn rank_of(&mut self, gid: GroupId, member: ProcessId) -> Option<Rank> {
        self.view_of(member.site, gid)?.rank_of(member)
    }

    /// Number of multicasts `site` has received in the group's current view that are not
    /// yet known stable (a flush would redistribute them).  Works on both backends; the
    /// join-under-load tests read it right before a join to prove the join races in-flight
    /// traffic.
    pub fn unstable_count(&mut self, site: SiteId, gid: GroupId) -> usize {
        self.query(site, move |stack, _now, _out| stack.unstable_count(gid))
            .unwrap_or(0)
    }

    /// Submits a join and drives the runtime until the joiner appears in its site's view.
    pub fn join_and_wait(
        &mut self,
        gid: GroupId,
        joiner: ProcessId,
        credentials: Option<String>,
        max_wait: Duration,
    ) -> Result<()> {
        self.change_membership(gid, joiner, true, max_wait, move |stack, out| {
            stack.join_group(gid, joiner, credentials, out)
        })
    }

    /// Asks `member` to leave and drives the runtime until its site's view no longer lists it.
    pub fn leave_and_wait(
        &mut self,
        gid: GroupId,
        member: ProcessId,
        max_wait: Duration,
    ) -> Result<()> {
        self.change_membership(gid, member, false, max_wait, move |stack, out| {
            stack.leave_group(gid, member, out)
        })
    }

    /// Submits a join or leave `request` at `pid`'s site, then drives the runtime until that
    /// site's view of `gid` lists `pid` exactly when `listed`.
    fn change_membership(
        &mut self,
        gid: GroupId,
        pid: ProcessId,
        listed: bool,
        max_wait: Duration,
        request: impl FnOnce(&mut SiteStack, &mut Outbox) -> Result<()> + Send + 'static,
    ) -> Result<()> {
        self.query(pid.site, move |stack, _now, out| request(stack, out))
            .ok_or(VsError::NoSuchProcess(pid))??;
        let done = self.wait_until(max_wait, |h| {
            h.view_of(pid.site, gid).is_some_and(|v| v.contains(pid)) == listed
        });
        match (done, listed) {
            (true, _) => Ok(()),
            (false, true) => Err(VsError::Timeout(format!("join of {pid} to {gid}"))),
            (false, false) => Err(VsError::Timeout(format!("leave of {pid} from {gid}"))),
        }
    }

    /// Fire-and-forget multicast from `caller` (dropped silently if its site crashed).
    pub fn client_send(
        &mut self,
        caller: ProcessId,
        dest: impl Into<Address>,
        entry: EntryId,
        payload: Message,
        protocol: ProtocolKind,
    ) {
        let dest = dest.into();
        self.rt.with_stack_job(
            caller.site,
            Box::new(move |stack, _now, out| {
                stack.issue_call(
                    caller,
                    vec![dest],
                    entry,
                    payload,
                    protocol,
                    ReplyWanted::None,
                    None,
                    out,
                );
            }),
        );
    }

    /// Group RPC from outside a handler: multicasts and drives the runtime until reply
    /// collection completes or `max_wait` passes.
    #[allow(clippy::too_many_arguments)]
    pub fn client_call(
        &mut self,
        caller: ProcessId,
        dests: Vec<Address>,
        entry: EntryId,
        payload: Message,
        protocol: ProtocolKind,
        wanted: ReplyWanted,
        max_wait: Duration,
    ) -> RpcOutcome {
        let (tx, rx) = mpsc::channel();
        let sent = self.rt.with_stack_job(
            caller.site,
            Box::new(move |stack, _now, out| {
                let callback: ReplyCallback =
                    Box::new(move |_ctx: &mut ToolCtx<'_>, outcome: RpcOutcome| {
                        let _ = tx.send(outcome);
                    });
                stack.issue_call(
                    caller,
                    dests,
                    entry,
                    payload,
                    protocol,
                    wanted,
                    Some(callback),
                    out,
                );
            }),
        );
        let failed = |why: &str| RpcOutcome {
            replies: Vec::new(),
            responders: Vec::new(),
            error: Some(VsError::Timeout(why.into())),
        };
        if !sent {
            return failed("caller site is down");
        }
        self.drive(max_wait, |_h| match rx.try_recv() {
            Ok(outcome) => Some(outcome),
            // The reply sender died without an outcome: the caller's site crashed (or
            // dropped the callback), so no outcome can ever arrive — fail immediately
            // instead of sleeping out the deadline.
            Err(mpsc::TryRecvError::Disconnected) => {
                Some(failed("caller crashed before the call completed"))
            }
            Err(mpsc::TryRecvError::Empty) => None,
        })
        .unwrap_or_else(|| failed("client call never completed"))
    }

    /// Crashes a single client process, leaving its site up.
    pub fn kill_process(&mut self, pid: ProcessId) {
        self.rt.with_stack_job(
            pid.site,
            Box::new(move |stack, _now, out| stack.crash_local_process(pid, out)),
        );
    }

    /// Executes a nemesis schedule: folds each timed partition / heal / delay-spike event
    /// into the runtime's link-fault table and kills sites for `Crash` events, letting
    /// runtime time pass between events, so the spacing of kills (which decides who fails
    /// last, and therefore whose log a later reform must elect) is real on both backends.
    /// Returns with the *final* table still installed — callers that want a healed cluster
    /// end their schedule with [`NemesisEvent::Heal`].
    pub fn run_nemesis(&mut self, schedule: &NemesisSchedule) {
        let mut elapsed = Duration::ZERO;
        let mut links = LinkFaults::default();
        for ev in schedule.events() {
            if ev.after > elapsed {
                self.rt.advance(Duration::from_micros(
                    ev.after.as_micros() - elapsed.as_micros(),
                ));
                elapsed = ev.after;
            }
            if NemesisSchedule::apply_to_links(&ev.event, &mut links) {
                self.rt.set_link_faults(links.clone());
            } else if let NemesisEvent::Crash { site } = ev.event {
                self.rt.kill_site(site);
            }
        }
    }

    /// Respawns every dead site with a fresh, empty protocols process (no group state —
    /// recovery happens above, from each site's durable log).
    pub fn respawn_all(&mut self) {
        for s in self.sites() {
            if !self.rt.site_is_up(s) {
                self.rt.recover_site(s);
            }
        }
    }

    /// Drives the runtime in 1 ms steps until `cond` holds or `max_wait` of runtime time
    /// passes; returns whether the condition was met.
    pub fn wait_until(
        &mut self,
        max_wait: Duration,
        mut cond: impl FnMut(&mut Self) -> bool,
    ) -> bool {
        self.drive(max_wait, |h| cond(h).then_some(())).is_some()
    }

    /// Lets `d` of runtime time pass.
    pub fn settle(&mut self, d: Duration) {
        self.rt.advance(d);
    }
}

/// Simulator-only access.  Caller and nodes share one thread here, so neither method asks
/// for `Send`: handlers may capture `Rc` state the caller keeps reading, which is how the
/// tools (`Rc<RefCell<..>>` inside) and the applications built on them are driven.
impl IsisHarness<SimRuntime> {
    /// Runs `f` against a site's stack at the current virtual time and flushes whatever it
    /// records.  `None` if the site is down.
    pub fn with_stack<T>(
        &mut self,
        site: SiteId,
        f: impl FnOnce(&mut SiteStack, SimTime, &mut Outbox) -> T,
    ) -> Option<T> {
        self.rt.cluster.with_node::<SiteStack, _>(site, f)
    }

    /// Spawns a client process at `site` like [`IsisHarness::spawn`] (from the same pid
    /// sequence), with a `configure` closure that need not be `Send`.
    pub fn spawn_local(
        &mut self,
        site: SiteId,
        configure: impl FnOnce(&mut ProcessBuilder),
    ) -> ProcessId {
        let pid = self.next_pid(site);
        let mut b = ProcessBuilder::new(pid);
        configure(&mut b);
        let process = b.build();
        let added = self.with_stack(site, |stack, _now, _out| stack.add_process(process));
        assert!(added.is_some(), "spawn at {site:?}: site is down");
        pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const ECHO: EntryId = EntryId(40);

    fn sim_harness(n: usize) -> IsisHarness<SimRuntime> {
        IsisHarness::new(SimRuntime::for_profile(n, LatencyProfile::Modern, 42))
    }

    #[test]
    fn sim_group_formation_and_rpc_through_the_harness() {
        let mut h = sim_harness(3);
        let members: Vec<ProcessId> = (0..3)
            .map(|i| {
                h.spawn(SiteId(i), |b| {
                    b.on_entry(ECHO, |ctx, msg| {
                        ctx.reply(
                            msg,
                            Message::with_body(msg.get_u64("body").unwrap_or(0) + 1),
                        );
                    });
                })
            })
            .collect();
        let gid = h.create_group("svc", members[0]);
        for m in &members[1..] {
            h.join_and_wait(gid, *m, None, Duration::from_secs(5))
                .expect("join");
        }
        let v = h.view_of(SiteId(0), gid).expect("view");
        assert_eq!(v.members, members);
        for (i, m) in members.iter().enumerate() {
            assert_eq!(h.rank_of(gid, *m), Some(i), "rank of member {i}");
        }
        assert_eq!(h.lookup(SiteId(2), "svc"), Some(gid));
        assert_eq!(h.lookup(SiteId(2), "absent"), None);
        let client = h.spawn(SiteId(2), |_| {});
        let outcome = h.client_call(
            client,
            vec![Address::Group(gid)],
            ECHO,
            Message::with_body(9u64),
            ProtocolKind::Cbcast,
            ReplyWanted::Count(3),
            Duration::from_secs(5),
        );
        assert!(outcome.error.is_none(), "rpc failed: {:?}", outcome.error);
        let mut got: Vec<u64> = outcome
            .replies
            .iter()
            .filter_map(|r| r.get_u64("body"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 10, 10]);
    }

    #[test]
    fn sim_crash_shrinks_the_view_through_the_harness() {
        let mut h = sim_harness(3);
        let members: Vec<ProcessId> = (0..3).map(|i| h.spawn(SiteId(i), |_| {})).collect();
        let gid = h.create_group("shrink", members[0]);
        for m in &members[1..] {
            h.join_and_wait(gid, *m, None, Duration::from_secs(5))
                .expect("join");
        }
        h.rt.kill_site(SiteId(2));
        let ok = h.wait_until(Duration::from_secs(10), |h| {
            h.view_of(SiteId(0), gid)
                .map(|v| v.len() == 2)
                .unwrap_or(false)
        });
        assert!(ok, "survivors never installed the two-member view");
    }

    type Deployment = (
        IsisHarness<SimRuntime>,
        GroupId,
        Vec<ProcessId>,
        Vec<Rc<RefCell<Vec<u64>>>>,
    );

    /// Four sites; a group of three members at sites 0–2, each appending every delivered
    /// body to its own log and replying with `100 + rank`.  Site 3 is left for clients.
    fn build_group_of_three() -> Deployment {
        let mut h = sim_harness(4);
        let logs: Vec<Rc<RefCell<Vec<u64>>>> =
            (0..3).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        let members: Vec<ProcessId> = (0..3u16)
            .map(|i| {
                let log = logs[i as usize].clone();
                h.spawn_local(SiteId(i), move |b| {
                    b.on_entry(ECHO, move |ctx, msg| {
                        log.borrow_mut().push(msg.get_u64("body").unwrap_or(0));
                        ctx.reply(msg, Message::with_body(100 + i as u64));
                    });
                })
            })
            .collect();
        let gid = h.create_group("svc", members[0]);
        for m in &members[1..] {
            h.join_and_wait(gid, *m, None, Duration::from_secs(5))
                .expect("join");
        }
        (h, gid, members, logs)
    }

    #[test]
    fn group_formation_and_ranks() {
        let (mut h, gid, members, _logs) = build_group_of_three();
        for (i, m) in members.iter().enumerate() {
            assert_eq!(h.rank_of(gid, *m), Some(i), "rank of member {i}");
        }
        let v = h.view_of(SiteId(0), gid).unwrap();
        assert_eq!(v.members, members);
        // A site with no member still resolves the name.
        assert_eq!(h.lookup(SiteId(3), "svc"), Some(gid));
        assert_eq!(h.lookup(SiteId(3), "absent"), None);
    }

    #[test]
    fn group_rpc_collects_all_replies() {
        let (mut h, gid, _members, logs) = build_group_of_three();
        let client = h.spawn(SiteId(3), |_| {});
        let outcome = h.client_call(
            client,
            vec![Address::Group(gid)],
            ECHO,
            Message::with_body(7u64),
            ProtocolKind::Cbcast,
            ReplyWanted::Count(3),
            Duration::from_secs(5),
        );
        assert!(outcome.error.is_none(), "error: {:?}", outcome.error);
        let mut values: Vec<u64> = outcome
            .replies
            .iter()
            .filter_map(|r| r.get_u64("body"))
            .collect();
        values.sort_unstable();
        assert_eq!(values, vec![100, 101, 102]);
        // Every member saw the query exactly once.
        for log in &logs {
            assert_eq!(log.borrow().as_slice(), &[7]);
        }
    }

    #[test]
    fn asynchronous_cbcast_reaches_all_members() {
        let (mut h, gid, members, logs) = build_group_of_three();
        h.client_send(
            members[0],
            gid,
            ECHO,
            Message::with_body(55u64),
            ProtocolKind::Cbcast,
        );
        h.settle(Duration::from_millis(200));
        for log in &logs {
            assert_eq!(log.borrow().as_slice(), &[55]);
        }
    }

    #[test]
    fn member_failure_installs_new_view_everywhere() {
        let (mut h, gid, members, _logs) = build_group_of_three();
        h.rt.kill_site(SiteId(2));
        let ok = h.wait_until(Duration::from_secs(10), |h| {
            [SiteId(0), SiteId(1)]
                .into_iter()
                .all(|s| h.view_of(s, gid).is_some_and(|v| v.len() == 2))
        });
        assert!(ok, "surviving members never installed the two-member view");
        let v = h.view_of(SiteId(0), gid).unwrap();
        assert_eq!(v.members, vec![members[0], members[1]]);
    }

    #[test]
    fn kill_process_triggers_failure_handling_without_killing_the_site() {
        let mut h = sim_harness(3);
        let members: Vec<ProcessId> = (0..3).map(|i| h.spawn(SiteId(i), |_| {})).collect();
        let gid = h.create_group("svc", members[0]);
        for m in &members[1..] {
            h.join_and_wait(gid, *m, None, Duration::from_secs(5))
                .expect("join");
        }
        let exists = |h: &mut IsisHarness<SimRuntime>, pid: ProcessId| {
            h.with_stack(pid.site, |stack, _now, _out| stack.has_process(pid)) == Some(true)
        };
        assert!(exists(&mut h, members[1]));
        h.kill_process(members[1]);
        let ok = h.wait_until(Duration::from_secs(10), |h| {
            h.view_of(SiteId(0), gid).is_some_and(|v| v.len() == 2)
        });
        assert!(ok, "the group never dropped the dead process");
        assert!(h.rt.site_is_up(SiteId(1)), "the site itself stays up");
        assert!(!exists(&mut h, members[1]));
    }

    #[test]
    fn rpc_to_a_fully_failed_group_reports_an_error() {
        let mut h = sim_harness(3);
        let member = h.spawn(SiteId(0), |b| {
            b.on_entry(ECHO, |ctx, msg| ctx.reply(msg, Message::with_body(1u64)));
        });
        let gid = h.create_group("lonely", member);
        h.settle(Duration::from_millis(50));
        h.rt.kill_site(SiteId(0));
        h.settle(Duration::from_millis(50));
        let client = h.spawn(SiteId(2), |_| {});
        let outcome = h.client_call(
            client,
            vec![Address::Group(gid)],
            ECHO,
            Message::with_body(1u64),
            ProtocolKind::Cbcast,
            ReplyWanted::One,
            Duration::from_secs(3),
        );
        assert!(outcome.error.is_some(), "caller must get an error code");
    }

    #[test]
    fn protection_policy_rejects_bad_join_credentials() {
        let mut h = sim_harness(2);
        let creator = h.spawn(SiteId(0), |_| {});
        let gid = h.allocate_group_id();
        h.set_policy(gid, ProtectionPolicy::open().with_join_credential("sesame"));
        h.create_group_with_id("secure", gid, creator);
        let outsider = h.spawn(SiteId(1), |_| {});
        let denied = h.join_and_wait(
            gid,
            outsider,
            Some("wrong".into()),
            Duration::from_millis(500),
        );
        assert!(
            denied.is_err(),
            "join with bad credentials must not complete"
        );
        let allowed = h.join_and_wait(gid, outsider, Some("sesame".into()), Duration::from_secs(5));
        assert!(
            allowed.is_ok(),
            "join with the right credential succeeds: {allowed:?}"
        );
    }

    #[test]
    fn an_exile_of_a_protected_group_rejoins_with_its_own_credentials() {
        let mut h = sim_harness(3);
        let gid = h.allocate_group_id();
        h.set_policy(gid, ProtectionPolicy::open().with_join_credential("sesame"));
        let members: Vec<ProcessId> = (0..3).map(|s| h.spawn(SiteId(s), |_| {})).collect();
        h.create_group_with_id("secure", gid, members[0]);
        for m in &members[1..] {
            h.join_and_wait(gid, *m, Some("sesame".into()), Duration::from_secs(5))
                .unwrap();
        }
        // Site 2 is cut off long enough to be exiled (views 4 and 5 are its exclusion and
        // its rejoin), then healed: the policy must admit the exile again.
        let components = vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)]];
        let cut = Duration::from_millis(500);
        h.run_nemesis(&NemesisSchedule::partition_window(
            Duration::ZERO,
            cut,
            components,
        ));
        let back = h.wait_until(Duration::from_secs(10), |h| {
            (0..3).all(|s| {
                h.view_of(SiteId(s), gid)
                    .is_some_and(|v| v.seq() >= 5 && v.contains(members[2]))
            })
        });
        assert!(back, "the exile never rejoined");
    }

    #[test]
    fn protection_policy_checks_a_join_at_a_member_site_too() {
        let mut h = sim_harness(2);
        let creator = h.spawn(SiteId(0), |_| {});
        let gid = h.allocate_group_id();
        h.set_policy(gid, ProtectionPolicy::open().with_join_credential("sesame"));
        h.create_group_with_id("secure", gid, creator);
        let neighbour = h.spawn(SiteId(0), |_| {});
        let denied = h.join_and_wait(
            gid,
            neighbour,
            Some("wrong".into()),
            Duration::from_millis(500),
        );
        assert!(
            matches!(denied, Err(VsError::JoinRefused(_))),
            "refused at once: {denied:?}"
        );
        assert_eq!(h.view_of(SiteId(0), gid).map(|v| v.len()), Some(1));
        let allowed = h.join_and_wait(
            gid,
            neighbour,
            Some("sesame".into()),
            Duration::from_secs(5),
        );
        assert!(allowed.is_ok(), "{allowed:?}");
    }

    #[test]
    fn protection_policy_rejects_untrusted_senders() {
        let mut h = sim_harness(2);
        let seen: Vec<Rc<RefCell<Vec<u64>>>> = (0..2).map(|_| Rc::default()).collect();
        let members: Vec<ProcessId> = (0..2u16)
            .map(|i| {
                let log = seen[i as usize].clone();
                h.spawn_local(SiteId(i), move |b| {
                    b.on_entry(ECHO, move |_ctx, msg| {
                        log.borrow_mut().push(msg.get_u64("body").unwrap_or(0));
                    });
                })
            })
            .collect();
        let trusted = h.spawn(SiteId(1), |_| {});
        let untrusted = h.spawn(SiteId(1), |_| {});
        let gid = h.allocate_group_id();
        h.set_policy(
            gid,
            ProtectionPolicy::open().with_trusted_senders([members[0], trusted]),
        );
        h.create_group_with_id("guarded", gid, members[0]);
        h.join_and_wait(gid, members[1], None, Duration::from_secs(5))
            .expect("join");
        for (sender, body) in [(untrusted, 1u64), (trusted, 2), (members[1], 3)] {
            h.client_send(
                sender,
                gid,
                ECHO,
                Message::with_body(body),
                ProtocolKind::Cbcast,
            );
        }
        h.settle(Duration::from_millis(200));
        for (i, log) in seen.iter().enumerate() {
            assert_eq!(
                log.borrow().as_slice(),
                &[2],
                "member {i} hears only the trusted sender"
            );
        }
    }

    #[test]
    fn views_monitoring_from_handlers() {
        let mut h = sim_harness(2);
        let creator = h.spawn(SiteId(0), |_| {});
        let gid = h.create_group("watched", creator);
        // A monitor that shares `Rc` state with the test: only `spawn_local` can build it.
        let observed: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let seen = observed.clone();
        h.spawn_local(SiteId(0), move |b| {
            b.on_view_change(gid, move |_ctx, ev| seen.borrow_mut().push(ev.view.len()));
        });
        let joiner = h.spawn(SiteId(1), |_| {});
        h.join_and_wait(gid, joiner, None, Duration::from_secs(5))
            .unwrap();
        h.settle(Duration::from_millis(100));
        assert!(
            observed.borrow().contains(&2),
            "monitor saw the two-member view: {:?}",
            observed.borrow()
        );
        let pids = [creator, h.spawn_local(SiteId(0), |_| {}), joiner];
        assert_eq!(
            pids.map(|p| (p.site, p.local)),
            [(SiteId(0), 1), (SiteId(0), 3), (SiteId(1), 1)],
            "spawn and spawn_local draw from one pid sequence per site"
        );
    }

    #[test]
    fn threaded_group_formation_and_multicast() {
        let mut h = IsisHarness::new(ThreadedRuntime::new(
            3,
            ThreadedRuntime::fast_local_config(),
            ProtoConfig::fast(),
            FaultPlan::none(),
            7,
        ));
        let delivered = Arc::new(AtomicU64::new(0));
        let members: Vec<ProcessId> = (0..3)
            .map(|i| {
                let d = delivered.clone();
                h.spawn(SiteId(i), move |b| {
                    b.on_entry(ECHO, move |_ctx, _msg| {
                        d.fetch_add(1, Ordering::Relaxed);
                    });
                })
            })
            .collect();
        let gid = h.create_group("tsvc", members[0]);
        for m in &members[1..] {
            h.join_and_wait(gid, *m, None, Duration::from_secs(10))
                .expect("threaded join");
        }
        for i in 0..4u64 {
            h.client_send(
                members[(i % 3) as usize],
                gid,
                ECHO,
                Message::with_body(i),
                ProtocolKind::Cbcast,
            );
        }
        let ok = h.wait_until(Duration::from_secs(10), |_| {
            delivered.load(Ordering::Relaxed) >= 12
        });
        assert!(
            ok,
            "12 deliveries expected, saw {}",
            delivered.load(Ordering::Relaxed)
        );
    }
}
