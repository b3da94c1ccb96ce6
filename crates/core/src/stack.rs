//! The per-site protocols process (paper Figure 1).
//!
//! "The system is organized around a protocols process which implements the multicast
//! primitives, handles process group addressing and does all inter-site communication.  This
//! process maintains process group membership views, using a cache for groups not resident at
//! the site.  Client programs are linked directly to whatever tools they employ."
//!
//! [`SiteStack`] is that process.  It owns one [`GroupEndpoint`] per group with members at
//! this site, hosts the client processes themselves (entry handlers and monitors), runs the
//! failure detector, collects group-RPC replies, and relays multicasts issued by clients that
//! are not members of the destination group to a site that is.
//!
//! "All inter-site communication" includes message stability: what this site has received
//! is something it tells its peer *sites*, not something each group tells its peers.  On a
//! maintenance tick the stack asks every endpoint for its report
//! ([`GroupEndpoint::gossip_due`]) and sends one [`ProtoMsg::Stability`] frame per distinct
//! set of peer sites, with an entry for each group whose view spans exactly those sites —
//! one packet per peer site per tick in the usual case of every group on the same sites,
//! however many groups there are.  An arriving frame is taken apart again: each entry goes
//! to its group's endpoint ([`GroupEndpoint::on_gossip`]), where it does everything a
//! per-group frame did; an entry for a group with no endpoint here is dropped.

use std::collections::{BTreeMap, BTreeSet};

use vsync_msg::{fields, Frame, Message};
use vsync_net::{Outbox, Packet, PacketKind, ProtocolKind, SharedStats, SiteHandler};
use vsync_proto::messages::{ProtoMsg, StabilityEntry};
use vsync_proto::{
    Delivery, EndpointOutput, GroupEndpoint, LogSummary, ProtoConfig, ReformStatus, ReformTracker,
    View, ViewEvent,
};
use vsync_util::{
    Address, Duration, EntryId, GroupId, ProcessId, Result, SimTime, SiteId, VsError,
};

use crate::config::StackConfig;
use crate::process::{CtxAction, IsisProcess, ReplyCallback, ToolCtx};
use crate::protection::ProtectionPolicy;
use crate::rpc::{CollectorStatus, ReplyCollector, ReplyWanted, RpcOutcome};
use vsync_net::FailureDetector;

/// Timer token used for the stack's periodic maintenance tick.
const TICK: u64 = 1;

/// Control-field name used for stack-to-stack (non-protocol) traffic.
const CTRL: &str = "@ctrl";

/// Returns the process id conventionally used for the protocols process of a site.
fn protocols_process(site: SiteId) -> ProcessId {
    ProcessId::new(site, 0)
}

/// A join submitted at this site whose view has not installed yet.  Kept so the request can
/// be re-submitted: the JoinReq (or the coordinator it was queued at) may have died with a
/// crashed site, and membership changes are idempotent end to end (the coordinator dedups
/// queued joiners, `View::successor` ignores joins of existing members), so re-sending is
/// always safe.
struct PendingJoin {
    group: GroupId,
    joiner: ProcessId,
    credentials: Option<String>,
    last_sent: SimTime,
    /// Resubmissions since the last view install for the group.  Drives the exponential
    /// backoff: a join that keeps failing is probably waiting out a partition or a dead
    /// coordinator, and hammering it at a fixed cadence only adds load right when the
    /// group is least able to absorb it.
    attempts: u32,
}

impl PendingJoin {
    /// How long to wait after `last_sent` before resubmitting: `failure_timeout`
    /// doubled per failed attempt (capped at 8x) plus a deterministic jitter of up to a
    /// quarter of that, seeded from the joiner identity and the attempt number so
    /// concurrent joiners desynchronise identically on every run.
    fn retry_delay(&self, base: Duration) -> Duration {
        let backoff = base.saturating_mul(1u64 << self.attempts.min(3));
        let mut rng = vsync_util::DetRng::new(
            0x9e37_79b9_7f4a_7c15
                ^ (u64::from(self.joiner.site.0) << 24)
                ^ (u64::from(self.joiner.local) << 8)
                ^ u64::from(self.attempts),
        );
        let jitter = rng.next_below(backoff.as_micros() / 4 + 1);
        backoff + Duration::from_micros(jitter)
    }
}

/// One in-flight total-failure reform at this site (paper Section 3.8): the election state
/// plus the retransmission bookkeeping the stack drives around it.
struct ReformRun {
    tracker: ReformTracker,
    /// When our summary last went out; rebroadcast at the failure-timeout cadence until
    /// the election resolves, so staggered restarts and lost packets converge.
    last_broadcast: SimTime,
    /// Sites our summary has already been sent to.  Participants' last recorded views —
    /// and hence their expected sets — legitimately differ (the later a site died, the
    /// smaller its final view), so a peer outside *our* expected set may still need our
    /// summary to resolve *its* election: answer every first-time sender, even after our
    /// own election resolved, but answer each at most once so replies cannot ping-pong.
    answered: BTreeSet<SiteId>,
    /// Whether the resolution has been counted (and traced) yet.
    counted: bool,
}

/// The stability frame this site is building for one set of peer sites during a tick: the
/// reports of every local endpoint whose view spans exactly those sites.  Kept between
/// ticks (emptied) so a steady cluster re-uses the destination list it compares against.
struct GossipBundle {
    dsts: Vec<SiteId>,
    /// Empty between ticks, with room for as many entries as the last frame carried.
    entries: Vec<StabilityEntry>,
}

/// The per-site protocols process plus the client processes it hosts.
pub struct SiteStack {
    site: SiteId,
    cfg: StackConfig,
    proto_cfg: ProtoConfig,
    stats: SharedStats,
    all_sites: Vec<SiteId>,
    processes: BTreeMap<ProcessId, IsisProcess>,
    endpoints: BTreeMap<GroupId, GroupEndpoint>,
    /// Views of groups this site knows about (member groups plus cached contact views).
    views: BTreeMap<GroupId, View>,
    /// Symbolic name -> group id (the namespace cache).
    directory: BTreeMap<String, GroupId>,
    /// Group id -> candidate contact sites, refreshed from every view we observe.
    contacts: BTreeMap<GroupId, Vec<SiteId>>,
    policies: BTreeMap<GroupId, ProtectionPolicy>,
    fd: FailureDetector,
    collectors: BTreeMap<u64, ReplyCollector>,
    callbacks: BTreeMap<u64, ReplyCallback>,
    /// Joins awaiting their view, re-submitted on a failure-timeout cadence.
    pending_joins: Vec<PendingJoin>,
    /// Total-failure reforms in progress at this site, by group.
    reforms: BTreeMap<GroupId, ReformRun>,
    next_session: u64,
    now: SimTime,
    /// When this stack last broadcast heartbeats.  Heartbeats go out at
    /// `heartbeat_interval` regardless of how fast the maintenance tick runs: with the
    /// default config (`StackConfig::from_params`) the tick period *equals* the heartbeat
    /// period, so this guard only bites for custom configs that tick faster.
    last_heartbeat: Option<SimTime>,
    /// The heartbeat, written once: every heartbeat packet this stack ever sends aliases it.
    heartbeat: Frame,
    /// Stability frames under construction during a tick, one per distinct set of peer
    /// sites; between ticks, the sets in use with nothing in them.
    gossip: Vec<GossipBundle>,
    /// Scratch for the per-delivery local-member sweep (same reuse rationale).
    member_scratch: Vec<ProcessId>,
    /// Scratch for endpoint outputs, reused across packets/ticks.  Taken (leaving an empty
    /// vector) for the duration of one pump, so re-entrant pumps fall back to a fresh
    /// allocation instead of aliasing.
    eout_scratch: Vec<EndpointOutput>,
}

impl SiteStack {
    /// Creates the stack for `site` in a cluster of `all_sites`.
    pub fn new(
        site: SiteId,
        all_sites: Vec<SiteId>,
        cfg: StackConfig,
        proto_cfg: ProtoConfig,
        stats: SharedStats,
    ) -> Self {
        let fd = FailureDetector::new(
            site,
            all_sites.iter().copied(),
            cfg.heartbeat_interval,
            cfg.failure_timeout,
            SimTime::ZERO,
        );
        let mut heartbeat = Message::new();
        heartbeat.set(CTRL, "hb");
        SiteStack {
            site,
            cfg,
            proto_cfg,
            stats,
            all_sites,
            processes: BTreeMap::new(),
            endpoints: BTreeMap::new(),
            views: BTreeMap::new(),
            directory: BTreeMap::new(),
            contacts: BTreeMap::new(),
            policies: BTreeMap::new(),
            fd,
            collectors: BTreeMap::new(),
            callbacks: BTreeMap::new(),
            pending_joins: Vec::new(),
            reforms: BTreeMap::new(),
            next_session: 0,
            now: SimTime::ZERO,
            last_heartbeat: None,
            heartbeat: Frame::new(heartbeat),
            gossip: Vec::new(),
            member_scratch: Vec::new(),
            eout_scratch: Vec::new(),
        }
    }

    /// Shared statistics counters.
    pub fn stats(&self) -> SharedStats {
        self.stats.clone()
    }

    /// Adds a client process to this site.
    pub fn add_process(&mut self, process: IsisProcess) {
        assert_eq!(
            process.id.site, self.site,
            "process spawned on the wrong site"
        );
        self.processes.insert(process.id, process);
    }

    /// True if the process is currently hosted (and alive) here.
    pub fn has_process(&self, pid: ProcessId) -> bool {
        self.processes.contains_key(&pid)
    }

    /// The view this site currently has of a group (member view or cached).
    pub fn view_of(&self, group: GroupId) -> Option<&View> {
        self.views.get(&group)
    }

    /// True if this site runs a protocol endpoint for the group: a member lives here, or is
    /// joining here.  Diagnostic: traffic about a group this site has no part in must not
    /// leave one behind.
    ///
    /// Only caller: `tests/gossip_bundle.rs`.
    #[doc(hidden)]
    pub fn has_endpoint(&self, group: GroupId) -> bool {
        self.endpoints.contains_key(&group)
    }

    /// Number of multicasts this site has received in the group's current view that are
    /// not yet known stable (would be redistributed by a flush).  Zero if this site runs
    /// no endpoint for the group.
    pub fn unstable_count(&self, group: GroupId) -> usize {
        self.endpoints
            .get(&group)
            .map(|ep| ep.unstable_len())
            .unwrap_or(0)
    }

    /// The wire frame of the last flush commit this site installed for the group (see
    /// `GroupEndpoint::last_commit`).  Diagnostic: lets a test check that every site
    /// holds the one frame the coordinator wrote.
    ///
    /// Only caller: `tests/frame_fanout.rs`.
    #[doc(hidden)]
    pub fn last_commit(&self, group: GroupId) -> Option<&Frame> {
        self.endpoints.get(&group).and_then(|ep| ep.last_commit())
    }

    /// Resolves a symbolic group name from the local namespace cache.
    pub fn lookup(&self, name: &str) -> Option<GroupId> {
        self.directory.get(name).copied()
    }

    /// Registers a group in the local namespace cache (the namespace service's push).
    pub fn register_group(&mut self, name: &str, group: GroupId, contact_sites: Vec<SiteId>) {
        self.directory.insert(name.to_owned(), group);
        self.contacts.insert(group, contact_sites);
    }

    /// Installs a protection policy for a group: joins are checked when this site
    /// coordinates them, and senders on every message dispatched here.
    pub fn set_policy(&mut self, group: GroupId, policy: ProtectionPolicy) {
        self.policies.insert(group, policy);
    }

    /// Creates a group with `creator` (hosted here) as its founding member.
    pub fn create_group(
        &mut self,
        name: &str,
        group: GroupId,
        creator: ProcessId,
        out: &mut Outbox,
    ) {
        self.create_group_at(name, group, creator, 1, out);
    }

    /// Founds (or refounds) a group with the view-sequence line starting at `first_seq`.
    /// Ordinary creation uses seq 1; a total-failure reform winner refounds at
    /// `authoritative last view + 1` so the reformed incarnation's views — and any later
    /// reform election — dominate every pre-crash recovery log.
    pub fn create_group_at(
        &mut self,
        name: &str,
        group: GroupId,
        creator: ProcessId,
        first_seq: u64,
        out: &mut Outbox,
    ) {
        let mut ep = GroupEndpoint::new(group, self.site, self.proto_cfg, self.stats.clone());
        let mut eouts = self.take_eouts();
        ep.create_at(creator, first_seq, &mut eouts);
        self.endpoints.insert(group, ep);
        self.register_group(name, group, vec![self.site]);
        self.pump_endpoint_outputs(group, eouts, out);
    }

    // -- Total-failure reform (paper Section 3.8) ---------------------------------------------

    /// Starts a total-failure reform of `group` at this restarting site: offers `summary`
    /// (what our recovery log covers) to `expected` — the sites of the last view the log
    /// recorded, the only logs that could dominate ours — and collects theirs until the
    /// election resolves.  Poll [`reform_status`](Self::reform_status); the stack
    /// rebroadcasts the summary on a failure-timeout cadence and holds a degraded election
    /// if `reform_timeout` passes with summaries still missing.
    pub fn begin_reform(
        &mut self,
        group: GroupId,
        summary: LogSummary,
        expected: Vec<SiteId>,
        out: &mut Outbox,
    ) {
        let deadline = self.now + self.cfg.reform_timeout;
        // The reform election honors the same primary-partition rule as live view changes:
        // a degraded (deadline) election may only elect a leader among a majority of the
        // expected participants.
        let tracker = ReformTracker::new(summary, expected, deadline);
        out.trace_with(|| {
            format!(
                "{}: reforming {group} with {} expected participants",
                self.site,
                tracker.expected().len()
            )
        });
        let mut run = ReformRun {
            tracker,
            last_broadcast: self.now,
            answered: BTreeSet::new(),
            counted: false,
        };
        self.broadcast_reform_summary(group, &mut run, out);
        self.reforms.insert(group, run);
    }

    /// Advances and reports the reform election for `group`, if one runs at this site.
    /// `Collecting` until resolution; resolutions are sticky.  The entry is dropped (and
    /// this returns `None` again) once a view for the group installs here — lead, follow
    /// and operational paths all end in exactly that.
    pub fn reform_status(&mut self, group: GroupId, out: &mut Outbox) -> Option<ReformStatus> {
        let mut reforms = std::mem::take(&mut self.reforms);
        let status = reforms
            .get_mut(&group)
            .map(|run| self.advance_reform(group, run, out));
        debug_assert!(self.reforms.is_empty(), "re-entrant reform poll");
        self.reforms = reforms;
        status
    }

    /// Resolves the election if it can fire, counting and tracing the resolution once.
    fn advance_reform(
        &mut self,
        group: GroupId,
        run: &mut ReformRun,
        out: &mut Outbox,
    ) -> ReformStatus {
        let status = run.tracker.try_resolve(self.now);
        if run.tracker.status().is_some() && !run.counted {
            run.counted = true;
            self.stats.with(|s| s.count_reform_election());
            out.trace_with(|| format!("{}: reform of {group} resolved: {status:?}", self.site));
        }
        status
    }

    /// Sends our summary to every expected participant (except ourselves).
    fn broadcast_reform_summary(&self, group: GroupId, run: &mut ReformRun, out: &mut Outbox) {
        let s = run.tracker.own_summary();
        let wire = ProtoMsg::ReformSummary {
            from_site: s.site,
            view_seq: s.view_seq,
            covered: s.covered.clone(),
            rank: s.rank,
        }
        .into_frame(group);
        let mut sent = false;
        for site in run.tracker.expected().to_vec() {
            if site != self.site {
                self.send_proto(site, PacketKind::Control, wire.clone(), out);
                run.answered.insert(site);
                sent = true;
            }
        }
        if sent {
            self.stats.with(|s| s.count_reform_summary());
        }
    }

    /// A restarting peer offered its log summary for `group`.
    fn handle_reform_summary(&mut self, group: GroupId, summary: LogSummary, out: &mut Outbox) {
        // A live view here means the group never fully failed: the sender must abandon
        // its reform and rejoin normally, with this site as contact.
        if self
            .endpoints
            .get(&group)
            .and_then(|ep| ep.view())
            .is_some()
        {
            let wire = ProtoMsg::ReformAlive { contact: self.site }.into_frame(group);
            self.send_proto(summary.site, PacketKind::Control, wire, out);
            return;
        }
        let mut reforms = std::mem::take(&mut self.reforms);
        if let Some(run) = reforms.get_mut(&group) {
            let fresh = run.tracker.record(summary.clone());
            // Answer with our own summary if the sender brought new information or has
            // never heard ours — the latter matters when the sender is outside our
            // expected set (its last recorded view was larger than ours), or when our
            // election already resolved: without the reply it would starve until its
            // degraded deadline and could elect a second leader.  Terminates: each sender
            // is answered at most once per election, and the peer's `record` of our
            // (already known) summary returns false, so it does not answer again.
            if fresh || !run.answered.contains(&summary.site) {
                run.answered.insert(summary.site);
                self.broadcast_reform_summary_to(group, &run.tracker, summary.site, out);
            }
        }
        // Not reforming (e.g. still replaying our own disk): safe to drop — the sender
        // rebroadcasts on a timer until its election resolves.
        self.reforms = reforms;
    }

    /// Unicast variant of [`broadcast_reform_summary`](Self::broadcast_reform_summary).
    fn broadcast_reform_summary_to(
        &self,
        group: GroupId,
        tracker: &ReformTracker,
        dst: SiteId,
        out: &mut Outbox,
    ) {
        let s = tracker.own_summary();
        let wire = ProtoMsg::ReformSummary {
            from_site: s.site,
            view_seq: s.view_seq,
            covered: s.covered.clone(),
            rank: s.rank,
        }
        .into_frame(group);
        self.send_proto(dst, PacketKind::Control, wire, out);
        self.stats.with(|st| st.count_reform_summary());
    }

    /// Asks for `joiner` (hosted here) to join `group`.
    pub fn join_group(
        &mut self,
        group: GroupId,
        joiner: ProcessId,
        credentials: Option<String>,
        out: &mut Outbox,
    ) -> Result<()> {
        // Track the join until a view containing the joiner installs, so the maintenance
        // tick can re-submit it if the contact or coordinator it reaches first crashes.
        match self
            .pending_joins
            .iter_mut()
            .find(|p| p.group == group && p.joiner == joiner)
        {
            Some(p) => {
                p.last_sent = self.now;
                p.attempts = 0;
            }
            None => self.pending_joins.push(PendingJoin {
                group,
                joiner,
                credentials: credentials.clone(),
                last_sent: self.now,
                attempts: 0,
            }),
        }
        self.submit_join_request(group, joiner, credentials, 0, out)
    }

    /// One attempt at routing a join: submit locally if a member lives here, otherwise send
    /// a JoinReq to a contact site the failure detector believes alive.  `attempt` is the
    /// retry count for this join: once the exponential backoff is exhausted (the cap in
    /// [`PendingJoin::retry_delay`]), the preferred contact is presumed unreachable in a
    /// useful sense — often stranded in a wedged minority component that heartbeats fine
    /// but can never install the join's view — and the request fails over, rotating
    /// deterministically through the other known contact sites.
    fn submit_join_request(
        &mut self,
        group: GroupId,
        joiner: ProcessId,
        credentials: Option<String>,
        attempt: u32,
        out: &mut Outbox,
    ) -> Result<()> {
        // Make sure an endpoint exists so the eventual FlushCommit can be applied here.
        self.endpoints.entry(group).or_insert_with(|| {
            GroupEndpoint::new(group, self.site, self.proto_cfg, self.stats.clone())
        });
        let ep = self.endpoints.get(&group).expect("endpoint just ensured");
        if ep.view().is_some() {
            // A member already lives here: submit the join locally.
            let mut eouts = self.take_eouts();
            let ep = self.endpoints.get_mut(&group).expect("endpoint exists");
            ep.submit_join(self.now, joiner, credentials, &mut eouts)?;
            self.pump_endpoint_outputs(group, eouts, out);
            return Ok(());
        }
        // Otherwise ask a contact site.
        let preferred = self
            .alive_contact(group)
            .ok_or(VsError::NoSuchGroup(group))?;
        let contact = match self.failover_contact(group, preferred, attempt) {
            Some(other) => {
                self.stats.with(|s| s.count_join_failover());
                out.trace_with(|| {
                    format!(
                        "{}: JoinContactUnreachable: join of {joiner} to {group} via \
                         {preferred} stalled after {attempt} attempts; failing over to {other}",
                        self.site
                    )
                });
                other
            }
            None => preferred,
        };
        let wire = ProtoMsg::JoinReq {
            joiner,
            credentials,
        }
        .into_frame(group);
        self.send_proto(contact, PacketKind::Flush, wire, out);
        Ok(())
    }

    /// Picks the failover contact for a join whose backoff is exhausted: the retries
    /// rotate through the known contact sites *other than* the stalled preferred one, so
    /// a contact stranded in a minority component cannot absorb join attempts forever.
    /// `None` below the backoff cap, or when no alternative site is known.
    fn failover_contact(&self, group: GroupId, preferred: SiteId, attempt: u32) -> Option<SiteId> {
        if attempt <= 3 {
            return None;
        }
        let candidates = self.contacts.get(&group)?;
        let others: Vec<SiteId> = candidates
            .iter()
            .copied()
            .filter(|s| *s != preferred)
            .collect();
        if others.is_empty() {
            return None;
        }
        Some(others[(attempt as usize - 4) % others.len()])
    }

    /// Asks for `member` (hosted here) to leave `group`.
    pub fn leave_group(
        &mut self,
        group: GroupId,
        member: ProcessId,
        out: &mut Outbox,
    ) -> Result<()> {
        // An explicit leave cancels any still-pending join retry for the same member.
        self.pending_joins
            .retain(|p| !(p.group == group && p.joiner == member));
        let mut eouts = self.take_eouts();
        match self.endpoints.get_mut(&group) {
            Some(ep) if ep.view().is_some() => {
                ep.submit_leave(self.now, member, &mut eouts)?;
                self.pump_endpoint_outputs(group, eouts, out);
                Ok(())
            }
            _ => {
                let contact = self
                    .alive_contact(group)
                    .ok_or(VsError::NoSuchGroup(group))?;
                let wire = ProtoMsg::LeaveReq { member }.into_frame(group);
                self.send_proto(contact, PacketKind::Flush, wire, out);
                Ok(())
            }
        }
    }

    /// Crashes a local client process: it disappears immediately, and every group it belonged
    /// to is told (the paper's "detectable by some monitoring mechanism at the site").
    pub fn crash_local_process(&mut self, pid: ProcessId, out: &mut Outbox) {
        self.processes.remove(&pid);
        // A dead joiner's pending join must not be re-submitted on its behalf.
        self.pending_joins.retain(|p| p.joiner != pid);
        // Cancel the collectors belonging to the dead caller.
        let dead_sessions: Vec<u64> = self
            .collectors
            .iter()
            .filter(|(_, c)| c.caller == pid)
            .map(|(s, _)| *s)
            .collect();
        for s in dead_sessions {
            self.collectors.remove(&s);
            self.callbacks.remove(&s);
        }
        let groups: Vec<GroupId> = self.endpoints.keys().copied().collect();
        for g in groups {
            let (is_member, peer_sites) = {
                let ep = self.endpoints.get(&g).expect("endpoint exists");
                match ep.view() {
                    Some(v) if v.contains(pid) => (true, v.member_sites()),
                    _ => (false, Vec::new()),
                }
            };
            if !is_member {
                continue;
            }
            let mut eouts = self.take_eouts();
            if let Some(ep) = self.endpoints.get_mut(&g) {
                // A local crash is *observed* (the process table lost the entry), not a
                // timeout: confirm it so later traffic from this site never retracts it.
                ep.confirm_failures(self.now, &[pid], &mut eouts);
            }
            self.pump_endpoint_outputs(g, eouts, out);
            // Other sites cannot observe a silent local crash; tell every member site so that
            // whichever of them hosts the acting coordinator starts the view change (the
            // crashed process may itself have been the coordinator).  One report frame is
            // fanned out to every peer site.
            let wire = ProtoMsg::FailReport { failed: vec![pid] }.into_frame(g);
            for s in peer_sites {
                if s != self.site {
                    self.send_proto(s, PacketKind::Flush, wire.clone(), out);
                }
            }
        }
        self.fail_collectors_for_process(pid, out);
    }

    /// Issues a call (multicast + reply collection) on behalf of `caller`, which must be a
    /// process hosted at this site.  This is the entry point used both by handler actions and
    /// by the harness's client calls (`client_send`, `client_call`).
    #[allow(clippy::too_many_arguments)]
    pub fn issue_call(
        &mut self,
        caller: ProcessId,
        dests: Vec<Address>,
        entry: EntryId,
        payload: Message,
        protocol: ProtocolKind,
        wanted: ReplyWanted,
        callback: Option<ReplyCallback>,
        out: &mut Outbox,
    ) {
        self.next_session += 1;
        let session = self.next_session;

        let collecting = !matches!(wanted, ReplyWanted::None);
        // Replies route to `@reply-to` when present and fall back to `@sender` (which is
        // always the caller here), so fire-and-forget sends skip the field.  `@group` names
        // the group destination being served; a leading one is stamped with the rest.
        let reply_to = collecting.then(|| vec![Address::Process(caller)]);
        let mut group = match dests.first() {
            Some(Address::Group(g)) => Some(*g),
            _ => None,
        };
        let mut msg = payload;
        msg.replace_system_fields(
            [
                (fields::SENDER, caller.into()),
                (fields::ENTRY, u64::from(entry.0).into()),
                (fields::SESSION, session.into()),
            ]
            .into_iter()
            .chain(reply_to.map(|to| (fields::REPLY_TO, to.into())))
            .chain([(fields::PROTOCOL, protocol.name().into())])
            .chain(group.map(|g| (fields::GROUP, g.into()))),
        );

        let mut callback = callback;
        if collecting {
            // Work out which concrete processes we expect replies from.
            let mut awaited: Vec<ProcessId> = Vec::new();
            let mut open_ended = false;
            for d in &dests {
                match d {
                    Address::Process(p) => awaited.push(*p),
                    Address::Group(g) => match self.views.get(g) {
                        Some(v) => awaited.extend(v.members.iter().copied()),
                        None => open_ended = true,
                    },
                }
            }
            let deadline = Some(self.now + self.cfg.rpc_timeout);
            let collector =
                ReplyCollector::new(caller, session, awaited, wanted, deadline, open_ended);
            self.collectors.insert(session, collector);
            if let Some(cb) = callback.take() {
                self.callbacks.insert(session, cb);
            }
        }

        for d in dests {
            match d {
                Address::Group(g) => {
                    if group != Some(g) {
                        msg.set_group(g);
                        group = Some(g);
                    }
                    self.multicast_to_group(caller, g, protocol, msg.clone(), out);
                }
                Address::Process(p) => {
                    if p.site == self.site {
                        self.stats.count_multicast(ProtocolKind::LocalRpc);
                    } else {
                        self.stats.count_multicast(ProtocolKind::Cbcast);
                    }
                    out.send(Packet::new(caller, p, PacketKind::Data, msg.clone()));
                }
            }
        }
        // A zero-reply call with a callback (unusual but allowed) completes immediately.
        if matches!(wanted, ReplyWanted::None) {
            if let Some(cb) = callback {
                let outcome = RpcOutcome {
                    replies: Vec::new(),
                    responders: Vec::new(),
                    error: None,
                };
                self.run_continuation(caller, cb, outcome, out);
            }
        } else {
            self.poke_collector(session, out);
        }
    }

    fn multicast_to_group(
        &mut self,
        caller: ProcessId,
        group: GroupId,
        protocol: ProtocolKind,
        msg: Message,
        out: &mut Outbox,
    ) {
        let can_serve_locally = self
            .endpoints
            .get(&group)
            .map(|ep| ep.view().is_some() && !ep.local_members().is_empty())
            .unwrap_or(false);
        if can_serve_locally {
            let mut eouts = self.take_eouts();
            let ep = self.endpoints.get_mut(&group).expect("endpoint exists");
            let res = match protocol {
                ProtocolKind::Abcast => ep.abcast(self.now, caller, msg, &mut eouts).map(|_| ()),
                ProtocolKind::Gbcast => ep.gbcast(self.now, caller, msg, &mut eouts),
                _ => ep.cbcast(self.now, caller, msg, &mut eouts).map(|_| ()),
            };
            if res.is_err() {
                out.trace_with(|| format!("{}: multicast to {group} failed: {res:?}", self.site));
            }
            self.pump_endpoint_outputs(group, eouts, out);
        } else {
            // Not a member site: relay through a contact site (Figure 1's view cache +
            // forwarding path for external clients).
            match self.alive_contact(group) {
                Some(contact) => {
                    self.stats.count_multicast(match protocol {
                        ProtocolKind::Abcast => ProtocolKind::Abcast,
                        ProtocolKind::Gbcast => ProtocolKind::Gbcast,
                        _ => ProtocolKind::Cbcast,
                    });
                    let mut relay = Message::new();
                    relay.set(CTRL, "relay");
                    relay.set("relay-group", group);
                    relay.set("relay-proto", protocol.name());
                    relay.set("relay-payload", msg);
                    out.send(Packet::new(
                        protocols_process(self.site),
                        protocols_process(contact),
                        PacketKind::Control,
                        relay,
                    ));
                }
                None => {
                    out.trace_with(|| format!("{}: no contact site known for {group}", self.site));
                }
            }
        }
    }

    fn alive_contact(&self, group: GroupId) -> Option<SiteId> {
        let candidates = self.contacts.get(&group)?;
        candidates
            .iter()
            .copied()
            .find(|s| *s == self.site || self.fd.is_alive(*s))
            .or_else(|| candidates.first().copied())
    }

    fn send_proto(&self, dst_site: SiteId, kind: PacketKind, msg: Frame, out: &mut Outbox) {
        out.send(Packet::new(
            protocols_process(self.site),
            protocols_process(dst_site),
            kind,
            msg,
        ));
    }

    // -- Endpoint output processing -----------------------------------------------------------

    fn pump_endpoint_outputs(
        &mut self,
        group: GroupId,
        mut outputs: Vec<EndpointOutput>,
        out: &mut Outbox,
    ) {
        for o in outputs.drain(..) {
            match o {
                EndpointOutput::Send {
                    dst_site,
                    kind,
                    msg,
                } => {
                    self.send_proto(dst_site, kind, msg, out);
                }
                EndpointOutput::Deliver(d) => {
                    self.deliver_group_message(group, d, out);
                }
                EndpointOutput::ViewChange(ev) => {
                    self.handle_view_change(group, ev, out);
                }
                EndpointOutput::PartitionStalled {
                    view_seq,
                    alive,
                    voters,
                    ..
                } => {
                    // The endpoint already counted the stall; the stack's job is to make
                    // the wedge observable and leave the endpoint alone — it un-wedges by
                    // itself when suspicions are retracted or rejoins on primary evidence.
                    out.trace_with(|| {
                        format!(
                            "{}: {group} wedged at view {view_seq}: {alive}/{voters} \
                             voters visible (minority partition)",
                            self.site
                        )
                    });
                }
                EndpointOutput::RejoinRequired {
                    contact,
                    observed_seq,
                    ..
                } => {
                    self.handle_rejoin_required(group, contact, observed_seq, out);
                }
            }
        }
        // Return the drained buffer to the scratch slot (unless a re-entrant pump already
        // put a buffer back, or this buffer never grew beyond a fresh allocation).
        if self.eout_scratch.capacity() < outputs.capacity() {
            self.eout_scratch = outputs;
        }
    }

    /// Takes the reusable endpoint-output buffer (empty, capacity retained).
    fn take_eouts(&mut self) -> Vec<EndpointOutput> {
        std::mem::take(&mut self.eout_scratch)
    }

    fn deliver_group_message(&mut self, group: GroupId, delivery: Delivery, out: &mut Outbox) {
        self.stats.count_delivery();
        let Some(entry) = delivery.payload.entry() else {
            return;
        };
        let mut members = std::mem::take(&mut self.member_scratch);
        members.clear();
        if let Some(ep) = self.endpoints.get(&group) {
            // Route by the view the message was delivered in, not whatever is installed
            // now: deliveries emitted at a flush cut are dispatched after the new view is
            // already in place, but they belong to the old view and go to *its* local
            // members — never to a process that joined at the cut, whose transferred
            // snapshot already covers them.
            members.extend_from_slice(ep.delivery_recipients(delivery.view_seq));
        }
        for m in members.drain(..) {
            self.dispatch_entry(m, entry, &delivery.payload, out);
        }
        self.member_scratch = members;
    }

    fn handle_view_change(&mut self, group: GroupId, ev: ViewEvent, out: &mut Outbox) {
        self.views.insert(group, ev.view.clone());
        self.contacts.insert(group, ev.view.member_sites());
        // The join is satisfied the moment its view installs.  This must happen here, not
        // only on the maintenance tick: a join-then-leave inside one tick interval would
        // otherwise leave the entry pending with the joiner absent from the view again,
        // and the retry would re-join a member that left on purpose.
        self.pending_joins
            .retain(|p| !(p.group == group && ev.view.contains(p.joiner)));
        // A new view means the membership machinery is live again (whatever stalled the
        // join — a dead coordinator, a mid-flush crash — has been reconfigured around),
        // so surviving joins restart their backoff from the base cadence.
        for p in self.pending_joins.iter_mut().filter(|p| p.group == group) {
            p.attempts = 0;
        }
        // An installed view also ends any reform of the group here: the lead site founds
        // its view, a follower's rejoin installs one, and an `Operational` verdict ends in
        // a normal join — every reform path terminates exactly here.
        if self.reforms.remove(&group).is_some() {
            out.trace_with(|| format!("{}: reform of {group} complete, view installed", self.site));
        }
        // Tell reply collectors about departed members.
        for departed in ev.view.departed.clone() {
            self.fail_collectors_for_process(departed, out);
        }
        // Notify local monitors.
        let locals: Vec<ProcessId> = self.processes.keys().copied().collect();
        for pid in locals {
            self.dispatch_view_event(pid, &ev, out);
        }
        // GBCAST payloads are delivered exactly at the cut, to the members of the new view.
        let members = ev
            .view
            .members_at(self.site)
            .into_iter()
            .collect::<Vec<_>>();
        for payload in &ev.gbcasts {
            self.stats.count_delivery();
            if let Some(entry) = payload.entry() {
                for m in &members {
                    self.dispatch_entry(*m, entry, payload, out);
                }
            }
        }
    }

    // -- Handler dispatch ---------------------------------------------------------------------

    // The handler borrows the process entry in place while the `ToolCtx` borrows the view
    // and directory tables — disjoint fields, so no remove/re-insert round-trip through the
    // process map per delivery.  Re-entrancy is safe because handlers only *record* actions;
    // `apply_actions` runs after every borrow is released.
    //
    // Every message a handler sees passes here, so this is where the protection tool checks
    // the sender of a message addressed to a protected group (paper Section 3.10).
    fn dispatch_entry(&mut self, pid: ProcessId, entry: EntryId, msg: &Message, out: &mut Outbox) {
        let policy = msg.group().and_then(|g| self.policies.get(&g));
        if let Some(Err(why)) = policy.map(|p| p.validate_sender(msg)) {
            out.trace_with(|| format!("{pid}: protection rejected message at {entry:?}: {why}"));
            return;
        }
        let Some(process) = self.processes.get_mut(&pid) else {
            return;
        };
        let actions = {
            let mut ctx = ToolCtx::new(pid, self.now, &self.views, &self.directory)
                .with_stats(self.stats.clone());
            if !process.dispatch(&mut ctx, entry, msg) {
                out.trace_with(|| format!("{pid}: no handler bound at {entry:?}"));
            }
            ctx.take_actions()
        };
        self.apply_actions(pid, actions, out);
    }

    fn dispatch_view_event(&mut self, pid: ProcessId, ev: &ViewEvent, out: &mut Outbox) {
        let Some(process) = self.processes.get_mut(&pid) else {
            return;
        };
        let actions = {
            let mut ctx = ToolCtx::new(pid, self.now, &self.views, &self.directory)
                .with_stats(self.stats.clone());
            process.dispatch_view(&mut ctx, ev);
            ctx.take_actions()
        };
        self.apply_actions(pid, actions, out);
    }

    fn run_continuation(
        &mut self,
        caller: ProcessId,
        callback: ReplyCallback,
        outcome: RpcOutcome,
        out: &mut Outbox,
    ) {
        if !self.processes.contains_key(&caller) {
            return;
        }
        let actions = {
            let mut ctx = ToolCtx::new(caller, self.now, &self.views, &self.directory)
                .with_stats(self.stats.clone());
            callback(&mut ctx, outcome);
            ctx.take_actions()
        };
        self.apply_actions(caller, actions, out);
    }

    fn apply_actions(&mut self, caller: ProcessId, actions: Vec<CtxAction>, out: &mut Outbox) {
        for action in actions {
            match action {
                CtxAction::Call {
                    dests,
                    entry,
                    payload,
                    protocol,
                    wanted,
                    callback,
                } => {
                    self.issue_call(
                        caller, dests, entry, payload, protocol, wanted, callback, out,
                    );
                }
                CtxAction::Reply {
                    target,
                    payload,
                    copies,
                    null,
                } => {
                    self.issue_reply(caller, target, payload, copies, null, out);
                }
                CtxAction::Join { group, credentials } => {
                    if let Err(e) = self.join_group(group, caller, credentials, out) {
                        out.trace_with(|| format!("{caller}: join {group} failed: {e}"));
                    }
                }
                CtxAction::Leave { group } => {
                    if let Err(e) = self.leave_group(group, caller, out) {
                        out.trace_with(|| format!("{caller}: leave {group} failed: {e}"));
                    }
                }
                CtxAction::Trace(line) => out.trace_with(|| format!("{caller}: {line}")),
            }
        }
    }

    fn issue_reply(
        &mut self,
        caller: ProcessId,
        target: Option<(u64, ProcessId)>,
        payload: Message,
        copies: Vec<Address>,
        null: bool,
        out: &mut Outbox,
    ) {
        let Some((session, requester)) = target else {
            out.trace_with(|| format!("{caller}: reply to a message without a session"));
            return;
        };
        let mut reply = payload;
        reply.replace_system_fields(
            [
                (fields::SENDER, caller.into()),
                (fields::SESSION, session.into()),
                (fields::ENTRY, u64::from(EntryId::REPLY.0).into()),
                (fields::IS_REPLY, true.into()),
            ]
            .into_iter()
            .chain(null.then(|| (fields::NULL_REPLY, true.into()))),
        );
        self.stats.count_multicast(ProtocolKind::Reply);
        if copies.is_empty() {
            out.send(Packet::new(caller, requester, PacketKind::Reply, reply));
            return;
        }
        out.send(Packet::new(
            caller,
            requester,
            PacketKind::Reply,
            reply.clone(),
        ));
        for c in copies {
            match c {
                Address::Process(p) => {
                    out.send(Packet::new(caller, p, PacketKind::Reply, reply.clone()));
                }
                Address::Group(g) => {
                    // Copies to a whole group travel as a normal CBCAST to that group.
                    let mut copy = reply.clone();
                    copy.set_group(g);
                    self.multicast_to_group(caller, g, ProtocolKind::Cbcast, copy, out);
                }
            }
        }
    }

    // -- Reply collection ----------------------------------------------------------------------

    fn poke_collector(&mut self, session: u64, out: &mut Outbox) {
        let status = match self.collectors.get_mut(&session) {
            Some(c) => c.on_tick(self.now),
            None => return,
        };
        self.finish_collector(session, status, out);
    }

    fn finish_collector(&mut self, session: u64, status: CollectorStatus, out: &mut Outbox) {
        if let CollectorStatus::Done(outcome) = status {
            let caller = self
                .collectors
                .remove(&session)
                .map(|c| c.caller)
                .unwrap_or(protocols_process(self.site));
            if let Some(cb) = self.callbacks.remove(&session) {
                self.run_continuation(caller, cb, outcome, out);
            }
        }
    }

    fn fail_collectors_for_process(&mut self, failed: ProcessId, out: &mut Outbox) {
        let sessions: Vec<u64> = self.collectors.keys().copied().collect();
        for s in sessions {
            let status = match self.collectors.get_mut(&s) {
                Some(c) => c.on_failure(failed),
                None => continue,
            };
            self.finish_collector(s, status, out);
        }
    }

    fn fail_collectors_for_site(&mut self, site: SiteId, out: &mut Outbox) {
        let sessions: Vec<u64> = self.collectors.keys().copied().collect();
        for s in sessions {
            let status = match self.collectors.get_mut(&s) {
                Some(c) => c.on_site_failure(site),
                None => continue,
            };
            self.finish_collector(s, status, out);
        }
    }

    fn handle_reply(&mut self, pkt: &Packet, out: &mut Outbox) {
        let Some(session) = pkt.payload.session() else {
            return;
        };
        let Some(sender) = pkt.payload.sender() else {
            return;
        };
        let status = match self.collectors.get_mut(&session) {
            Some(c) => c.on_reply(sender, pkt.payload.to_message()),
            None => return, // Superfluous replies are discarded silently.
        };
        self.finish_collector(session, status, out);
    }

    // -- Failure handling -----------------------------------------------------------------------

    fn handle_site_failure(&mut self, failed_site: SiteId, out: &mut Outbox) {
        out.trace_with(|| format!("{}: site {failed_site} suspected failed", self.site));
        let groups: Vec<GroupId> = self.endpoints.keys().copied().collect();
        for g in groups {
            let failed_members: Vec<ProcessId> = self
                .endpoints
                .get(&g)
                .and_then(|ep| ep.view().cloned())
                .map(|v| v.members_at(failed_site))
                .unwrap_or_default();
            if failed_members.is_empty() {
                continue;
            }
            let mut eouts = self.take_eouts();
            if let Some(ep) = self.endpoints.get_mut(&g) {
                ep.report_failures(self.now, &failed_members, &mut eouts);
            }
            self.pump_endpoint_outputs(g, eouts, out);
        }
        self.fail_collectors_for_site(failed_site, out);
    }

    /// A suspected site spoke again: the suspicion was a timeout artifact (delay spike or
    /// healed partition), not a crash.  Withdraw it from every group endpoint before any
    /// flush commits around the falsely suspected members.
    fn handle_site_recovery(&mut self, recovered_site: SiteId, out: &mut Outbox) {
        let groups: Vec<GroupId> = self.endpoints.keys().copied().collect();
        for g in groups {
            let mut eouts = self.take_eouts();
            if let Some(ep) = self.endpoints.get_mut(&g) {
                ep.unsuspect_site(self.now, recovered_site, &mut eouts);
            }
            self.pump_endpoint_outputs(g, eouts, out);
        }
    }

    /// The endpoint observed a newer primary view that excludes its local members: its
    /// history past the last shared cut is a divergent minority tail.  Discard the endpoint
    /// (and with it the tail) and rejoin the members through the evidenced contact; the
    /// join-cut state transfer replaces everything the tail contained.
    fn handle_rejoin_required(
        &mut self,
        group: GroupId,
        contact: SiteId,
        observed_seq: u64,
        out: &mut Outbox,
    ) {
        let locals: Vec<ProcessId> = self
            .endpoints
            .get(&group)
            .map(|ep| ep.local_members().to_vec())
            .unwrap_or_default();
        self.stats.with(|s| s.count_rejoin_after_heal());
        out.trace_with(|| {
            format!(
                "{}: {group} diverged from primary view {observed_seq}; \
                 discarding local tail and rejoining via {contact}",
                self.site
            )
        });
        self.endpoints.remove(&group);
        // Route the rejoin through the site that evidenced the primary view, ahead of
        // whatever contacts the stale view left cached.
        let entry = self.contacts.entry(group).or_default();
        entry.retain(|s| *s != contact);
        entry.insert(0, contact);
        for m in locals {
            if let Err(e) = self.join_group(group, m, None, out) {
                out.trace_with(|| format!("{}: rejoin of {m} to {group} failed: {e}", self.site));
            }
        }
    }

    // -- Incoming traffic -----------------------------------------------------------------------

    fn handle_control(&mut self, pkt: &Packet, out: &mut Outbox) {
        match pkt.payload.get_str(CTRL) {
            Some("hb") => {}
            Some("relay") => {
                let Some(group) = pkt
                    .payload
                    .get_addr("relay-group")
                    .and_then(|a| a.as_group())
                else {
                    return;
                };
                let Some(inner) = pkt.payload.get_msg("relay-payload").cloned() else {
                    return;
                };
                let protocol = match pkt.payload.get_str("relay-proto") {
                    Some("ABCAST") => ProtocolKind::Abcast,
                    Some("GBCAST") => ProtocolKind::Gbcast,
                    _ => ProtocolKind::Cbcast,
                };
                let original_sender = inner.sender().unwrap_or(pkt.src);
                self.multicast_to_group(original_sender, group, protocol, inner, out);
            }
            Some(other) => {
                out.trace_with(|| format!("{}: unknown control message {other:?}", self.site));
            }
            None => {}
        }
    }

    fn handle_proto(&mut self, pkt: &Packet, out: &mut Outbox) {
        // At most one parse per frame: a frame born in this process (every frame, on the
        // simulator) carries its typed message, and one that arrived as bytes is parsed here
        // and memoized in the shared frame, so the endpoint's own `decode_frame` below is a
        // hit either way.
        let Ok((group, decoded)) = ProtoMsg::decode_frame(&pkt.payload) else {
            out.trace_with(|| format!("{}: undecodable protocol message", self.site));
            return;
        };
        let group = *group;
        // Reform traffic is stack-to-stack: it concerns sites whose endpoints are gone
        // (that is the premise), so it must not fault an endpoint into existence below.
        match decoded {
            ProtoMsg::ReformSummary {
                from_site,
                view_seq,
                covered,
                rank,
            } => {
                let summary = LogSummary {
                    site: *from_site,
                    view_seq: *view_seq,
                    covered: covered.clone(),
                    rank: *rank,
                };
                self.handle_reform_summary(group, summary, out);
                return;
            }
            ProtoMsg::ReformAlive { contact } => {
                let contact = *contact;
                if let Some(run) = self.reforms.get_mut(&group) {
                    run.tracker.mark_alive(contact);
                }
                return;
            }
            // A stability frame is site-to-site too: each entry goes to the endpoint of its
            // group.  A group with no endpoint here (a view that does not span this site
            // any more, a corrupt entry) is skipped, never faulted into existence.
            ProtoMsg::Stability { from_site, entries } => {
                if *from_site != pkt.src.site {
                    out.trace_with(|| {
                        format!(
                            "{}: stability frame from {} reports for {from_site}",
                            self.site, pkt.src.site
                        )
                    });
                    return;
                }
                let mut eouts = self.take_eouts();
                for entry in entries {
                    let Some(ep) = self.endpoints.get_mut(&entry.group) else {
                        continue;
                    };
                    ep.on_gossip(
                        self.now,
                        *from_site,
                        entry.view_seq,
                        &entry.received,
                        &mut eouts,
                    );
                    if !eouts.is_empty() {
                        self.pump_endpoint_outputs(entry.group, eouts, out);
                        eouts = self.take_eouts();
                    }
                }
                self.eout_scratch = eouts;
                return;
            }
            _ => {}
        }
        // Joins are validated by the protection policy before the protocol layer sees them.
        if let ProtoMsg::JoinReq {
            joiner,
            credentials,
        } = decoded
        {
            if let Some(policy) = self.policies.get(&group) {
                if let Err(why) = policy.validate_join(credentials.as_deref()) {
                    out.trace_with(|| {
                        format!("{}: join of {joiner} to {group} refused: {why}", self.site)
                    });
                    return;
                }
            }
        }
        let mut eouts = self.take_eouts();
        let ep = self.endpoints.entry(group).or_insert_with(|| {
            GroupEndpoint::new(group, self.site, self.proto_cfg, self.stats.clone())
        });
        if let Err(e) = ep.on_message(self.now, pkt.src.site, &pkt.payload, &mut eouts) {
            out.trace_with(|| format!("{}: protocol error in {group}: {e}", self.site));
        }
        self.pump_endpoint_outputs(group, eouts, out);
    }

    fn handle_app_packet(&mut self, pkt: &Packet, out: &mut Outbox) {
        if pkt.payload.is_reply() {
            self.handle_reply(pkt, out);
            return;
        }
        let Some(entry) = pkt.payload.entry() else {
            return;
        };
        self.dispatch_entry(pkt.dst, entry, &pkt.payload, out);
    }
}

impl SiteHandler for SiteStack {
    fn on_start(&mut self, now: SimTime, out: &mut Outbox) {
        self.now = now;
        out.set_timer(self.cfg.tick_interval, TICK);
    }

    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Outbox) {
        self.now = now;
        if pkt.src.site != self.site {
            // Any traffic from a site proves it is alive.
            if let Some(verdict) = self.fd.on_heartbeat(pkt.src.site, now) {
                out.trace_with(|| format!("{}: {verdict:?}", self.site));
                if matches!(verdict, vsync_net::fail::Verdict::HeardAgain(_)) {
                    self.handle_site_recovery(pkt.src.site, out);
                }
            }
        }
        // Protocol frames are recognised and read without a field tree; everything else
        // (control, replies, application traffic) is a symbol table and gets one built here,
        // lazily, if it arrived as bytes.  Bytes that decode as neither are a corrupt
        // datagram: traced and dropped.
        if ProtoMsg::is_proto_frame(&pkt.payload) {
            self.handle_proto(&pkt, out);
        } else if let Err(e) = pkt.payload.try_message() {
            out.trace_with(|| format!("{}: undecodable message from {}: {e}", self.site, pkt.src));
        } else if pkt.payload.contains(CTRL) {
            self.handle_control(&pkt, out);
        } else {
            self.handle_app_packet(&pkt, out);
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Outbox) {
        self.now = now;
        if token != TICK {
            return;
        }
        // Heartbeats to every other site, rate-limited to the heartbeat period so the
        // cadence stays correct even under a custom config whose tick runs faster than
        // `heartbeat_interval`.  One frame for the life of the stack, aliased by every packet.
        let due = match self.last_heartbeat {
            None => true,
            Some(last) => now.saturating_since(last) >= self.cfg.heartbeat_interval,
        };
        if due {
            self.last_heartbeat = Some(now);
            for s in &self.all_sites {
                if *s != self.site {
                    self.send_proto(*s, PacketKind::Heartbeat, self.heartbeat.clone(), out);
                }
            }
        }
        // Failure detection.
        for verdict in self.fd.tick(now) {
            if let vsync_net::fail::Verdict::Suspected(site) = verdict {
                self.handle_site_failure(site, out);
            }
        }
        // Per-group maintenance: one visit per endpoint.  Stability is a conversation
        // between sites, so the reports of every endpoint with a gossip round due travel
        // together — one frame per distinct set of peer sites, entries in group order, sent
        // at the instant each endpoint's own frame would have left.  A receiver therefore
        // only ever sees entries of groups whose view contains it.
        let mut eouts = self.take_eouts();
        let mut emitted: Vec<(GroupId, Vec<EndpointOutput>)> = Vec::new();
        for (g, ep) in self.endpoints.iter_mut() {
            if let Some(report) = ep.gossip_due(now) {
                let bundle = match self.gossip.iter_mut().find(|b| b.dsts == report.peer_sites) {
                    Some(bundle) => bundle,
                    None => {
                        // A set of peers not seen before: views have moved on, so forget
                        // the sets nobody has reported to yet this tick.
                        self.gossip.retain(|b| !b.entries.is_empty());
                        self.gossip.push(GossipBundle {
                            dsts: report.peer_sites.to_vec(),
                            entries: Vec::new(),
                        });
                        self.gossip.last_mut().expect("just pushed")
                    }
                };
                bundle.entries.push(report.to_entry());
            }
            ep.flush_watchdog(now, &mut eouts);
            if !eouts.is_empty() {
                emitted.push((*g, std::mem::take(&mut eouts)));
            }
        }
        self.eout_scratch = eouts;
        let mut gossip = std::mem::take(&mut self.gossip);
        for bundle in &mut gossip {
            let Some(group) = bundle.entries.first().map(|e| e.group) else {
                continue;
            };
            let room = Vec::with_capacity(bundle.entries.len());
            let wire = ProtoMsg::Stability {
                from_site: self.site,
                entries: std::mem::replace(&mut bundle.entries, room),
            }
            .into_frame(group);
            for s in &bundle.dsts {
                self.send_proto(*s, PacketKind::Stability, wire.clone(), out);
            }
        }
        self.gossip = gossip;
        for (g, outputs) in emitted {
            self.pump_endpoint_outputs(g, outputs, out);
        }
        // Re-submit joins whose view has still not installed: the first JoinReq, or the
        // coordinator holding the queued join, may have died with a crashed site.  The
        // base cadence (one failure timeout) gives the original attempt time to land, and
        // by then the detector has usually condemned a dead contact so the retry routes
        // around it; repeated failures back off exponentially with deterministic jitter
        // (see `PendingJoin::retry_delay`), resetting whenever a view installs.
        let mut pending = std::mem::take(&mut self.pending_joins);
        pending.retain(|p| {
            let installed = self
                .endpoints
                .get(&p.group)
                .and_then(|ep| ep.view())
                .map(|v| v.contains(p.joiner))
                .unwrap_or(false);
            !installed
        });
        for p in &mut pending {
            if now.saturating_since(p.last_sent) < p.retry_delay(self.cfg.failure_timeout) {
                continue;
            }
            p.last_sent = now;
            p.attempts = p.attempts.saturating_add(1);
            out.trace_with(|| {
                format!(
                    "{}: re-submitting join of {} to {:?}",
                    self.site, p.joiner, p.group
                )
            });
            // A dead contact everywhere leaves the join pending for the next cadence.
            let _ =
                self.submit_join_request(p.group, p.joiner, p.credentials.clone(), p.attempts, out);
        }
        self.pending_joins = pending;
        // Total-failure reforms: advance each election (the deadline can fire one without
        // any packet arriving) and rebroadcast unresolved summaries so lost packets and
        // staggered restarts converge.
        let mut reforms = std::mem::take(&mut self.reforms);
        for (g, run) in reforms.iter_mut() {
            self.advance_reform(*g, run, out);
            if run.tracker.status().is_some() {
                continue;
            }
            if now.saturating_since(run.last_broadcast) >= self.cfg.failure_timeout {
                run.last_broadcast = now;
                self.broadcast_reform_summary(*g, run, out);
            }
        }
        debug_assert!(self.reforms.is_empty(), "re-entrant reform tick");
        self.reforms = reforms;
        // RPC deadlines.
        let sessions: Vec<u64> = self.collectors.keys().copied().collect();
        for s in sessions {
            self.poke_collector(s, out);
        }
        out.set_timer(self.cfg.tick_interval, TICK);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocols_process_is_local_zero() {
        let p = protocols_process(SiteId(3));
        assert_eq!(p.site, SiteId(3));
        assert_eq!(p.local, 0);
    }

    #[test]
    fn join_retry_backoff_doubles_caps_and_jitters_deterministically() {
        let base = Duration::from_millis(100);
        let mk = |attempts| PendingJoin {
            group: GroupId(1),
            joiner: ProcessId::new(SiteId(2), 1),
            credentials: None,
            last_sent: SimTime::ZERO,
            attempts,
        };
        let delays: Vec<Duration> = (0..6).map(|a| mk(a).retry_delay(base)).collect();
        for (a, d) in delays.iter().enumerate() {
            let backoff = base.saturating_mul(1 << (a as u32).min(3));
            // Within [backoff, backoff * 1.25]: never earlier than the cadence, bounded
            // jitter, and the exponent stops doubling after 8x.
            assert!(*d >= backoff, "attempt {a}: {d:?} < {backoff:?}");
            assert!(
                d.as_micros() <= backoff.as_micros() + backoff.as_micros() / 4,
                "attempt {a}: jitter exceeds a quarter of the backoff"
            );
        }
        // Capped: attempts 3.. share the same 8x exponent.
        assert!(delays[4] < base.saturating_mul(16));
        // Deterministic: the same attempt always gets the same jitter.
        assert_eq!(mk(2).retry_delay(base), mk(2).retry_delay(base));
        // Different joiners desynchronise.
        let other = PendingJoin {
            joiner: ProcessId::new(SiteId(3), 1),
            ..mk(2)
        };
        assert_ne!(other.retry_delay(base), mk(2).retry_delay(base));
    }
}
