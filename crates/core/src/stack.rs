//! The per-site protocols process (paper Figure 1).
//!
//! "The system is organized around a protocols process which implements the multicast
//! primitives, handles process group addressing and does all inter-site communication.  This
//! process maintains process group membership views, using a cache for groups not resident at
//! the site.  Client programs are linked directly to whatever tools they employ."
//!
//! [`SiteStack`] is that process.  It routes each group's traffic to the group's
//! [`GroupEndpoint`] (one per group with members at this site), hosts the client processes
//! themselves (entry handlers and monitors), runs the failure detector, and relays
//! multicasts issued by clients that are not members of the destination group to a site
//! that is.  Three of its jobs have an owner of their own, which keeps the job's state and
//! answers the stack through one method per event:
//!
//! * `stack::joins` — the joins submitted here whose view has not installed yet: when each
//!   is re-sent, and which contact it fails over to once its backoff is spent;
//! * `stack::reform` — the total-failure elections in progress here (paper Section 3.8),
//!   which send their own summaries;
//! * the session table in [`crate::rpc`] — session numbering and each open reply
//!   collection with the continuation waiting on it (paper Section 3.2).
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

mod joins;
mod reform;

use std::collections::BTreeMap;

use vsync_msg::{fields, Frame, Message};
use vsync_net::{Outbox, Packet, PacketKind, ProtocolKind, SharedStats, SiteHandler};
use vsync_proto::messages::{ProtoMsg, StabilityEntry};
use vsync_proto::{
    Delivery, EndpointOutput, GroupEndpoint, LogSummary, ProtoConfig, ReformStatus, ReformTracker,
    View, ViewEvent,
};
use vsync_util::{Address, EntryId, GroupId, ProcessId, Result, SimTime, SiteId, VsError};

use crate::config::StackConfig;
use crate::process::{CtxAction, IsisProcess, ReplyCallback, ToolCtx};
use crate::protection::ProtectionPolicy;
use crate::rpc::{CollectorStatus, ReplyCollector, ReplyWanted, RpcOutcome, RpcSessions};
use joins::Joins;
use reform::Reforms;
use vsync_net::FailureDetector;

/// Timer token used for the stack's periodic maintenance tick.
const TICK: u64 = 1;

/// Returns the process id conventionally used for the protocols process of a site.
fn protocols_process(site: SiteId) -> ProcessId {
    ProcessId::new(site, 0)
}

/// Sends a frame from the protocols process of site `from` to that of site `to`.
fn send_proto(from: SiteId, to: SiteId, kind: PacketKind, msg: impl Into<Frame>, out: &mut Outbox) {
    out.send(Packet::new(
        protocols_process(from),
        protocols_process(to),
        kind,
        msg,
    ));
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
    /// Joins awaiting their view.
    joins: Joins,
    /// Total-failure reforms in progress at this site.
    reforms: Reforms,
    /// Group-RPC session numbering and the open reply collections.
    rpc: RpcSessions,
    now: SimTime,
    /// When this stack last broadcast heartbeats.  Heartbeats go out at
    /// `heartbeat_interval` regardless of how fast the maintenance tick runs: with the
    /// default config (`StackConfig::from_params`) the tick period *equals* the heartbeat
    /// period, so this guard only bites for custom configs that tick faster.
    last_heartbeat: Option<SimTime>,
    /// The heartbeat, an empty message written once: every heartbeat packet this stack ever
    /// sends aliases it, and its packet kind is all a receiver reads.
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
            joins: Joins::default(),
            reforms: Reforms::new(site),
            rpc: RpcSessions::default(),
            now: SimTime::ZERO,
            last_heartbeat: None,
            heartbeat: Frame::new(Message::new()),
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
        self.endpoints.get(&group).map_or(0, |ep| ep.unstable_len())
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
        let ep = GroupEndpoint::new(group, self.site, self.proto_cfg, self.stats.clone());
        self.endpoints.insert(group, ep);
        self.register_group(name, group, vec![self.site]);
        self.with_endpoint(group, out, |ep, _, eouts| {
            ep.create_at(creator, first_seq, eouts)
        });
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
        // The reform election honors the same primary-partition rule as live view changes:
        // a degraded (deadline) election may only elect a leader among a majority of the
        // expected participants.
        let tracker = ReformTracker::new(summary, expected, self.now + self.cfg.reform_timeout);
        self.reforms.begin(group, tracker, self.now, out);
    }

    /// Advances and reports the reform election for `group`, if one runs at this site.
    /// `Collecting` until resolution; resolutions are sticky.  The entry is dropped (and
    /// this returns `None` again) once a view for the group installs here — lead, follow
    /// and operational paths all end in exactly that.
    pub fn reform_status(&mut self, group: GroupId, out: &mut Outbox) -> Option<ReformStatus> {
        self.reforms.status(group, self.now, out)
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
        self.joins
            .track(group, joiner, credentials.as_deref(), self.now);
        self.submit_join_request(group, joiner, credentials, 0, out)
    }

    /// One attempt at routing a join: submit locally if a member lives here, otherwise send
    /// a JoinReq to a contact site the failure detector believes alive — or, once the
    /// retries have spent their backoff (`attempt`), to the failover contact
    /// (`joins::failover_contact`).
    fn submit_join_request(
        &mut self,
        group: GroupId,
        joiner: ProcessId,
        credentials: Option<String>,
        attempt: u32,
        out: &mut Outbox,
    ) -> Result<()> {
        // Make sure an endpoint exists so the eventual FlushCommit can be applied here.
        self.ensure_endpoint(group);
        if self.is_member_site(group) {
            // A member already lives here: submit the join locally.
            return self
                .with_endpoint(group, out, |ep, now, eouts| {
                    ep.submit_join(now, joiner, credentials, eouts)
                })
                .expect("endpoint just ensured");
        }
        // Otherwise ask a contact site.
        let preferred = self
            .alive_contact(group)
            .ok_or(VsError::NoSuchGroup(group))?;
        let failover = self
            .contacts
            .get(&group)
            .and_then(|c| joins::failover_contact(c, preferred, attempt));
        let contact = match failover {
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
        send_proto(self.site, contact, PacketKind::Flush, wire, out);
        Ok(())
    }

    /// Asks for `member` (hosted here) to leave `group`.
    pub fn leave_group(
        &mut self,
        group: GroupId,
        member: ProcessId,
        out: &mut Outbox,
    ) -> Result<()> {
        self.joins.cancel(group, member);
        if self.is_member_site(group) {
            return self
                .with_endpoint(group, out, |ep, now, eouts| {
                    ep.submit_leave(now, member, eouts)
                })
                .expect("member site has an endpoint");
        }
        let contact = self
            .alive_contact(group)
            .ok_or(VsError::NoSuchGroup(group))?;
        let wire = ProtoMsg::LeaveReq { member }.into_frame(group);
        send_proto(self.site, contact, PacketKind::Flush, wire, out);
        Ok(())
    }

    /// Crashes a local client process: it disappears immediately, and every group it belonged
    /// to is told (the paper's "detectable by some monitoring mechanism at the site").
    pub fn crash_local_process(&mut self, pid: ProcessId, out: &mut Outbox) {
        self.processes.remove(&pid);
        self.joins.forget_process(pid);
        self.rpc.drop_caller(pid);
        let groups: Vec<GroupId> = self.endpoints.keys().copied().collect();
        for g in groups {
            // A local crash is *observed* (the process table lost the entry), not a
            // timeout: confirm it so later traffic from this site never retracts it.
            let confirmed = self.with_endpoint(g, out, |ep, now, eouts| {
                let peer_sites = ep.view().filter(|v| v.contains(pid))?.member_sites();
                ep.confirm_failures(now, &[pid], eouts);
                Some(peer_sites)
            });
            let Some(peer_sites) = confirmed.flatten() else {
                continue;
            };
            // Other sites cannot observe a silent local crash; tell every member site so that
            // whichever of them hosts the acting coordinator starts the view change (the
            // crashed process may itself have been the coordinator).  One report frame is
            // fanned out to every peer site.
            let wire = ProtoMsg::FailReport { failed: vec![pid] }.into_frame(g);
            for s in peer_sites {
                if s != self.site {
                    send_proto(self.site, s, PacketKind::Flush, wire.clone(), out);
                }
            }
        }
        self.sweep_sessions(1, self.rpc.last(), |c| c.on_failure(|p| *p == pid), out);
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
        mut callback: Option<ReplyCallback>,
        out: &mut Outbox,
    ) {
        let session = self.rpc.next_session();

        let collecting = !matches!(wanted, ReplyWanted::None);
        // Replies route to `@reply-to` when present and fall back to `@sender` (which is
        // always the caller here), so fire-and-forget sends skip the field.  `@group` names
        // the group destination being served; a leading one is stamped with the rest.
        let reply_to = collecting.then(|| vec![Address::Process(caller)]);
        let mut group = dests.first().and_then(|d| d.as_group());
        let mut msg = payload;
        msg.replace_system_fields(
            [
                (fields::SENDER, caller.into()),
                (fields::ENTRY, u64::from(entry.0).into()),
                (fields::SESSION, session.into()),
            ]
            .into_iter()
            .chain(reply_to.map(|to| (fields::REPLY_TO, to.into())))
            .chain(group.map(|g| (fields::GROUP, g.into()))),
        );

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
            self.rpc.open(collector, callback.take());
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
                self.as_process(caller, out, |_, ctx| cb(ctx, outcome));
            }
        } else {
            let now = self.now;
            self.sweep_sessions(session, session, |c| c.on_tick(now), out);
        }
    }

    fn multicast_to_group(
        &mut self,
        caller: ProcessId,
        group: GroupId,
        protocol: ProtocolKind,
        payload: Message,
        out: &mut Outbox,
    ) {
        let can_serve_locally = self
            .endpoints
            .get(&group)
            .is_some_and(|ep| ep.view().is_some() && !ep.local_members().is_empty());
        if can_serve_locally {
            let res = self.with_endpoint(group, out, |ep, now, eouts| match protocol {
                ProtocolKind::Abcast => ep.abcast(now, caller, payload, eouts).map(|_| ()),
                ProtocolKind::Gbcast => ep.gbcast(now, caller, payload, eouts),
                _ => ep.cbcast(now, caller, payload, eouts).map(|_| ()),
            });
            if let Some(res @ Err(_)) = res {
                out.trace_with(|| format!("{}: multicast to {group} failed: {res:?}", self.site));
            }
            return;
        }
        // Not a member site: relay through a contact site (Figure 1's view cache +
        // forwarding path for external clients).
        let Some(contact) = self.alive_contact(group) else {
            out.trace_with(|| format!("{}: no contact site known for {group}", self.site));
            return;
        };
        let protocol = match protocol {
            ProtocolKind::Abcast | ProtocolKind::Gbcast => protocol,
            _ => ProtocolKind::Cbcast,
        };
        self.stats.count_multicast(protocol);
        let wire = ProtoMsg::Relay { protocol, payload }.into_frame(group);
        send_proto(self.site, contact, PacketKind::Control, wire, out);
    }

    fn alive_contact(&self, group: GroupId) -> Option<SiteId> {
        let candidates = self.contacts.get(&group)?;
        candidates
            .iter()
            .copied()
            .find(|s| *s == self.site || self.fd.is_alive(*s))
            .or_else(|| candidates.first().copied())
    }

    // -- Routing to endpoints -----------------------------------------------------------------

    /// True if a member of `group` lives here: this site's endpoint has an installed view.
    fn is_member_site(&self, group: GroupId) -> bool {
        self.endpoints
            .get(&group)
            .is_some_and(|ep| ep.view().is_some())
    }

    /// Creates the group's endpoint unless this site already runs one.
    fn ensure_endpoint(&mut self, group: GroupId) {
        let (site, cfg, stats) = (self.site, self.proto_cfg, &self.stats);
        self.endpoints
            .entry(group)
            .or_insert_with(|| GroupEndpoint::new(group, site, cfg, stats.clone()));
    }

    /// Runs `f` on the group's endpoint, if this site runs one, handing it the clock and the
    /// reusable output buffer, then acts on whatever it emitted.
    fn with_endpoint<T>(
        &mut self,
        group: GroupId,
        out: &mut Outbox,
        f: impl FnOnce(&mut GroupEndpoint, SimTime, &mut Vec<EndpointOutput>) -> T,
    ) -> Option<T> {
        let ep = self.endpoints.get_mut(&group)?;
        let mut eouts = std::mem::take(&mut self.eout_scratch);
        let res = f(ep, self.now, &mut eouts);
        self.pump_endpoint_outputs(group, eouts, out);
        Some(res)
    }

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
                } => send_proto(self.site, dst_site, kind, msg, out),
                EndpointOutput::Deliver(d) => self.deliver_group_message(group, d, out),
                EndpointOutput::ViewChange(ev) => self.handle_view_change(group, ev, out),
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
                } => self.handle_rejoin_required(group, contact, observed_seq, out),
            }
        }
        // Return the drained buffer to the scratch slot (unless a re-entrant pump already
        // put a buffer back, or this buffer never grew beyond a fresh allocation).
        if self.eout_scratch.capacity() < outputs.capacity() {
            self.eout_scratch = outputs;
        }
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
        self.joins.view_installed(group, &ev.view);
        self.reforms.view_installed(group, out);
        // Tell reply collectors about departed members.
        for departed in ev.view.departed.clone() {
            self.sweep_sessions(
                1,
                self.rpc.last(),
                |c| c.on_failure(|p| *p == departed),
                out,
            );
        }
        // Notify local monitors.
        let locals: Vec<ProcessId> = self.processes.keys().copied().collect();
        for pid in locals {
            self.as_process(pid, out, |p, ctx| p.dispatch_view(ctx, &ev));
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

    /// Runs `f` as process `pid`, if it is still hosted here, then applies the actions it
    /// recorded.  The process entry is borrowed in place while the `ToolCtx` borrows the view
    /// and directory tables — disjoint fields, so no remove/re-insert round-trip through the
    /// process map per delivery.  Re-entrancy is safe because handlers only *record*
    /// actions; `apply_actions` runs after every borrow is released.
    fn as_process<T>(
        &mut self,
        pid: ProcessId,
        out: &mut Outbox,
        f: impl FnOnce(&mut IsisProcess, &mut ToolCtx<'_>) -> T,
    ) -> Option<T> {
        let process = self.processes.get_mut(&pid)?;
        let mut ctx = ToolCtx::new(pid, self.now, &self.views, &self.directory);
        let res = f(process, &mut ctx);
        let actions = ctx.take_actions();
        self.apply_actions(pid, actions, out);
        Some(res)
    }

    // Every message a handler sees passes here, so this is where the protection tool checks
    // the sender of a message addressed to a protected group (paper Section 3.10).
    fn dispatch_entry(&mut self, pid: ProcessId, entry: EntryId, msg: &Message, out: &mut Outbox) {
        let policy = msg.group().and_then(|g| self.policies.get(&g));
        if let Some(Err(why)) = policy.map(|p| p.validate_sender(msg)) {
            out.trace_with(|| format!("{pid}: protection rejected message at {entry:?}: {why}"));
            return;
        }
        if self.as_process(pid, out, |p, ctx| p.dispatch(ctx, entry, msg)) == Some(false) {
            out.trace_with(|| format!("{pid}: no handler bound at {entry:?}"));
        }
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

    /// Feeds `event` to the open sessions numbered `first..=last`, in session order, and runs
    /// the continuation of each that finishes as it finishes.  A continuation may re-enter
    /// the stack (a leave can install a view, whose departures fail other collections);
    /// sessions it opens are numbered past `last`, so this sweep never feeds them.
    fn sweep_sessions(
        &mut self,
        first: u64,
        last: u64,
        mut event: impl FnMut(&mut ReplyCollector) -> CollectorStatus,
        out: &mut Outbox,
    ) {
        let mut from = first;
        while let Some((c, callback, outcome)) = self.rpc.next_finished(from..=last, &mut event) {
            from = c.session + 1;
            self.as_process(c.caller, out, |_, ctx| callback(ctx, outcome));
        }
    }

    fn handle_reply(&mut self, pkt: &Packet, out: &mut Outbox) {
        let Some(session) = pkt.payload.session() else {
            return;
        };
        let Some(sender) = pkt.payload.sender() else {
            return;
        };
        // Superfluous replies (no such session open) are discarded silently.
        let reply = |c: &mut ReplyCollector| c.on_reply(sender, pkt.payload.to_message());
        self.sweep_sessions(session, session, reply, out);
    }

    // -- Failure handling -----------------------------------------------------------------------

    fn handle_site_failure(&mut self, failed_site: SiteId, out: &mut Outbox) {
        out.trace_with(|| format!("{}: site {failed_site} suspected failed", self.site));
        let groups: Vec<GroupId> = self.endpoints.keys().copied().collect();
        for g in groups {
            self.with_endpoint(g, out, |ep, now, eouts| {
                let failed = ep.view().map(|v| v.members_at(failed_site));
                if let Some(failed) = failed.filter(|f| !f.is_empty()) {
                    ep.report_failures(now, &failed, eouts);
                }
            });
        }
        let gone = |c: &mut ReplyCollector| c.on_failure(|p| p.site == failed_site);
        self.sweep_sessions(1, self.rpc.last(), gone, out);
    }

    /// A suspected site spoke again: the suspicion was a timeout artifact (delay spike or
    /// healed partition), not a crash.  Withdraw it from every group endpoint before any
    /// flush commits around the falsely suspected members.
    fn handle_site_recovery(&mut self, recovered_site: SiteId, out: &mut Outbox) {
        let groups: Vec<GroupId> = self.endpoints.keys().copied().collect();
        for g in groups {
            self.with_endpoint(g, out, |ep, now, eouts| {
                ep.unsuspect_site(now, recovered_site, eouts)
            });
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
        let tail = self.endpoints.remove(&group);
        let locals = tail
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
        // Reform and relay traffic is stack-to-stack: a reform concerns sites whose endpoints
        // are gone (that is the premise), a relay comes from a site with no endpoint for the
        // group, so neither may fault an endpoint into existence below.
        match decoded {
            ProtoMsg::ReformSummary {
                from_site,
                view_seq,
                covered,
                rank,
            } => {
                // A live view here means the group never fully failed: the sender must
                // abandon its reform and rejoin normally, with this site as contact.
                if self.is_member_site(group) {
                    let wire = ProtoMsg::ReformAlive { contact: self.site }.into_frame(group);
                    send_proto(self.site, *from_site, PacketKind::Control, wire, out);
                    return;
                }
                let summary = LogSummary {
                    site: *from_site,
                    view_seq: *view_seq,
                    covered: covered.clone(),
                    rank: *rank,
                };
                self.reforms.on_summary(group, summary, out);
                return;
            }
            ProtoMsg::ReformAlive { contact } => {
                self.reforms.on_alive(group, *contact);
                return;
            }
            ProtoMsg::Relay { protocol, payload } => {
                let sender = payload.sender().unwrap_or(pkt.src);
                self.multicast_to_group(sender, group, *protocol, payload.clone(), out);
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
                for entry in entries {
                    self.with_endpoint(entry.group, out, |ep, now, eouts| {
                        ep.on_gossip(now, *from_site, entry.view_seq, &entry.received, eouts)
                    });
                }
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
        self.ensure_endpoint(group);
        let from = pkt.src.site;
        let res = self.with_endpoint(group, out, |ep, now, eouts| {
            ep.on_message(now, from, &pkt.payload, eouts)
        });
        if let Some(Err(e)) = res {
            out.trace_with(|| format!("{}: protocol error in {group}: {e}", self.site));
        }
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
        // A heartbeat has done its work above and carries nothing to read.  Protocol frames
        // — everything else one site stack says to another — are recognised and read
        // without a field tree; what is left (replies, application traffic) is a symbol
        // table and gets one built here, lazily, if it arrived as bytes.  Bytes that decode
        // as neither are a corrupt datagram: traced and dropped.
        if pkt.kind == PacketKind::Heartbeat {
            return;
        }
        if ProtoMsg::is_proto_frame(&pkt.payload) {
            self.handle_proto(&pkt, out);
        } else if let Err(e) = pkt.payload.try_message() {
            out.trace_with(|| format!("{}: undecodable message from {}: {e}", self.site, pkt.src));
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
                    let hb = self.heartbeat.clone();
                    send_proto(self.site, *s, PacketKind::Heartbeat, hb, out);
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
        let mut eouts = std::mem::take(&mut self.eout_scratch);
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
        for bundle in &mut self.gossip {
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
                send_proto(self.site, *s, PacketKind::Stability, wire.clone(), out);
            }
        }
        for (g, outputs) in emitted {
            self.pump_endpoint_outputs(g, outputs, out);
        }
        // Re-submit joins whose view has still not installed: the first JoinReq, or the
        // coordinator holding the queued join, may have died with a crashed site.  Repeated
        // failures back off exponentially with deterministic jitter, resetting whenever a
        // view installs.
        let endpoints = &self.endpoints;
        let installed = |g, joiner| {
            endpoints
                .get(&g)
                .and_then(|ep| ep.view())
                .is_some_and(|v| v.contains(joiner))
        };
        for (group, joiner, credentials, attempt) in
            self.joins.due(now, self.cfg.failure_timeout, installed)
        {
            out.trace_with(|| {
                format!("{}: re-submitting join of {joiner} to {group:?}", self.site)
            });
            // A dead contact everywhere leaves the join pending for the next cadence.
            let _ = self.submit_join_request(group, joiner, credentials, attempt, out);
        }
        self.reforms.on_tick(now, self.cfg.failure_timeout, out);
        // RPC deadlines.
        self.sweep_sessions(1, self.rpc.last(), |c| c.on_tick(now), out);
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
        let joiner = ProcessId::new(SiteId(2), 1);
        let delays: Vec<Duration> = (0..6)
            .map(|a| joins::retry_delay(joiner, a, base))
            .collect();
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
        assert_eq!(
            joins::retry_delay(joiner, 2, base),
            joins::retry_delay(joiner, 2, base)
        );
        // Different joiners desynchronise.
        let other = ProcessId::new(SiteId(3), 1);
        assert_ne!(
            joins::retry_delay(other, 2, base),
            joins::retry_delay(joiner, 2, base)
        );
    }

    // -- Sans-io pins: one stack (or two, wired back to back) driven through `on_packet`
    // and `on_timer` with a free-standing `Outbox`, no runtime underneath.

    use std::cell::RefCell;
    use std::rc::Rc;

    use crate::process::ProcessBuilder;
    use vsync_proto::Frontier;
    use vsync_util::Duration;

    const G: GroupId = GroupId(7);

    fn pid(site: u16, local: u32) -> ProcessId {
        ProcessId::new(SiteId(site), local)
    }

    fn site_stack(site: u16, sites: u16) -> SiteStack {
        SiteStack::new(
            SiteId(site),
            (0..sites).map(SiteId).collect(),
            StackConfig::default(),
            ProtoConfig::default(),
            SharedStats::new(),
        )
    }

    /// A heartbeat from `from` to `to`: any packet proves its sender's site alive.
    fn heartbeat(from: u16, to: u16) -> Packet {
        Packet::new(
            protocols_process(SiteId(from)),
            protocols_process(SiteId(to)),
            PacketKind::Heartbeat,
            Message::new(),
        )
    }

    fn decode(pkt: &Packet) -> Option<ProtoMsg> {
        if !ProtoMsg::is_proto_frame(&pkt.payload) {
            return None;
        }
        ProtoMsg::decode_frame(&pkt.payload)
            .ok()
            .map(|(_, m)| m.clone())
    }

    /// Drains the outbox (timers too) and returns the destination site of every JoinReq.
    fn join_reqs(out: &mut Outbox) -> Vec<SiteId> {
        out.drain_timers().for_each(drop);
        out.drain_sends()
            .filter(|p| matches!(decode(p), Some(ProtoMsg::JoinReq { .. })))
            .map(|p| p.dst.site)
            .collect()
    }

    #[test]
    fn join_retries_back_off_rotate_contacts_and_stop_at_a_leave_or_a_view() {
        unanswered_join_backs_off_rotates_and_stops_at_a_leave();
        a_view_holding_the_joiner_ends_its_retries();
    }

    fn unanswered_join_backs_off_rotates_and_stops_at_a_leave() {
        let cfg = StackConfig::default();
        let joiner = pid(1, 1);
        let mut st = site_stack(1, 4);
        st.add_process(ProcessBuilder::new(joiner).build());
        st.register_group("g", G, vec![SiteId(0), SiteId(2), SiteId(3)]);
        let mut out = Outbox::new();
        st.on_start(SimTime::ZERO, &mut out);
        st.join_group(G, joiner, None, &mut out).unwrap();
        let mut sent: Vec<(SimTime, SiteId)> = join_reqs(&mut out)
            .into_iter()
            .map(|s| (SimTime::ZERO, s))
            .collect();
        // Every contact heartbeats, so none is ever suspected; none answers the join.
        let mut now = SimTime::ZERO;
        while sent.len() < 8 {
            now += cfg.tick_interval;
            assert!(
                now < SimTime::ZERO + Duration::from_secs(30),
                "re-sends stopped: {sent:?}"
            );
            for s in [0, 2, 3] {
                st.on_packet(now, heartbeat(s, 1), &mut out);
            }
            st.on_timer(now, TICK, &mut out);
            sent.extend(join_reqs(&mut out).into_iter().map(|s| (now, s)));
        }
        // Three re-sends to the preferred contact, then the rest of the contacts in turn.
        let dsts: Vec<u16> = sent.iter().map(|(_, s)| s.0).collect();
        assert_eq!(dsts, [0, 0, 0, 0, 2, 3, 2, 3]);
        // Re-send k waits `failure_timeout * 2^min(k-1, 3)` plus at most a quarter of that
        // in jitter, seen at tick granularity.
        for k in 1..sent.len() {
            let gap = sent[k].0.saturating_since(sent[k - 1].0);
            let backoff = cfg.failure_timeout.saturating_mul(1 << (k - 1).min(3));
            let most = backoff + Duration::from_micros(backoff.as_micros() / 4) + cfg.tick_interval;
            assert!(
                gap >= backoff && gap <= most,
                "re-send {k}: {gap:?} vs {backoff:?}"
            );
        }
        st.leave_group(G, joiner, &mut out).unwrap();
        assert!(join_reqs(&mut out).is_empty());
        let quiet_until = now + cfg.failure_timeout.saturating_mul(40);
        while now < quiet_until {
            now += cfg.tick_interval;
            for s in [0, 2, 3] {
                st.on_packet(now, heartbeat(s, 1), &mut out);
            }
            st.on_timer(now, TICK, &mut out);
            assert!(
                join_reqs(&mut out).is_empty(),
                "a leave must cancel the retry"
            );
        }
    }

    /// Delivers everything in the outbox to its site's stack, at once and in order, until
    /// nothing is left; `deaf` packets are dropped.  Returns the JoinReqs sent from site 1.
    fn settle(
        stacks: &mut [SiteStack],
        now: SimTime,
        out: &mut Outbox,
        deaf: impl Fn(&Packet) -> bool,
    ) -> usize {
        let mut joins = 0;
        loop {
            out.drain_timers().for_each(drop);
            let batch: Vec<Packet> = out.drain_sends().collect();
            if batch.is_empty() {
                return joins;
            }
            for pkt in batch {
                if pkt.src.site == SiteId(1)
                    && matches!(decode(&pkt), Some(ProtoMsg::JoinReq { .. }))
                {
                    joins += 1;
                }
                if !deaf(&pkt) {
                    let to = pkt.dst.site.0 as usize;
                    stacks[to].on_packet(now, pkt, out);
                }
            }
        }
    }

    fn a_view_holding_the_joiner_ends_its_retries() {
        let cfg = StackConfig::default();
        let (member, joiner) = (pid(0, 1), pid(1, 1));
        let mut stacks = [site_stack(0, 2), site_stack(1, 2)];
        stacks[0].add_process(ProcessBuilder::new(member).build());
        stacks[1].add_process(ProcessBuilder::new(joiner).build());
        let mut out = Outbox::new();
        stacks[0].create_group("g", G, member, &mut out);
        stacks[1].register_group("g", G, vec![SiteId(0)]);
        stacks[1].join_group(G, joiner, None, &mut out).unwrap();
        // The contact drops the first three JoinReqs (the request and two re-sends) and
        // takes the fourth.
        let mut joins = 0;
        let mut now = SimTime::ZERO;
        loop {
            let dropped = joins;
            joins += settle(&mut stacks, now, &mut out, |p| {
                dropped < 3 && matches!(decode(p), Some(ProtoMsg::JoinReq { .. }))
            });
            if stacks[1].view_of(G).is_some_and(|v| v.contains(joiner)) {
                break;
            }
            now += cfg.tick_interval;
            assert!(
                now < SimTime::ZERO + Duration::from_secs(30),
                "the join never installed"
            );
            for st in &mut stacks {
                st.on_timer(now, TICK, &mut out);
            }
        }
        assert_eq!(joins, 4);
        let quiet_until = now + cfg.failure_timeout.saturating_mul(40);
        while now < quiet_until {
            now += cfg.tick_interval;
            for st in &mut stacks {
                st.on_timer(now, TICK, &mut out);
            }
            assert_eq!(settle(&mut stacks, now, &mut out, |_| false), 0);
        }
        assert!(stacks[0].view_of(G).is_some_and(|v| v.contains(joiner)));
    }

    fn log_summary(site: u16, view_seq: u64) -> LogSummary {
        LogSummary {
            site: SiteId(site),
            view_seq,
            covered: Frontier::new(),
            rank: u64::from(site),
        }
    }

    fn summary_from(site: u16, view_seq: u64) -> Packet {
        let s = log_summary(site, view_seq);
        let wire = ProtoMsg::ReformSummary {
            from_site: s.site,
            view_seq: s.view_seq,
            covered: s.covered,
            rank: s.rank,
        }
        .into_frame(G);
        Packet::new(
            protocols_process(SiteId(site)),
            protocols_process(SiteId(1)),
            PacketKind::Control,
            wire,
        )
    }

    /// Drains the outbox; returns where each ReformSummary went and where each ReformAlive went.
    fn reform_sends(out: &mut Outbox) -> (Vec<u16>, Vec<u16>) {
        out.drain_timers().for_each(drop);
        let (mut summaries, mut alive) = (Vec::new(), Vec::new());
        for p in out.drain_sends() {
            match decode(&p) {
                Some(ProtoMsg::ReformSummary { from_site, .. }) => {
                    assert_eq!(from_site, SiteId(1));
                    summaries.push(p.dst.site.0);
                }
                Some(ProtoMsg::ReformAlive { contact }) => {
                    assert_eq!(contact, SiteId(1));
                    alive.push(p.dst.site.0);
                }
                _ => {}
            }
        }
        (summaries, alive)
    }

    #[test]
    fn reform_answers_each_outsider_once_and_an_installed_view_ends_it() {
        let cfg = StackConfig::default();
        let mut st = site_stack(1, 4);
        let mut out = Outbox::new();
        st.begin_reform(G, log_summary(1, 5), vec![SiteId(1), SiteId(2)], &mut out);
        assert_eq!(reform_sends(&mut out), (vec![2], vec![]));
        // Unresolved, the summary goes out again at the failure-timeout cadence.
        let now = SimTime::ZERO + cfg.failure_timeout;
        st.on_timer(now, TICK, &mut out);
        assert_eq!(reform_sends(&mut out), (vec![2], vec![]));
        // Site 3 is outside the expected set: answered once, however often it asks.
        for answer in [vec![3], vec![]] {
            st.on_packet(now, summary_from(3, 4), &mut out);
            assert_eq!(reform_sends(&mut out), (answer, vec![]));
        }
        assert!(matches!(
            st.reform_status(G, &mut out),
            Some(ReformStatus::Collecting { .. })
        ));
        // Site 2's newer log completes the election: we follow it.
        st.on_packet(now, summary_from(2, 6), &mut out);
        assert_eq!(reform_sends(&mut out), (vec![2], vec![]));
        assert_eq!(
            st.reform_status(G, &mut out),
            Some(ReformStatus::Follow { leader: SiteId(2) })
        );
        // Resolved: no more rebroadcasts, but a first-time sender is still answered once.
        st.on_timer(now + cfg.failure_timeout, TICK, &mut out);
        assert_eq!(reform_sends(&mut out), (vec![], vec![]));
        for (from, answer) in [(0, vec![0]), (0, vec![]), (3, vec![])] {
            st.on_packet(now, summary_from(from, 3), &mut out);
            assert_eq!(reform_sends(&mut out), (answer, vec![]));
        }
        // An installed view ends the run; a summary now learns the group is alive.
        let founder = pid(1, 1);
        st.add_process(ProcessBuilder::new(founder).build());
        st.create_group_at("g", G, founder, 7, &mut out);
        assert_eq!(st.reform_status(G, &mut out), None);
        st.on_packet(now, summary_from(3, 4), &mut out);
        assert_eq!(reform_sends(&mut out), (vec![], vec![3]));
    }

    #[test]
    fn a_site_failure_completes_its_collectors_in_session_order() {
        let cfg = StackConfig::default();
        let (caller, doomed) = (pid(0, 1), pid(0, 2));
        let mut st = site_stack(0, 3);
        st.add_process(ProcessBuilder::new(caller).build());
        st.add_process(ProcessBuilder::new(doomed).build());
        let mut out = Outbox::new();
        st.on_start(SimTime::ZERO, &mut out);
        type Runs = Rc<RefCell<Vec<(&'static str, Option<VsError>)>>>;
        // (tag, error) per continuation run.
        let ran: Runs = Rc::default();
        let record = |tag: &'static str| -> ReplyCallback {
            let ran = ran.clone();
            Box::new(move |_ctx, outcome| ran.borrow_mut().push((tag, outcome.error)))
        };
        let mut call = |st: &mut SiteStack, from, to: &[ProcessId], wanted, cb| {
            let dests = to.iter().copied().map(Address::Process).collect();
            let body = Message::new();
            st.issue_call(
                from,
                dests,
                EntryId(9),
                body,
                ProtocolKind::Cbcast,
                wanted,
                cb,
                &mut out,
            );
        };
        // Sessions 1..=5.  "a" re-enters the stack with a call of its own, session 6.
        let again = record("a-again");
        let ran_a = ran.clone();
        let a: ReplyCallback = Box::new(move |ctx, outcome| {
            ran_a.borrow_mut().push(("a", outcome.error));
            let to = vec![Address::Process(pid(1, 3))];
            ctx.call(
                to,
                EntryId(9),
                Message::new(),
                ProtocolKind::Cbcast,
                ReplyWanted::One,
                again,
            );
        });
        call(&mut st, caller, &[pid(1, 1)], ReplyWanted::One, Some(a));
        call(
            &mut st,
            caller,
            &[pid(2, 1)],
            ReplyWanted::One,
            Some(record("b")),
        );
        call(
            &mut st,
            caller,
            &[pid(1, 1), pid(1, 2)],
            ReplyWanted::All,
            Some(record("c")),
        );
        call(
            &mut st,
            caller,
            &[pid(1, 1), pid(2, 1)],
            ReplyWanted::All,
            Some(record("d")),
        );
        call(
            &mut st,
            doomed,
            &[pid(1, 1)],
            ReplyWanted::One,
            Some(record("x")),
        );
        st.crash_local_process(doomed, &mut out);
        // Site 2 keeps talking; site 1 falls silent until the detector suspects it.
        let mut now = SimTime::ZERO;
        while ran.borrow().is_empty() {
            now += cfg.tick_interval;
            assert!(
                now < SimTime::ZERO + cfg.rpc_timeout,
                "site 1 never suspected"
            );
            st.on_packet(now, heartbeat(2, 0), &mut out);
            st.on_timer(now, TICK, &mut out);
        }
        let failed = |tag| {
            (
                tag,
                Some(VsError::AllDestinationsFailed { wanted: 1, got: 0 }),
            )
        };
        let failed_all =
            |tag, wanted| (tag, Some(VsError::AllDestinationsFailed { wanted, got: 0 }));
        assert_eq!(*ran.borrow(), [failed("a"), failed_all("c", 2)]);
        // Replies from site 2 finish the rest; "d" lost site 1 and completes short.
        for session in [4, 2] {
            let mut reply = Message::with_body(session);
            reply.set_sender(pid(2, 1));
            reply.set_session(session);
            reply.mark_reply(false);
            st.on_packet(
                now,
                Packet::new(pid(2, 1), caller, PacketKind::Reply, reply),
                &mut out,
            );
        }
        assert_eq!(
            *ran.borrow(),
            [failed("a"), failed_all("c", 2), ("d", None), ("b", None)]
        );
        // Session 6 opened during the sweep, so that sweep never saw it: it runs out its
        // own deadline.  The crashed caller's "x" never runs.
        let deadline = now + cfg.rpc_timeout;
        while now <= deadline {
            now += cfg.tick_interval;
            st.on_packet(now, heartbeat(2, 0), &mut out);
            st.on_timer(now, TICK, &mut out);
        }
        let ran = ran.borrow();
        assert_eq!(ran.len(), 5, "{ran:?}");
        assert_eq!(ran[4].0, "a-again");
        assert!(matches!(ran[4].1, Some(VsError::Timeout(_))), "{ran:?}");
    }
}
