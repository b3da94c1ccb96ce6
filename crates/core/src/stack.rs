//! The per-site protocols process (paper Figure 1).
//!
//! "The system is organized around a protocols process which implements the multicast
//! primitives, handles process group addressing and does all inter-site communication.  This
//! process maintains process group membership views, using a cache for groups not resident at
//! the site.  Client programs are linked directly to whatever tools they employ."
//!
//! [`SiteStack`] is that process.  It routes each group's traffic to the group's
//! [`GroupEndpoint`], hosts the client processes themselves (entry handlers and monitors),
//! runs the failure detector, and relays multicasts issued by clients that are not members
//! of the destination group to a site that is.  Three of its jobs have an owner of their own:
//!
//! * `stack::membership` — one intent per local process and group (joining, restarting,
//!   member, leaving) and the credentials to join again, moved by one transition function,
//!   whose refound, join or re-send the stack runs;
//! * `stack::reform` — the total-failure elections in progress here (paper Section 3.8),
//!   whose verdicts go to the intents, and the JoinReqs that wait for a lead's refound;
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
//!
//! An ABCAST's proposals and orders are paced by the site's packets, not by the group's
//! multicasts: while the driver has another packet ready ([`Outbox::packet_follows`]) the
//! endpoints keep the entries they make, and when the run of packets ends, and at the end of
//! every other call, each sends them as one proposal frame per initiator and one order frame
//! for all its peers ([`GroupEndpoint::send_held`]).
//!
//! A site's part in a group is its endpoint.  A local create, refound or join makes it, no
//! frame does, and it lives while its view holds a local member or a local process has an
//! intent in the group (`retire_if_idle`); a commit that finds none but joins a process of
//! this site, whose join ended before the cut, is answered with a failure report.  A member
//! lives here when that view holds a process of this site; the view has no other copy, and
//! a group not resident here is known by its contact sites alone, Figure 1's cache.

mod membership;
mod reform;

use std::collections::BTreeMap;

use vsync_msg::{fields, Frame, Message};
use vsync_net::{Outbox, Packet, PacketKind, ProtocolKind, SharedStats, SiteHandler};
use vsync_proto::messages::{ProtoMsg, StabilityEntry};
use vsync_proto::{Delivery, EndpointOutput, GroupEndpoint, ProtoConfig, View, ViewEvent};
use vsync_util::{Address, EntryId, GroupId, ProcessId, Result, SimTime, SiteId, VsError};

use crate::config::StackConfig;
use crate::process::{CtxAction, IsisProcess, ReplyCallback, ToolCtx};
use crate::protection::ProtectionPolicy;
use crate::rpc::{CollectorStatus, ReplyCollector, ReplyWanted, RpcOutcome, RpcSessions};
use membership::{Input, Intent, Membership};
use reform::ReformRun;
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
    /// Symbolic name -> group id (the namespace cache).
    directory: BTreeMap<String, GroupId>,
    /// Group id -> candidate contact sites: registered, or from each view installed here.
    contacts: BTreeMap<GroupId, Vec<SiteId>>,
    policies: BTreeMap<GroupId, ProtectionPolicy>,
    fd: FailureDetector,
    /// What this site is doing for each local process in each group.
    membership: Membership,
    /// Total-failure elections in progress at this site, by group.
    reforms: BTreeMap<GroupId, ReformRun>,
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
    /// The groups whose endpoints were reached during the current run of packets before its
    /// last, and so may hold ordering entries (see `end_run`).
    in_run: Vec<GroupId>,
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
            directory: BTreeMap::new(),
            contacts: BTreeMap::new(),
            policies: BTreeMap::new(),
            fd,
            membership: Membership::default(),
            reforms: BTreeMap::new(),
            rpc: RpcSessions::default(),
            now: SimTime::ZERO,
            last_heartbeat: None,
            heartbeat: Frame::new(Message::new()),
            gossip: Vec::new(),
            member_scratch: Vec::new(),
            eout_scratch: Vec::new(),
            in_run: Vec::new(),
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

    /// The view of the group installed here; `None` where no member lives or a join waits.
    pub fn view_of(&self, group: GroupId) -> Option<&View> {
        self.endpoints.get(&group).and_then(GroupEndpoint::view)
    }

    /// True if this site runs a protocol endpoint for the group: a member lives here, or a
    /// local process has an intent in it.  Diagnostic: traffic about a group this site has
    /// no part in must not leave one behind.
    ///
    /// Callers: `tests/gossip_bundle.rs`, `tests/rt_conformance.rs`.
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

    /// Installs a protection policy for a group: joins are checked wherever they enter this
    /// site, and senders on every message dispatched here.
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
    fn create_group_at(
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

    /// The protection tool's check on a join (paper Section 3.10), made wherever a join
    /// enters this site: submitted by a local process, or arriving as a `JoinReq`.
    fn admit_join(
        &self,
        group: GroupId,
        joiner: ProcessId,
        credentials: Option<&str>,
        out: &mut Outbox,
    ) -> Result<()> {
        let Some(Err(why)) = self
            .policies
            .get(&group)
            .map(|p| p.validate_join(credentials))
        else {
            return Ok(());
        };
        out.trace_with(|| format!("{}: join of {joiner} to {group} refused: {why}", self.site));
        Err(VsError::JoinRefused(why))
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
                    // No view here (an outside client, a former member): open-ended.
                    Address::Group(g) => match self.view_of(*g) {
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
        if self.is_member_site(group) {
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
        // Not a member site: relay through a contact site (Figure 1's cache of contact
        // sites and forwarding path for external clients).
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

    /// True if a member of `group` lives here: the endpoint's view holds a local process.
    fn is_member_site(&self, group: GroupId) -> bool {
        self.endpoints
            .get(&group)
            .is_some_and(|ep| !ep.local_members().is_empty())
    }

    /// Runs `f` on the group's endpoint, if this site runs one, handing it the clock and the
    /// reusable output buffer, then acts on whatever it emitted.
    ///
    /// While a packet is handled that another packet follows, the endpoint keeps the ABCAST
    /// proposals and orders it made, and the group is noted for the end of the run; in any
    /// other call it sends them before this returns, so no entry outlives the run, or the
    /// call, that made it.
    fn with_endpoint<T>(
        &mut self,
        group: GroupId,
        out: &mut Outbox,
        f: impl FnOnce(&mut GroupEndpoint, SimTime, &mut Vec<EndpointOutput>) -> T,
    ) -> Option<T> {
        let ep = self.endpoints.get_mut(&group)?;
        let mut eouts = std::mem::take(&mut self.eout_scratch);
        let res = f(ep, self.now, &mut eouts);
        if !out.packet_follows() {
            ep.send_held(&mut eouts);
        } else if !self.in_run.contains(&group) {
            self.in_run.push(group);
        }
        self.pump_endpoint_outputs(group, eouts, out);
        Some(res)
    }

    /// Ends a run of packets: every endpoint reached during it sends the ordering entries it
    /// holds, one proposal frame per initiator and one order frame for all its peers.
    fn end_run(&mut self, out: &mut Outbox) {
        for i in 0..self.in_run.len() {
            // With no packet to follow, reaching an endpoint sends what it holds.
            self.with_endpoint(self.in_run[i], out, |_, _, _| ());
        }
        self.in_run.clear();
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
        self.retire_if_idle(group);
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
        self.contacts.insert(group, ev.view.member_sites());
        // Every live local member of the view, and every intent in the group it leaves out.
        let members = ev.view.members_at(self.site);
        for m in members.iter().filter(|m| self.processes.contains_key(m)) {
            self.membership.step(group, *m, Input::ViewWith);
        }
        let without = |p, _: &_| !members.contains(&p);
        self.membership
            .step_each(Some(group), without, |_| Input::ViewWithout);
        if self.reforms.contains_key(&group) && !self.membership.any_in(group, Intent::joining) {
            self.reforms.remove(&group);
            out.trace_with(|| format!("{}: reform of {group} complete, view installed", self.site));
        }
        self.report_ended_joins(group, &ev.view, out);
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
    /// recorded.  The process entry is borrowed in place while the `ToolCtx` borrows the
    /// endpoint and directory tables — disjoint fields, so no remove/re-insert round-trip
    /// through the process map per delivery.  Re-entrancy is safe because handlers only *record*
    /// actions; `apply_actions` runs after every borrow is released.
    fn as_process<T>(
        &mut self,
        pid: ProcessId,
        out: &mut Outbox,
        f: impl FnOnce(&mut IsisProcess, &mut ToolCtx<'_>) -> T,
    ) -> Option<T> {
        let process = self.processes.get_mut(&pid)?;
        let mut ctx = ToolCtx::new(pid, self.now, &self.endpoints, &self.directory);
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
        // group.  Everything else goes to the group's endpoint here, and is dropped if this
        // site runs none: no frame makes one.
        match decoded {
            ProtoMsg::ReformSummary { .. } | ProtoMsg::ReformAlive { .. } => {
                return self.on_reform_frame(group, decoded, out);
            }
            ProtoMsg::Relay { protocol, payload } => {
                let sender = payload.sender().unwrap_or(pkt.src);
                self.multicast_to_group(sender, group, *protocol, payload.clone(), out);
                return;
            }
            // A stability frame is site-to-site too: each entry goes to the endpoint of its
            // group.  A group with no endpoint here (a view that does not span this site
            // any more, a corrupt entry) is skipped.
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
            ProtoMsg::JoinReq {
                joiner,
                credentials,
            } if self
                .admit_join(group, *joiner, credentials.as_deref(), out)
                .is_err() =>
            {
                return;
            }
            _ => {}
        }
        let from = pkt.src.site;
        let res = self.with_endpoint(group, out, |ep, now, eouts| {
            ep.on_message(now, from, &pkt.payload, eouts)
        });
        match (res, decoded) {
            (Some(Err(e)), _) => {
                out.trace_with(|| format!("{}: protocol error in {group}: {e}", self.site));
            }
            // A JoinReq that finds no endpoint waits for this site's election, if one runs.
            (None, ProtoMsg::JoinReq { joiner, .. }) => {
                if let Some(run) = self.reforms.get_mut(&group) {
                    run.kept.insert(*joiner, pkt.clone());
                }
            }
            // A commit that finds no endpoint joins a process of this site only if its join
            // ended (it left or died) before this cut: the group must not wait on it.
            (None, ProtoMsg::FlushCommit { view, .. }) => self.report_ended_joins(group, view, out),
            _ => {}
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

    fn handle_packet(&mut self, pkt: Packet, out: &mut Outbox) {
        let now = self.now;
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
}

impl SiteHandler for SiteStack {
    fn on_start(&mut self, now: SimTime, out: &mut Outbox) {
        self.now = now;
        out.set_timer(self.cfg.tick_interval, TICK);
    }

    /// Handles one packet.  The ABCAST ordering entries it makes are held while the driver
    /// has another packet ready ([`Outbox::packet_follows`]) and sent when the run ends.
    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Outbox) {
        self.now = now;
        self.handle_packet(pkt, out);
        if !out.packet_follows() {
            self.end_run(out);
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
            // A view the watchdog installs replays held-back traffic, which can make entries.
            ep.send_held(&mut eouts);
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
        // Re-send joins whose view has still not installed: the first JoinReq, or the
        // coordinator holding the queued join, may have died with a crashed site.  Repeated
        // failures back off exponentially with deterministic jitter, resetting whenever a
        // view installs.
        let base = self.cfg.failure_timeout;
        let tick = |joiner| Input::Tick(now, base, joiner);
        for (group, pid, action) in self.membership.step_each(None, |_, i| i.joining(), tick) {
            self.act(group, pid, action, out);
        }
        self.reform_tick(out);
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
            .map(|a| membership::retry_delay(joiner, a, base))
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
            membership::retry_delay(joiner, 2, base),
            membership::retry_delay(joiner, 2, base)
        );
        // Different joiners desynchronise.
        let other = ProcessId::new(SiteId(3), 1);
        assert_ne!(
            membership::retry_delay(other, 2, base),
            membership::retry_delay(joiner, 2, base)
        );
    }

    // -- Sans-io pins: one stack (or two, wired back to back) driven through `on_packet`
    // and `on_timer` with a free-standing `Outbox`, no runtime underneath.

    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use crate::process::ProcessBuilder;
    use vsync_net::MsgId;
    use vsync_proto::messages::wire_stats;
    use vsync_proto::{Frontier, LogSummary};
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
        let (joins, now) = run_until_joined(&mut stacks, joiner, 3, SimTime::ZERO, &mut out);
        assert_eq!(joins, 4);
        assert!(stacks[0].view_of(G).is_some_and(|v| v.contains(joiner)));
        // A member's join changes nothing: no request goes out, now or on a later tick.
        stacks[1].join_group(G, joiner, None, &mut out).unwrap();
        assert_eq!(run_until_joined(&mut stacks, joiner, 0, now, &mut out).0, 0);
    }

    /// Runs sites 0 and 1 from `now`, ticking both and delivering everything with site 1's
    /// first `lost` JoinReqs dropped, until `joiner`'s view installs at site 1; then 40
    /// failure timeouts more, in which no JoinReq may go out.  Returns how many site 1 sent,
    /// and the time the run ended.
    fn run_until_joined(
        stacks: &mut [SiteStack; 2],
        joiner: ProcessId,
        lost: usize,
        mut now: SimTime,
        out: &mut Outbox,
    ) -> (usize, SimTime) {
        let cfg = StackConfig::default();
        let mut joins = 0;
        loop {
            let dropped = joins;
            joins += settle(stacks, now, out, |p| {
                dropped < lost && matches!(decode(p), Some(ProtoMsg::JoinReq { .. }))
            });
            if stacks[1].view_of(G).is_some_and(|v| v.contains(joiner)) {
                break;
            }
            now += cfg.tick_interval;
            assert!(
                now < SimTime::ZERO + Duration::from_secs(30),
                "the join never installed"
            );
            for st in stacks.iter_mut() {
                st.on_timer(now, TICK, out);
            }
        }
        let quiet_until = now + cfg.failure_timeout.saturating_mul(40);
        while now < quiet_until {
            now += cfg.tick_interval;
            for st in stacks.iter_mut() {
                st.on_timer(now, TICK, out);
            }
            assert_eq!(settle(stacks, now, out, |_| false), 0);
        }
        (joins, now)
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

    /// Drains the outbox; returns where each ReformSummary, each ReformAlive and each
    /// JoinReq went.
    fn reform_sends(out: &mut Outbox) -> (Vec<u16>, Vec<u16>, Vec<u16>) {
        out.drain_timers().for_each(drop);
        let (mut summaries, mut alive, mut joins) = (Vec::new(), Vec::new(), Vec::new());
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
                Some(ProtoMsg::JoinReq { .. }) => joins.push(p.dst.site.0),
                _ => {}
            }
        }
        (summaries, alive, joins)
    }

    /// A stack at site 1 of 4 hosting `member`, which restarts from a log that recorded
    /// view 5, with site 2 the only other expected participant.
    fn reforming_site(member: ProcessId, out: &mut Outbox) -> SiteStack {
        let mut st = site_stack(1, 4);
        st.add_process(ProcessBuilder::new(member).build());
        let expected = vec![SiteId(1), SiteId(2)];
        st.begin_reform("g", G, member, None, log_summary(1, 5), expected, out);
        st
    }

    #[test]
    fn reform_answers_each_outsider_once_and_an_installed_view_ends_it() {
        let cfg = StackConfig::default();
        let member = pid(1, 1);
        let mut out = Outbox::new();
        let mut st = reforming_site(member, &mut out);
        assert_eq!(reform_sends(&mut out), (vec![2], vec![], vec![]));
        // Unresolved, the summary goes out again at the failure-timeout cadence.
        let now = SimTime::ZERO + cfg.failure_timeout;
        st.on_timer(now, TICK, &mut out);
        assert_eq!(reform_sends(&mut out), (vec![2], vec![], vec![]));
        // Site 3 is outside the expected set: answered once, however often it asks.
        for answer in [vec![3], vec![]] {
            st.on_packet(now, summary_from(3, 4), &mut out);
            assert_eq!(reform_sends(&mut out), (answer, vec![], vec![]));
        }
        // Still collecting: a tick neither founds the group nor joins the member.
        st.on_timer(now, TICK, &mut out);
        assert_eq!(reform_sends(&mut out), (vec![], vec![], vec![]));
        assert!(st.view_of(G).is_none());
        // Site 2's newer log completes the election: we follow it, joining through it.
        st.on_packet(now, summary_from(2, 6), &mut out);
        assert_eq!(reform_sends(&mut out), (vec![2], vec![], vec![]));
        st.on_timer(now, TICK, &mut out);
        assert_eq!(reform_sends(&mut out), (vec![], vec![], vec![2]));
        // Resolved: no more rebroadcasts (the join may be re-sent), but a first-time sender
        // is still answered once.
        st.on_timer(now + cfg.failure_timeout, TICK, &mut out);
        let (summaries, alive, joins) = reform_sends(&mut out);
        assert_eq!((summaries, alive), (vec![], vec![]));
        assert!(joins.iter().all(|s| *s == 2), "{joins:?}");
        for (from, answer) in [(0, vec![0]), (0, vec![]), (3, vec![])] {
            st.on_packet(now, summary_from(from, 3), &mut out);
            assert_eq!(reform_sends(&mut out), (answer, vec![], vec![]));
        }
        // An installed view ends the run and the join; a summary now learns the group is
        // alive.
        st.create_group_at("g", G, member, 7, &mut out);
        st.on_timer(now + cfg.failure_timeout.saturating_mul(20), TICK, &mut out);
        assert_eq!(reform_sends(&mut out), (vec![], vec![], vec![]));
        st.on_packet(now, summary_from(3, 4), &mut out);
        assert_eq!(reform_sends(&mut out), (vec![], vec![3], vec![]));
    }

    #[test]
    fn a_lead_verdict_founds_the_group_with_the_waiting_member() {
        let cfg = StackConfig::default();
        let member = pid(1, 1);
        let mut out = Outbox::new();
        let mut st = reforming_site(member, &mut out);
        // Site 2's log stopped a view earlier: ours wins once the tick resolves it.
        st.on_packet(SimTime::ZERO, summary_from(2, 4), &mut out);
        assert_eq!(reform_sends(&mut out), (vec![2, 2], vec![], vec![]));
        assert!(st.view_of(G).is_none());
        st.on_timer(SimTime::ZERO + cfg.tick_interval, TICK, &mut out);
        let v = st.view_of(G).expect("the lead refounds the group");
        assert_eq!((v.seq(), &v.members[..]), (6, &[member][..]));
        assert_eq!(st.lookup("g"), Some(G));
        assert_eq!(reform_sends(&mut out), (vec![], vec![], vec![]));
    }

    #[test]
    fn a_follow_verdict_joins_the_member_through_the_leader_until_it_has_refounded() {
        let cfg = StackConfig::default();
        let (lead, follower) = (pid(0, 1), pid(1, 1));
        let mut stacks = [site_stack(0, 2), site_stack(1, 2)];
        stacks[0].add_process(ProcessBuilder::new(lead).build());
        stacks[1].add_process(ProcessBuilder::new(follower).build());
        let mut out = Outbox::new();
        let sites = vec![SiteId(0), SiteId(1)];
        stacks[0].begin_reform(
            "g",
            G,
            lead,
            None,
            log_summary(0, 6),
            sites.clone(),
            &mut out,
        );
        stacks[1].begin_reform("g", G, follower, None, log_summary(1, 5), sites, &mut out);
        let mut now = SimTime::ZERO;
        assert_eq!(settle(&mut stacks, now, &mut out, |_| false), 0);
        // The follower acts first: its JoinReq reaches a leader that has not refounded, which
        // keeps it for its own verdict.
        now += cfg.tick_interval;
        stacks[1].on_timer(now, TICK, &mut out);
        assert_eq!(settle(&mut stacks, now, &mut out, |_| false), 1);
        assert!(stacks.iter().all(|st| st.view_of(G).is_none()));
        // The leader refounds at view 7 and admits the kept join at once: the follower's view
        // installs in the settle that follows, and no JoinReq is ever re-sent.
        stacks[0].on_timer(now, TICK, &mut out);
        assert!(stacks[1].view_of(G).is_none());
        assert_eq!(settle(&mut stacks, now, &mut out, |_| false), 0);
        assert!(stacks[1].view_of(G).is_some_and(|v| v.contains(follower)));
        assert_eq!(
            run_until_joined(&mut stacks, follower, 0, now, &mut out).0,
            0
        );
        for st in &stacks {
            let v = st.view_of(G).unwrap();
            assert_eq!((v.seq(), &v.members[..]), (8, &[lead, follower][..]));
        }
    }

    #[test]
    fn an_operational_verdict_joins_through_the_live_member_and_ends_the_run() {
        let cfg = StackConfig::default();
        let (live, restarting) = (pid(0, 1), pid(1, 1));
        let mut stacks = [site_stack(0, 2), site_stack(1, 2)];
        stacks[0].add_process(ProcessBuilder::new(live).build());
        stacks[1].add_process(ProcessBuilder::new(restarting).build());
        let mut out = Outbox::new();
        stacks[0].create_group("g", G, live, &mut out);
        let sites = vec![SiteId(0), SiteId(1)];
        stacks[1].begin_reform("g", G, restarting, None, log_summary(1, 5), sites, &mut out);
        // Counts what site 1 is told is alive and what it says, as `settle` delivers it.
        let (alive, summaries) = (Cell::new(0), Cell::new(0));
        let count = |p: &Packet| {
            match decode(p) {
                Some(ProtoMsg::ReformAlive { contact: SiteId(0) }) => alive.set(alive.get() + 1),
                Some(ProtoMsg::ReformSummary {
                    from_site: SiteId(1),
                    ..
                }) => summaries.set(summaries.get() + 1),
                _ => {}
            }
            false
        };
        let mut now = SimTime::ZERO;
        assert_eq!(settle(&mut stacks, now, &mut out, count), 0);
        assert_eq!((alive.get(), summaries.get()), (1, 1));
        // The verdict joins the member through the live site, whose view admits it.
        now += cfg.tick_interval;
        stacks[1].on_timer(now, TICK, &mut out);
        assert_eq!(settle(&mut stacks, now, &mut out, count), 1);
        for st in &stacks {
            let v = st.view_of(G).expect("the member joined");
            assert_eq!((v.seq(), &v.members[..]), (2, &[live, restarting][..]));
        }
        // The view ended the run: no summary or JoinReq goes out again, and a summary that
        // arrives now learns the group is alive.
        let quiet_until = now + cfg.failure_timeout.saturating_mul(10);
        while now < quiet_until {
            now += cfg.tick_interval;
            for st in stacks.iter_mut() {
                st.on_timer(now, TICK, &mut out);
            }
            assert_eq!(settle(&mut stacks, now, &mut out, count), 0);
        }
        assert_eq!((alive.get(), summaries.get()), (1, 1));
        stacks[1].on_packet(now, summary_from(0, 3), &mut out);
        assert_eq!(reform_sends(&mut out), (vec![], vec![0], vec![]));
    }

    #[test]
    fn a_join_that_ends_before_its_view_leaves_nothing_behind() {
        let cfg = StackConfig::default();
        let joiner = pid(1, 1);
        for case in ["refused", "left", "crashed"] {
            let mut st = site_stack(1, 3);
            st.add_process(ProcessBuilder::new(joiner).build());
            let mut out = Outbox::new();
            st.on_start(SimTime::ZERO, &mut out);
            if case == "refused" {
                // No contact is known yet: the join fails at submission.
                let res = st.join_group(G, joiner, None, &mut out);
                assert_eq!(res, Err(VsError::NoSuchGroup(G)));
                st.register_group("g", G, vec![SiteId(0), SiteId(2)]);
            } else {
                st.register_group("g", G, vec![SiteId(0), SiteId(2)]);
                st.join_group(G, joiner, None, &mut out).unwrap();
                assert_eq!(join_reqs(&mut out), [SiteId(0)]);
                if case == "left" {
                    st.leave_group(G, joiner, &mut out).unwrap();
                } else {
                    st.crash_local_process(joiner, &mut out);
                }
            }
            let (mut now, mut sent) = (SimTime::ZERO, join_reqs(&mut out).len());
            while now < SimTime::ZERO + cfg.failure_timeout.saturating_mul(10) {
                now += cfg.tick_interval;
                for s in [0, 2] {
                    st.on_packet(now, heartbeat(s, 1), &mut out);
                }
                st.on_timer(now, TICK, &mut out);
                sent += join_reqs(&mut out).len();
            }
            assert_eq!((st.has_endpoint(G), sent), (false, 0), "{case}");
        }
    }

    #[test]
    fn a_join_that_ends_before_its_cut_never_holds_up_the_group() {
        let (member, joiner, next) = (pid(0, 1), pid(1, 1), pid(1, 2));
        for case in ["left", "crashed", "refused again"] {
            let mut stacks = [site_stack(0, 2), site_stack(1, 2)];
            stacks[0].add_process(ProcessBuilder::new(member).build());
            for p in [joiner, next] {
                stacks[1].add_process(ProcessBuilder::new(p).build());
            }
            let mut out = Outbox::new();
            stacks[0].create_group("g", G, member, &mut out);
            stacks[1].register_group("g", G, vec![SiteId(0)]);
            stacks[1].set_policy(G, ProtectionPolicy::open().with_join_credential("k"));
            stacks[1]
                .join_group(G, joiner, Some("k".into()), &mut out)
                .unwrap();
            // The JoinReq is on its way to the coordinator when the join ends, or when a
            // repeat of it is refused, which leaves it to stand.
            let mut joined = vec![];
            match case {
                "left" => stacks[1].leave_group(G, joiner, &mut out).unwrap(),
                "crashed" => stacks[1].crash_local_process(joiner, &mut out),
                _ => {
                    let refused = stacks[1].join_group(G, joiner, None, &mut out);
                    assert!(
                        matches!(refused, Err(VsError::JoinRefused(_))),
                        "{refused:?}"
                    );
                    joined.push(joiner);
                }
            }
            assert_eq!(stacks[1].has_endpoint(G), !joined.is_empty(), "{case}");
            settle(&mut stacks, SimTime::ZERO, &mut out, |_| false);
            // A join that ended got its cut all the same, and site 1 answered it with a
            // failure report: the next cut left the joiner out without waiting on site 1.
            let v = stacks[0].view_of(G).expect("the group lives");
            let seq = if joined.is_empty() { 3 } else { 2 };
            assert_eq!(v.seq(), seq, "{case}");
            assert_eq!(stacks[1].has_endpoint(G), !joined.is_empty(), "{case}");
            // The group's next view change completes at both sites.
            stacks[1]
                .join_group(G, next, Some("k".into()), &mut out)
                .unwrap();
            settle(&mut stacks, SimTime::ZERO, &mut out, |_| false);
            joined.push(next);
            for st in &stacks {
                let v = st.view_of(G).expect("site 1 holds a member");
                assert_eq!(v.seq(), seq + 1, "{case}");
                assert_eq!(v.members, [&[member][..], &joined].concat(), "{case}");
            }
        }
    }

    #[test]
    fn a_joiner_that_dies_before_its_cut_beside_a_member_is_reported_at_the_cut() {
        let (member, local, joiner) = (pid(0, 1), pid(1, 1), pid(1, 2));
        let mut stacks = [site_stack(0, 2), site_stack(1, 2)];
        stacks[0].add_process(ProcessBuilder::new(member).build());
        for p in [local, joiner] {
            stacks[1].add_process(ProcessBuilder::new(p).build());
        }
        let mut out = Outbox::new();
        stacks[0].create_group("g", G, member, &mut out);
        stacks[1].register_group("g", G, vec![SiteId(0)]);
        stacks[1].join_group(G, local, None, &mut out).unwrap();
        settle(&mut stacks, SimTime::ZERO, &mut out, |_| false);
        // Site 1 is a member site now: the join goes through its endpoint, and the joiner
        // dies before the cut, which no view held it in to report.
        stacks[1].join_group(G, joiner, None, &mut out).unwrap();
        stacks[1].crash_local_process(joiner, &mut out);
        settle(&mut stacks, SimTime::ZERO, &mut out, |_| false);
        for st in &stacks {
            let v = st.view_of(G).expect("the group lives");
            assert_eq!((v.seq(), &v.members[..]), (4, &[member, local][..]));
        }
    }

    #[test]
    fn a_leave_of_a_joiner_whose_join_was_lost_runs_no_flush() {
        let (member, other, joiner) = (pid(0, 1), pid(2, 1), pid(1, 1));
        let mut stacks = [site_stack(0, 3), site_stack(1, 3), site_stack(2, 3)];
        for (site, p) in [(0, member), (1, joiner), (2, other)] {
            stacks[site].add_process(ProcessBuilder::new(p).build());
        }
        let mut out = Outbox::new();
        stacks[0].create_group("g", G, member, &mut out);
        for site in [1, 2] {
            stacks[site].register_group("g", G, vec![SiteId(0)]);
        }
        stacks[2].join_group(G, other, None, &mut out).unwrap();
        settle(&mut stacks, SimTime::ZERO, &mut out, |_| false);
        // The JoinReq is lost; the joiner's leave reaches the coordinator.
        stacks[1].join_group(G, joiner, None, &mut out).unwrap();
        let is_join = |p: &Packet| matches!(decode(p), Some(ProtoMsg::JoinReq { .. }));
        settle(&mut stacks, SimTime::ZERO, &mut out, is_join);
        stacks[1].leave_group(G, joiner, &mut out).unwrap();
        let flushes = Cell::new(0);
        settle(&mut stacks, SimTime::ZERO, &mut out, |p| {
            let flush = matches!(decode(p), Some(ProtoMsg::FlushReq { .. }));
            flushes.set(flushes.get() + usize::from(flush));
            false
        });
        assert_eq!(flushes.get(), 0, "a flush for a leave that changes nothing");
        for site in [0, 2] {
            let v = stacks[site].view_of(G).expect("the group lives");
            assert_eq!((v.seq(), &v.members[..]), (2, &[member, other][..]));
        }
    }

    #[test]
    fn a_reform_whose_member_died_is_dropped() {
        let cfg = StackConfig::default();
        let member = pid(1, 1);
        let mut out = Outbox::new();
        let mut st = reforming_site(member, &mut out);
        assert_eq!(reform_sends(&mut out), (vec![2], vec![], vec![]));
        st.crash_local_process(member, &mut out);
        // Site 2's older log would make us lead: nobody is left to found the group with, so
        // the summary goes unanswered and nothing is founded, joined or rebroadcast.
        st.on_packet(SimTime::ZERO, summary_from(2, 4), &mut out);
        let mut now = SimTime::ZERO;
        while now < SimTime::ZERO + cfg.failure_timeout.saturating_mul(3) {
            now += cfg.tick_interval;
            st.on_timer(now, TICK, &mut out);
            assert_eq!(reform_sends(&mut out), (vec![], vec![], vec![]));
        }
        assert!(st.view_of(G).is_none());
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

    // -- ABCAST ordering frames: held through a run of packets, sent when it ends, and never
    // overtaken by a later frame to the same site.

    const APPLY: EntryId = EntryId(3);

    /// What the members delivered: `(site, body)` in delivery order, all sites in one log.
    type Log = Rc<RefCell<Vec<(u16, u64)>>>;

    /// Stacks for sites `0..n`, each hosting member `(site, 1)`, which logs what it is
    /// delivered, in group `G`: founded at site 0, the others joined one by one.
    fn abcast_group(n: u16) -> (Vec<SiteStack>, Log) {
        let log: Log = Rc::default();
        let mut stacks: Vec<SiteStack> = (0..n).map(|s| site_stack(s, n)).collect();
        for (s, st) in (0..n).zip(stacks.iter_mut()) {
            let mut b = ProcessBuilder::new(pid(s, 1));
            let log = log.clone();
            b.on_entry(APPLY, move |_ctx, msg| {
                let body = msg.get_u64("body").expect("a body");
                log.borrow_mut().push((s, body));
            });
            st.add_process(b.build());
        }
        let mut out = Outbox::new();
        stacks[0].create_group("g", G, pid(0, 1), &mut out);
        for s in 1..n {
            let st = &mut stacks[usize::from(s)];
            st.register_group("g", G, vec![SiteId(0)]);
            st.join_group(G, pid(s, 1), None, &mut out).unwrap();
            settle(&mut stacks, SimTime::ZERO, &mut out, |_| false);
        }
        let full = |st: &SiteStack| st.view_of(G).is_some_and(|v| v.len() == usize::from(n));
        assert!(stacks.iter().all(full), "the group never formed");
        (stacks, log)
    }

    fn multicast(
        st: &mut SiteStack,
        site: u16,
        protocol: ProtocolKind,
        body: u64,
        out: &mut Outbox,
    ) {
        let (to, payload) = (vec![Address::Group(G)], Message::with_body(body));
        st.issue_call(
            pid(site, 1),
            to,
            APPLY,
            payload,
            protocol,
            ReplyWanted::None,
            None,
            out,
        );
    }

    /// The packets in the outbox, taken out (its timers are dropped).
    fn sent(out: &mut Outbox) -> Vec<Packet> {
        out.drain_timers().for_each(drop);
        out.drain_sends().collect()
    }

    /// Hands `pkts` to `st` as one run of packets, as a driver that had them all ready
    /// would: every packet but the last is followed by another.
    fn run(st: &mut SiteStack, pkts: Vec<Packet>, out: &mut Outbox) {
        let n = pkts.len();
        for (i, pkt) in pkts.into_iter().enumerate() {
            out.set_packet_follows(i + 1 < n);
            st.on_packet(SimTime::ZERO, pkt, out);
        }
        out.set_packet_follows(false);
    }

    /// The ids in an ordering frame, with its packet's destination and kind.
    fn ordering(pkt: &Packet) -> (u16, PacketKind, Vec<MsgId>) {
        let ids = match decode(pkt) {
            Some(ProtoMsg::AbPropose { proposals, .. }) => {
                proposals.into_iter().map(|(id, _)| *id).collect()
            }
            Some(ProtoMsg::AbOrder { orders, .. }) => {
                orders.into_iter().map(|(id, ..)| *id).collect()
            }
            other => panic!("not an ordering frame: {other:?}"),
        };
        (pkt.dst.site.0, pkt.kind, ids)
    }

    fn bodies_at(log: &Log, site: u16) -> Vec<u64> {
        log.borrow()
            .iter()
            .filter(|(s, _)| *s == site)
            .map(|(_, b)| *b)
            .collect()
    }

    /// Site 1 ABCASTs `k` multicasts; each other site handles their data frames as one run,
    /// and site 1 the proposals that come back as one run.  Returns the proposal frames'
    /// contents, then the order frames', and checks that every member delivered the `k`
    /// in one order.
    type Frames = Vec<(u16, PacketKind, Vec<MsgId>)>;

    fn order_a_run(k: u64) -> (Frames, Frames) {
        let (mut stacks, log) = abcast_group(3);
        let mut out = Outbox::new();
        for body in 0..k {
            multicast(&mut stacks[1], 1, ProtocolKind::Abcast, body, &mut out);
        }
        let data = sent(&mut out);
        assert_eq!(
            data.len() as u64,
            2 * k,
            "a data frame to each peer per ABCAST"
        );
        let mut proposals = Vec::new();
        for site in [0, 2] {
            let (mut to_site, rest): (Vec<Packet>, Vec<Packet>) =
                data.iter().cloned().partition(|p| p.dst.site.0 == site);
            assert_eq!(rest.len() as u64, k);
            let last = to_site.pop().expect("k >= 1");
            let st = &mut stacks[usize::from(site)];
            out.set_packet_follows(true);
            for pkt in to_site {
                st.on_packet(SimTime::ZERO, pkt, &mut out);
            }
            let held = sent(&mut out);
            assert!(
                held.is_empty(),
                "nothing leaves before the run ends: {held:?}"
            );
            out.set_packet_follows(false);
            st.on_packet(SimTime::ZERO, last, &mut out);
            proposals.extend(sent(&mut out));
        }
        let before = wire_stats::frame_encodes();
        run(&mut stacks[1], proposals.clone(), &mut out);
        let orders = sent(&mut out);
        assert_eq!(
            wire_stats::frame_encodes() - before,
            1,
            "the order frame, written once"
        );
        assert!(
            orders.windows(2).all(|o| o[0].payload == o[1].payload),
            "every peer is sent the same frame"
        );
        for pkt in orders.clone() {
            let site = pkt.dst.site.0;
            stacks[usize::from(site)].on_packet(SimTime::ZERO, pkt, &mut out);
        }
        assert!(sent(&mut out).is_empty());
        let order = bodies_at(&log, 1);
        assert_eq!(order.len() as u64, k);
        for site in [0, 2] {
            assert_eq!(bodies_at(&log, site), order, "site {site}'s ABCAST order");
        }
        (
            proposals.iter().map(ordering).collect(),
            orders.iter().map(ordering).collect(),
        )
    }

    #[test]
    fn a_run_of_abcasts_is_proposed_in_one_frame_and_ordered_in_one_frame_for_every_peer() {
        let k = 5;
        let ids: Vec<MsgId> = (1..=k).map(|seq| MsgId::new(SiteId(1), seq)).collect();
        let (proposals, orders) = order_a_run(k);
        assert_eq!(
            proposals,
            [
                (1, PacketKind::Proposal, ids.clone()),
                (1, PacketKind::Proposal, ids.clone())
            ],
            "one proposal frame of k entries from each peer"
        );
        assert_eq!(
            orders,
            [
                (0, PacketKind::SetOrder, ids.clone()),
                (2, PacketKind::SetOrder, ids)
            ],
            "one order frame of k entries for both peers"
        );
    }

    #[test]
    fn a_lone_abcast_is_proposed_and_ordered_one_frame_each_as_ever() {
        let id = vec![MsgId::new(SiteId(1), 1)];
        let (proposals, orders) = order_a_run(1);
        let proposal = (1, PacketKind::Proposal, id.clone());
        assert_eq!(proposals, [proposal.clone(), proposal]);
        let order = |site| (site, PacketKind::SetOrder, id.clone());
        assert_eq!(orders, [order(0), order(2)]);
    }

    /// A proposal held through a run goes out ahead of any later frame to its initiator:
    /// the flush ack that answers a request in the same run, and a leave the member asks
    /// for before the run ends.
    #[test]
    fn a_held_proposal_goes_out_ahead_of_every_later_frame_to_its_initiator() {
        let (mut stacks, _log) = abcast_group(2);
        let mut out = Outbox::new();
        let kinds = |pkts: &[Packet]| -> Vec<(u16, PacketKind)> {
            pkts.iter().map(|p| (p.dst.site.0, p.kind)).collect()
        };
        // Site 0 ABCASTs, then GBCASTs, which as the coordinator starts a flush at once.
        multicast(&mut stacks[0], 0, ProtocolKind::Abcast, 1, &mut out);
        multicast(&mut stacks[0], 0, ProtocolKind::Gbcast, 2, &mut out);
        let to_site_1 = sent(&mut out);
        assert_eq!(
            kinds(&to_site_1),
            [(1, PacketKind::Data), (1, PacketKind::Flush)]
        );
        run(&mut stacks[1], to_site_1, &mut out);
        let answers = sent(&mut out);
        assert_eq!(
            kinds(&answers),
            [(0, PacketKind::Proposal), (0, PacketKind::Flush)]
        );
        assert!(matches!(
            decode(&answers[1]),
            Some(ProtoMsg::FlushAck { .. })
        ));
        for pkt in answers {
            stacks[0].on_packet(SimTime::ZERO, pkt, &mut out);
        }
        settle(&mut stacks, SimTime::ZERO, &mut out, |_| false);
        // Site 0 ABCASTs again; site 1's member leaves while the proposal is held.
        multicast(&mut stacks[0], 0, ProtocolKind::Abcast, 3, &mut out);
        let data = sent(&mut out);
        out.set_packet_follows(true);
        for pkt in data {
            stacks[1].on_packet(SimTime::ZERO, pkt, &mut out);
        }
        out.set_packet_follows(false);
        assert!(sent(&mut out).is_empty(), "the proposal is held");
        stacks[1].leave_group(G, pid(1, 1), &mut out).unwrap();
        let answers = sent(&mut out);
        assert_eq!(
            kinds(&answers),
            [(0, PacketKind::Proposal), (0, PacketKind::Flush)]
        );
        assert!(matches!(
            decode(&answers[1]),
            Some(ProtoMsg::LeaveReq { .. })
        ));
    }
}
