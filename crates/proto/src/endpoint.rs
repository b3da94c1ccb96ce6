//! The per-(site, group) protocol endpoint.
//!
//! In the ISIS architecture (paper Figure 1) every site runs a *protocols process* that
//! "implements the multicast primitives, handles process group addressing and does all
//! inter-site communication", keeping one block of ordering state per process group with
//! members at that site.  [`GroupEndpoint`] is that block of state: it composes the CBCAST
//! and ABCAST machines, the stability tracker, and the flush protocol that implements GBCAST
//! and virtually synchronous view changes.
//!
//! The endpoint is sans-io: every public method appends [`EndpointOutput`] actions to a
//! caller-supplied vector.  The hosting protocol stack (in `vsync-core`) owns one endpoint
//! per group and turns the outputs into packets and application deliveries.

use std::collections::BTreeSet;
use std::rc::Rc;

use vsync_msg::{Frame, Message};
use vsync_net::{MsgId, PacketKind, ProtocolKind, SharedStats};
use vsync_util::{GroupId, ProcessId, Rank, Result, SimTime, SiteId, VectorClock, VsError};

use crate::abcast::AbcastState;
use crate::cbcast::{CbcastState, ReadyCb};
use crate::config::ProtoConfig;
use crate::flush::{stored_msg_id, FlushCoordinator, FlushParticipant, FlushRole};
use crate::frontier::{Frontier, IdSet};
use crate::messages::{ProtoMsg, StabilityEntry, StoredMsg};
use crate::output::{Delivery, EndpointOutput, ViewEvent};
use crate::stability::StabilityTracker;
use crate::view::View;

/// Gossip rounds an endpoint keeps probing for after it un-wedges without a view change
/// (see [`GroupEndpoint::maybe_unwedge`]): one immediate probe plus this many periodic
/// ones, so a lost probe cannot strand a healed minority in a stale view.
const STALE_VIEW_PROBES: u8 = 3;

/// A multicast buffered while a flush is in progress; it is re-issued in the next view.
#[derive(Clone, Debug)]
enum BufferedSend {
    Cb { sender: ProcessId, payload: Message },
    Ab { sender: ProcessId, payload: Message },
}

/// What an endpoint has to tell its peers in a gossip round: its entry for a stability
/// frame, borrowed from the endpoint until the host has put it into the frame it builds.
#[derive(Debug)]
pub struct GossipReport<'a> {
    /// The reporting endpoint's group.
    pub group: GroupId,
    /// The view the ids belong to.
    pub view_seq: u64,
    /// Ids received at this site in that view.
    pub received: &'a Rc<IdSet>,
    /// Where the report goes: the other member sites of the view.
    pub peer_sites: &'a [SiteId],
}

impl GossipReport<'_> {
    /// The report as an entry of a [`ProtoMsg::Stability`] frame, sharing the set.
    pub fn to_entry(&self) -> StabilityEntry {
        StabilityEntry {
            group: self.group,
            view_seq: self.view_seq,
            received: Rc::clone(self.received),
        }
    }

    /// A stability frame from `site` carrying this report alone.
    fn into_frame(self, site: SiteId) -> Frame {
        ProtoMsg::Stability {
            from_site: site,
            entries: vec![self.to_entry()],
        }
        .into_frame(self.group)
    }
}

/// Protocol endpoint for one group at one site.
pub struct GroupEndpoint {
    group: GroupId,
    site: SiteId,
    cfg: ProtoConfig,
    stats: SharedStats,
    view: Option<View>,
    /// Member sites of the current view excluding this one, refreshed on view install.
    /// Cached so the per-multicast fan-out iterates a ready list instead of recomputing
    /// (and re-allocating) the site set from the member list on every send.
    peer_sites: Vec<SiteId>,
    /// Members of the current view hosted at this site (same caching rationale: read on
    /// every local delivery).
    local_members: Vec<ProcessId>,
    /// Sequence number of the previously installed view (0 if none).
    prev_view_seq: u64,
    /// Local members of the *previous* view.  Deliveries emitted at a flush cut are tagged
    /// with the view they were sent in; by the time the hosting stack routes them the new
    /// view is already installed, so it resolves recipients through
    /// [`GroupEndpoint::delivery_recipients`] — pre-cut messages go to the old view's local
    /// members (virtual synchrony: a message is delivered in the view it was sent in), and
    /// in particular never to a process that joined at the cut, whose snapshot already
    /// covers them.
    prev_local_members: Vec<ProcessId>,
    /// Scratch for CBCAST deliveries, reused across received packets.
    ready_scratch: Vec<ReadyCb>,
    next_msg_seq: u64,
    flush_attempt: u64,
    cb: CbcastState,
    ab: AbcastState,
    stab: StabilityTracker,
    /// Ids delivered in the current view (the dedup filter for retransmissions and flush
    /// redelivery).
    delivered: IdSet,
    flush: Option<FlushRole>,
    /// Membership changes queued at (or forwarded to) the acting coordinator.
    pending_joins: Vec<ProcessId>,
    pending_leaves: Vec<ProcessId>,
    /// Members this site believes have failed (cleared when a view excluding them installs).
    suspected: BTreeSet<ProcessId>,
    /// The subset of `suspected` reported as *confirmed* crashes (explicit process-crash
    /// reports).  Confirmed suspicions are never retracted by later traffic; everything
    /// else in `suspected` came from timeouts and is withdrawn the moment the suspect
    /// speaks again (see [`GroupEndpoint::unsuspect_site`]).
    confirmed: BTreeSet<ProcessId>,
    /// True while the primary-partition fence blocks this endpoint from cutting a view:
    /// its component does not hold a majority of the current view.  A wedged endpoint
    /// never starts or completes a flush; it waits for the partition to heal (suspicions
    /// retracted, or evidence of a newer primary view triggering a rejoin).
    wedged: bool,
    /// Guards against emitting [`EndpointOutput::RejoinRequired`] more than once.
    rejoin_emitted: bool,
    /// Local members whose voluntary leave was submitted through this endpoint.  A commit
    /// excluding them is an *expected* departure, not evidence that the primary partition
    /// cut this site out.
    leaving_local: BTreeSet<ProcessId>,
    /// User GBCAST payloads queued for the next cut (only at the coordinator's site).
    pending_gbcasts: Vec<Message>,
    /// Application multicasts issued while a flush was in progress.
    buffered_sends: Vec<BufferedSend>,
    /// Protocol messages that belong to a view we have not installed yet (frames aliased,
    /// not copied, from the packets they arrived in).
    future_msgs: Vec<(SiteId, Frame)>,
    /// Wire form of the last installed flush commit, kept as a *bulletin*: when stale
    /// traffic arrives from a site that hosts no member of the current view (an excluded
    /// member whose commit copy was swallowed by a partition), re-sending this frame is
    /// what lets the healed minority discover the primary view and rejoin.
    last_commit: Option<Frame>,
    last_gossip: SimTime,
    /// Remaining gossip rounds forced after an un-wedge (see [`STALE_VIEW_PROBES`]).
    stale_probes: u8,
}

impl GroupEndpoint {
    /// Creates an endpoint with no view installed (a site about to create or join the group).
    pub fn new(group: GroupId, site: SiteId, cfg: ProtoConfig, stats: SharedStats) -> Self {
        GroupEndpoint {
            group,
            site,
            cfg,
            stats,
            view: None,
            peer_sites: Vec::new(),
            local_members: Vec::new(),
            prev_view_seq: 0,
            prev_local_members: Vec::new(),
            ready_scratch: Vec::new(),
            next_msg_seq: 0,
            flush_attempt: 0,
            cb: CbcastState::new(0),
            ab: AbcastState::new(),
            stab: StabilityTracker::new(site, vec![site]),
            delivered: IdSet::new(),
            flush: None,
            pending_joins: Vec::new(),
            pending_leaves: Vec::new(),
            suspected: BTreeSet::new(),
            confirmed: BTreeSet::new(),
            wedged: false,
            rejoin_emitted: false,
            leaving_local: BTreeSet::new(),
            pending_gbcasts: Vec::new(),
            buffered_sends: Vec::new(),
            future_msgs: Vec::new(),
            last_commit: None,
            last_gossip: SimTime::ZERO,
            stale_probes: 0,
        }
    }

    /// The currently installed view, if any.
    pub fn view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    /// Members of the current view hosted at this site.
    pub fn local_members(&self) -> &[ProcessId] {
        &self.local_members
    }

    /// Creates the group: installs the founding view with `creator` as the only member.
    /// `creator` must live at this site.
    pub fn create(&mut self, creator: ProcessId, out: &mut Vec<EndpointOutput>) {
        self.create_at(creator, View::founding(self.group, creator).seq(), out);
    }

    /// Founds the group with the view sequence starting at `first_seq` instead of the
    /// default.  Used by total-failure reform: the elected site refounds the group at
    /// `authoritative last view + 1`, keeping the view-sequence line monotone across
    /// incarnations so recovery logs (and any later reform election) compare directly.
    pub fn create_at(&mut self, creator: ProcessId, first_seq: u64, out: &mut Vec<EndpointOutput>) {
        debug_assert_eq!(creator.site, self.site);
        let view = View::founding_at(self.group, creator, first_seq);
        self.install_view(view.clone());
        out.push(EndpointOutput::ViewChange(ViewEvent {
            view,
            gbcasts: Vec::new(),
            covered: Frontier::new(),
        }));
    }

    // -- Application-facing multicast operations --------------------------------------------

    /// Issues a CBCAST from a local member (or on behalf of a relayed external caller).
    pub fn cbcast(
        &mut self,
        _now: SimTime,
        sender: ProcessId,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<MsgId> {
        if self.view.is_none() {
            return Err(VsError::NotAMember(self.group));
        }
        if self.flush.is_some() {
            // Not counted in the multicast statistics yet: the re-issue after the flush
            // commits goes through this method again and counts exactly once there.
            self.buffered_sends
                .push(BufferedSend::Cb { sender, payload });
            // The id is assigned when the buffered send is re-issued; report a provisional id.
            return Ok(MsgId::new(self.site, u64::MAX));
        }
        self.stats.count_multicast(ProtocolKind::Cbcast);
        // Borrow (never clone) the view: the per-multicast cost of the fast path must not
        // include copying the member list.
        let (rank, view_seq) = {
            let view = self.view.as_ref().expect("checked above");
            (self.rank_for_sender(view, sender)?, view.seq())
        };
        let id = self.alloc_msg_id();
        let vt = self.cb.stamp_send(rank);
        // Written once; the stability buffer and every peer-site packet alias this frame,
        // and the typed message travels in it.
        let local = payload.clone();
        let wire = ProtoMsg::CbData {
            id,
            sender,
            sender_rank: rank as u64,
            view_seq,
            vt,
            payload,
        }
        .into_frame(self.group);
        self.stab.record_local(id, wire.clone().into());
        self.send_to_peers(PacketKind::Data, wire, out);
        // Deliver locally right away: the caller "can pretend that the message was delivered
        // to its destinations at the moment the CBCAST was issued" (Section 3.4).
        self.delivered.insert(id);
        self.emit_delivery(id, ProtocolKind::Cbcast, local, out);
        Ok(id)
    }

    /// Issues an ABCAST from a local member (or on behalf of a relayed external caller).
    pub fn abcast(
        &mut self,
        _now: SimTime,
        sender: ProcessId,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<MsgId> {
        let Some(view_seq) = self.view.as_ref().map(View::seq) else {
            return Err(VsError::NotAMember(self.group));
        };
        if self.flush.is_some() {
            // As in `cbcast`: counted once, at re-issue time, not here.
            self.buffered_sends
                .push(BufferedSend::Ab { sender, payload });
            return Ok(MsgId::new(self.site, u64::MAX));
        }
        self.stats.count_multicast(ProtocolKind::Abcast);
        let id = self.alloc_msg_id();
        let held = payload.clone();
        let wire = ProtoMsg::AbData {
            id,
            sender,
            view_seq,
            payload,
        }
        .into_frame(self.group);
        let ordered = self
            .ab
            .initiate(id, sender, held, self.site, self.peer_sites.clone());
        self.stab.hold(id, wire.clone().into());
        self.send_to_peers(PacketKind::Data, wire, out);
        if ordered {
            // A group on one site: decided at the initiator's own proposal.
            let priority = self.ab.priority_clock();
            self.abcast_decided(id, priority, self.site, out);
        }
        Ok(id)
    }

    /// Issues a GBCAST: the payload is delivered at the next virtual-synchrony cut, ordered
    /// consistently with respect to every other event.
    pub fn gbcast(
        &mut self,
        now: SimTime,
        sender: ProcessId,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<()> {
        if self.view.is_none() {
            return Err(VsError::NotAMember(self.group));
        }
        let Some(coord) = self.acting_coordinator() else {
            return Err(VsError::NoCoordinator(self.group));
        };
        if coord.site == self.site {
            self.pending_gbcasts.push(payload);
            self.start_flush_if_needed(now, out);
        } else {
            let wire = ProtoMsg::GbcastReq { sender, payload }.into_frame(self.group);
            self.send_to_site(coord.site, PacketKind::Flush, wire, out);
        }
        Ok(())
    }

    // -- Membership operations ---------------------------------------------------------------

    /// Submits a join request for `joiner`.  Called on the site the joiner contacted; it is
    /// forwarded to the acting coordinator if that is elsewhere.
    pub fn submit_join(
        &mut self,
        now: SimTime,
        joiner: ProcessId,
        credentials: Option<String>,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<()> {
        let Some(coord) = self.acting_coordinator() else {
            return Err(VsError::NoCoordinator(self.group));
        };
        if coord.site == self.site {
            if !self.pending_joins.contains(&joiner) {
                self.pending_joins.push(joiner);
            }
            self.start_flush_if_needed(now, out);
        } else {
            let wire = ProtoMsg::JoinReq {
                joiner,
                credentials,
            }
            .into_frame(self.group);
            self.send_to_site(coord.site, PacketKind::Flush, wire, out);
        }
        Ok(())
    }

    /// Submits a voluntary leave for `member`.
    pub fn submit_leave(
        &mut self,
        now: SimTime,
        member: ProcessId,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<()> {
        let Some(coord) = self.acting_coordinator() else {
            return Err(VsError::NoCoordinator(self.group));
        };
        if member.site == self.site {
            // Remember that this local member asked to go: the commit that excludes it is
            // an expected departure, not a primary partition cutting us out.
            self.leaving_local.insert(member);
        }
        if coord.site == self.site {
            if !self.pending_leaves.contains(&member) {
                self.pending_leaves.push(member);
            }
            self.start_flush_if_needed(now, out);
        } else {
            let wire = ProtoMsg::LeaveReq { member }.into_frame(self.group);
            self.send_to_site(coord.site, PacketKind::Flush, wire, out);
        }
        Ok(())
    }

    /// Reports that `failed` processes are *suspected* to have crashed (timeout evidence:
    /// the site failure detector or the flush watchdog).  Called on every member site by
    /// the failure-detection layer; the site hosting the oldest surviving member initiates
    /// the view change.  A timeout suspicion is retractable: if the suspect speaks before
    /// the flush commits, [`GroupEndpoint::unsuspect_site`] withdraws it.
    pub fn report_failures(
        &mut self,
        now: SimTime,
        failed: &[ProcessId],
        out: &mut Vec<EndpointOutput>,
    ) {
        self.note_failures(now, failed, false, out);
    }

    /// Reports *confirmed* crashes (an explicit process-exit report, not a timeout).
    /// Confirmed suspicions are never retracted by later traffic.
    pub fn confirm_failures(
        &mut self,
        now: SimTime,
        failed: &[ProcessId],
        out: &mut Vec<EndpointOutput>,
    ) {
        self.note_failures(now, failed, true, out);
    }

    fn note_failures(
        &mut self,
        now: SimTime,
        failed: &[ProcessId],
        confirmed: bool,
        out: &mut Vec<EndpointOutput>,
    ) {
        let Some(view) = self.view.clone() else {
            return;
        };
        let mut newly = false;
        for f in failed {
            if view.contains(*f) {
                if self.suspected.insert(*f) {
                    newly = true;
                }
                if confirmed {
                    self.confirmed.insert(*f);
                }
            }
        }
        if !newly {
            return;
        }
        // Primary-partition fence, checked pre-emptively at every member: if the visible
        // component no longer holds a majority of the view, wedge instead of cutting —
        // the other side of the partition (which does) will install the next primary view.
        if !self.has_primary_majority(&view) {
            self.enter_wedge(view.seq(), out);
            return;
        }
        // Fully failed sites will never answer ABCAST proposals or flush requests.
        let failed_sites: Vec<SiteId> = view
            .member_sites()
            .into_iter()
            .filter(|s| {
                view.members_at(*s)
                    .iter()
                    .all(|m| self.suspected.contains(m))
            })
            .collect();
        for fs in &failed_sites {
            for (id, final_prio, tiebreak) in self.ab.forget_site(*fs) {
                self.finish_abcast_order(id, final_prio, tiebreak, out);
            }
        }
        // If the flush we were part of was being run by a now-failed member, forget it so the
        // next coordinator (possibly us) can take over.
        let initiator_failed = match &self.flush {
            Some(FlushRole::Participant(p)) => self.suspected.contains(&p.initiator),
            _ => false,
        };
        if initiator_failed {
            self.leave_flush();
        }
        if let Some(FlushRole::Coordinator(c)) = &mut self.flush {
            let mut complete = false;
            for fs in &failed_sites {
                if c.forget_site(*fs) {
                    complete = true;
                }
            }
            if complete {
                self.complete_flush(now, out);
                return;
            }
        }
        self.start_flush_if_needed(now, out);
    }

    /// Withdraws every *timeout-based* suspicion of members hosted at `site`: the site
    /// spoke, so it cannot be dead.  Confirmed process crashes stay suspected.  Called by
    /// the hosting stack when its failure detector hears from a suspected site again, and
    /// internally on any protocol message — so a suspicion raised by a delay spike is
    /// retracted before it can force a needless view change.
    pub fn unsuspect_site(&mut self, now: SimTime, site: SiteId, out: &mut Vec<EndpointOutput>) {
        let cleared: Vec<ProcessId> = self
            .suspected
            .iter()
            .copied()
            .filter(|p| p.site == site && !self.confirmed.contains(p))
            .collect();
        if cleared.is_empty() {
            return;
        }
        for p in &cleared {
            self.suspected.remove(p);
        }
        self.stats.with(|s| {
            for _ in &cleared {
                s.count_suspicion_cleared();
            }
        });
        // If we are coordinating a flush that was about to exclude the retracted members,
        // abandon it: the next attempt (if anything is still pending) re-awaits their site
        // and builds the view from the corrected failure set.  If nothing else is pending,
        // no flush restarts and the needless view change never happens.
        if matches!(self.flush, Some(FlushRole::Coordinator(_))) {
            self.leave_flush();
        }
        self.maybe_unwedge(out);
        self.start_flush_if_needed(now, out);
    }

    // -- Primary-partition fence ---------------------------------------------------------------

    /// Votes for the majority fence: `(alive, voters)` where voters are the current view's
    /// members minus voluntary leavers and minus *confirmed* crashes — a process whose
    /// exit was observed and reported cannot be running in a rival component, so it is no
    /// more partition evidence than a leaver.  Alive are the voters this endpoint does not
    /// suspect (all remaining suspicions are timeout-based, i.e. possibly a partition).
    fn majority_tally(&self, view: &View) -> (usize, usize) {
        let mut voters = 0usize;
        let mut alive = 0usize;
        for m in &view.members {
            if self.pending_leaves.contains(m) || self.confirmed.contains(m) {
                continue;
            }
            voters += 1;
            if !self.suspected.contains(m) {
                alive += 1;
            }
        }
        (alive, voters)
    }

    /// The primary-partition rule: a component may cut a new view from `view` only if it
    /// holds a strict majority of the voters, or exactly half of them *including the
    /// oldest voter* (the rank-0 tie-break, so an even split has exactly one winner).
    fn has_primary_majority(&self, view: &View) -> bool {
        let (alive, voters) = self.majority_tally(view);
        if voters == 0 || alive * 2 > voters {
            return true;
        }
        if alive * 2 == voters {
            // Exactly half: the half containing the oldest voter wins.
            return view
                .members
                .iter()
                .find(|m| !self.pending_leaves.contains(*m) && !self.confirmed.contains(*m))
                .map(|oldest| !self.suspected.contains(oldest))
                .unwrap_or(false);
        }
        false
    }

    /// True from this site's flush ack to the commit (or to leaving the flush): the window in
    /// which it delivers nothing from the current view and gossips no new receipt, because
    /// the report it sent cannot carry them.  A CBCAST that arrives in it is delivered only
    /// if the commit carries it.
    fn acked(&self) -> bool {
        matches!(self.flush, Some(FlushRole::Participant(_)))
    }

    /// Abandons this endpoint's flush role, if any, without a commit: the next attempt
    /// counts up.  Nothing held since this site's ack is released here — an ABCAST decided
    /// or a CBCAST received in that window: the commit that follows (a takeover's, or the
    /// abandoned attempt's, relayed) delivers them.
    fn leave_flush(&mut self) {
        if self.flush.take().is_some() {
            self.flush_attempt += 1;
        }
    }

    /// Wedges the endpoint: abandons any flush role, counts the stall, and reports it.
    fn enter_wedge(&mut self, view_seq: u64, out: &mut Vec<EndpointOutput>) {
        self.leave_flush();
        let (alive, voters) = self
            .view
            .as_ref()
            .map(|v| self.majority_tally(v))
            .unwrap_or((0, 0));
        self.stats.with(|s| {
            s.count_partition_stall();
            if !self.wedged {
                s.count_minority_wedge();
            }
        });
        self.wedged = true;
        out.push(EndpointOutput::PartitionStalled {
            group: self.group,
            view_seq,
            alive,
            voters,
        });
    }

    /// Un-wedges the endpoint if retracted suspicions restored its majority.
    ///
    /// Retraction proves the suspected *sites* are alive again — not that this view is
    /// still current.  If the cut outlived the failure timeout, the far side already
    /// committed a view without us and, holding no member of ours, will never address us
    /// again; silently resuming in the stale view would strand this endpoint as a
    /// quiescent zombie.  So the transition out of a wedge always probes: gossip
    /// immediately and for [`STALE_VIEW_PROBES`] more rounds.  A peer still in this view
    /// reads the probe as ordinary stability traffic; a peer that moved on sees the stale
    /// view stamp and answers with the bulletin commit that triggers the rejoin.
    fn maybe_unwedge(&mut self, out: &mut Vec<EndpointOutput>) {
        if !self.wedged {
            return;
        }
        let Some(view) = &self.view else {
            return;
        };
        if !self.has_primary_majority(view) {
            return;
        }
        let view_seq = view.seq();
        self.wedged = false;
        self.stale_probes = STALE_VIEW_PROBES;
        if !self.peer_sites.is_empty() {
            let probe = self.gossip_report(view_seq).into_frame(self.site);
            self.send_to_peers(PacketKind::Stability, probe, out);
        }
    }

    /// A wedged (or excluded) member saw evidence of a newer primary view: request a
    /// rejoin through the site that evidenced it, at most once.
    fn require_rejoin(
        &mut self,
        contact: SiteId,
        observed_seq: u64,
        out: &mut Vec<EndpointOutput>,
    ) {
        if self.rejoin_emitted {
            return;
        }
        self.rejoin_emitted = true;
        out.push(EndpointOutput::RejoinRequired {
            group: self.group,
            contact,
            observed_seq,
        });
    }

    /// Answers stale traffic from a site that hosts no member of the current view by
    /// re-sending the latest flush commit.  Such a sender missed the cut that excluded it
    /// (its commit copy was swallowed by a partition); without the bulletin it would keep
    /// multicasting into its stale view forever and never learn it has to rejoin.  Senders
    /// that *are* current members just have old-view traffic in flight across a cut —
    /// normal, and ignored as before.
    fn bulletin_stale_sender(&mut self, from_site: SiteId, out: &mut Vec<EndpointOutput>) {
        let Some(view) = &self.view else {
            return;
        };
        if from_site == self.site || view.member_sites().contains(&from_site) {
            return;
        }
        if let Some(commit) = self.last_commit.clone() {
            self.send_to_site(from_site, PacketKind::Flush, commit, out);
        }
    }

    // -- Protocol message handling ------------------------------------------------------------

    /// Handles a protocol message from the endpoint at `from_site`.
    ///
    /// The wire form arrives as a shared [`Frame`]; reading it goes through the frame's memo
    /// ([`ProtoMsg::decode_frame`]): a frame born in this process is never parsed, one that
    /// arrived as bytes was parsed once by the hosting stack's pre-routing decode, and
    /// neither is parsed again here.
    pub fn on_message(
        &mut self,
        now: SimTime,
        from_site: SiteId,
        frame: &Frame,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<()> {
        let (group, msg) = ProtoMsg::decode_frame(frame)?;
        // A stability frame is its sender's report on every group it shares with this
        // site and names no group of its own; what concerns this endpoint is picked out
        // of its entries below.
        if *group != self.group && !matches!(msg, ProtoMsg::Stability { .. }) {
            return Err(VsError::Internal(format!(
                "message for {group} routed to endpoint of {}",
                self.group
            )));
        }
        // Whatever this message is, its sender site is alive: retract any timeout-based
        // suspicion of its members before acting, so a delayed-but-live site is never
        // excluded by a flush that commits after it already spoke again.
        self.unsuspect_site(now, from_site, out);
        match msg {
            ProtoMsg::CbData { view_seq, .. } | ProtoMsg::AbData { view_seq, .. } => {
                match self.view_position(*view_seq) {
                    ViewPosition::Current => self.handle_data(now, msg, frame, out),
                    ViewPosition::Future => {
                        self.future_msgs.push((from_site, frame.clone()));
                        // Data stamped with a view we never installed: while wedged this
                        // is proof a newer primary view exists on the far side.
                        if self.wedged {
                            self.require_rejoin(from_site, *view_seq, out);
                        }
                    }
                    ViewPosition::Past => self.bulletin_stale_sender(from_site, out),
                }
            }
            ProtoMsg::AbPropose {
                id,
                view_seq,
                proposed,
                proposer_site,
            } => {
                if self.view_position(*view_seq) == ViewPosition::Current {
                    if let Some((final_prio, tiebreak)) =
                        self.ab.on_proposal(*id, *proposer_site, *proposed)
                    {
                        self.finish_abcast_order(*id, final_prio, tiebreak, out);
                    }
                } else if self.view_position(*view_seq) == ViewPosition::Future {
                    self.future_msgs.push((from_site, frame.clone()));
                    if self.wedged {
                        self.require_rejoin(from_site, *view_seq, out);
                    }
                }
            }
            ProtoMsg::AbOrder {
                id,
                view_seq,
                final_priority,
                tiebreak_site,
            } => match self.view_position(*view_seq) {
                ViewPosition::Current => {
                    self.abcast_decided(*id, *final_priority, *tiebreak_site, out);
                }
                ViewPosition::Future => {
                    self.future_msgs.push((from_site, frame.clone()));
                    if self.wedged {
                        self.require_rejoin(from_site, *view_seq, out);
                    }
                }
                ViewPosition::Past => self.bulletin_stale_sender(from_site, out),
            },
            ProtoMsg::JoinReq {
                joiner,
                credentials,
            } => {
                self.submit_join(now, *joiner, credentials.clone(), out)?;
            }
            ProtoMsg::LeaveReq { member } => {
                self.submit_leave(now, *member, out)?;
            }
            ProtoMsg::FailReport { failed } => {
                // Fail reports carry explicit process-exit notifications, not timeouts:
                // these suspicions are confirmed and never retracted by later traffic.
                let failed = failed.clone();
                self.confirm_failures(now, &failed, out);
            }
            ProtoMsg::GbcastReq { sender, payload } => {
                self.gbcast(now, *sender, payload.clone(), out)?;
            }
            ProtoMsg::FlushReq {
                target_seq,
                initiator,
                attempt,
            } => {
                self.handle_flush_req(now, *target_seq, *initiator, *attempt, out);
            }
            ProtoMsg::FlushAck {
                target_seq,
                from_site,
                ab_clock,
                stored,
            } => {
                let stored = stored.clone();
                self.handle_flush_ack(now, *target_seq, *from_site, stored, *ab_clock, out);
            }
            ProtoMsg::FlushCommit { .. } => return self.apply_commit(now, frame, true, out),
            ProtoMsg::Stability {
                from_site: reporter,
                entries,
            } => {
                if *reporter != from_site {
                    return Err(VsError::Internal(format!(
                        "stability frame from {from_site} reports for {reporter}"
                    )));
                }
                let own = self.group;
                let mut mine = entries.iter().filter(|e| e.group == own).peekable();
                if mine.peek().is_none() {
                    return Err(VsError::Internal(format!(
                        "stability frame without an entry for {own} routed to its endpoint"
                    )));
                }
                for entry in mine {
                    self.on_gossip(now, from_site, entry.view_seq, &entry.received, out);
                }
            }
            // Reform traffic is a site-level exchange handled by the hosting stack before
            // any endpoint exists (there is no group to route it to while the group is
            // dead); an operational endpoint simply ignores a stray copy.
            ProtoMsg::ReformSummary { .. } | ProtoMsg::ReformAlive { .. } => {}
        }
        Ok(())
    }

    /// Handles one entry of a stability frame from `from_site`: its report, stamped
    /// `view_seq`, of the ids it has `received` in this endpoint's group.  Everything a
    /// protocol message does on arrival happens per entry — the sender's members are
    /// un-suspected first; a report for the current view feeds the stability tracker; one
    /// for a view this endpoint never installed is, while wedged, proof of a newer primary
    /// view (rejoin); one for a view it has left behind draws the bulletin commit back if
    /// the sender was cut out of it.
    pub fn on_gossip(
        &mut self,
        now: SimTime,
        from_site: SiteId,
        view_seq: u64,
        received: &IdSet,
        out: &mut Vec<EndpointOutput>,
    ) {
        self.unsuspect_site(now, from_site, out);
        match self.view_position(view_seq) {
            ViewPosition::Current => {
                self.stab.on_gossip_set(from_site, received);
            }
            ViewPosition::Future => {
                if self.wedged {
                    self.require_rejoin(from_site, view_seq, out);
                }
            }
            ViewPosition::Past => self.bulletin_stale_sender(from_site, out),
        }
    }

    /// Periodic maintenance for a host that drives this endpoint alone: the gossip round,
    /// sent as a stability frame of this one entry, then the flush watchdog.  A host of
    /// many endpoints calls the two halves itself and sends one frame for all of them.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<EndpointOutput>) {
        let site = self.site;
        if let Some(wire) = self.gossip_due(now).map(|report| report.into_frame(site)) {
            self.send_to_peers(PacketKind::Stability, wire, out);
        }
        self.flush_watchdog(now, out);
    }

    /// First half of a maintenance tick: runs the gossip timer and, if a round is due and
    /// there is something to tell the peers, returns this endpoint's report for the host
    /// to send — in a frame of its own or beside other groups' reports to the same sites.
    pub fn gossip_due(&mut self, now: SimTime) -> Option<GossipReport<'_>> {
        // Runs on every maintenance tick of every site: the idle path (nothing unstable)
        // must not clone the view or allocate.
        let view_seq = self.view.as_ref()?.seq();
        if now.saturating_since(self.last_gossip) < self.cfg.stability_interval {
            return None;
        }
        self.last_gossip = now;
        // Gossip while there is anything to advertise — held copies *or* a message
        // that became stable here in the last few rounds: a site that stabilized a
        // message before ever gossiping it must still tell the origin, or the origin's
        // ack set never completes (see `stability::QUIET_ROUNDS`).  A wedged endpoint
        // gossips even with nothing to report: across a healed partition the stale
        // view stamp makes a primary-side member answer with the latest commit (the
        // bulletin), which is an idle minority's only way to learn it was cut out.
        // The same goes for the probe rounds right after an un-wedge (see
        // `maybe_unwedge`): heartbeats retract suspicions the instant the cut heals,
        // usually before this tick ever fires in the wedged state, so the wedge alone
        // cannot carry that burden.
        let probing = self.stale_probes > 0;
        let due =
            (self.stab.has_reportable() || self.wedged || probing) && !self.peer_sites.is_empty();
        if due {
            self.stale_probes = self.stale_probes.saturating_sub(1);
        }
        self.stab.note_gossip_round();
        due.then(|| self.gossip_report(view_seq))
    }

    /// Second half of a maintenance tick: flush-timeout recovery.
    pub fn flush_watchdog(&mut self, now: SimTime, out: &mut Vec<EndpointOutput>) {
        let stalled = self
            .flush
            .as_ref()
            .map(|f| now.saturating_since(f.started_at()) > self.cfg.flush_timeout)
            .unwrap_or(false);
        if stalled {
            match self.flush.take() {
                Some(FlushRole::Coordinator(mut c)) => {
                    // Re-send the request to laggard sites.
                    c.started_at = now;
                    let req = ProtoMsg::FlushReq {
                        target_seq: c.target_seq,
                        initiator: self
                            .acting_coordinator()
                            .unwrap_or_else(|| ProcessId::new(self.site, 0)),
                        attempt: c.attempt,
                    }
                    .into_frame(self.group);
                    for s in c.awaiting.iter().copied().collect::<Vec<_>>() {
                        self.send_to_site(s, PacketKind::Flush, req.clone(), out);
                    }
                    self.flush = Some(FlushRole::Coordinator(c));
                }
                Some(FlushRole::Participant(p)) => {
                    // The coordinator went quiet: treat it as failed and let the next oldest
                    // surviving member (possibly hosted here) take over.
                    self.suspected.insert(p.initiator);
                    self.flush_attempt = p.attempt + 1;
                    self.start_flush_if_needed(now, out);
                }
                None => {}
            }
        }
    }

    // -- Internal helpers ----------------------------------------------------------------------

    fn alloc_msg_id(&mut self) -> MsgId {
        self.next_msg_seq += 1;
        MsgId::new(self.site, self.next_msg_seq)
    }

    fn rank_for_sender(&self, view: &View, sender: ProcessId) -> Result<Rank> {
        if let Some(r) = view.rank_of(sender) {
            return Ok(r);
        }
        // Relayed external caller: stamp with the oldest local member's rank.
        view.members_at(self.site)
            .first()
            .and_then(|m| view.rank_of(*m))
            .ok_or(VsError::NotAMember(self.group))
    }

    fn acting_coordinator(&self) -> Option<ProcessId> {
        self.view
            .as_ref()?
            .members
            .iter()
            .copied()
            .find(|m| !self.suspected.contains(m))
    }

    fn view_position(&self, view_seq: u64) -> ViewPosition {
        match &self.view {
            None => ViewPosition::Future,
            Some(v) => {
                if view_seq == v.seq() {
                    ViewPosition::Current
                } else if view_seq < v.seq() {
                    ViewPosition::Past
                } else {
                    ViewPosition::Future
                }
            }
        }
    }

    fn send_to_site(
        &self,
        dst_site: SiteId,
        kind: PacketKind,
        msg: Frame,
        out: &mut Vec<EndpointOutput>,
    ) {
        out.push(EndpointOutput::Send {
            dst_site,
            kind,
            msg,
        });
    }

    /// Fans one wire frame out to every peer site of the current view.  Each `Send` aliases
    /// the same frame — the per-destination cost is a reference-count bump, not a copy of
    /// the message — and the destination list is the cached `peer_sites`, so nothing is
    /// recomputed per multicast.
    fn send_to_peers(&self, kind: PacketKind, msg: Frame, out: &mut Vec<EndpointOutput>) {
        for s in &self.peer_sites {
            out.push(EndpointOutput::Send {
                dst_site: *s,
                kind,
                msg: msg.clone(),
            });
        }
    }

    /// This endpoint's report as things stand, stamped with `view_seq`.  Doubles as the
    /// stale-view probe: at a peer that committed a newer view the stamp reads as
    /// `ViewPosition::Past` and draws the bulletin commit back.
    fn gossip_report(&self, view_seq: u64) -> GossipReport<'_> {
        GossipReport {
            group: self.group,
            view_seq,
            received: self.stab.received(),
            peer_sites: &self.peer_sites,
        }
    }

    fn emit_delivery(
        &mut self,
        id: MsgId,
        protocol: ProtocolKind,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) {
        let view_seq = self.view.as_ref().map(|v| v.seq()).unwrap_or(0);
        out.push(EndpointOutput::Deliver(Delivery {
            group: self.group,
            msg_id: id,
            view_seq,
            protocol,
            payload,
        }));
    }

    /// Handles a data-bearing message in the current view.  `msg` is the decoded view of
    /// `frame`; the stability buffer aliases the frame directly (no re-encode — the received
    /// wire form *is* the copy a flush would redistribute).
    fn handle_data(
        &mut self,
        _now: SimTime,
        msg: &ProtoMsg,
        frame: &Frame,
        out: &mut Vec<EndpointOutput>,
    ) {
        match msg {
            ProtoMsg::CbData {
                id,
                sender,
                sender_rank,
                vt,
                payload,
                ..
            } => {
                if self.delivered.contains(*id) {
                    return;
                }
                if self.acked() {
                    self.stab.hold(*id, frame.clone().into());
                    return;
                }
                self.stab.record_local(*id, frame.clone().into());
                self.receive_cbcast(*id, *sender, *sender_rank as Rank, vt, payload, out);
            }
            ProtoMsg::AbData {
                id,
                sender,
                payload,
                view_seq,
            } => {
                if self.delivered.contains(*id) {
                    return;
                }
                if !self.ab.is_pending(id) {
                    self.stab.hold(*id, frame.clone().into());
                }
                let proposed = self.ab.on_data(*id, *sender, payload.clone());
                let propose = ProtoMsg::AbPropose {
                    id: *id,
                    view_seq: *view_seq,
                    proposed,
                    proposer_site: self.site,
                }
                .into_frame(self.group);
                self.send_to_site(id.origin, PacketKind::Proposal, propose, out);
            }
            _ => unreachable!("handle_data only receives data messages"),
        }
    }

    /// Runs one received CBCAST through the causal-order machine and emits whatever became
    /// deliverable.  `vt` and `payload` are borrowed from the frame's memo: a message that
    /// arrives in order is delivered straight from there, and only one that has to wait gets
    /// a holdback entry — and with it the one copy of its timestamp.
    fn receive_cbcast(
        &mut self,
        id: MsgId,
        sender: ProcessId,
        sender_rank: Rank,
        vt: &VectorClock,
        payload: &Message,
        out: &mut Vec<EndpointOutput>,
    ) {
        if self.cb.deliver_in_order(sender_rank, vt) {
            if self.delivered.insert(id) {
                self.emit_delivery(id, ProtocolKind::Cbcast, payload.clone(), out);
            }
            return;
        }
        let mut ready = std::mem::take(&mut self.ready_scratch);
        self.cb.receive_into(
            ReadyCb {
                id,
                sender,
                sender_rank,
                vt: vt.clone(),
                payload: payload.clone(),
            },
            &mut ready,
        );
        for r in ready.drain(..) {
            if self.delivered.insert(r.id) {
                self.emit_delivery(r.id, ProtocolKind::Cbcast, r.payload, out);
            }
        }
        self.ready_scratch = ready;
    }

    fn finish_abcast_order(
        &mut self,
        id: MsgId,
        final_priority: u64,
        tiebreak: SiteId,
        out: &mut Vec<EndpointOutput>,
    ) {
        let order = ProtoMsg::AbOrder {
            id,
            view_seq: self.view.as_ref().map(View::seq).unwrap_or(0),
            final_priority,
            tiebreak_site: tiebreak,
        }
        .into_frame(self.group);
        self.send_to_peers(PacketKind::SetOrder, order, out);
        self.abcast_decided(id, final_priority, tiebreak, out);
    }

    /// Records the decision on ABCAST `id` and delivers what it makes deliverable.  One made
    /// between this site's flush ack and the commit is never gossiped in this view: a peer
    /// could let it go stable, and no report would carry a decision the ack did not.
    fn abcast_decided(
        &mut self,
        id: MsgId,
        priority: u64,
        tiebreak: SiteId,
        out: &mut Vec<EndpointOutput>,
    ) {
        self.ab.decide(id, priority, tiebreak);
        self.stab.set_ab_priority(id, priority, !self.acked());
        self.drain_abcasts(out);
    }

    /// Delivers the ABCASTs whose order is final here — except between this site's flush
    /// ack and the commit, whose priorities may overrule a decision made here since the ack.
    fn drain_abcasts(&mut self, out: &mut Vec<EndpointOutput>) {
        if self.acked() {
            return;
        }
        for r in self.ab.drain() {
            if self.delivered.insert(r.id) {
                self.emit_delivery(r.id, ProtocolKind::Abcast, r.payload, out);
            }
        }
    }

    fn start_flush_if_needed(&mut self, now: SimTime, out: &mut Vec<EndpointOutput>) {
        if self.flush.is_some() {
            return;
        }
        let Some(view) = self.view.clone() else {
            return;
        };
        let has_changes = !self.pending_joins.is_empty()
            || !self.pending_leaves.is_empty()
            || !self.suspected.is_empty()
            || !self.pending_gbcasts.is_empty();
        if !has_changes {
            return;
        }
        // Primary-partition fence: never start cutting a view from inside a minority
        // component — wedge until the partition heals or the suspicions are retracted.
        if !self.has_primary_majority(&view) {
            self.enter_wedge(view.seq(), out);
            return;
        }
        self.wedged = false;
        let Some(coord) = self.acting_coordinator() else {
            return;
        };
        if coord.site != self.site {
            return;
        }
        self.stats.count_multicast(ProtocolKind::Gbcast);
        let target_seq = view.seq() + 1;
        let awaiting: BTreeSet<SiteId> = view
            .member_sites()
            .into_iter()
            .filter(|s| *s != self.site)
            .filter(|s| {
                view.members_at(*s)
                    .iter()
                    .any(|m| !self.suspected.contains(m))
            })
            .collect();
        let coordinator =
            FlushCoordinator::new(target_seq, self.flush_attempt, awaiting.clone(), now);
        self.flush = Some(FlushRole::Coordinator(coordinator));
        let req = ProtoMsg::FlushReq {
            target_seq,
            initiator: coord,
            attempt: self.flush_attempt,
        }
        .into_frame(self.group);
        for s in &awaiting {
            self.send_to_site(*s, PacketKind::Flush, req.clone(), out);
        }
        if awaiting.is_empty() {
            self.complete_flush(now, out);
        }
    }

    fn handle_flush_req(
        &mut self,
        now: SimTime,
        target_seq: u64,
        initiator: ProcessId,
        attempt: u64,
        out: &mut Vec<EndpointOutput>,
    ) {
        let Some(view) = self.view.clone() else {
            return;
        };
        if target_seq != view.seq() + 1 {
            return;
        }
        // If we believed ourselves coordinator but an older member is also flushing, defer to
        // it (lower rank wins); otherwise ignore the request and let ours proceed.
        if let Some(FlushRole::Coordinator(_)) = &self.flush {
            let my_rank = self
                .acting_coordinator()
                .and_then(|c| view.rank_of(c))
                .unwrap_or(usize::MAX);
            let their_rank = view.rank_of(initiator).unwrap_or(usize::MAX);
            if my_rank <= their_rank {
                return;
            }
        }
        self.flush = Some(FlushRole::Participant(FlushParticipant {
            target_seq,
            initiator,
            attempt,
            started_at: now,
        }));
        // Report everything we have received in this view that might not be everywhere,
        // and the priority clock that bounds every ABCAST delivered here.
        let ack = ProtoMsg::FlushAck {
            target_seq,
            from_site: self.site,
            ab_clock: self.ab.priority_clock(),
            stored: self.stab.unstable(),
        }
        .into_frame(self.group);
        self.send_to_site(initiator.site, PacketKind::Flush, ack, out);
    }

    fn handle_flush_ack(
        &mut self,
        now: SimTime,
        target_seq: u64,
        from_site: SiteId,
        stored: Vec<StoredMsg>,
        ab_clock: u64,
        out: &mut Vec<EndpointOutput>,
    ) {
        let complete = match &mut self.flush {
            Some(FlushRole::Coordinator(c)) if c.target_seq == target_seq => {
                c.absorb_ack(from_site, stored, ab_clock)
            }
            _ => false,
        };
        if complete {
            self.complete_flush(now, out);
        }
    }

    fn complete_flush(&mut self, now: SimTime, out: &mut Vec<EndpointOutput>) {
        let Some(FlushRole::Coordinator(mut c)) = self.flush.take() else {
            return;
        };
        let Some(view) = self.view.clone() else {
            return;
        };
        // Authoritative primary-partition fence: suspicions may have accumulated since
        // this flush started (forgotten sites complete a flush too), so re-check that we
        // still hold a majority of the view being cut before committing its successor.
        if !self.has_primary_majority(&view) {
            self.flush_attempt += 1;
            self.enter_wedge(view.seq(), out);
            return;
        }
        // Merge our own unstable messages and priority clock into the union.
        c.merge(self.stab.unstable(), self.ab.priority_clock());
        // Build the new view.
        let departed: Vec<ProcessId> = self
            .suspected
            .iter()
            .copied()
            .chain(self.pending_leaves.iter().copied())
            .collect();
        let joined: Vec<ProcessId> = self.pending_joins.clone();
        let new_view = view.successor(&departed, &joined);
        let deliver = c.deliver_set();
        // Describe the cut as a per-origin frontier: everything redistributed by this
        // flush plus everything the coordinator already delivered in the old view.  A
        // snapshot taken while installing the committed view covers exactly this set, so
        // joiners use the frontier to suppress the redelivery of covered messages (their
        // effects arrive via state transfer instead — the exactly-once partition of
        // history that virtual synchrony promises a joiner).
        let mut covered = self.delivered.frontier();
        for s in &deliver {
            if let Ok(id) = stored_msg_id(s) {
                covered.observe(id);
            }
        }
        let gbcasts = std::mem::take(&mut self.pending_gbcasts);
        self.pending_joins.clear();
        self.pending_leaves.clear();
        // Send the commit to every site that was in the old view or is in the new one.
        let mut dst_sites: Vec<SiteId> = view.member_sites();
        for s in new_view.member_sites() {
            if !dst_sites.contains(&s) {
                dst_sites.push(s);
            }
        }
        // One frame: sent to every site, applied here, kept as the bulletin, and relayed by
        // every receiver, without ever being written (or, in one process, read) again.
        let commit = ProtoMsg::FlushCommit {
            view: new_view,
            deliver,
            covered,
            gbcasts,
        }
        .into_frame(self.group);
        for s in dst_sites {
            if s != self.site {
                self.send_to_site(s, PacketKind::Flush, commit.clone(), out);
            }
        }
        // The coordinator can drop only CBCASTs here (see `apply_commit`), and every other
        // survivor holding one finds it in this commit and drops it too.
        let _ = self.apply_commit(now, &commit, false, out);
    }

    /// Applies a flush commit.  `commit` is the frame itself — the one `complete_flush`
    /// just built (`relay` false), or the one `on_message` received — because installing a
    /// view also means forwarding that frame (the relay) and keeping it (the bulletin), and a
    /// frame in hand need not be written again.
    ///
    /// Returns an error naming the messages the cut dropped here, if any, once the view is
    /// installed: the hosting stack traces it.
    fn apply_commit(
        &mut self,
        now: SimTime,
        commit: &Frame,
        relay: bool,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<()> {
        let Ok((
            _,
            ProtoMsg::FlushCommit {
                view: new_view,
                deliver,
                covered,
                gbcasts,
            },
        )) = ProtoMsg::decode_frame(commit)
        else {
            return Ok(());
        };
        let target_seq = new_view.seq();
        if let Some(v) = &self.view {
            if target_seq <= v.seq() {
                return Ok(());
            }
        }
        // A commit whose new view excludes every local member that neither asked to leave
        // nor provably crashed is not ours to install: the primary partition cut us out (a
        // false suspicion that committed, or a minority wedge the majority flushed
        // around).  Everything we did past the last shared view is a divergent tail —
        // request a discard-and-rejoin instead of installing.
        let mut involuntary = self
            .local_members
            .iter()
            .filter(|m| !self.leaving_local.contains(m) && !self.confirmed.contains(m))
            .peekable();
        let cut_out = involuntary.peek().is_some() && !involuntary.any(|m| new_view.contains(*m));
        if cut_out {
            let contact = new_view.coordinator().map(|c| c.site).unwrap_or(self.site);
            self.require_rejoin(contact, target_seq, out);
            return Ok(());
        }
        // Relay the commit on first install (receivers only — the creator already sent it
        // everywhere).  Commits come from the acting coordinator, which may die with some
        // copies still on the wire; a commit that reaches only part of the membership would
        // split the view history, because the survivors that missed it take over the flush
        // and commit a *different* view at the same sequence number.  One hop per member
        // closes the gap: whoever installs re-sends the frame to every member site of the
        // old and new views, and later copies fail the sequence check above, so the relay
        // storm terminates after at most one send per member.
        if relay {
            let mut relay_sites: Vec<SiteId> = self
                .view
                .as_ref()
                .map(View::member_sites)
                .unwrap_or_default();
            for s in new_view.member_sites() {
                if !relay_sites.contains(&s) {
                    relay_sites.push(s);
                }
            }
            for s in relay_sites {
                if s != self.site {
                    self.send_to_site(s, PacketKind::Flush, commit.clone(), out);
                }
            }
        }
        // Keep the commit as the bulletin answered to stale traffic from excluded sites.
        self.last_commit = Some(commit.clone());
        // A joining endpoint (no view installed: this site only enters the group at this
        // cut) must NOT apply the redistributed pre-cut messages: the state snapshot its
        // members receive is taken exactly at this cut and already covers them, so
        // delivering them here would double-apply (the bug that used to force every test
        // to settle until traffic was stable before joining).  Members of the old view,
        // by contrast, deliver whatever they are missing — that is the flush's job.
        let joining = self.view.is_none();
        // Deliver the agreed cut: everything in the set that we have not delivered yet.
        for stored in deliver {
            let Ok((_, proto)) = ProtoMsg::decode_frame(&stored.wire) else {
                continue;
            };
            match proto {
                ProtoMsg::CbData {
                    id,
                    sender,
                    sender_rank,
                    vt,
                    payload,
                    ..
                } => {
                    // A CBCAST received here before the ack is delivered, or held back for a
                    // predecessor this loop may yet bring.
                    if self.stab.received().contains(*id) || (joining && covered.covers(*id)) {
                        continue;
                    }
                    self.receive_cbcast(*id, *sender, *sender_rank as Rank, vt, payload, out);
                }
                ProtoMsg::AbData {
                    id,
                    sender,
                    payload,
                    ..
                } => {
                    if self.delivered.contains(*id) || (joining && covered.covers(*id)) {
                        continue;
                    }
                    // The commit's priority is final, even over a decision made here
                    // after the ack.  A commit always carries one for an ABCAST.
                    let Some(prio) = stored.ab_priority else {
                        continue;
                    };
                    self.ab.on_data(*id, *sender, payload.clone());
                    self.ab.decide(*id, prio, id.origin);
                }
                _ => {}
            }
        }
        // Every message in the cut has been through its protocol now, and what this site
        // still cannot deliver is dropped.  An undecided ABCAST was never in the cut: a
        // crashed initiator's message that reached this site after its ack, which no survivor
        // reported.  A held-back CBCAST misses a predecessor that no survivor has, so no
        // survivor delivered it, and every one holding it drops it too.
        let mut dropped = self.ab.discard_undecided();
        debug_assert!(
            relay || dropped.is_empty(),
            "the coordinator's undecided ABCASTs are all in its own report"
        );
        dropped.extend(self.cb.discard());
        self.flush = None;
        self.drain_abcasts(out);
        // The cut is complete: install the view and deliver the view event plus any GBCASTs.
        // The event carries the cut's covered frontier so a state-transfer source encoding
        // its snapshot *while handling this event* can tag the blocks with exactly what the
        // snapshot includes.
        out.push(EndpointOutput::ViewChange(ViewEvent {
            view: new_view.clone(),
            gbcasts: gbcasts.clone(),
            covered: covered.clone(),
        }));
        self.install_view(new_view.clone());
        // Any membership change reported during the flush that the new view did not cover
        // must trigger another round.
        self.suspected.retain(|p| new_view.contains(*p));
        self.confirmed.retain(|p| new_view.contains(*p));
        // A leave the new view processed is done; one still pending stays remembered.
        self.leaving_local.retain(|p| new_view.contains(*p));
        let pending_restart = !self.suspected.is_empty()
            || !self.pending_joins.is_empty()
            || !self.pending_leaves.is_empty()
            || !self.pending_gbcasts.is_empty();
        // Re-issue multicasts buffered while the flush was running.
        let buffered = std::mem::take(&mut self.buffered_sends);
        for b in buffered {
            match b {
                BufferedSend::Cb { sender, payload } => {
                    let _ = self.cbcast(now, sender, payload, out);
                }
                BufferedSend::Ab { sender, payload } => {
                    let _ = self.abcast(now, sender, payload, out);
                }
            }
        }
        // Process protocol messages that were waiting for this view.
        let future = std::mem::take(&mut self.future_msgs);
        for (from_site, wire) in future {
            let _ = self.on_message(now, from_site, &wire, out);
        }
        if pending_restart {
            self.start_flush_if_needed(now, out);
        }
        if dropped.is_empty() {
            Ok(())
        } else {
            Err(VsError::Internal(format!(
                "messages the cut to view {target_seq} left undeliverable dropped: {dropped:?}"
            )))
        }
    }

    fn install_view(&mut self, view: View) {
        let width = view.len();
        let member_sites = view.member_sites();
        self.peer_sites = member_sites
            .iter()
            .copied()
            .filter(|s| *s != self.site)
            .collect();
        // Keep the outgoing view's local members: deliveries emitted at the cut are tagged
        // with the old view's sequence number and must still route to *its* members (see
        // `delivery_recipients`).
        self.prev_view_seq = self.view.as_ref().map(View::seq).unwrap_or(0);
        self.prev_local_members = std::mem::take(&mut self.local_members);
        self.local_members = view.members_at(self.site);
        self.cb.reset(width);
        self.ab.reset();
        self.stab.reset(member_sites);
        self.delivered.clear();
        self.flush = None;
        self.flush_attempt = 0;
        // A committed view is primary by construction: any wedge episode ends here, and
        // with it the stale-view probing — this view is fresh by definition.
        self.wedged = false;
        self.stale_probes = 0;
        self.rejoin_emitted = false;
        self.view = Some(view);
    }

    /// The local members a delivery tagged with `view_seq` must be dispatched to.
    ///
    /// By the time the hosting stack routes the deliveries emitted at a flush cut, the new
    /// view is already installed, but those messages were sent in the *previous* view and
    /// virtual synchrony delivers them to its membership — in particular never to a member
    /// that joined at the cut (its state snapshot covers them).  Anything older than the
    /// previous view falls back to the current members: such deliveries cannot be emitted
    /// (the endpoint drops past-view traffic), so the fallback is never wrong in practice.
    pub fn delivery_recipients(&self, view_seq: u64) -> &[ProcessId] {
        match &self.view {
            Some(v) if v.seq() == view_seq => &self.local_members,
            _ if view_seq == self.prev_view_seq => &self.prev_local_members,
            _ => &self.local_members,
        }
    }

    /// Number of messages this endpoint has received in the current view that are not yet
    /// known stable (held for a potential flush redistribution).  Join-under-load tests use
    /// this to prove a join really raced unstable traffic.
    pub fn unstable_len(&self) -> usize {
        self.stab.held_len()
    }

    /// The wire frame of the last flush commit this endpoint installed, which it keeps as
    /// its bulletin.  Diagnostic: it is the very frame the coordinator wrote wherever the
    /// commit did not cross a thread boundary.
    ///
    /// Only caller: `SiteStack::last_commit`, for `tests/frame_fanout.rs`.
    #[doc(hidden)]
    pub fn last_commit(&self) -> Option<&Frame> {
        self.last_commit.as_ref()
    }
}

/// Where an incoming message's view sits relative to the installed one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ViewPosition {
    Past,
    Current,
    Future,
}

#[cfg(test)]
mod tests;
