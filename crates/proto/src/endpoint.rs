//! The per-(site, group) protocol endpoint.
//!
//! In the ISIS architecture (paper Figure 1) every site runs a *protocols process* that
//! "implements the multicast primitives, handles process group addressing and does all
//! inter-site communication", keeping one block of ordering state per process group with
//! members at that site.  [`GroupEndpoint`] is that block of state.
//!
//! It is two machines side by side.  The *data path* runs CBCAST, ABCAST and the stability
//! buffer in the installed view.  The *mode* is where the site stands in the flush that
//! implements GBCAST and virtually synchronous view changes, and against the
//! primary-partition fence: normal, coordinating a flush, acked into one, wedged in a
//! minority, or exiled from a primary view that moved on without it.  One transition
//! function is the only writer of the mode.  The mode gates the data path with one flag,
//! true from this site's flush ack to the commit, and never reaches into it.  ARCHITECTURE.md
//! draws the mode's state diagram.
//!
//! The endpoint is sans-io: every public method appends [`EndpointOutput`] actions to a
//! caller-supplied vector.  The hosting protocol stack (in `vsync-core`) owns one endpoint
//! per group and turns the outputs into packets and application deliveries.

use std::collections::BTreeSet;
use std::rc::Rc;

use vsync_msg::{Frame, Message};
use vsync_net::{MsgId, PacketKind, ProtocolKind, SharedStats};
use vsync_util::{GroupId, ProcessId, Rank, Result, SimTime, SiteId, VsError};

use crate::config::ProtoConfig;
use crate::flush::{FlushCoordinator, FlushParticipant};
use crate::frontier::{Frontier, IdSet};
use crate::messages::{ProtoMsg, StabilityEntry, StoredMsg};
use crate::output::{EndpointOutput, ViewEvent};
use crate::view::View;

mod data;
mod mode;

use data::DataPath;
use mode::{Input, Mode};

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

/// Appends one `Send` of `msg` to `dst_site`.
fn send(out: &mut Vec<EndpointOutput>, dst_site: SiteId, kind: PacketKind, msg: Frame) {
    out.push(EndpointOutput::Send {
        dst_site,
        kind,
        msg,
    });
}

/// Protocol endpoint for one group at one site.
pub struct GroupEndpoint {
    group: GroupId,
    site: SiteId,
    cfg: ProtoConfig,
    stats: SharedStats,
    view: Option<View>,
    /// Members of the current view hosted at this site (cached: read on every local
    /// delivery).
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
    /// CBCAST, ABCAST and stability in the installed view.
    data: DataPath,
    /// Where this site stands in the view change and against the fence.  Written only by
    /// [`GroupEndpoint::step`].
    mode: Mode,
    /// The attempt number the next flush this site coordinates carries.  Written only by
    /// [`GroupEndpoint::step`].
    flush_attempt: u64,
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
            local_members: Vec::new(),
            prev_view_seq: 0,
            prev_local_members: Vec::new(),
            data: DataPath::new(group, site),
            mode: Mode::Normal { probes: 0 },
            flush_attempt: 0,
            pending_joins: Vec::new(),
            pending_leaves: Vec::new(),
            suspected: BTreeSet::new(),
            confirmed: BTreeSet::new(),
            leaving_local: BTreeSet::new(),
            pending_gbcasts: Vec::new(),
            buffered_sends: Vec::new(),
            future_msgs: Vec::new(),
            last_commit: None,
            last_gossip: SimTime::ZERO,
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

    // -- The mode -----------------------------------------------------------------------------

    /// The one writer of the mode, and of the attempt counter that moves with it.
    fn step(&mut self, input: Input) {
        let mode = std::mem::replace(&mut self.mode, Mode::Exiled);
        (self.mode, self.flush_attempt) = mode.next(input, self.flush_attempt);
    }

    /// The data path's gate: true from this site's flush ack to the commit, the window in
    /// which it delivers nothing from the current view and gossips no new receipt, because
    /// the report it sent cannot carry them.
    fn acked(&self) -> bool {
        matches!(self.mode, Mode::Acked { .. })
    }

    fn exiled(&self) -> bool {
        matches!(self.mode, Mode::Exiled)
    }

    // -- Application-facing multicast operations --------------------------------------------

    /// The installed view, for a client call that needs one: none while joining or exiled.
    fn member_view(&self) -> Result<&View> {
        match &self.view {
            Some(view) if !self.exiled() => Ok(view),
            _ => Err(VsError::NotAMember(self.group)),
        }
    }

    /// Issues a CBCAST from a local member (or on behalf of a relayed external caller).
    pub fn cbcast(
        &mut self,
        _now: SimTime,
        sender: ProcessId,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<MsgId> {
        self.member_view()?;
        if self.mode.flushing() {
            // Not counted in the multicast statistics yet: the re-issue after the flush
            // commits goes through this method again and counts exactly once there.
            self.buffered_sends
                .push(BufferedSend::Cb { sender, payload });
            // The id is assigned when the buffered send is re-issued; report a provisional id.
            return Ok(MsgId::new(self.site, u64::MAX));
        }
        self.stats.count_multicast(ProtocolKind::Cbcast);
        let rank = self.rank_for_sender(self.member_view()?, sender)?;
        Ok(self.data.cbcast(sender, rank, payload, out))
    }

    /// Issues an ABCAST from a local member (or on behalf of a relayed external caller).
    pub fn abcast(
        &mut self,
        _now: SimTime,
        sender: ProcessId,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) -> Result<MsgId> {
        self.member_view()?;
        if self.mode.flushing() {
            // As in `cbcast`: counted once, at re-issue time, not here.
            self.buffered_sends
                .push(BufferedSend::Ab { sender, payload });
            return Ok(MsgId::new(self.site, u64::MAX));
        }
        self.stats.count_multicast(ProtocolKind::Abcast);
        Ok(self.data.abcast(sender, payload, out))
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
        self.member_view()?;
        let Some(coord) = self.acting_coordinator() else {
            return Err(VsError::NoCoordinator(self.group));
        };
        if coord.site == self.site {
            self.pending_gbcasts.push(payload);
            self.start_flush_if_needed(now, out);
        } else {
            let wire = ProtoMsg::GbcastReq { sender, payload }.into_frame(self.group);
            send(out, coord.site, PacketKind::Flush, wire);
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
            send(out, coord.site, PacketKind::Flush, wire);
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
            send(out, coord.site, PacketKind::Flush, wire);
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
        if self.exiled() {
            return;
        }
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
        let gate = self.acked();
        for fs in &failed_sites {
            self.data.forget_site(*fs, gate, out);
        }
        // If the flush we acked was being run by a now-failed member, leave it so the next
        // coordinator (possibly us) can take over.
        if matches!(&self.mode, Mode::Acked { flush, .. } if self.suspected.contains(&flush.initiator))
        {
            self.step(Input::Abandon);
        }
        if let Mode::Coordinating { flush, .. } = &mut self.mode {
            let mut complete = false;
            for fs in &failed_sites {
                if flush.forget_site(*fs) {
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
        if self.exiled() {
            return;
        }
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
        if matches!(self.mode, Mode::Coordinating { .. }) {
            self.step(Input::Abandon);
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

    /// Wedges the endpoint: abandons any flush role, counts the stall, and reports it.
    fn enter_wedge(&mut self, view_seq: u64, out: &mut Vec<EndpointOutput>) {
        let (alive, voters) = self
            .view
            .as_ref()
            .map(|v| self.majority_tally(v))
            .unwrap_or((0, 0));
        let newly = !self.mode.wedged();
        self.stats.with(|s| {
            s.count_partition_stall();
            if newly {
                s.count_minority_wedge();
            }
        });
        self.step(Input::Wedge);
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
    /// immediately, and from `Wedged` for a few more rounds.  A peer still in this view
    /// reads the probe as ordinary stability traffic; a peer that moved on sees the stale
    /// view stamp and answers with the bulletin commit that triggers the rejoin.
    fn maybe_unwedge(&mut self, out: &mut Vec<EndpointOutput>) {
        if !self.mode.wedged() {
            return;
        }
        let Some(view) = &self.view else {
            return;
        };
        if !self.has_primary_majority(view) {
            return;
        }
        self.step(Input::Unwedge);
        self.data.send_report(out);
    }

    /// Evidence of a primary view that excludes this site: request a rejoin through the
    /// site that evidenced it.  The endpoint ignores everything after.
    fn exile(&mut self, contact: SiteId, observed_seq: u64, out: &mut Vec<EndpointOutput>) {
        if self.exiled() {
            return;
        }
        self.step(Input::Exile);
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
            send(out, from_site, PacketKind::Flush, commit);
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
        if self.exiled() {
            return Ok(());
        }
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
                    ViewPosition::Current => self.data.handle_data(msg, frame, self.acked(), out),
                    ViewPosition::Future => self.hold_future(from_site, frame, *view_seq, out),
                    ViewPosition::Past => self.bulletin_stale_sender(from_site, out),
                }
            }
            ProtoMsg::AbPropose {
                id,
                view_seq,
                proposed,
                proposer_site,
            } => match self.view_position(*view_seq) {
                ViewPosition::Current => {
                    self.data
                        .on_proposal(*id, *proposer_site, *proposed, self.acked(), out);
                }
                ViewPosition::Future => self.hold_future(from_site, frame, *view_seq, out),
                ViewPosition::Past => {}
            },
            ProtoMsg::AbOrder {
                id,
                view_seq,
                final_priority,
                tiebreak_site,
            } => match self.view_position(*view_seq) {
                ViewPosition::Current => {
                    let gate = self.acked();
                    self.data
                        .abcast_decided(*id, *final_priority, *tiebreak_site, gate, out);
                }
                ViewPosition::Future => self.hold_future(from_site, frame, *view_seq, out),
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
            ProtoMsg::FlushAbandoned {
                target_seq,
                attempt,
            } => {
                // The initiator ran no attempt below `attempt` when it heard this site's
                // ack.  If this site acked one, it leaves the flush and delivers what the ack
                // held back; an initiator that never answers is left to the flush timeout.
                let over = matches!(&self.mode, Mode::Acked { flush, .. }
                    if flush.initiator.site == from_site && flush.attempt < *attempt);
                if over && self.view.as_ref().map(|v| v.seq() + 1) == Some(*target_seq) {
                    self.step(Input::Abandon);
                    self.data.release_gate(out);
                    self.start_flush_if_needed(now, out);
                }
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
            // Reform and relay traffic is a site-level exchange handled by the hosting stack
            // before any endpoint is consulted (a reform's group is dead, a relay is a
            // multicast still to be made); an endpoint simply ignores a stray copy.
            ProtoMsg::ReformSummary { .. }
            | ProtoMsg::ReformAlive { .. }
            | ProtoMsg::Relay { .. } => {}
        }
        Ok(())
    }

    /// Keeps a message stamped with a view this endpoint has not installed, for when it
    /// does.  While wedged, such a message is proof that a newer primary view exists.
    fn hold_future(
        &mut self,
        from_site: SiteId,
        frame: &Frame,
        view_seq: u64,
        out: &mut Vec<EndpointOutput>,
    ) {
        self.future_msgs.push((from_site, frame.clone()));
        if self.mode.wedged() {
            self.exile(from_site, view_seq, out);
        }
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
        if self.exiled() {
            return;
        }
        self.unsuspect_site(now, from_site, out);
        match self.view_position(view_seq) {
            ViewPosition::Current => self.data.on_gossip(from_site, received),
            ViewPosition::Future => {
                if self.mode.wedged() {
                    self.exile(from_site, view_seq, out);
                }
            }
            ViewPosition::Past => self.bulletin_stale_sender(from_site, out),
        }
    }

    /// Periodic maintenance for a host that drives this endpoint alone: the gossip round,
    /// sent as a stability frame of this one entry, then the flush watchdog.  A host of
    /// many endpoints calls the two halves itself and sends one frame for all of them.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<EndpointOutput>) {
        if self.gossip_due(now).is_some() {
            self.data.send_report(out);
        }
        self.flush_watchdog(now, out);
    }

    /// First half of a maintenance tick: runs the gossip timer and, if a round is due and
    /// there is something to tell the peers, returns this endpoint's report for the host
    /// to send — in a frame of its own or beside other groups' reports to the same sites.
    pub fn gossip_due(&mut self, now: SimTime) -> Option<GossipReport<'_>> {
        // Runs on every maintenance tick of every site: the idle path (nothing unstable)
        // must not clone the view or allocate.
        if self.view.is_none() || self.exiled() {
            return None;
        }
        if now.saturating_since(self.last_gossip) < self.cfg.stability_interval {
            return None;
        }
        self.last_gossip = now;
        // Gossip while there is anything to advertise — held copies *or* a message that
        // became stable here in the last few rounds: a site that stabilized a message
        // before ever gossiping it must still tell the origin, or the origin's ack set
        // never completes (see `stability::QUIET_ROUNDS`).  A wedged endpoint gossips even
        // with nothing to report: across a healed partition the stale view stamp makes a
        // primary-side member answer with the latest commit (the bulletin), which is an
        // idle minority's only way to learn it was cut out.  The same goes for the probe
        // rounds right after an un-wedge (see `maybe_unwedge`): heartbeats retract
        // suspicions the instant the cut heals, usually before this tick ever fires in the
        // wedged state, so the wedge alone cannot carry that burden.
        let due = self
            .data
            .gossip_round(self.mode.wedged() || self.mode.probing());
        if due {
            self.step(Input::GossipRound);
        }
        due.then(|| self.data.gossip_report())
    }

    /// Second half of a maintenance tick: flush-timeout recovery.
    pub fn flush_watchdog(&mut self, now: SimTime, out: &mut Vec<EndpointOutput>) {
        let started_at = match &self.mode {
            Mode::Coordinating { flush, .. } => flush.started_at,
            Mode::Acked { flush, .. } => flush.started_at,
            _ => return,
        };
        if now.saturating_since(started_at) <= self.cfg.flush_timeout {
            return;
        }
        let initiator = self
            .acting_coordinator()
            .unwrap_or_else(|| ProcessId::new(self.site, 0));
        match &mut self.mode {
            Mode::Coordinating { flush, .. } => {
                // Re-send the request to laggard sites.
                flush.started_at = now;
                let req = ProtoMsg::FlushReq {
                    target_seq: flush.target_seq,
                    initiator,
                    attempt: flush.attempt,
                }
                .into_frame(self.group);
                for s in &flush.awaiting {
                    send(out, *s, PacketKind::Flush, req.clone());
                }
            }
            Mode::Acked { flush, .. } => {
                // The coordinator went quiet: treat it as failed and let the next oldest
                // surviving member (possibly hosted here) take over.
                self.suspected.insert(flush.initiator);
                self.step(Input::CoordinatorSilent);
                self.start_flush_if_needed(now, out);
            }
            _ => {}
        }
    }

    // -- Internal helpers ----------------------------------------------------------------------

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

    /// The oldest member this site does not suspect.  An exiled endpoint knows none.
    fn acting_coordinator(&self) -> Option<ProcessId> {
        if self.exiled() {
            return None;
        }
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

    fn start_flush_if_needed(&mut self, now: SimTime, out: &mut Vec<EndpointOutput>) {
        if !matches!(self.mode, Mode::Normal { .. } | Mode::Wedged) {
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
        // A wedged site that has its majority back leaves the wedge the one way there is:
        // un-wedging, which probes.
        self.maybe_unwedge(out);
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
        let req = ProtoMsg::FlushReq {
            target_seq,
            initiator: coord,
            attempt: self.flush_attempt,
        }
        .into_frame(self.group);
        for s in &awaiting {
            send(out, *s, PacketKind::Flush, req.clone());
        }
        let complete = awaiting.is_empty();
        let coordinator = FlushCoordinator::new(target_seq, self.flush_attempt, awaiting, now);
        self.step(Input::Coordinate(coordinator));
        if complete {
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
        let Some(view) = &self.view else {
            return;
        };
        if target_seq != view.seq() + 1 {
            return;
        }
        // If we believed ourselves coordinator but an older member is also flushing, defer to
        // it (lower rank wins); otherwise ignore the request and let ours proceed.
        if matches!(self.mode, Mode::Coordinating { .. }) {
            let my_rank = self
                .acting_coordinator()
                .and_then(|c| view.rank_of(c))
                .unwrap_or(usize::MAX);
            let their_rank = view.rank_of(initiator).unwrap_or(usize::MAX);
            if my_rank <= their_rank {
                return;
            }
        }
        self.step(Input::Ack(FlushParticipant {
            initiator,
            attempt,
            started_at: now,
        }));
        let (stored, ab_clock) = self.data.flush_report();
        let ack = ProtoMsg::FlushAck {
            target_seq,
            from_site: self.site,
            ab_clock,
            stored,
        }
        .into_frame(self.group);
        send(out, initiator.site, PacketKind::Flush, ack);
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
        let complete = match &mut self.mode {
            Mode::Coordinating { flush, .. } if flush.target_seq == target_seq => {
                flush.absorb_ack(from_site, stored, ab_clock)
            }
            // An ack for a flush this site abandoned since: say so, or the acked site waits
            // out the flush timeout and cuts out a coordinator that is alive.
            _ if self.view.as_ref().map(|v| v.seq() + 1) == Some(target_seq) => {
                let abandoned = ProtoMsg::FlushAbandoned {
                    target_seq,
                    attempt: self.flush_attempt,
                }
                .into_frame(self.group);
                send(out, from_site, PacketKind::Flush, abandoned);
                false
            }
            _ => false,
        };
        if complete {
            self.complete_flush(now, out);
        }
    }

    fn complete_flush(&mut self, now: SimTime, out: &mut Vec<EndpointOutput>) {
        let Some(view) = self.view.clone() else {
            return;
        };
        if !matches!(self.mode, Mode::Coordinating { .. }) {
            return;
        }
        // Authoritative primary-partition fence: suspicions may have accumulated since
        // this flush started (forgotten sites complete a flush too), so re-check that we
        // still hold a majority of the view being cut before committing its successor.
        if !self.has_primary_majority(&view) {
            self.enter_wedge(view.seq(), out);
            return;
        }
        let Mode::Coordinating { flush, .. } = &mut self.mode else {
            return;
        };
        // Merge our own report into the union.
        let (stored, ab_clock) = self.data.flush_report();
        flush.merge(stored, ab_clock);
        // Build the new view.
        let departed: Vec<ProcessId> = self
            .suspected
            .iter()
            .copied()
            .chain(self.pending_leaves.iter().copied())
            .collect();
        let joined: Vec<ProcessId> = self.pending_joins.clone();
        let new_view = view.successor(&departed, &joined);
        let deliver = flush.deliver_set();
        // Describe the cut as a per-origin frontier: everything redistributed by this
        // flush plus everything the coordinator already delivered in the old view.  A
        // snapshot taken while installing the committed view covers exactly this set, so
        // joiners use the frontier to suppress the redelivery of covered messages (their
        // effects arrive via state transfer instead — the exactly-once partition of
        // history that virtual synchrony promises a joiner).
        let mut covered = self.data.delivered_frontier();
        for id in flush.collected.keys() {
            covered.observe(*id);
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
                send(out, s, PacketKind::Flush, commit.clone());
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
            self.exile(contact, target_seq, out);
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
                    send(out, s, PacketKind::Flush, commit.clone());
                }
            }
        }
        // Keep the commit as the bulletin answered to stale traffic from excluded sites.
        self.last_commit = Some(commit.clone());
        // A joining endpoint (no view installed: this site only enters the group at this
        // cut) must NOT apply the redistributed pre-cut messages: the state snapshot its
        // members receive is taken exactly at this cut and already covers them, so
        // delivering them here would double-apply.  Members of the old view, by contrast,
        // deliver whatever they are missing — that is the flush's job.
        let joining = self.view.is_none();
        let (mut dropped, held_back) = self.data.deliver_cut(deliver, covered, joining, out);
        debug_assert!(
            relay || dropped.is_empty(),
            "the coordinator's undecided ABCASTs are all in its own report"
        );
        dropped.extend(held_back);
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

    /// Installs `view`: a committed view is primary by construction, so any flush role,
    /// wedge or probing ends here.
    fn install_view(&mut self, view: View) {
        // Keep the outgoing view's local members: deliveries emitted at the cut are tagged
        // with the old view's sequence number and must still route to *its* members (see
        // `delivery_recipients`).
        self.prev_view_seq = self.view.as_ref().map(View::seq).unwrap_or(0);
        self.prev_local_members = std::mem::take(&mut self.local_members);
        self.local_members = view.members_at(self.site);
        self.data.reset(&view);
        self.step(Input::Install);
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
        self.data.held_len()
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
