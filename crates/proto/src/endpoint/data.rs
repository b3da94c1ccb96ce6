//! The endpoint's data path: CBCAST and ABCAST in the installed view, the stability buffer
//! and the dedup filter.
//!
//! It knows nothing of flushes, the fence or membership.  The endpoint's mode gates it with
//! one flag, `gate`: true from this site's flush ack to the commit, the window in which the
//! site delivers nothing from the view and advertises no receipt that its ack could not
//! carry.  A CBCAST that arrives in it is held and delivered only if the commit carries it;
//! an ABCAST decided in it is delivered only in the commit's order.  The commit's agreed set
//! goes through [`DataPath::deliver_cut`], which ends the window.
//!
//! An ABCAST's proposals and orders are *held* rather than sent one frame each: every
//! proposal made for one initiator goes out in one `AbPropose` frame, and every order in one
//! `AbOrder` frame written once for all the peers, when the host ends its run of packets
//! ([`DataPath::send_held`]) or [`HELD_MAX`] of either are held.  Nothing else to a peer
//! overtakes them: every other frame this path sends, and every frame the endpoint sends
//! through [`DataPath::send`], goes out behind whatever is held, and so does a view change.

use vsync_msg::{Frame, Message};
use vsync_net::{MsgId, PacketKind, ProtocolKind};
use vsync_util::{GroupId, ProcessId, Rank, SiteId, VectorClock};

use super::GossipReport;
use crate::abcast::AbcastState;
use crate::cbcast::{CbcastState, ReadyCb};
use crate::frontier::{Frontier, IdSet};
use crate::messages::{DataHeader, Entries, ProtoMsg, StoredMsg};
use crate::output::{Delivery, EndpointOutput};
use crate::stability::StabilityTracker;
use crate::view::View;

/// Most proposals, or orders, held at once: the one that makes this many sends what is
/// held, whether the run has ended or not.  It bounds an ordering frame, the burst of
/// decisions one frame releases where it arrives, and how long a long run keeps its first
/// entry back.
const HELD_MAX: usize = 64;

/// CBCAST, ABCAST and stability for one group at one site, in one view at a time.
pub(super) struct DataPath {
    group: GroupId,
    site: SiteId,
    /// The view the state belongs to (0 before the first install).
    view_seq: u64,
    /// Member sites of the view other than this one.  Cached, because every multicast fans
    /// out to them: the per-send cost must not include recomputing the site set.
    peers: Vec<SiteId>,
    next_msg_seq: u64,
    cb: CbcastState,
    ab: AbcastState,
    stab: StabilityTracker,
    /// Ids delivered in the view: the dedup filter for retransmissions and flush redelivery.
    delivered: IdSet,
    /// Scratch for CBCAST deliveries, reused across received packets.
    ready_scratch: Vec<ReadyCb>,
    /// ABCAST proposals made since the last ordering frames went out, each for the site
    /// its multicast's id names.  Kept, emptied, between runs.
    held_proposals: Vec<(MsgId, u64)>,
    /// ABCAST orders decided here since the last ordering frames went out.  Kept, emptied,
    /// between runs.
    held_orders: Vec<(MsgId, u64, SiteId)>,
}

impl DataPath {
    pub(super) fn new(group: GroupId, site: SiteId) -> Self {
        DataPath {
            group,
            site,
            view_seq: 0,
            peers: Vec::new(),
            next_msg_seq: 0,
            cb: CbcastState::new(0),
            ab: AbcastState::new(),
            stab: StabilityTracker::new(site, vec![site]),
            delivered: IdSet::new(),
            ready_scratch: Vec::new(),
            held_proposals: Vec::new(),
            held_orders: Vec::new(),
        }
    }

    /// Starts over in `view`, once what is held for the previous one has gone out.  Nothing
    /// of the previous view survives: its commit delivered what it could and dropped the rest.
    pub(super) fn reset(&mut self, view: &View, out: &mut Vec<EndpointOutput>) {
        self.send_held(out);
        let member_sites = view.member_sites();
        self.peers = member_sites
            .iter()
            .copied()
            .filter(|s| *s != self.site)
            .collect();
        self.view_seq = view.seq();
        self.cb.reset(view.len());
        self.ab.reset();
        self.stab.reset(member_sites);
        self.delivered.clear();
    }

    /// What a flush ack reports, and what the coordinator adds to the cut as its own share:
    /// a copy of every message not yet known stable here, each ABCAST with its priority if it
    /// is decided here, and the priority clock, which bounds every ABCAST delivered here.
    pub(super) fn flush_report(&self) -> (Vec<StoredMsg>, u64) {
        (self.stab.unstable(), self.ab.priority_clock())
    }

    /// Number of copies held as not yet known stable.
    pub(super) fn held_len(&self) -> usize {
        self.stab.held_len()
    }

    /// What this site delivered in the view, as a per-origin frontier.
    pub(super) fn delivered_frontier(&self) -> Frontier {
        self.delivered.frontier()
    }

    /// This site's stability report as things stand.
    pub(super) fn gossip_report(&self) -> GossipReport<'_> {
        GossipReport {
            group: self.group,
            view_seq: self.view_seq,
            received: self.stab.received(),
            peer_sites: &self.peers,
        }
    }

    /// Sends the report to every peer site in a stability frame of its own.  Doubles as the
    /// stale-view probe: at a peer that committed a newer view the stamp reads as past and
    /// draws the bulletin commit back.
    pub(super) fn send_report(&mut self, out: &mut Vec<EndpointOutput>) {
        if !self.peers.is_empty() {
            let frame = self.gossip_report().into_frame(self.site);
            self.send_to_peers(PacketKind::Stability, frame, out);
        }
    }

    /// Closes one gossip round.  Returns whether the round is worth a report: there is a
    /// peer to tell, and the stability buffer has something to advertise or the caller
    /// `forced` the round.
    pub(super) fn gossip_round(&mut self, forced: bool) -> bool {
        let due = (self.stab.has_reportable() || forced) && !self.peers.is_empty();
        self.stab.note_gossip_round();
        due
    }

    /// Takes in `from_site`'s report of the ids it has received in the view.
    pub(super) fn on_gossip(&mut self, from_site: SiteId, received: &IdSet) {
        self.stab.on_gossip_set(from_site, received);
    }

    /// Appends one `Send` of `msg` to `dst_site`, behind the ordering frames held.  Every
    /// frame the endpoint sends outside this path goes through here.
    pub(super) fn send(
        &mut self,
        dst_site: SiteId,
        kind: PacketKind,
        msg: Frame,
        out: &mut Vec<EndpointOutput>,
    ) {
        self.send_held(out);
        out.push(EndpointOutput::Send {
            dst_site,
            kind,
            msg,
        });
    }

    /// Fans one wire frame out to every peer site, behind the ordering frames held.
    fn send_to_peers(&mut self, kind: PacketKind, msg: Frame, out: &mut Vec<EndpointOutput>) {
        self.send_held(out);
        self.fan_out(kind, msg, out);
    }

    /// Each `Send` aliases the same frame: the per-destination cost is a reference-count
    /// bump, not a copy of the message.
    fn fan_out(&self, kind: PacketKind, msg: Frame, out: &mut Vec<EndpointOutput>) {
        for s in &self.peers {
            out.push(EndpointOutput::Send {
                dst_site: *s,
                kind,
                msg: msg.clone(),
            });
        }
    }

    /// Sends what is held: one `AbPropose` frame per initiator, then one `AbOrder` frame
    /// fanned out to every peer.  Does nothing if nothing is held.
    pub(super) fn send_held(&mut self, out: &mut Vec<EndpointOutput>) {
        while let Some(&(first, _)) = self.held_proposals.first() {
            let initiator = first.origin;
            let theirs = |(id, _): &(MsgId, u64)| id.origin == initiator;
            let proposals = if self.held_proposals.iter().all(theirs) {
                // The usual case: every proposal held is for one initiator.
                Entries::gather(self.held_proposals.drain(..))
            } else {
                let proposals = Entries::gather(self.held_proposals.iter().copied().filter(theirs));
                self.held_proposals.retain(|p| !theirs(p));
                proposals
            };
            let propose = ProtoMsg::AbPropose {
                view_seq: self.view_seq,
                proposer_site: self.site,
                proposals: proposals.expect("the first proposal held is theirs"),
            }
            .into_frame(self.group);
            out.push(EndpointOutput::Send {
                dst_site: initiator,
                kind: PacketKind::Proposal,
                msg: propose,
            });
        }
        if let Some(orders) = Entries::gather(self.held_orders.drain(..)) {
            let order = ProtoMsg::AbOrder {
                view_seq: self.view_seq,
                orders,
            }
            .into_frame(self.group);
            self.fan_out(PacketKind::SetOrder, order, out);
        }
    }

    fn alloc_msg_id(&mut self) -> MsgId {
        self.next_msg_seq += 1;
        MsgId::new(self.site, self.next_msg_seq)
    }

    /// Stamps a CBCAST from `sender` at `rank`, sends it, and delivers it here at once: the
    /// caller "can pretend that the message was delivered to its destinations at the moment
    /// the CBCAST was issued" (Section 3.4).
    pub(super) fn cbcast(
        &mut self,
        sender: ProcessId,
        rank: Rank,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) -> MsgId {
        let id = self.alloc_msg_id();
        let vt = self.cb.stamp_send(rank);
        // Written once: every peer-site packet aliases this frame, and the typed message
        // travels in it; the stability buffer keeps its bytes.
        let local = payload.clone();
        let wire = ProtoMsg::CbData {
            id,
            sender,
            sender_rank: rank as u64,
            view_seq: self.view_seq,
            vt,
            payload,
        }
        .into_frame(self.group);
        self.stab.record_local(id, wire.clone().into());
        self.send_to_peers(PacketKind::Data, wire, out);
        self.delivered.insert(id);
        self.emit_delivery(id, ProtocolKind::Cbcast, local, out);
        id
    }

    /// Stamps an ABCAST from `sender` and starts its ordering.  Never gated: the endpoint
    /// holds back multicasts while a flush runs.
    pub(super) fn abcast(
        &mut self,
        sender: ProcessId,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) -> MsgId {
        let id = self.alloc_msg_id();
        let held = payload.clone();
        let wire = ProtoMsg::AbData {
            id,
            sender,
            view_seq: self.view_seq,
            payload,
        }
        .into_frame(self.group);
        let ordered = self
            .ab
            .initiate(id, sender, held, self.site, self.peers.clone());
        self.stab.hold(id, wire.clone().into());
        self.send_to_peers(PacketKind::Data, wire, out);
        if ordered {
            // A group on one site: decided at the initiator's own proposal.
            let priority = self.ab.priority_clock();
            self.abcast_decided(id, priority, self.site, false, out);
        }
        id
    }

    /// Handles a data message of the view.  `msg` is the decoded view of `frame`; the
    /// stability buffer keeps the frame's bytes (no re-encode: the received wire form *is*
    /// the copy a flush would redistribute), and `msg` goes with the frame.
    pub(super) fn handle_data(
        &mut self,
        msg: &ProtoMsg,
        frame: &Frame,
        gate: bool,
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
                if gate {
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
                ..
            } => {
                if self.delivered.contains(*id) {
                    return;
                }
                if !self.ab.is_pending(id) {
                    self.stab.hold(*id, frame.clone().into());
                }
                let proposed = self.ab.on_data(*id, *sender, payload.clone());
                self.held_proposals.push((*id, proposed));
                if self.held_proposals.len() >= HELD_MAX {
                    self.send_held(out);
                }
            }
            _ => unreachable!("handle_data only receives data messages"),
        }
    }

    /// Runs one received CBCAST through the causal-order machine and emits whatever became
    /// deliverable.  `vt` and `payload` are borrowed from the frame's memo: a message that
    /// arrives in order is delivered straight from there, and only one that has to wait gets
    /// a holdback entry, and with it the one copy of its timestamp.
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

    /// Takes in a priority proposal for an ABCAST this site initiated, and announces the
    /// order once every awaited site has proposed.
    pub(super) fn on_proposal(
        &mut self,
        id: MsgId,
        proposer: SiteId,
        proposed: u64,
        gate: bool,
        out: &mut Vec<EndpointOutput>,
    ) {
        if let Some((priority, tiebreak)) = self.ab.on_proposal(id, proposer, proposed) {
            self.finish_abcast_order(id, priority, tiebreak, gate, out);
        }
    }

    /// Stops awaiting proposals from `site`, which failed, and announces every order that
    /// completes.
    pub(super) fn forget_site(&mut self, site: SiteId, gate: bool, out: &mut Vec<EndpointOutput>) {
        for (id, priority, tiebreak) in self.ab.forget_site(site) {
            self.finish_abcast_order(id, priority, tiebreak, gate, out);
        }
    }

    /// Holds the order for the peers and decides the ABCAST here.
    fn finish_abcast_order(
        &mut self,
        id: MsgId,
        final_priority: u64,
        tiebreak: SiteId,
        gate: bool,
        out: &mut Vec<EndpointOutput>,
    ) {
        self.held_orders.push((id, final_priority, tiebreak));
        if self.held_orders.len() >= HELD_MAX {
            self.send_held(out);
        }
        self.abcast_decided(id, final_priority, tiebreak, gate, out);
    }

    /// Records the decision on ABCAST `id` and delivers what it makes deliverable.  Behind
    /// the gate the decision is neither gossiped nor delivered: a peer could let it go
    /// stable, and no report would carry a decision the ack did not; the commit's priority
    /// may overrule it.
    pub(super) fn abcast_decided(
        &mut self,
        id: MsgId,
        priority: u64,
        tiebreak: SiteId,
        gate: bool,
        out: &mut Vec<EndpointOutput>,
    ) {
        self.ab.decide(id, priority, tiebreak);
        self.stab.set_ab_priority(id, priority, !gate);
        if !gate {
            self.drain_abcasts(out);
        }
    }

    /// Delivers the ABCASTs whose order is final here.
    fn drain_abcasts(&mut self, out: &mut Vec<EndpointOutput>) {
        for r in self.ab.drain() {
            if self.delivered.insert(r.id) {
                self.emit_delivery(r.id, ProtocolKind::Abcast, r.payload, out);
            }
        }
    }

    /// Delivers a flush commit's agreed set, everything in it that this site has not
    /// delivered yet, and ends the gate.  A `joining` site delivers nothing `covered`: the
    /// state snapshot its members receive is taken at this cut and already holds it.
    ///
    /// Then drops what is still undeliverable and returns the ids: the undecided ABCASTs, and
    /// the CBCASTs still held back.  An undecided ABCAST was never in the cut: a crashed
    /// initiator's message that reached this site after its ack, which no survivor reported.
    /// A held-back CBCAST misses a predecessor that no survivor has, so no survivor
    /// delivered it, and every one holding it drops it too.
    pub(super) fn deliver_cut(
        &mut self,
        deliver: &[StoredMsg],
        covered: &Frontier,
        joining: bool,
        out: &mut Vec<EndpointOutput>,
    ) -> (Vec<MsgId>, Vec<MsgId>) {
        for stored in deliver {
            // Which multicast it is comes off the copy's memo or first fields.  A copy is
            // parsed only if it is delivered here and its payload is not here already.
            let Ok(DataHeader { id, protocol }) = stored.header() else {
                continue;
            };
            if joining && covered.covers(id) {
                continue;
            }
            match (protocol, stored.ab_priority) {
                // A CBCAST received here before the ack is delivered, or held back for a
                // predecessor this loop may yet bring.
                (ProtocolKind::Cbcast, _) if !self.stab.received().contains(id) => {
                    self.receive_stored_cbcast(id, stored, out);
                }
                // The commit's priority is final, even over a decision made here after the
                // ack.  A commit always carries one for an ABCAST.  One received here and
                // not yet delivered has its payload waiting in the ABCAST state.
                (ProtocolKind::Abcast, Some(prio)) if !self.delivered.contains(id) => {
                    if !self.ab.is_pending(&id) {
                        let Ok(frame) = stored.typed() else {
                            continue;
                        };
                        let Ok((
                            _,
                            ProtoMsg::AbData {
                                sender, payload, ..
                            },
                        )) = ProtoMsg::decode_frame(&frame)
                        else {
                            continue;
                        };
                        self.ab.on_data(id, *sender, payload.clone());
                    }
                    self.ab.decide(id, prio, id.origin);
                }
                _ => {}
            }
        }
        let undecided = self.ab.discard_undecided();
        let held_back = self.cb.discard();
        self.drain_abcasts(out);
        (undecided, held_back)
    }

    /// Ends the gate without a commit: the flush this site acked was abandoned, so its
    /// report went nowhere and nothing it held back waits for a cut any more.  Each CBCAST
    /// received behind the gate is advertised and delivered, and each ABCAST decided behind
    /// it is advertised and delivered in order.
    pub(super) fn release_gate(&mut self, out: &mut Vec<EndpointOutput>) {
        for stored in self.stab.unstable() {
            let Ok(DataHeader { id, protocol }) = stored.header() else {
                continue;
            };
            if self.stab.received().contains(id) {
                continue;
            }
            match (protocol, stored.ab_priority) {
                (ProtocolKind::Cbcast, _) => {
                    self.stab.advertise(id);
                    self.receive_stored_cbcast(id, &stored, out);
                }
                (ProtocolKind::Abcast, Some(priority)) => {
                    self.stab.set_ab_priority(id, priority, true);
                }
                _ => {}
            }
        }
        self.drain_abcasts(out);
    }

    /// Runs a CBCAST held as a stored copy through the causal-order machine.
    fn receive_stored_cbcast(
        &mut self,
        id: MsgId,
        stored: &StoredMsg,
        out: &mut Vec<EndpointOutput>,
    ) {
        let Ok(frame) = stored.typed() else {
            return;
        };
        if let Ok((
            _,
            ProtoMsg::CbData {
                sender,
                sender_rank,
                vt,
                payload,
                ..
            },
        )) = ProtoMsg::decode_frame(&frame)
        {
            self.receive_cbcast(id, *sender, *sender_rank as Rank, vt, payload, out);
        }
    }

    fn emit_delivery(
        &mut self,
        id: MsgId,
        protocol: ProtocolKind,
        payload: Message,
        out: &mut Vec<EndpointOutput>,
    ) {
        out.push(EndpointOutput::Deliver(Delivery {
            group: self.group,
            msg_id: id,
            view_seq: self.view_seq,
            protocol,
            payload,
        }));
    }

    /// The ids this site has received in the view.
    #[cfg(test)]
    pub(super) fn received(&self) -> &IdSet {
        self.stab.received()
    }

    /// The ids this site has delivered in the view.
    #[cfg(test)]
    pub(super) fn delivered(&self) -> &IdSet {
        &self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::wire_stats;
    use vsync_util::VectorClock;

    const G: GroupId = GroupId(1);

    /// A copy as a commit that crossed a thread boundary carries it: bytes, no typed value.
    fn from_bytes(msg: ProtoMsg, ab_priority: Option<u64>) -> StoredMsg {
        StoredMsg {
            wire: Frame::from_wire(msg.into_frame(G).wire_segments()),
            ab_priority,
        }
    }

    #[test]
    fn deliver_cut_parses_only_the_copies_it_delivers_and_does_not_hold() {
        let (p0, p1) = (ProcessId::new(SiteId(0), 1), ProcessId::new(SiteId(1), 1));
        let view = View::founding(G, p0).successor(&[], &[p1]);
        let mut path = DataPath::new(G, SiteId(0));
        path.reset(&view, &mut Vec::new());
        let cb = |seq: u64| ProtoMsg::CbData {
            id: MsgId::new(SiteId(1), seq),
            sender: p1,
            sender_rank: 1,
            view_seq: view.seq(),
            vt: VectorClock::from_entries(vec![0, seq]),
            payload: Message::with_body(seq),
        };
        let ab = |seq: u64| ProtoMsg::AbData {
            id: MsgId::new(SiteId(1), seq),
            sender: p1,
            view_seq: view.seq(),
            payload: Message::with_body(seq),
        };
        let mut out = Vec::new();
        // Site 0 received the first two CBCASTs, and ABCAST 6 undecided, before the cut.
        for msg in [cb(1), cb(2), ab(6)] {
            let frame = msg.into_frame(G);
            let (_, msg) = ProtoMsg::decode_frame(&frame).expect("born typed");
            path.handle_data(msg, &frame, false, &mut out);
        }
        out.clear();
        let cut: Vec<StoredMsg> = (1..=4)
            .map(|seq| from_bytes(cb(seq), None))
            .chain([from_bytes(ab(5), Some(1)), from_bytes(ab(6), Some(2))])
            .collect();
        let before = wire_stats::frame_decodes();
        let (undecided, held_back) = path.deliver_cut(&cut, &Frontier::new(), false, &mut out);
        assert!(undecided.is_empty() && held_back.is_empty());
        let delivered: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                EndpointOutput::Deliver(d) => Some(d.msg_id.seq),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![3, 4, 5, 6]);
        assert_eq!(
            wire_stats::frame_decodes() - before,
            3,
            "one parse per copy delivered whose payload was not here: CBCASTs 1 and 2 are \
             read as ids, and ABCAST 6 is delivered from what site 0 already held"
        );
    }
}
