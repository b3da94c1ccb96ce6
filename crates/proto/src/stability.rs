//! Message stability tracking.
//!
//! A message is *stable* once every member site of the group is known to have received it.
//! Stability matters for two reasons: stable messages can be garbage-collected from the
//! endpoint's buffers, and — more importantly — they never need to be redistributed by a
//! view-change flush, which keeps flush acks small.  Sites learn about each other's receipts
//! through periodic gossip.
//!
//! What a site gossips about a group is the whole set of ids it has received in the current
//! view, as an [`IdSet`]: one run per origin on FIFO traffic, so a gossip entry, the memory
//! kept per peer and the work to ingest an entry are all O(sites), independent of how many
//! messages the view has carried.  Only the held copies themselves are per message, and they
//! leave as soon as every peer's run has passed them.
//!
//! A held copy is the *bytes* of the frame that carried the multicast, plus its protocol and
//! its ABCAST decision — never the frame.  Taking the bytes is one refcount, as taking the frame was; what it
//! saves is the typed value the frame memoized (the payload's field table, the timestamp),
//! which would otherwise stay alive until the message is stable and then be freed in a
//! burst, on whichever thread the gossip happened to land.  That value goes with the packet
//! instead, on the thread that decoded or wrote it.  A flush asks for the copies rarely:
//! [`StabilityTracker::unstable`] makes a frame of each from its bytes then, with the copy's
//! id and protocol in the frame's memo slot, and the flush reads no more of it than that
//! until it delivers it.
//!
//! An ABCAST is held from receipt but advertised only once it is *decided* here, and not if
//! it is decided between this site's flush ack and the commit, so no flush report carries a
//! stable ABCAST as undecided.  A CBCAST received in that window is held and never
//! advertised either.  Until an id is advertised it is a gap in its origin's run.
//!
//! The tracker does not send anything.  Its endpoint hands the received set out as a report
//! ([`crate::endpoint::GossipReport`]) and the host — the site's protocol stack — puts the
//! reports of all its groups that go to the same peer sites into one stability frame, an
//! entry each.  An entry *shares* the set (`Rc`): the tracker copies it only if its next
//! receipt finds a frame still holding the last report.  Ingesting a peer's entry is
//! [`IdSet::union_with`] into that peer's acknowledged set — on FIFO traffic the same runs
//! with their ends moved, in place — followed by one pass over the held queues.

use std::collections::VecDeque;
use std::rc::Rc;

use vsync_msg::{Frame, Segments};
use vsync_net::{MsgId, ProtocolKind};
use vsync_util::SiteId;

use crate::frontier::IdSet;
use crate::messages::{DataHeader, StoredMsg};

/// Gossip rounds a site keeps advertising after a message last became stable *here*.
///
/// Without them a site that stabilizes on the origin's gossip before ever gossiping itself
/// silently strands the origin: it goes quiet, the origin never completes its ack set, and
/// the message stays "unstable" there forever — which every later view-change flush then
/// redistributes.  Invisible in the simulator (all sites tick at the same virtual instants,
/// so gossip always crosses symmetrically); the threaded runtime's unaligned clocks hit it
/// on most runs.  Each round is one `stability_interval`, so this gives a slow peer several
/// full gossip exchanges (plus retransmission delays) to pick the acks up.
const QUIET_ROUNDS: u8 = 4;

/// Tracks which multicasts this site has received in the current view and which of them are
/// known to have reached every member site.
#[derive(Clone, Debug)]
pub struct StabilityTracker {
    /// This endpoint's own site.
    my_site: SiteId,
    /// Every other member site, with the ids it has acknowledged in this view (the union of
    /// its gossip).  Stability needs all of them and this site's own `received`.
    peers: Vec<(SiteId, IdSet)>,
    /// Ids this site advertises in this view: every CBCAST received and every ABCAST decided
    /// here outside a flush ack's wait for the commit.  Shared with the gossip frames
    /// that report it: a report takes a handle, not a copy, and the set is copied only if the
    /// next receipt finds a frame still holding the last one.
    received: Rc<IdSet>,
    /// Copies not yet known stable: one queue per origin (sorted by site), ascending by
    /// sequence number, so on FIFO traffic copies enter at the back and leave at the front.
    held: Vec<(SiteId, VecDeque<HeldCopy>)>,
    /// Total length of the `held` queues.
    held_count: usize,
    /// Gossip rounds since a message last became stable here (see [`QUIET_ROUNDS`]);
    /// saturated while there has been none in this view.
    rounds_since_release: u8,
}

/// One held copy: what a flush report needs of it, without the frame it came in.
#[derive(Clone, Debug)]
struct HeldCopy {
    /// The multicast's sequence number at its origin.
    seq: u64,
    /// The frame's wire form ([`Frame::wire_segments`]): shares the frame's buffers.
    wire: Segments,
    /// CBCAST or ABCAST, read off the frame's typed value when held (it always has one on
    /// the packet path); a flush then reads the copy's header off its memo, not its bytes.
    protocol: Option<ProtocolKind>,
    /// The ABCAST decision made here, once there is one.
    ab_priority: Option<u64>,
}

impl HeldCopy {
    fn new(seq: u64, copy: StoredMsg) -> Self {
        HeldCopy {
            seq,
            wire: copy.wire.wire_segments(),
            protocol: copy.header().ok().map(|header| header.protocol),
            ab_priority: copy.ab_priority,
        }
    }

    /// The copy of `origin`'s multicast as a flush report carries it: a frame of the held
    /// bytes, with the copy's header in its memo slot if the protocol is known.
    fn to_stored(&self, origin: SiteId) -> StoredMsg {
        let wire = Frame::from_wire(self.wire.clone());
        if let Some(protocol) = self.protocol {
            let id = MsgId::new(origin, self.seq);
            wire.memo_get_or_init(|| DataHeader { id, protocol });
        }
        StoredMsg {
            wire,
            ab_priority: self.ab_priority,
        }
    }
}

impl StabilityTracker {
    /// Creates a tracker for a view spanning `member_sites`.
    pub fn new(my_site: SiteId, member_sites: Vec<SiteId>) -> Self {
        let mut tracker = StabilityTracker {
            my_site,
            peers: Vec::new(),
            received: Rc::default(),
            held: Vec::new(),
            held_count: 0,
            rounds_since_release: u8::MAX,
        };
        tracker.reset(member_sites);
        tracker
    }

    /// Resets for a new view.
    pub(crate) fn reset(&mut self, member_sites: Vec<SiteId>) {
        self.peers = member_sites
            .into_iter()
            .filter(|s| *s != self.my_site)
            .map(|s| (s, IdSet::new()))
            .collect();
        self.received = Rc::default();
        self.held.clear();
        self.held_count = 0;
        self.rounds_since_release = u8::MAX;
    }

    /// Number of messages currently held as potentially unstable.
    pub fn held_len(&self) -> usize {
        self.held_count
    }

    /// Records that this site received (and is buffering a copy of) a message, and
    /// advertises its id.  The tracker keeps the copy's bytes, not its frame.  An ABCAST is
    /// instead held (`hold`) until it is decided here (`StabilityTracker::set_ab_priority`).
    pub fn record_local(&mut self, id: MsgId, copy: StoredMsg) {
        if !Rc::make_mut(&mut self.received).insert(id) {
            // A duplicate, or a retransmitted copy of a message already stable here; do not
            // resurrect it.
            return;
        }
        if self.peers.iter().all(|(_, acked)| acked.contains(id)) {
            // Every peer's gossip overtook the data (or there is no peer).
            self.rounds_since_release = 0;
            return;
        }
        self.hold(id, copy);
    }

    /// Holds a copy without advertising its id: how an ABCAST is kept from receipt until
    /// [`StabilityTracker::set_ab_priority`] records its decision, so that a stable ABCAST
    /// is one decided at every member site, and how a CBCAST that arrives between this
    /// site's flush ack and the commit is kept for a re-ack to a takeover coordinator.
    pub(crate) fn hold(&mut self, id: MsgId, copy: StoredMsg) {
        let queue = match self.held.binary_search_by_key(&id.origin, |(s, _)| *s) {
            Ok(i) => &mut self.held[i].1,
            Err(i) => {
                self.held.insert(i, (id.origin, VecDeque::new()));
                &mut self.held[i].1
            }
        };
        let at = match queue.back() {
            Some(last) if last.seq > id.seq => queue.partition_point(|h| h.seq < id.seq),
            _ => queue.len(),
        };
        queue.insert(at, HeldCopy::new(id.seq, copy));
        self.held_count += 1;
    }

    /// Records that an ABCAST held here was decided at `priority`: its copy carries the
    /// priority into flush acks.  If `advertise`, its id is gossiped from now on, and the
    /// copy goes at once if every peer has acknowledged it already.
    pub(crate) fn set_ab_priority(&mut self, id: MsgId, priority: u64, advertise: bool) {
        let stable = advertise
            && Rc::make_mut(&mut self.received).insert(id)
            && self.peers.iter().all(|(_, acked)| acked.contains(id));
        let Ok(i) = self.held.binary_search_by_key(&id.origin, |(s, _)| *s) else {
            return;
        };
        let queue = &mut self.held[i].1;
        let Ok(at) = queue.binary_search_by_key(&id.seq, |h| h.seq) else {
            return;
        };
        queue[at].ab_priority = Some(priority);
        if stable {
            queue.remove(at);
            self.held_count -= 1;
            self.rounds_since_release = 0;
        }
    }

    /// Advertises a CBCAST held without its id since a flush ack whose flush was abandoned,
    /// and drops its copy if every peer has acknowledged it already.
    pub(crate) fn advertise(&mut self, id: MsgId) {
        Rc::make_mut(&mut self.received).insert(id);
        self.release_stable();
    }

    /// The ids this site has received in this view (sent in stability gossip).  It keeps
    /// every id for the whole view, stable or not — a run costs the same whatever its
    /// length — so a peer that missed a round loses nothing.  Cloning the handle is how a
    /// gossip frame takes the set along.
    pub fn received(&self) -> &Rc<IdSet> {
        &self.received
    }

    /// True if gossip has anything to advertise: held copies, or a message that became
    /// stable here within the last few (`QUIET_ROUNDS`) rounds.
    pub fn has_reportable(&self) -> bool {
        self.held_count > 0 || self.rounds_since_release <= QUIET_ROUNDS
    }

    /// Marks one gossip round as elapsed.  Call once per gossip interval, after sending.
    pub fn note_gossip_round(&mut self) {
        self.rounds_since_release = self.rounds_since_release.saturating_add(1);
    }

    /// Processes gossip from `from_site` that lists ids one by one; returns how many held
    /// copies became stable.  Consecutive ids fold into the peer's run as they are read.
    pub fn on_gossip(&mut self, from_site: SiteId, ids: &[MsgId]) -> usize {
        self.ingest(from_site, |acked| {
            for id in ids {
                acked.insert(*id);
            }
        })
    }

    /// Processes gossip from `from_site` carrying its received set; returns how many held
    /// copies became stable.
    pub fn on_gossip_set(&mut self, from_site: SiteId, received: &IdSet) -> usize {
        self.ingest(from_site, |acked| acked.union_with(received))
    }

    /// Adds to what `from_site` has acknowledged, then releases what that made stable.
    /// Gossip from a site outside the view is ignored.
    fn ingest(&mut self, from_site: SiteId, add: impl FnOnce(&mut IdSet)) -> usize {
        let Some((_, acked)) = self.peers.iter_mut().find(|(s, _)| *s == from_site) else {
            return 0;
        };
        add(acked);
        self.release_stable()
    }

    /// Returns copies of every message still considered unstable, for a flush ack: a
    /// frame of each held copy's bytes, sized if the copy's frame was.
    pub fn unstable(&self) -> Vec<StoredMsg> {
        let mut out = Vec::with_capacity(self.held_count);
        for (origin, queue) in &self.held {
            out.extend(queue.iter().map(|held| held.to_stored(*origin)));
        }
        out
    }

    /// Drops every held copy that all peers have acknowledged and this site advertises (an
    /// undecided ABCAST is held but not yet advertised).
    fn release_stable(&mut self) -> usize {
        let StabilityTracker {
            held,
            peers,
            received,
            ..
        } = self;
        let everywhere = || peers.iter().map(|(_, acked)| acked).chain([&**received]);
        let mut released = 0;
        'origins: for (origin, queue) in held.iter_mut() {
            let Some(front) = queue.front().map(|h| h.seq) else {
                continue;
            };
            // The stretch of this origin's ids that every site has acknowledged — exact
            // as long as each site's acks are a single run.
            let (mut lo, mut hi) = (0, u64::MAX);
            let mut one_run_each = true;
            for acked in everywhere() {
                match acked.runs_of(*origin) {
                    [] => continue 'origins,
                    [run] => {
                        lo = lo.max(run.lo);
                        hi = hi.min(run.hi);
                    }
                    _ => one_run_each = false,
                }
            }
            let before = queue.len();
            if one_run_each && front >= lo {
                // FIFO everywhere: the stable copies are the front of the queue up to `hi`.
                while queue.front().is_some_and(|h| h.seq <= hi) {
                    queue.pop_front();
                }
            } else {
                // A reordered packet is overdue somewhere; look at every copy.
                queue.retain(|h| {
                    let id = MsgId::new(*origin, h.seq);
                    !everywhere().all(|acked| acked.contains(id))
                });
            }
            released += before - queue.len();
        }
        if released > 0 {
            self.held_count -= released;
            self.rounds_since_release = 0;
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ProtoMsg;
    use vsync_msg::Message;
    use vsync_util::{GroupId, ProcessId, VectorClock};

    fn copy(n: u64) -> StoredMsg {
        StoredMsg {
            wire: Message::with_body(n).into(),
            ab_priority: None,
        }
    }

    fn id(site: u16, seq: u64) -> MsgId {
        MsgId::new(SiteId(site), seq)
    }

    fn held_bodies(t: &StabilityTracker) -> Vec<u64> {
        t.unstable()
            .iter()
            .filter_map(|s| s.wire.get_u64("body"))
            .collect()
    }

    /// A CBCAST as its origin writes it: bytes and typed value at once.
    fn written(seq: u64) -> Frame {
        ProtoMsg::CbData {
            id: id(0, seq),
            sender: ProcessId::new(SiteId(0), 1),
            sender_rank: 0,
            view_seq: 1,
            vt: VectorClock::from_entries(vec![seq, 0]),
            payload: Message::with_body(seq),
        }
        .into_frame(GroupId(1))
    }

    #[test]
    fn a_held_copy_keeps_the_frames_bytes_and_lets_the_frame_go() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        let frame = written(1);
        t.record_local(
            id(0, 1),
            StoredMsg {
                wire: frame.clone(),
                ab_priority: None,
            },
        );
        assert_eq!(t.held_len(), 1);
        assert_eq!(
            frame.handle_count(),
            1,
            "the frame and its typed value are not held"
        );
        // A copy received as bytes, whose size nobody has worked out yet.
        let received = Frame::from_wire(written(2).wire_segments());
        t.hold(id(0, 2), received.clone().into());
        assert_eq!(received.handle_count(), 1);
        let unstable = t.unstable();
        for (copy, original) in unstable.iter().zip([&frame, &received]) {
            let (ours, theirs) = (copy.wire.wire_segments(), original.wire_segments());
            assert_eq!(ours, theirs, "the same bytes");
            assert_eq!(
                ours.iter().next().map(|seg| seg.as_ptr()),
                theirs.iter().next().map(|seg| seg.as_ptr()),
                "shared, not copied"
            );
        }
        // Either copy is sized as its frame's bytes.
        assert_eq!(unstable[0].wire.wire_len(), frame.wire_bytes().len());
        assert_eq!(unstable[1].wire.wire_len(), received.wire_bytes().len());
    }

    #[test]
    fn single_site_groups_stabilize_immediately() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0)]);
        t.record_local(id(0, 1), copy(1));
        assert_eq!(
            t.held_len(),
            0,
            "own ack suffices when we are the only member site"
        );
    }

    #[test]
    fn stability_requires_every_member_site() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1), SiteId(2)]);
        t.record_local(id(0, 1), copy(1));
        assert_eq!(t.held_len(), 1);
        assert_eq!(t.on_gossip(SiteId(1), &[id(0, 1)]), 0);
        assert_eq!(t.on_gossip(SiteId(2), &[id(0, 1)]), 1);
        assert_eq!(t.held_len(), 0);
        assert!(t.unstable().is_empty());
    }

    #[test]
    fn unstable_copies_are_reported_for_flush() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        t.record_local(id(0, 1), copy(1));
        t.record_local(id(1, 5), copy(2));
        t.on_gossip(SiteId(1), &[id(0, 1)]);
        assert_eq!(held_bodies(&t), vec![2]);
    }

    #[test]
    fn ab_priority_updates_are_carried_in_copies() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        t.record_local(id(0, 1), copy(1));
        t.hold(id(0, 2), copy(2));
        assert!(!t.received().contains(id(0, 2)), "held, not advertised");
        t.set_ab_priority(id(0, 2), 42, true);
        assert!(t.received().contains(id(0, 2)), "advertised once decided");
        t.hold(id(0, 3), copy(3));
        t.set_ab_priority(id(0, 3), 43, false);
        assert!(!t.received().contains(id(0, 3)), "decided, not advertised");
        let unstable = t.unstable();
        assert_eq!(unstable.len(), 3);
        assert_eq!(unstable[0].ab_priority, None);
        assert_eq!(unstable[1].ab_priority, Some(42));
        assert_eq!(unstable[2].ab_priority, Some(43));
        // An ABCAST every peer acknowledged before this site decided it goes on the
        // decision, as a single-site group's does.
        t.on_gossip(SiteId(1), &[id(0, 4)]);
        t.hold(id(0, 4), copy(4));
        t.set_ab_priority(id(0, 4), 44, true);
        assert_eq!(t.held_len(), 3);
        let mut alone = StabilityTracker::new(SiteId(0), vec![SiteId(0)]);
        alone.hold(id(0, 1), copy(1));
        alone.set_ab_priority(id(0, 1), 1, true);
        assert_eq!(alone.held_len(), 0);
        assert!(alone.has_reportable());
    }

    #[test]
    fn an_undecided_abcast_is_not_stable_until_decided_here() {
        // Every peer decided and advertised the message; this site has not decided it, so
        // its copy stays — the flush must still hear of it from here.
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1), SiteId(2)]);
        t.hold(id(1, 1), copy(1));
        t.record_local(id(1, 2), copy(2));
        assert_eq!(t.on_gossip(SiteId(1), &[id(1, 1), id(1, 2)]), 0);
        assert_eq!(t.on_gossip(SiteId(2), &[id(1, 1), id(1, 2)]), 1);
        assert_eq!(
            held_bodies(&t),
            vec![1],
            "only the CBCAST behind the gap went"
        );
        t.set_ab_priority(id(1, 1), 9, true);
        assert!(t.received().contains(id(1, 1)));
        assert_eq!(t.held_len(), 0, "every peer had acknowledged it");
    }

    #[test]
    fn gossip_about_unknown_messages_is_remembered() {
        // A remote site may ack a message we have not received yet; when our copy arrives the
        // earlier ack still counts.
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        t.on_gossip(SiteId(1), &[id(1, 1)]);
        t.record_local(id(1, 1), copy(3));
        assert_eq!(t.held_len(), 0, "stable as soon as our copy arrives");
        assert!(t.has_reportable(), "and the receipt is still advertised");
    }

    #[test]
    fn stabilized_receiver_keeps_acking_until_the_origin_converges() {
        // The threaded-runtime regression: origin site 0 holds m; site 1 receives m and
        // hears the origin's gossip *before ever gossiping itself*, so it stabilizes
        // immediately.  If site 1 then went quiet, the origin could never complete its
        // ack set — m stayed "unstable" forever and every later view-change flush
        // redistributed it.
        let mut origin = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        let mut receiver = StabilityTracker::new(SiteId(1), vec![SiteId(0), SiteId(1)]);
        origin.record_local(id(0, 1), copy(1));
        receiver.record_local(id(0, 1), copy(1));
        // Site 1 hears the origin first and stabilizes at once.
        receiver.on_gossip_set(SiteId(0), origin.received());
        assert_eq!(receiver.held_len(), 0);
        // It must still have something to gossip, and that gossip must carry the id ...
        assert!(receiver.has_reportable());
        assert!(receiver.received().contains(id(0, 1)));
        // ... so the origin converges instead of holding m unstable forever.
        origin.on_gossip_set(SiteId(1), receiver.received());
        assert_eq!(origin.held_len(), 0);
        assert!(origin.unstable().is_empty());
        // A few quiet rounds later gossip stops.
        for round in 0..=QUIET_ROUNDS {
            assert!(receiver.has_reportable(), "round {round}");
            assert!(origin.has_reportable(), "round {round}");
            receiver.note_gossip_round();
            origin.note_gossip_round();
        }
        assert!(!receiver.has_reportable());
        assert!(!origin.has_reportable());
    }

    #[test]
    fn a_fresh_view_has_nothing_to_advertise() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        assert!(!t.has_reportable());
        for _ in 0..300 {
            t.note_gossip_round(); // the round counter saturates instead of wrapping
        }
        assert!(!t.has_reportable());
        t.on_gossip(SiteId(1), &[id(1, 1)]);
        assert!(
            !t.has_reportable(),
            "a peer's ack alone is nothing to report"
        );
    }

    #[test]
    fn a_peers_acks_are_kept_for_the_whole_view_as_one_run() {
        // Ack state per peer is a run, not an entry per id: it never ages out, so a copy
        // that arrives arbitrarily long after the peer's gossip is stable on arrival.
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        let ids: Vec<MsgId> = (1..=10_000).map(|seq| id(1, seq)).collect();
        t.on_gossip(SiteId(1), &ids);
        for _ in 0..100 {
            t.note_gossip_round();
        }
        assert_eq!(
            t.peers[0].1.runs().len(),
            1,
            "consecutive ids fold into a run"
        );
        t.record_local(id(1, 10_000), copy(3));
        assert_eq!(t.held_len(), 0);
        t.record_local(id(1, 10_001), copy(4));
        assert_eq!(t.held_len(), 1, "one past the acked run is not covered");
    }

    #[test]
    fn copies_behind_an_open_gap_are_released_exactly() {
        // Peer 1 received 1, 2 and 4 (3 is overdue there); peer 2 received everything.
        let sites = vec![SiteId(0), SiteId(1), SiteId(2)];
        let mut t = StabilityTracker::new(SiteId(0), sites);
        for seq in 1..=4 {
            t.record_local(id(0, seq), copy(seq));
        }
        t.on_gossip(SiteId(2), &[id(0, 1), id(0, 2), id(0, 3), id(0, 4)]);
        assert_eq!(t.on_gossip(SiteId(1), &[id(0, 1), id(0, 2), id(0, 4)]), 3);
        assert_eq!(held_bodies(&t), vec![3], "only the overdue one is unstable");
        assert_eq!(t.on_gossip(SiteId(1), &[id(0, 3)]), 1);
        assert_eq!(t.held_len(), 0);
        // A gap at the *start* of a peer's run blocks the front of the queue, not the rest.
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        for seq in [6, 5, 7] {
            t.record_local(id(0, seq), copy(seq)); // also: out-of-order receipt stays sorted
        }
        assert_eq!(held_bodies(&t), vec![5, 6, 7]);
        assert_eq!(t.on_gossip(SiteId(1), &[id(0, 6), id(0, 7)]), 2);
        assert_eq!(held_bodies(&t), vec![5]);
    }

    #[test]
    fn gossip_from_a_site_outside_the_view_is_ignored() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        t.record_local(id(0, 1), copy(1));
        assert_eq!(t.on_gossip(SiteId(7), &[id(0, 1)]), 0);
        assert_eq!(t.held_len(), 1);
    }

    #[test]
    fn retransmits_of_stable_messages_are_not_resurrected() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        t.record_local(id(0, 1), copy(1));
        t.on_gossip(SiteId(1), &[id(0, 1)]);
        assert_eq!(t.held_len(), 0);
        // A duplicate (retransmitted) copy of the now-stable message arrives.
        t.record_local(id(0, 1), copy(1));
        assert_eq!(t.held_len(), 0, "stable messages must not re-buffer");
        assert!(t.unstable().is_empty());
    }

    #[test]
    fn reset_drops_view_scoped_state() {
        let mut t = StabilityTracker::new(SiteId(0), vec![SiteId(0), SiteId(1)]);
        t.record_local(id(0, 1), copy(1));
        t.on_gossip(SiteId(1), &[id(0, 2)]);
        t.reset(vec![SiteId(0), SiteId(1)]);
        assert_eq!(t.held_len(), 0);
        assert!(t.received().runs().is_empty());
        assert!(!t.has_reportable());
        // The previous view's acks are gone too.
        t.record_local(id(0, 2), copy(2));
        assert_eq!(t.held_len(), 1);
    }
}
