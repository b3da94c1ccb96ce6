//! ABCAST: totally ordered atomic multicast via two-phase priority agreement.
//!
//! "A commonly occurring situation involves a number of concurrently executing processes that
//! communicate with a shared distributed resource, whose internal state is sensitive to the
//! order in which requests arrive ...  This ordering requirement corresponds to the primitive
//! we call ABCAST, which delivers messages atomically and in the same order everywhere"
//! (paper Section 3.1).
//!
//! The protocol is the ISIS two-phase priority scheme:
//!
//! 1. the initiator multicasts the message; every destination places it on a holdback queue
//!    tagged *undeliverable* with a locally proposed priority, and returns the proposal;
//! 2. the initiator picks the maximum proposal (ties broken by proposer site) and multicasts
//!    the final priority; destinations mark the message *deliverable* and deliver queued
//!    messages in priority order as soon as no undeliverable message could precede them.
//!
//! If the initiator fails before completing phase two, the view-change flush settles the
//! message: a decision any survivor reports wins, and a message nobody reports decided gets
//! a priority above every survivor's priority clock, so above everything any survivor has
//! delivered.

use std::collections::{BTreeMap, BTreeSet};

use vsync_msg::Message;
use vsync_net::MsgId;
use vsync_util::{FastHashMap, ProcessId, SiteId};

/// A totally ordered message ready for delivery to the local members.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadyAb {
    /// Unique id of the multicast.
    pub id: MsgId,
    /// Application-level sender.
    pub sender: ProcessId,
    /// Final priority assigned to the message.
    pub priority: u64,
    /// Application payload.
    pub payload: Message,
}

/// A message in the ABCAST holdback queue.
#[derive(Clone, Debug)]
struct PendingAb {
    sender: ProcessId,
    payload: Message,
    /// Priority proposed locally (phase one).
    proposed: u64,
    /// Final priority plus tie-break site, once phase two completes.
    decided: Option<(u64, SiteId)>,
}

/// Proposals being collected by the initiator of an ABCAST.
#[derive(Clone, Debug)]
struct Collecting {
    awaiting: Vec<SiteId>,
    max_seen: u64,
    max_site: SiteId,
}

/// Per-view ABCAST state of one group endpoint.
///
/// Delivery order is maintained *incrementally*: instead of rescanning the whole holdback
/// queue for the minimum on every delivery (O(n) per message, O(n²) per drain), the state
/// keeps two ordered indexes that `on_data`/`decide` update in O(log n) —
///
/// * `ready` — decided messages keyed by `(final_priority, id)`, i.e. exactly the delivery
///   order;
/// * `undecided` — the undecided frontier keyed by `(proposed_priority, id)`.  A decided
///   message may be delivered iff its key precedes every undecided key, because a final
///   priority can only be `>=` the local proposal it replaces.
///
/// `drain` then pops from `ready` while its head precedes the head of `undecided`.
#[derive(Clone, Debug, Default)]
pub struct AbcastState {
    /// Logical priority clock; proposals are strictly increasing locally.
    priority_clock: u64,
    /// Messages received (phase one) and not yet delivered.  Order never comes from this
    /// map (the two indexes below own ordering), so O(1) lookup wins over a BTreeMap.
    pending: FastHashMap<MsgId, PendingAb>,
    /// Delivery index: decided-but-undelivered messages by `(final_priority, id)`.
    ready: BTreeSet<(u64, MsgId)>,
    /// Undecided frontier: messages awaiting phase two, by `(proposed_priority, id)`.
    undecided: BTreeSet<(u64, MsgId)>,
    /// Messages this endpoint initiated and is still collecting proposals for.
    collecting: BTreeMap<MsgId, Collecting>,
}

impl AbcastState {
    /// Creates empty state.  The holdback map is pre-sized so a burst of concurrent
    /// multicasts does not pay rehashing costs on the delivery path.
    pub fn new() -> Self {
        AbcastState {
            pending: FastHashMap::with_capacity_and_hasher(128, Default::default()),
            ..AbcastState::default()
        }
    }

    /// Resets the state for a new view.
    pub(crate) fn reset(&mut self) {
        self.priority_clock = 0;
        self.pending.clear();
        self.ready.clear();
        self.undecided.clear();
        self.collecting.clear();
    }

    fn next_priority(&mut self) -> u64 {
        self.priority_clock += 1;
        self.priority_clock
    }

    /// Phase one at the initiator: registers the outgoing message, records the initiator's
    /// own proposal, and lists the peer sites whose proposals are awaited.
    ///
    /// Returns `true` if the message is already fully ordered (single-site group).
    pub fn initiate(
        &mut self,
        id: MsgId,
        sender: ProcessId,
        payload: Message,
        my_site: SiteId,
        peer_sites: Vec<SiteId>,
    ) -> bool {
        let my_proposal = self.next_priority();
        self.pending.insert(
            id,
            PendingAb {
                sender,
                payload,
                proposed: my_proposal,
                decided: None,
            },
        );
        self.undecided.insert((my_proposal, id));
        if peer_sites.is_empty() {
            // Nobody else to ask: our proposal is final.
            self.decide(id, my_proposal, my_site);
            true
        } else {
            self.collecting.insert(
                id,
                Collecting {
                    awaiting: peer_sites,
                    max_seen: my_proposal,
                    max_site: my_site,
                },
            );
            false
        }
    }

    /// Phase one at a destination: stores the message and returns the priority to propose.
    /// Duplicate deliveries of the same id return the previously proposed priority.
    pub fn on_data(&mut self, id: MsgId, sender: ProcessId, payload: Message) -> u64 {
        match self.pending.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().proposed,
            std::collections::hash_map::Entry::Vacant(e) => {
                self.priority_clock += 1;
                let proposed = self.priority_clock;
                e.insert(PendingAb {
                    sender,
                    payload,
                    proposed,
                    decided: None,
                });
                self.undecided.insert((proposed, id));
                proposed
            }
        }
    }

    /// Phase two input at the initiator: records a proposal from `from_site`.
    ///
    /// Returns `Some((final_priority, tiebreak_site))` once every awaited site has answered;
    /// the caller must then multicast the decision (and apply it locally via
    /// [`AbcastState::decide`]).
    pub fn on_proposal(
        &mut self,
        id: MsgId,
        from_site: SiteId,
        proposed: u64,
    ) -> Option<(u64, SiteId)> {
        let c = self.collecting.get_mut(&id)?;
        c.awaiting.retain(|s| *s != from_site);
        if proposed > c.max_seen || (proposed == c.max_seen && from_site > c.max_site) {
            c.max_seen = proposed;
            c.max_site = from_site;
        }
        if c.awaiting.is_empty() {
            let decision = (c.max_seen, c.max_site);
            self.collecting.remove(&id);
            Some(decision)
        } else {
            None
        }
    }

    /// A peer site is no longer awaited (it failed); returns a decision if that completes the
    /// collection for any message.  Used when a view change races with an ongoing ABCAST.
    pub(crate) fn forget_site(&mut self, site: SiteId) -> Vec<(MsgId, u64, SiteId)> {
        let mut decisions = Vec::new();
        self.collecting.retain(|id, c| {
            c.awaiting.retain(|s| *s != site);
            if c.awaiting.is_empty() {
                decisions.push((*id, c.max_seen, c.max_site));
                false
            } else {
                true
            }
        });
        decisions
    }

    /// Phase two at a destination (or locally at the initiator): fixes the final priority.
    pub fn decide(&mut self, id: MsgId, final_priority: u64, tiebreak_site: SiteId) {
        if let Some(p) = self.pending.get_mut(&id) {
            match p.decided {
                Some((old, _)) => {
                    // A repeated decision (a flush commit settling a message this site
                    // decided after its ack) re-keys the delivery index.
                    self.ready.remove(&(old, id));
                }
                None => {
                    self.undecided.remove(&(p.proposed, id));
                }
            }
            p.decided = Some((final_priority, tiebreak_site));
            self.ready.insert((final_priority, id));
        }
        // The priority clock must never run behind a decided priority, otherwise a later
        // proposal could be ordered before an already-delivered message.
        if final_priority > self.priority_clock {
            self.priority_clock = final_priority;
        }
    }

    /// Returns true if the message is known but not yet delivered.
    pub(crate) fn is_pending(&self, id: &MsgId) -> bool {
        self.pending.contains_key(id)
    }

    /// The priority clock: at least every priority this state has proposed or decided, so
    /// at least every priority it has delivered.  A flush ack reports it.
    pub(crate) fn priority_clock(&self) -> u64 {
        self.priority_clock
    }

    /// Drops every message still awaiting phase two and returns their ids in order.  Used
    /// after a flush commit, which settled every ABCAST in the cut: what is still undecided
    /// was never in the cut, and no survivor may deliver it.
    pub fn discard_undecided(&mut self) -> Vec<MsgId> {
        let ids: Vec<MsgId> = std::mem::take(&mut self.undecided)
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        for id in &ids {
            self.pending.remove(id);
        }
        ids
    }

    /// Delivers every message whose final priority is known and cannot be preceded by any
    /// still-undecided message.  Delivery order is `(priority, message id)`, identical at
    /// every member.
    pub fn drain(&mut self) -> Vec<ReadyAb> {
        let mut out = Vec::new();
        // Deliver the head of the `ready` index while no undecided message could precede it
        // (an undecided message's final priority can only be >= its proposal, so comparing
        // against the undecided head's proposal key is safe).
        while let Some(&(prio, id)) = self.ready.first() {
            if let Some(&frontier) = self.undecided.first() {
                if frontier < (prio, id) {
                    break;
                }
            }
            self.ready.pop_first();
            let p = self.pending.remove(&id).expect("pending entry");
            out.push(ReadyAb {
                id,
                sender: p.sender,
                priority: prio,
                payload: p.payload,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(site: u16) -> ProcessId {
        ProcessId::new(SiteId(site), 1)
    }

    fn id(site: u16, seq: u64) -> MsgId {
        MsgId::new(SiteId(site), seq)
    }

    #[test]
    fn single_site_group_orders_immediately() {
        let mut ab = AbcastState::new();
        let done = ab.initiate(
            id(0, 1),
            pid(0),
            Message::with_body(1u64),
            SiteId(0),
            vec![],
        );
        assert!(done);
        let delivered = ab.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].id, id(0, 1));
    }

    #[test]
    fn two_phase_flow_delivers_after_all_proposals() {
        let mut ab = AbcastState::new();
        let done = ab.initiate(
            id(0, 1),
            pid(0),
            Message::with_body(1u64),
            SiteId(0),
            vec![SiteId(1), SiteId(2)],
        );
        assert!(!done);
        assert!(ab.drain().is_empty(), "not deliverable before the decision");
        assert!(ab.on_proposal(id(0, 1), SiteId(1), 5).is_none());
        let decision = ab
            .on_proposal(id(0, 1), SiteId(2), 3)
            .expect("all proposals in");
        assert_eq!(decision.0, 5, "final priority is the maximum proposal");
        ab.decide(id(0, 1), decision.0, decision.1);
        let delivered = ab.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].priority, 5);
    }

    #[test]
    fn destinations_deliver_in_final_priority_order() {
        // Two concurrent ABCASTs seen by one destination in the "wrong" order.
        let mut ab = AbcastState::new();
        let p1 = ab.on_data(id(1, 1), pid(1), Message::with_body("first"));
        let p2 = ab.on_data(id(2, 1), pid(2), Message::with_body("second"));
        assert!(p2 > p1);
        // The second message's final priority is lower than the first's: it must deliver first.
        ab.decide(id(2, 1), p2, SiteId(2));
        // Not deliverable yet: message 1 is still undecided with a lower proposal.
        assert!(ab.drain().is_empty());
        ab.decide(id(1, 1), p2 + 3, SiteId(1));
        let delivered = ab.drain();
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].id, id(2, 1));
        assert_eq!(delivered[1].id, id(1, 1));
    }

    #[test]
    fn duplicate_data_returns_same_proposal() {
        let mut ab = AbcastState::new();
        let p1 = ab.on_data(id(1, 1), pid(1), Message::with_body(1u64));
        let p2 = ab.on_data(id(1, 1), pid(1), Message::with_body(1u64));
        assert_eq!(p1, p2);
        ab.decide(id(1, 1), p1, SiteId(1));
        assert_eq!(ab.drain().len(), 1, "held once");
    }

    #[test]
    fn priority_clock_never_runs_behind_decisions() {
        let mut ab = AbcastState::new();
        ab.on_data(id(1, 1), pid(1), Message::with_body(1u64));
        ab.decide(id(1, 1), 100, SiteId(1));
        let _ = ab.drain();
        // A new proposal must exceed the decided priority, otherwise total order could break.
        let p = ab.on_data(id(2, 1), pid(2), Message::with_body(2u64));
        assert!(p > 100);
    }

    #[test]
    fn forget_site_completes_collection() {
        let mut ab = AbcastState::new();
        ab.initiate(
            id(0, 1),
            pid(0),
            Message::with_body(1u64),
            SiteId(0),
            vec![SiteId(1), SiteId(2)],
        );
        ab.on_proposal(id(0, 1), SiteId(1), 9);
        let decisions = ab.forget_site(SiteId(2));
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].1, 9);
    }

    #[test]
    fn discarding_the_undecided_releases_what_they_blocked() {
        let mut ab = AbcastState::new();
        ab.on_data(id(1, 1), pid(1), Message::with_body(1u64));
        ab.on_data(id(2, 1), pid(2), Message::with_body(2u64));
        ab.decide(id(2, 1), 1_000, SiteId(2));
        assert!(
            ab.drain().is_empty(),
            "blocked behind the undecided low proposal"
        );
        assert_eq!(ab.priority_clock(), 1_000);
        assert_eq!(ab.discard_undecided(), vec![id(1, 1)]);
        let drained = ab.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, id(2, 1));
        assert!(!ab.is_pending(&id(1, 1)) && !ab.is_pending(&id(2, 1)));
    }

    #[test]
    fn total_order_is_identical_across_simulated_destinations() {
        // Simulate three destinations receiving two concurrent ABCASTs in different orders,
        // then applying the same decisions: the delivery order must be identical.
        let decisions = [(id(1, 1), 7u64, SiteId(1)), (id(2, 1), 7u64, SiteId(2))];
        let mut orders = Vec::new();
        for arrival in [
            vec![(id(1, 1), pid(1)), (id(2, 1), pid(2))],
            vec![(id(2, 1), pid(2)), (id(1, 1), pid(1))],
        ] {
            let mut ab = AbcastState::new();
            for (mid, sender) in arrival {
                ab.on_data(mid, sender, Message::with_body(mid.seq));
            }
            for (mid, prio, site) in decisions {
                ab.decide(mid, prio, site);
            }
            let order: Vec<MsgId> = ab.drain().into_iter().map(|r| r.id).collect();
            orders.push(order);
        }
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[0].len(), 2);
    }
}
