//! The flush protocol that implements GBCAST and view changes.
//!
//! Virtual synchrony requires that "the delivery of an atomic multicast is always completed
//! before a group that forms part of its destinations is allowed to take on a new member"
//! (paper Section 2.4), and symmetrically that every surviving member observes the same set
//! of messages before a member is removed.  The flush achieves this:
//!
//! 1. the group coordinator (the site hosting the oldest surviving member) sends `FlushReq`
//!    to every member site;
//! 2. each site answers `FlushAck` with every message it has received in the current view
//!    that is not yet known stable (including its own sends), each ABCAST with its final
//!    priority if it is decided there, plus its ABCAST priority clock; from its ack to the
//!    commit the site delivers nothing, and gossips neither a decision made nor a CBCAST
//!    received in that time;
//! 3. the coordinator merges the reports — a reported decision wins, and an ABCAST nobody
//!    decided is settled above every reported clock, so after anything any site delivered —
//!    and multicasts `FlushCommit` carrying the agreed message set, the new view, and any
//!    user GBCAST payloads;
//! 4. every member delivers whatever it is missing from the agreed set, drops what it still
//!    cannot deliver (an ABCAST no report carried, a CBCAST whose predecessor none did),
//!    then delivers the view-change event, then resumes normal operation in the new view.
//!
//! This module holds the bookkeeping of both roles.  The endpoint's mode holds one of them
//! while a flush runs (coordinating, or acked and waiting for the commit), and
//! [`crate::endpoint::GroupEndpoint`] drives the exchange.

use std::collections::{BTreeMap, BTreeSet};

use vsync_net::{MsgId, ProtocolKind};
use vsync_util::{ProcessId, Result, SimTime, SiteId};

use crate::messages::StoredMsg;

/// Extracts the message id out of a stored (wire-form) data message through its header
/// ([`StoredMsg::header`]): neither a held copy nor one taken out of a flush ack's bytes is
/// parsed to find out which multicast it is.
pub(crate) fn stored_msg_id(stored: &StoredMsg) -> Result<MsgId> {
    stored.header().map(|header| header.id)
}

/// Coordinator-side state of an in-progress flush.
#[derive(Clone, Debug)]
pub struct FlushCoordinator {
    /// Sequence number of the view this flush installs.
    pub target_seq: u64,
    /// Takeover attempt counter.
    pub attempt: u64,
    /// Sites whose acks are still awaited.
    pub awaiting: BTreeSet<SiteId>,
    /// Union of unstable messages reported so far, keyed by message id.
    pub collected: BTreeMap<MsgId, StoredMsg>,
    /// The highest ABCAST priority clock reported so far.
    pub ab_clock: u64,
    /// When the flush started (for timeout-based retry).
    pub started_at: SimTime,
}

impl FlushCoordinator {
    /// Creates coordinator state awaiting acks from `awaiting`.
    pub(crate) fn new(
        target_seq: u64,
        attempt: u64,
        awaiting: BTreeSet<SiteId>,
        started_at: SimTime,
    ) -> Self {
        FlushCoordinator {
            target_seq,
            attempt,
            awaiting,
            collected: BTreeMap::new(),
            ab_clock: 0,
            started_at,
        }
    }

    /// Merges one site's report: its unstable messages and its ABCAST priority clock.  A
    /// reported decision wins over a report of the same ABCAST as undecided; two decisions
    /// never differ, because an initiator fixes an ABCAST's priority once.
    pub(crate) fn merge(&mut self, stored: Vec<StoredMsg>, ab_clock: u64) {
        self.ab_clock = self.ab_clock.max(ab_clock);
        for s in stored {
            let Ok(id) = stored_msg_id(&s) else { continue };
            let decided = s.ab_priority;
            let held = self.collected.entry(id).or_insert(s);
            debug_assert!(
                decided.is_none() || held.ab_priority.is_none() || held.ab_priority == decided,
                "two sites report different decisions for {id:?}"
            );
            held.ab_priority = held.ab_priority.or(decided);
        }
    }

    /// Records an ack from `site` (merging its report); returns true when every awaited site
    /// has answered.
    pub(crate) fn absorb_ack(
        &mut self,
        site: SiteId,
        stored: Vec<StoredMsg>,
        ab_clock: u64,
    ) -> bool {
        self.merge(stored, ab_clock);
        self.awaiting.remove(&site);
        self.awaiting.is_empty()
    }

    /// Drops a site from the awaited set (it failed mid-flush); returns true if the flush is
    /// now complete.
    pub(crate) fn forget_site(&mut self, site: SiteId) -> bool {
        self.awaiting.remove(&site);
        self.awaiting.is_empty()
    }

    /// The agreed message set, in a deterministic order, every ABCAST with its final
    /// priority.  One that no report decided is settled at one above the highest clock
    /// reported, so after everything any reporter has delivered; such ABCASTs tie, and
    /// their ids order them.
    pub(crate) fn deliver_set(&self) -> Vec<StoredMsg> {
        let settled = self.ab_clock + 1;
        let is_abcast = |s: &StoredMsg| {
            s.header()
                .is_ok_and(|header| header.protocol == ProtocolKind::Abcast)
        };
        self.collected
            .values()
            .map(|s| StoredMsg {
                wire: s.wire.clone(),
                ab_priority: s.ab_priority.or_else(|| is_abcast(s).then_some(settled)),
            })
            .collect()
    }
}

/// Participant-side state of an in-progress flush.
#[derive(Clone, Debug)]
pub struct FlushParticipant {
    /// The member coordinating this flush.
    pub initiator: ProcessId,
    /// Takeover attempt counter.
    pub attempt: u64,
    /// When we acked (for timeout-based takeover).
    pub started_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{wire_stats, ProtoMsg};
    use vsync_msg::{Frame, Message};
    use vsync_util::{GroupId, VectorClock};

    fn cb_stored(origin: u16, seq: u64, body: u64) -> StoredMsg {
        StoredMsg {
            wire: ProtoMsg::CbData {
                id: MsgId::new(SiteId(origin), seq),
                sender: ProcessId::new(SiteId(origin), 1),
                sender_rank: 0,
                view_seq: 1,
                vt: VectorClock::from_entries(vec![seq]),
                payload: Message::with_body(body),
            }
            .encode_frame(GroupId(1)),
            ab_priority: None,
        }
    }

    fn ab_stored(origin: u16, seq: u64, decided: Option<u64>) -> StoredMsg {
        StoredMsg {
            wire: ProtoMsg::AbData {
                id: MsgId::new(SiteId(origin), seq),
                sender: ProcessId::new(SiteId(origin), 1),
                view_seq: 1,
                payload: Message::with_body(seq),
            }
            .encode_frame(GroupId(1)),
            ab_priority: decided,
        }
    }

    #[test]
    fn stored_msg_id_extraction() {
        assert_eq!(
            stored_msg_id(&cb_stored(2, 9, 1)).unwrap(),
            MsgId::new(SiteId(2), 9)
        );
        assert_eq!(
            stored_msg_id(&ab_stored(1, 3, Some(7))).unwrap(),
            MsgId::new(SiteId(1), 3)
        );
        let bogus = StoredMsg {
            wire: ProtoMsg::LeaveReq {
                member: ProcessId::new(SiteId(0), 1),
            }
            .encode_frame(GroupId(1)),
            ab_priority: None,
        };
        assert!(stored_msg_id(&bogus).is_err());
    }

    #[test]
    fn merge_and_deliver_set_read_copies_from_an_acks_bytes_without_parsing_them() {
        let ack = ProtoMsg::FlushAck {
            target_seq: 2,
            from_site: SiteId(1),
            ab_clock: 3,
            stored: vec![
                cb_stored(1, 1, 10),
                ab_stored(1, 2, None),
                ab_stored(0, 3, Some(2)),
            ],
        }
        .into_frame(GroupId(1));
        // The ack as a peer beyond a thread boundary receives it: bytes, parsed once.
        let received = Frame::from_wire(ack.wire_segments());
        let Ok((_, ProtoMsg::FlushAck { stored, .. })) = ProtoMsg::decode_frame(&received) else {
            panic!("a flush ack");
        };
        let before = wire_stats::frame_decodes();
        let mut c = FlushCoordinator::new(2, 0, [SiteId(1)].into_iter().collect(), SimTime::ZERO);
        c.merge(stored.clone(), 3);
        let set: Vec<(MsgId, Option<u64>)> = c
            .deliver_set()
            .iter()
            .map(|s| (stored_msg_id(s).unwrap(), s.ab_priority))
            .collect();
        assert_eq!(
            wire_stats::frame_decodes() - before,
            0,
            "ids and protocols only"
        );
        let id = |origin, seq| MsgId::new(SiteId(origin), seq);
        assert_eq!(
            set,
            vec![(id(0, 3), Some(2)), (id(1, 1), None), (id(1, 2), Some(4))]
        );
    }

    #[test]
    fn acks_complete_when_every_site_answers() {
        let mut c = FlushCoordinator::new(
            2,
            0,
            [SiteId(1), SiteId(2)].into_iter().collect(),
            SimTime::ZERO,
        );
        assert!(!c.absorb_ack(SiteId(1), vec![cb_stored(1, 1, 10)], 0));
        assert!(c.absorb_ack(SiteId(2), vec![cb_stored(1, 1, 10), cb_stored(2, 1, 20)], 0));
        let set = c.deliver_set();
        assert_eq!(set.len(), 2, "duplicates are merged by id");
        assert!(
            set.iter().all(|s| s.ab_priority.is_none()),
            "CBCASTs get none"
        );
    }

    #[test]
    fn a_reported_decision_wins() {
        let mut c = FlushCoordinator::new(2, 0, [SiteId(1)].into_iter().collect(), SimTime::ZERO);
        c.merge(vec![ab_stored(0, 1, None)], 30);
        c.merge(vec![ab_stored(0, 1, Some(9))], 12);
        c.merge(vec![ab_stored(0, 1, None)], 4);
        let set = c.deliver_set();
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].ab_priority, Some(9), "not the clocks, not a maximum");
    }

    #[test]
    fn undecided_abcasts_settle_above_every_reported_clock() {
        let mut c = FlushCoordinator::new(2, 0, [SiteId(1)].into_iter().collect(), SimTime::ZERO);
        c.merge(vec![ab_stored(1, 1, None), ab_stored(0, 2, Some(5))], 7);
        c.merge(vec![ab_stored(0, 3, None), cb_stored(2, 1, 20)], 11);
        c.merge(Vec::new(), 9);
        let set: Vec<(MsgId, Option<u64>)> = c
            .deliver_set()
            .iter()
            .map(|s| (stored_msg_id(s).unwrap(), s.ab_priority))
            .collect();
        let id = |origin, seq| MsgId::new(SiteId(origin), seq);
        assert_eq!(
            set,
            vec![
                (id(0, 2), Some(5)),
                (id(0, 3), Some(12)),
                (id(1, 1), Some(12)),
                (id(2, 1), None),
            ],
            "one above the highest clock, whoever reported it; ids break the tie"
        );
    }

    #[test]
    fn forgetting_a_failed_site_can_complete_the_flush() {
        let mut c = FlushCoordinator::new(
            3,
            1,
            [SiteId(1), SiteId(2)].into_iter().collect(),
            SimTime::ZERO,
        );
        assert!(!c.forget_site(SiteId(1)));
        assert!(c.forget_site(SiteId(2)));
    }
}
