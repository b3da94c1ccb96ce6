//! CBCAST: causally ordered multicast.
//!
//! "Lamport observed that in a distributed system, the ordering of events is meaningful only
//! when information could have flowed from one to the other ...  CBCAST guarantees that if
//! any invocations of CBCAST are potentially causally related, the corresponding messages are
//! delivered everywhere in the order of invocation" (paper Section 3.1).
//!
//! The implementation is the classic vector-timestamp scheme: the sending endpoint increments
//! its own component and stamps the message; a receiver holds the message back until the
//! timestamp shows that every causally earlier message has already been delivered.  Messages
//! that are not causally related may be delivered in different orders at different sites —
//! that freedom is exactly what makes CBCAST cheap enough to use asynchronously.

use vsync_msg::Message;
use vsync_net::MsgId;
use vsync_util::{ProcessId, Rank, VectorClock};

/// A causally ordered message ready for delivery to the local members.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadyCb {
    /// Unique id of the multicast.
    pub id: MsgId,
    /// Application-level sender.
    pub sender: ProcessId,
    /// Rank of the sending endpoint in the view.
    pub sender_rank: Rank,
    /// Vector timestamp of the message.
    pub vt: VectorClock,
    /// Application payload.
    pub payload: Message,
}

/// A message waiting in the holdback queue for its causal predecessors.
#[derive(Clone, Debug)]
struct HeldCb {
    ready: ReadyCb,
}

/// Per-view CBCAST state of one group endpoint.
#[derive(Clone, Debug, Default)]
pub struct CbcastState {
    delivered_vt: VectorClock,
    holdback: Vec<HeldCb>,
}

impl CbcastState {
    /// Creates state for a view with `width` members.
    pub fn new(width: usize) -> Self {
        CbcastState {
            delivered_vt: VectorClock::zero(width),
            holdback: Vec::new(),
        }
    }

    /// Resets the state for a new view of `width` members.  Nothing from the previous view
    /// is held back any more: the flush commit delivered what it could and dropped the rest.
    pub(crate) fn reset(&mut self, width: usize) {
        self.delivered_vt = VectorClock::zero(width);
        self.holdback.clear();
    }

    /// Vector timestamp of everything delivered so far.
    #[cfg(test)]
    fn delivered_vt(&self) -> &VectorClock {
        &self.delivered_vt
    }

    /// Number of messages parked in the holdback queue.
    #[cfg(test)]
    fn holdback_len(&self) -> usize {
        self.holdback.len()
    }

    /// Prepares to send a new CBCAST from the local member at `my_rank`: advances the local
    /// clock and returns the timestamp to stamp on the message.  The caller must deliver the
    /// message locally right away (the local copy trivially satisfies the delivery rule).
    pub fn stamp_send(&mut self, my_rank: Rank) -> VectorClock {
        self.delivered_vt.increment(my_rank);
        self.delivered_vt.clone()
    }

    /// The in-order receive path, against a *borrowed* timestamp: if nothing is held back
    /// and a message stamped `vt` by the member at `sender_rank` is deliverable right now,
    /// merges `vt` and returns true — the caller delivers the message from wherever it
    /// sits, and no [`ReadyCb`] (so no copy of the timestamp) is ever built for it.  Returns
    /// false, changing nothing, for anything else; that message goes through
    /// [`CbcastState::receive_into`], which delivers the same sequence either way.
    pub(crate) fn deliver_in_order(&mut self, sender_rank: Rank, vt: &VectorClock) -> bool {
        let in_order =
            self.holdback.is_empty() && self.delivered_vt.deliverable_from(sender_rank, vt);
        if in_order {
            self.delivered_vt.merge(vt);
        }
        in_order
    }

    /// Handles an incoming CBCAST.  Returns every message (possibly including this one and
    /// previously held ones) that has become deliverable, in causal order.
    #[cfg(test)]
    fn receive(&mut self, msg: ReadyCb) -> Vec<ReadyCb> {
        let mut delivered = Vec::new();
        self.receive_into(msg, &mut delivered);
        delivered
    }

    /// Handles an incoming CBCAST, appending every message (possibly including this one and
    /// previously held ones) that has become deliverable, in causal order, to a caller-owned
    /// vector — the hot receive path reuses one scratch vector across packets instead of
    /// allocating per receive.
    pub fn receive_into(&mut self, msg: ReadyCb, delivered: &mut Vec<ReadyCb>) {
        self.holdback.push(HeldCb { ready: msg });
        self.drain_into(delivered);
    }

    /// Delivers every message whose causal predecessors have been delivered.
    fn drain_into(&mut self, delivered: &mut Vec<ReadyCb>) {
        loop {
            let idx = self.holdback.iter().position(|h| {
                self.delivered_vt
                    .deliverable_from(h.ready.sender_rank, &h.ready.vt)
            });
            match idx {
                Some(i) => {
                    let h = self.holdback.remove(i);
                    self.delivered_vt.merge(&h.ready.vt);
                    delivered.push(h.ready);
                }
                None => break,
            }
        }
    }

    /// Empties the holdback queue and returns the ids it held, in arrival order.  Used after
    /// a flush commit: a message still held back then waits for a predecessor that no
    /// survivor has, so no survivor may deliver it.
    pub(crate) fn discard(&mut self) -> Vec<MsgId> {
        self.holdback.drain(..).map(|h| h.ready.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn mk(id_seq: u64, sender_rank: Rank, vt: Vec<u64>) -> ReadyCb {
        ReadyCb {
            id: MsgId::new(SiteId(sender_rank as u16), id_seq),
            sender: ProcessId::new(SiteId(sender_rank as u16), 1),
            sender_rank,
            vt: VectorClock::from_entries(vt),
            payload: Message::with_body(id_seq),
        }
    }

    #[test]
    fn stamp_send_increments_own_component() {
        let mut cb = CbcastState::new(3);
        let vt1 = cb.stamp_send(1);
        assert_eq!(vt1.entries(), &[0, 1, 0]);
        let vt2 = cb.stamp_send(1);
        assert_eq!(vt2.entries(), &[0, 2, 0]);
    }

    #[test]
    fn in_order_messages_deliver_immediately() {
        let mut cb = CbcastState::new(2);
        let d1 = cb.receive(mk(1, 0, vec![1, 0]));
        assert_eq!(d1.len(), 1);
        let d2 = cb.receive(mk(2, 0, vec![2, 0]));
        assert_eq!(d2.len(), 1);
        assert_eq!(cb.delivered_vt().entries(), &[2, 0]);
    }

    #[test]
    fn causally_dependent_message_waits_for_its_predecessor() {
        let mut cb = CbcastState::new(2);
        // Rank 1 sent a message after seeing rank 0's first message; it arrives first.
        let dependent = mk(10, 1, vec![1, 1]);
        assert!(cb.receive(dependent.clone()).is_empty());
        assert_eq!(cb.holdback_len(), 1);
        // The predecessor arrives: both become deliverable, predecessor first.
        let predecessor = mk(1, 0, vec![1, 0]);
        let delivered = cb.receive(predecessor.clone());
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].id, predecessor.id);
        assert_eq!(delivered[1].id, dependent.id);
    }

    #[test]
    fn fifo_from_a_single_sender_is_preserved() {
        let mut cb = CbcastState::new(2);
        // Second message from rank 0 arrives before the first.
        assert!(cb.receive(mk(2, 0, vec![2, 0])).is_empty());
        let delivered = cb.receive(mk(1, 0, vec![1, 0]));
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].vt.get(0), 1);
        assert_eq!(delivered[1].vt.get(0), 2);
    }

    #[test]
    fn concurrent_messages_deliver_in_any_order_without_blocking() {
        let mut cb = CbcastState::new(3);
        let a = mk(1, 0, vec![1, 0, 0]);
        let b = mk(2, 1, vec![0, 1, 0]);
        assert_eq!(cb.receive(b).len(), 1);
        assert_eq!(cb.receive(a).len(), 1);
    }

    #[test]
    fn own_sends_interleave_with_receives() {
        let mut cb = CbcastState::new(2);
        // We are rank 0; we send one message.
        let vt = cb.stamp_send(0);
        assert_eq!(vt.entries(), &[1, 0]);
        // Rank 1 replies causally after ours: deliverable immediately.
        let reply = mk(5, 1, vec![1, 1]);
        assert_eq!(cb.receive(reply).len(), 1);
    }

    #[test]
    fn discard_drops_stuck_messages_and_delivers_nothing() {
        let mut cb = CbcastState::new(3);
        // Both messages depend on a rank-2 message nobody will ever get.
        let a = mk(3, 0, vec![1, 0, 1]);
        let b = mk(4, 1, vec![0, 1, 1]);
        assert!(cb.receive(b.clone()).is_empty());
        assert!(cb.receive(a.clone()).is_empty());
        assert_eq!(cb.discard(), vec![b.id, a.id], "in arrival order");
        assert_eq!(cb.holdback_len(), 0);
        // Nothing was delivered.
        assert_eq!(cb.delivered_vt(), &VectorClock::zero(3));
    }

    /// Feeds `arrivals` to two machines — one through `receive_into` alone, one trying the
    /// borrowed in-order path first, as the endpoint does — and checks after every arrival
    /// that both delivered the same ids in the same order and stand at the same clock.
    fn assert_paths_agree(width: usize, arrivals: &[ReadyCb]) -> Vec<MsgId> {
        let (mut queued, mut borrowed) = (CbcastState::new(width), CbcastState::new(width));
        let (mut via_queue, mut via_borrow) = (Vec::new(), Vec::new());
        for (n, msg) in arrivals.iter().enumerate() {
            queued.receive_into(msg.clone(), &mut via_queue);
            if borrowed.deliver_in_order(msg.sender_rank, &msg.vt) {
                via_borrow.push(msg.clone());
            } else {
                borrowed.receive_into(msg.clone(), &mut via_borrow);
            }
            assert_eq!(via_borrow, via_queue, "deliveries after arrival {n}");
            assert_eq!(
                borrowed.delivered_vt(),
                queued.delivered_vt(),
                "arrival {n}"
            );
            assert_eq!(
                borrowed.holdback_len(),
                queued.holdback_len(),
                "arrival {n}"
            );
        }
        via_queue.iter().map(|r| r.id).collect()
    }

    #[test]
    fn the_borrowed_in_order_path_delivers_what_the_queue_would() {
        let ids = |seqs: &[u64], rank: u16| -> Vec<MsgId> {
            seqs.iter().map(|s| MsgId::new(SiteId(rank), *s)).collect()
        };
        // In order: every arrival takes the borrowed path.
        let in_order = [mk(1, 0, vec![1, 0]), mk(2, 0, vec![2, 0])];
        assert_eq!(assert_paths_agree(2, &in_order), ids(&[1, 2], 0));
        // FIFO-inverted: the second message from rank 0 arrives first and waits.
        let fifo = [mk(2, 0, vec![2, 0]), mk(1, 0, vec![1, 0])];
        assert_eq!(assert_paths_agree(2, &fifo), ids(&[1, 2], 0));
        // Causally inverted: rank 1's message saw rank 0's first one, and overtakes it.
        let causal = [mk(10, 1, vec![1, 1]), mk(1, 0, vec![1, 0])];
        assert_eq!(
            assert_paths_agree(2, &causal),
            [ids(&[1], 0), ids(&[10], 1)].concat()
        );
        // In-order arrivals while the holdback is non-empty: rank 2's message waits for a
        // rank 1 message that comes last; rank 0's stream is in order throughout but must
        // go through the queue, and the late arrival releases the held message after it.
        let busy = [
            mk(7, 2, vec![0, 1, 1]),
            mk(1, 0, vec![1, 0, 0]),
            mk(2, 0, vec![2, 0, 0]),
            mk(5, 1, vec![0, 1, 0]),
        ];
        assert_eq!(
            assert_paths_agree(3, &busy),
            [ids(&[1, 2], 0), ids(&[5], 1), ids(&[7], 2)].concat()
        );
        // Duplicates: a copy of a delivered message is not deliverable on either path (the
        // endpoint's delivered set filters it before it gets here; the machine parks it).
        let dup = [
            mk(1, 0, vec![1, 0]),
            mk(1, 0, vec![1, 0]),
            mk(2, 0, vec![2, 0]),
            mk(2, 0, vec![2, 0]),
        ];
        assert_eq!(assert_paths_agree(2, &dup), ids(&[1, 2], 0));
    }

    #[test]
    fn the_two_receive_paths_agree_on_shuffled_causal_histories() {
        use vsync_util::DetRng;
        for seed in 0..64u64 {
            let mut rng = DetRng::new(0xCB_0000 + seed);
            // A causal history: each rank's next send carries everything that rank has
            // seen, and "sees" a random prefix of the others' sends first.
            let width = 3;
            let mut seen = vec![VectorClock::zero(width); width];
            let mut history: Vec<ReadyCb> = Vec::new();
            for n in 0..24u64 {
                let rank = rng.next_index(width);
                if let Some(other) = rng.choose(&history).cloned() {
                    seen[rank].merge(&other.vt);
                }
                seen[rank].increment(rank);
                history.push(mk(n + 1, rank, seen[rank].entries().to_vec()));
            }
            // Arrival order: shuffled, with a few duplicates mixed in.
            let mut arrivals = history.clone();
            for _ in 0..4 {
                arrivals.push(rng.choose(&history).expect("non-empty").clone());
            }
            rng.shuffle(&mut arrivals);
            let delivered = assert_paths_agree(width, &arrivals);
            assert_eq!(delivered.len(), history.len(), "seed {seed}: each once");
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut cb = CbcastState::new(2);
        cb.stamp_send(0);
        cb.receive(mk(9, 1, vec![5, 5]));
        cb.reset(4);
        assert_eq!(cb.delivered_vt().entries(), &[0, 0, 0, 0]);
        assert_eq!(cb.holdback_len(), 0);
    }
}
