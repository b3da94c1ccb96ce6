//! Property tests: the indexed ABCAST delivery path (`BTreeSet` delivery index plus
//! undecided frontier) must produce *exactly* the delivery sequence of the original
//! full-scan holdback queue, across random arrival/decision interleavings.
//!
//! The reference model below is a line-for-line port of the pre-index implementation:
//! a `BTreeMap` holdback queue whose `drain` rescans all pending messages for the minimum
//! effective key on every delivery.  Divergence in `drain` fails the test.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vsync_msg::Message;
use vsync_net::MsgId;
use vsync_proto::abcast::AbcastState;
use vsync_util::{ProcessId, SiteId};

/// The original full-scan implementation, kept as the executable specification.
#[derive(Default)]
struct ReferenceAbcast {
    priority_clock: u64,
    pending: BTreeMap<MsgId, RefPending>,
}

struct RefPending {
    proposed: u64,
    decided: Option<(u64, SiteId)>,
}

impl ReferenceAbcast {
    fn on_data(&mut self, id: MsgId, _sender: ProcessId, _payload: Message) -> u64 {
        if let Some(p) = self.pending.get(&id) {
            return p.proposed;
        }
        self.priority_clock += 1;
        let proposed = self.priority_clock;
        self.pending.insert(
            id,
            RefPending {
                proposed,
                decided: None,
            },
        );
        proposed
    }

    fn decide(&mut self, id: MsgId, final_priority: u64, site: SiteId) {
        if let Some(p) = self.pending.get_mut(&id) {
            p.decided = Some((final_priority, site));
        }
        if final_priority > self.priority_clock {
            self.priority_clock = final_priority;
        }
    }

    /// The O(n²) drain: full rescan for the minimum effective key per delivery.
    fn drain(&mut self) -> Vec<(MsgId, u64)> {
        let mut out = Vec::new();
        loop {
            let min_key = self
                .pending
                .iter()
                .map(|(id, p)| {
                    let prio = p.decided.map(|(f, _)| f).unwrap_or(p.proposed);
                    (prio, *id)
                })
                .min();
            let Some((_, min_id)) = min_key else { break };
            let decided = self.pending.get(&min_id).and_then(|p| p.decided);
            match decided {
                Some((prio, _site)) => {
                    self.pending.remove(&min_id).expect("pending entry");
                    out.push((min_id, prio));
                }
                None => break,
            }
        }
        out
    }
}

/// One step of a random ABCAST history, to be applied to both implementations.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Phase one arrival of message `idx` (idempotent on duplicates).
    Arrive(u8),
    /// Phase two decision for message `idx` with a priority offset and tie-break site.
    Decide(u8, u8, u8),
    /// Opportunistic delivery drain.
    Drain,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12).prop_map(Op::Arrive),
        (0u8..12, any::<u8>(), 0u8..4).prop_map(|(i, prio, site)| Op::Decide(i, prio, site)),
        Just(Op::Drain),
    ]
}

fn msg_id(idx: u8) -> MsgId {
    // Spread origins over a few sites so id tie-breaks are exercised.
    MsgId::new(SiteId(u16::from(idx % 3)), u64::from(idx))
}

fn sender(idx: u8) -> ProcessId {
    ProcessId::new(SiteId(u16::from(idx % 3)), u32::from(idx) + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn indexed_abcast_matches_the_full_scan_reference(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut new_impl = AbcastState::new();
        let mut reference = ReferenceAbcast::default();
        let mut delivered_new: Vec<(MsgId, u64)> = Vec::new();
        let mut delivered_ref: Vec<(MsgId, u64)> = Vec::new();

        for op in &ops {
            match *op {
                Op::Arrive(idx) => {
                    let id = msg_id(idx);
                    let p_new = new_impl.on_data(id, sender(idx), Message::with_body(u64::from(idx)));
                    let p_ref = reference.on_data(id, sender(idx), Message::with_body(u64::from(idx)));
                    prop_assert_eq!(p_new, p_ref, "proposals diverged for {:?}", id);
                }
                Op::Decide(idx, prio_offset, site) => {
                    let id = msg_id(idx);
                    // Priorities near the current clock keep the decided/undecided frontier
                    // interleaved rather than trivially ordered.
                    let base = reference.priority_clock;
                    let prio = base.saturating_sub(2) + u64::from(prio_offset % 8);
                    new_impl.decide(id, prio, SiteId(u16::from(site)));
                    reference.decide(id, prio, SiteId(u16::from(site)));
                }
                Op::Drain => {
                    delivered_new.extend(new_impl.drain().into_iter().map(|r| (r.id, r.priority)));
                    delivered_ref.extend(reference.drain());
                    prop_assert_eq!(&delivered_new, &delivered_ref, "drain order diverged");
                }
            }
        }

        delivered_new.extend(new_impl.drain().into_iter().map(|r| (r.id, r.priority)));
        delivered_ref.extend(reference.drain());
        prop_assert_eq!(delivered_new, delivered_ref, "total delivery order diverged");
    }

    #[test]
    fn two_destinations_with_same_decisions_deliver_identically(
        arrivals_a in proptest::collection::vec(0u8..10, 1..20),
        arrivals_b in proptest::collection::vec(0u8..10, 1..20),
        prios in proptest::collection::vec((0u8..10, any::<u8>()), 1..20),
    ) {
        // Two endpoints see overlapping message sets in different orders, then apply the
        // same decisions; messages decided at both must deliver in the same relative order.
        let mut site_a = AbcastState::new();
        let mut site_b = AbcastState::new();
        for idx in &arrivals_a {
            site_a.on_data(msg_id(*idx), sender(*idx), Message::with_body(u64::from(*idx)));
        }
        for idx in &arrivals_b {
            site_b.on_data(msg_id(*idx), sender(*idx), Message::with_body(u64::from(*idx)));
        }
        for (idx, prio) in &prios {
            let final_prio = 100 + u64::from(*prio);
            site_a.decide(msg_id(*idx), final_prio, SiteId(0));
            site_b.decide(msg_id(*idx), final_prio, SiteId(0));
        }
        // The flush cut: what is still undecided was never in the cut and is dropped, and
        // everything decided is delivered.
        site_a.discard_undecided();
        site_b.discard_undecided();
        let order_a: Vec<MsgId> = site_a.drain().into_iter().map(|r| r.id).collect();
        let order_b: Vec<MsgId> = site_b.drain().into_iter().map(|r| r.id).collect();
        // Project each site's order onto the common (decided) subset.
        let decided: std::collections::BTreeSet<MsgId> =
            prios.iter().map(|(idx, _)| msg_id(*idx)).collect();
        let common_a: Vec<MsgId> = order_a
            .iter()
            .filter(|id| decided.contains(id) && order_b.contains(id))
            .copied()
            .collect();
        let common_b: Vec<MsgId> = order_b
            .iter()
            .filter(|id| decided.contains(id) && order_a.contains(id))
            .copied()
            .collect();
        prop_assert_eq!(common_a, common_b, "decided messages must share one total order");
    }
}
