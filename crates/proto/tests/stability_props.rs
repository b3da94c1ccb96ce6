//! Model-based property test: the run-based [`StabilityTracker`] must hold *exactly* the
//! copies the id-list algorithm it replaced would hold, after every step of a random
//! schedule of sends, in-order / reordered / duplicated receipts, gossip that overtakes the
//! data it acknowledges, and gossip rounds.
//!
//! What a tracker does with a peer's gossip is [`IdSet::union_with`] — a merge of two run
//! lists, in place when they have the same shape — so that is pinned here too, against
//! inserting the same ids one at a time.
//!
//! The reference below is that algorithm as an executable specification: one entry per
//! message id with its ack set, gossip as an explicit id list — minus the tombstone and
//! orphan ageing, which bounded the old representation's memory and have no counterpart
//! now that a peer's acks cost one run for the whole view.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use vsync_msg::Message;
use vsync_net::MsgId;
use vsync_proto::messages::StoredMsg;
use vsync_proto::stability::StabilityTracker;
use vsync_proto::IdSet;
use vsync_util::SiteId;

/// The id-list algorithm: per message, who acknowledged it and whether a copy is held.
struct ReferenceTracker {
    my_site: SiteId,
    member_sites: Vec<SiteId>,
    acked: BTreeMap<MsgId, BTreeSet<SiteId>>,
    received: BTreeSet<MsgId>,
    held: BTreeSet<MsgId>,
}

impl ReferenceTracker {
    fn new(my_site: SiteId, member_sites: Vec<SiteId>) -> Self {
        ReferenceTracker {
            my_site,
            member_sites,
            acked: BTreeMap::new(),
            received: BTreeSet::new(),
            held: BTreeSet::new(),
        }
    }

    fn record_local(&mut self, id: MsgId) {
        if !self.received.insert(id) {
            return; // a duplicate; a stable message is not resurrected
        }
        self.acked.entry(id).or_default().insert(self.my_site);
        self.held.insert(id);
        self.collect(id);
    }

    fn on_gossip(&mut self, from: SiteId, ids: &[MsgId]) {
        for id in ids {
            self.acked.entry(*id).or_default().insert(from);
            self.collect(*id);
        }
    }

    fn collect(&mut self, id: MsgId) {
        let acks = &self.acked[&id];
        if self.member_sites.iter().all(|s| acks.contains(s)) {
            self.held.remove(&id);
        }
    }
}

/// What travels on a channel: a data message, or one site's gossip in both forms.
#[derive(Clone)]
enum InFlight {
    Data(MsgId),
    Gossip { set: IdSet, ids: Vec<MsgId> },
}

struct Model {
    sites: Vec<SiteId>,
    trackers: Vec<StabilityTracker>,
    references: Vec<ReferenceTracker>,
    next_seq: Vec<u64>,
    /// `channels[src][dst]`, FIFO unless a step picks from the middle.
    channels: Vec<Vec<VecDeque<InFlight>>>,
}

fn copy_of(id: MsgId) -> StoredMsg {
    StoredMsg {
        wire: Message::new()
            .with("origin", u64::from(id.origin.0))
            .with("seq", id.seq)
            .into(),
        ab_priority: None,
    }
}

fn expand(set: &IdSet) -> Vec<MsgId> {
    set.runs()
        .iter()
        .flat_map(|r| (r.lo..=r.hi).map(|seq| MsgId::new(r.origin, seq)))
        .collect()
}

impl Model {
    fn new(n: usize, first_seq: u64) -> Self {
        let sites: Vec<SiteId> = (0..n as u16).map(SiteId).collect();
        Model {
            trackers: sites
                .iter()
                .map(|s| StabilityTracker::new(*s, sites.clone()))
                .collect(),
            references: sites
                .iter()
                .map(|s| ReferenceTracker::new(*s, sites.clone()))
                .collect(),
            // Ids continue from earlier views: a view's run does not start at 1.
            next_seq: vec![first_seq; n],
            channels: vec![vec![VecDeque::new(); n]; n],
            sites,
        }
    }

    fn send(&mut self, src: usize) {
        let id = MsgId::new(self.sites[src], self.next_seq[src]);
        self.next_seq[src] += 1;
        self.trackers[src].record_local(id, copy_of(id));
        self.references[src].record_local(id);
        for dst in 0..self.sites.len() {
            if dst != src {
                self.channels[src][dst].push_back(InFlight::Data(id));
            }
        }
    }

    fn gossip(&mut self, src: usize) {
        let set = IdSet::clone(self.trackers[src].received());
        let ids: Vec<MsgId> = self.references[src].received.iter().copied().collect();
        assert_eq!(expand(&set), ids, "site {src} advertises a different set");
        for dst in 0..self.sites.len() {
            if dst != src {
                self.channels[src][dst].push_back(InFlight::Gossip {
                    set: set.clone(),
                    ids: ids.clone(),
                });
            }
        }
        self.trackers[src].note_gossip_round();
    }

    /// Hands the item at `pos` of channel `src -> dst` to `dst`; `keep` leaves it queued,
    /// so it arrives again later (a duplicate).  `listed` feeds gossip through the
    /// explicit-id entry point instead of the set one.
    fn receive(&mut self, src: usize, dst: usize, pos: usize, keep: bool, listed: bool) {
        let queue = &mut self.channels[src][dst];
        if queue.is_empty() {
            return;
        }
        let pos = pos % queue.len();
        let item = if keep {
            queue[pos].clone()
        } else {
            queue.remove(pos).expect("position in range")
        };
        match item {
            InFlight::Data(id) => {
                self.trackers[dst].record_local(id, copy_of(id));
                self.references[dst].record_local(id);
            }
            InFlight::Gossip { set, ids } => {
                if listed {
                    self.trackers[dst].on_gossip(self.sites[src], &ids);
                } else {
                    self.trackers[dst].on_gossip_set(self.sites[src], &set);
                }
                self.references[dst].on_gossip(self.sites[src], &ids);
            }
        }
    }

    /// The held ids of every tracker must equal the reference's, and the count beside
    /// them must agree.
    fn check(&self, step: &str) {
        for (i, (tracker, reference)) in self.trackers.iter().zip(&self.references).enumerate() {
            let held: BTreeSet<MsgId> = tracker
                .unstable()
                .iter()
                .map(|s| {
                    MsgId::new(
                        SiteId(s.wire.get_u64("origin").expect("origin") as u16),
                        s.wire.get_u64("seq").expect("seq"),
                    )
                })
                .collect();
            assert_eq!(held, reference.held, "site {i} after {step}");
            assert_eq!(tracker.held_len(), reference.held.len(), "site {i} count");
        }
    }

    fn drain_in_order(&mut self) {
        let n = self.sites.len();
        for src in 0..n {
            for dst in 0..n {
                while !self.channels[src][dst].is_empty() {
                    self.receive(src, dst, 0, false, false);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn run_based_tracker_holds_exactly_what_the_id_list_reference_holds(
        n in 2usize..5,
        first_seq in 1u64..1_000,
        steps in proptest::collection::vec((0u8..12, any::<u8>(), any::<u8>(), any::<u8>()), 1..250),
    ) {
        let mut m = Model::new(n, first_seq);
        for (kind, a, b, c) in &steps {
            let src = *a as usize % n;
            let dst = (src + 1 + *b as usize % (n - 1)) % n;
            let label = match kind {
                0..=3 => {
                    m.send(src);
                    "send"
                }
                4..=6 => {
                    m.receive(src, dst, 0, false, c % 2 == 0);
                    "in-order receipt"
                }
                7 | 8 => {
                    m.receive(src, dst, *c as usize, false, c % 2 == 0);
                    "reordered receipt"
                }
                9 => {
                    m.receive(src, dst, *c as usize, true, c % 2 == 0);
                    "duplicated receipt"
                }
                _ => {
                    m.gossip(src);
                    "gossip round"
                }
            };
            m.check(label);
        }
        // Quiesce: everything in flight lands, then two full gossip exchanges.  Every copy
        // must be released everywhere, and after the quiet rounds gossip stops.
        m.drain_in_order();
        m.check("drain");
        for _ in 0..2 {
            for src in 0..n {
                m.gossip(src);
            }
            m.drain_in_order();
            m.check("closing gossip");
        }
        for (i, tracker) in m.trackers.iter_mut().enumerate() {
            prop_assert_eq!(tracker.held_len(), 0, "site {} still holds copies", i);
            for _ in 0..8 {
                tracker.note_gossip_round();
            }
            prop_assert!(!tracker.has_reportable(), "site {} never goes quiet", i);
        }
    }
}

/// A set built from `(origin, lo, extra)` stretches, in the order given: the stretches
/// overlap, touch, repeat and leave gaps as they come.
fn set_from(stretches: &[(u8, u8, u8)]) -> IdSet {
    let mut set = IdSet::new();
    for (origin, lo, extra) in stretches {
        let lo = u64::from(*lo);
        set.insert_run(SiteId(u16::from(*origin)), lo, lo + u64::from(*extra));
    }
    set
}

fn assert_canonical(set: &IdSet) {
    assert!(
        set.runs()
            .windows(2)
            .all(|w| w[0].origin < w[1].origin
                || (w[0].origin == w[1].origin && w[0].hi + 1 < w[1].lo)),
        "runs must stay sorted, disjoint and apart: {:?}",
        set.runs()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn union_with_is_inserting_every_id_one_by_one(
        ours in proptest::collection::vec((0u8..4, 0u8..60, 0u8..8), 0..12),
        theirs in proptest::collection::vec((0u8..4, 0u8..60, 0u8..8), 0..12),
        growth in proptest::collection::vec(0u8..4, 12),
    ) {
        let (a, b) = (set_from(&ours), set_from(&theirs));
        // Two arbitrary sets: gapped, overlapping, touching, disjoint origins.
        let mut merged = a.clone();
        merged.union_with(&b);
        let mut one_by_one = a.clone();
        for id in expand(&b) {
            one_by_one.insert(id);
        }
        prop_assert_eq!(&merged, &one_by_one);
        assert_canonical(&merged);
        // Union is idempotent and commutative.
        let mut again = merged.clone();
        again.union_with(&b);
        prop_assert_eq!(&again, &merged);
        let mut flipped = b.clone();
        flipped.union_with(&a);
        prop_assert_eq!(&flipped, &merged);
        // FIFO traffic: a peer's next report is its last with some runs longer.  Where no
        // run grows into the next the two have the same shape and the union happens in
        // place; where one does, the shapes differ and the lists are merged.
        let mut later = a.clone();
        for (run, more) in a.runs().iter().zip(&growth) {
            later.insert_run(run.origin, run.lo, run.hi + u64::from(*more));
        }
        let mut acked = a.clone();
        acked.union_with(&later);
        prop_assert_eq!(&acked, &later);
        let mut stale = later.clone();
        stale.union_with(&a);
        prop_assert_eq!(&stale, &later, "an older report takes nothing away");
    }
}
