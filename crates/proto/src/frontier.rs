//! Per-origin sequence frontiers: the compact description of "which messages a state
//! snapshot already covers".
//!
//! Virtual synchrony requires a joiner's state snapshot to be taken exactly at the view
//! cut, so that the transferred state and the post-cut message flow *partition* the
//! group's history (paper Section 3.8: "only after it has received the state that was
//! current at the time of the join").  The flush coordinator describes the cut as a
//! [`Frontier`]: for every origin site, the highest message sequence number that is part
//! of the pre-cut history.  Because message ids ([`MsgId`]) are allocated monotonically
//! per origin site, `seq <= frontier[origin]` is exactly the predicate "this message's
//! effects are already inside a snapshot taken at the cut".
//!
//! The frontier travels in two places:
//!
//! * inside `FlushCommit`, so a joining endpoint can suppress the flush's
//!   unstable-message redelivery for messages the snapshot will cover (the endpoint-side
//!   dedup that makes join-under-load exactly-once);
//! * tagged onto the state-transfer blocks themselves (`vsync-tools`'s `StateTransfer`),
//!   so the receiving side can verify what its snapshot claims to include.
//!
//! [`IdSet`] is the exact counterpart, used *within* a view: the set of message ids a site
//! has received (stability gossip, per-peer ack state) or delivered (endpoint dedup).  The
//! same density argument makes it small.  One endpoint allocates an origin's sequence
//! numbers, without gaps, and every allocated id is a data multicast to every peer site
//! over a FIFO channel; ids are only compared within one view, and a view's ids from one
//! origin are a contiguous stretch of that allocation.  So "the ids received from origin
//! S in this view" is one run `lo..=hi`, plus — only while a deliberately reordered packet
//! is overdue — a few stragglers beyond a gap.  The set keeps runs, not ids: its size is
//! O(origins + open gaps) however many messages the view carries.

use vsync_net::MsgId;
use vsync_util::SiteId;

/// A per-origin-site message-sequence frontier.  Entries are kept sorted by site, so the
/// wire form (and equality) is canonical regardless of observation order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frontier {
    /// `(origin site, highest covered seq)`, sorted by site, one entry per site.
    entries: Vec<(SiteId, u64)>,
}

impl Frontier {
    /// An empty frontier (covers nothing).
    pub fn new() -> Self {
        Frontier::default()
    }

    /// True if no message is covered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sorted `(site, seq)` entries.
    pub fn entries(&self) -> &[(SiteId, u64)] {
        &self.entries
    }

    /// Folds a message id into the frontier: the frontier afterwards covers `id`.
    pub fn observe(&mut self, id: MsgId) {
        match self.entries.binary_search_by_key(&id.origin, |(s, _)| *s) {
            Ok(i) => {
                if self.entries[i].1 < id.seq {
                    self.entries[i].1 = id.seq;
                }
            }
            Err(i) => self.entries.insert(i, (id.origin, id.seq)),
        }
    }

    /// True if the frontier covers `id`: a snapshot cut at this frontier already includes
    /// the message's effects, so delivering it again would double-apply.
    pub(crate) fn covers(&self, id: MsgId) -> bool {
        self.entries
            .binary_search_by_key(&id.origin, |(s, _)| *s)
            .map(|i| id.seq <= self.entries[i].1)
            .unwrap_or(false)
    }

    /// Total coverage weight: the sum of the per-origin covered sequence numbers.  Used
    /// as the reform election's tie-break between logs that agree on the final view seq —
    /// a strictly larger weight means the log delivered (and therefore durably recorded)
    /// more of the group's history before the crash.
    pub(crate) fn weight(&self) -> u64 {
        self.entries.iter().map(|(_, seq)| *seq).sum()
    }

    /// Flattens to the wire form: `[site0, seq0, site1, seq1, ...]`.
    pub fn to_wire(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.entries.len() * 2);
        for (site, seq) in &self.entries {
            out.push(site.0 as u64);
            out.push(*seq);
        }
        out
    }

    /// Parses the wire form written by [`Frontier::to_wire`].  Tolerates unsorted input
    /// (re-canonicalised through [`Frontier::observe`]); a trailing odd element is ignored.
    pub fn from_wire(raw: &[u64]) -> Self {
        let mut f = Frontier::new();
        for pair in raw.chunks_exact(2) {
            f.observe(MsgId::new(SiteId(pair[0] as u16), pair[1]));
        }
        f
    }
}

/// A maximal stretch of consecutive sequence numbers from one origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// The site that allocated the ids.
    pub origin: SiteId,
    /// First sequence number of the stretch.
    pub lo: u64,
    /// Last sequence number of the stretch (inclusive, `>= lo`).
    pub hi: u64,
}

impl Run {
    fn contains(&self, id: MsgId) -> bool {
        self.origin == id.origin && self.lo <= id.seq && id.seq <= self.hi
    }
}

/// An exact set of message ids, stored as per-origin runs.
///
/// The runs are sorted by `(origin, lo)`, and runs of one origin neither overlap nor touch,
/// so equal sets have equal representations (and equal wire forms) whatever order the ids
/// arrived in.  On FIFO traffic there is one run per origin and inserting the next id
/// extends it in place.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdSet {
    runs: Vec<Run>,
}

impl IdSet {
    /// The empty set.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Removes every id.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
    }

    /// Every run, sorted by `(origin, lo)`.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The runs of one origin, ascending; a single run unless a gap is open.
    pub(crate) fn runs_of(&self, origin: SiteId) -> &[Run] {
        let start = self.runs.partition_point(|r| r.origin < origin);
        let len = self.runs[start..].partition_point(|r| r.origin == origin);
        &self.runs[start..start + len]
    }

    /// Index of the first run of `origin` that contains, touches or follows `seq`.
    fn first_reaching(&self, origin: SiteId, seq: u64) -> usize {
        self.runs
            .partition_point(|r| (r.origin, r.hi.saturating_add(1)) < (origin, seq))
    }

    /// True if `id` is in the set.
    pub(crate) fn contains(&self, id: MsgId) -> bool {
        self.runs
            .get(self.first_reaching(id.origin, id.seq))
            .is_some_and(|r| r.contains(id))
    }

    /// Adds `id`; returns true if it was not in the set before.
    pub fn insert(&mut self, id: MsgId) -> bool {
        let i = self.first_reaching(id.origin, id.seq);
        if self.runs.get(i).is_some_and(|r| r.contains(id)) {
            return false;
        }
        self.merge_at(i, id.origin, id.seq, id.seq);
        true
    }

    /// Adds every id `lo..=hi` of `origin` (nothing if `lo > hi`), merging with the runs
    /// the stretch overlaps or touches.
    pub fn insert_run(&mut self, origin: SiteId, lo: u64, hi: u64) {
        if lo <= hi {
            self.merge_at(self.first_reaching(origin, lo), origin, lo, hi);
        }
    }

    /// Merges `lo..=hi` into the runs starting at index `first_reaching(origin, lo)`.
    fn merge_at(&mut self, i: usize, origin: SiteId, lo: u64, hi: u64) {
        let touching =
            self.runs[i..].partition_point(|r| r.origin == origin && r.lo <= hi.saturating_add(1));
        if touching == 0 {
            self.runs.insert(i, Run { origin, lo, hi });
            return;
        }
        let last = i + touching - 1;
        self.runs[i] = Run {
            origin,
            lo: lo.min(self.runs[i].lo),
            hi: hi.max(self.runs[last].hi),
        };
        self.runs.drain(i + 1..=last); // empty when only one run touched
    }

    /// Adds every id of `other`, in one pass over the two run lists.
    pub fn union_with(&mut self, other: &IdSet) {
        // FIFO traffic: both sets hold the same runs from the same first ids and only the
        // ends differ, so the union is this set with its ends moved — in place.  Raising
        // `hi` cannot make a run reach the next: it stops short of it in both sets.
        let same_shape = self.runs.len() == other.runs.len()
            && self
                .runs
                .iter()
                .zip(&other.runs)
                .all(|(a, b)| a.origin == b.origin && a.lo == b.lo);
        if same_shape {
            for (a, b) in self.runs.iter_mut().zip(&other.runs) {
                a.hi = a.hi.max(b.hi);
            }
            return;
        }
        // Otherwise merge the two lists, both sorted by `(origin, lo)`, folding each run
        // into the last one written whenever it overlaps or touches it.
        let mut merged: Vec<Run> = Vec::with_capacity(self.runs.len() + other.runs.len());
        let (mut ours, mut theirs) = (self.runs.iter().peekable(), other.runs.iter().peekable());
        loop {
            let ours_first = match (ours.peek(), theirs.peek()) {
                (Some(a), Some(b)) => (a.origin, a.lo) <= (b.origin, b.lo),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let next = if ours_first {
                ours.next()
            } else {
                theirs.next()
            };
            let next = *next.expect("peeked");
            match merged.last_mut() {
                Some(last)
                    if last.origin == next.origin && next.lo <= last.hi.saturating_add(1) =>
                {
                    last.hi = last.hi.max(next.hi);
                }
                _ => merged.push(next),
            }
        }
        self.runs = merged;
    }

    /// The frontier that covers every id of the set: the per-origin maxima.
    pub(crate) fn frontier(&self) -> Frontier {
        let mut f = Frontier::new();
        for r in &self.runs {
            f.observe(MsgId::new(r.origin, r.hi));
        }
        f
    }

    /// Every run beside whether it is a *straggler*: a single id that is not its origin's
    /// first run, i.e. one received beyond a gap that is still open.
    fn runs_and_stragglers(&self) -> impl Iterator<Item = (&Run, bool)> + Clone {
        self.runs.iter().enumerate().map(|(i, r)| {
            let straggler = r.lo == r.hi && i > 0 && self.runs[i - 1].origin == r.origin;
            (r, straggler)
        })
    }

    /// The runs a frame lists as runs: each origin's first run, and every later run that is
    /// longer than a single id.
    pub(crate) fn wire_runs(&self) -> impl Iterator<Item = &Run> + Clone {
        self.runs_and_stragglers()
            .filter(|(_, straggler)| !straggler)
            .map(|(r, _)| r)
    }

    /// The runs a frame lists as single ids: the stragglers.  None on FIFO traffic.
    pub(crate) fn wire_ids(&self) -> impl Iterator<Item = &Run> + Clone {
        self.runs_and_stragglers()
            .filter(|(_, straggler)| *straggler)
            .map(|(r, _)| r)
    }

    /// The wire form flattened: `runs` as `[origin, lo, hi, ...]` (see `IdSet::wire_runs`)
    /// and `ids` as `[origin, seq, ...]` (see `IdSet::wire_ids`).
    pub fn to_wire(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.wire_runs()
                .flat_map(|r| [r.origin.0 as u64, r.lo, r.hi])
                .collect(),
            self.wire_ids()
                .flat_map(|r| [r.origin.0 as u64, r.lo])
                .collect(),
        )
    }

    /// Parses the flattened form [`IdSet::to_wire`] gives.  Like [`Frontier::from_wire`]
    /// it re-canonicalises: runs may arrive unsorted, overlapping or touching, an id may
    /// repeat or fall inside a run, and incomplete trailing elements and inverted runs are
    /// ignored.
    #[cfg(test)]
    pub(crate) fn from_wire(runs: &[u64], ids: &[u64]) -> Self {
        let mut set = IdSet::new();
        for r in runs.chunks_exact(3) {
            set.insert_run(SiteId(r[0] as u16), r[1], r[2]);
        }
        for id in ids.chunks_exact(2) {
            set.insert_run(SiteId(id[0] as u16), id[1], id[1]);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(site: u16, seq: u64) -> MsgId {
        MsgId::new(SiteId(site), seq)
    }

    #[test]
    fn empty_frontier_covers_nothing() {
        let f = Frontier::new();
        assert!(f.is_empty());
        assert!(!f.covers(id(0, 1)));
        assert!(f.to_wire().is_empty());
    }

    #[test]
    fn observe_keeps_the_maximum_per_origin() {
        let mut f = Frontier::new();
        f.observe(id(2, 5));
        f.observe(id(2, 3));
        f.observe(id(0, 7));
        assert_eq!(f.entries(), &[(SiteId(0), 7), (SiteId(2), 5)]);
        assert!(f.covers(id(2, 5)));
        assert!(f.covers(id(2, 1)));
        assert!(!f.covers(id(2, 6)));
        assert!(f.covers(id(0, 7)));
        assert!(!f.covers(id(1, 1)), "unknown origins are not covered");
    }

    #[test]
    fn wire_roundtrip_is_canonical() {
        let mut f = Frontier::new();
        f.observe(id(3, 9));
        f.observe(id(1, 2));
        let wire = f.to_wire();
        assert_eq!(wire, vec![1, 2, 3, 9]);
        assert_eq!(Frontier::from_wire(&wire), f);
        // Unsorted and duplicated input canonicalises to the same frontier.
        assert_eq!(Frontier::from_wire(&[3, 9, 1, 2, 3, 4]), f);
        // A stray trailing element is ignored rather than misparsed.
        assert_eq!(Frontier::from_wire(&[1, 2, 3, 9, 7]), f);
    }

    #[test]
    fn covers_is_monotone_under_observe() {
        let mut f = Frontier::new();
        for seq in [4u64, 1, 9, 6] {
            f.observe(id(0, seq));
        }
        for seq in 1..=9 {
            assert!(
                f.covers(id(0, seq)),
                "seq {seq} below the max must be covered"
            );
        }
        assert!(!f.covers(id(0, 10)));
    }

    fn set_of(ids: &[(u16, u64)]) -> IdSet {
        let mut set = IdSet::new();
        for (site, seq) in ids {
            set.insert(id(*site, *seq));
        }
        set
    }

    fn run(origin: u16, lo: u64, hi: u64) -> Run {
        Run {
            origin: SiteId(origin),
            lo,
            hi,
        }
    }

    #[test]
    fn fifo_inserts_extend_one_run_per_origin() {
        let mut set = IdSet::new();
        assert!(set.runs().is_empty());
        for seq in 5..=9 {
            assert!(set.insert(id(1, seq)), "seq {seq} is new");
            assert!(set.insert(id(0, seq + 100)));
        }
        assert!(!set.insert(id(1, 7)), "a duplicate is reported as such");
        assert_eq!(set.runs(), &[run(0, 105, 109), run(1, 5, 9)]);
        assert!(set.contains(id(1, 5)) && set.contains(id(1, 9)));
        assert!(!set.contains(id(1, 4)) && !set.contains(id(1, 10)));
        assert!(!set.contains(id(2, 5)), "unknown origins hold nothing");
        assert_eq!(set.runs_of(SiteId(1)), &[run(1, 5, 9)]);
        assert!(set.runs_of(SiteId(2)).is_empty());
        set.clear();
        assert!(set.runs().is_empty() && !set.contains(id(1, 5)));
    }

    #[test]
    fn stragglers_open_a_gap_and_closing_it_merges_the_runs() {
        let mut set = set_of(&[(0, 1), (0, 2), (0, 4), (0, 7), (0, 8)]);
        assert_eq!(set.runs(), &[run(0, 1, 2), run(0, 4, 4), run(0, 7, 8)]);
        assert!(!set.contains(id(0, 3)));
        assert!(set.insert(id(0, 3)));
        assert_eq!(set.runs(), &[run(0, 1, 4), run(0, 7, 8)]);
        // Below the first run, and bridging two runs with a stretch that overlaps both.
        assert!(set.insert(id(0, 0)));
        set.insert_run(SiteId(0), 3, 7);
        assert_eq!(set.runs(), &[run(0, 0, 8)]);
        set.insert_run(SiteId(0), 9, 5); // inverted: nothing
        assert_eq!(set.runs(), &[run(0, 0, 8)]);
        // The extremes of the sequence space neither overflow nor merge by accident.
        set.insert_run(SiteId(0), u64::MAX - 1, u64::MAX);
        assert!(set.insert(id(1, u64::MAX)));
        assert!(set.contains(id(0, u64::MAX)) && !set.contains(id(0, u64::MAX - 2)));
        assert_eq!(set.runs().len(), 3);
    }

    #[test]
    fn the_representation_is_canonical_whatever_the_arrival_order() {
        // Same ids, every rotation of the arrival order, origins interleaved: one value.
        let ids: Vec<(u16, u64)> = (1..=12u64)
            .flat_map(|seq| [(0, seq), (3, seq * 2)])
            .collect();
        let reference = set_of(&ids);
        assert_eq!(reference.runs_of(SiteId(0)), &[run(0, 1, 12)]);
        assert_eq!(reference.runs_of(SiteId(3)).len(), 12);
        for shift in 1..ids.len() {
            let mut rotated = ids.clone();
            rotated.rotate_left(shift);
            rotated.reverse();
            assert_eq!(set_of(&rotated), reference, "shift {shift}");
        }
        let mut merged = set_of(&ids[..10]);
        merged.union_with(&set_of(&ids[7..]));
        assert_eq!(merged, reference);
    }

    #[test]
    fn id_set_matches_a_naive_set_under_random_traffic() {
        use std::collections::BTreeSet;
        // A small deterministic generator: mostly-FIFO streams with reordering, duplicates
        // and bulk stretches, checked against a plain set after every step.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut set = IdSet::new();
        let mut naive: BTreeSet<MsgId> = BTreeSet::new();
        let mut heads = [0u64; 3];
        for _ in 0..4_000 {
            let origin = next(3) as usize;
            match next(10) {
                0 => {
                    // A stretch somewhere around the head, as a peer's gossip would add.
                    let lo = heads[origin].saturating_sub(next(6)) + next(4);
                    let hi = lo + next(5);
                    set.insert_run(SiteId(origin as u16), lo, hi);
                    naive.extend((lo..=hi).map(|seq| id(origin as u16, seq)));
                }
                1 | 2 => {
                    // A straggler or a duplicate near the head.
                    let seq = (heads[origin] + next(5)).saturating_sub(next(5));
                    let m = id(origin as u16, seq);
                    assert_eq!(set.insert(m), naive.insert(m));
                }
                _ => {
                    heads[origin] += 1;
                    let m = id(origin as u16, heads[origin]);
                    assert_eq!(set.insert(m), naive.insert(m));
                }
            }
            for probe in 0..3u16 {
                let m = id(probe, next(heads[probe as usize] + 8));
                assert_eq!(set.contains(m), naive.contains(&m));
            }
            assert!(
                set.runs().windows(2).all(|w| w[0].origin < w[1].origin
                    || (w[0].origin == w[1].origin && w[0].hi + 1 < w[1].lo)),
                "runs must stay sorted, disjoint and apart"
            );
        }
        let expanded: BTreeSet<MsgId> = set
            .runs()
            .iter()
            .flat_map(|r| (r.lo..=r.hi).map(|seq| MsgId::new(r.origin, seq)))
            .collect();
        assert_eq!(expanded, naive);
        // The frontier read off the runs is the one folding every id would give.
        let mut folded = Frontier::new();
        for m in &naive {
            folded.observe(*m);
        }
        assert_eq!(set.frontier(), folded);
        // And the wire form is lossless.
        let (runs, ids) = set.to_wire();
        assert_eq!(IdSet::from_wire(&runs, &ids), set);
    }

    #[test]
    fn id_set_wire_form_lists_only_isolated_stragglers_as_ids() {
        assert_eq!(IdSet::new().to_wire(), (vec![], vec![]));
        // An origin's first run goes in `runs` even when it is a single id.
        let set = set_of(&[(0, 3), (1, 1), (1, 2), (1, 4), (1, 6), (1, 7), (1, 9)]);
        let (runs, ids) = set.to_wire();
        assert_eq!(runs, vec![0, 3, 3, 1, 1, 2, 1, 6, 7]);
        assert_eq!(ids, vec![1, 4, 1, 9]);
        assert_eq!(IdSet::from_wire(&runs, &ids), set);
        // Foreign input: unsorted, overlapping, an id inside a run, torn tails.
        let parsed = IdSet::from_wire(&[1, 5, 9, 1, 1, 6, 0, 2, 1, 7], &[1, 3, 1, 10, 4]);
        assert_eq!(parsed.runs(), &[run(1, 1, 10)]);
        // A stretch of the whole sequence space costs one run, not memory per id.
        let huge = IdSet::from_wire(&[0, 0, u64::MAX], &[]);
        assert_eq!(huge.runs(), &[run(0, 0, u64::MAX)]);
        assert!(huge.contains(id(0, 1 << 40)));
    }
}
