//! The correctness oracle: what every member delivered, checked against what was sent.
//!
//! Each member records the operations its handler saw, in order, as compact ids.  After
//! the timed window the logs are compared.  Every violated expectation is one *failed*
//! operation; the run's `failed` count is their sum and a non-zero sum fails the run.
//!
//! * a delivery a member that stayed up never saw (**missing**);
//! * a delivery a member saw twice (**duplicate**);
//! * two CBCASTs (or CBCAST RPCs) of one sender seen out of send order (**fifo** — with
//!   independent senders driven from outside, per-sender order is all the causality there
//!   is to violate);
//! * two members that disagree on the relative order of two ABCASTs (**order**);
//! * with membership changes: survivors of a view that did not deliver the same set in it,
//!   or a view sequence number installed with two different memberships (**view**).

use std::collections::{BTreeMap, HashMap, HashSet};

/// The primitive an operation used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Cbcast = 0,
    Abcast = 1,
    /// A CBCAST group RPC collecting every reply.
    Rpc = 2,
}

/// A compact operation id: issue index (24 bits), primitive (2 bits), sender slot (6 bits).
/// Ids of one sender increase in send order, which is what the FIFO check reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

pub const MAX_OPS: u32 = 1 << 24;
pub const MAX_SENDERS: usize = 1 << 6;

impl OpId {
    pub fn new(index: u32, kind: OpKind, sender: usize) -> OpId {
        debug_assert!(index < MAX_OPS && sender < MAX_SENDERS);
        OpId((index << 8) | ((kind as u32) << 6) | sender as u32)
    }

    pub fn index(self) -> u32 {
        self.0 >> 8
    }

    pub fn kind(self) -> OpKind {
        match (self.0 >> 6) & 3 {
            0 => OpKind::Cbcast,
            1 => OpKind::Abcast,
            _ => OpKind::Rpc,
        }
    }

    pub fn sender(self) -> usize {
        (self.0 & 63) as usize
    }
}

/// An append-only log in fixed-size chunks: appending never reallocates (and so never
/// doubles the benchmark's own footprint inside the process whose peak RSS is reported).
#[derive(Default)]
pub struct ChunkLog {
    chunks: Vec<Vec<u32>>,
}

const CHUNK: usize = 64 * 1024;

impl ChunkLog {
    pub fn push(&mut self, v: u32) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(v),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(v);
                self.chunks.push(c);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().flatten().copied()
    }
}

/// Failure counts by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub missing: u64,
    pub duplicate: u64,
    pub fifo: u64,
    pub order: u64,
    pub view: u64,
    /// RPCs that did not come back with every reply.
    pub rpc: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicate + self.fifo + self.order + self.view + self.rpc
    }

    pub fn add(&mut self, other: &Verdict) {
        self.attempted += other.attempted;
        self.missing += other.missing;
        self.duplicate += other.duplicate;
        self.fifo += other.fifo;
        self.order += other.order;
        self.view += other.view;
        self.rpc += other.rpc;
    }

    /// One line naming every non-zero cause, for the run's stderr.
    pub fn describe(&self) -> String {
        format!(
            "attempted {} failed {} (missing {} duplicate {} fifo {} order {} view {} rpc {})",
            self.attempted,
            self.failed(),
            self.missing,
            self.duplicate,
            self.fifo,
            self.order,
            self.view,
            self.rpc
        )
    }
}

/// Duplicates and per-sender FIFO violations within one member's log.
fn check_one_log(log: &[OpId], seen: &mut HashSet<u32>, v: &mut Verdict) {
    seen.clear();
    let mut last_of_sender = [None::<u32>; MAX_SENDERS];
    for id in log {
        if !seen.insert(id.index()) {
            v.duplicate += 1;
            continue;
        }
        if id.kind() != OpKind::Abcast {
            let last = &mut last_of_sender[id.sender()];
            if last.is_some_and(|l| l > id.index()) {
                v.fifo += 1;
            } else {
                *last = Some(id.index());
            }
        }
    }
}

/// Counts ABCAST pairs adjacent in `log` that the reference member saw in the other
/// order.  Restricting to ids both members delivered keeps a missing delivery (already
/// counted as such) from also reading as a reordering of everything after it.
fn order_disagreements(reference: &HashMap<u32, usize>, log: &[OpId]) -> u64 {
    let mut bad = 0;
    let mut prev: Option<usize> = None;
    for id in log.iter().filter(|id| id.kind() == OpKind::Abcast) {
        if let Some(pos) = reference.get(&id.index()) {
            if prev.is_some_and(|p| p > *pos) {
                bad += 1;
            }
            prev = Some(*pos);
        }
    }
    bad
}

fn abcast_positions(log: &[OpId]) -> HashMap<u32, usize> {
    log.iter()
        .filter(|id| id.kind() == OpKind::Abcast)
        .enumerate()
        .map(|(pos, id)| (id.index(), pos))
        .collect()
}

/// Checks one group whose membership did not change during the run: every member must
/// have delivered each of the `issued` operations exactly once.
pub fn check_stable_group(issued: u64, logs: &[Vec<OpId>]) -> Verdict {
    let mut v = Verdict {
        attempted: issued * logs.len() as u64,
        ..Verdict::default()
    };
    let mut seen = HashSet::new();
    for log in logs {
        check_one_log(log, &mut seen, &mut v);
        v.missing += issued.saturating_sub(seen.len() as u64);
    }
    if let Some((first, rest)) = logs.split_first() {
        let reference = abcast_positions(first);
        for log in rest {
            v.order += order_disagreements(&reference, log);
        }
    }
    v
}

/// One entry of a member's history when membership changes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry {
    /// The member installed view `seq` with these members (sender slots).
    View { seq: u64, members: Vec<usize> },
    /// The member's handler ran for this operation.
    Deliver(OpId),
}

/// One member incarnation's history under churn.
#[derive(Clone, Debug, Default)]
pub struct History {
    pub entries: Vec<Entry>,
    /// True if the incarnation was still a running member when the run ended; the last
    /// view of a history that is not alive has no survivor obligations.
    pub alive_at_end: bool,
}

/// Checks histories recorded while members join, leave, crash and recover.
///
/// `must_deliver` lists operations that were accepted by a sender which then stayed a
/// member to the end: each must appear somewhere (virtual synchrony lets a message vanish
/// only with its sender).  Everything else is checked by agreement: the members that went
/// from view *k* to its successor together must have delivered the same set in *k*.
pub fn check_churn(histories: &[History], must_deliver: &[OpId]) -> Verdict {
    let mut v = Verdict::default();
    let mut seen = HashSet::new();
    let mut memberships: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    // (view seq) -> per surviving member, the set delivered in that view.
    let mut per_view: BTreeMap<u64, Vec<HashSet<u32>>> = BTreeMap::new();
    let mut delivered_anywhere: HashSet<u32> = HashSet::new();

    for h in histories {
        let flat: Vec<OpId> = h
            .entries
            .iter()
            .filter_map(|e| match e {
                Entry::Deliver(id) => Some(*id),
                Entry::View { .. } => None,
            })
            .collect();
        v.attempted += flat.len() as u64;
        check_one_log(&flat, &mut seen, &mut v);
        delivered_anywhere.extend(seen.iter().copied());

        let mut current: Option<(u64, HashSet<u32>)> = None;
        let mut last_seq = 0u64;
        for e in &h.entries {
            match e {
                Entry::View { seq, members } => {
                    if *seq <= last_seq {
                        v.view += 1;
                    }
                    last_seq = *seq;
                    let mut sorted = members.clone();
                    sorted.sort_unstable();
                    match memberships.get(seq) {
                        Some(known) if *known != sorted => v.view += 1,
                        Some(_) => {}
                        None => {
                            memberships.insert(*seq, sorted);
                        }
                    }
                    // Installing a successor makes this member a survivor of the view
                    // it leaves.
                    if let Some((prev_seq, set)) = current.take() {
                        per_view.entry(prev_seq).or_default().push(set);
                    }
                    current = Some((*seq, HashSet::new()));
                }
                Entry::Deliver(id) => {
                    if let Some((_, set)) = current.as_mut() {
                        set.insert(id.index());
                    }
                }
            }
        }
        if let (Some((seq, set)), true) = (current, h.alive_at_end) {
            per_view.entry(seq).or_default().push(set);
        }
    }

    for sets in per_view.values() {
        let union: HashSet<u32> = sets.iter().flatten().copied().collect();
        for set in sets {
            v.missing += (union.len() - set.len()) as u64;
        }
    }
    for id in must_deliver {
        if !delivered_anywhere.contains(&id.index()) {
            v.missing += 1;
            v.attempted += 1;
        }
    }

    // Total order: every pair of histories agrees on the ABCASTs both delivered.
    let flats: Vec<Vec<OpId>> = histories
        .iter()
        .map(|h| {
            h.entries
                .iter()
                .filter_map(|e| match e {
                    Entry::Deliver(id) => Some(*id),
                    Entry::View { .. } => None,
                })
                .collect()
        })
        .collect();
    for (i, a) in flats.iter().enumerate() {
        let reference = abcast_positions(a);
        if reference.is_empty() {
            continue;
        }
        for b in &flats[i + 1..] {
            v.order += order_disagreements(&reference, b);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cb(i: u32, s: usize) -> OpId {
        OpId::new(i, OpKind::Cbcast, s)
    }
    fn ab(i: u32, s: usize) -> OpId {
        OpId::new(i, OpKind::Abcast, s)
    }

    #[test]
    fn op_ids_round_trip_their_parts() {
        let id = OpId::new(1_234_567, OpKind::Rpc, 37);
        assert_eq!(id.index(), 1_234_567);
        assert_eq!(id.kind(), OpKind::Rpc);
        assert_eq!(id.sender(), 37);
        assert!(cb(5, 1) < cb(6, 1), "ids of one sender sort in send order");
    }

    #[test]
    fn chunk_log_keeps_order_across_chunks() {
        let mut log = ChunkLog::default();
        assert!(log.is_empty());
        for i in 0..(CHUNK as u32 * 2 + 7) {
            log.push(i);
        }
        assert_eq!(log.len(), CHUNK * 2 + 7);
        assert!(log.iter().enumerate().all(|(i, v)| v == i as u32));
    }

    fn clean_logs() -> Vec<Vec<OpId>> {
        // Two senders; CBCASTs of different senders may interleave differently.
        let a = vec![cb(0, 0), cb(1, 1), ab(2, 0), cb(3, 0), ab(4, 1), cb(5, 1)];
        let b = vec![cb(1, 1), cb(0, 0), ab(2, 0), ab(4, 1), cb(5, 1), cb(3, 0)];
        vec![a, b]
    }

    #[test]
    fn a_clean_run_has_no_failures() {
        let v = check_stable_group(6, &clean_logs());
        assert_eq!(v.attempted, 12);
        assert_eq!(v.failed(), 0, "{}", v.describe());
    }

    #[test]
    fn a_duplicated_delivery_is_counted() {
        let mut logs = clean_logs();
        logs[1].push(cb(3, 0));
        let v = check_stable_group(6, &logs);
        assert_eq!(v.duplicate, 1);
        assert_eq!(v.failed(), 1);
    }

    #[test]
    fn a_dropped_delivery_is_counted() {
        let mut logs = clean_logs();
        logs[0].retain(|id| id.index() != 4);
        let v = check_stable_group(6, &logs);
        assert_eq!(v.missing, 1);
        assert_eq!(v.order, 0, "a hole must not read as a reordering");
        assert_eq!(v.failed(), 1);
    }

    #[test]
    fn a_message_lost_everywhere_is_counted_at_every_member() {
        let mut logs = clean_logs();
        for l in &mut logs {
            l.retain(|id| id.index() != 5);
        }
        assert_eq!(check_stable_group(6, &logs).missing, 2);
    }

    #[test]
    fn a_reordered_cbcast_of_one_sender_is_counted() {
        let mut logs = clean_logs();
        // Sender 0's ops 0 and 3 swap at member 1.
        logs[1] = vec![cb(1, 1), cb(3, 0), ab(2, 0), ab(4, 1), cb(5, 1), cb(0, 0)];
        let v = check_stable_group(6, &logs);
        assert_eq!(v.fifo, 1);
        assert_eq!(v.failed(), 1);
    }

    #[test]
    fn an_abcast_order_disagreement_is_counted() {
        let mut logs = clean_logs();
        logs[1] = vec![cb(1, 1), cb(0, 0), ab(4, 1), ab(2, 0), cb(5, 1), cb(3, 0)];
        let v = check_stable_group(6, &logs);
        assert_eq!(v.order, 1);
        assert_eq!(v.failed(), 1);
    }

    fn view(seq: u64, members: &[usize]) -> Entry {
        Entry::View {
            seq,
            members: members.to_vec(),
        }
    }

    fn churn_histories() -> Vec<History> {
        // Members 0 and 1 found the group; 2 joins at view 2; 1 crashes during view 2 and
        // the survivors install view 3.
        let h0 = History {
            entries: vec![
                view(1, &[0, 1]),
                Entry::Deliver(cb(0, 0)),
                view(2, &[0, 1, 2]),
                Entry::Deliver(ab(1, 0)),
                Entry::Deliver(cb(2, 1)),
                view(3, &[0, 2]),
                Entry::Deliver(cb(3, 2)),
            ],
            alive_at_end: true,
        };
        let h1 = History {
            entries: vec![
                view(1, &[0, 1]),
                Entry::Deliver(cb(0, 0)),
                view(2, &[1, 0, 2]),
                Entry::Deliver(cb(2, 1)),
                // Crashed before delivering op 1: not a survivor of view 2, no obligation.
            ],
            alive_at_end: false,
        };
        let h2 = History {
            entries: vec![
                view(2, &[0, 1, 2]),
                Entry::Deliver(cb(2, 1)),
                Entry::Deliver(ab(1, 0)),
                view(3, &[0, 2]),
                Entry::Deliver(cb(3, 2)),
            ],
            alive_at_end: true,
        };
        vec![h0, h1, h2]
    }

    #[test]
    fn clean_churn_passes_and_a_crashed_member_owes_nothing() {
        let must = [cb(0, 0), ab(1, 0), cb(3, 2)];
        let v = check_churn(&churn_histories(), &must);
        assert_eq!(v.failed(), 0, "{}", v.describe());
        assert_eq!(v.attempted, 9);
    }

    #[test]
    fn a_survivor_missing_what_another_survivor_delivered_is_counted() {
        let mut hs = churn_histories();
        hs[2].entries.retain(|e| *e != Entry::Deliver(ab(1, 0)));
        let v = check_churn(&hs, &[]);
        assert_eq!(v.missing, 1);
    }

    #[test]
    fn conflicting_or_repeated_views_are_counted() {
        let mut hs = churn_histories();
        hs[2].entries[3] = view(3, &[2]);
        assert_eq!(check_churn(&hs, &[]).view, 1, "split brain at seq 3");
        let mut hs = churn_histories();
        hs[0].entries.push(view(3, &[0, 2]));
        assert_eq!(check_churn(&hs, &[]).view, 1, "seq 3 installed twice");
    }

    #[test]
    fn a_redelivery_across_a_view_change_is_a_duplicate() {
        let mut hs = churn_histories();
        hs[0].entries.push(Entry::Deliver(cb(2, 1)));
        assert_eq!(check_churn(&hs, &[]).duplicate, 1);
    }

    #[test]
    fn an_accepted_message_delivered_nowhere_is_counted() {
        let v = check_churn(&churn_histories(), &[cb(9, 0)]);
        assert_eq!(v.missing, 1);
    }

    #[test]
    fn churn_total_order_is_checked_across_histories() {
        let mut hs = churn_histories();
        hs[0].entries.insert(4, Entry::Deliver(ab(7, 2)));
        hs[2].entries.insert(2, Entry::Deliver(ab(7, 2)));
        // h0: ab1, ab7   h2: ab7, ab1
        let v = check_churn(&hs, &[]);
        assert_eq!(v.order, 1);
    }
}
