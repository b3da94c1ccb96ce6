//! Virtual-synchrony invariant checker.
//!
//! Tests on both backends record one [`MemberTimeline`] per group member: every view the
//! member installed (seq + membership) and every body it applied, tagged with the view seq
//! it was delivered in.  State a member adopted rather than delivered (a transfer snapshot,
//! a replayed log) is tagged 0, a seq no view has.  [`PartitionInvariants`] then replays the
//! timelines and asserts the paper's §2.4 guarantees, regardless of where a nemesis cut the
//! network or which sites crashed:
//!
//! 1. **No two concurrent primary views** — if any two members installed a view with the
//!    same seq, they installed the *same membership*.  A split-brain (each side of a cut
//!    installing its own view `k+1`) shows up as two installs of one seq with different
//!    member sets and fails here.
//! 2. **Monotonic views** — each member's installed view seqs strictly increase, including
//!    across a wedge / heal / rejoin cycle.
//! 3. **Convergence** — every log is duplicate-free and all logs are identical, i.e. after
//!    a heal the members agree on one state order with no body applied twice.
//! 4. **Per-view agreement** — no member applies a body twice, and any two members that
//!    installed view `v` and then the same next view delivered the same bodies while in
//!    `v` (in the same order, for all-ABCAST traffic).  A member that crashed in `v`, or
//!    was cut out of the next view, may have delivered only a subset, and a joiner is
//!    compared only from its first view.
//!
//! Invariant 3 holds only where every recorded member survives; invariant 4 holds in any
//! run, and is what crash, join and recovery scenarios check.

use std::collections::{BTreeMap, BTreeSet};

use vsync_util::ProcessId;

/// One member's observed history: installed views plus view-tagged deliveries.
#[derive(Clone, Debug, Default)]
pub struct MemberTimeline {
    /// A label for error messages (typically the member's `ProcessId` rendering).
    pub label: String,
    /// Installed views in install order: `(view_seq, membership)`.
    pub views: Vec<(u64, Vec<ProcessId>)>,
    /// Applied bodies in apply order: `(view_seq at delivery, body)`; 0 for adopted state.
    pub deliveries: Vec<(u64, u64)>,
}

impl MemberTimeline {
    /// A fresh timeline for the labelled member.
    pub fn new(label: impl Into<String>) -> Self {
        MemberTimeline {
            label: label.into(),
            views: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Records a view install.
    pub fn install(&mut self, seq: u64, mut members: Vec<ProcessId>) {
        members.sort();
        self.views.push((seq, members));
    }

    /// Records an applied body (`view_seq` 0 for adopted state).
    pub fn deliver(&mut self, view_seq: u64, body: u64) {
        self.deliveries.push((view_seq, body));
    }

    /// The applied bodies in apply order: the member's state.
    fn bodies(&self) -> Vec<u64> {
        self.deliveries.iter().map(|(_, b)| *b).collect()
    }
}

/// A violated invariant, with enough context to debug the failing seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Two members installed the same view seq with different memberships: split-brain.
    ConflictingViews {
        seq: u64,
        member_a: String,
        view_a: Vec<ProcessId>,
        member_b: String,
        view_b: Vec<ProcessId>,
    },
    /// A member's installed view seqs went backwards (or repeated).
    NonMonotonicViews {
        member: String,
        prev: u64,
        next: u64,
    },
    /// A member applied the same body twice.
    DuplicateDelivery { member: String, key: u64 },
    /// Two members' delivery logs differ (first divergence index, or length mismatch).
    DivergentOrders {
        member_a: String,
        member_b: String,
        index: usize,
    },
    /// Two members moved on from view `seq` together but delivered different bodies in it
    /// (sorted, unless the order was checked).
    DivergentView {
        seq: u64,
        member_a: String,
        keys_a: Vec<u64>,
        member_b: String,
        keys_b: Vec<u64>,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::ConflictingViews {
                seq,
                member_a,
                view_a,
                member_b,
                view_b,
            } => write!(
                f,
                "split-brain: view seq {seq} installed as {view_a:?} at {member_a} \
                 but {view_b:?} at {member_b}"
            ),
            InvariantViolation::NonMonotonicViews { member, prev, next } => write!(
                f,
                "non-monotonic views at {member}: seq {next} installed after {prev}"
            ),
            InvariantViolation::DuplicateDelivery { member, key } => {
                write!(f, "duplicate delivery of {key} at {member}")
            }
            InvariantViolation::DivergentOrders {
                member_a,
                member_b,
                index,
            } => write!(
                f,
                "delivery logs of {member_a} and {member_b} diverge at index {index}"
            ),
            InvariantViolation::DivergentView {
                seq,
                member_a,
                keys_a,
                member_b,
                keys_b,
            } => write!(
                f,
                "in view {seq}, {member_a} delivered {keys_a:?} but {member_b} {keys_b:?}"
            ),
        }
    }
}

/// Replays recorded [`MemberTimeline`]s and checks the invariants.
#[derive(Clone, Debug, Default)]
pub struct PartitionInvariants {
    timelines: Vec<MemberTimeline>,
}

impl PartitionInvariants {
    /// An empty checker; [`record`](Self::record) timelines into it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one member's timeline.
    pub fn record(&mut self, timeline: MemberTimeline) {
        self.timelines.push(timeline);
    }

    /// Invariants 1 + 2: one membership per view seq across all members, and strictly
    /// increasing view seqs per member.
    pub fn check_no_split_brain(&self) -> Result<(), InvariantViolation> {
        let mut by_seq: BTreeMap<u64, (&str, &Vec<ProcessId>)> = BTreeMap::new();
        for t in &self.timelines {
            let mut prev: Option<u64> = None;
            for (seq, members) in &t.views {
                if let Some(p) = prev {
                    if *seq <= p {
                        return Err(InvariantViolation::NonMonotonicViews {
                            member: t.label.clone(),
                            prev: p,
                            next: *seq,
                        });
                    }
                }
                prev = Some(*seq);
                match by_seq.get(seq) {
                    Some((label, known)) if *known != members => {
                        return Err(InvariantViolation::ConflictingViews {
                            seq: *seq,
                            member_a: (*label).to_owned(),
                            view_a: (*known).clone(),
                            member_b: t.label.clone(),
                            view_b: members.clone(),
                        });
                    }
                    Some(_) => {}
                    None => {
                        by_seq.insert(*seq, (t.label.as_str(), members));
                    }
                }
            }
        }
        Ok(())
    }

    /// Exactly-once: no member applied a body twice.
    fn check_duplicates(&self) -> Result<(), InvariantViolation> {
        for t in &self.timelines {
            let mut seen = BTreeSet::new();
            for (_vs, key) in &t.deliveries {
                if !seen.insert(*key) {
                    return Err(InvariantViolation::DuplicateDelivery {
                        member: t.label.clone(),
                        key: *key,
                    });
                }
            }
        }
        Ok(())
    }

    /// Invariant 3: every delivery log is duplicate-free and all logs are identical.
    fn check_convergence(&self) -> Result<(), InvariantViolation> {
        self.check_duplicates()?;
        if let Some(first) = self.timelines.first() {
            let keys_a = first.bodies();
            for t in &self.timelines[1..] {
                let keys_b = t.bodies();
                if keys_a != keys_b {
                    let index = keys_a
                        .iter()
                        .zip(keys_b.iter())
                        .position(|(a, b)| a != b)
                        .unwrap_or_else(|| keys_a.len().min(keys_b.len()));
                    return Err(InvariantViolation::DivergentOrders {
                        member_a: first.label.clone(),
                        member_b: t.label.clone(),
                        index,
                    });
                }
            }
        }
        Ok(())
    }

    /// Invariants 1 + 2 + 3: the check for a run in which every recorded member survives.
    pub fn check_all(&self) -> Result<(), InvariantViolation> {
        self.check_no_split_brain()?;
        self.check_convergence()
    }

    /// Invariants 1 + 2 + 4, comparing each view's bodies as a set.
    pub fn check_view_agreement(&self) -> Result<(), InvariantViolation> {
        self.check_views(false)
    }

    /// Invariants 1 + 2 + 4, comparing each view's bodies in delivery order: the check for
    /// traffic that is all ABCAST.
    pub fn check_view_order(&self) -> Result<(), InvariantViolation> {
        self.check_views(true)
    }

    fn check_views(&self, ordered: bool) -> Result<(), InvariantViolation> {
        self.check_no_split_brain()?;
        self.check_duplicates()?;
        // The run's last view has no successor to wait for: a scenario settles before it
        // checks, so every member still in it has delivered all of it.
        let last = self
            .timelines
            .iter()
            .flat_map(|t| t.views.last())
            .map(|v| v.0)
            .max();
        // Per (view, next view): the first member seen moving between them, and its bodies.
        let mut first: BTreeMap<_, (&str, Vec<u64>)> = BTreeMap::new();
        for t in &self.timelines {
            // Only installed views: a joiner is compared from its first view.
            for (i, (seq, _)) in t.views.iter().enumerate() {
                let next = t.views.get(i + 1).map(|v| v.0);
                if next.is_none() && Some(*seq) != last {
                    continue; // crashed (or wedged for good) in this view
                }
                let mut keys: Vec<u64> = t
                    .deliveries
                    .iter()
                    .filter(|(v, _)| v == seq)
                    .map(|(_, k)| *k)
                    .collect();
                if !ordered {
                    keys.sort_unstable();
                }
                match first.get(&(*seq, next)) {
                    Some((label, known)) if *known != keys => {
                        return Err(InvariantViolation::DivergentView {
                            seq: *seq,
                            member_a: (*label).to_owned(),
                            keys_a: known.clone(),
                            member_b: t.label.clone(),
                            keys_b: keys,
                        });
                    }
                    Some(_) => {}
                    None => {
                        first.insert((*seq, next), (t.label.as_str(), keys));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn p(site: u16, local: u32) -> ProcessId {
        ProcessId::new(SiteId(site), local)
    }

    /// A timeline that installed `views` (every one over sites 0-2) and delivered `bodies`.
    fn timeline(label: &str, views: &[u64], bodies: &[(u64, u64)]) -> MemberTimeline {
        let mut t = MemberTimeline::new(label);
        for seq in views {
            t.install(*seq, vec![p(0, 1), p(1, 1), p(2, 1)]);
        }
        t.deliveries = bodies.to_vec();
        t
    }

    fn checker(timelines: Vec<MemberTimeline>) -> PartitionInvariants {
        let mut inv = PartitionInvariants::new();
        for t in timelines {
            inv.record(t);
        }
        inv
    }

    #[test]
    fn agreeing_timelines_pass() {
        let mut inv = PartitionInvariants::new();
        for site in 0..3u16 {
            let mut t = MemberTimeline::new(format!("m{site}"));
            t.install(1, vec![p(0, 1), p(1, 1), p(2, 1)]);
            t.install(2, vec![p(0, 1), p(1, 1)]);
            t.deliver(1, 10);
            t.deliver(2, 11);
            inv.record(t);
        }
        assert_eq!(inv.check_all(), Ok(()));
        assert_eq!(inv.check_view_order(), Ok(()));
    }

    #[test]
    fn split_brain_is_detected() {
        let mut inv = PartitionInvariants::new();
        let mut a = MemberTimeline::new("majority");
        a.install(1, vec![p(0, 1), p(1, 1), p(2, 1)]);
        a.install(2, vec![p(0, 1), p(1, 1)]);
        let mut b = MemberTimeline::new("minority");
        b.install(1, vec![p(0, 1), p(1, 1), p(2, 1)]);
        // The minority installed its own view 2, excluding the majority: split-brain.
        b.install(2, vec![p(2, 1)]);
        inv.record(a);
        inv.record(b);
        match inv.check_no_split_brain() {
            Err(InvariantViolation::ConflictingViews { seq: 2, .. }) => {}
            other => panic!("expected ConflictingViews, got {other:?}"),
        }
    }

    #[test]
    fn view_seqs_must_increase() {
        let mut inv = PartitionInvariants::new();
        let mut t = MemberTimeline::new("m");
        t.install(3, vec![p(0, 1)]);
        t.install(3, vec![p(0, 1)]);
        inv.record(t);
        assert!(matches!(
            inv.check_no_split_brain(),
            Err(InvariantViolation::NonMonotonicViews {
                prev: 3,
                next: 3,
                ..
            })
        ));
    }

    #[test]
    fn duplicate_and_divergent_deliveries_are_detected() {
        let dup = checker(vec![timeline("m", &[], &[(1, 7), (1, 7)])]);
        assert!(matches!(
            dup.check_convergence(),
            Err(InvariantViolation::DuplicateDelivery { key: 7, .. })
        ));
        assert!(matches!(
            dup.check_view_agreement(),
            Err(InvariantViolation::DuplicateDelivery { key: 7, .. })
        ));

        let div = checker(vec![
            timeline("a", &[], &[(1, 7), (1, 8)]),
            timeline("b", &[], &[(1, 8), (1, 7)]),
        ]);
        assert!(matches!(
            div.check_convergence(),
            Err(InvariantViolation::DivergentOrders { index: 0, .. })
        ));
    }

    #[test]
    fn a_member_that_crashed_or_was_cut_out_may_have_delivered_a_prefix() {
        // In view 1, c and d crash after different prefixes and e is cut out of view 2
        // (it rejoins at 3); the survivors deliver all of view 1.
        let inv = checker(vec![
            timeline("a", &[1, 2, 3], &[(1, 7), (1, 8), (2, 9), (3, 10)]),
            timeline("b", &[1, 2, 3], &[(1, 7), (1, 8), (2, 9), (3, 10)]),
            timeline("c", &[1], &[(1, 7)]),
            timeline("d", &[1], &[]),
            timeline("e", &[1, 3], &[(1, 7), (0, 8), (0, 9), (3, 10)]),
        ]);
        assert_eq!(inv.check_view_order(), Ok(()));
    }

    #[test]
    fn a_joiner_is_compared_only_from_its_first_view() {
        // The joiner adopts the bodies of views 1-2 as state and delivers from view 3 on.
        let inv = checker(vec![
            timeline("a", &[1, 2, 3], &[(1, 7), (2, 8), (3, 9)]),
            timeline("joiner", &[3], &[(0, 7), (0, 8), (3, 9)]),
        ]);
        assert_eq!(inv.check_view_order(), Ok(()));
    }

    #[test]
    fn survivors_delivering_different_sets_in_a_view_are_caught() {
        let inv = checker(vec![
            timeline("a", &[1, 2], &[(1, 7), (1, 8), (2, 9)]),
            timeline("b", &[1, 2], &[(1, 7), (2, 8), (2, 9)]),
        ]);
        assert!(matches!(
            inv.check_view_agreement(),
            Err(InvariantViolation::DivergentView { seq: 1, .. })
        ));
    }

    #[test]
    fn one_view_delivered_in_two_orders_is_caught_only_when_ordered() {
        let inv = checker(vec![
            timeline("a", &[1, 2], &[(1, 7), (1, 8), (2, 9)]),
            timeline("b", &[1, 2], &[(1, 8), (1, 7), (2, 9)]),
        ]);
        assert_eq!(inv.check_view_agreement(), Ok(()));
        assert!(matches!(
            inv.check_view_order(),
            Err(InvariantViolation::DivergentView { seq: 1, .. })
        ));
    }
}
