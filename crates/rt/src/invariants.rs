//! Partition-safety invariant checker.
//!
//! Partition tests on both backends record one [`MemberTimeline`] per group member: every
//! view the member installed (seq + membership) and every application-level delivery it
//! applied, tagged with the view seq it was delivered in.  [`PartitionInvariants`] then
//! replays the timelines and asserts the properties a primary-partition membership service
//! must never lose, regardless of where the nemesis cut the network:
//!
//! 1. **No two concurrent primary views** — if any two members installed a view with the
//!    same seq, they installed the *same membership*.  A split-brain (each side of a cut
//!    installing its own view `k+1`) shows up as two installs of one seq with different
//!    member sets and fails here.
//! 2. **Monotonic views** — each member's installed view seqs strictly increase, including
//!    across a wedge / heal / rejoin cycle.
//! 3. **Convergence** — every recorded delivery log is duplicate-free and all logs are
//!    identical, i.e. after the heal the members agree on one total order with no message
//!    applied twice (the exactly-once `log-replayed + snapshot + applies == total`
//!    bookkeeping is asserted by the tests themselves; the checker pins the orders).
//!
//! The checker is deliberately backend-agnostic plain data: the sim and threaded suites
//! (and the fuzzers) build timelines from their observation mirrors and call
//! [`PartitionInvariants::check_all`].

use std::collections::BTreeMap;

use vsync_util::ProcessId;

/// One member's observed history: installed views plus view-tagged deliveries.
#[derive(Clone, Debug, Default)]
pub struct MemberTimeline {
    /// A label for error messages (typically the member's `ProcessId` rendering).
    pub label: String,
    /// Installed views in install order: `(view_seq, membership)`.
    pub views: Vec<(u64, Vec<ProcessId>)>,
    /// Applied deliveries in apply order: `(view_seq at delivery, message key)`.
    pub deliveries: Vec<(u64, String)>,
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

    /// Records an applied delivery.
    pub fn deliver(&mut self, view_seq: u64, key: impl Into<String>) {
        self.deliveries.push((view_seq, key.into()));
    }
}

/// A violated partition invariant, with enough context to debug the failing seed.
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
    /// A member applied the same message key twice.
    DuplicateDelivery { member: String, key: String },
    /// Two members' delivery logs differ (first divergence index, or length mismatch).
    DivergentOrders {
        member_a: String,
        member_b: String,
        index: usize,
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
                write!(f, "duplicate delivery of {key:?} at {member}")
            }
            InvariantViolation::DivergentOrders {
                member_a,
                member_b,
                index,
            } => write!(
                f,
                "delivery logs of {member_a} and {member_b} diverge at index {index}"
            ),
        }
    }
}

/// Replays recorded [`MemberTimeline`]s and checks the partition invariants.
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

    /// Invariant 3: every delivery log is duplicate-free and all logs are identical.
    fn check_convergence(&self) -> Result<(), InvariantViolation> {
        for t in &self.timelines {
            let mut seen = std::collections::BTreeSet::new();
            for (_vs, key) in &t.deliveries {
                if !seen.insert(key.as_str()) {
                    return Err(InvariantViolation::DuplicateDelivery {
                        member: t.label.clone(),
                        key: key.clone(),
                    });
                }
            }
        }
        if let Some(first) = self.timelines.first() {
            for t in &self.timelines[1..] {
                let keys_a: Vec<&str> = first.deliveries.iter().map(|(_, k)| k.as_str()).collect();
                let keys_b: Vec<&str> = t.deliveries.iter().map(|(_, k)| k.as_str()).collect();
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

    /// All invariants; the first violation found, if any.
    pub fn check_all(&self) -> Result<(), InvariantViolation> {
        self.check_no_split_brain()?;
        self.check_convergence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn p(site: u16, local: u32) -> ProcessId {
        ProcessId::new(SiteId(site), local)
    }

    #[test]
    fn agreeing_timelines_pass() {
        let mut inv = PartitionInvariants::new();
        for site in 0..3u16 {
            let mut t = MemberTimeline::new(format!("m{site}"));
            t.install(1, vec![p(0, 1), p(1, 1), p(2, 1)]);
            t.install(2, vec![p(0, 1), p(1, 1)]);
            t.deliver(1, "a");
            t.deliver(2, "b");
            inv.record(t);
        }
        assert_eq!(inv.check_all(), Ok(()));
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
        let mut dup = PartitionInvariants::new();
        let mut t = MemberTimeline::new("m");
        t.deliver(1, "x");
        t.deliver(1, "x");
        dup.record(t);
        assert!(matches!(
            dup.check_convergence(),
            Err(InvariantViolation::DuplicateDelivery { .. })
        ));

        let mut div = PartitionInvariants::new();
        let mut a = MemberTimeline::new("a");
        a.deliver(1, "x");
        a.deliver(1, "y");
        let mut b = MemberTimeline::new("b");
        b.deliver(1, "y");
        b.deliver(1, "x");
        div.record(a);
        div.record(b);
        assert!(matches!(
            div.check_convergence(),
            Err(InvariantViolation::DivergentOrders { index: 0, .. })
        ));
    }
}
