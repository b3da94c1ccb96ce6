//! Total-failure group reform: electing the "last to fail" log (paper Section 3.8).
//!
//! When *every* member of a group crashes there is no survivor to serve a state transfer,
//! so the normal rejoin path cannot run.  The paper's answer is to reform the group from
//! persistent storage: restarting sites exchange summaries of their recovery logs and the
//! log that was written by the **last site to fail** is elected authoritative — by
//! definition it observed every view change and every delivery that became stable before
//! the group died.  The elected site replays its log and refounds the group; everyone else
//! discards its (possibly divergent) tail and rejoins through the ordinary view-cut state
//! transfer.
//!
//! This module is the deterministic core of that protocol: the [`LogSummary`] each site
//! offers, the strict total order `authority_cmp` that decides the election identically
//! at every site, and the [`ReformTracker`] state machine a restarting stack drives with
//! incoming summaries and its clock.  Wire traffic (`ProtoMsg::ReformSummary` /
//! `ProtoMsg::ReformAlive`), retransmission and acting on the verdict live in the
//! `vsync-core` stack; nothing here does I/O.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::frontier::Frontier;
use vsync_util::{SimTime, SiteId};

/// What one restarting site's recovery log claims to cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogSummary {
    /// The site offering the log.
    pub site: SiteId,
    /// Highest view sequence number the log records.  A log that strictly dominates on
    /// this field saw a view change the others missed, so its writer failed later.
    pub view_seq: u64,
    /// Per-origin delivery frontier the log covers (first tie-break: within the same
    /// final view, the log that recorded more deliveries died later).
    pub covered: Frontier,
    /// Rank the site's member held in its last logged view (second tie-break: lower rank
    /// = older member, matching the view's deterministic age order).
    pub rank: u64,
}

/// Strict total order on log summaries: `Greater` means "more authoritative".
///
/// The primary key is the paper's last-to-fail determination — a log whose final view seq
/// strictly dominates wins outright, because view installation is totally ordered and a
/// site that installed view `n+1` must have outlived every site that stopped at `n`.
/// Within the same final view the covered frontier's weight decides (more durably recorded
/// deliveries = died later), then the member's rank (older member wins), then the site id
/// — so the order is total and every site elects the same log without communication
/// beyond the summaries themselves.
fn authority_cmp(a: &LogSummary, b: &LogSummary) -> Ordering {
    a.view_seq
        .cmp(&b.view_seq)
        .then(a.covered.weight().cmp(&b.covered.weight()))
        .then(b.rank.cmp(&a.rank))
        .then(b.site.0.cmp(&a.site.0))
}

/// Outcome of a reform election at one site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReformStatus {
    /// Still collecting summaries from the expected participants.
    Collecting {
        /// Summaries received so far (including our own).
        have: usize,
        /// Participants we are waiting to hear from in total.
        expected: usize,
    },
    /// Our log won: replay it and refound the group at `new_view_seq`.
    Lead {
        /// Founding seq for the reformed view: one past the authoritative log's last
        /// view, so the view-sequence line (and future elections) stay monotone.
        new_view_seq: u64,
    },
    /// Another site's log won: discard our divergent tail and rejoin via state transfer.
    Follow {
        /// The elected site, usable as the join contact once it has refounded the group.
        leader: SiteId,
    },
    /// The group never fully died — a live member answered.  Abandon the reform and take
    /// the normal rejoin path.
    Operational {
        /// A site hosting a live member.
        contact: SiteId,
    },
}

/// Per-group reform state at one restarting site.
///
/// Driven by the hosting stack: [`record`](ReformTracker::record) with each incoming
/// summary, [`mark_alive`](ReformTracker::mark_alive) if a live member answers, and
/// [`try_resolve`](ReformTracker::try_resolve) with the clock.  The election fires as
/// soon as every expected participant has reported; if the deadline passes first, it
/// fires over the summaries at hand (a *degraded* election — some logs may be
/// unreachable, e.g. a site whose disk died with it; the paper accepts this as the price
/// of availability, and view-seq monotonicity still guarantees no elected log can be
/// older than any log that does eventually come back and Follow).
///
/// The degraded path carries the same primary-partition fence as the live membership
/// protocol: a deadline election only fires if the summaries at hand cover a strict
/// majority of the expected participants.  Without the fence, a minority component of
/// restarting sites (the rest partitioned away, not dead) would self-elect an
/// authoritative log while the majority elects a different one — split-brain by reform.
#[derive(Clone, Debug)]
pub struct ReformTracker {
    me: SiteId,
    expected: Vec<SiteId>,
    summaries: BTreeMap<SiteId, LogSummary>,
    deadline: SimTime,
    resolved: Option<ReformStatus>,
}

impl ReformTracker {
    /// Starts a reform with our own log summary and the participant set (the sites of the
    /// last view our log recorded — the only sites whose logs could possibly dominate).
    pub fn new(own: LogSummary, mut expected: Vec<SiteId>, deadline: SimTime) -> Self {
        let me = own.site;
        if !expected.contains(&me) {
            expected.push(me);
        }
        let mut summaries = BTreeMap::new();
        summaries.insert(me, own);
        ReformTracker {
            me,
            expected,
            summaries,
            deadline,
            resolved: None,
        }
    }

    /// Our own summary (re-broadcast by the stack until the election resolves).
    pub fn own_summary(&self) -> &LogSummary {
        &self.summaries[&self.me]
    }

    /// The participant sites this tracker is waiting on.
    pub fn expected(&self) -> &[SiteId] {
        &self.expected
    }

    /// Folds in a summary received from a peer.  Returns `true` if it was new
    /// information (first summary from that site, or a better one — a site may
    /// resummarise after recovering more of its disk).
    pub fn record(&mut self, summary: LogSummary) -> bool {
        if self.resolved.is_some() {
            return false;
        }
        match self.summaries.get(&summary.site) {
            Some(prev) if authority_cmp(prev, &summary) != Ordering::Less => false,
            _ => {
                self.summaries.insert(summary.site, summary);
                true
            }
        }
    }

    /// A live member of the group answered: the group never fully failed.
    pub fn mark_alive(&mut self, contact: SiteId) {
        if self.resolved.is_none() {
            self.resolved = Some(ReformStatus::Operational { contact });
        }
    }

    /// Advances the election.  Returns the resolution once reached; `Collecting` until
    /// then.  Deterministic: given the same summaries, every site resolves identically.
    pub fn try_resolve(&mut self, now: SimTime) -> ReformStatus {
        if let Some(r) = &self.resolved {
            return r.clone();
        }
        let all_in = self.expected.iter().all(|s| self.summaries.contains_key(s));
        let majority = self.summaries.len() * 2 > self.expected.len();
        // A degraded (deadline-fired) election additionally needs summaries from a strict
        // majority of the expected participants; a minority keeps collecting — it can
        // never self-elect an authoritative log while the rest might be partitioned away,
        // alive, and electing among themselves.
        if !all_in && (now < self.deadline || !majority) {
            return ReformStatus::Collecting {
                have: self.summaries.len(),
                expected: self.expected.len(),
            };
        }
        let winner = self
            .summaries
            .values()
            .max_by(|a, b| authority_cmp(a, b))
            .expect("tracker always holds its own summary");
        let status = if winner.site == self.me {
            ReformStatus::Lead {
                new_view_seq: winner.view_seq + 1,
            }
        } else {
            ReformStatus::Follow {
                leader: winner.site,
            }
        };
        self.resolved = Some(status.clone());
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_net::MsgId;

    fn frontier(pairs: &[(u16, u64)]) -> Frontier {
        let mut f = Frontier::new();
        for (site, seq) in pairs {
            f.observe(MsgId::new(SiteId(*site), *seq));
        }
        f
    }

    fn summary(site: u16, view_seq: u64, covered: &[(u16, u64)], rank: u64) -> LogSummary {
        LogSummary {
            site: SiteId(site),
            view_seq,
            covered: frontier(covered),
            rank,
        }
    }

    #[test]
    fn view_seq_strictly_dominates() {
        // A later final view beats any frontier or rank advantage.
        let late = summary(2, 7, &[], 2);
        let busy = summary(0, 6, &[(0, 100), (1, 100)], 0);
        assert_eq!(authority_cmp(&late, &busy), Ordering::Greater);
    }

    #[test]
    fn frontier_weight_breaks_view_ties() {
        let more = summary(1, 5, &[(0, 9), (1, 3)], 1);
        let less = summary(0, 5, &[(0, 9)], 0);
        assert_eq!(authority_cmp(&more, &less), Ordering::Greater);
    }

    #[test]
    fn rank_then_site_break_full_ties_deterministically() {
        let older = summary(2, 5, &[(0, 4)], 0);
        let younger = summary(1, 5, &[(0, 4)], 1);
        assert_eq!(authority_cmp(&older, &younger), Ordering::Greater);
        let a = summary(1, 5, &[(0, 4)], 0);
        let b = summary(3, 5, &[(0, 4)], 0);
        assert_eq!(authority_cmp(&a, &b), Ordering::Greater, "lower site wins");
        // The order is strict on distinct sites: never Equal.
        assert_ne!(authority_cmp(&a, &b), Ordering::Equal);
    }

    #[test]
    fn election_fires_when_all_expected_report() {
        let mut t = ReformTracker::new(
            summary(0, 4, &[(0, 2)], 1),
            vec![SiteId(0), SiteId(1), SiteId(2)],
            SimTime::ZERO + vsync_util::Duration::from_secs(5),
        );
        let now = SimTime::ZERO;
        assert!(matches!(
            t.try_resolve(now),
            ReformStatus::Collecting {
                have: 1,
                expected: 3
            }
        ));
        assert!(t.record(summary(1, 5, &[(0, 3)], 0)));
        assert!(matches!(
            t.try_resolve(now),
            ReformStatus::Collecting { have: 2, .. }
        ));
        assert!(t.record(summary(2, 4, &[(0, 2)], 2)));
        assert_eq!(
            t.try_resolve(now),
            ReformStatus::Follow { leader: SiteId(1) }
        );
        // Resolution is sticky: later summaries cannot reopen the election.
        assert!(!t.record(summary(2, 9, &[], 0)));
        assert_eq!(
            t.try_resolve(now),
            ReformStatus::Follow { leader: SiteId(1) }
        );
    }

    #[test]
    fn own_log_winning_leads_at_the_next_view_seq() {
        let mut t = ReformTracker::new(
            summary(1, 6, &[(0, 9)], 0),
            vec![SiteId(0), SiteId(1)],
            SimTime::ZERO + vsync_util::Duration::from_secs(5),
        );
        t.record(summary(0, 5, &[(0, 9), (1, 50)], 0));
        assert_eq!(
            t.try_resolve(SimTime::ZERO),
            ReformStatus::Lead { new_view_seq: 7 }
        );
    }

    #[test]
    fn deadline_forces_a_degraded_election() {
        let deadline = SimTime::ZERO + vsync_util::Duration::from_secs(1);
        let mut t = ReformTracker::new(
            summary(2, 3, &[], 1),
            vec![SiteId(0), SiteId(1), SiteId(2)],
            deadline,
        );
        assert!(matches!(
            t.try_resolve(SimTime::ZERO),
            ReformStatus::Collecting { .. }
        ));
        // Only one peer ever reports; the deadline elects among what we have.
        t.record(summary(0, 4, &[], 0));
        assert_eq!(
            t.try_resolve(deadline),
            ReformStatus::Follow { leader: SiteId(0) }
        );
    }

    #[test]
    fn minority_never_self_elects_at_the_deadline() {
        let deadline = SimTime::ZERO + vsync_util::Duration::from_secs(1);
        // 1 of 5 expected: far past the deadline, the election must keep collecting.
        let mut t = ReformTracker::new(
            summary(0, 9, &[(0, 50)], 0),
            (0..5).map(SiteId).collect(),
            deadline,
        );
        assert!(matches!(
            t.try_resolve(deadline + vsync_util::Duration::from_secs(60)),
            ReformStatus::Collecting {
                have: 1,
                expected: 5
            }
        ));
        // 2 of 5 is still a minority.
        t.record(summary(1, 8, &[], 1));
        assert!(matches!(
            t.try_resolve(deadline + vsync_util::Duration::from_secs(60)),
            ReformStatus::Collecting { have: 2, .. }
        ));
        // 3 of 5 crosses the majority: the degraded election fires.
        t.record(summary(2, 7, &[], 2));
        assert_eq!(
            t.try_resolve(deadline + vsync_util::Duration::from_secs(60)),
            ReformStatus::Lead { new_view_seq: 10 }
        );
    }

    #[test]
    fn alive_answer_short_circuits_everything() {
        let mut t = ReformTracker::new(
            summary(0, 8, &[(0, 40)], 0),
            vec![SiteId(0), SiteId(1)],
            SimTime::ZERO + vsync_util::Duration::from_secs(5),
        );
        t.mark_alive(SiteId(1));
        assert_eq!(
            t.try_resolve(SimTime::ZERO),
            ReformStatus::Operational { contact: SiteId(1) }
        );
        assert!(!t.record(summary(1, 1, &[], 0)));
    }

    #[test]
    fn better_resummary_from_the_same_site_replaces_the_old_one() {
        let mut t = ReformTracker::new(
            summary(0, 2, &[], 0),
            vec![SiteId(0), SiteId(1), SiteId(2)],
            SimTime::ZERO + vsync_util::Duration::from_secs(5),
        );
        assert!(t.record(summary(1, 3, &[], 0)));
        assert!(!t.record(summary(1, 3, &[], 0)), "duplicate is not new");
        assert!(t.record(summary(1, 4, &[], 0)), "strictly better replaces");
        t.record(summary(2, 1, &[], 0));
        assert_eq!(
            t.try_resolve(SimTime::ZERO),
            ReformStatus::Follow { leader: SiteId(1) }
        );
    }
}
