//! What the next view changes: the suspected members, the requests queued for the next
//! flush cut, and the local members that asked to leave.  A GBCAST, a join and a leave take
//! effect only at a cut every member agrees on (paper §2.4), and so does excluding a member
//! believed failed; [`Changes`] holds them until then, and each rule that reads them is one
//! of its methods.

use std::collections::{BTreeMap, BTreeSet};

use vsync_msg::Message;
use vsync_util::{ProcessId, SiteId};

use crate::messages::ProtoMsg;
use crate::view::View;

/// Why a member is suspected.  Ordered: an observed crash outranks a timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Suspicion {
    /// The failure detector or the flush watchdog timed out on it: withdrawn the moment its
    /// site speaks again, since a delay spike looks the same.
    Timeout,
    /// Its exit was observed and reported: never withdrawn, and no evidence of a partition,
    /// since a crashed process runs in no rival component.
    Observed,
}

/// The ledger of what the next view changes, for one group at one site.
#[derive(Debug, Default)]
pub(super) struct Changes {
    /// Members believed failed, until a view without them installs.
    suspected: BTreeMap<ProcessId, Suspicion>,
    /// `JoinReq`, `LeaveReq` and `GbcastReq` messages queued for the next cut, in arrival
    /// order.  Only the acting coordinator holds any (see [`Changes::hand_over`]).
    queued: Vec<ProtoMsg>,
    /// Local members whose voluntary leave was submitted here: a commit excluding them is
    /// an expected departure, not a primary partition cutting this site out.
    leaving_local: BTreeSet<ProcessId>,
}

impl Changes {
    /// Suspects `member` for reason `why`; a timeout never downgrades an observed crash.
    /// True if it was not suspected before.
    pub(super) fn suspect(&mut self, member: ProcessId, why: Suspicion) -> bool {
        let newly = !self.suspected.contains_key(&member);
        let held = self.suspected.entry(member).or_insert(why);
        *held = (*held).max(why);
        newly
    }

    /// Withdraws every timeout suspicion of a member at `site`, which spoke; returns how
    /// many there were.
    pub(super) fn unsuspect(&mut self, site: SiteId) -> usize {
        let before = self.suspected.len();
        self.suspected
            .retain(|p, why| p.site != site || *why == Suspicion::Observed);
        before - self.suspected.len()
    }

    pub(super) fn suspects(&self, member: ProcessId) -> bool {
        self.suspected.contains_key(&member)
    }

    /// True if every member of `view` at `site` is suspected: the site will answer no flush
    /// request or ABCAST proposal.
    pub(super) fn lost(&self, view: &View, site: SiteId) -> bool {
        view.members
            .iter()
            .filter(|m| m.site == site)
            .all(|m| self.suspects(*m))
    }

    /// The acting coordinator of `view`: its oldest member not suspected.
    pub(super) fn coordinator(&self, view: &View) -> Option<ProcessId> {
        view.members.iter().copied().find(|m| !self.suspects(*m))
    }

    /// The voter rule of the fence: a member votes unless it is leaving (queued here, or a
    /// local leaver) or its crash was observed.  Neither can be running in a rival component,
    /// so neither is evidence of a partition.
    pub(super) fn votes(&self, member: ProcessId) -> bool {
        let leaving = self.leaving_local.contains(&member)
            || self.queued.contains(&ProtoMsg::LeaveReq { member });
        !leaving && self.suspected.get(&member) != Some(&Suspicion::Observed)
    }

    /// The fence's count in `view`: `(alive, voters)`, where alive are the voters not
    /// suspected (every suspicion left is a timeout, possibly a partition).
    pub(super) fn tally(&self, view: &View) -> (usize, usize) {
        let voters = view.members.iter().filter(|m| self.votes(**m));
        let alive = voters.clone().filter(|m| !self.suspects(**m)).count();
        (alive, voters.count())
    }

    /// The primary-partition rule: a component may cut a new view from `view` only if it
    /// holds a strict majority of the voters, or exactly half of them *including the oldest
    /// voter* (the rank-0 tie-break, so an even split has exactly one winner).
    pub(super) fn majority(&self, view: &View) -> bool {
        let (alive, voters) = self.tally(view);
        let oldest_voter = view.members.iter().find(|m| self.votes(**m));
        let tie_won = oldest_voter.is_some_and(|m| !self.suspects(*m));
        voters == 0 || alive * 2 > voters || (alive * 2 == voters && tie_won)
    }

    /// The one "flush needed" rule: a suspicion or a queued request.
    pub(super) fn pending(&self) -> bool {
        !self.suspected.is_empty() || !self.queued.is_empty()
    }

    /// Queues a `JoinReq`, `LeaveReq` or `GbcastReq` for the next cut of `view`.  A join or
    /// leave already queued is not queued twice.  Nor is one whose cut would change nothing:
    /// a join of a member `view` holds and nobody suspects, or a leave of a process `view`
    /// does not hold, which instead withdraws that process's queued join.
    pub(super) fn queue(&mut self, request: ProtoMsg, view: &View) {
        let settled = match &request {
            ProtoMsg::JoinReq { joiner, .. } => view.contains(*joiner) && !self.suspects(*joiner),
            ProtoMsg::LeaveReq { member } if !view.contains(*member) => {
                self.queued.retain(
                    |queued| !matches!(queued, ProtoMsg::JoinReq { joiner, .. } if joiner == member),
                );
                true
            }
            _ => false,
        };
        let repeat =
            !matches!(request, ProtoMsg::GbcastReq { .. }) && self.queued.contains(&request);
        if !settled && !repeat {
            self.queued.push(request);
        }
    }

    /// Notes that local `member` asked to leave.
    pub(super) fn leaving_here(&mut self, member: ProcessId) {
        self.leaving_local.insert(member);
    }

    /// The view that follows `view`, and the GBCASTs delivered at its cut: the suspected
    /// members and the queued leavers depart, the queued joiners join.  Drains the queue.
    pub(super) fn successor(&mut self, view: &View) -> (View, Vec<Message>) {
        let mut departed: Vec<ProcessId> = self.suspected.keys().copied().collect();
        let mut joined = Vec::new();
        let mut gbcasts = Vec::new();
        for request in self.queued.drain(..) {
            match request {
                ProtoMsg::JoinReq { joiner, .. } => joined.push(joiner),
                ProtoMsg::LeaveReq { member } => departed.push(member),
                ProtoMsg::GbcastReq { payload, .. } => gbcasts.push(payload),
                _ => {}
            }
        }
        (view.successor(&departed, &joined), gbcasts)
    }

    /// `view` installed: drops every entry it settled.  A suspect or a leaver it excludes is
    /// gone, a joiner it lists is in; what is left takes another cut.
    pub(super) fn installed(&mut self, view: &View) {
        self.suspected.retain(|p, _| view.contains(*p));
        self.leaving_local.retain(|p| view.contains(*p));
        self.queued.retain(|request| match request {
            ProtoMsg::JoinReq { joiner, .. } => !view.contains(*joiner),
            ProtoMsg::LeaveReq { member } => view.contains(*member),
            _ => true,
        });
    }

    /// A site holds queued requests only while it is the acting coordinator: a deposed one
    /// takes them out here and sends them on to the site of the one that is, which cuts
    /// them into its next view.
    pub(super) fn hand_over(&mut self) -> std::vec::Drain<'_, ProtoMsg> {
        self.queued.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use vsync_util::{GroupId, ProcessId, SiteId};

    use super::*;

    fn member(site: u16) -> ProcessId {
        ProcessId::new(SiteId(site), 1)
    }

    /// A view of `n` members, member i at site i with rank i.
    fn view(n: u16) -> View {
        let joiners: Vec<ProcessId> = (1..n).map(member).collect();
        View::founding(GroupId(1), member(0)).successor(&[], &joiners)
    }

    fn leave(site: u16) -> ProtoMsg {
        ProtoMsg::LeaveReq {
            member: member(site),
        }
    }

    fn join(site: u16) -> ProtoMsg {
        ProtoMsg::JoinReq {
            joiner: member(site),
            credentials: None,
        }
    }

    type Sites = &'static [u16];
    type Row = (u16, Sites, Sites, Sites, Sites, (usize, usize), bool);

    /// The fence in an `n`-member view, by site: timed-out suspects, observed crashes,
    /// queued leaves and local leavers; then `(alive, voters)`, and whether it may cut.
    const FENCE: &[Row] = &[
        (3, &[2], &[], &[], &[], (2, 3), true), // a strict majority
        (3, &[1, 2], &[], &[], &[], (1, 3), false), // a strict minority
        (4, &[2, 3], &[], &[], &[], (2, 4), true), // an even split holding rank 0
        (4, &[0, 1], &[], &[], &[], (2, 4), false), // an even split without it
        (3, &[1, 2], &[], &[1], &[], (1, 2), true), // a queued leaver does not vote
        (3, &[1, 2], &[], &[], &[1], (1, 2), true), // nor does a local one
        (3, &[2], &[1], &[], &[], (1, 2), true), // nor an observed crash
        (3, &[0], &[1], &[], &[], (1, 2), false), // the oldest voter breaks the tie
        (3, &[0, 1, 2], &[], &[], &[], (0, 3), false), // everyone suspected
        (3, &[], &[0, 1, 2], &[], &[], (0, 0), true), // nobody left to vote
        (5, &[4], &[2], &[1], &[], (2, 3), true), // a majority of what is left
    ];

    #[test]
    fn the_fence_counts_only_voters() {
        for (row, (n, timeouts, observed, leaves, local, tally, majority)) in
            FENCE.iter().enumerate()
        {
            let mut c = Changes::default();
            for s in *timeouts {
                c.suspect(member(*s), Suspicion::Timeout);
            }
            for s in *observed {
                c.suspect(member(*s), Suspicion::Observed);
            }
            let v = view(*n);
            for s in *leaves {
                c.queue(leave(*s), &v);
            }
            for s in *local {
                c.leaving_here(member(*s));
            }
            assert_eq!(c.tally(&v), *tally, "row {row}");
            assert_eq!(c.majority(&v), *majority, "row {row}");
        }
    }

    #[test]
    fn an_installed_view_drops_what_it_settled() {
        let mut c = Changes::default();
        let gbcast = ProtoMsg::GbcastReq {
            sender: member(0),
            payload: Message::with_body(7u64),
        };
        for request in [join(3), join(4), leave(1), leave(2), gbcast.clone()] {
            c.queue(request, &view(3));
        }
        c.suspect(member(2), Suspicion::Timeout);
        // A view cut elsewhere: member 3 joined, members 1 and 2 left.
        let next = view(3).successor(&[member(1), member(2)], &[member(3)]);
        c.installed(&next);
        assert_eq!(
            c.queued,
            [join(4), gbcast],
            "the unsettled join and the GBCAST stay"
        );
        assert!(!c.suspects(member(2)));
        let (after, gbcasts) = c.successor(&next);
        assert_eq!(after.members, [member(0), member(3), member(4)]);
        assert_eq!(gbcasts, [Message::with_body(7u64)]);
        assert!(!c.pending(), "the successor drained the queue");
    }

    #[test]
    fn a_leave_of_a_process_the_view_does_not_hold_withdraws_its_join() {
        let mut c = Changes::default();
        c.queue(leave(3), &view(3));
        assert!(!c.pending(), "nothing to cut");
        for request in [join(3), join(4), leave(3)] {
            c.queue(request, &view(3));
        }
        assert_eq!(c.queued, [join(4)]);
    }

    #[test]
    fn a_flush_is_pending_while_a_suspicion_or_a_request_is() {
        let mut c = Changes::default();
        assert!(!c.pending());
        assert!(c.suspect(member(1), Suspicion::Timeout));
        assert!(
            !c.suspect(member(1), Suspicion::Observed),
            "not new, but observed now"
        );
        assert!(c.suspect(member(2), Suspicion::Timeout));
        assert_eq!(
            c.unsuspect(SiteId(1)),
            0,
            "an observed crash is never withdrawn"
        );
        assert_eq!(c.unsuspect(SiteId(2)), 1);
        assert!(c.pending());
        c.installed(&view(3).successor(&[member(1)], &[]));
        assert!(!c.pending());
        c.queue(leave(2), &view(3));
        c.queue(leave(2), &view(3));
        assert!(c.pending());
        let handed: Vec<ProtoMsg> = c.hand_over().collect();
        assert!(!c.pending(), "a deposed coordinator keeps nothing");
        assert_eq!(handed, [leave(2)], "one request handed over");
    }
}
