//! Total-failure reforms in progress at this site (paper Section 3.8): one election per
//! group, with its retransmission bookkeeping and the JoinReqs that wait for its verdict,
//! which each tick hands to the group's intents (`stack::membership`).  A run lives while a
//! local process is restarting in or joining its group.

use std::collections::{BTreeMap, BTreeSet};

use vsync_net::{Outbox, Packet, PacketKind};
use vsync_proto::messages::ProtoMsg;
use vsync_proto::{LogSummary, ReformStatus, ReformTracker};
use vsync_util::{GroupId, ProcessId, SimTime, SiteId};

use super::membership::{Input, Intent};
use super::{send_proto, SiteStack};

/// One election: the tracker plus the retransmission bookkeeping around it.
pub(super) struct ReformRun {
    tracker: ReformTracker,
    /// When our summary last went out; rebroadcast at the failure-timeout cadence until
    /// the election resolves, so staggered restarts and lost packets converge.
    last_broadcast: SimTime,
    /// Sites our summary has already been sent to.  Participants' last recorded views —
    /// and hence their expected sets — legitimately differ (the later a site died, the
    /// smaller its final view), so a peer outside *our* expected set may still need our
    /// summary to resolve *its* election: answer every first-time sender, even after our
    /// own election resolved, but answer each at most once so replies cannot ping-pong.
    answered: BTreeSet<SiteId>,
    /// The last JoinReq of each joiner that reached this site while it had no endpoint for
    /// the group: the lead's refound submits them, any other verdict drops them.
    pub(super) kept: BTreeMap<ProcessId, Packet>,
}

impl ReformRun {
    /// Sends our summary to `to`, or to every other expected participant, each then counting
    /// as answered.
    fn send_summary(&mut self, site: SiteId, group: GroupId, to: Option<SiteId>, out: &mut Outbox) {
        let s = self.tracker.own_summary();
        let wire = ProtoMsg::ReformSummary {
            from_site: s.site,
            view_seq: s.view_seq,
            covered: s.covered.clone(),
            rank: s.rank,
        }
        .into_frame(group);
        let everyone = self.tracker.expected();
        for &to in to.as_ref().map_or(everyone, std::slice::from_ref) {
            if to != site {
                send_proto(site, to, PacketKind::Control, wire.clone(), out);
                self.answered.insert(to);
            }
        }
    }
}

impl SiteStack {
    /// Starts a total-failure reform of `group` for `member`, a local process restarting
    /// from this site's recovery log: offers `summary` (what the log covers) to `expected`,
    /// the sites of the last view it recorded, rebroadcasting on the failure-timeout
    /// cadence, and holds a degraded election if `reform_timeout` passes first.  The stack
    /// acts on the verdict: if our log won it refounds the group as `name` with `member`
    /// alone, one view past the authoritative log, and submits the JoinReqs that arrived
    /// meanwhile; otherwise it joins `member` with `credentials` through the winner (or a
    /// live member).  The run ends once no local process is restarting in or joining the
    /// group: a view holding the member installed here, or the member left or died.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_reform(
        &mut self,
        name: &str,
        group: GroupId,
        member: ProcessId,
        credentials: Option<String>,
        summary: LogSummary,
        expected: Vec<SiteId>,
        out: &mut Outbox,
    ) {
        // The reform election honors the same primary-partition rule as live view changes:
        // a degraded (deadline) election may only elect a leader among a majority of the
        // expected participants.
        let tracker = ReformTracker::new(summary, expected, self.now + self.cfg.reform_timeout);
        let (site, expected) = (self.site, tracker.expected().len());
        out.trace_with(|| {
            format!("{site}: reforming {group} with {expected} expected participants")
        });
        let restart = Input::Restart(name.to_owned(), credentials);
        self.membership.step(group, member, restart);
        let mut run = ReformRun {
            tracker,
            last_broadcast: self.now,
            answered: BTreeSet::new(),
            kept: BTreeMap::new(),
        };
        run.send_summary(site, group, None, out);
        self.reforms.insert(group, run);
    }

    /// A live member's answer to our summary, or a restarting peer's summary.  A summary
    /// that finds a view holding a local member here learns the group never fully failed
    /// and is told to rejoin through this site; one that finds no election here is dropped
    /// (the sender rebroadcasts until its own resolves).
    pub(super) fn on_reform_frame(&mut self, group: GroupId, msg: &ProtoMsg, out: &mut Outbox) {
        let summary = match msg {
            ProtoMsg::ReformAlive { contact } => {
                let run = self.reforms.get_mut(&group);
                return run.into_iter().for_each(|r| r.tracker.mark_alive(*contact));
            }
            ProtoMsg::ReformSummary {
                from_site,
                view_seq,
                covered,
                rank,
            } => LogSummary {
                site: *from_site,
                view_seq: *view_seq,
                covered: covered.clone(),
                rank: *rank,
            },
            _ => return,
        };
        let from = summary.site;
        if self.is_member_site(group) {
            let wire = ProtoMsg::ReformAlive { contact: self.site }.into_frame(group);
            return send_proto(self.site, from, PacketKind::Control, wire, out);
        }
        let live = self.membership.any_in(group, Intent::joining);
        let Some(run) = self.reforms.get_mut(&group).filter(|_| live) else {
            return;
        };
        // Answer with our own summary if the sender brought new information or has never
        // heard ours — the latter matters when the sender is outside our expected set (its
        // last recorded view was larger than ours), or when our election already resolved:
        // without the reply it would starve until its degraded deadline and could elect a
        // second leader.  Terminates: each sender is answered at most once per election,
        // and the peer's `record` of our (already known) summary returns false, so it does
        // not answer again.
        let fresh = run.tracker.record(summary);
        if run.answered.insert(from) || fresh {
            run.send_summary(self.site, group, Some(from), out);
        }
    }

    /// The elections' part of the maintenance tick: ends the runs with nothing left to do,
    /// advances each election (the deadline can fire one without any packet arriving),
    /// rebroadcasts unresolved summaries every failure timeout, and hands each verdict to
    /// its group's intents.  A lead's refound is the endpoint the kept JoinReqs wait for.
    pub(super) fn reform_tick(&mut self, out: &mut Outbox) {
        let (membership, reforms) = (&self.membership, &mut self.reforms);
        reforms.retain(|g, _| membership.any_in(*g, Intent::joining));
        let (now, site) = (self.now, self.site);
        let mut verdicts = Vec::new();
        for (g, run) in self.reforms.iter_mut() {
            let status = run.tracker.try_resolve(now);
            if !matches!(status, ReformStatus::Collecting { .. }) {
                verdicts.push((*g, status, std::mem::take(&mut run.kept)));
            } else if now.saturating_since(run.last_broadcast) >= self.cfg.failure_timeout {
                run.last_broadcast = now;
                run.send_summary(site, *g, None, out);
            }
        }
        for (group, verdict, kept) in verdicts {
            let input = |_| Input::Verdict(verdict.clone());
            for (_, pid, action) in self.membership.step_each(Some(group), |_, _| true, input) {
                out.trace_with(|| format!("{site}: reform of {group} resolved: {verdict:?}"));
                self.act(group, pid, action, out);
            }
            if matches!(verdict, ReformStatus::Lead { .. }) {
                for (_, pkt) in kept {
                    self.handle_proto(&pkt, out);
                }
            }
        }
    }
}
