//! Total-failure reforms in progress at this site (paper Section 3.8): each election with
//! its retransmission bookkeeping and the restarting local member it decides for.
//! [`Reforms`] sends the log summaries itself and hands each verdict to the stack once,
//! which refounds the group or joins the member; the stack answers a summary for a group
//! still alive here, and ends a run when a view installs or its member dies.

use std::collections::{BTreeMap, BTreeSet};

use vsync_msg::Frame;
use vsync_net::{Outbox, PacketKind};
use vsync_proto::messages::ProtoMsg;
use vsync_proto::{LogSummary, ReformStatus, ReformTracker, View};
use vsync_util::{Duration, GroupId, ProcessId, SimTime, SiteId};

use super::send_proto;

/// The local member restarting from this site's log, and what acting on the verdict for it
/// takes: the name the group is registered under and the member's join credentials.
#[derive(Clone)]
pub(super) struct Restart {
    pub(super) name: String,
    pub(super) member: ProcessId,
    pub(super) credentials: Option<String>,
}

/// One election: the tracker plus the retransmission bookkeeping around it.
struct ReformRun {
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
    restart: Restart,
    /// Whether the verdict has been handed to the stack, which acts on it once.
    decided: bool,
}

/// The reforms this site runs, by group.
pub(super) struct Reforms {
    site: SiteId,
    runs: BTreeMap<GroupId, ReformRun>,
}

impl Reforms {
    pub(super) fn new(site: SiteId) -> Self {
        Reforms {
            site,
            runs: BTreeMap::new(),
        }
    }

    /// Starts the election `tracker` describes for `restart`'s member and offers our
    /// summary to every expected participant.
    pub(super) fn begin(
        &mut self,
        group: GroupId,
        tracker: ReformTracker,
        restart: Restart,
        now: SimTime,
        out: &mut Outbox,
    ) {
        let expected = tracker.expected().len();
        let site = self.site;
        out.trace_with(|| {
            format!("{site}: reforming {group} with {expected} expected participants")
        });
        let mut run = ReformRun {
            tracker,
            last_broadcast: now,
            answered: BTreeSet::new(),
            restart,
            decided: false,
        };
        run.broadcast(self.site, group, out);
        self.runs.insert(group, run);
    }

    /// A restarting peer offered its log summary for a group with no live view here.
    /// Not reforming (e.g. still replaying our own disk): safe to drop — the sender
    /// rebroadcasts on a timer until its election resolves.
    pub(super) fn on_summary(&mut self, group: GroupId, summary: LogSummary, out: &mut Outbox) {
        let Some(run) = self.runs.get_mut(&group) else {
            return;
        };
        let from = summary.site;
        let fresh = run.tracker.record(summary);
        // Answer with our own summary if the sender brought new information or has never
        // heard ours — the latter matters when the sender is outside our expected set (its
        // last recorded view was larger than ours), or when our election already resolved:
        // without the reply it would starve until its degraded deadline and could elect a
        // second leader.  Terminates: each sender is answered at most once per election,
        // and the peer's `record` of our (already known) summary returns false, so it does
        // not answer again.
        if fresh || !run.answered.contains(&from) {
            run.answered.insert(from);
            let wire = summary_frame(group, &run.tracker);
            send_proto(self.site, from, PacketKind::Control, wire, out);
        }
    }

    /// A live member of `group` answered our summary: the group never fully failed.
    pub(super) fn on_alive(&mut self, group: GroupId, contact: SiteId) {
        if let Some(run) = self.runs.get_mut(&group) {
            run.tracker.mark_alive(contact);
        }
    }

    /// A view of `group` installed here.  One holding the restarting member ends its reform:
    /// the lead founds it, and a `Follow` or `Operational` verdict's join installs it.  A
    /// view without it ends nothing (a commit sent to a dead incarnation installs none).
    pub(super) fn view_installed(&mut self, group: GroupId, view: &View, out: &mut Outbox) {
        let run = self.runs.get(&group);
        if run.is_some_and(|run| view.contains(run.restart.member)) {
            self.runs.remove(&group);
            out.trace_with(|| format!("{}: reform of {group} complete, view installed", self.site));
        }
    }

    /// A local process died: the elections run for it have nobody left to restart.
    pub(super) fn forget_process(&mut self, pid: ProcessId) {
        self.runs.retain(|_, run| run.restart.member != pid);
    }

    /// The maintenance tick: advances each election (the deadline can fire one without any
    /// packet arriving), rebroadcasts unresolved summaries every `cadence`, so lost packets
    /// and staggered restarts converge, and returns each verdict reached since the last
    /// tick with the member it decides for.
    pub(super) fn on_tick(
        &mut self,
        now: SimTime,
        cadence: Duration,
        out: &mut Outbox,
    ) -> Vec<(GroupId, Restart, ReformStatus)> {
        let mut verdicts = Vec::new();
        for (g, run) in self.runs.iter_mut() {
            let status = run.tracker.try_resolve(now);
            if matches!(status, ReformStatus::Collecting { .. }) {
                if now.saturating_since(run.last_broadcast) >= cadence {
                    run.last_broadcast = now;
                    run.broadcast(self.site, *g, out);
                }
            } else if !run.decided {
                run.decided = true;
                let site = self.site;
                out.trace_with(|| format!("{site}: reform of {g} resolved: {status:?}"));
                verdicts.push((*g, run.restart.clone(), status));
            }
        }
        verdicts
    }
}

impl ReformRun {
    /// Sends our summary to every expected participant (except ourselves).
    fn broadcast(&mut self, site: SiteId, group: GroupId, out: &mut Outbox) {
        let wire = summary_frame(group, &self.tracker);
        for &to in self.tracker.expected() {
            if to != site {
                send_proto(site, to, PacketKind::Control, wire.clone(), out);
                self.answered.insert(to);
            }
        }
    }
}

/// Our summary as a `ReformSummary` frame.
fn summary_frame(group: GroupId, tracker: &ReformTracker) -> Frame {
    let s = tracker.own_summary();
    ProtoMsg::ReformSummary {
        from_site: s.site,
        view_seq: s.view_seq,
        covered: s.covered.clone(),
        rank: s.rank,
    }
    .into_frame(group)
}
