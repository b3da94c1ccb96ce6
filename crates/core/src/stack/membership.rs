//! What this site is doing for each local process in each group: one [`Intent`] per
//! (group, process), written only by [`next`].
//!
//! ```text
//! absent, Joining, Restarting, Member ── join ──▶ Joining ── tick, backoff spent ──▶ re-sent
//! any ── restart ──▶ Restarting ── lead, follow, operational ──▶ refound or join
//! absent, Joining, Restarting ── view with it ──▶ Member ── leave ──▶ Leaving
//! Member, Leaving ── view without it ──▶ absent      Joining, Member ── exile ──▶ join
//! any but Joining ── refused ──▶ absent              Joining, Restarting ── leave ──▶ absent
//! any ── death ──▶ absent
//! ```
//!
//! Any other input leaves the intent as it is: a refused repeat join leaves the pending one
//! to its backoff, and a verdict or an exile only asks for a join, whose own input moves the
//! intent.  The view stays the one record of who is a member.  A join that ends before its
//! view (the joiner left or died) takes the endpoint with it; if the join's cut still comes,
//! the stack answers it with a failure report, so the group never waits on this site.

use std::collections::BTreeMap;

use vsync_net::{Outbox, PacketKind};
use vsync_proto::messages::ProtoMsg;
use vsync_proto::{GroupEndpoint, ReformStatus, View};
use vsync_util::{DetRng, Duration, GroupId, ProcessId, Result, SimTime, SiteId, VsError};

use super::{send_proto, SiteStack};

/// What the site is doing for one local process in one group.
#[derive(Debug)]
pub(super) enum Intent {
    /// A join went out and no view holding the process has installed.  `attempts` counts the
    /// re-sends since a view of the group last installed here, and drives the backoff.
    Joining {
        credentials: Option<String>,
        last_sent: SimTime,
        attempts: u32,
    },
    /// Restarting from this site's log (paper Section 3.8) until its election's verdict:
    /// refound the group as `name`, or join it with `credentials`.
    Restarting {
        name: String,
        credentials: Option<String>,
    },
    /// In the view here; `credentials` rejoin it after an exile.
    Member { credentials: Option<String> },
    /// Asked to leave; in the view here until the view without it installs.
    Leaving,
}

/// What moves an intent.
#[derive(Clone, Debug)]
pub(super) enum Input {
    /// A local join with these credentials is about to be submitted, at this time.
    Join(Option<String>, SimTime),
    /// A local join was refused at submission, or no contact or member here could take it.
    Refused,
    /// `SiteStack::begin_reform` restarts the process in the group registered as the name.
    Restart(String, Option<String>),
    /// A view of the group installed here, with the process in it or without it.
    ViewWith,
    ViewWithout,
    /// The group's endpoint here was exiled and discarded.
    Exile,
    /// The group's election resolved; repeated every tick until the election ends.
    Verdict(ReformStatus),
    Leave,
    Death,
    /// The maintenance tick, with the join backoff's base cadence and the process; only a
    /// joining or restarting intent has anything to do on it, so only those are fed one.
    Tick(SimTime, Duration, ProcessId),
}

/// What the stack does for a transition.
#[derive(Debug)]
pub(super) enum Action {
    /// Found the group again with the process alone: the name to register, the first view.
    Refound(String, u64),
    /// Join with these credentials, after registering the group's name and contact if given.
    Join(Option<String>, Option<(String, SiteId)>),
    /// Send the pending join again with these credentials, as this re-send.
    Resend(Option<String>, u32),
}

impl Intent {
    fn credentials(&self) -> Option<String> {
        match self {
            Intent::Joining { credentials, .. }
            | Intent::Restarting { credentials, .. }
            | Intent::Member { credentials } => credentials.clone(),
            Intent::Leaving => None,
        }
    }

    /// True for a process restarting in or joining its group.
    pub(super) fn joining(&self) -> bool {
        matches!(self, Intent::Joining { .. } | Intent::Restarting { .. })
    }
}

/// The transition function: the intent after `input` (`None` for none) and what to do.
pub(super) fn next(intent: Option<Intent>, input: Input) -> (Option<Intent>, Option<Action>) {
    use Input::*;
    use Intent::*;
    let joining = |credentials, last_sent, attempts| Joining {
        credentials,
        last_sent,
        attempts,
    };
    match (intent, input) {
        (Some(pending @ Joining { .. }), Refused) => (Some(pending), None),
        (_, Refused | Death)
        | (Some(Leaving), Exile)
        | (Some(Member { .. } | Leaving), ViewWithout)
        | (None | Some(Joining { .. } | Restarting { .. }), Leave) => (None, None),
        (_, Restart(name, credentials)) => (Some(Restarting { name, credentials }), None),
        (Some(Leaving), _) | (Some(Member { .. }), Leave) => (Some(Leaving), None),
        (_, Join(credentials, now)) => (Some(joining(credentials, now, 0)), None),
        (i, ViewWith) => {
            let credentials = i.as_ref().and_then(Intent::credentials);
            (Some(Member { credentials }), None)
        }
        (Some(i @ (Joining { .. } | Member { .. })), Exile) => {
            let rejoin = Action::Join(i.credentials(), None);
            (Some(i), Some(rejoin))
        }
        (Some(Restarting { name, credentials }), Verdict(verdict)) => {
            let action = match verdict {
                ReformStatus::Lead { new_view_seq } => Action::Refound(name.clone(), new_view_seq),
                ReformStatus::Follow { leader: c } | ReformStatus::Operational { contact: c } => {
                    Action::Join(credentials.clone(), Some((name.clone(), c)))
                }
                ReformStatus::Collecting { .. } => {
                    return (Some(Restarting { name, credentials }), None)
                }
            };
            (Some(Restarting { name, credentials }), Some(action))
        }
        (
            Some(Joining {
                credentials,
                last_sent,
                attempts,
            }),
            input,
        ) => match input {
            ViewWithout => (Some(joining(credentials, last_sent, 0)), None),
            Tick(now, base, joiner)
                if now.saturating_since(last_sent) >= retry_delay(joiner, attempts, base) =>
            {
                let attempt = attempts.saturating_add(1);
                let resend = Action::Resend(credentials.clone(), attempt);
                (Some(joining(credentials, now, attempt)), Some(resend))
            }
            _ => (Some(joining(credentials, last_sent, attempts)), None),
        },
        (intent, _) => (intent, None),
    }
}

/// The intents of this site's local processes, by group and process.
#[derive(Default)]
pub(super) struct Membership(BTreeMap<Key, Intent>);

type Key = (GroupId, ProcessId);

impl Membership {
    /// Feeds `input` to `pid`'s intent in `group` and returns the action it asks for.  An
    /// intent that stays is written back in place.
    pub(super) fn step(&mut self, group: GroupId, pid: ProcessId, input: Input) -> Option<Action> {
        let key = (group, pid);
        let held = self.0.get_mut(&key);
        let (intent, action) = next(held.map(|i| std::mem::replace(i, Intent::Leaving)), input);
        match intent {
            Some(i) => self.0.insert(key, i),
            None => self.0.remove(&key),
        };
        action
    }

    /// Feeds each intent in `group` (in every group, for `None`) that `pick` selects the input
    /// made for its process; returns the actions.  Reads only `group`'s intents, and writes
    /// only the picked ones.
    pub(super) fn step_each(
        &mut self,
        group: Option<GroupId>,
        pick: impl Fn(ProcessId, &Intent) -> bool,
        input: impl Fn(ProcessId) -> Input,
    ) -> Vec<(GroupId, ProcessId, Action)> {
        let picked: Vec<Key> = self
            .range(group)
            .filter(|((_, p), i)| pick(*p, i))
            .map(|(key, _)| *key)
            .collect();
        let step = |(g, p)| Some((g, p, self.step(g, p, input(p))?));
        picked.into_iter().filter_map(step).collect()
    }

    /// True if `pid` has an intent in `group`.
    pub(super) fn holds(&self, group: GroupId, pid: ProcessId) -> bool {
        self.0.contains_key(&(group, pid))
    }

    /// True if some local process's intent in `group` passes `test`.
    pub(super) fn any_in(&self, group: GroupId, test: impl Fn(&Intent) -> bool) -> bool {
        self.range(Some(group)).any(|(_, i)| test(i))
    }

    /// The intents in `group`, or every intent for `None`.
    fn range(&self, group: Option<GroupId>) -> impl Iterator<Item = (&Key, &Intent)> {
        let (first, last) = group.map_or((GroupId(0), GroupId(u64::MAX)), |g| (g, g));
        let lowest = ProcessId::new(SiteId(0), 0);
        let highest = ProcessId::new(SiteId(u16::MAX), u32::MAX);
        self.0.range((first, lowest)..=(last, highest))
    }
}

/// How long after its last send a join is re-sent: `base` doubled per failed attempt
/// (capped at 8x) plus a deterministic jitter of up to a quarter of that, seeded from the
/// joiner identity and the attempt number so concurrent joiners desynchronise identically
/// on every run.  The base cadence (one failure timeout) gives the previous attempt time to
/// land, and by then the detector has usually condemned a dead contact.
pub(super) fn retry_delay(joiner: ProcessId, attempts: u32, base: Duration) -> Duration {
    let backoff = base.saturating_mul(1u64 << attempts.min(3));
    let mut rng = DetRng::new(
        0x9e37_79b9_7f4a_7c15
            ^ (u64::from(joiner.site.0) << 24)
            ^ (u64::from(joiner.local) << 8)
            ^ u64::from(attempts),
    );
    let jitter = rng.next_below(backoff.as_micros() / 4 + 1);
    backoff + Duration::from_micros(jitter)
}

/// The contact a join fails over to once its backoff is exhausted (the cap in
/// [`retry_delay`]): the preferred contact is then presumed unreachable in a useful sense —
/// often stranded in a wedged minority component that heartbeats fine but can never install
/// the join's view — so attempts rotate deterministically through the known `contacts`
/// *other than* it.  `None` below the backoff cap, or when no alternative site is known.
pub(super) fn failover_contact(
    contacts: &[SiteId],
    preferred: SiteId,
    attempt: u32,
) -> Option<SiteId> {
    let turn = (attempt as usize).checked_sub(4)?;
    let others: Vec<SiteId> = contacts
        .iter()
        .filter(|s| **s != preferred)
        .copied()
        .collect();
    (!others.is_empty()).then(|| others[turn % others.len()])
}

impl SiteStack {
    /// Asks for `joiner` (hosted here) to join `group`.
    pub fn join_group(
        &mut self,
        group: GroupId,
        joiner: ProcessId,
        credentials: Option<String>,
        out: &mut Outbox,
    ) -> Result<()> {
        let routed = self.is_member_site(group) || self.alive_contact(group).is_some();
        let res = self.admit_join(group, joiner, credentials.as_deref(), out);
        let res = res.and_then(|()| routed.then_some(()).ok_or(VsError::NoSuchGroup(group)));
        // A current member's join changes nothing: the coordinator would drop it.
        if self.view_of(group).is_some_and(|v| v.contains(joiner)) {
            return res;
        }
        if res.is_err() {
            self.membership.step(group, joiner, Input::Refused);
            self.retire_if_idle(group);
            return res;
        }
        let input = Input::Join(credentials.clone(), self.now);
        self.membership.step(group, joiner, input);
        // The endpoint the admitting commit lands in.
        let (site, cfg, stats) = (self.site, self.proto_cfg, &self.stats);
        self.endpoints
            .entry(group)
            .or_insert_with(|| GroupEndpoint::new(group, site, cfg, stats.clone()));
        self.submit_join_request(group, joiner, credentials, 0, out)
    }

    /// One attempt at routing a join: submit locally if a member lives here, otherwise send
    /// a JoinReq to the first contact site the failure detector believes alive — or, once
    /// the retries have spent their backoff (`attempt`), to the failover contact.
    fn submit_join_request(
        &mut self,
        group: GroupId,
        joiner: ProcessId,
        credentials: Option<String>,
        attempt: u32,
        out: &mut Outbox,
    ) -> Result<()> {
        if self.is_member_site(group) {
            return self
                .with_endpoint(group, out, |ep, now, eouts| {
                    ep.submit_join(now, joiner, credentials, eouts)
                })
                .expect("member site has an endpoint");
        }
        let preferred = self.alive_contact(group);
        let preferred = preferred.ok_or(VsError::NoSuchGroup(group))?;
        let contacts = self.contacts.get(&group);
        let failover = contacts.and_then(|c| failover_contact(c, preferred, attempt));
        if let Some(other) = failover {
            self.stats.with(|s| s.count_join_failover());
            out.trace_with(|| {
                format!(
                    "{}: JoinContactUnreachable: join of {joiner} to {group} via \
                     {preferred} stalled after {attempt} attempts; failing over to {other}",
                    self.site
                )
            });
        }
        let wire = ProtoMsg::JoinReq {
            joiner,
            credentials,
        }
        .into_frame(group);
        let contact = failover.unwrap_or(preferred);
        send_proto(self.site, contact, PacketKind::Flush, wire, out);
        Ok(())
    }

    /// Asks for `member` (hosted here) to leave `group`.
    pub fn leave_group(
        &mut self,
        group: GroupId,
        member: ProcessId,
        out: &mut Outbox,
    ) -> Result<()> {
        self.membership.step(group, member, Input::Leave);
        self.retire_if_idle(group);
        if self.is_member_site(group) {
            return self
                .with_endpoint(group, out, |ep, now, eouts| {
                    ep.submit_leave(now, member, eouts)
                })
                .expect("member site has an endpoint");
        }
        let contact = self.alive_contact(group);
        let contact = contact.ok_or(VsError::NoSuchGroup(group))?;
        let wire = ProtoMsg::LeaveReq { member }.into_frame(group);
        send_proto(self.site, contact, PacketKind::Flush, wire, out);
        Ok(())
    }

    /// Crashes a local client process: it disappears immediately, and every group it belonged
    /// to is told (the paper's "detectable by some monitoring mechanism at the site").
    pub fn crash_local_process(&mut self, pid: ProcessId, out: &mut Outbox) {
        self.processes.remove(&pid);
        self.membership
            .step_each(None, |p, _| p == pid, |_| Input::Death);
        self.rpc.drop_caller(pid);
        let groups: Vec<GroupId> = self.endpoints.keys().copied().collect();
        for g in groups {
            match self.view_of(g).filter(|v| v.contains(pid)) {
                Some(v) => self.report_gone(g, v.member_sites(), vec![pid], out),
                None => self.retire_if_idle(g),
            }
        }
        self.sweep_sessions(1, self.rpc.last(), |c| c.on_failure(|p| *p == pid), out);
    }

    /// Tells the group that `gone`, processes of this site in a view of it spanning `sites`,
    /// are not in it here: they died, or their join ended before its cut.  The endpoint
    /// here, if any, confirms it (an *observed* exit, never retracted by later traffic); the
    /// other sites cannot observe a silent local exit, so every one of them is sent one
    /// report frame, and whichever hosts the acting coordinator (the gone process may have
    /// been it) cuts them out without waiting on this site.
    pub(super) fn report_gone(
        &mut self,
        group: GroupId,
        sites: Vec<SiteId>,
        gone: Vec<ProcessId>,
        out: &mut Outbox,
    ) {
        self.with_endpoint(group, out, |ep, now, eouts| {
            ep.confirm_failures(now, &gone, eouts)
        });
        let wire = ProtoMsg::FailReport { failed: gone }.into_frame(group);
        for s in sites.into_iter().filter(|s| *s != self.site) {
            send_proto(self.site, s, PacketKind::Flush, wire.clone(), out);
        }
    }

    /// Answers a view of `group` that joins processes of this site with no intent here: their
    /// join ended before its cut (they left, or died), so the group is told they are gone.
    /// Run on each view installed here, and on a commit that finds no endpoint here.
    pub(super) fn report_ended_joins(&mut self, group: GroupId, view: &View, out: &mut Outbox) {
        let ended = |p: &&ProcessId| p.site == self.site && !self.membership.holds(group, **p);
        let gone: Vec<ProcessId> = view.joined.iter().filter(ended).copied().collect();
        if !gone.is_empty() {
            self.report_gone(group, view.member_sites(), gone, out);
        }
    }

    /// The one rule that ends this site's part in a group, run after every pump, local leave,
    /// refused join and local death: drops an endpoint whose view (if any) holds no member
    /// here once no local process has an intent in the group.  The intents are read only then.
    pub(super) fn retire_if_idle(&mut self, group: GroupId) {
        let no_member = |ep: &GroupEndpoint| ep.local_members().is_empty();
        let idle = self.endpoints.get(&group).is_some_and(no_member);
        if idle && !self.membership.any_in(group, |_| true) {
            self.endpoints.remove(&group);
        }
    }

    /// The endpoint saw a newer primary view without its local members: its history past the
    /// last shared cut is a divergent minority tail.  Discard it, and rejoin the members with
    /// their credentials through the evidenced contact; the join-cut state transfer replaces
    /// everything the tail contained.
    pub(super) fn handle_rejoin_required(
        &mut self,
        group: GroupId,
        contact: SiteId,
        observed_seq: u64,
        out: &mut Outbox,
    ) {
        self.endpoints.remove(&group);
        self.stats.with(|s| s.count_rejoin_after_heal());
        out.trace_with(|| {
            format!(
                "{}: {group} diverged from primary view {observed_seq}; \
                 discarding local tail and rejoining via {contact}",
                self.site
            )
        });
        // Route the rejoin through the site that evidenced the primary view, ahead of
        // whatever contacts the stale view left cached.
        let entry = self.contacts.entry(group).or_default();
        entry.retain(|s| *s != contact);
        entry.insert(0, contact);
        let exiled = self
            .membership
            .step_each(Some(group), |_, _| true, |_| Input::Exile);
        for (_, pid, action) in exiled {
            self.act(group, pid, action, out);
        }
    }

    /// Does what a transition of `pid`'s intent in `group` asked for.
    pub(super) fn act(&mut self, group: GroupId, pid: ProcessId, action: Action, out: &mut Outbox) {
        let res = match action {
            Action::Refound(name, first_seq) => {
                return self.create_group_at(&name, group, pid, first_seq, out);
            }
            Action::Join(credentials, via) => {
                if let Some((name, contact)) = via {
                    self.register_group(&name, group, vec![contact]);
                }
                self.join_group(group, pid, credentials, out)
            }
            // A dead contact everywhere leaves the join pending for the next cadence.
            Action::Resend(credentials, attempt) => {
                out.trace_with(|| {
                    format!("{}: re-submitting join of {pid} to {group:?}", self.site)
                });
                self.submit_join_request(group, pid, credentials, attempt, out)
            }
        };
        if let Err(e) = res {
            out.trace_with(|| format!("{}: join of {pid} to {group} failed: {e}", self.site));
        }
    }
}
#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(n)
    }

    fn some(s: &str) -> Option<String> {
        Some(s.to_owned())
    }

    fn intent(label: &str) -> Option<Intent> {
        Some(match label {
            "absent" => return None,
            "joining 2 0ms c" => Intent::Joining {
                credentials: some("c"),
                last_sent: ms(0),
                attempts: 2,
            },
            "restarting g c" => Intent::Restarting {
                name: "g".into(),
                credentials: some("c"),
            },
            "member c" => Intent::Member {
                credentials: some("c"),
            },
            "leaving" => Intent::Leaving,
            other => panic!("no intent {other:?}"),
        })
    }

    fn input(label: &str) -> Input {
        let joiner = ProcessId::new(SiteId(1), 1);
        let tick = |now| Input::Tick(ms(now), Duration::from_millis(100), joiner);
        let verdict = Input::Verdict;
        match label {
            "join" => Input::Join(some("d"), ms(50)),
            "refused" => Input::Refused,
            "restart" => Input::Restart("h".into(), some("e")),
            "view holding it" => Input::ViewWith,
            "view without it" => Input::ViewWithout,
            "exile" => Input::Exile,
            "lead 6" => verdict(ReformStatus::Lead { new_view_seq: 6 }),
            "follow 0" => verdict(ReformStatus::Follow { leader: SiteId(0) }),
            "operational 0" => verdict(ReformStatus::Operational { contact: SiteId(0) }),
            "leave" => Input::Leave,
            "death" => Input::Death,
            // The backoff after two re-sends is 400–500 ms.
            "tick early" => tick(100),
            "tick due" => tick(1000),
            other => panic!("no input {other:?}"),
        }
    }

    fn cred(c: &Option<String>) -> &str {
        c.as_deref().unwrap_or("-")
    }

    fn label(intent: &Option<Intent>) -> String {
        match intent {
            None => "absent".into(),
            Some(Intent::Joining {
                credentials,
                last_sent,
                attempts,
            }) => {
                let sent = last_sent.saturating_since(SimTime::ZERO).as_micros() / 1000;
                format!("joining {attempts} {sent}ms {}", cred(credentials))
            }
            Some(Intent::Restarting { name, credentials }) => {
                format!("restarting {name} {}", cred(credentials))
            }
            Some(Intent::Member { credentials }) => format!("member {}", cred(credentials)),
            Some(Intent::Leaving) => "leaving".into(),
        }
    }

    fn action(action: &Option<Action>) -> String {
        match action {
            None => "-".into(),
            Some(Action::Refound(name, first_seq)) => format!("refound {name} {first_seq}"),
            Some(Action::Join(credentials, None)) => format!("join {}", cred(credentials)),
            Some(Action::Join(credentials, Some((name, site)))) => {
                format!("join {} via {name} {}", cred(credentials), site.0)
            }
            Some(Action::Resend(credentials, attempt)) => {
                format!("resend {} {attempt}", cred(credentials))
            }
        }
    }

    const INTENTS: [&str; 5] = [
        "absent",
        "joining 2 0ms c",
        "restarting g c",
        "member c",
        "leaving",
    ];

    const INPUTS: [&str; 13] = [
        "join",
        "refused",
        "restart",
        "view holding it",
        "view without it",
        "exile",
        "lead 6",
        "follow 0",
        "operational 0",
        "leave",
        "death",
        "tick early",
        "tick due",
    ];

    /// Every reachable (intent, input) pair once: the intent after it and the action asked
    /// for.
    const TABLE: &[(&str, &str, &str, &str)] = &[
        ("absent", "join", "joining 0 50ms d", "-"),
        ("absent", "refused", "absent", "-"),
        ("absent", "restart", "restarting h e", "-"),
        // A founder's first view.
        ("absent", "view holding it", "member -", "-"),
        ("absent", "leave", "absent", "-"),
        ("joining 2 0ms c", "join", "joining 0 50ms d", "-"),
        // A refused repeat join: the pending one stands.
        ("joining 2 0ms c", "refused", "joining 2 0ms c", "-"),
        ("joining 2 0ms c", "restart", "restarting h e", "-"),
        ("joining 2 0ms c", "view holding it", "member c", "-"),
        ("joining 2 0ms c", "view without it", "joining 0 0ms c", "-"),
        ("joining 2 0ms c", "exile", "joining 2 0ms c", "join c"),
        ("joining 2 0ms c", "lead 6", "joining 2 0ms c", "-"),
        ("joining 2 0ms c", "follow 0", "joining 2 0ms c", "-"),
        ("joining 2 0ms c", "operational 0", "joining 2 0ms c", "-"),
        ("joining 2 0ms c", "leave", "absent", "-"),
        ("joining 2 0ms c", "death", "absent", "-"),
        ("joining 2 0ms c", "tick early", "joining 2 0ms c", "-"),
        (
            "joining 2 0ms c",
            "tick due",
            "joining 3 1000ms c",
            "resend c 3",
        ),
        ("restarting g c", "join", "joining 0 50ms d", "-"),
        ("restarting g c", "refused", "absent", "-"),
        ("restarting g c", "restart", "restarting h e", "-"),
        ("restarting g c", "view holding it", "member c", "-"),
        ("restarting g c", "view without it", "restarting g c", "-"),
        ("restarting g c", "exile", "restarting g c", "-"),
        ("restarting g c", "lead 6", "restarting g c", "refound g 6"),
        (
            "restarting g c",
            "follow 0",
            "restarting g c",
            "join c via g 0",
        ),
        (
            "restarting g c",
            "operational 0",
            "restarting g c",
            "join c via g 0",
        ),
        ("restarting g c", "leave", "absent", "-"),
        ("restarting g c", "death", "absent", "-"),
        ("restarting g c", "tick early", "restarting g c", "-"),
        ("restarting g c", "tick due", "restarting g c", "-"),
        // An exile's rejoin.
        ("member c", "join", "joining 0 50ms d", "-"),
        ("member c", "refused", "absent", "-"),
        ("member c", "restart", "restarting h e", "-"),
        ("member c", "view holding it", "member c", "-"),
        ("member c", "view without it", "absent", "-"),
        ("member c", "exile", "member c", "join c"),
        ("member c", "lead 6", "member c", "-"),
        ("member c", "follow 0", "member c", "-"),
        ("member c", "operational 0", "member c", "-"),
        ("member c", "leave", "leaving", "-"),
        ("member c", "death", "absent", "-"),
        ("leaving", "restart", "restarting h e", "-"),
        ("leaving", "view holding it", "leaving", "-"),
        ("leaving", "view without it", "absent", "-"),
        ("leaving", "exile", "absent", "-"),
        ("leaving", "lead 6", "leaving", "-"),
        ("leaving", "follow 0", "leaving", "-"),
        ("leaving", "operational 0", "leaving", "-"),
        ("leaving", "leave", "leaving", "-"),
        ("leaving", "death", "absent", "-"),
    ];

    /// The pairs the stack never feeds, and why.
    const UNREACHABLE: &[(&str, &str, &str)] = &[
        ("absent", "view without it", "a view without the process goes to its group's intents"),
        ("absent", "exile", "an exile goes to its group's intents"),
        ("absent", "lead 6", "a verdict goes to its group's intents"),
        ("absent", "follow 0", "a verdict goes to its group's intents"),
        ("absent", "operational 0", "a verdict goes to its group's intents"),
        ("absent", "death", "a death goes to the process's intents"),
        ("absent", "tick early", "a tick goes to joining and restarting intents only"),
        ("absent", "tick due", "a tick goes to joining and restarting intents only"),
        ("member c", "tick early", "a tick goes to joining and restarting intents only"),
        ("member c", "tick due", "a tick goes to joining and restarting intents only"),
        ("leaving", "tick early", "a tick goes to joining and restarting intents only"),
        ("leaving", "tick due", "a tick goes to joining and restarting intents only"),
        ("leaving", "join", "the view here holds a leaving process, and a join of a process the view holds submits nothing"),
        ("leaving", "refused", "the same: a join of a leaving process is never submitted"),
    ];

    #[test]
    fn every_intent_answers_every_input() {
        let mut pairs: BTreeSet<(&str, &str)> =
            TABLE.iter().map(|(i, by, _, _)| (*i, *by)).collect();
        assert_eq!(pairs.len(), TABLE.len(), "one row per pair");
        for (i, by, why) in UNREACHABLE {
            assert!(
                pairs.insert((*i, *by)),
                "{i} + {by} is both reachable and not: {why}"
            );
        }
        let all: BTreeSet<(&str, &str)> = INTENTS
            .iter()
            .flat_map(|i| INPUTS.iter().map(move |by| (*i, *by)))
            .collect();
        assert_eq!(
            pairs, all,
            "every (intent, input) pair is a row or unreachable"
        );
        for (from, by, to, act) in TABLE {
            let (next_intent, next_action) = next(intent(from), input(by));
            assert_eq!(
                (label(&next_intent).as_str(), action(&next_action).as_str()),
                (*to, *act),
                "{from} + {by}"
            );
        }
    }
}
