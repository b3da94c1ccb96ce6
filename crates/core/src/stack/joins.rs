//! Joins submitted at this site whose view has not installed yet: when each is re-sent,
//! and which contact it fails over to once its backoff is spent.  Re-sending is always
//! safe: membership changes are idempotent end to end (the coordinator drops a join of a
//! current member and dedups queued joiners).  A local member's join credentials are kept
//! until it leaves or dies, so an exile's rejoin passes the check its first join did.

use std::collections::BTreeMap;

use vsync_proto::View;
use vsync_util::{DetRng, Duration, GroupId, ProcessId, SimTime, SiteId};

/// One join awaiting its view.
struct PendingJoin {
    group: GroupId,
    joiner: ProcessId,
    last_sent: SimTime,
    /// Resubmissions since the last view install for the group.  Drives the exponential
    /// backoff: a join that keeps failing is probably waiting out a partition or a dead
    /// coordinator, and hammering it at a fixed cadence only adds load right when the
    /// group is least able to absorb it.
    attempts: u32,
}

/// The joins submitted at this site that are waiting for their view.
#[derive(Default)]
pub(super) struct Joins {
    pending: Vec<PendingJoin>,
    /// The credentials each local member joined its group with, until it leaves or dies.
    credentials: BTreeMap<(GroupId, ProcessId), String>,
}

impl Joins {
    /// A JoinReq for `joiner` just went out: track it until a view containing the joiner
    /// installs, restarting the backoff if the join was already pending, and keep its
    /// credentials for as long as the joiner is a member.
    pub(super) fn track(
        &mut self,
        group: GroupId,
        joiner: ProcessId,
        credentials: Option<&str>,
        now: SimTime,
    ) {
        match credentials {
            Some(c) => self.credentials.insert((group, joiner), c.to_owned()),
            None => self.credentials.remove(&(group, joiner)),
        };
        match self
            .pending
            .iter_mut()
            .find(|p| p.group == group && p.joiner == joiner)
        {
            Some(p) => {
                p.last_sent = now;
                p.attempts = 0;
            }
            None => self.pending.push(PendingJoin {
                group,
                joiner,
                last_sent: now,
                attempts: 0,
            }),
        }
    }

    /// An explicit leave cancels any still-pending join of the same member.
    pub(super) fn cancel(&mut self, group: GroupId, member: ProcessId) {
        self.pending
            .retain(|p| !(p.group == group && p.joiner == member));
        self.credentials.remove(&(group, member));
    }

    /// A dead joiner's pending joins must not be re-submitted on its behalf.
    pub(super) fn forget_process(&mut self, pid: ProcessId) {
        self.pending.retain(|p| p.joiner != pid);
        self.credentials.retain(|(_, member), _| *member != pid);
    }

    /// True while a join to `group` submitted here waits for its view.
    pub(super) fn pending_in(&self, group: GroupId) -> bool {
        self.pending.iter().any(|p| p.group == group)
    }

    /// The credentials `member` joined `group` with, if any.
    pub(super) fn credentials(&self, group: GroupId, member: ProcessId) -> Option<String> {
        self.credentials.get(&(group, member)).cloned()
    }

    /// A view of `group` installed here.  The joins it contains are satisfied the moment it
    /// installs: waiting for the maintenance tick would let a join-then-leave inside one
    /// tick interval re-join a member that left on purpose.  A new view also means the
    /// membership machinery is live again (whatever stalled the join — a dead coordinator,
    /// a mid-flush crash — has been reconfigured around), so the group's other joins
    /// restart their backoff from the base cadence.
    pub(super) fn view_installed(&mut self, group: GroupId, view: &View) {
        self.pending
            .retain(|p| !(p.group == group && view.contains(p.joiner)));
        for p in self.pending.iter_mut().filter(|p| p.group == group) {
            p.attempts = 0;
        }
    }

    /// Returns the re-sends due at `now` as (group, joiner, credentials, attempt), the
    /// attempt counting from 1.  The base cadence (`base`, one failure timeout) gives the
    /// previous attempt time to land, and by then the detector has usually condemned a dead
    /// contact so the retry routes around it.
    pub(super) fn due(
        &mut self,
        now: SimTime,
        base: Duration,
    ) -> Vec<(GroupId, ProcessId, Option<String>, u32)> {
        let mut due = Vec::new();
        for p in &mut self.pending {
            if now.saturating_since(p.last_sent) < retry_delay(p.joiner, p.attempts, base) {
                continue;
            }
            p.last_sent = now;
            p.attempts = p.attempts.saturating_add(1);
            let credentials = self.credentials.get(&(p.group, p.joiner)).cloned();
            due.push((p.group, p.joiner, credentials, p.attempts));
        }
        due
    }
}

/// How long after its last send a join is re-sent: `base` doubled per failed attempt
/// (capped at 8x) plus a deterministic jitter of up to a quarter of that, seeded from the
/// joiner identity and the attempt number so concurrent joiners desynchronise identically
/// on every run.
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
