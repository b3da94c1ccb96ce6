//! Group RPC reply collection.
//!
//! "The caller indicates how many responses are desired; this will normally be 0, 1, or ALL,
//! although any limit could be specified. ...  While collecting responses, the system waits
//! until it has the number desired, or until all the remaining destinations have failed.
//! ...  Superfluous and duplicate replies are discarded silently.  It is also possible for a
//! destination to send a null reply, indicating that it does not intend to send a normal
//! reply" (paper Section 3.2).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

use vsync_msg::Message;
use vsync_util::{ProcessId, SimTime, VsError};

use crate::process::ReplyCallback;

/// How many replies the caller wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyWanted {
    /// Asynchronous multicast: the caller continues immediately and no replies are collected.
    None,
    /// Wait for a single reply.
    One,
    /// Wait for a specific number of replies.
    Count(usize),
    /// Wait for a reply from every destination that does not send a null reply.
    All,
}

impl ReplyWanted {
    /// The numeric target given the number of destinations awaited.
    fn target(&self, destinations: usize) -> usize {
        match self {
            ReplyWanted::None => 0,
            ReplyWanted::One => 1.min(destinations),
            ReplyWanted::Count(n) => (*n).min(destinations),
            ReplyWanted::All => destinations,
        }
    }
}

/// The result handed to the caller's continuation.
#[derive(Clone, Debug, PartialEq)]
pub struct RpcOutcome {
    /// The non-null replies collected, in arrival order.
    pub replies: Vec<Message>,
    /// The processes that sent each reply (parallel to `replies`).
    pub responders: Vec<ProcessId>,
    /// Set when the collection ended without reaching the target (all remaining destinations
    /// failed, or the deadline passed for an external caller).
    pub error: Option<VsError>,
}

/// State of one in-progress reply collection.
pub struct ReplyCollector {
    /// The process that issued the call (its continuation runs when collection completes).
    pub caller: ProcessId,
    /// Session id carried by the request and echoed by replies.
    pub session: u64,
    /// Destinations that have not yet replied (null replies and failures remove entries).
    awaiting: BTreeSet<ProcessId>,
    /// Number of real replies wanted.
    target: usize,
    replies: Vec<Message>,
    responders: Vec<ProcessId>,
    responded: BTreeSet<ProcessId>,
    /// Optional deadline (used for callers that are not members of the destination group and
    /// therefore do not observe its view changes).
    pub deadline: Option<SimTime>,
    /// True when the destination membership was unknown at call time (a caller at a site
    /// where no member lives): collection then completes on reaching the target or on the
    /// deadline, never on "awaiting set empty".
    open_ended: bool,
}

/// What to do after feeding an event to a collector.
#[derive(Debug, PartialEq)]
pub enum CollectorStatus {
    /// Keep waiting.
    Pending,
    /// Collection finished; invoke the continuation with this outcome.
    Done(RpcOutcome),
}

impl ReplyCollector {
    /// Creates a collector awaiting replies from `destinations`, optionally in open-ended
    /// mode (destination membership unknown).
    pub(crate) fn new(
        caller: ProcessId,
        session: u64,
        destinations: Vec<ProcessId>,
        wanted: ReplyWanted,
        deadline: Option<SimTime>,
        open_ended: bool,
    ) -> Self {
        let awaiting: BTreeSet<ProcessId> = destinations.into_iter().collect();
        // Open-ended, ALL has no bound and any other count is taken as asked.
        let target = wanted.target(if open_ended {
            usize::MAX
        } else {
            awaiting.len()
        });
        ReplyCollector {
            caller,
            session,
            awaiting,
            target,
            replies: Vec::new(),
            responders: Vec::new(),
            responded: BTreeSet::new(),
            deadline,
            open_ended,
        }
    }

    /// Ends the collection with the replies at hand and `error`.
    fn done(&mut self, error: Option<VsError>) -> CollectorStatus {
        CollectorStatus::Done(RpcOutcome {
            replies: std::mem::take(&mut self.replies),
            responders: std::mem::take(&mut self.responders),
            error,
        })
    }

    fn check(&mut self) -> CollectorStatus {
        if self.replies.len() >= self.target {
            return self.done(None);
        }
        if self.awaiting.is_empty() && !self.open_ended {
            // Everyone has either answered (possibly with a null reply) or failed.  If at
            // least one real reply arrived the collection simply completes short (the quorum
            // pattern of Section 3.3); if nothing arrived the caller gets an error code.
            let error = (self.replies.is_empty() && self.target > 0).then_some(
                VsError::AllDestinationsFailed {
                    wanted: self.target,
                    got: 0,
                },
            );
            return self.done(error);
        }
        CollectorStatus::Pending
    }

    /// Feeds a reply (normal or null) from `from`.
    pub(crate) fn on_reply(&mut self, from: ProcessId, msg: Message) -> CollectorStatus {
        if self.responded.contains(&from) {
            // Duplicate replies are discarded silently.
            return self.check();
        }
        self.responded.insert(from);
        self.awaiting.remove(&from);
        if !msg.is_null_reply() {
            self.replies.push(msg);
            self.responders.push(from);
        }
        self.check()
    }

    /// Notes that the destinations `failed` picks out (one process, or every process at a
    /// crashed site) failed before replying.
    pub(crate) fn on_failure(&mut self, failed: impl Fn(&ProcessId) -> bool) -> CollectorStatus {
        self.awaiting.retain(|p| !failed(p));
        self.check()
    }

    /// Checks the deadline.
    pub(crate) fn on_tick(&mut self, now: SimTime) -> CollectorStatus {
        if self.deadline.is_some_and(|d| now >= d) {
            // Reaching the deadline with some replies in hand (an open-ended ALL call, for
            // instance) is a normal completion; with none it is a timeout error.
            let error = (self.replies.is_empty() && self.target > 0).then(|| {
                VsError::Timeout(format!(
                    "group RPC session {} (0 of {} replies)",
                    self.session, self.target
                ))
            });
            return self.done(error);
        }
        self.check()
    }
}

/// A site's group-RPC sessions: the numbering every call draws from, and each open
/// collection with the continuation waiting on it.
#[derive(Default)]
pub(crate) struct RpcSessions {
    last: u64,
    open: BTreeMap<u64, (ReplyCollector, Option<ReplyCallback>)>,
}

impl RpcSessions {
    /// Numbers a new call.
    pub(crate) fn next_session(&mut self) -> u64 {
        self.last += 1;
        self.last
    }

    /// The most recent session number handed out.
    pub(crate) fn last(&self) -> u64 {
        self.last
    }

    /// Opens the collection for `collector.session`.
    pub(crate) fn open(&mut self, collector: ReplyCollector, callback: Option<ReplyCallback>) {
        self.open.insert(collector.session, (collector, callback));
    }

    /// A crashed caller's collections end without running.
    pub(crate) fn drop_caller(&mut self, caller: ProcessId) {
        self.open.retain(|_, (c, _)| c.caller != caller);
    }

    /// Feeds `event` to each open session in `sessions`, in session order, and returns the
    /// first that finishes with a continuation: its collector, continuation and outcome.
    /// Every collection that finishes is closed; one without a continuation is passed over.
    pub(crate) fn next_finished(
        &mut self,
        sessions: RangeInclusive<u64>,
        mut event: impl FnMut(&mut ReplyCollector) -> CollectorStatus,
    ) -> Option<(ReplyCollector, ReplyCallback, RpcOutcome)> {
        let (mut from, to) = sessions.into_inner();
        while from <= to {
            let (session, outcome) =
                self.open
                    .range_mut(from..=to)
                    .find_map(|(s, (c, _))| match event(c) {
                        CollectorStatus::Done(outcome) => Some((*s, outcome)),
                        CollectorStatus::Pending => None,
                    })?;
            let (collector, callback) = self.open.remove(&session).expect("session is open");
            if let Some(callback) = callback {
                return Some((collector, callback, outcome));
            }
            from = session + 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn p(site: u16, local: u32) -> ProcessId {
        ProcessId::new(SiteId(site), local)
    }

    fn reply(body: u64) -> Message {
        let mut m = Message::with_body(body);
        m.mark_reply(false);
        m
    }

    fn null_reply() -> Message {
        let mut m = Message::new();
        m.mark_reply(true);
        m
    }

    #[test]
    fn reply_wanted_targets() {
        assert_eq!(ReplyWanted::None.target(5), 0);
        assert_eq!(ReplyWanted::One.target(5), 1);
        assert_eq!(ReplyWanted::One.target(0), 0);
        assert_eq!(ReplyWanted::Count(3).target(5), 3);
        assert_eq!(ReplyWanted::Count(9).target(5), 5);
        assert_eq!(ReplyWanted::All.target(5), 5);
    }

    #[test]
    fn collects_until_target() {
        let dests = vec![p(0, 1), p(1, 1), p(2, 1)];
        let mut c = ReplyCollector::new(p(3, 1), 1, dests, ReplyWanted::Count(2), None, false);
        assert_eq!(c.on_reply(p(0, 1), reply(10)), CollectorStatus::Pending);
        match c.on_reply(p(1, 1), reply(20)) {
            CollectorStatus::Done(outcome) => {
                assert!(outcome.error.is_none());
                assert_eq!(outcome.replies.len(), 2);
                assert_eq!(outcome.responders, vec![p(0, 1), p(1, 1)]);
            }
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_replies_are_discarded() {
        let mut c = ReplyCollector::new(
            p(3, 1),
            1,
            vec![p(0, 1), p(1, 1)],
            ReplyWanted::All,
            None,
            false,
        );
        assert_eq!(c.on_reply(p(0, 1), reply(1)), CollectorStatus::Pending);
        assert_eq!(c.on_reply(p(0, 1), reply(1)), CollectorStatus::Pending);
        match c.on_reply(p(1, 1), reply(2)) {
            CollectorStatus::Done(o) => assert_eq!(o.replies.len(), 2),
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn null_replies_release_the_caller_from_waiting_for_standbys() {
        // Caller wants ALL, but one destination is a standby that sends a null reply.
        let mut c = ReplyCollector::new(
            p(3, 1),
            1,
            vec![p(0, 1), p(1, 1)],
            ReplyWanted::All,
            None,
            false,
        );
        assert_eq!(c.on_reply(p(1, 1), null_reply()), CollectorStatus::Pending);
        // Hmm: wanting ALL of 2 destinations but one was null; the real reply completes it
        // because the null reply removed that destination from the awaited set and the target
        // can never exceed what remains achievable.
        match c.on_reply(p(0, 1), reply(5)) {
            CollectorStatus::Done(o) => {
                assert_eq!(o.replies.len(), 1);
                assert!(o.error.is_some() || o.replies.len() == 1);
            }
            CollectorStatus::Pending => panic!("collector must finish once every dest answered"),
        }
    }

    #[test]
    fn all_destinations_failing_is_an_error() {
        let mut c = ReplyCollector::new(
            p(3, 1),
            7,
            vec![p(0, 1), p(1, 1)],
            ReplyWanted::One,
            None,
            false,
        );
        assert_eq!(c.on_failure(|d| *d == p(0, 1)), CollectorStatus::Pending);
        match c.on_failure(|d| *d == p(1, 1)) {
            CollectorStatus::Done(o) => {
                assert!(matches!(
                    o.error,
                    Some(VsError::AllDestinationsFailed { .. })
                ));
            }
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn site_failure_removes_every_process_at_that_site() {
        let mut c = ReplyCollector::new(
            p(9, 1),
            7,
            vec![p(0, 1), p(0, 2), p(1, 1)],
            ReplyWanted::One,
            None,
            false,
        );
        assert_eq!(
            c.on_failure(|d| d.site == SiteId(0)),
            CollectorStatus::Pending
        );
        assert_eq!(c.awaiting, BTreeSet::from([p(1, 1)]));
    }

    #[test]
    fn deadline_produces_timeout() {
        let mut c = ReplyCollector::new(
            p(9, 1),
            7,
            vec![p(0, 1)],
            ReplyWanted::One,
            Some(SimTime(1_000)),
            false,
        );
        assert_eq!(c.on_tick(SimTime(999)), CollectorStatus::Pending);
        match c.on_tick(SimTime(1_000)) {
            CollectorStatus::Done(o) => assert!(matches!(o.error, Some(VsError::Timeout(_)))),
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn zero_replies_wanted_completes_immediately() {
        let mut c = ReplyCollector::new(p(9, 1), 7, vec![p(0, 1)], ReplyWanted::None, None, false);
        match c.on_tick(SimTime(0)) {
            CollectorStatus::Done(o) => assert!(o.error.is_none()),
            other => panic!("expected done, got {other:?}"),
        }
    }
}
