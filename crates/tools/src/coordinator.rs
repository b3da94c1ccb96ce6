//! The coordinator–cohort tool (paper Sections 3.3 and 6).
//!
//! "The preferred replicated processing method in ISIS is the coordinator-cohort scheme,
//! whereby the action associated with a request is performed by one group member while others
//! monitor its progress, taking over one by one as failures occur.  ...  Because all the
//! participants use the same plist and see the same group membership, all will agree on the
//! same value for the coordinator, without any additional communication among the group
//! members."
//!
//! The tool is invoked from the application's own request handler at *every* participant.
//! The participant that the deterministic rule selects performs the action and replies to the
//! caller, multicasting a copy of the reply to the cohorts; a cohort that later observes the
//! coordinator fail (through the group view) re-runs the selection and takes over.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vsync_core::{
    Address, EntryId, GroupId, Message, ProcessBuilder, ProcessId, ProtocolKind, ToolCtx, View,
};

/// Computes the reply for a request (the `action` routine of the paper).
pub type ActionFn = Box<dyn FnMut(&mut ToolCtx<'_>, &Message) -> Message>;

/// Invoked at a cohort when the coordinator's reply copy arrives (the `got_reply` routine).
pub type GotReplyFn = Box<dyn FnMut(&mut ToolCtx<'_>, &Message)>;

struct PendingComputation {
    request: Message,
    plist: Vec<ProcessId>,
    action: ActionFn,
    got_reply: GotReplyFn,
}

struct Inner {
    group: GroupId,
    pending: BTreeMap<u64, PendingComputation>,
}

/// The coordinator–cohort tool attached to one group member.
#[derive(Clone)]
pub struct CoordCohort {
    inner: Rc<RefCell<Inner>>,
}

/// Deterministically selects the coordinator for a request, following Section 6: prefer a
/// participant at the caller's site (to minimise latency); otherwise use the caller's site id
/// as a "random" starting index into the participant list and scan circularly.
fn pick_coordinator(
    view: &View,
    plist: &[ProcessId],
    caller: Option<ProcessId>,
) -> Option<ProcessId> {
    let alive: Vec<ProcessId> = plist
        .iter()
        .copied()
        .filter(|p| view.contains(*p))
        .collect();
    if alive.is_empty() {
        return None;
    }
    if let Some(c) = caller {
        if let Some(local) = alive.iter().find(|p| p.site == c.site) {
            return Some(*local);
        }
        let start = c.site.index() % alive.len();
        return Some(alive[start]);
    }
    alive.first().copied()
}

impl CoordCohort {
    /// Creates the tool for a group.
    pub fn new(group: GroupId) -> Self {
        CoordCohort {
            inner: Rc::new(RefCell::new(Inner {
                group,
                pending: BTreeMap::new(),
            })),
        }
    }

    /// Binds the generic reply entry and the group monitor used for fail-over.
    pub fn attach(&self, builder: &mut ProcessBuilder) {
        let group = self.inner.borrow().group;
        // GENERIC_CC_REPLY: the coordinator finished; stop monitoring and hand the result to
        // the application's got_reply routine.
        let inner = self.inner.clone();
        builder.on_entry(EntryId::GENERIC_CC_REPLY, move |ctx, msg| {
            let Some(session) = msg.get_u64("cc-session") else {
                return;
            };
            let pending = inner.borrow_mut().pending.remove(&session);
            if let Some(mut p) = pending {
                (p.got_reply)(ctx, msg);
            }
        });
        // View monitor: if the coordinator of a pending computation failed, the surviving
        // participants re-run the deterministic selection; whoever is now selected takes over.
        let inner = self.inner.clone();
        builder.on_view_change(group, move |ctx, ev| {
            if ev.view.departed.is_empty() {
                return;
            }
            let me = ctx.me();
            let sessions: Vec<u64> = inner.borrow().pending.keys().copied().collect();
            for session in sessions {
                let takeover = {
                    let state = inner.borrow();
                    let Some(p) = state.pending.get(&session) else {
                        continue;
                    };
                    let caller = p.request.sender();
                    pick_coordinator(&ev.view, &p.plist, caller) == Some(me)
                };
                if takeover {
                    let removed = inner.borrow_mut().pending.remove(&session);
                    if let Some(mut p) = removed {
                        let result = (p.action)(ctx, &p.request);
                        reply_and_copy(ctx, &p.request, &p.plist, me, result, session);
                    }
                }
            }
        });
    }

    /// Invoked from the application's request handler at every participant (the paper's
    /// `coord-cohort(msg, gid, plist, action, got_reply)` routine).
    pub fn handle(
        &self,
        ctx: &mut ToolCtx<'_>,
        request: &Message,
        plist: Vec<ProcessId>,
        mut action: impl FnMut(&mut ToolCtx<'_>, &Message) -> Message + 'static,
        got_reply: impl FnMut(&mut ToolCtx<'_>, &Message) + 'static,
    ) {
        let group = self.inner.borrow().group;
        let me = ctx.me();
        let Some(view) = ctx.view_of(group).cloned() else {
            return;
        };
        let Some(session) = request.session() else {
            return;
        };
        if !plist.contains(&me) {
            // Non-participants issue null replies so the caller never waits on them.
            ctx.null_reply(request);
            return;
        }
        let coordinator = pick_coordinator(&view, &plist, request.sender());
        if coordinator == Some(me) {
            let result = action(ctx, request);
            reply_and_copy(ctx, request, &plist, me, result, session);
        } else {
            // Cohort: remember everything needed to take over, then wait.
            self.inner.borrow_mut().pending.insert(
                session,
                PendingComputation {
                    request: request.clone(),
                    plist,
                    action: Box::new(action),
                    got_reply: Box::new(got_reply),
                },
            );
        }
    }
}

fn reply_and_copy(
    ctx: &mut ToolCtx<'_>,
    request: &Message,
    plist: &[ProcessId],
    me: ProcessId,
    mut result: Message,
    session: u64,
) {
    ctx.reply(request, result.clone());
    // A copy of the reply goes to every cohort so they stop monitoring (paper Section 6: the
    // reply is multicast "not just to the caller, but also to the generic entry point
    // GENERIC_CC_REPLY in each of the cohorts").
    result.set("cc-session", session);
    for cohort in plist {
        if *cohort != me {
            ctx.send(
                Address::Process(*cohort),
                EntryId::GENERIC_CC_REPLY,
                result.clone(),
                ProtocolKind::Cbcast,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn member(site: u16) -> ProcessId {
        ProcessId::new(SiteId(site), 1)
    }

    fn three_member_view() -> View {
        View::founding(GroupId(1), member(0))
            .successor(&[], &[member(1)])
            .successor(&[], &[member(2)])
    }

    #[test]
    fn coordinator_prefers_the_callers_site() {
        let v = three_member_view();
        let plist = v.members.clone();
        let caller = ProcessId::new(SiteId(1), 7);
        assert_eq!(pick_coordinator(&v, &plist, Some(caller)), Some(member(1)));
    }

    #[test]
    fn coordinator_falls_back_to_a_circular_scan() {
        let v = three_member_view();
        let plist = v.members.clone();
        // Caller at a site hosting no participant: site id indexes the list.
        let caller = ProcessId::new(SiteId(4), 7);
        assert_eq!(pick_coordinator(&v, &plist, Some(caller)), Some(member(1)));
        let caller = ProcessId::new(SiteId(3), 7);
        assert_eq!(pick_coordinator(&v, &plist, Some(caller)), Some(member(0)));
    }

    #[test]
    fn failed_participants_are_skipped() {
        let v = three_member_view().successor(&[member(0)], &[]);
        let plist = vec![member(0), member(1), member(2)];
        let caller = ProcessId::new(SiteId(0), 7);
        // The participant at the caller's site is gone; selection must pick a survivor.
        let picked = pick_coordinator(&v, &plist, Some(caller)).unwrap();
        assert_ne!(picked, member(0));
        assert!(v.contains(picked));
    }

    #[test]
    fn empty_or_dead_plist_yields_none() {
        let v = three_member_view();
        assert_eq!(pick_coordinator(&v, &[], Some(member(0))), None);
        let all_dead = vec![ProcessId::new(SiteId(9), 1)];
        assert_eq!(pick_coordinator(&v, &all_dead, Some(member(0))), None);
    }

    #[test]
    fn every_participant_agrees_on_the_coordinator() {
        // The whole point of the scheme: selection is a pure function of (view, plist, caller),
        // so participants never need to communicate to agree.
        let v = three_member_view();
        let plist = v.members.clone();
        for caller_site in 0..6u16 {
            let caller = ProcessId::new(SiteId(caller_site), 42);
            let picks: Vec<_> = (0..3)
                .map(|_| pick_coordinator(&v, &plist, Some(caller)))
                .collect();
            assert!(picks.windows(2).all(|w| w[0] == w[1]));
        }
    }
}
