//! Replicated semaphores (paper Section 3.5).
//!
//! "ISIS provides replicated semaphores, using a fair (FIFO) request queueing method.  If
//! desired, a semaphore will automatically be released when the holder fails."
//!
//! P and V operations travel by ABCAST, so every member applies them in the same total order
//! and the replicated queue state never diverges.  The automatic release on failure is driven
//! by the group view: when a holder appears in `departed`, every member releases its
//! semaphores in the same (virtually synchronous) step.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use vsync_core::{EntryId, GroupId, Message, ProcessBuilder, ProcessId, ProtocolKind, ToolCtx};

/// Callback invoked at the requester when its P operation is granted.
pub type AcquiredFn = Box<dyn FnMut(&mut ToolCtx<'_>)>;

#[derive(Default)]
struct SemState {
    count: i64,
    holders: Vec<ProcessId>,
    queue: VecDeque<ProcessId>,
}

struct Inner {
    group: GroupId,
    entry: EntryId,
    me: Option<ProcessId>,
    sems: BTreeMap<String, SemState>,
    waiting_callbacks: BTreeMap<String, VecDeque<AcquiredFn>>,
    auto_releases: u64,
}

/// The replicated semaphore tool attached to one group member.
#[derive(Clone)]
pub struct SemaphoreTool {
    inner: Rc<RefCell<Inner>>,
}

impl SemaphoreTool {
    /// Creates the tool for `group`, with semaphore operations delivered on `entry`.
    pub fn new(group: GroupId, entry: EntryId) -> Self {
        SemaphoreTool {
            inner: Rc::new(RefCell::new(Inner {
                group,
                entry,
                me: None,
                sems: BTreeMap::new(),
                waiting_callbacks: BTreeMap::new(),
                auto_releases: 0,
            })),
        }
    }

    /// Defines a semaphore with an initial count.  Every member must define the same
    /// semaphores with the same counts (typically at start-up, before any P/V traffic).
    pub fn define(&self, name: &str, initial: i64) {
        self.inner
            .borrow_mut()
            .sems
            .entry(name.to_owned())
            .or_insert(SemState {
                count: initial,
                holders: Vec::new(),
                queue: VecDeque::new(),
            });
    }

    /// Binds the operation-application handler and the failure monitor.
    pub fn attach(&self, builder: &mut ProcessBuilder) {
        self.inner.borrow_mut().me = Some(builder.id());
        let group = self.inner.borrow().group;
        let entry = self.inner.borrow().entry;

        let inner = self.inner.clone();
        builder.on_entry(entry, move |ctx, msg| {
            let granted_to_me = {
                let mut state = inner.borrow_mut();
                state.apply(msg)
            };
            if granted_to_me {
                Inner::fire_callback(&inner, ctx, msg.get_str("sem-name").unwrap_or(""));
            }
        });

        let inner = self.inner.clone();
        builder.on_view_change(group, move |ctx, ev| {
            if ev.view.departed.is_empty() {
                return;
            }
            let granted: Vec<String> = {
                let mut state = inner.borrow_mut();
                state.release_failed(&ev.view.departed)
            };
            for name in granted {
                Inner::fire_callback(&inner, ctx, &name);
            }
        });
    }

    /// `P(name)`: requests the semaphore; `on_acquired` runs (at this member only) when the
    /// request reaches the head of the FIFO queue and a unit is available.
    pub fn p(
        &self,
        ctx: &mut ToolCtx<'_>,
        name: &str,
        on_acquired: impl FnMut(&mut ToolCtx<'_>) + 'static,
    ) {
        let (group, entry) = {
            let mut state = self.inner.borrow_mut();
            state
                .waiting_callbacks
                .entry(name.to_owned())
                .or_default()
                .push_back(Box::new(on_acquired));
            (state.group, state.entry)
        };
        let msg = Message::new()
            .with("sem-name", name)
            .with("sem-op", "P")
            .with("sem-proc", ctx.me());
        ctx.send(group, entry, msg, ProtocolKind::Abcast);
    }

    /// `V(name)`: releases the semaphore.
    pub fn v(&self, ctx: &mut ToolCtx<'_>, name: &str) {
        let (group, entry) = {
            let state = self.inner.borrow();
            (state.group, state.entry)
        };
        let msg = Message::new()
            .with("sem-name", name)
            .with("sem-op", "V")
            .with("sem-proc", ctx.me());
        ctx.send(group, entry, msg, ProtocolKind::Abcast);
    }

    /// Current holders of the semaphore (identical at every member).
    pub fn holders(&self, name: &str) -> Vec<ProcessId> {
        self.inner
            .borrow()
            .sems
            .get(name)
            .map(|s| s.holders.clone())
            .unwrap_or_default()
    }

    /// Length of the FIFO wait queue.
    pub fn queue_len(&self, name: &str) -> usize {
        self.inner
            .borrow()
            .sems
            .get(name)
            .map(|s| s.queue.len())
            .unwrap_or(0)
    }

    /// Number of automatic releases performed because a holder failed.
    pub fn auto_releases(&self) -> u64 {
        self.inner.borrow().auto_releases
    }
}

impl Inner {
    /// Applies one P/V operation.  Returns true when the operation results in a grant to the
    /// local member (so its callback must fire).
    fn apply(&mut self, msg: &Message) -> bool {
        let Some(name) = msg.get_str("sem-name").map(str::to_owned) else {
            return false;
        };
        let Some(proc_) = msg.get_addr("sem-proc").and_then(|a| a.as_process()) else {
            return false;
        };
        let op = msg.get_str("sem-op").unwrap_or("");
        let me = self.me;
        let sem = self.sems.entry(name).or_default();
        match op {
            "P" => {
                if sem.count > 0 {
                    sem.count -= 1;
                    sem.holders.push(proc_);
                    Some(proc_) == me
                } else {
                    sem.queue.push_back(proc_);
                    false
                }
            }
            "V" => {
                if let Some(pos) = sem.holders.iter().position(|h| *h == proc_) {
                    sem.holders.remove(pos);
                    if let Some(next) = sem.queue.pop_front() {
                        sem.holders.push(next);
                        return Some(next) == me;
                    }
                    sem.count += 1;
                }
                false
            }
            _ => false,
        }
    }

    /// Releases semaphores held (or queued for) by failed members; returns the names of
    /// semaphores newly granted to the local member as a result.
    fn release_failed(&mut self, failed: &[ProcessId]) -> Vec<String> {
        let me = self.me;
        let mut granted_to_me = Vec::new();
        for (name, sem) in self.sems.iter_mut() {
            sem.queue.retain(|p| !failed.contains(p));
            let held_by_failed: Vec<ProcessId> = sem
                .holders
                .iter()
                .copied()
                .filter(|h| failed.contains(h))
                .collect();
            for h in held_by_failed {
                sem.holders.retain(|x| *x != h);
                self.auto_releases += 1;
                if let Some(next) = sem.queue.pop_front() {
                    sem.holders.push(next);
                    if Some(next) == me {
                        granted_to_me.push(name.clone());
                    }
                } else {
                    sem.count += 1;
                }
            }
        }
        granted_to_me
    }

    fn fire_callback(inner: &Rc<RefCell<Inner>>, ctx: &mut ToolCtx<'_>, name: &str) {
        let cb = inner
            .borrow_mut()
            .waiting_callbacks
            .get_mut(name)
            .and_then(|q| q.pop_front());
        if let Some(mut cb) = cb {
            cb(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn p(site: u16) -> ProcessId {
        ProcessId::new(SiteId(site), 1)
    }

    fn op(name: &str, op: &str, who: ProcessId) -> Message {
        Message::new()
            .with("sem-name", name)
            .with("sem-op", op)
            .with("sem-proc", who)
    }

    fn tool_for(me: ProcessId) -> SemaphoreTool {
        let t = SemaphoreTool::new(GroupId(1), EntryId(20));
        t.inner.borrow_mut().me = Some(me);
        t.define("mutex", 1);
        t
    }

    #[test]
    fn fifo_grant_order() {
        let t = tool_for(p(0));
        let grant0 = t.inner.borrow_mut().apply(&op("mutex", "P", p(0)));
        assert!(grant0, "first P is granted immediately to the local member");
        assert_eq!(t.holders("mutex"), vec![p(0)]);
        let grant1 = t.inner.borrow_mut().apply(&op("mutex", "P", p(1)));
        assert!(!grant1);
        assert_eq!(t.queue_len("mutex"), 1);
        // Release by the holder: the queued requester is granted, FIFO.
        let grant2 = t.inner.borrow_mut().apply(&op("mutex", "V", p(0)));
        assert!(!grant2, "the grant goes to p(1), not to the local member");
        assert_eq!(t.holders("mutex"), vec![p(1)]);
    }

    #[test]
    fn counting_semaphores_allow_multiple_holders() {
        let t = tool_for(p(0));
        t.define("pool", 2);
        assert!(t.inner.borrow_mut().apply(&op("pool", "P", p(0))));
        assert!(!t.inner.borrow_mut().apply(&op("pool", "P", p(1))));
        assert_eq!(t.holders("pool").len(), 2);
        assert!(!t.inner.borrow_mut().apply(&op("pool", "P", p(2))));
        assert_eq!(t.queue_len("pool"), 1);
    }

    #[test]
    fn failed_holder_is_released_automatically() {
        let t = tool_for(p(1));
        t.inner.borrow_mut().apply(&op("mutex", "P", p(0)));
        t.inner.borrow_mut().apply(&op("mutex", "P", p(1)));
        assert_eq!(t.holders("mutex"), vec![p(0)]);
        // The holder fails: the local member (queued next) is granted.
        let granted = t.inner.borrow_mut().release_failed(&[p(0)]);
        assert_eq!(granted, vec!["mutex".to_owned()]);
        assert_eq!(t.holders("mutex"), vec![p(1)]);
        assert_eq!(t.auto_releases(), 1);
    }

    #[test]
    fn failed_waiters_are_dropped_from_the_queue() {
        let t = tool_for(p(0));
        t.inner.borrow_mut().apply(&op("mutex", "P", p(0)));
        t.inner.borrow_mut().apply(&op("mutex", "P", p(1)));
        t.inner.borrow_mut().apply(&op("mutex", "P", p(2)));
        assert_eq!(t.queue_len("mutex"), 2);
        t.inner.borrow_mut().release_failed(&[p(1)]);
        assert_eq!(t.queue_len("mutex"), 1);
        // The remaining waiter is granted when the holder releases.
        t.inner.borrow_mut().apply(&op("mutex", "V", p(0)));
        assert_eq!(t.holders("mutex"), vec![p(2)]);
    }

    #[test]
    fn v_without_holding_is_a_no_op() {
        let t = tool_for(p(0));
        t.inner.borrow_mut().apply(&op("mutex", "V", p(5)));
        assert_eq!(t.holders("mutex"), Vec::<ProcessId>::new());
        // Count did not grow beyond its definition.
        assert!(t.inner.borrow_mut().apply(&op("mutex", "P", p(0))));
        assert!(!t.inner.borrow_mut().apply(&op("mutex", "P", p(1))));
    }
}
