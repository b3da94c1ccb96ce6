//! The site/process monitoring tool (paper Section 3.7).
//!
//! "ISIS provides a site-monitoring facility that can trigger actions when a site or process
//! fails or a site recovers.  Site and process failures are clean events in ISIS: once a
//! failure is signaled, all interested processes will observe it, and all see the same
//! sequence of failures and recoveries."
//!
//! The clean-event property comes from the group view mechanism: this tool simply translates
//! view changes into per-member join/departure callbacks, so application code never has to
//! diff membership lists by hand.

use std::cell::RefCell;
use std::rc::Rc;

use vsync_core::{GroupId, ProcessBuilder, ProcessId, ToolCtx};

/// A membership event derived from a view change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemberEvent {
    /// A process joined the group (or recovered and re-joined under a new incarnation).
    Joined(ProcessId),
    /// A process left or failed; all members observe this in the same view.
    Departed(ProcessId),
}

/// Callback invoked for every membership event.
pub type WatchFn = Box<dyn FnMut(&mut ToolCtx<'_>, &MemberEvent)>;

struct Inner {
    watchers: Vec<WatchFn>,
    events: Vec<MemberEvent>,
}

/// The monitoring tool attached to one group member.
#[derive(Clone)]
pub struct SiteMonitor {
    group: GroupId,
    inner: Rc<RefCell<Inner>>,
}

impl SiteMonitor {
    /// Creates a monitor for `group`.
    pub fn new(group: GroupId) -> Self {
        SiteMonitor {
            group,
            inner: Rc::new(RefCell::new(Inner {
                watchers: Vec::new(),
                events: Vec::new(),
            })),
        }
    }

    /// Registers a callback for membership events.
    pub fn watch(&self, f: impl FnMut(&mut ToolCtx<'_>, &MemberEvent) + 'static) {
        self.inner.borrow_mut().watchers.push(Box::new(f));
    }

    /// Binds the view monitor.
    pub fn attach(&self, builder: &mut ProcessBuilder) {
        let inner = self.inner.clone();
        builder.on_view_change(self.group, move |ctx, ev| {
            let mut events = Vec::new();
            for j in &ev.view.joined {
                events.push(MemberEvent::Joined(*j));
            }
            for d in &ev.view.departed {
                events.push(MemberEvent::Departed(*d));
            }
            inner.borrow_mut().events.extend(events.iter().cloned());
            // Invoke watchers with the borrow released so they can use the tool themselves.
            let mut watchers = std::mem::take(&mut inner.borrow_mut().watchers);
            for e in &events {
                for w in watchers.iter_mut() {
                    w(ctx, e);
                }
            }
            inner.borrow_mut().watchers.extend(watchers);
        });
    }

    /// Number of departures (failures and voluntary leaves) observed.
    pub fn departures(&self) -> usize {
        self.inner
            .borrow()
            .events
            .iter()
            .filter(|e| matches!(e, MemberEvent::Departed(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    #[test]
    fn starts_empty() {
        let m = SiteMonitor::new(GroupId(1));
        assert!(m.inner.borrow().events.is_empty());
        assert_eq!(m.departures(), 0);
    }

    #[test]
    fn event_classification() {
        let m = SiteMonitor::new(GroupId(1));
        m.inner
            .borrow_mut()
            .events
            .push(MemberEvent::Joined(ProcessId::new(SiteId(0), 1)));
        m.inner
            .borrow_mut()
            .events
            .push(MemberEvent::Departed(ProcessId::new(SiteId(1), 1)));
        assert_eq!(m.inner.borrow().events.len(), 2);
        assert_eq!(m.departures(), 1);
    }
}
