//! The configuration tool (paper Section 3.3).
//!
//! "This tool allows a process group to maintain a configuration data structure, much like
//! the one that lists membership for a process group.  The data structure is stored directly
//! in the process group members, hence there is minimal overhead associated with accessing
//! it.  As with a group membership change, it will appear that configuration changes occur
//! when no multicasts to the group are pending, hence all recipients of a message will see
//! the same group configuration when a message arrives."
//!
//! That "appears to occur when nothing is pending" property is exactly what GBCAST provides,
//! so configuration updates travel by GBCAST and are applied at the virtual-synchrony cut.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vsync_core::{EntryId, GroupId, Message, ProcessBuilder, ProtocolKind, ToolCtx, Value};

struct Inner {
    group: GroupId,
    entry: EntryId,
    values: BTreeMap<String, Value>,
    version: u64,
}

/// A replicated configuration structure updated through GBCAST.
#[derive(Clone)]
pub struct ConfigTool {
    inner: Rc<RefCell<Inner>>,
}

impl ConfigTool {
    /// Creates a configuration tool for `group`, receiving updates on `entry`.
    pub fn new(group: GroupId, entry: EntryId) -> Self {
        ConfigTool {
            inner: Rc::new(RefCell::new(Inner {
                group,
                entry,
                values: BTreeMap::new(),
                version: 0,
            })),
        }
    }

    /// Binds the update-application handler on a member process.
    pub fn attach(&self, builder: &mut ProcessBuilder) {
        let inner = self.inner.clone();
        let entry = self.inner.borrow().entry;
        builder.on_entry(entry, move |_ctx, msg| {
            let mut state = inner.borrow_mut();
            if let (Some(item), Some(value)) = (msg.get_str("cfg-item"), msg.get("cfg-value")) {
                state.values.insert(item.to_owned(), value.clone());
                state.version += 1;
            }
        });
    }

    /// `conf_update`: publishes a configuration change to the whole group (Table 1: 1 GBCAST).
    pub fn update(&self, ctx: &mut ToolCtx<'_>, item: &str, value: impl Into<Value>) {
        let (group, entry) = {
            let state = self.inner.borrow();
            (state.group, state.entry)
        };
        let msg = Message::new()
            .with("cfg-item", item)
            .with("cfg-value", value.into());
        ctx.send(group, entry, msg, ProtocolKind::Gbcast);
    }

    /// `conf_read`: local read, no communication (Table 1: "no cost").
    fn read(&self, item: &str) -> Option<Value> {
        self.inner.borrow().values.get(item).cloned()
    }

    /// Reads a configuration item as an unsigned integer.
    pub fn read_u64(&self, item: &str) -> Option<u64> {
        self.read(item).and_then(|v| v.as_u64())
    }

    /// Sets a value locally without communication (initial configuration at group creation,
    /// or application of transferred state).
    pub fn load_local(&self, item: &str, value: impl Into<Value>) {
        let mut state = self.inner.borrow_mut();
        state.values.insert(item.to_owned(), value.into());
    }

    /// Number of configuration changes applied at this member.
    pub fn version(&self) -> u64 {
        self.inner.borrow().version
    }

    /// Encodes the configuration for state transfer.
    pub fn snapshot(&self) -> Message {
        let state = self.inner.borrow();
        let mut m = Message::new();
        for (k, v) in &state.values {
            m.set(k, v.clone());
        }
        m
    }

    /// Replaces the local configuration with a snapshot.
    pub fn apply_snapshot(&self, snapshot: &Message) {
        let mut state = self.inner.borrow_mut();
        state.values.clear();
        for field in snapshot.iter() {
            if !field.name.starts_with('@') {
                state
                    .values
                    .insert(field.name.to_string(), field.value.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_reads_and_loads() {
        let cfg = ConfigTool::new(GroupId(1), EntryId(9));
        assert_eq!(cfg.read("workers"), None);
        cfg.load_local("workers", 5u64);
        assert_eq!(cfg.read_u64("workers"), Some(5));
        assert_eq!(
            cfg.version(),
            0,
            "local loads do not bump the replicated version"
        );
    }

    #[test]
    fn snapshot_roundtrip() {
        let cfg = ConfigTool::new(GroupId(1), EntryId(9));
        cfg.load_local("workers", 5u64);
        cfg.load_local("mode", "horizontal");
        let other = ConfigTool::new(GroupId(1), EntryId(9));
        other.apply_snapshot(&cfg.snapshot());
        assert_eq!(other.read_u64("workers"), Some(5));
        assert_eq!(
            other
                .read("mode")
                .and_then(|v| v.as_str().map(str::to_owned)),
            Some("horizontal".to_owned())
        );
    }
}
