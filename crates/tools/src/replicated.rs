//! The replicated data tool (paper Section 3.6).
//!
//! "This tool provides a simple way to replicate data, reducing access time in read-intensive
//! settings and achieving low-overhead fault-tolerance. ...  If the process managing a
//! replicated data structure indicates that it requires a globally consistent request
//! ordering, like the FIFO queue we mentioned earlier, ABCAST is used to transmit reads and
//! updates.  If the data structure can be updated asynchronously or the caller has obtained
//! mutual exclusion, CBCAST is used instead.  In an optional logging mode, the tool records
//! updates on stable storage, making it possible to reload data after recovery from a crash."

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vsync_core::{EntryId, GroupId, Message, ProcessBuilder, ProtocolKind, ToolCtx, Value};
use vsync_util::Result;

use crate::stable::StableStore;

/// Which multicast primitive carries updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOrdering {
    /// Updates travel by CBCAST: cheap and asynchronous; correct when each item has a single
    /// writer or writers hold a lock (paper Section 3.4).
    Causal,
    /// Updates travel by ABCAST: a globally consistent order, needed when several clients
    /// update the same item concurrently.
    Total,
}

struct Inner {
    group: GroupId,
    entry: EntryId,
    ordering: UpdateOrdering,
    items: BTreeMap<String, Value>,
    updates_applied: u64,
    log: Option<(Rc<dyn StableStore>, String)>,
}

/// A named collection of replicated items, kept consistent across the members of a group.
#[derive(Clone)]
pub struct ReplicatedData {
    inner: Rc<RefCell<Inner>>,
}

impl ReplicatedData {
    /// Creates a replicated data manager for `group`, receiving updates on `entry`.
    pub fn new(group: GroupId, entry: EntryId, ordering: UpdateOrdering) -> Self {
        ReplicatedData {
            inner: Rc::new(RefCell::new(Inner {
                group,
                entry,
                ordering,
                items: BTreeMap::new(),
                updates_applied: 0,
                log: None,
            })),
        }
    }

    /// Enables the logging mode: every applied update is appended to `store` under `key`.
    pub fn with_logging(self, store: Rc<dyn StableStore>, key: &str) -> Self {
        self.inner.borrow_mut().log = Some((store, key.to_owned()));
        self
    }

    /// Binds the update-application handler on a member process.
    pub fn attach(&self, builder: &mut ProcessBuilder) {
        let inner = self.inner.clone();
        let entry = self.inner.borrow().entry;
        builder.on_entry(entry, move |_ctx, msg| {
            let mut state = inner.borrow_mut();
            state.apply(msg);
        });
    }

    /// Issues an update from inside a handler; every member (including the caller) applies it
    /// when the multicast is delivered.
    pub fn update(&self, ctx: &mut ToolCtx<'_>, item: &str, value: impl Into<Value>) {
        let (group, entry, proto) = {
            let state = self.inner.borrow();
            (
                state.group,
                state.entry,
                match state.ordering {
                    UpdateOrdering::Causal => ProtocolKind::Cbcast,
                    UpdateOrdering::Total => ProtocolKind::Abcast,
                },
            )
        };
        let msg = Message::new()
            .with("rd-item", item)
            .with("rd-value", value.into());
        ctx.send(group, entry, msg, proto);
    }

    /// Local, zero-cost read of an item (paper Table 1: "read-only access by manager: no cost").
    fn read(&self, item: &str) -> Option<Value> {
        self.inner.borrow().items.get(item).cloned()
    }

    /// Reads an item as an unsigned integer.
    pub fn read_u64(&self, item: &str) -> Option<u64> {
        self.read(item).and_then(|v| v.as_u64())
    }

    /// Reads an item as a string.
    pub fn read_string(&self, item: &str) -> Option<String> {
        self.read(item).and_then(|v| v.as_str().map(str::to_owned))
    }

    /// Number of updates applied at this member.
    pub fn updates_applied(&self) -> u64 {
        self.inner.borrow().updates_applied
    }

    /// Encodes the full state into a message (used by the state-transfer tool and by the
    /// checkpointing routine of the logging mode).
    fn snapshot(&self) -> Message {
        let state = self.inner.borrow();
        let mut m = Message::new();
        for (k, v) in &state.items {
            m.set(k, v.clone());
        }
        m
    }

    /// Replaces the local state with a snapshot produced by [`ReplicatedData::snapshot`].
    fn apply_snapshot(&self, snapshot: &Message) {
        let mut state = self.inner.borrow_mut();
        state.items.clear();
        for field in snapshot.iter() {
            if !field.name.starts_with('@') {
                state
                    .items
                    .insert(field.name.to_string(), field.value.clone());
            }
        }
    }

    /// Writes a checkpoint of the current state and truncates the update log.
    pub fn checkpoint(&self) -> Result<()> {
        let snapshot = self.snapshot();
        let state = self.inner.borrow();
        if let Some((store, key)) = &state.log {
            store.write_checkpoint(key, &snapshot)?;
            store.truncate_log(key)?;
        }
        Ok(())
    }

    /// Rebuilds the state from the checkpoint plus logged updates (total-failure recovery).
    /// Returns the number of log entries replayed.
    pub fn recover_from_log(&self) -> Result<u64> {
        let (store, key) = match &self.inner.borrow().log {
            Some((s, k)) => (s.clone(), k.clone()),
            None => return Ok(0),
        };
        if let Some(ckpt) = store.read_checkpoint(&key)? {
            self.apply_snapshot(&ckpt);
        }
        let entries = store.read_log(&key)?;
        let replayed = entries.len() as u64;
        let mut state = self.inner.borrow_mut();
        for e in entries {
            state.apply_without_logging(&e);
        }
        Ok(replayed)
    }
}

impl Inner {
    fn apply(&mut self, msg: &Message) {
        self.apply_without_logging(msg);
        if let Some((store, key)) = &self.log {
            let _ = store.append_log(key, msg);
        }
    }

    fn apply_without_logging(&mut self, msg: &Message) {
        let Some(item) = msg.get_str("rd-item") else {
            return;
        };
        let Some(value) = msg.get("rd-value") else {
            return;
        };
        self.items.insert(item.to_owned(), value.clone());
        self.updates_applied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::MemoryStore;
    use vsync_util::SiteId;

    fn update_msg(item: &str, value: u64) -> Message {
        Message::new().with("rd-item", item).with("rd-value", value)
    }

    #[test]
    fn local_apply_and_read() {
        let rd = ReplicatedData::new(GroupId(1), EntryId(5), UpdateOrdering::Causal);
        rd.inner.borrow_mut().apply(&update_msg("price", 9000));
        assert_eq!(rd.read_u64("price"), Some(9000));
        assert_eq!(rd.read_u64("absent"), None);
        assert_eq!(rd.updates_applied(), 1);
        assert!(rd.inner.borrow().items.keys().eq(["price"]));
    }

    #[test]
    fn snapshot_roundtrip() {
        let rd = ReplicatedData::new(GroupId(1), EntryId(5), UpdateOrdering::Causal);
        {
            let items = &mut rd.inner.borrow_mut().items;
            items.insert("a".to_owned(), 1u64.into());
            items.insert("b".to_owned(), "two".into());
        }
        let snap = rd.snapshot();
        let other = ReplicatedData::new(GroupId(1), EntryId(5), UpdateOrdering::Causal);
        other.apply_snapshot(&snap);
        assert_eq!(other.read_u64("a"), Some(1));
        assert_eq!(other.read_string("b"), Some("two".to_owned()));
    }

    #[test]
    fn logging_checkpoint_and_recovery() {
        let store: Rc<dyn StableStore> = Rc::new(MemoryStore::new());
        let rd = ReplicatedData::new(GroupId(1), EntryId(5), UpdateOrdering::Total)
            .with_logging(store.clone(), "svc");
        rd.inner.borrow_mut().apply(&update_msg("x", 1));
        rd.inner.borrow_mut().apply(&update_msg("y", 2));
        rd.checkpoint().unwrap();
        rd.inner.borrow_mut().apply(&update_msg("x", 3));

        // A fresh instance (total failure) recovers checkpoint + log.
        let recovered = ReplicatedData::new(GroupId(1), EntryId(5), UpdateOrdering::Total)
            .with_logging(store, "svc");
        let replayed = recovered.recover_from_log().unwrap();
        assert_eq!(replayed, 1, "one post-checkpoint update replayed");
        assert_eq!(recovered.read_u64("x"), Some(3));
        assert_eq!(recovered.read_u64("y"), Some(2));
    }

    #[test]
    fn ignores_malformed_updates() {
        let rd = ReplicatedData::new(GroupId(1), EntryId(5), UpdateOrdering::Causal);
        rd.inner.borrow_mut().apply(&Message::with_body(1u64));
        assert_eq!(rd.updates_applied(), 0);
        let _ = SiteId(0);
    }
}
