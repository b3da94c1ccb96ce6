//! Shared bulletin boards (paper Section 3.11, one of the "additional tools" that ISIS had
//! designed but not yet shipped; implemented here as an extension).
//!
//! "Unlike the news service, the bulletin board facility is linked directly into its clients
//! and does not exist as a separate entity; it is intended for high performance shared data
//! management.  Processes can read and post messages on one or more shared bulletin boards,
//! and these operations are implemented using the multicast primitives."
//!
//! Each bulletin board is a named, append-only sequence of postings replicated across the
//! members of a group.  Posts travel by ABCAST so all members see every board in the same
//! order; reads are local.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vsync_core::{EntryId, GroupId, Message, ProcessBuilder, ProtocolKind, ToolCtx};

struct Inner {
    group: GroupId,
    entry: EntryId,
    boards: BTreeMap<String, Vec<Message>>,
}

/// A set of shared bulletin boards replicated over a process group.
#[derive(Clone)]
pub struct BulletinBoard {
    inner: Rc<RefCell<Inner>>,
}

impl BulletinBoard {
    /// Creates the bulletin-board tool for `group`, receiving postings on `entry`.
    pub fn new(group: GroupId, entry: EntryId) -> Self {
        BulletinBoard {
            inner: Rc::new(RefCell::new(Inner {
                group,
                entry,
                boards: BTreeMap::new(),
            })),
        }
    }

    /// Binds the posting-application handler.
    pub fn attach(&self, builder: &mut ProcessBuilder) {
        let inner = self.inner.clone();
        let entry = self.inner.borrow().entry;
        builder.on_entry(entry, move |_ctx, msg| {
            let Some(board) = msg.get_str("bb-board").map(str::to_owned) else {
                return;
            };
            inner
                .borrow_mut()
                .boards
                .entry(board)
                .or_default()
                .push(msg.clone());
        });
    }

    /// Posts a message on a board; every member appends it in the same position.
    pub fn post(&self, ctx: &mut ToolCtx<'_>, board: &str, mut body: Message) {
        let (group, entry) = {
            let state = self.inner.borrow();
            (state.group, state.entry)
        };
        body.set("bb-board", board);
        ctx.send(group, entry, body, ProtocolKind::Abcast);
    }

    /// Reads every posting on a board, in posting order (local, no communication).
    pub fn read(&self, board: &str) -> Vec<Message> {
        self.inner
            .borrow()
            .boards
            .get(board)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boards_start_empty_and_are_independent() {
        let bb = BulletinBoard::new(GroupId(1), EntryId(40));
        assert!(bb.read("sensor-readings").is_empty());
        bb.inner
            .borrow_mut()
            .boards
            .entry("sensor-readings".into())
            .or_default()
            .push(Message::with_body(1u64));
        assert_eq!(bb.read("sensor-readings").len(), 1);
        assert!(bb.read("other").is_empty());
        assert!(bb.inner.borrow().boards.keys().eq(["sensor-readings"]));
        assert_eq!(bb.read("sensor-readings")[0].get_u64("body"), Some(1));
    }
}
