//! Quorum and full-replication calls (paper Section 3.3).
//!
//! "Some replicated processing methods, such as the full replication method used in CIRCUS or
//! the quorum methods, have straightforward implementations in ISIS.  In the former case, the
//! caller waits for ALL responses and all recipients respond.  If the caller knows the quorum
//! size, Q, it simply waits for Q replies."
//!
//! Both are one group RPC each; which members answer — the paper's "Q oldest members", say —
//! is the responders' choice, made from the ranked view every member shares.

use vsync_core::{
    Address, EntryId, GroupId, Message, ProtocolKind, ReplyWanted, RpcOutcome, ToolCtx,
};

/// Issues a quorum call: waits for `q` replies.
pub fn quorum_call(
    ctx: &mut ToolCtx<'_>,
    group: GroupId,
    entry: EntryId,
    payload: Message,
    q: usize,
    callback: impl FnOnce(&mut ToolCtx<'_>, RpcOutcome) + 'static,
) {
    ctx.call(
        vec![Address::Group(group)],
        entry,
        payload,
        ProtocolKind::Abcast,
        ReplyWanted::Count(q),
        callback,
    );
}

/// Issues a full-replication call: every member executes the request and the caller waits for
/// all the replies.
pub fn full_replication_call(
    ctx: &mut ToolCtx<'_>,
    group: GroupId,
    entry: EntryId,
    payload: Message,
    callback: impl FnOnce(&mut ToolCtx<'_>, RpcOutcome) + 'static,
) {
    ctx.call(
        vec![Address::Group(group)],
        entry,
        payload,
        ProtocolKind::Abcast,
        ReplyWanted::All,
        callback,
    );
}
