//! The per-process runtime: entry points, monitors and the [`ToolCtx`] handle.
//!
//! "Each process using ISIS binds routines to any entry point on which it will receive
//! messages. ...  When a message arrives, a new task is started up corresponding to the entry
//! point in its destination address, and the message is passed to this task for processing"
//! (paper Section 4.1).  In this Rust realisation an entry point is a closure; the lightweight
//! task with its blocking calls becomes continuation-passing style: a handler that needs
//! replies issues [`ToolCtx::call`] with a continuation closure, which the stack invokes when
//! the replies (or the failure notification) arrive.

use std::collections::BTreeMap;

use vsync_msg::{fields, Message};
use vsync_net::ProtocolKind;
use vsync_proto::{GroupEndpoint, View, ViewEvent};
use vsync_util::{Address, EntryId, GroupId, ProcessId, Rank, SimTime};

use crate::rpc::{ReplyWanted, RpcOutcome};

/// Handler bound to an entry point.
pub type EntryHandler = Box<dyn FnMut(&mut ToolCtx<'_>, &Message)>;

/// Handler invoked on every membership change of a monitored group (`pg_monitor`).
pub type MonitorHandler = Box<dyn FnMut(&mut ToolCtx<'_>, &ViewEvent)>;

/// Continuation invoked when a group RPC completes.
pub type ReplyCallback = Box<dyn FnOnce(&mut ToolCtx<'_>, RpcOutcome)>;

/// An action recorded by a handler through its [`ToolCtx`]; the site stack executes the
/// actions after the handler returns (which is what keeps handlers free of re-entrancy).
pub enum CtxAction {
    /// Multicast (or send point-to-point) a message, optionally collecting replies.
    Call {
        /// Destination list: process and/or group addresses.
        dests: Vec<Address>,
        /// Entry point at the destinations.
        entry: EntryId,
        /// Application payload.
        payload: Message,
        /// Which primitive carries the message.
        protocol: ProtocolKind,
        /// How many replies to wait for.
        wanted: ReplyWanted,
        /// Continuation to run when collection completes (required unless `wanted` is None).
        callback: Option<ReplyCallback>,
    },
    /// Reply to a request received earlier.
    Reply {
        /// The session being answered and the process collecting its replies, resolved
        /// from the request when the action was recorded (see `reply_target`); `None` if
        /// the request carried no session, which the stack traces instead of answering.
        target: Option<(u64, ProcessId)>,
        /// Reply payload.
        payload: Message,
        /// Additional processes that should receive a copy of the reply (`reply_cc`).
        copies: Vec<Address>,
        /// True for a null reply.
        null: bool,
    },
    /// Ask to join a group (used by recovery / restart logic inside handlers).
    Join {
        /// The group to join.
        group: GroupId,
        /// Credentials checked by the protection tool.
        credentials: Option<String>,
    },
    /// Leave a group voluntarily.
    Leave {
        /// The group to leave.
        group: GroupId,
    },
    /// Emit a trace line (streamed to stderr when `VSYNC_RT_TRACE` is set).
    Trace(String),
}

/// The toolkit handle passed to every entry handler, monitor and continuation.
pub struct ToolCtx<'a> {
    me: ProcessId,
    now: SimTime,
    endpoints: &'a BTreeMap<GroupId, GroupEndpoint>,
    directory: &'a BTreeMap<String, GroupId>,
    actions: Vec<CtxAction>,
}

impl<'a> ToolCtx<'a> {
    /// Creates a context (called by the site stack before dispatching a handler).
    pub(crate) fn new(
        me: ProcessId,
        now: SimTime,
        endpoints: &'a BTreeMap<GroupId, GroupEndpoint>,
        directory: &'a BTreeMap<String, GroupId>,
    ) -> Self {
        ToolCtx {
            me,
            now,
            endpoints,
            directory,
            actions: Vec::new(),
        }
    }

    /// The process this handler runs in.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Current (virtual) time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// `pg_lookup`: resolves a symbolic group name.
    pub fn lookup(&self, name: &str) -> Option<GroupId> {
        self.directory.get(name).copied()
    }

    /// The view of the group installed at this site; `None` where no member of it lives.
    pub fn view_of(&self, group: GroupId) -> Option<&View> {
        self.endpoints.get(&group).and_then(GroupEndpoint::view)
    }

    /// This process's rank in a group it belongs to.
    pub fn my_rank(&self, group: GroupId) -> Option<Rank> {
        self.view_of(group).and_then(|v| v.rank_of(self.me))
    }

    /// Drains the recorded actions (called by the site stack).
    pub(crate) fn take_actions(&mut self) -> Vec<CtxAction> {
        std::mem::take(&mut self.actions)
    }

    /// Asynchronous multicast: send and continue immediately (no replies collected).
    pub fn send(
        &mut self,
        dest: impl Into<Address>,
        entry: EntryId,
        payload: Message,
        protocol: ProtocolKind,
    ) {
        self.actions.push(CtxAction::Call {
            dests: vec![dest.into()],
            entry,
            payload,
            protocol,
            wanted: ReplyWanted::None,
            callback: None,
        });
    }

    /// Group RPC: multicast a request and run `callback` when the requested number of
    /// replies has been collected (or every destination has failed).
    pub fn call(
        &mut self,
        dests: Vec<Address>,
        entry: EntryId,
        payload: Message,
        protocol: ProtocolKind,
        wanted: ReplyWanted,
        callback: impl FnOnce(&mut ToolCtx<'_>, RpcOutcome) + 'static,
    ) {
        self.actions.push(CtxAction::Call {
            dests,
            entry,
            payload,
            protocol,
            wanted,
            callback: Some(Box::new(callback)),
        });
    }

    /// Replies to a request.
    pub fn reply(&mut self, request: &Message, payload: Message) {
        self.actions.push(CtxAction::Reply {
            target: reply_target(request),
            payload,
            copies: Vec::new(),
            null: false,
        });
    }

    /// Replies to a request, also sending copies of the reply to `copies`
    /// (the paper's `reply_cc`, used by the coordinator–cohort tool).
    pub fn reply_with_copies(&mut self, request: &Message, payload: Message, copies: Vec<Address>) {
        self.actions.push(CtxAction::Reply {
            target: reply_target(request),
            payload,
            copies,
            null: false,
        });
    }

    /// Sends a null reply: tells the caller not to wait for a real reply from this process.
    pub fn null_reply(&mut self, request: &Message) {
        self.actions.push(CtxAction::Reply {
            target: reply_target(request),
            payload: Message::new(),
            copies: Vec::new(),
            null: true,
        });
    }

    /// Requests to join a group.
    pub fn join(&mut self, group: GroupId, credentials: Option<String>) {
        self.actions.push(CtxAction::Join { group, credentials });
    }

    /// Requests to leave a group.
    pub fn leave(&mut self, group: GroupId) {
        self.actions.push(CtxAction::Leave { group });
    }

    /// Emits a trace line.
    pub fn trace(&mut self, line: impl Into<String>) {
        self.actions.push(CtxAction::Trace(line.into()));
    }
}

/// A process: its entry-point table and group monitors.
pub struct IsisProcess {
    /// The process identity.
    pub id: ProcessId,
    entries: BTreeMap<EntryId, EntryHandler>,
    monitors: Vec<(GroupId, MonitorHandler)>,
}

impl IsisProcess {
    /// Creates an empty process.
    fn new(id: ProcessId) -> Self {
        IsisProcess {
            id,
            entries: BTreeMap::new(),
            monitors: Vec::new(),
        }
    }

    /// Binds a handler to an entry point, replacing any previous binding.
    fn bind_entry(&mut self, entry: EntryId, handler: EntryHandler) {
        self.entries.insert(entry, handler);
    }

    /// Registers a `pg_monitor` callback for a group.
    fn add_monitor(&mut self, group: GroupId, handler: MonitorHandler) {
        self.monitors.push((group, handler));
    }

    /// Dispatches a message to the handler bound to `entry` (if any).
    pub(crate) fn dispatch(
        &mut self,
        ctx: &mut ToolCtx<'_>,
        entry: EntryId,
        msg: &Message,
    ) -> bool {
        if let Some(handler) = self.entries.get_mut(&entry) {
            handler(ctx, msg);
            true
        } else {
            false
        }
    }

    /// Dispatches a view event to every monitor registered for the group.
    pub(crate) fn dispatch_view(&mut self, ctx: &mut ToolCtx<'_>, event: &ViewEvent) {
        for (g, handler) in &mut self.monitors {
            if *g == event.view.group() {
                handler(ctx, event);
            }
        }
    }
}

/// Assembles a process declaratively: the `configure` closure handed to `vsync-rt`'s
/// `IsisHarness::spawn` fills one in.
pub struct ProcessBuilder {
    process: IsisProcess,
}

impl ProcessBuilder {
    /// Creates a builder for the given process id.
    pub fn new(id: ProcessId) -> Self {
        ProcessBuilder {
            process: IsisProcess::new(id),
        }
    }

    /// The id of the process being built.
    pub fn id(&self) -> ProcessId {
        self.process.id
    }

    /// Binds an entry handler.
    pub fn on_entry(
        &mut self,
        entry: EntryId,
        handler: impl FnMut(&mut ToolCtx<'_>, &Message) + 'static,
    ) -> &mut Self {
        self.process.bind_entry(entry, Box::new(handler));
        self
    }

    /// Registers a group monitor.
    pub fn on_view_change(
        &mut self,
        group: GroupId,
        handler: impl FnMut(&mut ToolCtx<'_>, &ViewEvent) + 'static,
    ) -> &mut Self {
        self.process.add_monitor(group, Box::new(handler));
        self
    }

    /// Finishes construction.
    pub fn build(self) -> IsisProcess {
        self.process
    }
}

/// Extracts the reply session and requester from a request message, as recorded in a
/// [`CtxAction::Reply`].
fn reply_target(request: &Message) -> Option<(u64, ProcessId)> {
    let session = request.session()?;
    let requester = request
        .get_addr_list(fields::REPLY_TO)
        .and_then(|l| l.first().copied())
        .and_then(|a| a.as_process())
        .or_else(|| request.sender())?;
    Some((session, requester))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn pid() -> ProcessId {
        ProcessId::new(SiteId(0), 1)
    }

    #[test]
    fn ctx_records_actions_in_order() {
        let endpoints = BTreeMap::new();
        let directory = BTreeMap::new();
        let mut ctx = ToolCtx::new(pid(), SimTime(5), &endpoints, &directory);
        ctx.send(
            GroupId(1),
            EntryId(3),
            Message::with_body(1u64),
            ProtocolKind::Cbcast,
        );
        ctx.trace("hello");
        ctx.leave(GroupId(1));
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], CtxAction::Call { .. }));
        assert!(matches!(actions[1], CtxAction::Trace(_)));
        assert!(matches!(actions[2], CtxAction::Leave { .. }));
        assert!(ctx.take_actions().is_empty(), "take drains");
    }

    #[test]
    fn ctx_view_and_directory_lookups() {
        let me = pid();
        let mut ep =
            GroupEndpoint::new(GroupId(7), me.site, Default::default(), Default::default());
        ep.create(me, &mut Vec::new());
        let endpoints = BTreeMap::from([(GroupId(7), ep)]);
        let mut directory = BTreeMap::new();
        directory.insert("twenty".to_owned(), GroupId(7));
        let ctx = ToolCtx::new(me, SimTime(0), &endpoints, &directory);
        assert_eq!(ctx.lookup("twenty"), Some(GroupId(7)));
        assert_eq!(ctx.lookup("nope"), None);
        assert_eq!(ctx.my_rank(GroupId(7)), Some(0));
        assert_eq!(ctx.my_rank(GroupId(8)), None);
        assert_eq!(ctx.me(), me);
        assert_eq!(ctx.now(), SimTime(0));
    }

    #[test]
    fn process_dispatch_and_entries() {
        let endpoints = BTreeMap::new();
        let directory = BTreeMap::new();
        let mut proc = IsisProcess::new(pid());
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        proc.bind_entry(
            EntryId(1),
            Box::new(move |_ctx, msg| {
                seen2.borrow_mut().push(msg.get_u64("body").unwrap_or(0));
            }),
        );
        assert!(proc.entries.contains_key(&EntryId(1)));
        assert!(!proc.entries.contains_key(&EntryId(2)));
        let mut ctx = ToolCtx::new(pid(), SimTime(0), &endpoints, &directory);
        assert!(proc.dispatch(&mut ctx, EntryId(1), &Message::with_body(9u64)));
        assert!(!proc.dispatch(&mut ctx, EntryId(2), &Message::with_body(9u64)));
        assert_eq!(*seen.borrow(), vec![9]);
    }

    #[test]
    fn monitors_fire_only_for_their_group() {
        let endpoints = BTreeMap::new();
        let directory = BTreeMap::new();
        let count = std::rc::Rc::new(std::cell::RefCell::new(0));
        let c2 = count.clone();
        let mut proc = IsisProcess::new(pid());
        proc.add_monitor(
            GroupId(1),
            Box::new(move |_ctx, _ev| {
                *c2.borrow_mut() += 1;
            }),
        );
        let mut ctx = ToolCtx::new(pid(), SimTime(0), &endpoints, &directory);
        let ev1 = ViewEvent {
            view: View::founding(GroupId(1), pid()),
            gbcasts: vec![],
            covered: Default::default(),
        };
        let ev2 = ViewEvent {
            view: View::founding(GroupId(2), pid()),
            gbcasts: vec![],
            covered: Default::default(),
        };
        proc.dispatch_view(&mut ctx, &ev1);
        proc.dispatch_view(&mut ctx, &ev2);
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn reply_target_extraction() {
        let mut req = Message::with_body(1u64);
        req.set_session(42);
        req.set_sender(pid());
        assert_eq!(reply_target(&req), Some((42, pid())));
        let other = ProcessId::new(SiteId(3), 9);
        req.set(fields::REPLY_TO, vec![Address::Process(other)]);
        assert_eq!(reply_target(&req), Some((42, other)));
        assert_eq!(reply_target(&Message::new()), None);
    }

    #[test]
    fn builder_composes_a_process() {
        let mut b = ProcessBuilder::new(pid());
        b.on_entry(EntryId(1), |_ctx, _m| {})
            .on_view_change(GroupId(1), |_ctx, _e| {});
        let p = b.build();
        assert!(p.entries.contains_key(&EntryId(1)));
        assert_eq!(p.id, pid());
    }
}
