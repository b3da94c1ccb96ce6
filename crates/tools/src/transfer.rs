//! The state-transfer tool (paper Section 3.8).
//!
//! "This tool provides a way to join a pre-existing group of processes, transferring state
//! from the operational processes to the one that wants to join. ...  Up to the instant
//! before the join occurs, the old set of members continue to receive requests and the new
//! one does not.  Then, the join takes place and the next request is received by the new
//! member too, and only after it has received the state that was current at the time of the
//! join."
//!
//! Implementation: the tool watches the group view.  When a view that adds members installs,
//! the *oldest* member encodes its state (via the application-supplied callback) and sends it
//! to each joiner in blocks.  The encoding runs **inside the view-change dispatch**, which
//! the protocol stack performs synchronously at the flush cut — after every pre-cut message
//! has been applied and before any post-cut message can be — so the snapshot is taken
//! exactly at the cut, never "whenever the joiner happened to ask".  Each block is tagged
//! with the cut's covered frontier ([`Frontier`], taken from the view event), the wire-level
//! statement of which messages the snapshot already includes; the joiner's protocol endpoint
//! independently uses the same frontier (from the flush commit) to suppress redelivery of
//! covered messages, so together snapshot + post-cut flow partition the group's history and
//! every message is applied exactly once even when the join races unstable traffic.
//!
//! On the joiner's side, application messages that arrive before the final state block are
//! not yet applicable: the snapshot they follow has not landed.  Entries registered through
//! [`StateTransfer::on_entry_buffered`] hold such messages in arrival order and replay them
//! the moment the transfer completes, which is the paper's "buffered by the application"
//! discipline packaged as part of the tool.
//!
//! # Survivor re-serve
//!
//! If the transfer *source* crashes after the cut but before the joiner received the final
//! block, nobody else holds a snapshot taken at the joiner's cut — re-encoding at
//! request-processing time cannot be exactly-once, because post-cut traffic is already
//! sitting in the joiner's buffer.  The tool therefore recovers by forcing a **fresh cut**:
//! when a still-waiting member sees a view that removes processes, it discards the dead
//! transfer's partial blocks and its post-cut buffer, then GBCASTs a re-request marker.
//! The marker rides the next flush and is delivered in the resulting view event's
//! `gbcasts`, exactly at that new cut — where the (new) rank-0 member encodes a fresh
//! snapshot and serves it like any join-cut transfer.  Every block is tagged with the view
//! sequence of its serve cut (`xfer-epoch`); the joiner rejects blocks from superseded
//! cuts, so a straggler block from the dead transfer can never corrupt the fresh one.
//!
//! Completion is deferred until the serve cut has installed *locally*: a final block that
//! outruns the joiner's own flush commit must not release the buffer early, because the
//! commit's cut redeliveries (all covered by the fresh snapshot) are still on their way
//! into it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vsync_core::{
    Address, EntryId, Frontier, GroupId, Message, ProcessBuilder, ProcessId, ProtocolKind, ToolCtx,
    ViewEvent,
};

/// Produces the state to transfer, as a series of variable-sized blocks (paper: "the
/// application must be able to encode its state into a series of variable sized blocks").
pub type EncodeFn = Box<dyn FnMut() -> Vec<Message>>;

/// Applies one received state block.
pub type ApplyFn = Box<dyn FnMut(&mut ToolCtx<'_>, &Message)>;

/// Buffered-message count at which a waiting joiner with no snapshot progress is declared
/// stalled (see [`StateTransfer::with_stall_threshold`]).
const DEFAULT_STALL_THRESHOLD: usize = 32;

/// Hard cap on the joiner's post-cut buffer.  Crossing it raises a `BufferOverflow` trace
/// event, drops the buffer, and re-requests the snapshot at a fresh cut — bounding memory
/// under hostile load at the cost of restarting the transfer.
const DEFAULT_MAX_BUFFERED: usize = 1024;

struct Inner {
    group: GroupId,
    encode: EncodeFn,
    apply: ApplyFn,
    ready: bool,
    /// The covered frontier tagged onto the most recently applied snapshot block: which
    /// pre-cut messages the transferred state already includes.
    covered: Option<Frontier>,
    /// Messages for buffered entries that arrived before the transfer completed, in
    /// arrival order.
    pending: Vec<(EntryId, Message)>,
    /// The application handlers behind [`StateTransfer::on_entry_buffered`].
    wrapped: BTreeMap<EntryId, ApplyFn>,
    /// Sequence of the most recent view event observed for the group.  Blocks completing
    /// a serve cut that has not installed locally yet defer readiness (see module docs).
    last_view_seq: u64,
    /// Minimum serve-cut sequence a block must carry to be applied.  Bumped when a dead
    /// transfer is abandoned so its stragglers cannot corrupt the fresh snapshot.
    min_epoch: u64,
    /// Serve-cut sequence whose final block has been applied but whose view has not
    /// installed locally yet; readiness completes at that view event.
    complete_at: Option<u64>,
    /// Whether the survivor re-serve protocol is active (disabled only by tests pinning
    /// the wedge it fixes).
    reserve_enabled: bool,
    /// Stall detection: `blocks_received` when the buffer first crossed the threshold.
    stall_mark: Option<u64>,
    stall_threshold: usize,
    stalled: bool,
    stalled_events: u64,
    /// Hard cap on `pending`: a transfer that cannot keep up with hostile post-cut load
    /// must fail cleanly (drop + re-request at a fresh cut) instead of growing without
    /// bound.
    max_buffered: usize,
    buffer_overflows: u64,
    /// Fence epoch of the last overflow-triggered re-request, so repeated overflows
    /// within the same view drop the buffer again but do not flood GBCAST markers.
    overflow_marker_epoch: u64,
    blocks_received: u64,
    transfers_served: u64,
    rerequests_sent: u64,
}

/// The state-transfer tool attached to one group member (or joiner).
#[derive(Clone)]
pub struct StateTransfer {
    inner: Rc<RefCell<Inner>>,
}

/// Runs one buffered-entry handler outside the state borrow (handlers may re-enter the
/// tool through the context's recorded actions).
fn run_wrapped(inner: &Rc<RefCell<Inner>>, ctx: &mut ToolCtx<'_>, entry: EntryId, msg: &Message) {
    let taken = inner.borrow_mut().wrapped.remove(&entry);
    let Some(mut handler) = taken else { return };
    handler(ctx, msg);
    inner.borrow_mut().wrapped.insert(entry, handler);
}

/// True if `payload` is a re-serve request marker, returning the requesting member.
fn rerequest_joiner(payload: &Message) -> Option<ProcessId> {
    if !payload.get_bool("xfer-rerequest").unwrap_or(false) {
        return None;
    }
    payload.get_addr("xfer-joiner").and_then(|a| a.as_process())
}

impl StateTransfer {
    /// Creates the tool: `encode` produces the state blocks at a transfer source, `apply`
    /// consumes them at a joiner.
    pub fn new(
        group: GroupId,
        encode: impl FnMut() -> Vec<Message> + 'static,
        apply: impl FnMut(&mut ToolCtx<'_>, &Message) + 'static,
    ) -> Self {
        StateTransfer {
            inner: Rc::new(RefCell::new(Inner {
                group,
                encode: Box::new(encode),
                apply: Box::new(apply),
                ready: false,
                covered: None,
                pending: Vec::new(),
                wrapped: BTreeMap::new(),
                last_view_seq: 0,
                min_epoch: 0,
                complete_at: None,
                reserve_enabled: true,
                stall_mark: None,
                stall_threshold: DEFAULT_STALL_THRESHOLD,
                stalled: false,
                stalled_events: 0,
                max_buffered: DEFAULT_MAX_BUFFERED,
                buffer_overflows: 0,
                overflow_marker_epoch: 0,
                blocks_received: 0,
                transfers_served: 0,
                rerequests_sent: 0,
            })),
        }
    }

    /// Binds an application entry whose messages must not be applied before the transferred
    /// state: while the member is not [`StateTransfer::is_ready`], arriving messages are
    /// buffered in order; the moment the final snapshot block applies they are replayed
    /// through `handler`.  Members that are ready (the creator, or a joiner after its
    /// transfer) dispatch straight through.  Combined with the endpoint-side suppression of
    /// snapshot-covered redeliveries, this makes every message apply exactly once at a
    /// joiner regardless of how unstable the traffic was at join time.
    pub fn on_entry_buffered(
        &self,
        builder: &mut ProcessBuilder,
        entry: EntryId,
        handler: impl FnMut(&mut ToolCtx<'_>, &Message) + 'static,
    ) {
        self.inner
            .borrow_mut()
            .wrapped
            .insert(entry, Box::new(handler));
        let inner = self.inner.clone();
        let group = self.inner.borrow().group;
        builder.on_entry(entry, move |ctx, msg| {
            enum Growth {
                Quiet,
                Stalled,
                /// (messages dropped, whether to GBCAST a re-request marker)
                Overflow(usize, bool),
            }
            let growth = {
                let mut state = inner.borrow_mut();
                if state.ready {
                    Growth::Quiet
                } else if state.pending.len() >= state.max_buffered {
                    // The buffer is full: the transfer cannot complete exactly-once with
                    // this backlog intact anyway (we cannot tell which held messages a
                    // snapshot that never arrived would have covered), so fail the join
                    // attempt cleanly — drop everything (this message included; it
                    // predates the fresh cut, whose snapshot will cover it) and fence
                    // onto a snapshot at a fresh cut, exactly the dead-source recovery
                    // path.  The pending-join retry discipline above us handles a
                    // contact that never answers at all.
                    let dropped = state.pending.len() + 1;
                    state.buffer_overflows += 1;
                    let fence = state.last_view_seq + 1;
                    state.abandon_transfer(fence);
                    let send_marker = state.overflow_marker_epoch < fence;
                    if send_marker {
                        state.overflow_marker_epoch = fence;
                        state.rerequests_sent += 1;
                    }
                    Growth::Overflow(dropped, send_marker)
                } else {
                    state.pending.push((entry, msg.clone()));
                    if state.note_buffer_growth() {
                        Growth::Stalled
                    } else {
                        Growth::Quiet
                    }
                }
            };
            match growth {
                Growth::Stalled => {
                    let (buffered, blocks) = {
                        let state = inner.borrow();
                        (state.pending.len(), state.blocks_received)
                    };
                    ctx.trace(format!(
                        "TransferStalled: {buffered} messages buffered with no snapshot \
                         progress (blocks_received={blocks})"
                    ));
                    return;
                }
                Growth::Overflow(dropped, send_marker) => {
                    ctx.trace(format!(
                        "BufferOverflow: dropped {dropped} buffered messages; \
                         re-requesting a snapshot at a fresh cut"
                    ));
                    if send_marker {
                        let me = ctx.me();
                        let mut req = Message::new();
                        req.set("xfer-rerequest", true);
                        req.set("xfer-joiner", Address::Process(me));
                        ctx.send(
                            Address::Group(group),
                            EntryId::GENERIC_XFER,
                            req,
                            ProtocolKind::Gbcast,
                        );
                    }
                    return;
                }
                Growth::Quiet => {}
            }
            if !inner.borrow().ready {
                return;
            }
            run_wrapped(&inner, ctx, entry, msg);
        });
    }

    /// Binds the transfer entry and the view monitor.
    pub fn attach(&self, builder: &mut ProcessBuilder) {
        let group = self.inner.borrow().group;

        // Receiving side: apply blocks; the block flagged `xfer-last` completes the transfer
        // and releases anything the buffered entries held back in the meantime.
        let inner = self.inner.clone();
        builder.on_entry(EntryId::GENERIC_XFER, move |ctx, msg| {
            // Re-request markers ride the GBCAST payload path and reach every member's
            // transfer entry; they carry no state.
            if rerequest_joiner(msg).is_some() {
                return;
            }
            {
                let mut state = inner.borrow_mut();
                let epoch = msg.get_u64("xfer-epoch").unwrap_or(0);
                if state.ready || epoch < state.min_epoch {
                    // A straggler from a superseded serve (or a late re-serve after this
                    // member already completed): applying it would corrupt newer state.
                    return;
                }
                state.blocks_received += 1;
                state.stall_mark = None;
                state.stalled = false;
                if let Some(covered) = msg.get_u64_list("xfer-covered") {
                    state.covered = Some(Frontier::from_wire(covered));
                }
            }
            // Run the application callback outside the borrow.
            let mut taken = {
                let mut state = inner.borrow_mut();
                std::mem::replace(&mut state.apply, Box::new(|_ctx, _m| {}))
            };
            taken(ctx, msg);
            let replay = {
                let mut state = inner.borrow_mut();
                state.apply = taken;
                if msg.get_bool("xfer-last").unwrap_or(false) {
                    let epoch = msg.get_u64("xfer-epoch").unwrap_or(0);
                    if state.last_view_seq >= epoch {
                        state.finish_transfer()
                    } else {
                        // The serve cut has not installed locally yet: the commit's cut
                        // redeliveries (covered by this snapshot) may still be on their
                        // way into the buffer.  Readiness completes at that view event.
                        state.complete_at = Some(epoch);
                        Vec::new()
                    }
                } else {
                    Vec::new()
                }
            };
            // The snapshot is in place: replay the messages that arrived ahead of it, in
            // their original arrival order.
            for (entry, held) in replay {
                run_wrapped(&inner, ctx, entry, &held);
            }
        });

        // View monitor: joiner-side re-serve detection plus the sending side.  Both run
        // inside the stack's view-change dispatch — synchronously at the flush cut.
        let inner = self.inner.clone();
        builder.on_view_change(group, move |ctx, ev| {
            let me = ctx.me();
            let rearmed = {
                let mut state = inner.borrow_mut();
                state.last_view_seq = ev.view.seq();
                // The founding member is "ready" by definition: nobody to transfer from.
                if ev.view.len() == 1 && ev.view.contains(me) {
                    state.ready = true;
                    false
                } else if state.ready && ev.view.joined.contains(&me) {
                    // A *ready* member re-admitted as a joiner has been in exile: its
                    // stack sat out some views in a wedged minority, discarded the
                    // divergent protocol tail and rejoined after the heal.  Whatever
                    // state it holds is a stale prefix, so drop readiness and fence onto
                    // this cut — the rejoin snapshot (and nothing older) must apply.
                    state.ready = false;
                    state.covered = None;
                    state.prepare_for_serve(ev.view.seq());
                    true
                } else {
                    false
                }
            };
            if rearmed {
                ctx.trace(format!(
                    "rejoined at view {} after exile; awaiting a fresh snapshot",
                    ev.view.seq()
                ));
            }
            joiner_side(&inner, ctx, ev, me, group);
            sender_side(&inner, ctx, ev, me);
        });
    }

    /// Marks this member as already holding the authoritative state (the group creator calls
    /// this *before any traffic flows*; joiners become ready when their transfer completes).
    pub fn mark_ready(&self) {
        self.inner.borrow_mut().ready = true;
    }

    /// Disables the survivor re-serve protocol.  Exists only so tests can pin the wedge it
    /// fixes (a joiner whose transfer source died stays buffered forever).
    pub fn disable_reserve(&self) {
        self.inner.borrow_mut().reserve_enabled = false;
    }

    /// Sets the buffered-message count at which a waiting member with no snapshot progress
    /// raises a `TransferStalled` trace event (default 32).
    pub fn with_stall_threshold(self, threshold: usize) -> Self {
        self.inner.borrow_mut().stall_threshold = threshold.max(1);
        self
    }

    /// True once this member holds the full state (creator, or joiner after transfer).
    pub fn is_ready(&self) -> bool {
        self.inner.borrow().ready
    }

    /// Number of `TransferStalled` events raised by this member.
    pub fn stalled_events(&self) -> u64 {
        self.inner.borrow().stalled_events
    }

    /// The covered frontier tagged onto the received snapshot: which pre-cut messages the
    /// transferred state already includes.  `None` before any tagged block arrived.
    pub fn covered(&self) -> Option<Frontier> {
        self.inner.borrow().covered.clone()
    }

    /// Number of messages currently held by buffered entries awaiting the snapshot.
    pub fn buffered_len(&self) -> usize {
        self.inner.borrow().pending.len()
    }

    /// Number of joins this member served as the transfer source.
    pub fn transfers_served(&self) -> u64 {
        self.inner.borrow().transfers_served
    }

    /// Number of snapshot re-requests this member issued after its source died.
    pub fn rerequests_sent(&self) -> u64 {
        self.inner.borrow().rerequests_sent
    }
}

impl Inner {
    /// Completes the transfer: marks ready and hands back the held messages for replay.
    fn finish_transfer(&mut self) -> Vec<(EntryId, Message)> {
        self.ready = true;
        self.complete_at = None;
        self.stall_mark = None;
        self.stalled = false;
        std::mem::take(&mut self.pending)
    }

    /// Abandons an in-flight transfer whose source is gone: the partial snapshot and the
    /// buffered post-cut traffic all belong to the dead cut; a fresh serve (epoch >
    /// `abandoned_at`) will cover everything up to *its* cut.
    fn abandon_transfer(&mut self, abandoned_at: u64) {
        self.covered = None;
        self.complete_at = None;
        self.prepare_for_serve(abandoned_at);
    }

    /// Fences this member onto the serve cut `serve_seq`: earlier-epoch stragglers are
    /// rejected and the buffer (all of it predating the cut, hence covered by its
    /// snapshot) is dropped.  Progress already made by fresh-epoch blocks that raced
    /// ahead of the local commit is kept.
    fn prepare_for_serve(&mut self, serve_seq: u64) {
        self.pending.clear();
        self.min_epoch = serve_seq;
        self.stall_mark = None;
        self.stalled = false;
    }

    /// Records one more buffered message; returns true when this growth crosses into the
    /// stalled condition (threshold reached with no block received since it was reached).
    fn note_buffer_growth(&mut self) -> bool {
        if self.pending.len() < self.stall_threshold {
            return false;
        }
        match self.stall_mark {
            None => {
                self.stall_mark = Some(self.blocks_received);
                false
            }
            Some(mark) if self.blocks_received == mark && !self.stalled => {
                self.stalled = true;
                self.stalled_events += 1;
                true
            }
            Some(_) => false,
        }
    }
}

/// What the joiner-side view handling decided to do at one view event.
enum JoinerAction {
    /// A deferred transfer completed at this cut; nothing to replay (the buffer was
    /// covered by the snapshot and cleared).
    Completed,
    /// This cut is our fresh serve cut; the epoch fence is in place.
    Prepared,
    /// Our source departed: a re-request marker must be GBCAST to force a fresh cut.
    Rerequest,
}

/// Joiner-side view handling: completes a deferred transfer once its serve cut installs,
/// prepares for a fresh serve when this cut carries our re-request marker, and detects a
/// dead source (a departure while we are still waiting) by re-requesting at a fresh cut.
fn joiner_side(
    inner: &Rc<RefCell<Inner>>,
    ctx: &mut ToolCtx<'_>,
    ev: &ViewEvent,
    me: ProcessId,
    group: GroupId,
) {
    if inner.borrow().ready || !ev.view.contains(me) {
        return;
    }
    let action = {
        let mut state = inner.borrow_mut();
        let my_marker = ev.gbcasts.iter().any(|g| rerequest_joiner(g) == Some(me));
        if state
            .complete_at
            .is_some_and(|epoch| ev.view.seq() >= epoch)
        {
            // The serve cut whose final block already arrived has now installed locally.
            // Everything buffered up to this instant predates the cut (the endpoint holds
            // post-cut traffic until the view installs) and is therefore covered by the
            // snapshot: drop it, don't replay it.
            state.pending.clear();
            let _ = state.finish_transfer();
            JoinerAction::Completed
        } else if my_marker {
            // This cut is our fresh serve cut.  Everything buffered so far predates it and
            // is covered by the snapshot (being) served at it; blocks of the fresh epoch
            // that raced ahead of our commit remain valid.  Do NOT re-request here — the
            // marker's presence means the flush we asked for is exactly this one.
            state.prepare_for_serve(ev.view.seq());
            JoinerAction::Prepared
        } else if !ev.view.joined.contains(&me)
            && !ev.view.departed.is_empty()
            && state.reserve_enabled
        {
            // A process departed while our transfer was in flight — possibly our source.
            // Whatever partial state we hold was encoded at a cut that can no longer be
            // completed exactly-once, so discard it and ask for a snapshot at a fresh cut.
            state.abandon_transfer(ev.view.seq());
            state.rerequests_sent += 1;
            JoinerAction::Rerequest
        } else {
            return;
        }
    };
    match action {
        JoinerAction::Completed | JoinerAction::Prepared => {}
        JoinerAction::Rerequest => {
            ctx.trace(format!(
                "transfer source departed before completion at view {}; re-requesting a \
                 snapshot at a fresh cut",
                ev.view.seq()
            ));
            let mut req = Message::new();
            req.set("xfer-rerequest", true);
            req.set("xfer-joiner", Address::Process(me));
            ctx.send(
                Address::Group(group),
                EntryId::GENERIC_XFER,
                req,
                ProtocolKind::Gbcast,
            );
        }
    }
}

/// Sending side: when this member is the oldest operational one, push its state to every
/// member the cut obliges it to serve — the view's fresh joiners plus any still-waiting
/// member whose re-request marker rides this cut.
fn sender_side(inner: &Rc<RefCell<Inner>>, ctx: &mut ToolCtx<'_>, ev: &ViewEvent, me: ProcessId) {
    let mut targets: Vec<ProcessId> = ev
        .view
        .joined
        .iter()
        .copied()
        .filter(|j| *j != me)
        .collect();
    for g in &ev.gbcasts {
        let Some(requester) = rerequest_joiner(g) else {
            continue;
        };
        if requester != me && ev.view.contains(requester) && !targets.contains(&requester) {
            targets.push(requester);
        }
    }
    if targets.is_empty() || ev.view.rank_of(me) != Some(0) || !inner.borrow().ready {
        return;
    }
    let blocks = {
        let mut state = inner.borrow_mut();
        let mut encode = std::mem::replace(&mut state.encode, Box::new(Vec::new));
        drop(state);
        let blocks = encode();
        let mut state = inner.borrow_mut();
        state.encode = encode;
        state.transfers_served += 1;
        blocks
    };
    let covered_wire = ev.covered.to_wire();
    let epoch = ev.view.seq();
    for joiner in &targets {
        let total = blocks.len().max(1);
        if blocks.is_empty() {
            // Even an empty state sends one terminating block so the joiner knows it is up
            // to date.
            let mut m = Message::new();
            m.set("xfer-last", true);
            m.set("xfer-epoch", epoch);
            m.set("xfer-covered", covered_wire.clone());
            ctx.send(
                Address::Process(*joiner),
                EntryId::GENERIC_XFER,
                m,
                ProtocolKind::Cbcast,
            );
            continue;
        }
        for (i, block) in blocks.iter().enumerate() {
            let mut m = block.clone();
            m.set("xfer-block", i as u64);
            m.set("xfer-last", i + 1 == total);
            m.set("xfer-epoch", epoch);
            m.set("xfer-covered", covered_wire.clone());
            ctx.send(
                Address::Process(*joiner),
                EntryId::GENERIC_XFER,
                m,
                ProtocolKind::Cbcast,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_flags() {
        let t = StateTransfer::new(GroupId(1), Vec::new, |_ctx, _m| {});
        assert!(!t.is_ready());
        t.mark_ready();
        assert!(t.is_ready());
        assert_eq!(t.transfers_served(), 0);
        assert_eq!(t.rerequests_sent(), 0);
        assert_eq!(t.buffered_len(), 0);
        assert!(t.covered().is_none());
        assert!(!t.inner.borrow().stalled);
        assert_eq!(t.stalled_events(), 0);
    }

    #[test]
    fn stall_detection_trips_once_per_quiet_period() {
        let t = StateTransfer::new(GroupId(1), Vec::new, |_ctx, _m| {}).with_stall_threshold(2);
        let mut inner = t.inner.borrow_mut();
        inner.pending.push((EntryId(3), Message::new()));
        assert!(!inner.note_buffer_growth(), "below threshold");
        inner.pending.push((EntryId(3), Message::new()));
        assert!(!inner.note_buffer_growth(), "first crossing arms the mark");
        inner.pending.push((EntryId(3), Message::new()));
        assert!(inner.note_buffer_growth(), "no progress since the mark");
        inner.pending.push((EntryId(3), Message::new()));
        assert!(!inner.note_buffer_growth(), "already reported");
        assert_eq!(inner.stalled_events, 1);
        // A received block resets the detector.
        inner.stall_mark = None;
        inner.stalled = false;
        inner.pending.push((EntryId(3), Message::new()));
        assert!(!inner.note_buffer_growth(), "re-arms after progress");
        inner.pending.push((EntryId(3), Message::new()));
        assert!(inner.note_buffer_growth(), "trips again if progress stops");
        assert_eq!(inner.stalled_events, 2);
    }

    #[test]
    fn buffer_limit_bookkeeping() {
        let t = StateTransfer::new(GroupId(1), Vec::new, |_ctx, _m| {});
        {
            let mut inner = t.inner.borrow_mut();
            inner.max_buffered = 3;
            inner.last_view_seq = 5;
            for _ in 0..3 {
                inner.pending.push((EntryId(3), Message::new()));
            }
            // What the overflow branch does, without driving a full system: fence one
            // past the current view and drop everything.
            inner.buffer_overflows += 1;
            let fence = inner.last_view_seq + 1;
            inner.abandon_transfer(fence);
            assert!(inner.pending.is_empty());
            assert_eq!(
                inner.min_epoch, 6,
                "current-epoch stragglers are fenced too"
            );
        }
        assert_eq!(t.inner.borrow().buffer_overflows, 1);
        assert_eq!(t.buffered_len(), 0);
    }

    #[test]
    fn abandon_fences_off_the_dead_cut() {
        let t = StateTransfer::new(GroupId(1), Vec::new, |_ctx, _m| {});
        let mut inner = t.inner.borrow_mut();
        inner.pending.push((EntryId(3), Message::new()));
        inner.covered = Some(Frontier::new());
        inner.complete_at = Some(4);
        inner.abandon_transfer(7);
        assert!(inner.pending.is_empty());
        assert!(inner.covered.is_none());
        assert!(inner.complete_at.is_none());
        assert_eq!(inner.min_epoch, 7);
    }
}
