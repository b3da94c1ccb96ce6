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
//! # The joiner
//!
//! Whether a member holds the state is one `Joiner`, written only by `next`:
//!
//! ```text
//! any ── mark ready, founded alone ──▶ Ready
//! Ready ── admitted (back from an exile) ──▶ Waiting{fence: the view}
//! Waiting ── admitted, own re-request in the cut ──▶ Waiting{fence: the view}, held dropped
//! Waiting ── departure ──▶ Waiting{fence: the view}, held dropped, re-request
//! Waiting ── message, buffer full ──▶ Waiting{fence: installed + 1}, held dropped, re-request
//! Waiting ── block older than the fence ──▶ the same (a straggler)
//! Waiting ── last block, its cut installed ──▶ Ready, held replayed
//! Waiting ── last block, its cut not installed ──▶ Waiting{done at: the cut}
//! Waiting{done at c} ── view c or later ──▶ Ready, held dropped
//! ```
//!
//! A re-request goes out once per fence.  The *fence* is the serve cut the member accepts
//! blocks from: every re-serve is a snapshot at a fresh cut, so a straggler block from a
//! superseded one can never corrupt it.
//!
//! # Survivor re-serve
//!
//! If the transfer *source* crashes after the cut but before the joiner received the final
//! block, nobody else holds a snapshot taken at the joiner's cut — re-encoding at
//! request-processing time cannot be exactly-once, because post-cut traffic is already
//! sitting in the joiner's buffer.  The tool therefore recovers by forcing a **fresh cut**:
//! when a still-waiting member sees a view that removes processes, it fences onto that view,
//! drops its post-cut buffer and GBCASTs a re-request marker.  The marker rides the next
//! flush and is delivered in the resulting view event's `gbcasts`, exactly at that new cut —
//! where the (new) rank-0 member encodes a fresh snapshot and serves it like any join-cut
//! transfer.  Every block carries the view sequence of its serve cut (`xfer-epoch`).  A
//! buffer that overflows takes the same path.
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

/// A buffered entry's application handler, shared by its entry binding and the replay.
type Handler = Rc<RefCell<dyn FnMut(&mut ToolCtx<'_>, &Message)>>;

/// Held messages at which a waiting member sets its stall mark: one more with no block in
/// between traces a `TransferStalled`.
const STALL_THRESHOLD: usize = 32;

/// Messages a waiting member holds at most.  The next one drops them all, traces a
/// `BufferOverflow` and re-requests the snapshot at a fresh cut: memory stays bounded under
/// hostile load at the cost of restarting the transfer.
const MAX_BUFFERED: usize = 1024;

/// Whether this member holds the group's state.
enum Joiner {
    /// The creator, a founder, or a joiner whose transfer completed.
    Ready,
    /// Waiting for a snapshot.
    Waiting {
        /// The serve cut blocks must come from, or a later one.
        fence: u64,
        /// Messages for buffered entries, in arrival order.
        held: Vec<(EntryId, Message)>,
        /// The cut of a final block already applied, whose view has not installed here.
        done_at: Option<u64>,
        /// The held count when it first reached [`STALL_THRESHOLD`] since the last block.
        stall_mark: Option<usize>,
    },
}

impl Joiner {
    fn waiting(fence: u64) -> Joiner {
        Joiner::Waiting {
            fence,
            held: Vec::new(),
            done_at: None,
            stall_mark: None,
        }
    }

    fn ready(&self) -> bool {
        matches!(self, Joiner::Ready)
    }
}

/// What moves the joiner.  The views are ones that hold this member, each given by the first
/// of these that it is; `installed` is the newest view installed here.
enum Input {
    MarkReady,
    /// The view holds this member alone: it founded the group.
    Founded,
    /// The view admits this member.
    Admitted(u64),
    /// The view's cut carries this member's re-request.
    Marker(u64),
    /// A process departed at the view.
    Departure(u64),
    View(u64),
    /// A snapshot block served at cut `epoch`.
    Block {
        epoch: u64,
        last: bool,
        installed: u64,
    },
    /// A message for a buffered entry.
    Buffered(EntryId, Message, u64),
}

/// What the handlers do for a transition, in order.
enum Action {
    /// Apply the block at hand.
    Apply,
    /// Run these messages through their entries' handlers.
    Replay(Vec<(EntryId, Message)>),
    /// GBCAST a re-request marker: the cut it rides serves this member afresh.
    Rerequest,
    /// The transfer starts over: forget the covered frontier and trace why.
    Restart(Restart),
    /// Trace a stall with this many messages held.
    Stalled(usize),
}

/// Why a transfer starts over.
enum Restart {
    /// Re-admitted at this view after an exile.
    Exiled(u64),
    /// A process, perhaps the source, departed at this view.
    Departed(u64),
    /// The buffer overflowed, dropping this many messages.
    Overflow(usize),
}

/// The transition function.
fn next(joiner: Joiner, input: Input) -> (Joiner, Vec<Action>) {
    use Input::*;
    use Joiner::*;
    // Starts over at `fence` (dropping what is held), re-requesting unless `from` was it.
    let restart = |from: u64, fence: u64, why| {
        let mut actions = vec![Action::Restart(why)];
        if fence > from {
            actions.push(Action::Rerequest);
        }
        (Joiner::waiting(fence), actions)
    };
    match (joiner, input) {
        (_, MarkReady | Founded) => (Ready, Vec::new()),
        (Ready, Admitted(seq)) => (
            Joiner::waiting(seq),
            vec![Action::Restart(Restart::Exiled(seq))],
        ),
        (Ready, Buffered(entry, msg, _)) => (Ready, vec![Action::Replay(vec![(entry, msg)])]),
        (Ready, _) => (Ready, Vec::new()),
        // The serve cut whose final block already applied has installed: everything held
        // predates it (the endpoint holds post-cut traffic until the view installs), so the
        // snapshot covers it.
        (
            Waiting {
                done_at: Some(cut), ..
            },
            Admitted(seq) | Marker(seq) | Departure(seq) | View(seq),
        ) if seq >= cut => (Ready, Vec::new()),
        // This cut serves this member: what it holds predates the cut, and blocks of the cut
        // that raced ahead of the commit stay applied.
        (Waiting { done_at, .. }, Admitted(seq) | Marker(seq)) => (
            Waiting {
                fence: seq,
                held: Vec::new(),
                done_at,
                stall_mark: None,
            },
            Vec::new(),
        ),
        // Whatever partial state this member holds was encoded at a cut that can no longer
        // be completed exactly once.
        (Waiting { fence, .. }, Departure(seq)) => restart(fence, seq, Restart::Departed(seq)),
        // A snapshot that never arrived cannot say which held messages it covers, so the
        // next view's cut must serve them all (this message included).
        (Waiting { fence, held, .. }, Buffered(_, _, installed)) if held.len() >= MAX_BUFFERED => {
            restart(fence, installed + 1, Restart::Overflow(held.len() + 1))
        }
        (
            Waiting {
                fence,
                mut held,
                done_at,
                stall_mark,
            },
            Buffered(entry, msg, _),
        ) => {
            held.push((entry, msg));
            let (stall_mark, actions) = match stall_mark {
                Some(mark) if held.len() == mark + 1 => {
                    (stall_mark, vec![Action::Stalled(held.len())])
                }
                None if held.len() >= STALL_THRESHOLD => (Some(held.len()), Vec::new()),
                _ => (stall_mark, Vec::new()),
            };
            let joiner = Waiting {
                fence,
                held,
                done_at,
                stall_mark,
            };
            (joiner, actions)
        }
        (
            Waiting {
                fence,
                held,
                done_at,
                ..
            },
            Block {
                epoch,
                last,
                installed,
            },
        ) if epoch >= fence => {
            if last && installed >= epoch {
                (Ready, vec![Action::Apply, Action::Replay(held)])
            } else {
                let done_at = if last { Some(epoch) } else { done_at };
                let joiner = Waiting {
                    fence,
                    held,
                    done_at,
                    stall_mark: None,
                };
                (joiner, vec![Action::Apply])
            }
        }
        (joiner, _) => (joiner, Vec::new()),
    }
}

struct Inner {
    group: GroupId,
    encode: EncodeFn,
    apply: ApplyFn,
    joiner: Joiner,
    /// The covered frontier tagged onto the most recently applied snapshot block: which
    /// pre-cut messages the transferred state already includes.
    covered: Option<Frontier>,
    /// The application handlers behind [`StateTransfer::on_entry_buffered`].
    handlers: BTreeMap<EntryId, Handler>,
    /// Sequence of the most recent view event observed for the group.
    installed: u64,
    blocks_received: u64,
    transfers_served: u64,
    rerequests_sent: u64,
}

impl Inner {
    /// Moves the joiner by `input` and returns what to do.
    fn advance(&mut self, input: Input) -> Vec<Action> {
        let (joiner, actions) = next(std::mem::replace(&mut self.joiner, Joiner::Ready), input);
        self.joiner = joiner;
        actions
    }
}

/// The state-transfer tool attached to one group member (or joiner).
#[derive(Clone)]
pub struct StateTransfer {
    inner: Rc<RefCell<Inner>>,
}

/// True if `payload` is a re-serve request marker, returning the requesting member.
fn rerequest_joiner(payload: &Message) -> Option<ProcessId> {
    if !payload.get_bool("xfer-rerequest").unwrap_or(false) {
        return None;
    }
    payload.get_addr("xfer-joiner").and_then(|a| a.as_process())
}

/// The joiner's input for a view event, `None` for a view without this member.
fn view_input(ev: &ViewEvent, me: ProcessId) -> Option<Input> {
    let seq = ev.view.seq();
    Some(if !ev.view.contains(me) {
        return None;
    } else if ev.view.len() == 1 {
        Input::Founded
    } else if ev.view.joined.contains(&me) {
        Input::Admitted(seq)
    } else if ev.gbcasts.iter().any(|g| rerequest_joiner(g) == Some(me)) {
        Input::Marker(seq)
    } else if !ev.view.departed.is_empty() {
        Input::Departure(seq)
    } else {
        Input::View(seq)
    })
}

/// Moves the joiner by `input` and runs the actions `next` returns; `block` is the snapshot
/// block at hand, if the input is one.
fn step(inner: &Rc<RefCell<Inner>>, ctx: &mut ToolCtx<'_>, input: Input, block: Option<&Message>) {
    let actions = inner.borrow_mut().advance(input);
    // The callbacks run outside the state borrow: they may read the tool.
    for action in actions {
        match action {
            Action::Apply => {
                let Some(block) = block else { continue };
                let mut apply = {
                    let mut state = inner.borrow_mut();
                    state.blocks_received += 1;
                    if let Some(covered) = block.get_u64_list("xfer-covered") {
                        state.covered = Some(Frontier::from_wire(covered));
                    }
                    std::mem::replace(&mut state.apply, Box::new(|_ctx, _m| {}))
                };
                apply(ctx, block);
                inner.borrow_mut().apply = apply;
            }
            Action::Replay(held) => {
                for (entry, msg) in held {
                    let handler = inner.borrow().handlers.get(&entry).cloned();
                    if let Some(handler) = handler {
                        (handler.borrow_mut())(ctx, &msg);
                    }
                }
            }
            Action::Rerequest => {
                let group = {
                    let mut state = inner.borrow_mut();
                    state.rerequests_sent += 1;
                    state.group
                };
                let mut req = Message::new();
                req.set("xfer-rerequest", true);
                req.set("xfer-joiner", Address::Process(ctx.me()));
                let to = Address::Group(group);
                ctx.send(to, EntryId::GENERIC_XFER, req, ProtocolKind::Gbcast);
            }
            Action::Restart(why) => {
                inner.borrow_mut().covered = None;
                ctx.trace(match why {
                    Restart::Exiled(seq) => {
                        format!("rejoined at view {seq} after exile; awaiting a fresh snapshot")
                    }
                    Restart::Departed(seq) => format!(
                        "transfer source departed before completion at view {seq}; \
                         re-requesting a snapshot at a fresh cut"
                    ),
                    Restart::Overflow(dropped) => format!(
                        "BufferOverflow: dropped {dropped} buffered messages; \
                         re-requesting a snapshot at a fresh cut"
                    ),
                });
            }
            Action::Stalled(held) => {
                let blocks = inner.borrow().blocks_received;
                ctx.trace(format!(
                    "TransferStalled: {held} messages buffered with no snapshot progress \
                     (blocks_received={blocks})"
                ));
            }
        }
    }
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
                joiner: Joiner::waiting(0),
                covered: None,
                handlers: BTreeMap::new(),
                installed: 0,
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
        let handler: Handler = Rc::new(RefCell::new(handler));
        let inner = self.inner.clone();
        inner.borrow_mut().handlers.insert(entry, handler.clone());
        builder.on_entry(entry, move |ctx, msg| {
            // `next`'s answer for a ready member, without building its input.
            if inner.borrow().joiner.ready() {
                return (handler.borrow_mut())(ctx, msg);
            }
            let installed = inner.borrow().installed;
            step(
                &inner,
                ctx,
                Input::Buffered(entry, msg.clone(), installed),
                None,
            );
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
            let block = Input::Block {
                epoch: msg.get_u64("xfer-epoch").unwrap_or(0),
                last: msg.get_bool("xfer-last").unwrap_or(false),
                installed: inner.borrow().installed,
            };
            step(&inner, ctx, block, Some(msg));
        });

        // View monitor: the joiner's view inputs, then the sending side.  Both run inside
        // the stack's view-change dispatch — synchronously at the flush cut.
        let inner = self.inner.clone();
        builder.on_view_change(group, move |ctx, ev| {
            let me = ctx.me();
            inner.borrow_mut().installed = ev.view.seq();
            if let Some(input) = view_input(ev, me) {
                step(&inner, ctx, input, None);
            }
            sender_side(&inner, ctx, ev, me);
        });
    }

    /// Marks this member as already holding the authoritative state (the group creator calls
    /// this *before any traffic flows*; joiners become ready when their transfer completes).
    pub fn mark_ready(&self) {
        self.inner.borrow_mut().advance(Input::MarkReady);
    }

    /// True once this member holds the full state (creator, or joiner after transfer).
    pub fn is_ready(&self) -> bool {
        self.inner.borrow().joiner.ready()
    }

    /// The covered frontier tagged onto the received snapshot: which pre-cut messages the
    /// transferred state already includes.  `None` before any tagged block arrived.
    pub fn covered(&self) -> Option<Frontier> {
        self.inner.borrow().covered.clone()
    }

    /// Number of messages currently held by buffered entries awaiting the snapshot.
    pub fn buffered_len(&self) -> usize {
        match &self.inner.borrow().joiner {
            Joiner::Ready => 0,
            Joiner::Waiting { held, .. } => held.len(),
        }
    }

    /// Number of joins this member served as the transfer source.
    pub fn transfers_served(&self) -> u64 {
        self.inner.borrow().transfers_served
    }

    /// Number of snapshot re-requests this member issued.
    pub fn rerequests_sent(&self) -> u64 {
        self.inner.borrow().rerequests_sent
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
    if targets.is_empty() || ev.view.rank_of(me) != Some(0) || !inner.borrow().joiner.ready() {
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

    fn joiner(label: &str) -> Joiner {
        let waiting = |fence, held, done_at, stall_mark| Joiner::Waiting {
            fence,
            held: vec![(EntryId(3), Message::new()); held],
            done_at,
            stall_mark,
        };
        match label {
            "ready" => Joiner::Ready,
            "waiting 5 held 2" => waiting(5, 2, None, None),
            "waiting 5 held 31" => waiting(5, 31, None, None),
            "waiting 5 held 32 mark 32" => waiting(5, 32, None, Some(32)),
            "waiting 5 held 1024 mark 32" => waiting(5, MAX_BUFFERED, None, Some(32)),
            "waiting 7 held 1024 mark 32" => waiting(7, MAX_BUFFERED, None, Some(32)),
            "waiting 5 held 2 done 7" => waiting(5, 2, Some(7), None),
            other => panic!("no joiner {other:?}"),
        }
    }

    /// Blocks and messages arrive with view 6 installed; the views are view 7.
    fn input(label: &str) -> Input {
        let block = |epoch, last| Input::Block {
            epoch,
            last,
            installed: 6,
        };
        match label {
            "mark ready" => Input::MarkReady,
            "founded" => Input::Founded,
            "admitted 7" => Input::Admitted(7),
            "marker 7" => Input::Marker(7),
            "departure 7" => Input::Departure(7),
            "view 7" => Input::View(7),
            "block 4" => block(4, false),
            "block 6" => block(6, false),
            "last block 6" => block(6, true),
            "last block 7" => block(7, true),
            "message" => Input::Buffered(EntryId(3), Message::new(), 6),
            other => panic!("no input {other:?}"),
        }
    }

    fn label(joiner: &Joiner) -> String {
        match joiner {
            Joiner::Ready => "ready".into(),
            Joiner::Waiting {
                fence,
                held,
                done_at,
                stall_mark,
            } => {
                let mut label = format!("waiting {fence} held {}", held.len());
                if let Some(mark) = stall_mark {
                    label += &format!(" mark {mark}");
                }
                if let Some(cut) = done_at {
                    label += &format!(" done {cut}");
                }
                label
            }
        }
    }

    fn actions(actions: &[Action]) -> String {
        let labels: Vec<String> = actions
            .iter()
            .map(|action| match action {
                Action::Apply => "apply".into(),
                Action::Replay(held) => format!("replay {}", held.len()),
                Action::Rerequest => "rerequest".into(),
                Action::Restart(Restart::Exiled(seq)) => format!("restart exiled {seq}"),
                Action::Restart(Restart::Departed(seq)) => format!("restart departed {seq}"),
                Action::Restart(Restart::Overflow(dropped)) => {
                    format!("restart overflow {dropped}")
                }
                Action::Stalled(held) => format!("stalled {held}"),
            })
            .collect();
        if labels.is_empty() {
            "-".into()
        } else {
            labels.join(", ")
        }
    }

    /// Feeds `by` to the joiner labelled `from`; returns the next one's label and the actions'.
    fn run(from: Joiner, by: Input) -> (Joiner, String) {
        let (to, acts) = next(from, by);
        (to, actions(&acts))
    }

    const JOINERS: [&str; 7] = [
        "ready",
        "waiting 5 held 2",
        "waiting 5 held 31",
        "waiting 5 held 32 mark 32",
        "waiting 5 held 1024 mark 32",
        // Overflowed while view 6 was installed, so its re-request already went out.
        "waiting 7 held 1024 mark 32",
        // The final block of cut 7 applied before view 7 installed.
        "waiting 5 held 2 done 7",
    ];

    const INPUTS: [&str; 11] = [
        "mark ready",
        "founded",
        "admitted 7",
        "marker 7",
        "departure 7",
        "view 7",
        "block 4",
        "block 6",
        "last block 6",
        "last block 7",
        "message",
    ];

    /// Every (joiner, input) pair once: the joiner after it and the actions asked for.  The
    /// tool feeds every pair; a ready member's entry binding answers `message` itself, as the
    /// row says, without building the input.
    const TABLE: &[(&str, &str, &str, &str)] = &[
        ("ready", "mark ready", "ready", "-"),
        ("ready", "founded", "ready", "-"),
        // The exile re-arm.
        (
            "ready",
            "admitted 7",
            "waiting 7 held 0",
            "restart exiled 7",
        ),
        ("ready", "marker 7", "ready", "-"),
        ("ready", "departure 7", "ready", "-"),
        ("ready", "view 7", "ready", "-"),
        ("ready", "block 4", "ready", "-"),
        ("ready", "block 6", "ready", "-"),
        ("ready", "last block 6", "ready", "-"),
        ("ready", "last block 7", "ready", "-"),
        ("ready", "message", "ready", "replay 1"),
        ("waiting 5 held 2", "mark ready", "ready", "-"),
        ("waiting 5 held 2", "founded", "ready", "-"),
        ("waiting 5 held 2", "admitted 7", "waiting 7 held 0", "-"),
        // The own-marker fence.
        ("waiting 5 held 2", "marker 7", "waiting 7 held 0", "-"),
        // The dead-source re-request.
        (
            "waiting 5 held 2",
            "departure 7",
            "waiting 7 held 0",
            "restart departed 7, rerequest",
        ),
        ("waiting 5 held 2", "view 7", "waiting 5 held 2", "-"),
        // A stale-epoch block.
        ("waiting 5 held 2", "block 4", "waiting 5 held 2", "-"),
        ("waiting 5 held 2", "block 6", "waiting 5 held 2", "apply"),
        (
            "waiting 5 held 2",
            "last block 6",
            "ready",
            "apply, replay 2",
        ),
        // The deferred completion, armed.
        (
            "waiting 5 held 2",
            "last block 7",
            "waiting 5 held 2 done 7",
            "apply",
        ),
        ("waiting 5 held 2", "message", "waiting 5 held 3", "-"),
        ("waiting 5 held 31", "mark ready", "ready", "-"),
        ("waiting 5 held 31", "founded", "ready", "-"),
        ("waiting 5 held 31", "admitted 7", "waiting 7 held 0", "-"),
        ("waiting 5 held 31", "marker 7", "waiting 7 held 0", "-"),
        (
            "waiting 5 held 31",
            "departure 7",
            "waiting 7 held 0",
            "restart departed 7, rerequest",
        ),
        ("waiting 5 held 31", "view 7", "waiting 5 held 31", "-"),
        ("waiting 5 held 31", "block 4", "waiting 5 held 31", "-"),
        ("waiting 5 held 31", "block 6", "waiting 5 held 31", "apply"),
        (
            "waiting 5 held 31",
            "last block 6",
            "ready",
            "apply, replay 31",
        ),
        (
            "waiting 5 held 31",
            "last block 7",
            "waiting 5 held 31 done 7",
            "apply",
        ),
        // The stall mark is set...
        (
            "waiting 5 held 31",
            "message",
            "waiting 5 held 32 mark 32",
            "-",
        ),
        ("waiting 5 held 32 mark 32", "mark ready", "ready", "-"),
        ("waiting 5 held 32 mark 32", "founded", "ready", "-"),
        (
            "waiting 5 held 32 mark 32",
            "admitted 7",
            "waiting 7 held 0",
            "-",
        ),
        (
            "waiting 5 held 32 mark 32",
            "marker 7",
            "waiting 7 held 0",
            "-",
        ),
        (
            "waiting 5 held 32 mark 32",
            "departure 7",
            "waiting 7 held 0",
            "restart departed 7, rerequest",
        ),
        (
            "waiting 5 held 32 mark 32",
            "view 7",
            "waiting 5 held 32 mark 32",
            "-",
        ),
        (
            "waiting 5 held 32 mark 32",
            "block 4",
            "waiting 5 held 32 mark 32",
            "-",
        ),
        // ...a block clears it...
        (
            "waiting 5 held 32 mark 32",
            "block 6",
            "waiting 5 held 32",
            "apply",
        ),
        (
            "waiting 5 held 32 mark 32",
            "last block 6",
            "ready",
            "apply, replay 32",
        ),
        (
            "waiting 5 held 32 mark 32",
            "last block 7",
            "waiting 5 held 32 done 7",
            "apply",
        ),
        // ...and the next message without one reports.
        (
            "waiting 5 held 32 mark 32",
            "message",
            "waiting 5 held 33 mark 32",
            "stalled 33",
        ),
        ("waiting 5 held 1024 mark 32", "mark ready", "ready", "-"),
        ("waiting 5 held 1024 mark 32", "founded", "ready", "-"),
        (
            "waiting 5 held 1024 mark 32",
            "admitted 7",
            "waiting 7 held 0",
            "-",
        ),
        (
            "waiting 5 held 1024 mark 32",
            "marker 7",
            "waiting 7 held 0",
            "-",
        ),
        (
            "waiting 5 held 1024 mark 32",
            "departure 7",
            "waiting 7 held 0",
            "restart departed 7, rerequest",
        ),
        (
            "waiting 5 held 1024 mark 32",
            "view 7",
            "waiting 5 held 1024 mark 32",
            "-",
        ),
        (
            "waiting 5 held 1024 mark 32",
            "block 4",
            "waiting 5 held 1024 mark 32",
            "-",
        ),
        (
            "waiting 5 held 1024 mark 32",
            "block 6",
            "waiting 5 held 1024",
            "apply",
        ),
        (
            "waiting 5 held 1024 mark 32",
            "last block 6",
            "ready",
            "apply, replay 1024",
        ),
        (
            "waiting 5 held 1024 mark 32",
            "last block 7",
            "waiting 5 held 1024 done 7",
            "apply",
        ),
        // The overflow: fenced one past the installed view.
        (
            "waiting 5 held 1024 mark 32",
            "message",
            "waiting 7 held 0",
            "restart overflow 1025, rerequest",
        ),
        ("waiting 7 held 1024 mark 32", "mark ready", "ready", "-"),
        ("waiting 7 held 1024 mark 32", "founded", "ready", "-"),
        (
            "waiting 7 held 1024 mark 32",
            "admitted 7",
            "waiting 7 held 0",
            "-",
        ),
        (
            "waiting 7 held 1024 mark 32",
            "marker 7",
            "waiting 7 held 0",
            "-",
        ),
        // One re-request per fence: this one's went out at the overflow.
        (
            "waiting 7 held 1024 mark 32",
            "departure 7",
            "waiting 7 held 0",
            "restart departed 7",
        ),
        (
            "waiting 7 held 1024 mark 32",
            "view 7",
            "waiting 7 held 1024 mark 32",
            "-",
        ),
        (
            "waiting 7 held 1024 mark 32",
            "block 4",
            "waiting 7 held 1024 mark 32",
            "-",
        ),
        (
            "waiting 7 held 1024 mark 32",
            "block 6",
            "waiting 7 held 1024 mark 32",
            "-",
        ),
        (
            "waiting 7 held 1024 mark 32",
            "last block 6",
            "waiting 7 held 1024 mark 32",
            "-",
        ),
        (
            "waiting 7 held 1024 mark 32",
            "last block 7",
            "waiting 7 held 1024 done 7",
            "apply",
        ),
        (
            "waiting 7 held 1024 mark 32",
            "message",
            "waiting 7 held 0",
            "restart overflow 1025",
        ),
        ("waiting 5 held 2 done 7", "mark ready", "ready", "-"),
        ("waiting 5 held 2 done 7", "founded", "ready", "-"),
        // The deferred completion, at its cut's view whatever else the view says.
        ("waiting 5 held 2 done 7", "admitted 7", "ready", "-"),
        ("waiting 5 held 2 done 7", "marker 7", "ready", "-"),
        ("waiting 5 held 2 done 7", "departure 7", "ready", "-"),
        ("waiting 5 held 2 done 7", "view 7", "ready", "-"),
        (
            "waiting 5 held 2 done 7",
            "block 4",
            "waiting 5 held 2 done 7",
            "-",
        ),
        (
            "waiting 5 held 2 done 7",
            "block 6",
            "waiting 5 held 2 done 7",
            "apply",
        ),
        (
            "waiting 5 held 2 done 7",
            "last block 6",
            "ready",
            "apply, replay 2",
        ),
        (
            "waiting 5 held 2 done 7",
            "last block 7",
            "waiting 5 held 2 done 7",
            "apply",
        ),
        (
            "waiting 5 held 2 done 7",
            "message",
            "waiting 5 held 3 done 7",
            "-",
        ),
    ];

    #[test]
    fn every_joiner_answers_every_input() {
        let pairs: std::collections::BTreeSet<(&str, &str)> =
            TABLE.iter().map(|(j, by, _, _)| (*j, *by)).collect();
        assert_eq!(pairs.len(), TABLE.len(), "one row per pair");
        assert_eq!(
            pairs.len(),
            JOINERS.len() * INPUTS.len(),
            "every (joiner, input) pair is a row"
        );
        for (from, by, to, act) in TABLE {
            let (next_joiner, next_actions) = run(joiner(from), input(by));
            assert_eq!(
                (label(&next_joiner).as_str(), next_actions.as_str()),
                (*to, *act),
                "{from} + {by}"
            );
        }
    }

    #[test]
    fn readiness_flags() {
        let t = StateTransfer::new(GroupId(1), Vec::new, |_ctx, _m| {});
        assert!(!t.is_ready());
        assert_eq!(label(&t.inner.borrow().joiner), "waiting 0 held 0");
        t.mark_ready();
        assert!(t.is_ready());
        assert_eq!(t.transfers_served(), 0);
        assert_eq!(t.rerequests_sent(), 0);
        assert_eq!(t.buffered_len(), 0);
        assert!(t.covered().is_none());
        // Only `next` moves the joiner, and it drops what a member held when it turns ready
        // without a snapshot.
        for from in ["waiting 5 held 2", "ready"] {
            for by in ["mark ready", "founded"] {
                let (to, acts) = run(joiner(from), input(by));
                assert_eq!((label(&to), acts), ("ready".into(), "-".into()));
            }
        }
    }

    #[test]
    fn stall_detection_trips_once_per_quiet_period() {
        let mut state = joiner("waiting 5 held 31");
        let mut feed = |by: &str| {
            let (to, acts) = run(std::mem::replace(&mut state, Joiner::Ready), input(by));
            state = to;
            (label(&state), acts)
        };
        let said = |to: &str, acts: &str| (to.to_string(), acts.to_string());
        assert_eq!(
            feed("message"),
            said("waiting 5 held 32 mark 32", "-"),
            "marks"
        );
        assert_eq!(
            feed("message"),
            said("waiting 5 held 33 mark 32", "stalled 33"),
            "no block since the mark"
        );
        assert_eq!(
            feed("message"),
            said("waiting 5 held 34 mark 32", "-"),
            "already reported"
        );
        assert_eq!(
            feed("block 6"),
            said("waiting 5 held 34", "apply"),
            "a block resets it"
        );
        assert_eq!(
            feed("message"),
            said("waiting 5 held 35 mark 35", "-"),
            "re-arms after progress"
        );
        assert_eq!(
            feed("message"),
            said("waiting 5 held 36 mark 35", "stalled 36"),
            "trips again if progress stops"
        );
    }

    #[test]
    fn buffer_limit_bookkeeping() {
        // The buffer overflows while view 5 is installed: fenced one past it, so that
        // current-epoch stragglers are fenced too, and re-requested.
        let full = || joiner("waiting 5 held 1024 mark 32");
        let overflow = || Input::Buffered(EntryId(3), Message::new(), 5);
        let (state, acts) = run(full(), overflow());
        assert_eq!(
            (label(&state), acts.as_str()),
            (
                "waiting 6 held 0".into(),
                "restart overflow 1025, rerequest"
            )
        );
        let (state, acts) = run(state, input("block 4"));
        assert_eq!(
            (label(&state), acts.as_str()),
            ("waiting 6 held 0".into(), "-")
        );
        let block = Input::Block {
            epoch: 5,
            last: true,
            installed: 5,
        };
        let (mut state, acts) = run(state, block);
        assert_eq!(
            (label(&state), acts.as_str()),
            ("waiting 6 held 0".into(), "-")
        );
        // It fills again in the same view: dropped again, but the re-request stands.
        if let Joiner::Waiting { held, .. } = &mut state {
            held.resize(MAX_BUFFERED, (EntryId(3), Message::new()));
        }
        let (state, acts) = run(state, overflow());
        assert_eq!(
            (label(&state), acts.as_str()),
            ("waiting 6 held 0".into(), "restart overflow 1025")
        );
    }

    #[test]
    fn abandon_fences_off_the_dead_cut() {
        // A final block of cut 8 applied early, then a departure at view 7 (before cut 8 has
        // installed here): the partial state goes, blocks of the dead serve are fenced off.
        let waiting = Joiner::Waiting {
            fence: 4,
            held: vec![(EntryId(3), Message::new())],
            done_at: Some(8),
            stall_mark: None,
        };
        let (state, acts) = run(waiting, input("departure 7"));
        assert_eq!(
            (label(&state), acts.as_str()),
            ("waiting 7 held 0".into(), "restart departed 7, rerequest")
        );
        let (state, acts) = run(state, input("last block 6"));
        assert_eq!(
            (label(&state), acts.as_str()),
            ("waiting 7 held 0".into(), "-")
        );
        let fresh = Input::Block {
            epoch: 7,
            last: true,
            installed: 7,
        };
        let (state, acts) = run(state, fresh);
        assert_eq!(
            (label(&state), acts.as_str()),
            ("ready".into(), "apply, replay 0")
        );
    }
}
