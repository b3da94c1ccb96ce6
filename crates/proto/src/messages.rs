//! Wire format of the protocol messages exchanged between group endpoints.
//!
//! On the wire every protocol message is a regular, self-describing ISIS message (named,
//! typed fields in the format of [`vsync_msg::codec`]), so the transport layer and the
//! statistics that drive Table 1 / Figure 3 see realistic field-structured payloads.  In
//! the program it is a typed [`ProtoMsg`], and the two are converted **directly**: one
//! writer ([`ProtoMsg::into_frame`]) streams the fields into bytes in a single pass, one
//! reader ([`ProtoMsg::decode_frame`]) picks them back out of the bytes, and no
//! [`Message`] tree is built in either direction.  The only trees left are the
//! application payloads the messages carry.
//!
//! A frame is *born* with its typed value in the memo slot, so inside one process — every
//! site of the simulator, a commit relayed onwards — a frame is never parsed at all; the
//! bytes are read once per receiving site after they cross a thread boundary.  Multicasts
//! held for a flush are held as bytes, travel inside `FlushAck` / `FlushCommit` by splicing
//! those bytes, come back out as frames aliasing the carrier's segments, and are read as
//! far as their ids until a commit delivers them (`StoredMsg::header`).
//!
//! The bytes are held as a [`Segments`] list: a payload's large byte string (a 64 KiB body,
//! a state-transfer block) is never copied into a frame — not when the frame is written,
//! not when a flush carries the frame onwards — but spliced in as a segment of its own, and
//! the payload a receiver reads aliases that segment.  Everything else about a frame, and
//! every frame without such a value, is one buffer as before.
//!
//! Every frame names the group it belongs to and is routed to that group's endpoint, except
//! the conversations between *site stacks*, which the receiving stack answers itself: the
//! reform pair, for a group with no live endpoint; [`ProtoMsg::Relay`], a non-member
//! client's multicast; and [`ProtoMsg::Stability`], the sending site's report on every group
//! it shares with the destination, a list of [`StabilityEntry`] routed entry by entry (a
//! lone endpoint's gossip is the list of one).  Besides these frames, a stack sends a peer
//! stack only its heartbeat: an empty message, known by its packet kind.
//!
//! [`ProtoMsg::encode`] and [`ProtoMsg::decode`] convert to and from a [`Message`] tree by
//! going through the bytes; they exist for tests and tools that want to look at (or
//! tamper with) a message as a symbol table.

use std::rc::Rc;

use vsync_msg::stream::{FieldCursor, FieldWriter};
use vsync_msg::{codec, Frame, Message, Segments};
use vsync_net::{MsgId, ProtocolKind};
use vsync_util::{GroupId, ProcessId, Result, SiteId, VectorClock, VsError};

use crate::frontier::{Frontier, IdSet};
use crate::view::{process_addrs, View};

/// Thread-local counters of frame-level protocol encode/decode work on the packet path.
///
/// Only *uncached* work is counted: frames written ([`ProtoMsg::into_frame`], and
/// [`ProtoMsg::encode_frame`] through it) and [`ProtoMsg::decode_frame`] memo misses.  Tests
/// use the deltas to pin the fan-out invariant — a multicast performs one encode total, no
/// parse inside the process it was born in and at most one per receiving site beyond a
/// thread boundary — without instrumenting release builds with shared atomics.
/// Thread-local because the simulator is single-threaded while `cargo test` runs tests on
/// parallel threads.
pub mod wire_stats {
    use std::cell::Cell;

    thread_local! {
        static ENCODES: Cell<u64> = const { Cell::new(0) };
        static DECODES: Cell<u64> = const { Cell::new(0) };
    }

    /// Wire frames encoded on this thread so far.
    pub fn frame_encodes() -> u64 {
        ENCODES.with(|c| c.get())
    }

    /// Protocol-message parses performed on this thread so far (memo hits excluded).
    pub fn frame_decodes() -> u64 {
        DECODES.with(|c| c.get())
    }

    pub(super) fn note_encode() {
        ENCODES.with(|c| c.set(c.get() + 1));
    }

    pub(super) fn note_decode() {
        DECODES.with(|c| c.set(c.get() + 1));
    }
}

/// A multicast message held by an endpoint (received but not yet known stable), in the form
/// it travels inside flush reports and commits.  The wire form is a [`Frame`]: handing a
/// received multicast to the stability buffer shares the packet's bytes (the buffer keeps
/// those, not the frame), reporting it in a flush ack splices them, and taking it back out
/// of an ack or commit aliases *those* bytes — the message is never re-encoded and never
/// becomes a tree on the way.  A flush reads a copy's id and protocol off its first fields
/// (`StoredMsg::header`) and parses the rest only to deliver it.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredMsg {
    /// The original data-bearing protocol message (`CbData` or `AbData`) in wire form.
    pub wire: Frame,
    /// For an ABCAST: its final priority if it is decided — at the reporting site (in an
    /// ack) or by the flush (in a commit, where every ABCAST carries one).  `None` for a
    /// CBCAST and for an ABCAST the reporting site has not decided.
    pub ab_priority: Option<u64>,
}

impl From<Frame> for StoredMsg {
    /// A copy as an endpoint first holds it: no ABCAST decision yet.
    fn from(wire: Frame) -> Self {
        StoredMsg {
            wire,
            ab_priority: None,
        }
    }
}

/// A data message's id and protocol: what a flush needs to know of a copy it may never
/// deliver.  The stability buffer puts one in the memo slot of each frame it makes of a held
/// copy's bytes, so that no holder of that frame in this process reads the bytes for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DataHeader {
    pub(crate) id: MsgId,
    pub(crate) protocol: ProtocolKind,
}

impl StoredMsg {
    /// The id and protocol (CBCAST or ABCAST) of the multicast this copy holds, without
    /// parsing it: off the frame's memo — its typed value, or the header a stability buffer
    /// left there — or else off the first fields of its bytes, since every data message
    /// starts with its type tag, its group and its id.  Counted by neither [`wire_stats`]
    /// counter.  Fails if the copy is not a data message or its first fields do not read.
    pub(crate) fn header(&self) -> Result<DataHeader> {
        let not_data =
            |tag: &str| VsError::Internal(format!("stored message is not a data message: {tag}"));
        if let Some(header) = self.wire.memo_get::<DataHeader>() {
            return Ok(*header);
        }
        if let Some((_, msg)) = self.wire.memo_get::<(GroupId, ProtoMsg)>() {
            let (id, protocol) = match msg {
                ProtoMsg::CbData { id, .. } => (*id, ProtocolKind::Cbcast),
                ProtoMsg::AbData { id, .. } => (*id, ProtocolKind::Abcast),
                other => return Err(not_data(other.type_tag())),
            };
            return Ok(DataHeader { id, protocol });
        }
        self.wire.wire_body()?.read_with(|body| {
            let mut c = FieldCursor::new(body)?;
            let protocol = match c.str(TYPE_FIELD)? {
                "cb-data" => ProtocolKind::Cbcast,
                "ab-data" => ProtocolKind::Abcast,
                other => return Err(not_data(other)),
            };
            get_group(&mut c, GROUP_FIELD)?;
            let id = get_msg_id(&mut c)?;
            Ok(DataHeader { id, protocol })
        })
    }

    /// The copy as a frame that holds its typed value, for delivery.  A frame with an empty
    /// memo slot is parsed in place, once for every holder in this process; one whose slot
    /// holds a header is parsed into a frame of its own, which goes with the delivery.
    pub(crate) fn typed(&self) -> Result<Frame> {
        let frame = match self.wire.memo_get::<DataHeader>() {
            Some(_) => {
                Frame::from_wire_sized(self.wire.wire_segments(), self.wire.known_model_len())
            }
            None => self.wire.clone(),
        };
        ProtoMsg::decode_frame(&frame)?;
        Ok(frame)
    }
}

/// One group's report in a [`ProtoMsg::Stability`] frame: the ids the sending site has
/// received in that group's current view.
///
/// On the wire an entry nests as `{ group, view-seq, runs, ids? }`: `runs` is
/// `[origin, lo, hi, ...]`, one triple per origin on FIFO traffic, and `ids` is
/// `[origin, seq, ...]`, single ids received beyond a gap that is still open, absent
/// otherwise (see `IdSet::wire_runs`).  An entry's size therefore follows the number of
/// sites, not the number of messages in the view.
#[derive(Clone, Debug, PartialEq)]
pub struct StabilityEntry {
    /// The group reported on.
    pub group: GroupId,
    /// View sequence number the ids belong to.
    pub view_seq: u64,
    /// Ids of messages received at the reporting site: a handle on the set the reporting
    /// endpoint's tracker keeps, so building a frame copies no run list.
    pub received: Rc<IdSet>,
}

/// Typed protocol messages exchanged between the group endpoints of different sites.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtoMsg {
    /// CBCAST data message.
    CbData {
        /// Unique id of the multicast.
        id: MsgId,
        /// The application-level sender.
        sender: ProcessId,
        /// Rank of the sender's endpoint in the view the message was sent in.
        sender_rank: u64,
        /// View sequence number the message was sent in.
        view_seq: u64,
        /// Vector timestamp governing causal delivery.
        vt: VectorClock,
        /// Application payload.
        payload: Message,
    },
    /// ABCAST phase one: the data-bearing transmission.
    AbData {
        /// Unique id of the multicast.
        id: MsgId,
        /// The application-level sender.
        sender: ProcessId,
        /// View sequence number the message was sent in.
        view_seq: u64,
        /// Application payload.
        payload: Message,
    },
    /// ABCAST phase one response: a destination proposes a priority.
    AbPropose {
        /// The multicast being ordered.
        id: MsgId,
        /// View sequence number.
        view_seq: u64,
        /// The proposed priority.
        proposed: u64,
        /// Site making the proposal (tie-break component).
        proposer_site: SiteId,
    },
    /// ABCAST phase two: the initiator announces the final priority.
    AbOrder {
        /// The multicast being ordered.
        id: MsgId,
        /// View sequence number.
        view_seq: u64,
        /// Final (maximum) priority.
        final_priority: u64,
        /// Tie-break site carried with the final priority.
        tiebreak_site: SiteId,
    },
    /// Request, sent to the group coordinator's site, to add a member.
    JoinReq {
        /// The process asking to join.
        joiner: ProcessId,
        /// Credentials checked by the protection tool before the join is admitted.
        credentials: Option<String>,
    },
    /// Request, sent to the group coordinator's site, to remove a member voluntarily.
    LeaveReq {
        /// The departing member.
        member: ProcessId,
    },
    /// Report, sent to the group coordinator's site, that members are believed failed.
    FailReport {
        /// The failed members.
        failed: Vec<ProcessId>,
    },
    /// A user-level GBCAST forwarded to the coordinator to be delivered at the next cut.
    GbcastReq {
        /// The application-level sender.
        sender: ProcessId,
        /// Payload to deliver, everywhere, at the same point relative to all other events.
        payload: Message,
    },
    /// Flush phase one: the coordinator asks every member site for its unstable state.
    FlushReq {
        /// Sequence number of the view this flush will install.
        target_seq: u64,
        /// The member coordinating the flush.
        initiator: ProcessId,
        /// Retry counter (a takeover after a coordinator failure bumps it).
        attempt: u64,
    },
    /// Flush phase two: a member site reports its unstable messages and its ABCAST clock.
    FlushAck {
        /// Sequence number of the view being installed.
        target_seq: u64,
        /// The reporting site.
        from_site: SiteId,
        /// The site's ABCAST priority clock: at least every priority it has delivered.  The
        /// coordinator settles an ABCAST nobody reports decided above every site's clock.
        ab_clock: u64,
        /// Messages received in the current view that are not known stable.
        stored: Vec<StoredMsg>,
    },
    /// The answer to a `FlushAck` whose flush its initiator no longer runs: every attempt of
    /// the initiator's below `attempt` was abandoned, so no commit will come from the ack.
    FlushAbandoned {
        /// Sequence number of the view the abandoned flush would have installed.
        target_seq: u64,
        /// The initiator's next attempt number: every attempt below it is over.
        attempt: u64,
    },
    /// Flush phase three: the coordinator distributes the agreed cut and the new view.
    FlushCommit {
        /// The new view; its sequence number is the one this flush installs.
        view: View,
        /// Messages every member must deliver (if it has not already) before the view event.
        deliver: Vec<StoredMsg>,
        /// Per-origin sequence frontier of the pre-cut history: every message covered by it
        /// is part of the state a snapshot taken at this cut includes.  Joining endpoints
        /// suppress redelivery of covered messages — their effects arrive via the state
        /// transfer instead, which is what keeps join-under-load exactly-once.
        covered: Frontier,
        /// User GBCAST payloads delivered at the cut, in this exact order.
        gbcasts: Vec<Message>,
    },
    /// Stability gossip: what one site has received, for every group it reports on to the
    /// destination — a site-level frame, one per peer site per tick however many groups the
    /// two sites share.  The frame-level group every protocol frame names is its first
    /// entry's and selects nothing: a receiver routes by the entries.
    Stability {
        /// The reporting site.
        from_site: SiteId,
        /// One report per group, in the order the sender visited them.  A receiver applies
        /// every entry it hosts an endpoint for and drops the others; groups may repeat or
        /// arrive unsorted.
        entries: Vec<StabilityEntry>,
    },
    /// Total-failure reform: a restarting site summarises its recovery log so the group
    /// can elect the "last to fail" log as authoritative (paper Section 3.8).
    ReformSummary {
        /// The restarting site offering its log.
        from_site: SiteId,
        /// Highest view sequence number the log records (installed or marked).
        view_seq: u64,
        /// Per-origin delivery frontier the log covers (tie-break after view seq).
        covered: Frontier,
        /// Rank the summarising site's member held in its last logged view (second
        /// tie-break: lower rank = older member).
        rank: u64,
    },
    /// Total-failure reform: reply telling a restarting site that the group is in fact
    /// operational, so it must abandon the reform and rejoin through the normal
    /// join + state-transfer path instead.
    ReformAlive {
        /// A site currently hosting a live member, usable as the join contact.
        contact: SiteId,
    },
    /// A multicast from a client at a site with no member of the group, on its way to a site
    /// with one (paper Figure 1), which makes it under the payload's `@sender`.  The frame's
    /// group is the destination.
    Relay {
        /// CBCAST, ABCAST or GBCAST.
        protocol: ProtocolKind,
        /// The stamped application message.
        payload: Message,
    },
}

const TYPE_FIELD: &str = "@g-type";
const GROUP_FIELD: &str = "@g-group";
const ID_ORIGIN: &str = "id-origin";
const ID_SEQ: &str = "id-seq";

fn put_msg_id(w: &mut FieldWriter, id: MsgId) {
    w.put_u64(ID_ORIGIN, id.origin.0 as u64);
    w.put_u64(ID_SEQ, id.seq);
}

fn get_msg_id(c: &mut FieldCursor<'_>) -> Result<MsgId> {
    let origin = c.u64(ID_ORIGIN)?;
    let seq = c.u64(ID_SEQ)?;
    Ok(MsgId::new(SiteId(origin as u16), seq))
}

fn get_process(c: &mut FieldCursor<'_>, name: &str) -> Result<ProcessId> {
    c.addr(name)?
        .as_process()
        .ok_or_else(|| VsError::CodecError(format!("field {name:?} is not a process address")))
}

fn get_site(c: &mut FieldCursor<'_>, name: &str) -> Result<SiteId> {
    Ok(SiteId(c.u64(name)? as u16))
}

fn get_group(c: &mut FieldCursor<'_>, name: &str) -> Result<GroupId> {
    c.addr(name)?
        .as_group()
        .ok_or_else(|| VsError::CodecError(format!("field {name:?} is not a group address")))
}

/// Name of element `i` of a packed list (`i0`, `i1`, ...), formatted into `buf` — flush-era
/// lists name one field per element, and neither direction may allocate a string for it.
fn item_name(i: usize, buf: &mut [u8; 21]) -> &str {
    let mut at = buf.len();
    let mut n = i;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    at -= 1;
    buf[at] = b'i';
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Writes a packed list: a nested message holding the count `n` and one field per element.
fn put_list<T>(
    w: &mut FieldWriter,
    name: &str,
    items: &[T],
    put: impl Fn(&mut FieldWriter, &str, &T),
) {
    w.put_nested(name, |w| {
        w.put_u64("n", items.len() as u64);
        let mut buf = [0u8; 21];
        for (i, item) in items.iter().enumerate() {
            put(w, item_name(i, &mut buf), item);
        }
    });
}

/// Reads a packed list written by [`put_list`].
fn get_list<'a, T>(
    c: &mut FieldCursor<'a>,
    name: &str,
    get: impl Fn(&mut FieldCursor<'a>, &str) -> Result<T>,
) -> Result<Vec<T>> {
    c.nested(name, |list| {
        let n = list.u64("n")? as usize;
        // Every element is a field of the list, which bounds what `n` can honestly be.
        let mut items = Vec::with_capacity(n.min(list.field_count()));
        let mut buf = [0u8; 21];
        for i in 0..n {
            items.push(get(list, item_name(i, &mut buf))?);
        }
        Ok(items)
    })
}

/// A stored multicast nests as `{ wire: <its frame's bytes, spliced>, abp? }`.
fn put_stored(w: &mut FieldWriter, name: &str, stored: &StoredMsg) {
    w.put_nested(name, |w| {
        match stored.wire.wire_body() {
            Ok(body) => w.put_encoded("wire", &body, stored.wire.model_len()),
            // Held frames were decoded before they were held, so this cannot happen to a
            // frame the endpoint stored; a hand-built one travels as an empty message,
            // which the receiver skips as undecodable.
            Err(_) => w.put_nested("wire", |_| {}),
        }
        if let Some(p) = stored.ab_priority {
            w.put_u64("abp", p);
        }
    });
}

fn get_stored(c: &mut FieldCursor<'_>, name: &str) -> Result<StoredMsg> {
    c.nested(name, |c| {
        Ok(StoredMsg {
            wire: Frame::from_wire_body(c.encoded("wire")?),
            ab_priority: c.opt_u64("abp")?,
        })
    })
}

/// A stability entry nests as `{ group, view-seq, runs, ids? }`, its runs streamed straight
/// out of the set.
fn put_entry(w: &mut FieldWriter, name: &str, entry: &StabilityEntry) {
    w.put_nested(name, |w| {
        w.put_addr("group", entry.group);
        w.put_u64("view-seq", entry.view_seq);
        w.put_u64_iter("runs", entry.received.wire_runs());
        let mut ids = entry.received.wire_ids().peekable();
        if ids.peek().is_some() {
            w.put_u64_iter("ids", ids);
        }
    });
}

fn get_entry(c: &mut FieldCursor<'_>, name: &str) -> Result<StabilityEntry> {
    c.nested(name, |c| {
        Ok(StabilityEntry {
            group: get_group(c, "group")?,
            view_seq: c.u64("view-seq")?,
            received: Rc::new(IdSet::from_wire(
                &c.u64_list("runs")?.to_vec(),
                &c.opt_u64_list("ids")?
                    .map(|l| l.to_vec())
                    .unwrap_or_default(),
            )),
        })
    })
}

/// Bytes to reserve for a list of stored multicasts: what splicing each frame copies (its
/// large segments go in by reference), plus the fields around it.
fn stored_len(stored: &[StoredMsg]) -> usize {
    stored
        .iter()
        .map(|s| 32 + s.wire.wire_body().map_or(0, |body| body.buffered_len()))
        .sum()
}

impl ProtoMsg {
    /// Human-readable tag used on the wire and in traces.
    pub fn type_tag(&self) -> &'static str {
        match self {
            ProtoMsg::CbData { .. } => "cb-data",
            ProtoMsg::AbData { .. } => "ab-data",
            ProtoMsg::AbPropose { .. } => "ab-propose",
            ProtoMsg::AbOrder { .. } => "ab-order",
            ProtoMsg::JoinReq { .. } => "join-req",
            ProtoMsg::LeaveReq { .. } => "leave-req",
            ProtoMsg::FailReport { .. } => "fail-report",
            ProtoMsg::GbcastReq { .. } => "gbcast-req",
            ProtoMsg::FlushReq { .. } => "flush-req",
            ProtoMsg::FlushAck { .. } => "flush-ack",
            ProtoMsg::FlushAbandoned { .. } => "flush-abandoned",
            ProtoMsg::FlushCommit { .. } => "flush-commit",
            ProtoMsg::Stability { .. } => "stability",
            ProtoMsg::ReformSummary { .. } => "reform-summary",
            ProtoMsg::ReformAlive { .. } => "reform-alive",
            ProtoMsg::Relay { .. } => "relay",
        }
    }

    /// Streams the message's wire form — the one place each protocol field is written.
    fn write(&self, group: GroupId) -> FieldWriter {
        let reserve = match self {
            ProtoMsg::CbData { vt, payload, .. } => {
                8 * vt.entries().len() + codec::buffered_len(payload)
            }
            ProtoMsg::AbData { payload, .. }
            | ProtoMsg::GbcastReq { payload, .. }
            | ProtoMsg::Relay { payload, .. } => codec::buffered_len(payload),
            ProtoMsg::FlushAck { stored, .. } => stored_len(stored),
            ProtoMsg::FlushCommit {
                deliver, gbcasts, ..
            } => 256 + stored_len(deliver) + gbcasts.iter().map(codec::buffered_len).sum::<usize>(),
            ProtoMsg::Stability { entries, .. } => entries
                .iter()
                .map(|e| 64 + 24 * e.received.runs().len())
                .sum(),
            _ => 0,
        };
        let mut w = FieldWriter::with_capacity(192 + reserve);
        w.put_str(TYPE_FIELD, self.type_tag());
        w.put_addr(GROUP_FIELD, group);
        match self {
            ProtoMsg::CbData {
                id,
                sender,
                sender_rank,
                view_seq,
                vt,
                payload,
            } => {
                put_msg_id(&mut w, *id);
                w.put_addr("sender", *sender);
                w.put_u64("sender-rank", *sender_rank);
                w.put_u64("view-seq", *view_seq);
                w.put_u64_list("vt", vt.entries());
                w.put_message("payload", payload);
            }
            ProtoMsg::AbData {
                id,
                sender,
                view_seq,
                payload,
            } => {
                put_msg_id(&mut w, *id);
                w.put_addr("sender", *sender);
                w.put_u64("view-seq", *view_seq);
                w.put_message("payload", payload);
            }
            ProtoMsg::AbPropose {
                id,
                view_seq,
                proposed,
                proposer_site,
            } => {
                put_msg_id(&mut w, *id);
                w.put_u64("view-seq", *view_seq);
                w.put_u64("proposed", *proposed);
                w.put_u64("proposer-site", proposer_site.0 as u64);
            }
            ProtoMsg::AbOrder {
                id,
                view_seq,
                final_priority,
                tiebreak_site,
            } => {
                put_msg_id(&mut w, *id);
                w.put_u64("view-seq", *view_seq);
                w.put_u64("final", *final_priority);
                w.put_u64("tiebreak-site", tiebreak_site.0 as u64);
            }
            ProtoMsg::JoinReq {
                joiner,
                credentials,
            } => {
                w.put_addr("joiner", *joiner);
                if let Some(c) = credentials {
                    w.put_str("credentials", c);
                }
            }
            ProtoMsg::LeaveReq { member } => w.put_addr("member", *member),
            ProtoMsg::FailReport { failed } => w.put_addr_list("failed", process_addrs(failed)),
            ProtoMsg::GbcastReq { sender, payload } => {
                w.put_addr("sender", *sender);
                w.put_message("payload", payload);
            }
            ProtoMsg::FlushReq {
                target_seq,
                initiator,
                attempt,
            } => {
                w.put_u64("target-seq", *target_seq);
                w.put_addr("initiator", *initiator);
                w.put_u64("attempt", *attempt);
            }
            ProtoMsg::FlushAck {
                target_seq,
                from_site,
                ab_clock,
                stored,
            } => {
                w.put_u64("target-seq", *target_seq);
                w.put_u64("from-site", from_site.0 as u64);
                w.put_u64("ab-clock", *ab_clock);
                put_list(&mut w, "stored", stored, put_stored);
            }
            ProtoMsg::FlushAbandoned {
                target_seq,
                attempt,
            } => {
                w.put_u64("target-seq", *target_seq);
                w.put_u64("attempt", *attempt);
            }
            ProtoMsg::FlushCommit {
                view,
                deliver,
                covered,
                gbcasts,
            } => {
                view.write_fields(&mut w);
                put_list(&mut w, "deliver", deliver, put_stored);
                w.put_u64_list("covered", &covered.to_wire());
                put_list(&mut w, "gbcasts", gbcasts, FieldWriter::put_message);
            }
            ProtoMsg::Stability { from_site, entries } => {
                w.put_u64("from-site", from_site.0 as u64);
                put_list(&mut w, "entries", entries, put_entry);
            }
            ProtoMsg::ReformSummary {
                from_site,
                view_seq,
                covered,
                rank,
            } => {
                w.put_u64("from-site", from_site.0 as u64);
                w.put_u64("view-seq", *view_seq);
                w.put_u64_list("covered", &covered.to_wire());
                w.put_u64("rank", *rank);
            }
            ProtoMsg::ReformAlive { contact } => w.put_u64("contact", contact.0 as u64),
            ProtoMsg::Relay { protocol, payload } => {
                w.put_str("protocol", protocol.name());
                w.put_message("payload", payload);
            }
        }
        w
    }

    /// Reads a message out of an encoded body — the one place each protocol field is read.
    /// Fields are asked for in the order [`ProtoMsg::write`] writes them, so the cursor
    /// passes every byte once; any other order decodes to the same value, only slower.
    ///
    /// Every field the protocol depends on is required: a `cb-data` without its timestamp
    /// would sit undeliverable in the holdback queue until the next flush, a `stability`
    /// entry without its runs would read as "received nothing", a commit or reform summary
    /// without its frontier as "covers nothing" — each a silent stall or a silent wrong
    /// answer where a decode error belongs.
    ///
    /// Segment boundaries are followed where [`ProtoMsg::write`] puts them; a body cut
    /// anywhere else is read as one buffer ([`Segments::read_with`]).
    fn read(body: &Segments) -> Result<(GroupId, ProtoMsg)> {
        body.read_with(ProtoMsg::read_fields)
    }

    /// One pass of [`ProtoMsg::read`] over `body` as it is cut.
    fn read_fields(body: &Segments) -> Result<(GroupId, ProtoMsg)> {
        let mut c = FieldCursor::new(body)?;
        let tag = c.str(TYPE_FIELD)?;
        let group = get_group(&mut c, GROUP_FIELD)?;
        let msg = match tag {
            "cb-data" => ProtoMsg::CbData {
                id: get_msg_id(&mut c)?,
                sender: get_process(&mut c, "sender")?,
                sender_rank: c.u64("sender-rank")?,
                view_seq: c.u64("view-seq")?,
                vt: VectorClock::from_entries(c.u64_list("vt")?.to_vec()),
                payload: c.message("payload")?,
            },
            "ab-data" => ProtoMsg::AbData {
                id: get_msg_id(&mut c)?,
                sender: get_process(&mut c, "sender")?,
                view_seq: c.u64("view-seq")?,
                payload: c.message("payload")?,
            },
            "ab-propose" => ProtoMsg::AbPropose {
                id: get_msg_id(&mut c)?,
                view_seq: c.u64("view-seq")?,
                proposed: c.u64("proposed")?,
                proposer_site: get_site(&mut c, "proposer-site")?,
            },
            "ab-order" => ProtoMsg::AbOrder {
                id: get_msg_id(&mut c)?,
                view_seq: c.u64("view-seq")?,
                final_priority: c.u64("final")?,
                tiebreak_site: get_site(&mut c, "tiebreak-site")?,
            },
            "join-req" => ProtoMsg::JoinReq {
                joiner: get_process(&mut c, "joiner")?,
                credentials: c.opt_str("credentials")?.map(str::to_owned),
            },
            "leave-req" => ProtoMsg::LeaveReq {
                member: get_process(&mut c, "member")?,
            },
            "fail-report" => ProtoMsg::FailReport {
                failed: c
                    .addr_list("failed")?
                    .iter()
                    .filter_map(|a| a.as_process())
                    .collect(),
            },
            "gbcast-req" => ProtoMsg::GbcastReq {
                sender: get_process(&mut c, "sender")?,
                payload: c.message("payload")?,
            },
            "flush-req" => ProtoMsg::FlushReq {
                target_seq: c.u64("target-seq")?,
                initiator: get_process(&mut c, "initiator")?,
                attempt: c.u64("attempt")?,
            },
            "flush-ack" => ProtoMsg::FlushAck {
                target_seq: c.u64("target-seq")?,
                from_site: get_site(&mut c, "from-site")?,
                ab_clock: c.u64("ab-clock")?,
                stored: get_list(&mut c, "stored", get_stored)?,
            },
            "flush-abandoned" => ProtoMsg::FlushAbandoned {
                target_seq: c.u64("target-seq")?,
                attempt: c.u64("attempt")?,
            },
            "flush-commit" => ProtoMsg::FlushCommit {
                view: View::read_fields(&mut c)?,
                deliver: get_list(&mut c, "deliver", get_stored)?,
                covered: Frontier::from_wire(&c.u64_list("covered")?.to_vec()),
                gbcasts: get_list(&mut c, "gbcasts", FieldCursor::message)?,
            },
            "stability" => ProtoMsg::Stability {
                from_site: get_site(&mut c, "from-site")?,
                entries: get_list(&mut c, "entries", get_entry)?,
            },
            "reform-summary" => ProtoMsg::ReformSummary {
                from_site: get_site(&mut c, "from-site")?,
                view_seq: c.u64("view-seq")?,
                covered: Frontier::from_wire(&c.u64_list("covered")?.to_vec()),
                rank: c.u64("rank")?,
            },
            "reform-alive" => ProtoMsg::ReformAlive {
                contact: get_site(&mut c, "contact")?,
            },
            "relay" => ProtoMsg::Relay {
                protocol: match c.str("protocol")? {
                    "CBCAST" => ProtocolKind::Cbcast,
                    "ABCAST" => ProtocolKind::Abcast,
                    "GBCAST" => ProtocolKind::Gbcast,
                    other => return Err(VsError::CodecError(format!("cannot relay {other:?}"))),
                },
                payload: c.message("payload")?,
            },
            other => {
                return Err(VsError::CodecError(format!(
                    "unknown protocol message type {other:?}"
                )))
            }
        };
        c.finish()?;
        Ok((group, msg))
    }

    /// Turns the message into its wire [`Frame`], tagged with the group it belongs to: the
    /// bytes are written in one pass and the typed message moves into the frame's memo slot,
    /// so every same-process receiver of the fan-out and anything that later forwards the
    /// frame read `self` back without parsing.  This is the
    /// packet-path entry point counted by [`wire_stats`].
    ///
    /// A debug assertion keeps the memo honest: the bytes must decode to the typed message
    /// they were written from, or a receiver beyond a thread boundary would see something
    /// else than the receivers on this side of it.
    pub fn into_frame(self, group: GroupId) -> Frame {
        wire_stats::note_encode();
        let frame = Frame::from_writer(self.write(group), (group, self));
        debug_assert_eq!(
            frame
                .wire_body()
                .and_then(|body| ProtoMsg::read(&body))
                .ok()
                .as_ref(),
            frame.memo_get::<(GroupId, ProtoMsg)>(),
            "ProtoMsg bytes do not decode to the message they were written from"
        );
        frame
    }

    /// [`ProtoMsg::into_frame`] for a message the caller keeps.
    pub fn encode_frame(&self, group: GroupId) -> Frame {
        self.clone().into_frame(group)
    }

    /// The typed message a wire frame stands for.  A frame born in this process carries it
    /// in its memo slot; a frame that arrived as bytes is parsed here **once** and the
    /// result memoized in the frame's shared allocation, so however many handlers, buffers
    /// and relays hold the frame, they all borrow this one value.
    ///
    /// A debug assertion keeps the cache honest: the typed message must survive a trip
    /// through its own wire form unchanged, otherwise what this site would re-send (a held
    /// copy reported in a flush) could parse differently from the memo.  The comparison is
    /// between typed messages, not wire forms, because decoding canonicalises id sets and
    /// frontiers: a peer's unsorted or overlapping runs are legal input.
    pub fn decode_frame(frame: &Frame) -> Result<&(GroupId, ProtoMsg)> {
        if let Some(hit) = frame.memo_get::<(GroupId, ProtoMsg)>() {
            return Ok(hit);
        }
        wire_stats::note_decode();
        let decoded = ProtoMsg::read(&frame.wire_body()?)?;
        debug_assert_eq!(
            ProtoMsg::decode(&decoded.1.encode(decoded.0)).ok().as_ref(),
            Some(&decoded),
            "ProtoMsg wire round-trip diverged; the decode memo would be unsound"
        );
        frame
            .memo_get_or_init(|| decoded)
            .ok_or_else(|| VsError::Internal("frame memo slot held by a foreign type".to_owned()))
    }

    /// True if `frame` carries a protocol message, without parsing it or building a tree:
    /// either it was born as one, or its first field is the type tag every protocol
    /// message starts with.  This is how the site stack routes an incoming packet.
    pub fn is_proto_frame(frame: &Frame) -> bool {
        frame.memo_get::<(GroupId, ProtoMsg)>().is_some()
            || frame.first_field_name() == Some(TYPE_FIELD)
    }

    /// The message as a [`Message`] tree: its wire bytes, decoded by the generic codec.
    pub fn encode(&self, group: GroupId) -> Message {
        codec::decode_segments(&self.write(group).finish().0)
            .expect("the field writer produces well-formed messages")
    }

    /// Decodes a protocol message from a [`Message`] tree (through the tree's wire bytes),
    /// returning the group it belongs to alongside the message.
    pub fn decode(m: &Message) -> Result<(GroupId, ProtoMsg)> {
        ProtoMsg::read(&codec::envelope_body(&codec::encode_segments(m))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::GroupId;

    fn p(site: u16, local: u32) -> ProcessId {
        ProcessId::new(SiteId(site), local)
    }

    fn roundtrip(msg: ProtoMsg) {
        let g = GroupId(42);
        let wire = msg.encode(g);
        let (g2, back) = ProtoMsg::decode(&wire).expect("decode");
        assert_eq!(g2, g);
        assert_eq!(back, msg);
    }

    #[test]
    fn cb_data_roundtrip() {
        roundtrip(ProtoMsg::CbData {
            id: MsgId::new(SiteId(1), 7),
            sender: p(1, 3),
            sender_rank: 2,
            view_seq: 5,
            vt: VectorClock::from_entries(vec![1, 0, 3]),
            payload: Message::with_body("hello").with("price", 9000u64),
        });
    }

    #[test]
    fn ab_messages_roundtrip() {
        roundtrip(ProtoMsg::AbData {
            id: MsgId::new(SiteId(0), 1),
            sender: p(0, 1),
            view_seq: 1,
            payload: Message::with_body(5u64),
        });
        roundtrip(ProtoMsg::AbPropose {
            id: MsgId::new(SiteId(0), 1),
            view_seq: 1,
            proposed: 17,
            proposer_site: SiteId(3),
        });
        roundtrip(ProtoMsg::AbOrder {
            id: MsgId::new(SiteId(0), 1),
            view_seq: 1,
            final_priority: 21,
            tiebreak_site: SiteId(2),
        });
    }

    #[test]
    fn membership_messages_roundtrip() {
        roundtrip(ProtoMsg::JoinReq {
            joiner: p(2, 1),
            credentials: Some("let-me-in".into()),
        });
        roundtrip(ProtoMsg::JoinReq {
            joiner: p(2, 1),
            credentials: None,
        });
        roundtrip(ProtoMsg::LeaveReq { member: p(1, 1) });
        roundtrip(ProtoMsg::FailReport {
            failed: vec![p(1, 1), p(1, 2)],
        });
        roundtrip(ProtoMsg::GbcastReq {
            sender: p(0, 2),
            payload: Message::with_body("config-update"),
        });
    }

    #[test]
    fn flush_messages_roundtrip() {
        let stored = vec![
            StoredMsg {
                wire: ProtoMsg::CbData {
                    id: MsgId::new(SiteId(1), 9),
                    sender: p(1, 1),
                    sender_rank: 1,
                    view_seq: 3,
                    vt: VectorClock::from_entries(vec![0, 1]),
                    payload: Message::with_body("update"),
                }
                .encode_frame(GroupId(42)),
                ab_priority: None,
            },
            StoredMsg {
                wire: ProtoMsg::AbData {
                    id: MsgId::new(SiteId(0), 4),
                    sender: p(0, 1),
                    view_seq: 3,
                    payload: Message::with_body("queue-op"),
                }
                .encode_frame(GroupId(42)),
                ab_priority: Some(12),
            },
        ];
        roundtrip(ProtoMsg::FlushReq {
            target_seq: 4,
            initiator: p(0, 1),
            attempt: 0,
        });
        roundtrip(ProtoMsg::FlushAck {
            target_seq: 4,
            from_site: SiteId(1),
            ab_clock: 12,
            stored: stored.clone(),
        });
        roundtrip(ProtoMsg::FlushAbandoned {
            target_seq: 4,
            attempt: 2,
        });
        // An ack that lost its clock would let the commit settle an ABCAST below a priority
        // the reporter already delivered.
        assert_field_is_required(
            ProtoMsg::FlushAck {
                target_seq: 4,
                from_site: SiteId(1),
                ab_clock: 12,
                stored: Vec::new(),
            },
            "ab-clock",
        );
        let view = View::founding(GroupId(42), p(0, 1)).successor(&[], &[p(1, 1)]);
        let mut covered = Frontier::new();
        covered.observe(MsgId::new(SiteId(1), 9));
        covered.observe(MsgId::new(SiteId(0), 4));
        roundtrip(ProtoMsg::FlushCommit {
            view: view.clone(),
            deliver: stored,
            covered,
            gbcasts: vec![Message::with_body("cfg")],
        });
        // An empty frontier (nothing unstable at the cut) also survives the wire.
        roundtrip(ProtoMsg::FlushCommit {
            view,
            deliver: Vec::new(),
            covered: Frontier::new(),
            gbcasts: Vec::new(),
        });
    }

    #[test]
    fn flush_commit_without_a_covered_frontier_is_rejected() {
        // A commit whose frontier was lost must fail loudly, not decode as "covers
        // nothing" (which would silently double-apply at joiners).
        let view = View::founding(GroupId(42), p(0, 1));
        let mut wire = ProtoMsg::FlushCommit {
            view,
            deliver: Vec::new(),
            covered: Frontier::new(),
            gbcasts: Vec::new(),
        }
        .encode(GroupId(42));
        assert!(ProtoMsg::decode(&wire).is_ok(), "intact commit decodes");
        wire.remove("covered");
        assert!(ProtoMsg::decode(&wire).is_err(), "lost frontier must error");
    }

    /// Encodes `msg`, drops one field from the tree, and checks the decoder notices.
    fn assert_field_is_required(msg: ProtoMsg, field: &str) {
        let mut wire = msg.encode(GroupId(42));
        assert!(ProtoMsg::decode(&wire).is_ok(), "intact message decodes");
        assert!(wire.remove(field).is_some(), "{field} was on the wire");
        assert!(
            ProtoMsg::decode(&wire).is_err(),
            "a {} without {field:?} must be a decode error",
            msg.type_tag()
        );
        // The frame path agrees.
        assert!(ProtoMsg::decode_frame(&Frame::new(wire)).is_err());
    }

    #[test]
    fn cb_data_without_a_timestamp_is_rejected() {
        // An empty timestamp never satisfies the causal delivery test: the message would
        // sit in the holdback queue until the next flush dropped it.
        assert_field_is_required(
            ProtoMsg::CbData {
                id: MsgId::new(SiteId(1), 7),
                sender: p(1, 3),
                sender_rank: 1,
                view_seq: 5,
                vt: VectorClock::from_entries(vec![0, 1]),
                payload: Message::with_body("x"),
            },
            "vt",
        );
    }

    /// A one-entry stability frame from site 3 about group 42's view 2.
    fn gossip(received: IdSet) -> ProtoMsg {
        ProtoMsg::Stability {
            from_site: SiteId(3),
            entries: vec![StabilityEntry {
                group: GroupId(42),
                view_seq: 2,
                received: received.into(),
            }],
        }
    }

    /// Entry `i` of a stability frame's tree form.
    fn entry_tree(wire: &Message, i: usize) -> &Message {
        wire.get_msg("entries")
            .and_then(|list| list.get_msg(&format!("i{i}")))
            .expect("entry")
    }

    /// Replaces entry `i` of a stability frame's tree form by `edit` of it.
    fn edit_entry(wire: &mut Message, i: usize, edit: impl FnOnce(&mut Message)) {
        let mut entry = entry_tree(wire, i).clone();
        edit(&mut entry);
        let mut list = wire.get_msg("entries").expect("entries").clone();
        list.set(&format!("i{i}"), entry);
        wire.set("entries", list);
    }

    #[test]
    fn stability_without_runs_is_rejected() {
        // "Received nothing" is a legal report; a report that lost its runs is not one —
        // and neither is a frame that lost its reporter or its entry list.
        let msg = gossip(id_set(&[(0, 1), (0, 2)]));
        assert_field_is_required(msg.clone(), "from-site");
        assert_field_is_required(msg.clone(), "entries");
        let mut wire = msg.encode(GroupId(42));
        assert!(ProtoMsg::decode(&wire).is_ok(), "intact frame decodes");
        edit_entry(&mut wire, 0, |entry| {
            assert!(entry.remove("runs").is_some(), "runs were on the wire");
        });
        assert!(ProtoMsg::decode(&wire).is_err());
        assert!(ProtoMsg::decode_frame(&Frame::new(wire)).is_err());
    }

    #[test]
    fn fail_report_without_its_list_is_rejected() {
        assert_field_is_required(
            ProtoMsg::FailReport {
                failed: vec![p(1, 1)],
            },
            "failed",
        );
    }

    fn id_set(ids: &[(u16, u64)]) -> IdSet {
        let mut set = IdSet::new();
        for (site, seq) in ids {
            set.insert(MsgId::new(SiteId(*site), *seq));
        }
        set
    }

    #[test]
    fn stability_roundtrip() {
        // FIFO traffic: one run per origin and no explicit ids on the wire.
        let fifo = gossip(id_set(&[(0, 1), (0, 2), (0, 3), (2, 8)]));
        let wire = fifo.encode(GroupId(42));
        assert_eq!(wire.get_u64("from-site"), Some(3));
        let entry = entry_tree(&wire, 0);
        assert_eq!(entry.get_addr("group"), Some(GroupId(42).into()));
        assert_eq!(entry.get_u64("view-seq"), Some(2));
        assert_eq!(entry.get_u64_list("runs"), Some(&[0, 1, 3, 2, 8, 8][..]));
        assert!(!entry.contains("ids"));
        roundtrip(fifo);
        // A gap open at origin 0: the id beyond it is listed explicitly, a longer stretch
        // beyond a gap is a second run.
        let gapped = gossip(id_set(&[(0, 1), (0, 2), (0, 4), (1, 5), (1, 7), (1, 8)]));
        let wire = gapped.encode(GroupId(42));
        let entry = entry_tree(&wire, 0);
        assert_eq!(
            entry.get_u64_list("runs"),
            Some(&[0, 1, 2, 1, 5, 5, 1, 7, 8][..])
        );
        assert_eq!(entry.get_u64_list("ids"), Some(&[0, 4][..]));
        roundtrip(gapped);
        // The probe of a wedged or just un-wedged endpoint has nothing to report.
        roundtrip(gossip(IdSet::new()));
    }

    #[test]
    fn a_stability_frame_carries_one_entry_per_group_in_the_senders_order() {
        // What a site hosting three groups sends a peer: three reports, each with its own
        // view stamp and set, under one reporter.  Order and repeats are the sender's.
        let bundle = ProtoMsg::Stability {
            from_site: SiteId(1),
            entries: vec![
                StabilityEntry {
                    group: GroupId(9),
                    view_seq: 4,
                    received: id_set(&[(0, 1), (1, 1), (1, 2)]).into(),
                },
                StabilityEntry {
                    group: GroupId(2),
                    view_seq: 7,
                    received: IdSet::new().into(),
                },
                StabilityEntry {
                    group: GroupId(9),
                    view_seq: 4,
                    received: id_set(&[(0, 1), (0, 3)]).into(),
                },
            ],
        };
        let wire = bundle.encode(GroupId(9));
        assert_eq!(
            wire.get_msg("entries").and_then(|l| l.get_u64("n")),
            Some(3)
        );
        assert_eq!(
            entry_tree(&wire, 1).get_addr("group"),
            Some(GroupId(2).into())
        );
        assert_eq!(entry_tree(&wire, 2).get_u64_list("ids"), Some(&[0, 3][..]));
        roundtrip(bundle);
        // No entry at all is a frame nobody sends, and still a frame that decodes.
        roundtrip(ProtoMsg::Stability {
            from_site: SiteId(1),
            entries: Vec::new(),
        });
    }

    #[test]
    fn stability_gossip_canonicalises_foreign_run_lists() {
        // Unsorted, overlapping and touching runs, an id inside a run, a repeated id, an
        // inverted run and a torn trailing element: legal input, one canonical set.
        let mut wire = gossip(IdSet::new()).encode(GroupId(42));
        edit_entry(&mut wire, 0, |entry| {
            entry.set(
                "runs",
                vec![2u64, 5, 9, 0, 4, 6, 0, 1, 3, 2, 8, 12, 1, 9, 2, 7],
            );
            entry.set("ids", vec![0u64, 2, 2, 14, 2, 14, 2, 13, 5]);
        });
        let expected = gossip(IdSet::from_wire(&[0, 1, 6, 2, 5, 14], &[]));
        let (_, decoded) = ProtoMsg::decode(&wire).expect("decode");
        assert_eq!(decoded, expected);
        let canonical = decoded.encode(GroupId(42));
        let entry = entry_tree(&canonical, 0);
        assert_eq!(entry.get_u64_list("runs"), Some(&[0, 1, 6, 2, 5, 14][..]));
        assert!(!entry.contains("ids"));
        // The frame path accepts it too: its debug round-trip assertion compares typed
        // messages, so a non-canonical wire form is not mistaken for a codec bug.
        let frame = Frame::new(wire);
        let (_, via_frame) = ProtoMsg::decode_frame(&frame).expect("decode_frame");
        assert_eq!(via_frame, &expected);
    }

    #[test]
    fn reform_messages_roundtrip() {
        let mut covered = Frontier::new();
        covered.observe(MsgId::new(SiteId(0), 11));
        covered.observe(MsgId::new(SiteId(2), 4));
        roundtrip(ProtoMsg::ReformSummary {
            from_site: SiteId(2),
            view_seq: 9,
            covered,
            rank: 1,
        });
        // A log with no deliveries (views only) summarises with an empty frontier.
        roundtrip(ProtoMsg::ReformSummary {
            from_site: SiteId(0),
            view_seq: 1,
            covered: Frontier::new(),
            rank: 0,
        });
        roundtrip(ProtoMsg::ReformAlive { contact: SiteId(3) });
    }

    #[test]
    fn relay_roundtrips_with_each_primitive_and_refuses_any_other() {
        let relay = |protocol| ProtoMsg::Relay {
            protocol,
            payload: Message::with_body("from afar").with("@sender", p(3, 1)),
        };
        for protocol in [
            ProtocolKind::Cbcast,
            ProtocolKind::Abcast,
            ProtocolKind::Gbcast,
        ] {
            roundtrip(relay(protocol));
        }
        // A relay that lost its payload has nothing to multicast, and one that names no
        // primitive, or one a relay cannot carry, must not turn into a CBCAST.
        assert_field_is_required(relay(ProtocolKind::Abcast), "payload");
        assert_field_is_required(relay(ProtocolKind::Abcast), "protocol");
        for name in ["local RPC", "reply", "abcast", ""] {
            let mut wire = relay(ProtocolKind::Abcast).encode(GroupId(42));
            wire.set("protocol", name);
            assert!(
                ProtoMsg::decode(&wire).is_err(),
                "relay of {name:?} decoded"
            );
            assert!(ProtoMsg::decode_frame(&Frame::new(wire)).is_err());
        }
    }

    #[test]
    fn list_element_names_count_up_without_a_table() {
        let mut buf = [0u8; 21];
        for (i, want) in [(0, "i0"), (9, "i9"), (10, "i10"), (63, "i63"), (64, "i64")] {
            assert_eq!(item_name(i, &mut buf), want);
        }
        assert_eq!(
            item_name(usize::MAX, &mut buf),
            format!("i{}", usize::MAX),
            "the widest index fits the buffer"
        );
    }

    #[test]
    fn a_frame_is_never_parsed_where_it_was_born_and_once_where_it_arrives_as_bytes() {
        let msg = ProtoMsg::AbData {
            id: MsgId::new(SiteId(1), 2),
            sender: p(1, 1),
            view_seq: 1,
            payload: Message::with_body("fan-out"),
        };
        let encodes = wire_stats::frame_encodes();
        let decodes = wire_stats::frame_decodes();
        let builds = vsync_msg::frame::tree_builds();
        let frame = msg.encode_frame(GroupId(9));
        assert_eq!(wire_stats::frame_encodes() - encodes, 1);
        assert!(ProtoMsg::is_proto_frame(&frame));
        // N same-process receivers alias the frame and read the typed value it was born
        // with: no parse at all.
        let copies: Vec<_> = (0..4).map(|_| frame.clone()).collect();
        for c in &copies {
            let (g, back) = ProtoMsg::decode_frame(c).expect("decode");
            assert_eq!(*g, GroupId(9));
            assert_eq!(back, &msg);
        }
        assert_eq!(
            wire_stats::frame_decodes() - decodes,
            0,
            "born with its memo"
        );
        // Beyond a thread boundary only the bytes arrive: one parse, shared by every
        // holder of the received frame.
        let arrived = Frame::from_wire(frame.wire_bytes());
        assert!(ProtoMsg::is_proto_frame(&arrived));
        let copies: Vec<_> = (0..4).map(|_| arrived.clone()).collect();
        for c in &copies {
            assert_eq!(ProtoMsg::decode_frame(c).expect("decode").1, msg);
        }
        assert_eq!(
            wire_stats::frame_decodes() - decodes,
            1,
            "one parse per received frame, not per holder"
        );
        assert_eq!(
            vsync_msg::frame::tree_builds() - builds,
            0,
            "and never a field tree"
        );
    }

    #[test]
    fn decode_frame_rejects_without_poisoning_the_counterpath() {
        let bogus = Frame::new(Message::with_body(1u64));
        assert!(ProtoMsg::decode_frame(&bogus).is_err());
        // A failed parse is not memoized; a later attempt re-reports the error.
        assert!(ProtoMsg::decode_frame(&bogus).is_err());
    }

    #[test]
    fn decode_rejects_non_protocol_messages() {
        assert!(ProtoMsg::decode(&Message::with_body(1u64)).is_err());
        let mut m = Message::new();
        m.set(TYPE_FIELD, "bogus");
        m.set(GROUP_FIELD, GroupId(1));
        assert!(ProtoMsg::decode(&m).is_err());
    }
}
