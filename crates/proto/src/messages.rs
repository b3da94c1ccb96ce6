//! Wire format of the protocol messages exchanged between group endpoints.
//!
//! In the program a protocol message is a typed [`ProtoMsg`]; on the wire it is laid out by
//! position ([`vsync_msg::stream`]): one kind byte, the group, then the variant's fields in
//! declaration order.  Integers are LEB128 varints; a site id is a varint that must fit in
//! 16 bits; a process is its site, local index and incarnation; a timestamp, a process list,
//! a frontier or an id set is a count and then its entries, except the entries of an ABCAST
//! ordering frame, which run to the frame's end; an application payload is a length and its
//! codec bytes; a held multicast is a length and its frame's whole wire form.
//! Nothing on the wire names a field: the code on both sides fixes the layout, as it does
//! between two protocols processes in the paper.  The self-describing symbol table is the
//! *application's* format, carried inside.
//!
//! The typed value and the bytes are converted **directly**: one writer (behind
//! [`ProtoMsg::into_frame`]) and one reader (behind [`ProtoMsg::decode_frame`]), and no
//! [`Message`] tree in either direction.  A frame is still a codec message — of one
//! byte-string field — so the transport, the simulator's sizing and routing by the first
//! field's name treat it like any other.
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
//! every frame without such a value, is one buffer.
//!
//! Every frame names the group it belongs to and is routed to that group's endpoint, except
//! the conversations between *site stacks*, which the receiving stack answers itself: the
//! reform pair, for a group with no live endpoint; [`ProtoMsg::Relay`], a non-member
//! client's multicast; and [`ProtoMsg::Stability`], the sending site's report on every group
//! it shares with the destination, a list of [`StabilityEntry`] routed entry by entry (a
//! lone endpoint's gossip is the list of one).  Besides these frames, a stack sends a peer
//! stack only its heartbeat: an empty message, known by its packet kind.
//!
//! [`ProtoMsg::encode`] and [`ProtoMsg::decode`] convert to and from a [`Message`] tree (the
//! one-field message a frame is) by going through the bytes; they exist for tests and tools.

use std::rc::Rc;

use vsync_msg::stream::{FrameReader, FrameWriter, FRAME_FIELD};
use vsync_msg::{codec, Frame, Message, Segments};
use vsync_net::{MsgId, ProtocolKind};
use vsync_util::{GroupId, ProcessId, Result, SiteId, VectorClock, VsError};

use crate::frontier::{Frontier, IdSet, Run};
use crate::view::View;

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
/// becomes a tree on the way.  A flush reads a copy's id and protocol off its first values
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
    /// left there — or else off the first values of its bytes, since every data frame
    /// starts with its kind, its group and its id.  Counted by neither [`wire_stats`]
    /// counter.  Fails if the copy is not a data message or its first values do not read.
    pub(crate) fn header(&self) -> Result<DataHeader> {
        let not_data = || VsError::Internal("stored message is not a data message".to_owned());
        if let Some(header) = self.wire.memo_get::<DataHeader>() {
            return Ok(*header);
        }
        if let Some((_, msg)) = self.wire.memo_get::<(GroupId, ProtoMsg)>() {
            let (id, protocol) = match msg {
                ProtoMsg::CbData { id, .. } => (*id, ProtocolKind::Cbcast),
                ProtoMsg::AbData { id, .. } => (*id, ProtocolKind::Abcast),
                _ => return Err(not_data()),
            };
            return Ok(DataHeader { id, protocol });
        }
        self.wire.wire_body()?.read_with(|body| {
            let mut c = FrameReader::open(body)?;
            // The kind bytes of `CbData` and `AbData`, the first two variants.
            let protocol = match c.u8()? {
                0 => ProtocolKind::Cbcast,
                1 => ProtocolKind::Abcast,
                _ => return Err(not_data()),
            };
            c.varint()?; // the group
            let id = get_id(&mut c)?;
            Ok(DataHeader { id, protocol })
        })
    }

    /// The copy as a frame that holds its typed value, for delivery.  A frame with an empty
    /// memo slot is parsed in place, once for every holder in this process; one whose slot
    /// holds a header is parsed into a frame of its own, which goes with the delivery.
    pub(crate) fn typed(&self) -> Result<Frame> {
        let frame = match self.wire.memo_get::<DataHeader>() {
            Some(_) => Frame::from_wire(self.wire.wire_segments()),
            None => self.wire.clone(),
        };
        ProtoMsg::decode_frame(&frame)?;
        Ok(frame)
    }
}

/// One group's report in a [`ProtoMsg::Stability`] frame: the ids the sending site has
/// received in that group's current view.
///
/// On the wire an entry is its group, its view sequence number, its runs — a count and
/// `(origin, lo, hi)` per run: each origin's first run and every later one longer than a
/// single id — and its ids — a count and `(origin, seq)` per single id received beyond a gap
/// that is still open, none on FIFO traffic (see `IdSet::wire_runs`).  An entry's size
/// therefore follows the number of sites, not the number of messages in the view.
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

/// The entries of an ABCAST ordering frame: a list that is never empty, with its first
/// entry held inline, so that the frame of a lone multicast's proposal or order allocates
/// no list.  Built from one entry (`From`) or a non-empty vector (`TryFrom`); read by
/// iterating over a reference.
#[derive(Clone, Debug, PartialEq)]
pub struct Entries<T> {
    first: T,
    more: Vec<T>,
}

impl<T> Entries<T> {
    /// The entries `items` yields, `None` if it yields none.  The rest of the list is
    /// sized by the iterator's lower bound, so an exact iterator allocates once, and one of
    /// a single entry not at all.
    pub(crate) fn gather(mut items: impl Iterator<Item = T>) -> Option<Self> {
        let first = items.next()?;
        Some(Entries {
            first,
            more: items.collect(),
        })
    }

    /// How many entries there are: at least one.
    pub(crate) fn len(&self) -> usize {
        1 + self.more.len()
    }
}

impl<T> From<T> for Entries<T> {
    fn from(first: T) -> Self {
        Entries {
            first,
            more: Vec::new(),
        }
    }
}

impl<T> TryFrom<Vec<T>> for Entries<T> {
    type Error = VsError;

    fn try_from(items: Vec<T>) -> Result<Self> {
        Entries::gather(items.into_iter())
            .ok_or_else(|| VsError::Internal("an ordering frame of no entry".to_owned()))
    }
}

impl<'a, T> IntoIterator for &'a Entries<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Chain<std::iter::Once<&'a T>, std::slice::Iter<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(&self.first).chain(&self.more)
    }
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
    /// ABCAST phase one response: a destination proposes priorities for multicasts of one
    /// initiator — every proposal it made for that site during one run of packets.
    AbPropose {
        /// View sequence number.
        view_seq: u64,
        /// Site making the proposals (tie-break component).
        proposer_site: SiteId,
        /// `(multicast, proposed priority)`, in the order they were made.  On the wire the
        /// list runs to the end of the frame, with no count, so a frame of one proposal
        /// carries nothing for being a list.
        proposals: Entries<(MsgId, u64)>,
    },
    /// ABCAST phase two: the initiator announces final priorities — every order it decided
    /// during one run of packets, one frame for all its peers.
    AbOrder {
        /// View sequence number.
        view_seq: u64,
        /// `(multicast, final priority, tie-break site)`, in the order they were decided;
        /// as in [`ProtoMsg::AbPropose`], the list runs to the end of the frame.
        orders: Entries<(MsgId, u64, SiteId)>,
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

fn put_site(w: &mut FrameWriter, site: SiteId) {
    w.put_varint(site.0.into());
}

fn get_site(c: &mut FrameReader<'_>) -> Result<SiteId> {
    c.narrow().map(SiteId)
}

fn put_id(w: &mut FrameWriter, id: MsgId) {
    put_site(w, id.origin);
    w.put_varint(id.seq);
}

fn get_id(c: &mut FrameReader<'_>) -> Result<MsgId> {
    Ok(MsgId::new(get_site(c)?, c.varint()?))
}

fn put_process(w: &mut FrameWriter, p: ProcessId) {
    put_site(w, p.site);
    w.put_varint(p.local.into());
    w.put_varint(p.incarnation.into());
}

fn get_process(c: &mut FrameReader<'_>) -> Result<ProcessId> {
    Ok(ProcessId {
        site: get_site(c)?,
        local: c.narrow()?,
        incarnation: c.narrow()?,
    })
}

/// Writes a count and then each item.
fn put_counted<T>(w: &mut FrameWriter, items: &[T], mut put: impl FnMut(&mut FrameWriter, &T)) {
    w.put_varint(items.len() as u64);
    for item in items {
        put(w, item);
    }
}

/// Reads a list written by [`put_counted`].  The count was checked against the bytes left
/// (every item is at least one byte), so the allocation it sizes is bounded by the frame.
fn get_counted<'a, T>(
    c: &mut FrameReader<'a>,
    mut get: impl FnMut(&mut FrameReader<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let n = c.count()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(get(c)?);
    }
    Ok(items)
}

/// Reads entries until the frame ends: the uncounted list an ABCAST ordering frame closes
/// with.  At least one entry must be there, and the last must be whole.
fn get_to_end<'a, T>(
    c: &mut FrameReader<'a>,
    mut get: impl FnMut(&mut FrameReader<'a>) -> Result<T>,
) -> Result<Entries<T>> {
    let mut entries = Entries::from(get(c)?);
    while !c.at_end() {
        entries.more.push(get(c)?);
    }
    Ok(entries)
}

pub(crate) fn put_processes(w: &mut FrameWriter, ps: &[ProcessId]) {
    put_counted(w, ps, |w, p| put_process(w, *p));
}

pub(crate) fn get_processes(c: &mut FrameReader<'_>) -> Result<Vec<ProcessId>> {
    get_counted(c, get_process)
}

/// Writes a flag byte, 1 if a value follows, and the value.
fn put_option<T>(w: &mut FrameWriter, v: Option<T>, put: impl FnOnce(&mut FrameWriter, T)) {
    w.put_u8(u8::from(v.is_some()));
    if let Some(v) = v {
        put(w, v);
    }
}

fn get_option<'a, T>(
    c: &mut FrameReader<'a>,
    get: impl FnOnce(&mut FrameReader<'a>) -> Result<T>,
) -> Result<Option<T>> {
    match c.u8()? {
        0 => Ok(None),
        1 => get(c).map(Some),
        other => Err(VsError::CodecError(format!("option flag {other}"))),
    }
}

/// A held multicast is its frame's whole wire form, spliced, then its ABCAST priority.
fn put_stored(w: &mut FrameWriter, stored: &StoredMsg) {
    w.put_segments(&stored.wire.wire_segments());
    put_option(w, stored.ab_priority, FrameWriter::put_varint);
}

fn get_stored(c: &mut FrameReader<'_>) -> Result<StoredMsg> {
    Ok(StoredMsg {
        wire: Frame::from_wire(c.segments()?),
        ab_priority: get_option(c, FrameReader::varint)?,
    })
}

fn put_frontier(w: &mut FrameWriter, f: &Frontier) {
    put_counted(w, f.entries(), |w, (site, seq)| {
        put_id(w, MsgId::new(*site, *seq))
    });
}

/// Reads a frontier; entries may come unsorted or repeated, and are canonicalised.
fn get_frontier(c: &mut FrameReader<'_>) -> Result<Frontier> {
    let mut f = Frontier::new();
    for _ in 0..c.count()? {
        f.observe(get_id(c)?);
    }
    Ok(f)
}

/// Writes runs as a count and then `(origin, lo)` — and `hi` unless every run is one id.
fn put_runs<'a>(w: &mut FrameWriter, runs: impl Iterator<Item = &'a Run> + Clone, single: bool) {
    w.put_varint(runs.clone().count() as u64);
    for r in runs {
        put_id(w, MsgId::new(r.origin, r.lo));
        if !single {
            w.put_varint(r.hi);
        }
    }
}

/// Reads what [`put_runs`] wrote into `set`, which canonicalises: runs may come unsorted,
/// overlapping or touching, an id may repeat or fall inside a run, and an inverted run is
/// ignored.  The set costs memory per run on the wire, not per id covered.
fn get_runs(c: &mut FrameReader<'_>, set: &mut IdSet, single: bool) -> Result<()> {
    for _ in 0..c.count()? {
        let MsgId { origin, seq: lo } = get_id(c)?;
        let hi = if single { lo } else { c.varint()? };
        set.insert_run(origin, lo, hi);
    }
    Ok(())
}

fn put_entry(w: &mut FrameWriter, entry: &StabilityEntry) {
    w.put_varint(entry.group.0);
    w.put_varint(entry.view_seq);
    put_runs(w, entry.received.wire_runs(), false);
    put_runs(w, entry.received.wire_ids(), true);
}

fn get_entry(c: &mut FrameReader<'_>) -> Result<StabilityEntry> {
    let group = GroupId(c.varint()?);
    let view_seq = c.varint()?;
    let mut received = IdSet::new();
    get_runs(c, &mut received, false)?;
    get_runs(c, &mut received, true)?;
    Ok(StabilityEntry {
        group,
        view_seq,
        received: Rc::new(received),
    })
}

/// Bytes to reserve for a list of stored multicasts: what splicing each frame copies (its
/// large segments go in by reference), plus its length and priority.
fn stored_len(stored: &[StoredMsg]) -> usize {
    stored
        .iter()
        .map(|s| 16 + s.wire.wire_segments().buffered_len())
        .sum()
}

/// The variants' names, in declaration order: indexed by kind byte.
const TYPE_TAGS: [&str; 16] = [
    "cb-data",
    "ab-data",
    "ab-propose",
    "ab-order",
    "join-req",
    "leave-req",
    "fail-report",
    "gbcast-req",
    "flush-req",
    "flush-ack",
    "flush-abandoned",
    "flush-commit",
    "stability",
    "reform-summary",
    "reform-alive",
    "relay",
];

impl ProtoMsg {
    /// Human-readable name of the variant, for traces and test output.
    pub fn type_tag(&self) -> &'static str {
        TYPE_TAGS[usize::from(self.kind())]
    }

    /// The kind byte a frame starts with: the variant's place in declaration order.
    fn kind(&self) -> u8 {
        match self {
            ProtoMsg::CbData { .. } => 0,
            ProtoMsg::AbData { .. } => 1,
            ProtoMsg::AbPropose { .. } => 2,
            ProtoMsg::AbOrder { .. } => 3,
            ProtoMsg::JoinReq { .. } => 4,
            ProtoMsg::LeaveReq { .. } => 5,
            ProtoMsg::FailReport { .. } => 6,
            ProtoMsg::GbcastReq { .. } => 7,
            ProtoMsg::FlushReq { .. } => 8,
            ProtoMsg::FlushAck { .. } => 9,
            ProtoMsg::FlushAbandoned { .. } => 10,
            ProtoMsg::FlushCommit { .. } => 11,
            ProtoMsg::Stability { .. } => 12,
            ProtoMsg::ReformSummary { .. } => 13,
            ProtoMsg::ReformAlive { .. } => 14,
            ProtoMsg::Relay { .. } => 15,
        }
    }

    /// Writes the message's wire form — the one place each protocol field is written: the
    /// kind byte, the group, then the fields in declaration order.
    fn write(&self, group: GroupId) -> FrameWriter {
        let reserve = match self {
            ProtoMsg::CbData { vt, payload, .. } => {
                32 + 10 * vt.entries().len() + codec::buffered_len(payload)
            }
            ProtoMsg::AbData { payload, .. }
            | ProtoMsg::GbcastReq { payload, .. }
            | ProtoMsg::Relay { payload, .. } => 32 + codec::buffered_len(payload),
            ProtoMsg::FlushAck { stored, .. } => 32 + stored_len(stored),
            ProtoMsg::FlushCommit {
                view,
                deliver,
                covered,
                gbcasts,
            } => {
                64 + 12 * (view.members.len() + view.joined.len() + view.departed.len())
                    + 12 * covered.entries().len()
                    + stored_len(deliver)
                    + gbcasts.iter().map(codec::buffered_len).sum::<usize>()
            }
            ProtoMsg::Stability { entries, .. } => entries
                .iter()
                .map(|e| 16 + 12 * e.received.runs().len())
                .sum(),
            // A varint is at most 10 B, but ids, priorities and sites are short.
            ProtoMsg::AbPropose { proposals, .. } => 16 + 12 * proposals.len(),
            ProtoMsg::AbOrder { orders, .. } => 16 + 14 * orders.len(),
            _ => 32,
        };
        let mut w = FrameWriter::with_capacity(reserve);
        w.put_u8(self.kind());
        w.put_varint(group.0);
        match self {
            ProtoMsg::CbData {
                id,
                sender,
                sender_rank,
                view_seq,
                vt,
                payload,
            } => {
                put_id(&mut w, *id);
                put_process(&mut w, *sender);
                w.put_varint(*sender_rank);
                w.put_varint(*view_seq);
                put_counted(&mut w, vt.entries(), |w, x| w.put_varint(*x));
                w.put_message(payload);
            }
            ProtoMsg::AbData {
                id,
                sender,
                view_seq,
                payload,
            } => {
                put_id(&mut w, *id);
                put_process(&mut w, *sender);
                w.put_varint(*view_seq);
                w.put_message(payload);
            }
            ProtoMsg::AbPropose {
                view_seq,
                proposer_site,
                proposals,
            } => {
                w.put_varint(*view_seq);
                put_site(&mut w, *proposer_site);
                for &(id, proposed) in proposals {
                    put_id(&mut w, id);
                    w.put_varint(proposed);
                }
            }
            ProtoMsg::AbOrder { view_seq, orders } => {
                w.put_varint(*view_seq);
                for &(id, priority, site) in orders {
                    put_id(&mut w, id);
                    w.put_varint(priority);
                    put_site(&mut w, site);
                }
            }
            ProtoMsg::JoinReq {
                joiner,
                credentials,
            } => {
                put_process(&mut w, *joiner);
                put_option(&mut w, credentials.as_deref(), FrameWriter::put_str);
            }
            ProtoMsg::LeaveReq { member } => put_process(&mut w, *member),
            ProtoMsg::FailReport { failed } => put_processes(&mut w, failed),
            ProtoMsg::GbcastReq { sender, payload } => {
                put_process(&mut w, *sender);
                w.put_message(payload);
            }
            ProtoMsg::FlushReq {
                target_seq,
                initiator,
                attempt,
            } => {
                w.put_varint(*target_seq);
                put_process(&mut w, *initiator);
                w.put_varint(*attempt);
            }
            ProtoMsg::FlushAck {
                target_seq,
                from_site,
                ab_clock,
                stored,
            } => {
                w.put_varint(*target_seq);
                put_site(&mut w, *from_site);
                w.put_varint(*ab_clock);
                put_counted(&mut w, stored, put_stored);
            }
            ProtoMsg::FlushAbandoned {
                target_seq,
                attempt,
            } => {
                w.put_varint(*target_seq);
                w.put_varint(*attempt);
            }
            ProtoMsg::FlushCommit {
                view,
                deliver,
                covered,
                gbcasts,
            } => {
                view.write(&mut w);
                put_counted(&mut w, deliver, put_stored);
                put_frontier(&mut w, covered);
                put_counted(&mut w, gbcasts, FrameWriter::put_message);
            }
            ProtoMsg::Stability { from_site, entries } => {
                put_site(&mut w, *from_site);
                put_counted(&mut w, entries, put_entry);
            }
            ProtoMsg::ReformSummary {
                from_site,
                view_seq,
                covered,
                rank,
            } => {
                put_site(&mut w, *from_site);
                w.put_varint(*view_seq);
                put_frontier(&mut w, covered);
                w.put_varint(*rank);
            }
            ProtoMsg::ReformAlive { contact } => put_site(&mut w, *contact),
            ProtoMsg::Relay { protocol, payload } => {
                w.put_u8(*protocol as u8);
                w.put_message(payload);
            }
        }
        w
    }

    /// Reads a message out of a frame's wire body — the one place each protocol field is
    /// read, in the order [`ProtoMsg::write`] writes them.  Every field is there or the
    /// frame is refused: a `cb-data` without its timestamp would sit undeliverable in the
    /// holdback queue until the next flush, a `stability` entry without its runs would read
    /// as "received nothing", a commit or reform summary without its frontier as "covers
    /// nothing" — each a silent stall or a silent wrong answer where a decode error belongs.
    /// So are an unknown kind, a varint that is over-long or too wide for its field, a count
    /// the bytes left cannot hold and a byte left over.
    ///
    /// Segment boundaries are followed where [`ProtoMsg::write`] puts them; a body cut
    /// anywhere else is read as one buffer ([`Segments::read_with`]).
    fn read(body: &Segments) -> Result<(GroupId, ProtoMsg)> {
        body.read_with(ProtoMsg::read_fields)
    }

    /// One pass of [`ProtoMsg::read`] over `body` as it is cut.
    fn read_fields(body: &Segments) -> Result<(GroupId, ProtoMsg)> {
        let mut reader = FrameReader::open(body)?;
        let c = &mut reader;
        let kind = c.u8()?;
        let group = GroupId(c.varint()?);
        let msg = match kind {
            0 => ProtoMsg::CbData {
                id: get_id(c)?,
                sender: get_process(c)?,
                sender_rank: c.varint()?,
                view_seq: c.varint()?,
                vt: VectorClock::from_entries(get_counted(c, FrameReader::varint)?),
                payload: c.message()?,
            },
            1 => ProtoMsg::AbData {
                id: get_id(c)?,
                sender: get_process(c)?,
                view_seq: c.varint()?,
                payload: c.message()?,
            },
            2 => ProtoMsg::AbPropose {
                view_seq: c.varint()?,
                proposer_site: get_site(c)?,
                proposals: get_to_end(c, |c| Ok((get_id(c)?, c.varint()?)))?,
            },
            3 => ProtoMsg::AbOrder {
                view_seq: c.varint()?,
                orders: get_to_end(c, |c| Ok((get_id(c)?, c.varint()?, get_site(c)?)))?,
            },
            4 => ProtoMsg::JoinReq {
                joiner: get_process(c)?,
                credentials: get_option(c, |c| c.str().map(str::to_owned))?,
            },
            5 => ProtoMsg::LeaveReq {
                member: get_process(c)?,
            },
            6 => ProtoMsg::FailReport {
                failed: get_processes(c)?,
            },
            7 => ProtoMsg::GbcastReq {
                sender: get_process(c)?,
                payload: c.message()?,
            },
            8 => ProtoMsg::FlushReq {
                target_seq: c.varint()?,
                initiator: get_process(c)?,
                attempt: c.varint()?,
            },
            9 => ProtoMsg::FlushAck {
                target_seq: c.varint()?,
                from_site: get_site(c)?,
                ab_clock: c.varint()?,
                stored: get_counted(c, get_stored)?,
            },
            10 => ProtoMsg::FlushAbandoned {
                target_seq: c.varint()?,
                attempt: c.varint()?,
            },
            11 => ProtoMsg::FlushCommit {
                view: View::read(c)?,
                deliver: get_counted(c, get_stored)?,
                covered: get_frontier(c)?,
                gbcasts: get_counted(c, FrameReader::message)?,
            },
            12 => ProtoMsg::Stability {
                from_site: get_site(c)?,
                entries: get_counted(c, get_entry)?,
            },
            13 => ProtoMsg::ReformSummary {
                from_site: get_site(c)?,
                view_seq: c.varint()?,
                covered: get_frontier(c)?,
                rank: c.varint()?,
            },
            14 => ProtoMsg::ReformAlive {
                contact: get_site(c)?,
            },
            15 => ProtoMsg::Relay {
                protocol: match c.u8()? {
                    0 => ProtocolKind::Cbcast,
                    1 => ProtocolKind::Abcast,
                    2 => ProtocolKind::Gbcast,
                    other => return Err(VsError::CodecError(format!("cannot relay kind {other}"))),
                },
                payload: c.message()?,
            },
            other => {
                return Err(VsError::CodecError(format!(
                    "unknown protocol message kind {other}"
                )))
            }
        };
        reader.finish()?;
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
            codec::envelope_body(&decoded.1.write(decoded.0).finish())
                .and_then(|body| ProtoMsg::read(&body))
                .ok()
                .as_ref(),
            Some(&decoded),
            "ProtoMsg wire round-trip diverged; the decode memo would be unsound"
        );
        frame
            .memo_get_or_init(|| decoded)
            .ok_or_else(|| VsError::Internal("frame memo slot held by a foreign type".to_owned()))
    }

    /// True if `frame` carries a protocol message, without parsing it or building a tree:
    /// either it was born as one, or its first field is the one every protocol frame
    /// has.  This is how the site stack routes an incoming packet.
    pub fn is_proto_frame(frame: &Frame) -> bool {
        frame.memo_get::<(GroupId, ProtoMsg)>().is_some()
            || frame.first_field_name() == Some(FRAME_FIELD)
    }

    /// The message as a [`Message`] tree — one field holding the positional body — decoded
    /// from its wire bytes by the generic codec.
    pub fn encode(&self, group: GroupId) -> Message {
        codec::decode_segments(&self.write(group).finish())
            .expect("the frame writer produces well-formed messages")
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
            view_seq: 1,
            proposer_site: SiteId(3),
            proposals: (MsgId::new(SiteId(0), 1), 17).into(),
        });
        let proposals = (1..=40).map(|seq| (MsgId::new(SiteId(0), seq), 16 + seq));
        roundtrip(ProtoMsg::AbPropose {
            view_seq: 1,
            proposer_site: SiteId(3),
            proposals: Entries::gather(proposals).expect("40 proposals"),
        });
        roundtrip(ProtoMsg::AbOrder {
            view_seq: 1,
            orders: (MsgId::new(SiteId(0), 1), 21, SiteId(2)).into(),
        });
        let orders = (1..=40).map(|seq| {
            (
                MsgId::new(SiteId(0), seq),
                300 + seq,
                SiteId(seq as u16 % 3),
            )
        });
        roundtrip(ProtoMsg::AbOrder {
            view_seq: 1,
            orders: Entries::gather(orders).expect("40 orders"),
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

    /// The positional body of `msg`'s frame in group 42: the bytes after the envelope.
    fn body_of(msg: &ProtoMsg) -> Vec<u8> {
        let frame = msg.encode_frame(GroupId(42));
        let tree = frame.try_message().expect("a frame is a codec message");
        tree.get_bytes(FRAME_FIELD).expect("one field").to_vec()
    }

    /// Decodes a positional body as a frame arriving from another site would be.
    fn decode_body(body: &[u8]) -> Result<(GroupId, ProtoMsg)> {
        let frame = Frame::new(Message::new().with(FRAME_FIELD, body.to_vec()));
        let decoded = ProtoMsg::decode_frame(&frame).cloned();
        assert_eq!(
            decoded,
            ProtoMsg::decode(&Message::new().with(FRAME_FIELD, body.to_vec())),
            "decode(tree) agrees with decode_frame"
        );
        decoded
    }

    /// Checks that `msg`'s body holds `field` at `at`, and that the body without those bytes
    /// is refused: a reader that let a field go missing would read the next field's bytes
    /// as it, and the frame would come up short or long.
    fn assert_field_is_required(msg: ProtoMsg, at: usize, field: &[u8]) {
        let body = body_of(&msg);
        assert_eq!(
            &body[at..at + field.len()],
            field,
            "{}: layout",
            msg.type_tag()
        );
        assert_eq!(decode_body(&body), Ok((GroupId(42), msg.clone())));
        let without = [&body[..at], &body[at + field.len()..]].concat();
        assert!(
            decode_body(&without).is_err(),
            "a {} without {field:?} at {at} must be a decode error",
            msg.type_tag()
        );
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
        // the reporter already delivered.  Kind, group, target seq, site, then the clock.
        assert_field_is_required(
            ProtoMsg::FlushAck {
                target_seq: 4,
                from_site: SiteId(1),
                ab_clock: 12,
                stored: Vec::new(),
            },
            4,
            &[12],
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
        // nothing" (which would silently double-apply at joiners).  After the kind, the
        // group, the 11-byte view {42, seq 1, [P0.1], [P0.1], []} and no held copies:
        // the frontier, one entry (site 2, seq 5), then no gbcasts.
        let mut covered = Frontier::new();
        covered.observe(MsgId::new(SiteId(2), 5));
        assert_field_is_required(
            ProtoMsg::FlushCommit {
                view: View::founding(GroupId(42), p(0, 1)),
                deliver: Vec::new(),
                covered,
                gbcasts: Vec::new(),
            },
            14,
            &[1, 2, 5],
        );
    }

    #[test]
    fn cb_data_without_a_timestamp_is_rejected() {
        // An empty timestamp never satisfies the causal delivery test: the message would
        // sit in the holdback queue until the next flush dropped it.  Kind, group, id,
        // sender, rank and view take 9 bytes; the timestamp is its count and entries.
        assert_field_is_required(
            ProtoMsg::CbData {
                id: MsgId::new(SiteId(1), 7),
                sender: p(1, 3),
                sender_rank: 1,
                view_seq: 5,
                vt: VectorClock::from_entries(vec![0, 1]),
                payload: Message::with_body("x"),
            },
            9,
            &[2, 0, 1],
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

    #[test]
    fn stability_without_runs_is_rejected() {
        // "Received nothing" is a legal report; a report that lost its runs is not one —
        // and neither is a frame that lost its reporter or its entry list.  The body is
        // kind, group, reporter 3, one entry: group 42, view 2, one run (0, 1..2), no ids.
        let msg = gossip(id_set(&[(0, 1), (0, 2)]));
        assert_eq!(body_of(&msg), [12, 42, 3, 1, 42, 2, 1, 0, 1, 2, 0]);
        assert_field_is_required(msg.clone(), 2, &[3]);
        assert_field_is_required(msg.clone(), 3, &[1, 42, 2, 1, 0, 1, 2, 0]);
        assert_field_is_required(msg, 6, &[1, 0, 1, 2]);
    }

    #[test]
    fn fail_report_without_its_list_is_rejected() {
        assert_field_is_required(
            ProtoMsg::FailReport {
                failed: vec![p(1, 1)],
            },
            2,
            &[1, 1, 1, 0],
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
        assert_eq!(
            body_of(&fifo),
            [12, 42, 3, 1, 42, 2, 2, 0, 1, 3, 2, 8, 8, 0],
            "reporter, one entry: group, view, two runs, no ids"
        );
        roundtrip(fifo);
        // A gap open at origin 0: the id beyond it is listed explicitly, a longer stretch
        // beyond a gap is a second run.
        let gapped = gossip(id_set(&[(0, 1), (0, 2), (0, 4), (1, 5), (1, 7), (1, 8)]));
        assert_eq!(
            body_of(&gapped)[6..],
            [3, 0, 1, 2, 1, 5, 5, 1, 7, 8, 1, 0, 4],
            "three runs, then one id"
        );
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
        assert_eq!(
            body_of(&bundle),
            [
                12, 42, 1, 3, // kind, group, reporter, three entries
                9, 4, 2, 0, 1, 1, 1, 1, 2, 0, // G9: two runs, no ids
                2, 7, 0, 0, // G2: nothing
                9, 4, 1, 0, 1, 1, 1, 0, 3, // G9 again: one run, one id
            ]
        );
        roundtrip(bundle);
        // No entry at all is a frame nobody sends, and still a frame that decodes.
        roundtrip(ProtoMsg::Stability {
            from_site: SiteId(1),
            entries: Vec::new(),
        });
    }

    #[test]
    fn stability_gossip_canonicalises_foreign_run_lists() {
        // Unsorted, overlapping and touching runs, an id inside a run, a repeated id and an
        // inverted run: legal input, one canonical set.
        let mut body = vec![12, 42, 3, 1, 42, 2];
        body.push(5);
        for (origin, lo, hi) in [(2, 5, 9), (0, 4, 6), (0, 1, 3), (2, 8, 12), (1, 9, 2)] {
            body.extend([origin, lo, hi]);
        }
        body.push(4);
        for (origin, seq) in [(0, 2), (2, 14), (2, 14), (2, 13)] {
            body.extend([origin, seq]);
        }
        let expected = gossip(IdSet::from_wire(&[0, 1, 6, 2, 5, 14], &[]));
        let (_, decoded) = decode_body(&body).expect("decode");
        assert_eq!(decoded, expected);
        assert_eq!(
            body_of(&decoded)[6..],
            [2, 0, 1, 6, 2, 5, 14, 0],
            "written back canonical"
        );
        // The frame path accepts it too: its debug round-trip assertion compares typed
        // messages, so a non-canonical wire form is not mistaken for a codec bug.  An
        // origin beyond 16 bits is not a site, and is refused.
        body[7] = 0x80;
        body.insert(8, 0x80);
        body.insert(9, 0x04);
        assert!(decode_body(&body).is_err(), "site 65536");
    }

    #[test]
    fn control_frames_are_at_least_three_times_smaller_than_named_ones() {
        // The shapes measured when every frame named its fields: a CBCAST of a one-field
        // 20 B payload with a 3-entry timestamp was 202 B on the wire, an `AbOrder` 142 B
        // and a `FlushReq` 106 B.
        let cb = ProtoMsg::CbData {
            id: MsgId::new(SiteId(1), 1_000),
            sender: p(1, 1),
            sender_rank: 1,
            view_seq: 3,
            vt: VectorClock::from_entries(vec![12, 1_000, 7]),
            payload: Message::with_body(vec![7u8; 20]),
        };
        let order = ProtoMsg::AbOrder {
            view_seq: 3,
            orders: (MsgId::new(SiteId(2), 1_000), 40_000, SiteId(2)).into(),
        };
        let flush = ProtoMsg::FlushReq {
            target_seq: 4,
            initiator: p(0, 1),
            attempt: 1,
        };
        for (msg, named) in [(cb, 202), (order, 142), (flush, 106)] {
            let frame = msg.encode_frame(GroupId(1_000));
            let len = frame.wire_bytes().len();
            assert!(3 * len <= named, "{}: {len} B", msg.type_tag());
            // The simulator charges the bytes' length, however the frame was born.
            let arrived = Frame::from_wire(frame.wire_bytes());
            assert_eq!(frame.wire_len(), len, "{}", msg.type_tag());
            assert_eq!(arrived.wire_len(), len, "{}", msg.type_tag());
        }
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
        let body = body_of(&relay(ProtocolKind::Abcast));
        assert_field_is_required(relay(ProtocolKind::Abcast), 3, &body[3..]);
        assert_field_is_required(relay(ProtocolKind::Abcast), 2, &[1]);
        for kind in [ProtocolKind::Reply, ProtocolKind::LocalRpc] {
            let msg = relay(kind);
            assert!(
                ProtoMsg::decode(&msg.encode(GroupId(42))).is_err(),
                "{kind}"
            );
            let mut body = body.clone();
            body[2] = kind as u8;
            assert!(decode_body(&body).is_err(), "relay of {kind} decoded");
        }
        let mut body = body;
        body[2] = u8::MAX;
        assert!(decode_body(&body).is_err());
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
        // An unknown kind, and a known one in a message with a field besides the frame's.
        assert!(decode_body(&[16, 1]).is_err());
        assert!(decode_body(&[u8::MAX, 1]).is_err());
        let mut m = Message::new().with(FRAME_FIELD, vec![14u8, 1, 3]);
        assert_eq!(
            ProtoMsg::decode(&m),
            Ok((GroupId(1), ProtoMsg::ReformAlive { contact: SiteId(3) }))
        );
        m.set("x", 1u64);
        assert!(ProtoMsg::decode(&m).is_err());
    }
}
