//! Model-based property test: the positional protocol writer and reader against a
//! reference layout written out by hand.
//!
//! A [`ProtoMsg`] frame is a codec message of one byte-string field whose bytes are laid out
//! by position: the kind byte, the group, then the variant's fields in declaration order,
//! integers as shortest-form LEB128 varints, lists as a count and their entries, payloads
//! and held frames as a length and their bytes.  The reference below spells that layout
//! out again, independently of `ProtoMsg::write`, and for seeded arbitrary messages of all
//! 16 variants the one-pass writer must agree with the tree encoder's bytes of the
//! reference tree byte for byte, the size the simulator charges must be that tree's exact
//! wire length, the reader must give back the typed message, frames nested in a flush ack or commit
//! must come back out as the bytes that went in, and damaged bytes must be refused: every
//! proper prefix, a trailing byte, an unknown kind, an over-long or overflowing varint, a
//! site id beyond 16 bits, and a count or length the bytes left cannot hold — never
//! decoded, never a panic, and never an allocation sized by the bad count.
//!
//! A stability frame is a site's reports on many groups at once, so the generator draws it
//! with no entry, one, or many — groups repeated and out of order, sets with open gaps —
//! and a frame of 64 entries is checked on its own, bit-flips included: whatever arrives
//! decodes or is refused, and never panics.
//!
//! A frame's bytes are held as a list of segments, with a large payload body spliced in by
//! reference.  That changes how the bytes are held, not which bytes they are: the reference
//! is compared against the list's concatenation, the list itself must read back as the
//! typed message, and 64 KiB bodies — alone, held in a flush ack, held in a commit — must
//! come back out as the very buffer the sender put in.

use vsync_msg::stream::FRAME_FIELD;
use vsync_msg::{codec, Bytes, Frame, Message};
use vsync_net::{MsgId, ProtocolKind};
use vsync_proto::messages::{StabilityEntry, StoredMsg};
use vsync_proto::{Frontier, IdSet, ProtoMsg, View};
use vsync_util::{Address, DetRng, GroupId, ProcessId, SiteId, VectorClock};

// -- The reference: the layout written out by hand ------------------------------------------

/// A positional body, and where the values a reader must police went: `(offset, width)`
/// of every varint, of the first site id and of the first count or length, and the offset
/// of the first option flag.
#[derive(Default)]
struct Layout {
    bytes: Vec<u8>,
    varints: Vec<(usize, usize)>,
    site: Option<(usize, usize)>,
    count: Option<(usize, usize)>,
    flag: Option<usize>,
}

impl Layout {
    fn varint(&mut self, mut v: u64) -> (usize, usize) {
        let at = self.bytes.len();
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
        let span = (at, self.bytes.len() - at);
        self.varints.push(span);
        span
    }

    /// An option's flag byte: 1 if a value follows.
    fn flag(&mut self, set: bool) {
        self.flag.get_or_insert(self.bytes.len());
        self.bytes.push(u8::from(set));
    }

    fn site(&mut self, site: SiteId) {
        let span = self.varint(site.0.into());
        self.site.get_or_insert(span);
    }

    fn count(&mut self, n: usize) {
        let span = self.varint(n as u64);
        self.count.get_or_insert(span);
    }

    fn id(&mut self, id: MsgId) {
        self.site(id.origin);
        self.varint(id.seq);
    }

    fn process(&mut self, p: ProcessId) {
        self.site(p.site);
        self.varint(p.local.into());
        self.varint(p.incarnation.into());
    }

    fn processes(&mut self, ps: &[ProcessId]) {
        self.count(ps.len());
        for p in ps {
            self.process(*p);
        }
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.count(bytes.len());
        self.bytes.extend_from_slice(bytes);
    }

    /// A payload: its codec body, the encoding without the envelope byte.
    fn payload(&mut self, m: &Message) {
        self.raw(&codec::encode(m)[1..]);
    }

    fn frontier(&mut self, f: &Frontier) {
        self.count(f.entries().len());
        for (site, seq) in f.entries() {
            self.id(MsgId::new(*site, *seq));
        }
    }

    fn stored(&mut self, held: &[StoredMsg]) {
        self.count(held.len());
        for s in held {
            self.raw(&s.wire.wire_bytes());
            self.flag(s.ab_priority.is_some());
            if let Some(p) = s.ab_priority {
                self.varint(p);
            }
        }
    }

    /// Flattened id-set halves: `[origin, lo, hi, ...]` or `[origin, seq, ...]`.
    fn runs(&mut self, flat: &[u64], width: usize) {
        self.count(flat.len() / width);
        for run in flat.chunks(width) {
            self.site(SiteId(run[0] as u16));
            for v in &run[1..] {
                self.varint(*v);
            }
        }
    }
}

fn reference(msg: &ProtoMsg, group: GroupId) -> Layout {
    let mut l = Layout::default();
    let kind = match msg {
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
    };
    l.bytes.push(kind);
    l.varint(group.0);
    match msg {
        ProtoMsg::CbData {
            id,
            sender,
            sender_rank,
            view_seq,
            vt,
            payload,
        } => {
            l.id(*id);
            l.process(*sender);
            l.varint(*sender_rank);
            l.varint(*view_seq);
            l.count(vt.entries().len());
            for v in vt.entries() {
                l.varint(*v);
            }
            l.payload(payload);
        }
        ProtoMsg::AbData {
            id,
            sender,
            view_seq,
            payload,
        } => {
            l.id(*id);
            l.process(*sender);
            l.varint(*view_seq);
            l.payload(payload);
        }
        // The entries of an ordering frame run to its end, with no count in front.
        ProtoMsg::AbPropose {
            view_seq,
            proposer_site,
            proposals,
        } => {
            l.varint(*view_seq);
            l.site(*proposer_site);
            for (id, proposed) in proposals {
                l.id(*id);
                l.varint(*proposed);
            }
        }
        ProtoMsg::AbOrder { view_seq, orders } => {
            l.varint(*view_seq);
            for (id, final_priority, tiebreak_site) in orders {
                l.id(*id);
                l.varint(*final_priority);
                l.site(*tiebreak_site);
            }
        }
        ProtoMsg::JoinReq {
            joiner,
            credentials,
        } => {
            l.process(*joiner);
            l.flag(credentials.is_some());
            if let Some(c) = credentials {
                l.raw(c.as_bytes());
            }
        }
        ProtoMsg::LeaveReq { member } => l.process(*member),
        ProtoMsg::FailReport { failed } => l.processes(failed),
        ProtoMsg::GbcastReq { sender, payload } => {
            l.process(*sender);
            l.payload(payload);
        }
        ProtoMsg::FlushReq {
            target_seq,
            initiator,
            attempt,
        } => {
            l.varint(*target_seq);
            l.process(*initiator);
            l.varint(*attempt);
        }
        ProtoMsg::FlushAck {
            target_seq,
            from_site,
            ab_clock,
            stored,
        } => {
            l.varint(*target_seq);
            l.site(*from_site);
            l.varint(*ab_clock);
            l.stored(stored);
        }
        ProtoMsg::FlushAbandoned {
            target_seq,
            attempt,
        } => {
            l.varint(*target_seq);
            l.varint(*attempt);
        }
        ProtoMsg::FlushCommit {
            view,
            deliver,
            covered,
            gbcasts,
        } => {
            l.varint(view.id.group.0);
            l.varint(view.id.seq);
            l.processes(&view.members);
            l.processes(&view.joined);
            l.processes(&view.departed);
            l.stored(deliver);
            l.frontier(covered);
            l.count(gbcasts.len());
            for g in gbcasts {
                l.payload(g);
            }
        }
        ProtoMsg::Stability { from_site, entries } => {
            l.site(*from_site);
            l.count(entries.len());
            for e in entries {
                l.varint(e.group.0);
                l.varint(e.view_seq);
                let (runs, ids) = e.received.to_wire();
                l.runs(&runs, 3);
                l.runs(&ids, 2);
            }
        }
        ProtoMsg::ReformSummary {
            from_site,
            view_seq,
            covered,
            rank,
        } => {
            l.site(*from_site);
            l.varint(*view_seq);
            l.frontier(covered);
            l.varint(*rank);
        }
        ProtoMsg::ReformAlive { contact } => l.site(*contact),
        ProtoMsg::Relay { protocol, payload } => {
            l.bytes.push(match protocol {
                ProtocolKind::Cbcast => 0,
                ProtocolKind::Abcast => 1,
                ProtocolKind::Gbcast => 2,
                other => panic!("{other} is not relayed"),
            });
            l.payload(payload);
        }
    }
    l
}

/// The frame whose positional body is `body`, as a tree.
fn tree_of(body: Vec<u8>) -> Message {
    Message::new().with(FRAME_FIELD, body)
}

// -- Generators -----------------------------------------------------------------------------

const GROUP: GroupId = GroupId(42);

fn pid(rng: &mut DetRng) -> ProcessId {
    ProcessId::new(
        SiteId(rng.next_below(6) as u16),
        1 + rng.next_below(4) as u32,
    )
}

fn msg_id(rng: &mut DetRng) -> MsgId {
    MsgId::new(SiteId(rng.next_below(6) as u16), 1 + rng.next_below(1_000))
}

/// An application payload: a few fields of every value type, sometimes nested, sometimes
/// empty, sometimes with a body large enough to matter.
fn payload(rng: &mut DetRng) -> Message {
    let mut m = Message::new();
    if rng.chance(0.1) {
        return m;
    }
    m.set_sender(pid(rng));
    m.set_session(rng.next_u64());
    match rng.next_below(4) {
        0 => m.set("body", rng.next_u64()),
        1 => m.set("body", "a string body"),
        2 => m.set("body", vec![rng.next_u64() as u8; rng.next_index(3_000)]),
        _ => m.set("body", -(rng.next_below(1 << 40) as i64)),
    };
    if rng.chance(0.3) {
        m.set(
            "nested",
            Message::with_body(true).with("ratio", 0.5f64).with(
                "list",
                vec![Address::Group(GROUP), Address::Process(pid(rng))],
            ),
        );
    }
    m
}

fn data_msg(rng: &mut DetRng, view_seq: u64) -> ProtoMsg {
    if rng.chance(0.5) {
        let width = rng.next_index(6);
        ProtoMsg::CbData {
            id: msg_id(rng),
            sender: pid(rng),
            sender_rank: rng.next_below(6),
            view_seq,
            vt: VectorClock::from_entries((0..width).map(|_| rng.next_below(50)).collect()),
            payload: payload(rng),
        }
    } else {
        ProtoMsg::AbData {
            id: msg_id(rng),
            sender: pid(rng),
            view_seq,
            payload: payload(rng),
        }
    }
}

/// `n` held multicasts mixing `CbData` and `AbData`, with and without a priority, born
/// both ways a held frame can be: written here (typed value attached) or received as bytes.
fn stored(rng: &mut DetRng, n: usize) -> Vec<StoredMsg> {
    (0..n)
        .map(|_| {
            let born = data_msg(rng, 3).into_frame(GROUP);
            StoredMsg {
                wire: if rng.chance(0.5) {
                    born
                } else {
                    Frame::from_wire(born.wire_bytes())
                },
                ab_priority: rng.chance(0.5).then(|| rng.next_below(1_000)),
            }
        })
        .collect()
}

/// An id set with runs and, more often than not, ids beyond a gap that is still open.
fn id_set(rng: &mut DetRng) -> IdSet {
    let mut set = IdSet::new();
    for origin in 0..rng.next_below(5) as u16 {
        let mut seq = 1;
        for _ in 0..rng.next_below(4) {
            for _ in 0..1 + rng.next_below(5) {
                set.insert(MsgId::new(SiteId(origin), seq));
                seq += 1;
            }
            seq += 1 + rng.next_below(3); // leave a gap open
        }
    }
    set
}

/// A stability frame of `n` entries: groups drawn from a handful, so they repeat and come
/// out of order, each with its own view stamp and set.
fn stability(rng: &mut DetRng, n: usize) -> ProtoMsg {
    ProtoMsg::Stability {
        from_site: SiteId(rng.next_below(6) as u16),
        entries: (0..n)
            .map(|_| StabilityEntry {
                group: GroupId(40 + rng.next_below(8)),
                view_seq: rng.next_below(9),
                received: id_set(rng).into(),
            })
            .collect(),
    }
}

fn frontier(rng: &mut DetRng) -> Frontier {
    let mut f = Frontier::new();
    for _ in 0..rng.next_below(5) {
        f.observe(msg_id(rng));
    }
    f
}

fn view(rng: &mut DetRng) -> View {
    let mut v = View::founding(GROUP, ProcessId::new(SiteId(0), 1));
    for step in 0..rng.next_below(5) as u16 {
        let departed: Vec<ProcessId> = if rng.chance(0.4) && v.len() > 1 {
            vec![v.members[rng.next_index(v.len())]]
        } else {
            Vec::new()
        };
        v = v.successor(&departed, &[ProcessId::new(SiteId(1 + step), 1)]);
    }
    v
}

/// How many entries an arbitrary `AbPropose` or `AbOrder` carries: one half the time.
fn ordering_entries(rng: &mut DetRng) -> usize {
    if rng.chance(0.5) {
        1
    } else {
        2 + rng.next_below(40) as usize
    }
}

/// Message `variant` (0..16), with `held` stored messages where the variant carries any.
fn arbitrary(rng: &mut DetRng, variant: usize, held: usize) -> ProtoMsg {
    match variant {
        0 | 1 => loop {
            let view_seq = 1 + rng.next_below(9);
            let m = data_msg(rng, view_seq);
            if matches!(m, ProtoMsg::CbData { .. }) == (variant == 0) {
                break m;
            }
        },
        // One entry, as a lone ABCAST sends, or a run's worth of them.
        2 => ProtoMsg::AbPropose {
            view_seq: rng.next_below(9),
            proposer_site: SiteId(rng.next_below(6) as u16),
            proposals: (0..ordering_entries(rng))
                .map(|_| (msg_id(rng), rng.next_u64()))
                .collect::<Vec<_>>()
                .try_into()
                .expect("at least one proposal"),
        },
        3 => ProtoMsg::AbOrder {
            view_seq: rng.next_below(9),
            orders: (0..ordering_entries(rng))
                .map(|_| {
                    let site = SiteId(rng.next_below(6) as u16);
                    (msg_id(rng), rng.next_u64(), site)
                })
                .collect::<Vec<_>>()
                .try_into()
                .expect("at least one order"),
        },
        4 => ProtoMsg::JoinReq {
            joiner: pid(rng),
            credentials: rng.chance(0.5).then(|| "let-me-in".to_owned()),
        },
        5 => ProtoMsg::LeaveReq { member: pid(rng) },
        6 => ProtoMsg::FailReport {
            failed: (0..rng.next_below(4)).map(|_| pid(rng)).collect(),
        },
        7 => ProtoMsg::GbcastReq {
            sender: pid(rng),
            payload: payload(rng),
        },
        8 => ProtoMsg::FlushReq {
            target_seq: rng.next_below(9),
            initiator: pid(rng),
            attempt: rng.next_below(3),
        },
        9 => ProtoMsg::FlushAck {
            target_seq: rng.next_below(9),
            from_site: SiteId(rng.next_below(6) as u16),
            ab_clock: rng.next_below(1 << 40),
            stored: stored(rng, held),
        },
        10 => ProtoMsg::FlushCommit {
            view: view(rng),
            deliver: stored(rng, held),
            covered: frontier(rng),
            gbcasts: (0..rng.next_below(3)).map(|_| payload(rng)).collect(),
        },
        11 => {
            let n = [0, 1, 1, 3, 9][rng.next_index(5)];
            stability(rng, n)
        }
        12 => ProtoMsg::ReformSummary {
            from_site: SiteId(rng.next_below(6) as u16),
            view_seq: rng.next_below(9),
            covered: frontier(rng),
            rank: rng.next_below(6),
        },
        13 => ProtoMsg::FlushAbandoned {
            target_seq: rng.next_below(9),
            attempt: rng.next_below(3),
        },
        14 => ProtoMsg::ReformAlive {
            contact: SiteId(rng.next_below(6) as u16),
        },
        _ => ProtoMsg::Relay {
            protocol: [
                ProtocolKind::Cbcast,
                ProtocolKind::Abcast,
                ProtocolKind::Gbcast,
            ][rng.next_index(3)],
            payload: payload(rng),
        },
    }
}

fn held_of(msg: &ProtoMsg) -> &[StoredMsg] {
    match msg {
        ProtoMsg::FlushAck { stored, .. } => stored,
        ProtoMsg::FlushCommit { deliver, .. } => deliver,
        _ => &[],
    }
}

// -- The properties -------------------------------------------------------------------------

/// `body` with the bytes at `span` replaced by `with`.
fn splice(body: &[u8], (at, width): (usize, usize), with: &[u8]) -> Vec<u8> {
    [&body[..at], with, &body[at + width..]].concat()
}

/// Damaged versions of a frame's body that must all be refused, each with what it is.
fn damaged(layout: &Layout) -> Vec<(String, Vec<u8>)> {
    let body = &layout.bytes;
    let mut out = vec![("a trailing byte".to_owned(), [&body[..], &[0]].concat())];
    for kind in [16u8, 0x80, u8::MAX] {
        out.push((format!("kind {kind}"), splice(body, (0, 1), &[kind])));
    }
    // Every varint padded to a longer form of the same value (a reader that let a value
    // that does not read default would read on), and the group's past 64 bits and past
    // ten bytes.
    for &(at, width) in &layout.varints {
        let mut padded = body[at..at + width].to_vec();
        *padded.last_mut().unwrap() |= 0x80;
        padded.push(0);
        let what = format!("an over-long varint at {at}");
        out.push((what, splice(body, (at, width), &padded)));
    }
    let group = layout.varints[0];
    let mut wide = vec![0xFF; 9];
    wide.push(0x02);
    out.push((
        "a varint past 64 bits".to_owned(),
        splice(body, group, &wide),
    ));
    let mut eleven = vec![0xFF; 10];
    eleven.push(0x01);
    out.push((
        "an eleven-byte varint".to_owned(),
        splice(body, group, &eleven),
    ));
    if let Some(site) = layout.site {
        out.push((
            "site 65536".to_owned(),
            splice(body, site, &[0x80, 0x80, 0x04]),
        ));
    }
    if let Some((at, width)) = layout.count {
        let left = body.len() - at - width;
        let mut more = Layout::default();
        more.varint(left as u64 + 1);
        out.push((
            format!("count {}", left + 1),
            splice(body, (at, width), &more.bytes),
        ));
        // A reader that sized a list by this count would panic on the capacity.
        let mut huge = Layout::default();
        huge.varint(u64::MAX);
        let damaged = splice(body, (at, width), &huge.bytes);
        out.push(("count 2^64 - 1".to_owned(), damaged));
    }
    if let Some(at) = layout.flag {
        out.push(("option flag 2".to_owned(), splice(body, (at, 1), &[2])));
    }
    out
}

fn check(msg: ProtoMsg, check_truncations: bool) {
    let layout = reference(&msg, GROUP);
    let reference = tree_of(layout.bytes.clone());
    let reference_bytes = codec::encode(&reference);
    let frame = msg.encode_frame(GROUP);
    let tag = msg.type_tag();

    // (a) the one-pass writer produces the tree encoder's bytes of the reference tree;
    let bytes = frame.wire_bytes();
    assert_eq!(bytes, reference_bytes, "{tag}: wire bytes");
    // (b) reading those bytes — as a site beyond a thread boundary does — gives the typed
    // message back, and the tree-shaped forms agree with the byte-shaped ones;
    let arrived = Frame::from_wire(bytes.clone());
    let (group, decoded) = ProtoMsg::decode_frame(&arrived).expect("decodes");
    assert_eq!((*group, decoded), (GROUP, &msg), "{tag}: typed round trip");
    let in_segments = Frame::from_wire(frame.wire_segments());
    assert_eq!(
        ProtoMsg::decode_frame(&in_segments).expect("decodes").1,
        msg,
        "{tag}: typed round trip as the segments the frame was written in"
    );
    assert_eq!(msg.encode(GROUP), reference, "{tag}: encode() is the tree");
    assert_eq!(
        ProtoMsg::decode(&reference).expect("decode(tree)"),
        (GROUP, msg.clone()),
        "{tag}: decode(tree)"
    );
    // (c) the generic codec reads the bytes as exactly the reference tree;
    assert_eq!(
        codec::decode(&bytes).expect("generic decode"),
        reference,
        "{tag}: tree"
    );
    // (d) the size the simulator charges is the tree's wire length, whichever way the frame
    // was born;
    let tree_born = Frame::new(reference.clone());
    for (how, sized) in [
        ("born", &frame),
        ("arrived", &arrived),
        ("tree", &tree_born),
    ] {
        assert_eq!(
            sized.wire_len(),
            reference_bytes.len(),
            "{tag}: wire length ({how})"
        );
    }
    // (e) every held frame comes back out of an ack or commit as the bytes that went in,
    // and reads as the same typed message;
    for (put, got) in held_of(&msg).iter().zip(held_of(decoded)) {
        assert_eq!(
            got.wire.wire_bytes(),
            put.wire.wire_bytes(),
            "{tag}: held bytes"
        );
        assert_eq!(got.ab_priority, put.ab_priority);
        assert_eq!(
            ProtoMsg::decode_frame(&got.wire).expect("held decodes"),
            ProtoMsg::decode_frame(&put.wire).expect("held decodes"),
            "{tag}: held typed value"
        );
    }
    assert_eq!(held_of(&msg).len(), held_of(decoded).len());
    // (f) damage is refused, and never panics: a trailing byte, a bad kind, bad varints,
    // a site beyond 16 bits, a count beyond the bytes left and a bad option flag;
    for (what, body) in damaged(&layout) {
        let tree = tree_of(body);
        assert!(ProtoMsg::decode(&tree).is_err(), "{tag}: {what} decoded");
        let frame = Frame::from_wire(codec::encode(&tree));
        assert!(
            ProtoMsg::decode_frame(&frame).is_err(),
            "{tag}: {what} decoded"
        );
    }
    // (g) and so is every truncation.
    if check_truncations {
        for cut in 0..bytes.len() {
            let prefix = Frame::from_wire(bytes.slice(..cut));
            assert!(
                ProtoMsg::decode_frame(&prefix).is_err(),
                "{tag}: {cut}-byte prefix of {} decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn all_variants_agree_with_the_tree_encoder() {
    let mut policed = [(false, false); 16];
    for seed in 0..40u64 {
        let mut rng = DetRng::new(seed);
        for (variant, (site, count)) in policed.iter_mut().enumerate() {
            let held = [0, 1, 5][(seed % 3) as usize];
            let msg = arbitrary(&mut rng, variant, held);
            let layout = reference(&msg, GROUP);
            *site |= layout.site.is_some();
            *count |= layout.count.is_some();
            check(msg, true);
        }
    }
    // Every variant with a site id or a count had it damaged: all but `FlushAbandoned` and
    // `Relay` (whose sender is inside its payload) have a site, and ten have a count or a
    // length.
    let sites = policed.iter().filter(|(site, _)| *site).count();
    let counts = policed.iter().filter(|(_, count)| *count).count();
    assert_eq!((sites, counts), (14, 10));
}

#[test]
fn an_ordering_frame_is_refused_without_an_entry_or_with_a_partial_one() {
    let decode = |body: &[u8]| {
        let frame = Frame::from_wire(codec::encode(&tree_of(body.to_vec())));
        ProtoMsg::decode_frame(&frame).cloned()
    };
    // `AbPropose` in group 42, view 3, from site 1; `AbOrder` in group 42, view 3.
    let (propose, order) = ([2u8, 42, 3, 1], [3u8, 42, 3]);
    let one_proposal = [&propose[..], &[0, 5, 9]].concat();
    let one_order = [&order[..], &[0, 5, 9, 1]].concat();
    let proposals = |msg: (GroupId, ProtoMsg)| match msg {
        (_, ProtoMsg::AbPropose { proposals, .. }) => proposals.into_iter().count(),
        _ => 0,
    };
    let orders = |msg: (GroupId, ProtoMsg)| match msg {
        (_, ProtoMsg::AbOrder { orders, .. }) => orders.into_iter().count(),
        _ => 0,
    };
    assert_eq!(decode(&one_proposal).map(proposals).ok(), Some(1));
    assert_eq!(decode(&one_order).map(orders).ok(), Some(1));
    assert!(decode(&propose).is_err(), "a proposal frame of no proposal");
    assert!(decode(&order).is_err(), "an order frame of no order");
    // A second entry cut short after each of its values but the last.
    for cut in 1..3 {
        let partial = [&one_proposal[..], &[0, 6, 9][..cut]].concat();
        assert!(
            decode(&partial).is_err(),
            "a proposal cut after {cut} values"
        );
    }
    for cut in 1..4 {
        let partial = [&one_order[..], &[0, 6, 9, 1][..cut]].concat();
        assert!(decode(&partial).is_err(), "an order cut after {cut} values");
    }
}

#[test]
fn long_held_lists_agree_past_the_old_name_table() {
    // 80 held multicasts, beyond the 64 element names a tabled encoder once had.
    // Truncations are sampled by the shorter lists above; at this size every prefix would
    // be quadratic for no new code path.
    for seed in 0..4u64 {
        let mut rng = DetRng::new(1_000 + seed);
        for variant in [9, 10] {
            let msg = arbitrary(&mut rng, variant, 80);
            assert_eq!(held_of(&msg).len(), 80);
            check(msg, false);
        }
    }
}

#[test]
fn a_stability_frame_of_many_groups_agrees_and_survives_damage() {
    // What a site hosting 64 groups sends a peer each tick: 64 entries.  Typed round trip,
    // reference layout and wire length as for any message.
    for seed in 0..2u64 {
        let mut rng = DetRng::new(2_000 + seed);
        let msg = stability(&mut rng, 64);
        let layout = reference(&msg, GROUP);
        assert_eq!(&layout.bytes[..4], &[12, 42, layout.bytes[2], 64]);
        check(msg.clone(), false);
        // Damage: a sample of truncations is refused; a flipped bit anywhere gives a frame
        // that decodes (to *some* report — a changed sequence number is still a number) or
        // is refused, and neither path panics.
        let bytes = msg.encode_frame(GROUP).wire_bytes();
        for cut in (0..bytes.len()).step_by(29) {
            let prefix = Frame::from_wire(bytes.slice(..cut));
            assert!(
                ProtoMsg::decode_frame(&prefix).is_err(),
                "{cut}-byte prefix"
            );
        }
        for at in (0..bytes.len()).step_by(13) {
            let mut damaged = bytes.to_vec();
            damaged[at] ^= 1 << (at % 8);
            let frame = Frame::from_wire(Bytes::from(damaged));
            if let Ok((_, ProtoMsg::Stability { entries, .. })) = ProtoMsg::decode_frame(&frame) {
                assert!(
                    entries.len() <= 64,
                    "an entry count cannot grow past its bytes"
                );
            }
        }
    }
}

/// Addresses of every application `body` a message carries, directly or inside the frames
/// it holds for a flush.
fn body_addresses(msg: &ProtoMsg) -> Vec<*const u8> {
    let of = |payload: &Message| payload.get_bytes("body").expect("body").as_ptr();
    match msg {
        ProtoMsg::CbData { payload, .. }
        | ProtoMsg::AbData { payload, .. }
        | ProtoMsg::GbcastReq { payload, .. }
        | ProtoMsg::Relay { payload, .. } => vec![of(payload)],
        ProtoMsg::FlushAck { stored: held, .. } => held_addresses(held),
        ProtoMsg::FlushCommit {
            deliver, gbcasts, ..
        } => held_addresses(deliver)
            .into_iter()
            .chain(gbcasts.iter().map(of))
            .collect(),
        _ => Vec::new(),
    }
}

fn held_addresses(held: &[StoredMsg]) -> Vec<*const u8> {
    held.iter()
        .flat_map(|s| body_addresses(&ProtoMsg::decode_frame(&s.wire).expect("held").1))
        .collect()
}

#[test]
fn bulk_payloads_travel_by_reference_and_flatten_to_the_tree_encoders_bytes() {
    let mut rng = DetRng::new(64);
    let body: Bytes = (0..64 * 1024)
        .map(|_| rng.next_u64() as u8)
        .collect::<Vec<u8>>()
        .into();
    let bulk = |op: u64| Message::with_body(body.clone()).with("op", op);
    let cb = ProtoMsg::CbData {
        id: MsgId::new(SiteId(1), 7),
        sender: ProcessId::new(SiteId(1), 1),
        sender_rank: 1,
        view_seq: 3,
        vt: VectorClock::from_entries(vec![4, 7]),
        payload: bulk(1),
    };
    let ab = ProtoMsg::AbData {
        id: MsgId::new(SiteId(0), 9),
        sender: ProcessId::new(SiteId(0), 1),
        view_seq: 3,
        payload: bulk(2),
    };
    // Held both ways a frame can be: as written here, and as received in segments.
    let held = vec![
        StoredMsg {
            wire: cb.encode_frame(GROUP),
            ab_priority: None,
        },
        StoredMsg {
            wire: Frame::from_wire(ab.encode_frame(GROUP).wire_segments()),
            ab_priority: Some(12),
        },
    ];
    let ack = ProtoMsg::FlushAck {
        target_seq: 4,
        from_site: SiteId(1),
        ab_clock: 12,
        stored: held.clone(),
    };
    let commit = ProtoMsg::FlushCommit {
        view: view(&mut rng),
        deliver: held,
        covered: frontier(&mut rng),
        gbcasts: vec![bulk(3)],
    };
    let relay = ProtoMsg::Relay {
        protocol: ProtocolKind::Abcast,
        payload: bulk(4),
    };
    for (msg, bodies) in [(cb, 1), (ab, 1), (ack, 2), (commit, 3), (relay, 1)] {
        let tag = msg.type_tag();
        // Typed equality, and flatten == the tree encoder's bytes (`check` (a)-(e)).
        check(msg.clone(), false);
        // Every body in the frame is the sender's buffer, spliced; what the frame holds
        // of its own is small however many bodies it carries.
        let wire = msg.encode_frame(GROUP).wire_segments();
        let spliced = wire
            .iter()
            .filter(|seg| seg.as_ptr() == body.as_ptr() && seg.len() == body.len())
            .count();
        assert_eq!(spliced, bodies, "{tag}: bodies by reference");
        assert!(wire.len() - bodies * body.len() < 1024, "{tag}: own bytes");
        // A receiver of those segments reads each one back out as that buffer — through
        // the carrier, the held frame inside it and the payload inside that.
        let arrived = Frame::from_wire(wire);
        let (_, decoded) = ProtoMsg::decode_frame(&arrived).expect("decodes");
        assert_eq!(
            body_addresses(decoded),
            vec![body.as_ptr(); bodies],
            "{tag}: bodies read"
        );
    }
}

#[test]
fn edge_shapes_agree_with_the_tree_encoder() {
    let founder = ProcessId::new(SiteId(0), 1);
    let view = View::founding(GROUP, founder);
    for msg in [
        // Empty everything a commit can carry.
        ProtoMsg::FlushCommit {
            view: view.clone(),
            deliver: Vec::new(),
            covered: Frontier::new(),
            gbcasts: Vec::new(),
        },
        // A view with joined and departed members, non-empty gbcasts, one held message.
        ProtoMsg::FlushCommit {
            view: view
                .successor(&[], &[ProcessId::new(SiteId(1), 1)])
                .successor(&[founder], &[ProcessId::new(SiteId(2), 1)]),
            deliver: stored(&mut DetRng::new(5), 1),
            covered: frontier(&mut DetRng::new(6)),
            gbcasts: vec![Message::with_body("cfg"), Message::new()],
        },
        ProtoMsg::FlushAck {
            target_seq: 2,
            from_site: SiteId(1),
            ab_clock: 0,
            stored: Vec::new(),
        },
        // The probe of a wedged endpoint: one entry, nothing received.
        ProtoMsg::Stability {
            from_site: SiteId(3),
            entries: vec![StabilityEntry {
                group: GROUP,
                view_seq: 2,
                received: IdSet::new().into(),
            }],
        },
        // A frame nobody sends: no entry at all.
        ProtoMsg::Stability {
            from_site: SiteId(3),
            entries: Vec::new(),
        },
        ProtoMsg::FailReport { failed: Vec::new() },
        ProtoMsg::CbData {
            id: MsgId::new(SiteId(0), 1),
            sender: founder,
            sender_rank: 0,
            view_seq: 1,
            vt: VectorClock::from_entries(Vec::new()),
            payload: Message::new(),
        },
    ] {
        check(msg, true);
    }
}
