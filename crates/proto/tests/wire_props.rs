//! Model-based property test: the streaming protocol encoder and the cursor decoder against
//! the tree encoder they replaced.
//!
//! Until issue 14 a [`ProtoMsg`] reached the wire by way of a [`Message`] tree
//! (`ProtoMsg::encode`, then `codec::encode`).  That tree encoder lives on below as the
//! executable specification of the wire format — including the `i{N}` element names of packed
//! lists, which used to come from a 64-entry table — and for seeded arbitrary messages of all
//! 16 variants the one-pass writer must agree with it byte for byte, the size model must
//! agree with the tree's `encoded_len`, the reader must give back the typed message, frames
//! nested in a flush ack or commit must come back out as the bytes that went in, and no
//! truncation may decode or panic.
//!
//! A stability frame is a site's reports on many groups at once (issue 17), so the
//! generator draws it with no entry, one, or many — groups repeated and out of order, sets
//! with open gaps — and a frame of 64 entries is checked on its own, bit-flips included:
//! whatever arrives decodes or is refused, and never panics.
//!
//! Since issue 16 a frame's bytes are held as a list of segments, with a large payload body
//! spliced in by reference.  That changes how the bytes are held, not which bytes they are:
//! the reference below is still compared against the list's concatenation, the list itself
//! must read back as the typed message, and 64 KiB bodies — alone, held in a flush ack, held
//! in a commit — must come back out as the very buffer the sender put in.

use vsync_msg::{codec, Bytes, Frame, Message};
use vsync_net::{MsgId, ProtocolKind};
use vsync_proto::messages::{StabilityEntry, StoredMsg};
use vsync_proto::{Frontier, IdSet, ProtoMsg, View};
use vsync_util::{Address, DetRng, GroupId, ProcessId, SiteId, VectorClock};

// -- The reference: the tree encoder as it stood before the streaming writer -------------

fn addrs(ps: &[ProcessId]) -> Vec<Address> {
    ps.iter().map(|p| Address::Process(*p)).collect()
}

fn pack_msg_list(items: &[Message]) -> Message {
    let mut list = Message::new();
    list.set("n", items.len() as u64);
    for (i, item) in items.iter().enumerate() {
        list.set(&format!("i{i}"), item.clone());
    }
    list
}

fn pack_stored(stored: &[StoredMsg]) -> Message {
    let items: Vec<Message> = stored
        .iter()
        .map(|s| {
            let mut m = Message::new();
            m.set("wire", s.wire.to_message());
            if let Some(p) = s.ab_priority {
                m.set("abp", p);
            }
            m
        })
        .collect();
    pack_msg_list(&items)
}

fn put_msg_id(m: &mut Message, id: MsgId) {
    m.set("id-origin", id.origin.0 as u64);
    m.set("id-seq", id.seq);
}

fn reference_tree(msg: &ProtoMsg, group: GroupId) -> Message {
    let mut m = Message::new();
    m.set("@g-type", msg.type_tag());
    m.set("@g-group", group);
    match msg {
        ProtoMsg::CbData {
            id,
            sender,
            sender_rank,
            view_seq,
            vt,
            payload,
        } => {
            put_msg_id(&mut m, *id);
            m.set("sender", *sender);
            m.set("sender-rank", *sender_rank);
            m.set("view-seq", *view_seq);
            m.set("vt", vt.entries().to_vec());
            m.set("payload", payload.clone());
        }
        ProtoMsg::AbData {
            id,
            sender,
            view_seq,
            payload,
        } => {
            put_msg_id(&mut m, *id);
            m.set("sender", *sender);
            m.set("view-seq", *view_seq);
            m.set("payload", payload.clone());
        }
        ProtoMsg::AbPropose {
            id,
            view_seq,
            proposed,
            proposer_site,
        } => {
            put_msg_id(&mut m, *id);
            m.set("view-seq", *view_seq);
            m.set("proposed", *proposed);
            m.set("proposer-site", proposer_site.0 as u64);
        }
        ProtoMsg::AbOrder {
            id,
            view_seq,
            final_priority,
            tiebreak_site,
        } => {
            put_msg_id(&mut m, *id);
            m.set("view-seq", *view_seq);
            m.set("final", *final_priority);
            m.set("tiebreak-site", tiebreak_site.0 as u64);
        }
        ProtoMsg::JoinReq {
            joiner,
            credentials,
        } => {
            m.set("joiner", *joiner);
            if let Some(c) = credentials {
                m.set("credentials", c.as_str());
            }
        }
        ProtoMsg::LeaveReq { member } => {
            m.set("member", *member);
        }
        ProtoMsg::FailReport { failed } => {
            m.set("failed", addrs(failed));
        }
        ProtoMsg::GbcastReq { sender, payload } => {
            m.set("sender", *sender);
            m.set("payload", payload.clone());
        }
        ProtoMsg::FlushReq {
            target_seq,
            initiator,
            attempt,
        } => {
            m.set("target-seq", *target_seq);
            m.set("initiator", *initiator);
            m.set("attempt", *attempt);
        }
        ProtoMsg::FlushAck {
            target_seq,
            from_site,
            ab_clock,
            stored,
        } => {
            m.set("target-seq", *target_seq);
            m.set("from-site", from_site.0 as u64);
            m.set("ab-clock", *ab_clock);
            m.set("stored", pack_stored(stored));
        }
        ProtoMsg::FlushAbandoned {
            target_seq,
            attempt,
        } => {
            m.set("target-seq", *target_seq);
            m.set("attempt", *attempt);
        }
        ProtoMsg::FlushCommit {
            view,
            deliver,
            covered,
            gbcasts,
        } => {
            m.set("view-group", view.id.group);
            m.set("view-seq", view.id.seq);
            m.set("view-members", addrs(&view.members));
            m.set("view-joined", addrs(&view.joined));
            m.set("view-departed", addrs(&view.departed));
            m.set("deliver", pack_stored(deliver));
            m.set("covered", covered.to_wire());
            m.set("gbcasts", pack_msg_list(gbcasts));
        }
        ProtoMsg::Stability { from_site, entries } => {
            m.set("from-site", from_site.0 as u64);
            let entries: Vec<Message> = entries
                .iter()
                .map(|e| {
                    let mut m = Message::new();
                    m.set("group", e.group);
                    m.set("view-seq", e.view_seq);
                    let (runs, ids) = e.received.to_wire();
                    m.set("runs", runs);
                    if !ids.is_empty() {
                        m.set("ids", ids);
                    }
                    m
                })
                .collect();
            m.set("entries", pack_msg_list(&entries));
        }
        ProtoMsg::ReformSummary {
            from_site,
            view_seq,
            covered,
            rank,
        } => {
            m.set("from-site", from_site.0 as u64);
            m.set("view-seq", *view_seq);
            m.set("covered", covered.to_wire());
            m.set("rank", *rank);
        }
        ProtoMsg::ReformAlive { contact } => {
            m.set("contact", contact.0 as u64);
        }
        ProtoMsg::Relay { protocol, payload } => {
            m.set("protocol", protocol.name());
            m.set("payload", payload.clone());
        }
    }
    m
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
        2 => ProtoMsg::AbPropose {
            id: msg_id(rng),
            view_seq: rng.next_below(9),
            proposed: rng.next_u64(),
            proposer_site: SiteId(rng.next_below(6) as u16),
        },
        3 => ProtoMsg::AbOrder {
            id: msg_id(rng),
            view_seq: rng.next_below(9),
            final_priority: rng.next_u64(),
            tiebreak_site: SiteId(rng.next_below(6) as u16),
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

fn check(msg: ProtoMsg, check_truncations: bool) {
    let reference = reference_tree(&msg, GROUP);
    let reference_bytes = codec::encode(&reference);
    let frame = msg.encode_frame(GROUP);
    let tag = msg.type_tag();

    // (a) the one-pass writer produces the tree encoder's bytes, byte for byte;
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
    // (d) the size the simulator charges is the tree's, whichever way the frame was born;
    assert_eq!(
        frame.model_len(),
        reference.encoded_len(),
        "{tag}: model (born)"
    );
    assert_eq!(
        arrived.model_len(),
        reference.encoded_len(),
        "{tag}: model (arrived)"
    );
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
    // (f) no truncation decodes, and none panics.
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
    for seed in 0..40u64 {
        let mut rng = DetRng::new(seed);
        for variant in 0..16 {
            let held = [0, 1, 5][(seed % 3) as usize];
            check(arbitrary(&mut rng, variant, held), true);
        }
    }
}

#[test]
fn long_held_lists_agree_past_the_old_name_table() {
    // 80 held multicasts: element names `i0`..`i79`, beyond the 64-entry table the tree
    // encoder used to have.  Truncations are sampled by the shorter lists above; at this
    // size every prefix would be quadratic for no new code path.
    for seed in 0..4u64 {
        let mut rng = DetRng::new(1_000 + seed);
        for variant in [9, 10] {
            let msg = arbitrary(&mut rng, variant, 80);
            let tree = reference_tree(&msg, GROUP);
            let list = tree
                .get_msg(if variant == 9 { "stored" } else { "deliver" })
                .expect("list");
            assert!(list.get_msg("i63").is_some() && list.get_msg("i79").is_some());
            check(msg, false);
        }
    }
}

#[test]
fn a_stability_frame_of_many_groups_agrees_and_survives_damage() {
    // What a site hosting 64 groups sends a peer each tick: 64 entries, element names
    // `i0`..`i63`.  Typed round trip, reference tree and size model as for any message.
    for seed in 0..2u64 {
        let mut rng = DetRng::new(2_000 + seed);
        let msg = stability(&mut rng, 64);
        let tree = reference_tree(&msg, GROUP);
        let list = tree.get_msg("entries").expect("list");
        assert_eq!(list.get_u64("n"), Some(64));
        assert!(list.get_msg("i63").is_some_and(|e| e.contains("runs")));
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
                    "an entry count cannot grow past its fields"
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
