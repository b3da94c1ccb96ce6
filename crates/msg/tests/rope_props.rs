//! However a wire form is cut into segments, it reads the same.
//!
//! A writer cuts its output only around large byte strings, which it takes by reference; a
//! receiver may be handed the same bytes cut anywhere.  For seeded random messages — byte
//! strings from nothing to 200 KiB, nested up to four deep, alone and inside a frame shaped
//! like a protocol message — this suite checks that
//!
//! 1. the writer's segments, concatenated, are the bytes the flat encoder produces;
//! 2. the writer's list, the flat bytes and the same bytes re-cut (at every offset for a
//!    small message; at random offsets, near the start and around the writer's own
//!    boundaries for a large one) decode to equal trees, the exact wire length and equal
//!    value-by-value reads of a protocol frame's positional body;
//! 3. a value the writer spliced comes back out of the writer's list as the very buffer
//!    that went in, and out of any other cut with the right contents;
//! 4. truncated, bit-flipped, shortened and lengthened lists are errors or other messages,
//!    never a panic.
//!
//! Cases come from a fixed seed and nothing relies on shrinking: a failure names its case.

use vsync_msg::stream::{FrameReader, FrameWriter, FRAME_FIELD};
use vsync_msg::{codec, Bytes, Frame, Message, Segments, Value};
use vsync_util::{Address, DetRng, GroupId, ProcessId, Result, SiteId};

/// Appends `v` as a LEB128 varint: the reference for what the frame writer writes.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

const CASES: u64 = 48;

/// Byte-string lengths on both sides of any plausible splice threshold.
const LENGTHS: [usize; 12] = [
    0,
    1,
    16,
    255,
    1023,
    1024,
    1025,
    4096,
    65_535,
    65_536,
    131_072,
    200 * 1024,
];

struct Gen {
    rng: DetRng,
    /// Every byte-string value is a slice of this one buffer, so 200 KiB values cost nothing
    /// to make and pointer identity is meaningful.
    source: Bytes,
}

impl Gen {
    fn new(seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let source: Vec<u8> = (0..256 * 1024).map(|_| rng.next_u64() as u8).collect();
        Gen {
            rng,
            source: source.into(),
        }
    }

    fn bytes(&mut self, len: usize) -> Bytes {
        let at = self.rng.next_index(self.source.len() - len + 1);
        self.source.slice(at..at + len)
    }

    fn any_bytes(&mut self) -> Bytes {
        let len = LENGTHS[self.rng.next_index(LENGTHS.len())];
        self.bytes(len)
    }

    fn name(&mut self, i: usize) -> String {
        match self.rng.next_index(4) {
            0 => format!("f{i}"),
            1 => format!("field-number-{i}"),
            2 => format!("{i}-a-name-longer-than-the-writers-forty-eight-byte-stack-header"),
            _ => format!("@{i}"),
        }
    }

    fn address(&mut self) -> Address {
        if self.rng.chance(0.5) {
            Address::Group(GroupId(self.rng.next_below(1 << 40)))
        } else {
            Address::Process(ProcessId::new(
                SiteId(self.rng.next_below(64) as u16),
                self.rng.next_below(1000) as u32,
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Value {
        match self.rng.next_index(if depth < 4 { 10 } else { 8 }) {
            0 => Value::Bool(self.rng.chance(0.5)),
            1 => Value::I64(self.rng.next_u64() as i64),
            2 => Value::U64(self.rng.next_u64()),
            3 => Value::Str("x".repeat(self.rng.next_index(40))),
            4 | 5 => Value::Bytes(self.any_bytes()),
            6 => Value::Addr(self.address()),
            7 => Value::U64List((0..self.rng.next_index(6)).map(|i| i as u64 * 7).collect()),
            _ => Value::Msg(Box::new(self.tree(depth + 1))),
        }
    }

    fn tree(&mut self, depth: usize) -> Message {
        let mut m = Message::new();
        for i in 0..self.rng.next_index(6) {
            let (name, value) = (self.name(i), self.value(depth));
            m.set(&name, value);
        }
        m
    }

    /// A top-level tree with the shapes the issue names forced in turn: a large value
    /// first, last, several of them, one four levels down.
    fn shaped_tree(&mut self, case: u64) -> Message {
        let big = |g: &mut Gen| Value::Bytes(g.bytes(64 * 1024));
        let mut m = Message::new();
        if case % 4 == 0 {
            m.set("first", big(self));
        }
        for (name, value) in self
            .tree(0)
            .iter()
            .map(|f| (f.name.clone(), f.value.clone()))
        {
            m.set(name.as_str(), value);
        }
        if case % 4 == 1 {
            for i in 0..3 {
                m.set(&format!("several-{i}"), big(self));
            }
        }
        if case % 4 == 2 {
            let mut nested = Message::new().with("deep", big(self));
            for level in 0..3 {
                nested = Message::new()
                    .with("level", level as u64)
                    .with("inner", nested);
            }
            m.set("nest", nested);
        }
        if case % 2 == 1 {
            m.set("last", big(self));
        }
        m
    }
}

/// A frame shaped like a data-bearing protocol message that also carries a held frame, as
/// a flush commit does: written value by value, with `payload` a tree and `held` the wire
/// form of another one.  Returns the writer's output and the tree it must be equal to, whose one value is the positional body written out by hand.
fn protocol_shaped(payload: &Message, held: &Message, seq: u64) -> (Segments, Message) {
    let held_wire = codec::encode_segments(held);
    let mut w = FrameWriter::with_capacity(96 + codec::buffered_len(payload));
    w.put_str("shaped");
    w.put_varint(9);
    w.put_varint(seq);
    w.put_varint(3);
    for v in [seq, 0, 3] {
        w.put_varint(v);
    }
    w.put_message(payload);
    w.put_segments(&held_wire);
    w.put_u8(1);
    w.put_varint(seq + 1);
    w.put_varint(!seq);
    let wire = w.finish();
    let mut body = vec![6];
    body.extend_from_slice(b"shaped");
    for v in [9, seq, 3, seq, 0, 3] {
        varint(&mut body, v);
    }
    let payload_body = codec::encode(payload).slice(1..);
    varint(&mut body, payload_body.len() as u64);
    body.extend_from_slice(&payload_body);
    let held_flat = codec::encode(held);
    varint(&mut body, held_flat.len() as u64);
    body.extend_from_slice(&held_flat);
    body.push(1);
    varint(&mut body, seq + 1);
    varint(&mut body, !seq);
    (wire, Message::new().with(FRAME_FIELD, body))
}

/// What reading a protocol-shaped body value by value yields.
#[derive(Debug, PartialEq)]
struct Read {
    kind: String,
    group: u64,
    seq: u64,
    vt: Vec<u64>,
    payload: Message,
    held: Bytes,
    abp: Option<u64>,
    tail: u64,
}

/// Reads a protocol-shaped body through a frame reader.
fn read_shaped(body: &Segments) -> Result<Read> {
    body.read_with(|body| {
        let mut c = FrameReader::open(body)?;
        let read = Read {
            kind: c.str()?.to_owned(),
            group: c.varint()?,
            seq: c.varint()?,
            vt: {
                let n = c.count()?;
                (0..n).map(|_| c.varint()).collect::<Result<_>>()?
            },
            payload: c.message()?,
            held: c.segments()?.to_bytes(),
            abp: (c.u8()? == 1).then(|| c.varint()).transpose()?,
            tail: c.varint()?,
        };
        c.finish()?;
        Ok(read)
    })
}

/// Bytes of `m`'s byte-string values that a gathering writer takes by reference.
fn spliced_len(m: &Message) -> usize {
    codec::wire_len(m) - 1 - codec::buffered_len(m)
}

/// `flat` cut into segments at `cuts` (sorted or not, repeats allowed).
fn cut_at(flat: &Bytes, cuts: &[usize]) -> Segments {
    let mut cuts = cuts.to_vec();
    cuts.push(flat.len());
    cuts.sort_unstable();
    let mut from = 0;
    cuts.into_iter()
        .map(|to| {
            let seg = flat.slice(from..to);
            from = to;
            seg
        })
        .collect()
}

/// The ways `wire` is re-cut: every single offset when it is short; otherwise single cuts
/// through the first bytes (envelope, count, first name, first prefix) and on either side
/// of each boundary the writer chose (inside the length prefix before a spliced value and
/// the name after it), plus several sets of random offsets.
fn recuts(wire: &Segments, rng: &mut DetRng) -> Vec<Segments> {
    let flat = wire.to_bytes();
    let len = flat.len();
    let mut singles: Vec<usize> = if len <= 400 {
        (0..=len).collect()
    } else {
        (0..64).collect()
    };
    let mut edge = 0;
    for seg in wire.iter() {
        edge += seg.len();
        singles.extend((edge.saturating_sub(5)..=edge + 5).filter(|at| *at <= len));
    }
    let mut all: Vec<Segments> = singles.iter().map(|at| cut_at(&flat, &[*at])).collect();
    for _ in 0..6 {
        let cuts: Vec<usize> = (0..1 + rng.next_index(6))
            .map(|_| rng.next_index(len + 1))
            .collect();
        all.push(cut_at(&flat, &cuts));
    }
    all
}

/// Every value the writer spliced — a segment of `wire` is that very buffer — must come
/// back out of `got` as that buffer too.  Returns how many there were.
fn assert_spliced_values_alias(wire: &Segments, sent: &Message, got: &Message) -> usize {
    let is_segment = |value: &Bytes| {
        wire.iter()
            .any(|seg| seg.as_ptr() == value.as_ptr() && seg.len() == value.len())
    };
    let mut spliced = 0;
    for (s, g) in sent.iter().zip(got.iter()) {
        match (&s.value, &g.value) {
            (Value::Bytes(a), Value::Bytes(b)) if is_segment(a) => {
                assert_eq!(b.as_ptr(), a.as_ptr(), "field {}: a copy", s.name.as_str());
                spliced += 1;
            }
            (Value::Msg(a), Value::Msg(b)) => spliced += assert_spliced_values_alias(wire, a, b),
            _ => {}
        }
    }
    spliced
}

#[test]
fn writer_segments_concatenate_to_the_flat_encoding() {
    let mut g = Gen::new(0x5e9_0001);
    let mut multi = 0;
    for case in 0..CASES {
        let tree = g.shaped_tree(case);
        let wire = codec::encode_segments(&tree);
        assert_eq!(wire.to_bytes(), codec::encode(&tree), "case {case}: tree");
        assert_eq!(wire.len(), codec::wire_len(&tree), "case {case}: length");
        multi += usize::from(wire.iter().count() > 1);
        let held = g.shaped_tree(case + 1);
        let (wire, shaped) = protocol_shaped(&tree, &held, case);
        assert_eq!(
            wire.to_bytes(),
            codec::encode(&shaped),
            "case {case}: frame"
        );
        assert_eq!(
            wire.len(),
            codec::wire_len(&shaped),
            "case {case}: frame length"
        );
        // The writer copies everything but the large values of the payload and the held
        // frame; those are segments of their own, all slices of the one source buffer.
        let source = g.source.as_ptr() as usize..g.source.as_ptr() as usize + g.source.len();
        let own = wire
            .iter()
            .filter(|seg| !source.contains(&(seg.as_ptr() as usize)));
        assert_eq!(
            own.map(|seg| seg.len()).sum::<usize>(),
            wire.len() - spliced_len(&tree) - spliced_len(&held),
            "case {case}: what the writer copied"
        );
    }
    assert!(multi >= CASES as usize / 2, "large values were generated");
    // On both sides of the threshold: a 16 B value is copied, a 64 KiB one is not.
    let small = codec::encode_segments(&Message::with_body(g.bytes(16)));
    assert_eq!(small.iter().count(), 1);
    let body = g.bytes(64 * 1024);
    let large = codec::encode_segments(&Message::with_body(body.clone()));
    assert_eq!(
        large.iter().nth(1).expect("spliced").as_ptr(),
        body.as_ptr()
    );
    assert!(large.buffered_len() < 64);
}

#[test]
fn every_cut_decodes_to_the_same_tree_model_and_fields() {
    let mut g = Gen::new(0x5e9_0002);
    let mut spliced = 0;
    for case in 0..CASES {
        let payload = g.shaped_tree(case);
        let held = g.shaped_tree(case + 2);
        let (wire, shaped) = protocol_shaped(&payload, &held, case);
        let flat = wire.to_bytes();
        let len = codec::wire_len(&shaped);
        assert_eq!(
            Frame::new(shaped.clone()).wire_len(),
            len,
            "case {case}: tree"
        );
        let held_flat = codec::encode(&held);

        // The writer's own list: equal, and spliced values are the buffers that went in.
        let got = codec::decode_segments(&wire).expect("writer's list decodes");
        assert_eq!(got, shaped, "case {case}");
        let frame = Frame::from_wire(wire.clone());
        assert_eq!(frame.wire_len(), len, "case {case}");
        assert_eq!(frame.first_field_name(), Some(FRAME_FIELD));
        assert_eq!(frame.message(), &shaped);
        let body = codec::envelope_body(&wire).expect("envelope");
        let want = read_shaped(&body).expect("reads");
        assert_eq!(want.payload, payload, "case {case}");
        assert_eq!(want.held, held_flat, "case {case}");
        assert_eq!(
            (want.kind.as_str(), want.group, want.vt.as_slice()),
            ("shaped", 9, &[case, 0, 3][..])
        );
        assert_eq!(
            (want.seq, want.abp, want.tail),
            (case, Some(case + 1), !case)
        );
        spliced += assert_spliced_values_alias(&wire, &payload, &want.payload);

        // One buffer, and the same bytes cut anywhere.
        assert_eq!(codec::decode(&flat).expect("flat"), shaped, "case {case}");
        let mut cuts = recuts(&wire, &mut g.rng);
        cuts.push(flat.clone().into());
        for (i, cut) in cuts.iter().enumerate() {
            assert_eq!(cut.to_bytes(), flat, "case {case}, cut {i}: same bytes");
            let got = codec::decode_segments(cut);
            assert_eq!(got.as_ref(), Ok(&shaped), "case {case}, cut {i}: tree");
            let frame = Frame::from_wire(cut.clone());
            assert_eq!(frame.wire_len(), len, "case {case}, cut {i}: length");
            assert_eq!(frame.first_field_name(), Some(FRAME_FIELD));
            let body = frame.wire_body().expect("envelope");
            let read = read_shaped(&body);
            assert_eq!(read.as_ref(), Ok(&want), "case {case}, cut {i}: values");
        }
    }
    assert!(spliced >= CASES as usize, "spliced values were read back");
}

#[test]
fn damaged_lists_are_errors_or_other_messages_never_a_panic() {
    let mut g = Gen::new(0x5e9_0003);
    // Everything a node does with bytes it was handed.
    let poke = |wire: Segments| -> bool {
        let decoded = codec::decode_segments(&wire);
        let frame = Frame::from_wire(wire);
        assert_eq!(frame.try_message().is_ok(), decoded.is_ok());
        if decoded.is_err() {
            assert!(frame.message().is_empty(), "undecodable reads as empty");
        }
        let _ = (
            frame.wire_len(),
            frame.first_field_name(),
            frame.wire_bytes(),
        );
        let _ = format!("{frame:?}");
        if let Ok(body) = frame.wire_body() {
            let _ = read_shaped(&body);
        }
        decoded.is_ok()
    };
    for case in 0..CASES {
        let (payload, held) = (g.shaped_tree(case), g.shaped_tree(case + 3));
        let (wire, _) = protocol_shaped(&payload, &held, case);
        assert!(poke(wire.clone()), "case {case}: intact");
        let segs: Vec<Bytes> = wire.iter().cloned().collect();
        let with = |i: usize, seg: Option<Bytes>| -> Segments {
            let mut segs = segs.clone();
            match seg {
                Some(seg) => segs[i] = seg,
                None => drop(segs.remove(i)),
            }
            // Kept as they are, not merged: an emptied segment just drops out.
            segs.into_iter().collect()
        };
        // Damage in the middle can leave a well-formed message behind (beheading the
        // segment after a value by exactly one field does): only a list that lost its end
        // is certain to be an error.
        for (i, seg) in segs.iter().enumerate() {
            let cut = g.rng.next_index(seg.len());
            let last = i + 1 == segs.len();
            let truncated = poke(with(i, Some(seg.slice(..cut))));
            assert!(!(truncated && last), "case {case}: truncated at the end");
            poke(with(i, Some(seg.slice(seg.len() - cut..))));
            let missing = poke(with(i, None));
            assert!(!(missing && last), "case {case}: last segment missing");
            let mut flipped = seg.to_vec();
            let at = g.rng.next_index(flipped.len());
            flipped[at] ^= 1 << g.rng.next_index(8);
            poke(with(i, Some(flipped.into())));
        }
        let extra = g.any_bytes();
        let longer: Segments = segs.iter().cloned().chain([extra.clone()]).collect();
        assert_eq!(poke(longer), extra.is_empty(), "case {case}: extra segment");
        let doubled: Segments = segs.iter().chain(&segs[..1]).cloned().collect();
        assert!(
            !poke(doubled),
            "case {case}: first segment again at the end"
        );
    }
    assert!(!poke(Segments::default()), "no bytes at all");
}
