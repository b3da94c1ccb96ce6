//! A compact binary codec for [`Message`].
//!
//! The codec is self-contained (no external schema), length-prefixed, and versioned with a
//! single magic byte.  It is the wire format of the threaded backend — every packet that
//! crosses a thread boundary travels as these bytes (see `vsync_rt::wire`) — and of the
//! file-backed stable store.  A [`crate::Frame`] holds a message in this form, in tree form,
//! or both, and derives either from the other through this module.  A protocol frame is a
//! message of one byte-string field whose bytes are laid out by position
//! ([`crate::stream`]), written and read without a [`Message`] in between.
//!
//! The layout is an envelope byte (`0xA5`) followed by a message *body*: a `u32` field
//! count, then per field a `u16`-prefixed name, a type tag and the value.  A nested message
//! is a body without the envelope byte and carries no length of its own.
//!
//! Two decode paths are provided:
//!
//! * [`decode`] — the owned path: allocates a [`Message`] whose strings and byte vectors are
//!   independent of the input buffer.  Strings are allocated exactly once (the field table is
//!   populated by moving the freshly decoded name, not re-cloning it).
//! * [`decode_shared`] / [`decode_segments`] — the owned path over shared input: `Bytes`
//!   values alias the input instead of being copied out of it.
//!
//! The same bytes may be held as one buffer or as a [`Segments`] list.  [`encode_segments`]
//! writes the list form, in which a large `Bytes` value is its own segment — the value's
//! buffer itself, not a copy — and the decoders over shared input hand such a segment back
//! as the value; see [`crate::segments`].  [`encode`] and [`encode_to`] write one buffer:
//! pre-sized from [`wire_len`], which is exact by construction, and [`encode_to`] lets hot
//! callers (the file-backed stable store) reuse one `BytesMut` scratch buffer across
//! messages instead of allocating per call.

use bytes::{BufMut, Bytes, BytesMut};
use vsync_util::{Result, VsError};

use crate::message::{Field, Message};
use crate::name::FieldName;
use crate::segments::{splices, Reader, Segments, SegmentsMut, Sink};
use crate::value::{decode_address, encode_address, Value};

/// The envelope byte every top-level encoded message starts with.
pub(crate) const MAGIC: u8 = 0xA5;

/// Minimum wire size of one encoded field: a 2-byte name length (empty name) plus the
/// smallest value encoding (1-byte tag + 1-byte `Bool` body).  Bounds how many fields a
/// buffer of a given size can possibly hold.
const MIN_FIELD_WIRE_LEN: usize = 4;

/// Fields reserved eagerly from a decoded count.  Counts beyond this grow the field table
/// as fields actually decode, so a corrupt header cannot amplify a small input into a huge
/// up-front allocation (an in-memory field costs ~18× its minimum wire size).
const MAX_EAGER_FIELDS: usize = 1024;

/// Maximum `Value::Msg` nesting the decoders accept.  Decoding recurses per level, so
/// without a bound a small crafted buffer of nested message headers overflows the stack
/// and aborts; toolkit messages nest at most a handful of levels.
const MAX_NESTING_DEPTH: usize = 32;

// Value type tags.
pub(crate) const TAG_BOOL: u8 = 1;
pub(crate) const TAG_I64: u8 = 2;
pub(crate) const TAG_U64: u8 = 3;
pub(crate) const TAG_F64: u8 = 4;
pub(crate) const TAG_STR: u8 = 5;
pub(crate) const TAG_BYTES: u8 = 6;
pub(crate) const TAG_ADDR: u8 = 7;
pub(crate) const TAG_ADDR_LIST: u8 = 8;
pub(crate) const TAG_U64_LIST: u8 = 9;
pub(crate) const TAG_MSG: u8 = 10;

/// Exact number of bytes [`encode`] produces for `msg`, worked out from the tree without
/// encoding it: how the simulator sizes a frame that holds no bytes.
pub fn wire_len(msg: &Message) -> usize {
    1 + message_wire_len(msg, false)
}

/// How many bytes of `msg`'s body a gathering writer ([`encode_segments`], a
/// [`crate::stream::FrameWriter`]) copies into its own buffer: the wire size less the byte
/// strings it takes by reference.  What such a writer reserves.
pub fn buffered_len(msg: &Message) -> usize {
    message_wire_len(msg, true)
}

/// Wire size of a message body; `gathered` leaves out the byte strings a gathering writer
/// splices.
fn message_wire_len(msg: &Message, gathered: bool) -> usize {
    4 + msg
        .iter()
        .map(|f| 2 + f.name.len() + value_wire_len(&f.value, gathered))
        .sum::<usize>()
}

fn value_wire_len(value: &Value, gathered: bool) -> usize {
    1 + match value {
        Value::Bool(_) => 1,
        Value::I64(_) | Value::U64(_) | Value::F64(_) | Value::Addr(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Bytes(b) if gathered && splices(b.len()) => 4,
        Value::Bytes(b) => 4 + b.len(),
        Value::AddrList(v) => 4 + 8 * v.len(),
        Value::U64List(v) => 4 + 8 * v.len(),
        Value::Msg(m) => message_wire_len(m, gathered),
    }
}

/// Encodes a message to bytes.  The output buffer is sized exactly, so encoding performs a
/// single allocation and no growth copies.
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(wire_len(msg));
    buf.put_u8(MAGIC);
    encode_into(msg, &mut buf);
    buf.freeze()
}

/// Encodes a message into a caller-owned scratch buffer (cleared first), so repeated encodes
/// — e.g. the stable store appending a log — reuse one allocation instead of one per call.
pub fn encode_to(msg: &Message, buf: &mut BytesMut) {
    buf.clear();
    buf.reserve(wire_len(msg));
    buf.put_u8(MAGIC);
    encode_into(msg, buf);
}

/// Encodes a message to the bytes [`encode`] produces, held as segments: every large
/// `Bytes` value is a segment of its own, shared with the message instead of copied out of
/// it, and a message without one is a single buffer as from [`encode`].
pub fn encode_segments(msg: &Message) -> Segments {
    let mut buf = SegmentsMut::with_capacity(1 + buffered_len(msg));
    buf.put_u8(MAGIC);
    encode_into(msg, &mut buf);
    buf.finish()
}

pub(crate) fn encode_into(msg: &Message, buf: &mut impl Sink) {
    buf.put_u32(msg.field_count() as u32);
    for field in msg.iter() {
        encode_field(field, buf);
    }
}

fn encode_field(field: &Field, buf: &mut impl Sink) {
    buf.put_u16(field.name.len() as u16);
    buf.put_slice(field.name.as_bytes());
    encode_value(&field.value, buf);
}

fn encode_value(value: &Value, buf: &mut impl Sink) {
    match value {
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::I64(v) => {
            buf.put_u8(TAG_I64);
            buf.put_i64(*v);
        }
        Value::U64(v) => {
            buf.put_u8(TAG_U64);
            buf.put_u64(*v);
        }
        Value::F64(v) => {
            buf.put_u8(TAG_F64);
            buf.put_f64(*v);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            buf.put_u32(b.len() as u32);
            buf.put_shared(b);
        }
        Value::Addr(a) => {
            buf.put_u8(TAG_ADDR);
            buf.put_u64(encode_address(a));
        }
        Value::AddrList(v) => {
            buf.put_u8(TAG_ADDR_LIST);
            buf.put_u32(v.len() as u32);
            for a in v {
                buf.put_u64(encode_address(a));
            }
        }
        Value::U64List(v) => {
            buf.put_u8(TAG_U64_LIST);
            buf.put_u32(v.len() as u32);
            for x in v {
                buf.put_u64(*x);
            }
        }
        Value::Msg(m) => {
            buf.put_u8(TAG_MSG);
            encode_into(m, buf);
        }
    }
}

/// Decodes a message from bytes produced by [`encode`].  Byte-string values are copied out
/// of the input; see [`decode_shared`] for the zero-copy variant over a shared buffer.
pub fn decode(bytes: &[u8]) -> Result<Message> {
    decode_envelope(Reader::flat(bytes))
}

/// Decodes a message from a shared [`Bytes`] buffer produced by [`encode`].
///
/// Identical validation and result as [`decode`], except `Bytes` *values* alias the input
/// buffer (via [`Bytes::slice`]) instead of being copied, so decoding a checkpoint or a
/// state-transfer block whose payload is one big byte string costs O(fields), not O(bytes).
/// The aliased slices keep the underlying allocation alive for as long as the decoded
/// message does.
pub fn decode_shared(bytes: &Bytes) -> Result<Message> {
    decode_envelope(Reader::shared(bytes))
}

/// [`decode_shared`] over a segment list.  A `Bytes` value that is a segment of its own —
/// how [`encode_segments`] writes a large one — comes back as that segment, the buffer the
/// sender's message held; a list cut anywhere else decodes to the same message through one
/// flattening copy.
pub fn decode_segments(wire: &Segments) -> Result<Message> {
    wire.read_with(|wire| decode_envelope(Reader::over(wire)))
}

/// Checks the envelope byte of an encoded message and returns the body behind it, sharing
/// `wire`'s segments.
pub fn envelope_body(wire: &Segments) -> Result<Segments> {
    strip_magic(&mut Reader::over(wire))?;
    Ok(wire.without_first_byte())
}

/// Validates and strips the envelope's magic byte.  Shared by the owned and borrowing
/// decoders so the two paths cannot diverge on envelope rules.
fn strip_magic(r: &mut Reader<'_>) -> Result<()> {
    if r.remaining() < 1 {
        return Err(VsError::CodecError("empty buffer".into()));
    }
    let magic = r.u8("envelope byte")?;
    if magic != MAGIC {
        return Err(VsError::CodecError(format!(
            "bad magic byte 0x{magic:02x}, expected 0x{MAGIC:02x}"
        )));
    }
    Ok(())
}

/// Rejects bytes left over after a fully decoded message (shared envelope rule).
pub(crate) fn check_no_trailing(r: &Reader<'_>) -> Result<()> {
    if r.remaining() > 0 {
        return Err(VsError::CodecError(format!(
            "{} trailing bytes after message",
            r.remaining()
        )));
    }
    Ok(())
}

fn decode_envelope(mut r: Reader<'_>) -> Result<Message> {
    strip_magic(&mut r)?;
    let msg = decode_message(&mut r, 0)?;
    check_no_trailing(&r)?;
    Ok(msg)
}

/// Reads the header of a message body at nesting level `depth`: enforces the nesting bound
/// and rejects a field count the remaining bytes cannot possibly hold.  Shared by every
/// reader of the format so none of them can be made to recurse or reserve without bound.
pub(crate) fn read_field_count(r: &mut Reader<'_>, depth: usize) -> Result<usize> {
    if depth > MAX_NESTING_DEPTH {
        return Err(VsError::CodecError(format!(
            "message nesting exceeds {MAX_NESTING_DEPTH} levels"
        )));
    }
    let count = r.u32("field count")? as usize;
    if count > r.remaining() / MIN_FIELD_WIRE_LEN {
        return Err(VsError::CodecError(format!(
            "implausible field count {count} with {} bytes remaining",
            r.remaining()
        )));
    }
    Ok(count)
}

/// Validates a string value as UTF-8.
pub(crate) fn value_str(raw: &[u8]) -> Result<&str> {
    std::str::from_utf8(raw).map_err(|e| VsError::CodecError(format!("string is not UTF-8: {e}")))
}

/// Reads one field name.
#[inline]
pub(crate) fn read_name<'a>(r: &mut Reader<'a>) -> Result<&'a str> {
    let name_len = r.u16("field name length")? as usize;
    std::str::from_utf8(r.take(name_len, "field name")?)
        .map_err(|e| VsError::CodecError(format!("field name is not UTF-8: {e}")))
}

/// Reads a `u32` element count and returns the length in bytes of `count` elements of
/// `unit` bytes each.
#[inline]
fn read_counted_len(r: &mut Reader<'_>, unit: usize, what: &str) -> Result<usize> {
    Ok((r.u32(what)? as usize).saturating_mul(unit))
}

/// Reads a `u32` element count followed by `count * unit` bytes and returns those bytes.
#[inline]
pub(crate) fn read_counted<'a>(r: &mut Reader<'a>, unit: usize, what: &str) -> Result<&'a [u8]> {
    let len = read_counted_len(r, unit, what)?;
    r.take(len, what)
}

/// The name of the first field of an encoded message, borrowed from `wire`; `None` for a
/// message without fields.
pub(crate) fn first_field_name(wire: &Segments) -> Result<Option<&str>> {
    let mut r = Reader::over(wire);
    strip_magic(&mut r)?;
    match read_field_count(&mut r, 0)? {
        0 => Ok(None),
        _ => read_name(&mut r).map(Some),
    }
}

pub(crate) fn decode_message(r: &mut Reader<'_>, depth: usize) -> Result<Message> {
    let count = read_field_count(r, depth)?;
    // Built privately and shared once, when complete: no copy-on-write check per field.
    let mut table = Vec::with_capacity(count.min(MAX_EAGER_FIELDS));
    for _ in 0..count {
        let (name, value) = decode_field(r, depth)?;
        put_field(&mut table, name, value);
    }
    Ok(Message::from_table(table))
}

/// Adds a decoded field to a table under construction, moving the just-decoded name in (no
/// second allocation); a repeated name replaces the earlier value like `Message::set` would.
fn put_field(table: &mut Vec<Field>, name: FieldName, value: Value) {
    match table.iter_mut().find(|f| f.name == name) {
        Some(f) => f.value = value,
        None => table.push(Field { name, value }),
    }
}

fn decode_field(r: &mut Reader<'_>, depth: usize) -> Result<(FieldName, Value)> {
    // Short names (all system fields and typical application fields) build inline with no
    // heap allocation.
    let name = FieldName::from(read_name(r)?);
    let value = decode_value(r, depth)?;
    Ok((name, value))
}

fn decode_value(r: &mut Reader<'_>, depth: usize) -> Result<Value> {
    let value = match r.u8("value tag")? {
        TAG_BOOL => Value::Bool(r.u8("bool")? != 0),
        TAG_I64 => Value::I64(r.u64("i64")? as i64),
        TAG_U64 => Value::U64(r.u64("u64")?),
        TAG_F64 => Value::F64(f64::from_bits(r.u64("f64")?)),
        TAG_STR => Value::Str(value_str(read_counted(r, 1, "string")?)?.to_owned()),
        // Over shared input the value is a slice of the segment it lies in, not a copy.
        TAG_BYTES => {
            let len = read_counted_len(r, 1, "bytes")?;
            Value::Bytes(r.take_shared(len, "bytes")?)
        }
        TAG_ADDR => Value::Addr(decode_address(r.u64("address")?)),
        // Exact-size collects: one allocation, no per-push capacity checks.
        TAG_ADDR_LIST => Value::AddrList(
            be_u64s(read_counted(r, 8, "address list")?)
                .map(decode_address)
                .collect(),
        ),
        TAG_U64_LIST => Value::U64List(be_u64s(read_counted(r, 8, "u64 list")?).collect()),
        TAG_MSG => Value::Msg(Box::new(decode_message(r, depth + 1)?)),
        other => {
            return Err(VsError::CodecError(format!("unknown value tag {other}")));
        }
    };
    Ok(value)
}

/// The big-endian `u64`s packed in `raw` (`raw.len()` is a multiple of 8).
fn be_u64s(raw: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    raw.chunks_exact(8)
        .map(|c| u64::from_be_bytes(c.try_into().expect("8-byte chunk")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::{Address, GroupId, ProcessId, SiteId};

    fn sample() -> Message {
        Message::new()
            .with("flag", true)
            .with("count", 42u64)
            .with("delta", -7i64)
            .with("ratio", 2.5f64)
            .with("name", "emulsion-service")
            .with("blob", vec![1u8, 2, 3, 4, 5])
            .with("caller", ProcessId::new(SiteId(3), 9))
            .with(
                "members",
                vec![
                    Address::Process(ProcessId::new(SiteId(0), 1)),
                    Address::Group(GroupId(77)),
                ],
            )
            .with("vt", vec![1u64, 0, 3])
            .with("nested", Message::with_body("inner"))
    }

    #[test]
    fn roundtrip_preserves_all_fields() {
        let msg = sample();
        let bytes = encode(&msg);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn empty_message_roundtrip() {
        let msg = Message::new();
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn wire_len_is_exact() {
        for msg in [
            Message::new(),
            sample(),
            Message::with_body(vec![0u8; 4096]),
        ] {
            assert_eq!(encode(&msg).len(), wire_len(&msg));
        }
    }

    #[test]
    fn encode_to_reuses_the_scratch_buffer() {
        let mut scratch = BytesMut::with_capacity(0);
        let msg = sample();
        encode_to(&msg, &mut scratch);
        assert_eq!(decode(&scratch).unwrap(), msg);
        // A second, smaller message reuses the buffer and leaves no stale tail behind.
        let small = Message::with_body(1u64);
        encode_to(&small, &mut scratch);
        assert_eq!(scratch.len(), wire_len(&small));
        assert_eq!(decode(&scratch).unwrap(), small);
    }

    #[test]
    fn shared_decode_matches_owned_decode_and_aliases_payloads() {
        let msg = sample();
        let bytes = encode(&msg);
        let shared = decode_shared(&bytes).expect("shared decode");
        assert_eq!(shared, msg, "zero-copy decode is observably identical");
        // The blob value aliases the encoded buffer rather than copying it.
        let blob = shared.get_bytes("blob").expect("blob field");
        let base = bytes.as_ptr() as usize;
        let ptr = blob.as_ptr() as usize;
        assert!(ptr >= base && ptr < base + bytes.len(), "aliases input");
        // The decoded message stays valid after the caller drops its handle.
        drop(bytes);
        assert_eq!(shared.get_bytes("blob"), Some(&[1u8, 2, 3, 4, 5][..]));
    }

    #[test]
    fn shared_decode_rejects_what_owned_decode_rejects() {
        let bytes = encode(&sample());
        for cut in 1..bytes.len() {
            let prefix = Bytes::copy_from_slice(&bytes[..cut]);
            assert!(
                decode_shared(&prefix).is_err(),
                "shared decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn duplicate_field_names_replace_in_both_paths() {
        // Hand-craft: magic, 2 fields both named "x" with different u64 values.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u32(2);
        for v in [1u64, 2u64] {
            buf.put_u16(1);
            buf.put_slice(b"x");
            buf.put_u8(TAG_U64);
            buf.put_u64(v);
        }
        let owned = decode(&buf).expect("owned decode");
        assert_eq!(owned.field_count(), 1, "duplicate replaces");
        assert_eq!(owned.get_u64("x"), Some(2));
        let shared = decode_shared(&buf.freeze()).expect("shared decode");
        assert_eq!(shared, owned, "the shared path replaces the same way");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample()).to_vec();
        bytes[0] = 0x00;
        assert!(matches!(decode(&bytes), Err(VsError::CodecError(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode(&sample()).to_vec();
        for cut in 1..bytes.len() {
            let res = decode(&bytes[..cut]);
            assert!(res.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample()).to_vec();
        bytes.push(0xFF);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_implausible_field_count_without_large_allocation() {
        // Hand-craft: magic + a header claiming u32::MAX fields followed by 8 junk bytes.
        // The decoder must reject on the count bound (no field could be 0 bytes), and must
        // do so without reserving count-proportional memory first.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u32(u32::MAX);
        buf.put_slice(&[0u8; 8]);
        let err = decode(&buf).expect_err("owned decode rejects");
        assert!(err.to_string().contains("implausible field count"));
        // A count that fits the remaining bytes only if fields were < MIN_FIELD_WIRE_LEN
        // bytes each is equally implausible.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u32(5);
        buf.put_slice(&[0u8; 4 * 5 - 1]);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn rejects_excessive_nesting_without_stack_overflow() {
        // A legal message nested to the limit round-trips...
        let mut msg = Message::with_body(0u64);
        for i in 0..MAX_NESTING_DEPTH {
            msg = Message::new().with("inner", msg).with("level", i as u64);
        }
        let bytes = encode(&msg);
        assert_eq!(decode(&bytes).unwrap(), msg);
        // ...one level deeper is rejected with an error, not a stack overflow. Hand-craft
        // the headers so the test does not depend on Message being able to build it:
        // each level is one field (empty name, TAG_MSG) wrapping the next.
        let levels = MAX_NESTING_DEPTH + 2;
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        for _ in 0..levels {
            buf.put_u32(1); // one field
            buf.put_u16(0); // empty name
            buf.put_u8(TAG_MSG);
        }
        buf.put_u32(0); // innermost message: zero fields
        let err = decode(&buf).expect_err("owned decode rejects deep nesting");
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn rejects_unknown_tag() {
        // Hand-craft: magic, 1 field, name "x", bogus tag 200.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u32(1);
        buf.put_u16(1);
        buf.put_slice(b"x");
        buf.put_u8(200);
        assert!(decode(&buf).is_err());
    }
}
