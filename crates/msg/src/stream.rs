//! Writing and reading the codec's byte format field by field, with no [`Message`] tree in
//! between.
//!
//! The symbol-table [`Message`] is the *application's* format.  A protocol layer whose
//! messages have a fixed, typed shape does not need the table: it knows which fields it
//! writes and which it reads.  This module lets such a layer produce and consume exactly the
//! bytes [`crate::codec::encode`] would have produced for the equivalent tree:
//!
//! * [`FieldWriter`] appends named, typed fields and nested messages straight into one
//!   buffer, accumulating the simulator's size model ([`Message::encoded_len`]) as it goes,
//!   so a frame born from a writer knows its modelled size without a second walk;
//! * [`FieldCursor`] finds fields by name in an encoded body.  Lookups resume where the last
//!   one stopped, so reading fields in the order they were written visits every byte once;
//!   a field that is out of order (or absent) costs one wrap-around sweep.  Nested messages
//!   come back as sub-lists of the input and `Bytes` values alias it.
//!
//! What is written and read is a [`Segments`] list (see [`crate::segments`]): the writer's
//! one buffer, cut only where a large byte string — an application's 64 KiB body, or a
//! stored frame that holds one — goes in by reference instead of being copied, and the
//! cursor hands that same buffer back out.  A message without a large value is one segment,
//! written and read by the same code with no boundary ever met.
//!
//! Both sides go through the codec's own primitives (tags, bounds checks, the nesting
//! bound), so there is one definition of the format.

use bytes::BufMut;
use vsync_util::{Address, Result, VsError};

use crate::codec::{
    check_no_trailing, decode_message, encode_into, name_str, read_counted, read_field_count,
    read_name, read_name_bytes, value_str, walk_message, walk_value, AddrsView, U64sView, MAGIC,
    TAG_ADDR, TAG_ADDR_LIST, TAG_MSG, TAG_STR, TAG_U64, TAG_U64_LIST,
};
use crate::message::Message;
use crate::segments::{Reader, Segments, SegmentsMut, Sink};
use crate::value::{decode_address, encode_address};

/// Streams one top-level message into wire bytes.
///
/// Field counts are patched in when a message closes, so callers never state them.  Names
/// must not repeat within one message (the tree form would fold repeats into one field and
/// the two forms would stop being equivalent); nothing checks this beyond a debug build of
/// the protocol layer re-decoding what it wrote.
pub struct FieldWriter {
    buf: SegmentsMut,
    /// Offset in the writer's own bytes of the open message's field-count slot, and the
    /// fields written into it so far.
    count_at: usize,
    count: u32,
    /// Size of everything written so far under the `encoded_len` model.
    model: usize,
}

impl FieldWriter {
    /// Starts a message, reserving `capacity` bytes up front for what the writer copies
    /// (see [`crate::codec::buffered_len`]).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut buf = SegmentsMut::with_capacity(capacity);
        buf.put_u8(MAGIC);
        buf.put_u32(0);
        FieldWriter {
            buf,
            count_at: 1,
            count: 0,
            model: 4,
        }
    }

    /// Writes a field header — name, type tag and `head`, the fixed-size start of the value
    /// (a scalar's eight bytes, a list's count) — and charges the field to the size model.
    /// The header goes into the buffer as one append: a protocol message is mostly headers,
    /// and an append per two-byte piece costs more than the bytes do.
    fn field<const N: usize>(&mut self, name: &str, tag: u8, payload_len: usize, head: [u8; N]) {
        self.count += 1;
        self.model += 1 + 2 + name.len() + 4 + payload_len;
        let mut header = [0u8; 48];
        let len = 2 + name.len() + 1 + N;
        if let Some(header) = header.get_mut(..len) {
            header[..2].copy_from_slice(&(name.len() as u16).to_be_bytes());
            header[2..2 + name.len()].copy_from_slice(name.as_bytes());
            header[2 + name.len()] = tag;
            header[3 + name.len()..].copy_from_slice(&head);
            self.buf.put_slice(header);
        } else {
            self.buf.put_u16(name.len() as u16);
            self.buf.put_slice(name.as_bytes());
            self.buf.put_u8(tag);
            self.buf.put_slice(&head);
        }
    }

    /// Appends an unsigned integer field.
    pub fn put_u64(&mut self, name: &str, v: u64) {
        self.field(name, TAG_U64, 8, v.to_be_bytes());
    }

    /// Appends a string field.
    pub fn put_str(&mut self, name: &str, v: &str) {
        self.field(name, TAG_STR, v.len(), (v.len() as u32).to_be_bytes());
        self.buf.put_slice(v.as_bytes());
    }

    /// Appends an address field.
    pub fn put_addr(&mut self, name: &str, v: impl Into<Address>) {
        let v = encode_address(&v.into());
        self.field(name, TAG_ADDR, 8, v.to_be_bytes());
    }

    /// Appends a list of unsigned integers.
    pub fn put_u64_list(&mut self, name: &str, v: &[u64]) {
        self.put_u64_iter(name, v.iter().copied());
    }

    /// Appends a list of unsigned integers produced one at a time, for a caller that holds
    /// no slice of them.  The element count is patched in once the iterator is spent, as a
    /// nested message's field count is.
    pub fn put_u64_iter(&mut self, name: &str, v: impl Iterator<Item = u64>) {
        self.field(name, TAG_U64_LIST, 0, 0u32.to_be_bytes());
        let count_at = self.buf.buffered() - 4;
        let mut n = 0u32;
        for x in v {
            self.buf.put_u64(x);
            n += 1;
        }
        self.buf.patch(count_at, &n.to_be_bytes());
        self.model += 8 * n as usize;
    }

    /// Appends a list of addresses.
    pub fn put_addr_list(&mut self, name: &str, v: impl ExactSizeIterator<Item = Address>) {
        self.field(
            name,
            TAG_ADDR_LIST,
            8 * v.len(),
            (v.len() as u32).to_be_bytes(),
        );
        for a in v {
            self.buf.put_u64(encode_address(&a));
        }
    }

    /// Appends a nested message given as a tree (an application payload).  Its large byte
    /// strings become segments of the wire form, shared with the tree.
    pub fn put_message(&mut self, name: &str, m: &Message) {
        self.field(name, TAG_MSG, m.encoded_len(), []);
        encode_into(m, &mut self.buf);
    }

    /// Appends a nested message that already exists in wire form: `body` is spliced in as
    /// is — its large segments by reference — and `model_len` is its size under the model
    /// (see [`crate::codec::body_model_len`]).
    pub fn put_encoded(&mut self, name: &str, body: &Segments, model_len: usize) {
        self.field(name, TAG_MSG, model_len, []);
        for seg in body.iter() {
            self.buf.put_shared(seg);
        }
    }

    /// Appends a nested message whose fields `fill` writes.
    pub fn put_nested(&mut self, name: &str, fill: impl FnOnce(&mut FieldWriter)) {
        self.field(name, TAG_MSG, 4, []);
        let outer = (self.count_at, self.count);
        self.count_at = self.buf.buffered();
        self.count = 0;
        self.buf.put_u32(0);
        fill(self);
        self.close();
        (self.count_at, self.count) = outer;
    }

    /// Patches the open message's field count.
    fn close(&mut self) {
        self.buf.patch(self.count_at, &self.count.to_be_bytes());
    }

    /// Finishes the message: its wire bytes (envelope byte included) and its size under the
    /// `encoded_len` model.
    pub fn finish(mut self) -> (Segments, usize) {
        self.close();
        (self.buf.finish(), self.model)
    }
}

/// Reads the fields of one encoded message body by name.
///
/// The cursor remembers where the last lookup stopped and searches on from there, wrapping
/// around once, so a reader that asks for fields in the order the writer wrote them touches
/// each byte once.  Every byte it passes is validated the way [`crate::codec::decode`] validates
/// it, and [`FieldCursor::finish`] walks whatever was not passed, so a body that was read to
/// the end is a body `decode` would have accepted.  If a name repeats, the occurrence met
/// first wins.
///
/// The cursor follows segment boundaries where a writer puts them.  A body cut anywhere
/// else fails to read; open it inside [`Segments::read_with`] to have it read as one buffer
/// instead.
pub struct FieldCursor<'a> {
    /// The first field: where a sweep starts.
    first: Reader<'a>,
    /// The next field of the current sweep, and how many the sweep has passed.
    at: Reader<'a>,
    idx: usize,
    count: usize,
    /// Just past the last field, once a sweep has reached it.
    end: Option<Reader<'a>>,
    depth: usize,
}

impl<'a> FieldCursor<'a> {
    /// Opens a top-level message body (see [`crate::codec::envelope_body`]); [`Self::finish`]
    /// checks that the body spans `body` exactly.
    pub fn new(body: &'a Segments) -> Result<Self> {
        Self::open(Reader::over(body), 0)
    }

    fn open(mut body: Reader<'a>, depth: usize) -> Result<Self> {
        let count = read_field_count(&mut body, depth)?;
        Ok(FieldCursor {
            first: body,
            at: body,
            idx: 0,
            count,
            end: None,
            depth,
        })
    }

    /// Number of fields in the message.
    pub fn field_count(&self) -> usize {
        self.count
    }

    /// Positions the cursor on the value of the field called `name`; false if there is none.
    fn seek(&mut self, name: &str) -> Result<bool> {
        for _ in 0..self.count {
            if self.idx == self.count {
                self.end = Some(self.at);
                self.idx = 0;
                self.at = self.first;
            }
            // Bytes equal to `name` are UTF-8 because `name` is; only a name that is
            // passed over still has to be checked.
            let raw = read_name_bytes(&mut self.at)?;
            let found = raw == name.as_bytes();
            if !found {
                name_str(raw)?;
                walk_value(&mut self.at, self.depth)?;
            }
            self.idx += 1;
            if found {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Consumes the tag of the value under the cursor, which must be `tag`.
    #[inline]
    fn expect_tag(&mut self, name: &str, tag: u8) -> Result<()> {
        let got = self.at.u8("value tag")?;
        if got != tag {
            return Err(VsError::CodecError(format!(
                "field {name:?} has type tag {got}, expected {tag}"
            )));
        }
        Ok(())
    }

    #[inline]
    fn fixed8(&mut self, name: &str, tag: u8) -> Result<Option<u64>> {
        if !self.seek(name)? {
            return Ok(None);
        }
        self.expect_tag(name, tag)?;
        self.at.u64("fixed-width value").map(Some)
    }

    #[inline]
    fn counted(&mut self, name: &str, tag: u8, unit: usize) -> Result<Option<&'a [u8]>> {
        if !self.seek(name)? {
            return Ok(None);
        }
        self.expect_tag(name, tag)?;
        read_counted(&mut self.at, unit, name).map(Some)
    }

    /// The unsigned integer field `name`, if present.
    #[inline]
    pub fn opt_u64(&mut self, name: &str) -> Result<Option<u64>> {
        self.fixed8(name, TAG_U64)
    }

    /// The unsigned integer field `name`.
    #[inline]
    pub fn u64(&mut self, name: &str) -> Result<u64> {
        required(self.opt_u64(name)?, name)
    }

    /// The address field `name`.
    #[inline]
    pub fn addr(&mut self, name: &str) -> Result<Address> {
        required(self.fixed8(name, TAG_ADDR)?, name).map(decode_address)
    }

    /// The string field `name`, if present, borrowed from the buffer.
    #[inline]
    pub fn opt_str(&mut self, name: &str) -> Result<Option<&'a str>> {
        self.counted(name, TAG_STR, 1)?.map(value_str).transpose()
    }

    /// The string field `name`.
    #[inline]
    pub fn str(&mut self, name: &str) -> Result<&'a str> {
        required(self.opt_str(name)?, name)
    }

    /// The integer-list field `name`, if present, still packed.
    #[inline]
    pub fn opt_u64_list(&mut self, name: &str) -> Result<Option<U64sView<'a>>> {
        Ok(self.counted(name, TAG_U64_LIST, 8)?.map(U64sView::new))
    }

    /// The integer-list field `name`.
    #[inline]
    pub fn u64_list(&mut self, name: &str) -> Result<U64sView<'a>> {
        required(self.opt_u64_list(name)?, name)
    }

    /// The address-list field `name`, if present, still packed.
    #[inline]
    pub fn opt_addr_list(&mut self, name: &str) -> Result<Option<AddrsView<'a>>> {
        Ok(self.counted(name, TAG_ADDR_LIST, 8)?.map(AddrsView::new))
    }

    /// The address-list field `name`.
    #[inline]
    pub fn addr_list(&mut self, name: &str) -> Result<AddrsView<'a>> {
        required(self.opt_addr_list(name)?, name)
    }

    /// Positions the cursor on the body of the nested-message field `name`.
    #[inline]
    fn nested_body(&mut self, name: &str) -> Result<()> {
        if !self.seek(name)? {
            return Err(missing(name));
        }
        self.expect_tag(name, TAG_MSG)
    }

    /// The nested message `name` as a tree (an application payload); its `Bytes` values
    /// alias the segments they lie in.
    pub fn message(&mut self, name: &str) -> Result<Message> {
        self.nested_body(name)?;
        decode_message(&mut self.at, self.depth + 1)
    }

    /// The nested message `name` left in wire form: its body as a list sharing the segments
    /// it lies in, walked (so it is known to be well-formed) but not parsed.
    pub fn encoded(&mut self, name: &str) -> Result<Segments> {
        self.nested_body(name)?;
        let body = self.at;
        walk_message(&mut self.at, self.depth + 1)?;
        Ok(body.until(&self.at))
    }

    /// Reads the nested message `name` field by field through a cursor of its own.
    pub fn nested<R>(
        &mut self,
        name: &str,
        read: impl FnOnce(&mut FieldCursor<'a>) -> Result<R>,
    ) -> Result<R> {
        self.nested_body(name)?;
        let mut sub = FieldCursor::open(self.at, self.depth + 1)?;
        let out = read(&mut sub)?;
        self.at = sub.end()?;
        Ok(out)
    }

    /// The position just past the message's last field, walking whatever no lookup has
    /// passed.
    fn end(&mut self) -> Result<Reader<'a>> {
        if let Some(end) = self.end {
            return Ok(end);
        }
        for _ in self.idx..self.count {
            read_name(&mut self.at)?;
            walk_value(&mut self.at, self.depth)?;
        }
        self.idx = self.count;
        self.end = Some(self.at);
        Ok(self.at)
    }

    /// Ends the read of a top-level body: validates every field no lookup passed and
    /// rejects bytes left over after the last one.
    pub fn finish(mut self) -> Result<()> {
        check_no_trailing(&self.end()?)
    }
}

#[cold]
fn missing(name: &str) -> VsError {
    VsError::CodecError(format!("missing field {name:?}"))
}

#[inline]
fn required<T>(v: Option<T>, name: &str) -> Result<T> {
    v.ok_or_else(|| missing(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use bytes::Bytes;
    use vsync_util::{GroupId, ProcessId, SiteId};

    /// Longer than the writer's stack header, so it takes the piecewise path.
    const LONG_NAME: &str = "a-field-name-long-enough-to-miss-the-writers-stack-header";

    fn sample_tree() -> Message {
        let inner = Message::new()
            .with("n", 2u64)
            .with("i0", Message::with_body("a").with("abp", 9u64))
            .with("i1", Message::with_body(vec![1u8, 2, 3]));
        Message::new()
            .with("@g-type", "sample")
            .with("@g-group", GroupId(7))
            .with("seq", 41u64)
            .with("vt", vec![1u64, 0, 3])
            .with(
                "members",
                vec![
                    Address::Process(ProcessId::new(SiteId(0), 1)),
                    Address::Process(ProcessId::new(SiteId(2), 5)),
                ],
            )
            .with("payload", Message::with_body("app").with("price", 9000u64))
            .with("items", inner)
            .with(LONG_NAME, 1u64)
    }

    fn write_sample() -> (Segments, usize) {
        let tree = sample_tree();
        let mut w = FieldWriter::with_capacity(64);
        w.put_str("@g-type", "sample");
        w.put_addr("@g-group", GroupId(7));
        w.put_u64("seq", 41);
        w.put_u64_list("vt", &[1, 0, 3]);
        w.put_addr_list(
            "members",
            [
                Address::Process(ProcessId::new(SiteId(0), 1)),
                Address::Process(ProcessId::new(SiteId(2), 5)),
            ]
            .into_iter(),
        );
        w.put_message("payload", tree.get_msg("payload").expect("payload"));
        w.put_nested("items", |w| {
            w.put_u64("n", 2);
            w.put_nested("i0", |w| {
                w.put_str("body", "a");
                w.put_u64("abp", 9);
            });
            // An element that already exists in wire form is spliced, not re-encoded.
            let i1 = codec::encode(&Message::with_body(vec![1u8, 2, 3]));
            let body = codec::envelope_body(&i1.into()).expect("envelope");
            w.put_encoded(
                "i1",
                &body,
                codec::body_model_len(&body).expect("well-formed"),
            );
        });
        w.put_u64(LONG_NAME, 1);
        w.finish()
    }

    #[test]
    fn writer_output_is_the_tree_encoders_output_and_model() {
        let (wire, model) = write_sample();
        let tree = sample_tree();
        assert_eq!(wire.iter().count(), 1, "nothing large: one buffer");
        let bytes = wire.to_bytes();
        assert_eq!(bytes, codec::encode(&tree), "byte for byte");
        assert_eq!(model, tree.encoded_len(), "size model");
        let body = codec::envelope_body(&wire).expect("envelope");
        assert_eq!(codec::body_model_len(&body).expect("walk"), model);
        assert_eq!(codec::decode(&bytes).expect("decode"), tree);
    }

    #[test]
    fn cursor_reads_in_order_out_of_order_and_absent_fields() {
        let (wire, _) = write_sample();
        let bytes = wire.to_bytes();
        let body = codec::envelope_body(&wire).expect("envelope");
        let mut c = FieldCursor::new(&body).expect("open");
        assert_eq!(c.field_count(), 8);
        assert_eq!(c.str("@g-type").expect("type"), "sample");
        assert_eq!(c.addr("@g-group").expect("group"), GroupId(7).into());
        // Out of order: `vt` before `seq` wraps around once and still finds both.
        assert_eq!(c.u64_list("vt").expect("vt").to_vec(), vec![1, 0, 3]);
        assert_eq!(c.u64("seq").expect("seq"), 41);
        assert_eq!(c.opt_u64("nope").expect("sweep"), None);
        assert!(
            c.u64("nope").is_err(),
            "required lookups name what is missing"
        );
        assert_eq!(c.addr_list("members").expect("members").len(), 2);
        let payload = c.message("payload").expect("payload");
        assert_eq!(payload.get_u64("price"), Some(9000));
        let items = c
            .nested("items", |items| {
                let n = items.u64("n")?;
                let first =
                    items.nested("i0", |e| Ok((e.str("body")?.to_owned(), e.opt_u64("abp")?)))?;
                let second = items.encoded("i1")?;
                Ok((n, first, second))
            })
            .expect("items");
        assert_eq!(items.0, 2);
        assert_eq!(items.1, ("a".to_owned(), Some(9)));
        // The spliced element comes back out as the bytes that went in, aliasing the buffer.
        let spliced = items.2.to_bytes();
        assert_eq!(
            &spliced[..],
            &codec::encode(&Message::with_body(vec![1u8, 2, 3]))[1..]
        );
        let base = bytes.as_ptr() as usize;
        let at = spliced.as_ptr() as usize;
        assert!(at > base && at < base + bytes.len(), "aliases the input");
        c.finish().expect("whole body consumed");
    }

    #[test]
    fn cursor_rejects_wrong_types_truncation_and_trailing_bytes() {
        let (wire, _) = write_sample();
        let body = codec::envelope_body(&wire).expect("envelope").to_bytes();
        let whole = Segments::from(body.clone());
        let mut c = FieldCursor::new(&whole).expect("open");
        assert!(c.u64("@g-type").is_err(), "a string is not a u64");
        // Every proper prefix fails somewhere between `new` and `finish`, never panics.
        for cut in 0..body.len() {
            let prefix = Segments::from(body.slice(..cut));
            let read = FieldCursor::new(&prefix).and_then(|mut c| {
                c.str("@g-type")?;
                c.nested("items", |items| items.u64("n"))?;
                c.finish()
            });
            assert!(read.is_err(), "{cut}-byte prefix was accepted");
        }
        let mut longer = body.to_vec();
        longer.push(0);
        let longer = Segments::from(Bytes::from(longer));
        let mut c = FieldCursor::new(&longer).expect("open");
        c.str("@g-type").expect("type");
        assert!(c.finish().is_err(), "trailing byte");
    }

    #[test]
    fn a_nested_read_that_stops_early_still_lands_after_the_nested_message() {
        let (wire, _) = write_sample();
        let body = codec::envelope_body(&wire).expect("envelope");
        let mut c = FieldCursor::new(&body).expect("open");
        // Read only the first field of `payload`'s sibling `items`, then continue in the
        // parent: the parent resumes after the whole nested message.
        assert_eq!(c.nested("items", |items| items.u64("n")).expect("n"), 2);
        assert_eq!(c.u64("seq").expect("wraps to seq"), 41);
        c.finish().expect("well-formed");
    }

    #[test]
    fn large_values_are_segments_of_their_own_and_come_back_as_themselves() {
        let big = Bytes::from(vec![0xC3u8; 64 * 1024]);
        let payload = Message::with_body(big.clone()).with("op", 7u64);
        let stored = codec::encode_segments(&Message::new().with("held", big.clone()));
        let mut w = FieldWriter::with_capacity(64);
        w.put_u64("seq", 1);
        w.put_message("payload", &payload);
        w.put_nested("list", |w| {
            let body = codec::envelope_body(&stored).expect("envelope");
            w.put_encoded("i0", &body, codec::body_model_len(&body).expect("walk"));
        });
        let (wire, model) = w.finish();
        let tree = Message::new()
            .with("seq", 1u64)
            .with("payload", payload.clone())
            .with(
                "list",
                Message::new().with("i0", Message::new().with("held", big.clone())),
            );
        assert_eq!(wire.to_bytes(), codec::encode(&tree), "byte for byte");
        assert_eq!(model, tree.encoded_len());
        let segs: Vec<&Bytes> = wire.iter().collect();
        assert_eq!(segs.len(), 4, "own bytes before each of the two values");
        assert_eq!(segs[1].as_ptr(), big.as_ptr(), "spliced, not copied");
        assert_eq!(segs[3].as_ptr(), big.as_ptr(), "the last thing written");
        assert!(wire.buffered_len() < 128);
        // Every way of reading hands the value back as the buffer that went in.
        assert_eq!(codec::decode_segments(&wire).expect("decode"), tree);
        let body = codec::envelope_body(&wire).expect("envelope");
        let mut c = FieldCursor::new(&body).expect("open");
        let read = c.message("payload").expect("payload");
        assert_eq!(read, payload);
        assert_eq!(read.get_bytes("body").expect("body").as_ptr(), big.as_ptr());
        let held = c
            .nested("list", |list| list.encoded("i0"))
            .expect("nested wire form");
        assert_eq!(held, codec::envelope_body(&stored).expect("envelope"));
        assert_eq!(held.iter().nth(1).expect("value").as_ptr(), big.as_ptr());
        assert_eq!(c.u64("seq").expect("wraps across segments"), 1);
        c.finish().expect("whole body consumed");
    }
}
