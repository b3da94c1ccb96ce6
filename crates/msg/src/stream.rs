//! The positional layout of protocol frames: a writer and a reader for messages whose shape
//! is fixed by the code on both sides.
//!
//! The symbol-table [`Message`] is the *application's* format.  A protocol layer whose
//! messages have a fixed, typed shape does not need the table: both ends know which fields
//! come in which order.  Its frames are still codec messages, so that a [`crate::Frame`]
//! holds, routes, sizes and compares them like any other — but messages of exactly one
//! field, [`FRAME_FIELD`], a byte string holding the *positional body*:
//!
//! * unsigned integers are LEB128 varints, the shortest form only;
//! * a string is a length and its UTF-8 bytes;
//! * an application payload is a length and its codec body ([`crate::codec`]'s bytes
//!   without the envelope byte);
//! * a held frame is a length and its whole wire form.
//!
//! What a value means, and in which order values come, is the caller's: [`FrameWriter`]
//! and [`FrameReader`] only agree on how each kind of value is spelled.  Counts and lengths
//! are checked against the bytes left before anything is sized by them, and a varint that
//! is longer than it needs to be, or does not fit its width, is refused.
//!
//! What is written and read is a [`Segments`] list (see [`crate::segments`]): the writer's
//! one buffer, cut only where a large byte string — an application's 64 KiB body, or a held
//! frame that holds one — goes in by reference instead of being copied, and the reader
//! hands that same buffer back out.  A frame without a large value is one segment, written
//! and read by the same code with no boundary ever met.

use bytes::BufMut;
use vsync_util::{Result, VsError};

use crate::codec::{
    check_no_trailing, decode_message, encode_into, value_str, wire_len, MAGIC, TAG_BYTES,
};
use crate::message::Message;
use crate::segments::{Reader, Segments, SegmentsMut, Sink};

/// Name of the one field of a protocol frame; its value is the positional body.  A system
/// name, so no application message starts with it.
pub const FRAME_FIELD: &str = "@p";

/// Bytes of a frame in front of its positional body: the envelope byte, the field count,
/// the field's name, its type tag and its length.
const HEAD_LEN: usize = 1 + 4 + 2 + FRAME_FIELD.len() + 1 + 4;

/// Those bytes, the length left zero: every frame starts with them, length aside.
const HEAD: [u8; HEAD_LEN] = {
    let name = FRAME_FIELD.as_bytes();
    let mut head = [0u8; HEAD_LEN];
    head[0] = MAGIC;
    head[4] = 1; // one field, a big-endian u32
    head[6] = name.len() as u8; // the length of its name, a big-endian u16
    let mut i = 0;
    while i < name.len() {
        head[7 + i] = name[i];
        i += 1;
    }
    head[7 + name.len()] = TAG_BYTES;
    head
};

/// Writes one protocol frame: the codec's one-field envelope, then the values in the order
/// they are put.
pub struct FrameWriter {
    buf: SegmentsMut,
}

impl FrameWriter {
    /// Starts a frame, reserving `capacity` bytes up front for the body it copies (a large
    /// byte string goes in by reference and needs none).
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut buf = SegmentsMut::with_capacity(HEAD_LEN + capacity);
        buf.put_slice(&HEAD); // the body's length is patched in by `finish`
        FrameWriter { buf }
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends an unsigned integer as a LEB128 varint: seven bits a byte, low bits first.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        if v < 0x80 {
            return self.buf.put_u8(v as u8);
        }
        let mut out = [0u8; 10];
        let mut n = 0;
        while v >= 0x80 {
            out[n] = v as u8 | 0x80;
            v >>= 7;
            n += 1;
        }
        out[n] = v as u8;
        self.buf.put_slice(&out[..=n]);
    }

    /// Appends a string: its length, then its bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_varint(v.len() as u64);
        self.buf.put_slice(v.as_bytes());
    }

    /// Appends an application payload: the length of its codec body, then the body.  Its
    /// large byte strings become segments of the frame, shared with the tree.
    pub fn put_message(&mut self, m: &Message) {
        self.put_varint((wire_len(m) - 1) as u64);
        encode_into(m, &mut self.buf);
    }

    /// Appends bytes that are already a wire form (a held frame): their length, then the
    /// bytes, each large segment by reference.
    pub fn put_segments(&mut self, wire: &Segments) {
        self.put_varint(wire.len() as u64);
        for seg in wire.iter() {
            self.buf.put_shared(seg);
        }
    }

    /// Finishes the frame: its wire bytes, envelope byte included.
    pub fn finish(mut self) -> Segments {
        let body = u32::try_from(self.buf.len() - HEAD_LEN).expect("a frame body under 4 GiB");
        self.buf.patch(HEAD_LEN - 4, &body.to_be_bytes());
        self.buf.finish()
    }
}

/// Reads the values of one protocol frame in the order they were written.
///
/// Every read is bounds-checked and refuses what no [`FrameWriter`] writes; [`Self::finish`]
/// refuses bytes left over.  The reader follows segment boundaries where a writer puts them;
/// a body cut anywhere else fails to read — open it inside [`Segments::read_with`] to have
/// it read as one buffer instead.
pub struct FrameReader<'a> {
    r: Reader<'a>,
}

impl<'a> FrameReader<'a> {
    /// Opens a frame's wire body (its bytes after the envelope byte, see
    /// [`crate::Frame::wire_body`]): fails unless it is the one-field envelope whose byte
    /// string runs to the end of `body`.
    pub fn open(body: &'a Segments) -> Result<Self> {
        let mut r = Reader::over(body);
        if r.take(HEAD_LEN - 5, "frame head")? != &HEAD[1..HEAD_LEN - 4] {
            return Err(VsError::CodecError("not a protocol frame".into()));
        }
        let len = r.u32("frame length")? as usize;
        if len != r.remaining() {
            return Err(VsError::CodecError(format!(
                "frame body of {len} bytes in {} bytes",
                r.remaining()
            )));
        }
        Ok(FrameReader { r })
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        self.r.u8("frame byte")
    }

    /// An unsigned integer: a LEB128 varint in its shortest form, at most 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        let first = self.r.u8("varint")?;
        if first < 0x80 {
            return Ok(first.into());
        }
        self.varint_rest(first)
    }

    /// The bytes of a varint after its first, `first`, which said more follow.
    fn varint_rest(&mut self, first: u8) -> Result<u64> {
        let mut v = u64::from(first & 0x7F);
        for shift in (7..64).step_by(7) {
            let b = self.r.u8("varint")?;
            if b == 0 {
                return Err(VsError::CodecError("over-long varint".into()));
            }
            if shift == 63 && b > 1 {
                return Err(VsError::CodecError("varint overflows 64 bits".into()));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(VsError::CodecError("over-long varint".into()))
    }

    /// A varint that must fit in `T` (a site id in 16 bits, a process index in 32).
    #[inline]
    pub fn narrow<T: TryFrom<u64>>(&mut self) -> Result<T> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| VsError::CodecError(format!("{v} out of range")))
    }

    /// A count of entries that follow, each at least one byte: refused if the bytes left
    /// cannot hold that many, so a caller may size an allocation by it.
    #[inline]
    pub fn count(&mut self) -> Result<usize> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.r.remaining() => Ok(n),
            _ => Err(VsError::CodecError(format!(
                "count {n} with {} bytes left",
                self.r.remaining()
            ))),
        }
    }

    /// A string, borrowed from the buffer.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.count()?;
        value_str(self.r.take(len, "string")?)
    }

    /// An application payload as a tree; its `Bytes` values alias the segments they lie in.
    pub fn message(&mut self) -> Result<Message> {
        let len = self.count()?;
        let end = self.r.remaining() - len;
        let m = decode_message(&mut self.r, 1)?;
        if self.r.remaining() != end {
            return Err(VsError::CodecError(format!(
                "payload of {len} bytes is not one message"
            )));
        }
        Ok(m)
    }

    /// Bytes written by [`FrameWriter::put_segments`], as a list sharing the segments they
    /// lie in; not looked into.
    pub fn segments(&mut self) -> Result<Segments> {
        let len = self.count()?;
        let start = self.r;
        self.r.skip(len, "held frame")?;
        Ok(start.until(&self.r))
    }

    /// True once every byte of the frame has been read: how a list that runs to the end of
    /// the frame, with no count in front, knows it is over.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.r.remaining() == 0
    }

    /// Ends the read: refuses bytes left over after the last value.
    pub fn finish(self) -> Result<()> {
        check_no_trailing(&self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use bytes::Bytes;

    /// A frame of one of each kind of value, and the tree it is.
    fn write_sample() -> (Segments, Message) {
        let payload = Message::with_body("app").with("price", 9000u64);
        let held = codec::encode_segments(&Message::with_body(vec![1u8, 2, 3]));
        let mut w = FrameWriter::with_capacity(64);
        w.put_u8(7);
        w.put_varint(300);
        w.put_str("sample");
        w.put_message(&payload);
        w.put_segments(&held);
        w.put_varint(u64::MAX);
        let wire = w.finish();
        let mut body = vec![7u8, 0xAC, 0x02, 6];
        body.extend_from_slice(b"sample");
        let payload_body = codec::encode(&payload).slice(1..);
        body.push(payload_body.len() as u8);
        body.extend_from_slice(&payload_body);
        body.push(held.len() as u8);
        body.extend_from_slice(&held.to_bytes());
        body.extend_from_slice(&[0xFF; 9]);
        body.push(0x01);
        let tree = Message::new().with(FRAME_FIELD, body);
        (wire, tree)
    }

    fn read_sample(body: &Segments) -> Result<(u8, u64, String, Message, Segments, u64)> {
        let mut c = FrameReader::open(body)?;
        let read = (
            c.u8()?,
            c.varint()?,
            c.str()?.to_owned(),
            c.message()?,
            c.segments()?,
            c.varint()?,
        );
        c.finish()?;
        Ok(read)
    }

    #[test]
    fn writer_output_is_the_tree_encoders_output_and_model() {
        let (wire, tree) = write_sample();
        assert_eq!(wire.iter().count(), 1, "nothing large: one buffer");
        let bytes = wire.to_bytes();
        assert_eq!(bytes, codec::encode(&tree), "byte for byte");
        assert_eq!(wire.len(), codec::wire_len(&tree), "length");
        assert_eq!(codec::decode(&bytes).expect("decode"), tree);
    }

    #[test]
    fn a_nested_read_that_stops_early_still_lands_after_the_nested_message() {
        let (wire, _) = write_sample();
        let body = codec::envelope_body(&wire).expect("envelope");
        let (kind, n, name, payload, held, last) = read_sample(&body).expect("reads");
        assert_eq!((kind, n, name.as_str(), last), (7, 300, "sample", u64::MAX));
        assert_eq!(payload.get_u64("price"), Some(9000));
        // The held frame is measured, not read, and comes back as the bytes that went in,
        // aliasing the buffer; the read after it starts where it ends.
        assert_eq!(
            held.to_bytes(),
            codec::encode(&Message::with_body(vec![1u8, 2, 3]))
        );
        let bytes = wire.to_bytes();
        let at = held.to_bytes().as_ptr() as usize;
        let base = bytes.as_ptr() as usize;
        assert!(at > base && at < base + bytes.len(), "aliases the input");
    }

    #[test]
    fn cursor_rejects_wrong_types_truncation_and_trailing_bytes() {
        let (wire, _) = write_sample();
        let body = codec::envelope_body(&wire).expect("envelope").to_bytes();
        // Every proper prefix fails, never panics; so does one byte more.
        for cut in 0..body.len() {
            let prefix = Segments::from(body.slice(..cut));
            assert!(
                read_sample(&prefix).is_err(),
                "{cut}-byte prefix was accepted"
            );
        }
        let mut longer = body.to_vec();
        longer.push(0);
        assert!(read_sample(&Segments::from(Bytes::from(longer))).is_err());
        // A message that is not the one-field envelope is not a frame.
        for tree in [
            Message::new(),
            Message::new().with(FRAME_FIELD, 7u64),
            Message::new().with("@q", vec![7u8]),
            Message::new().with(FRAME_FIELD, vec![7u8]).with("x", 1u64),
        ] {
            let wire = codec::encode_segments(&tree);
            let body = codec::envelope_body(&wire).expect("envelope");
            assert!(FrameReader::open(&body).is_err(), "{tree:?}");
        }
        // Varints: the longest legal one, then too long, overflowing, or not the shortest.
        let varint = |raw: &[u8]| {
            let tree = Message::new().with(FRAME_FIELD, raw.to_vec());
            let wire = codec::encode_segments(&tree);
            let body = codec::envelope_body(&wire).expect("envelope");
            let mut c = FrameReader::open(&body)?;
            let v = c.varint()?;
            c.finish().map(|()| v)
        };
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(varint(&max), Ok(u64::MAX));
        assert_eq!(varint(&[0]), Ok(0));
        let mut eleven = vec![0xFF; 10];
        eleven.push(0x01);
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        for bad in [
            &eleven[..],
            &overflow,
            &[0x80, 0x00],
            &[0xFF, 0x80, 0x00],
            &[0x80],
        ] {
            assert!(varint(bad).is_err(), "{bad:x?}");
        }
        // Counts the bytes left cannot hold, and values too wide for their field.
        let tree = Message::new().with(FRAME_FIELD, vec![0x05u8, 1, 2, 3, 4]);
        let wire = codec::encode_segments(&tree);
        let body = codec::envelope_body(&wire).expect("envelope");
        let mut c = FrameReader::open(&body).expect("open");
        assert!(c.count().is_err(), "5 entries in 4 bytes");
        let tree = Message::new().with(FRAME_FIELD, vec![0x80u8, 0x80, 0x04]);
        let wire = codec::encode_segments(&tree);
        let body = codec::envelope_body(&wire).expect("envelope");
        assert!(FrameReader::open(&body)
            .expect("open")
            .narrow::<u16>()
            .is_err());
        let mut c = FrameReader::open(&body).expect("open");
        assert_eq!(c.narrow::<u32>(), Ok(1 << 16));
    }

    #[test]
    fn large_values_are_segments_of_their_own_and_come_back_as_themselves() {
        let big = Bytes::from(vec![0xC3u8; 64 * 1024]);
        let payload = Message::with_body(big.clone()).with("op", 7u64);
        let held = codec::encode_segments(&Message::new().with("held", big.clone()));
        let mut w = FrameWriter::with_capacity(64);
        w.put_varint(1);
        w.put_message(&payload);
        w.put_segments(&held);
        w.put_varint(2);
        let wire = w.finish();
        let segs: Vec<&Bytes> = wire.iter().collect();
        assert_eq!(segs.len(), 5, "own bytes around each of the two values");
        assert_eq!(segs[1].as_ptr(), big.as_ptr(), "spliced, not copied");
        assert_eq!(segs[3].as_ptr(), big.as_ptr());
        assert!(wire.buffered_len() < 128);
        // Every way of reading hands the value back as the buffer that went in.
        let body = codec::envelope_body(&wire).expect("envelope");
        let mut c = FrameReader::open(&body).expect("open");
        assert_eq!(c.varint(), Ok(1));
        let read = c.message().expect("payload");
        assert_eq!(read, payload);
        assert_eq!(read.get_bytes("body").expect("body").as_ptr(), big.as_ptr());
        let got = c.segments().expect("held");
        assert_eq!(got, held);
        assert_eq!(got.iter().nth(1).expect("value").as_ptr(), big.as_ptr());
        assert_eq!(c.varint(), Ok(2));
        c.finish().expect("whole body consumed");
    }
}
