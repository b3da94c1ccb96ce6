//! A byte string held as a short list of shared segments, and the two ends that make and
//! consume one.
//!
//! A wire form is mostly small things — names, tags, integers — that a writer copies into
//! one buffer, and now and then a large byte string the application already holds in a
//! refcounted [`Bytes`].  Copying that string into the buffer is the whole cost of sending
//! it, so a writer (`SegmentsMut`, the buffer under [`crate::stream::FrameWriter`] and
//! [`crate::codec::encode_segments`]) does not: a `Bytes` of at least `SPLICE_MIN` becomes a
//! segment of its own, by reference, and what was written before and after it are slices of
//! the writer's one buffer.  The concatenation of the segments is exactly what a writer that
//! copied everything would have produced; a wire form without a large value is one segment
//! and costs nothing more than the buffer did.
//!
//! `Reader` (under every decoder and [`crate::stream::FrameReader`]) is the other end: a
//! cursor over the bytes that stays inside one segment and moves to the next only when the
//! current one is used up, which is where a writer's boundaries fall.  Bytes cut anywhere
//! else — inside a name, a length prefix, a scalar — are still the same bytes:
//! [`Segments::read_with`] reads them again as one buffer.

use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use vsync_util::{Result, VsError};

/// Byte strings at least this long are spliced into a wire form by reference instead of
/// being copied: about where one refcount bump and one list entry cost less than the copy.
const SPLICE_MIN: usize = 1024;

/// Whether a gathering writer takes a byte string of `len` bytes by reference.
pub(crate) fn splices(len: usize) -> bool {
    len >= SPLICE_MIN
}

/// An immutable byte string in one or more shared segments.  Cloning bumps two refcounts at
/// most.  No segment is empty unless the whole string is.
#[derive(Clone, Default)]
pub struct Segments {
    first: Bytes,
    /// The segments after the first; `None` for the common one-segment string, so that one
    /// allocates no list.
    rest: Option<Arc<[Bytes]>>,
}

impl Segments {
    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.first.len() + self.rest().iter().map(|seg| seg.len()).sum::<usize>()
    }

    /// True if there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    fn rest(&self) -> &[Bytes] {
        self.rest.as_deref().unwrap_or_default()
    }

    /// The segments in order: what a socket transport would hand to `writev`.
    pub fn iter(&self) -> impl Iterator<Item = &Bytes> {
        std::iter::once(&self.first).chain(self.rest())
    }

    /// The bytes as one buffer: the only segment itself, or a fresh copy of several.
    pub fn to_bytes(&self) -> Bytes {
        if self.rest.is_none() {
            return self.first.clone();
        }
        let mut buf = BytesMut::with_capacity(self.len());
        for seg in self.iter() {
            buf.put_slice(seg);
        }
        buf.freeze()
    }

    /// How many of these bytes a writer copies into its own buffer when the list is spliced
    /// into it ([`crate::stream::FrameWriter::put_segments`]); the rest it takes by reference.
    pub fn buffered_len(&self) -> usize {
        self.iter()
            .map(|seg| seg.len())
            .filter(|len| !splices(*len))
            .sum()
    }

    /// Runs `read` over the segments and, if it fails on more than one, once more over
    /// their concatenation: a reader follows segment boundaries only where a writer puts
    /// them, and a list cut anywhere else holds the same bytes.
    pub fn read_with<R>(&self, read: impl Fn(&Segments) -> Result<R>) -> Result<R> {
        match read(self) {
            Err(_) if self.rest.is_some() => read(&self.to_bytes().into()),
            result => result,
        }
    }

    /// The string without its first byte, sharing every segment.
    pub(crate) fn without_first_byte(&self) -> Segments {
        if self.first.len() <= 1 {
            return self.rest().iter().cloned().collect();
        }
        Segments {
            first: self.first.slice(1..),
            rest: self.rest.clone(),
        }
    }
}

impl From<Bytes> for Segments {
    fn from(first: Bytes) -> Self {
        Segments { first, rest: None }
    }
}

/// Empty segments are dropped.
impl FromIterator<Bytes> for Segments {
    fn from_iter<I: IntoIterator<Item = Bytes>>(iter: I) -> Self {
        let mut segs: Vec<Bytes> = iter.into_iter().filter(|seg| !seg.is_empty()).collect();
        if segs.len() <= 1 {
            return segs.pop().unwrap_or_default().into();
        }
        Segments {
            first: segs.remove(0),
            rest: Some(segs.into()),
        }
    }
}

/// Equal when the bytes are, however each side is cut.
impl PartialEq for Segments {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let (mut ours, mut theirs) = (self.iter(), other.iter());
        let (mut a, mut b): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if a.is_empty() {
                a = match ours.next() {
                    Some(seg) => seg,
                    None => return true,
                };
            }
            if b.is_empty() {
                b = match theirs.next() {
                    Some(seg) => seg,
                    None => return true,
                };
            }
            let n = a.len().min(b.len());
            if a[..n] != b[..n] {
                return false;
            }
            (a, b) = (&a[n..], &b[n..]);
        }
    }
}

impl Eq for Segments {}

impl fmt::Debug for Segments {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Segments({} bytes in {})",
            self.len(),
            self.iter().count()
        )
    }
}

/// Where an encoder writes: a growable buffer that is also told when a byte string is
/// already shared, so that a gathering writer can take it by reference.
pub(crate) trait Sink: BufMut {
    /// Appends the contents of `bytes`.
    fn put_shared(&mut self, bytes: &Bytes);
}

/// One flat buffer copies everything.
impl Sink for BytesMut {
    fn put_shared(&mut self, bytes: &Bytes) {
        self.put_slice(bytes);
    }
}

/// Builds a [`Segments`]: one growing buffer, plus the large byte strings spliced into it
/// by reference and where.  The buffer is frozen once, at the end, and the segments between
/// the spliced ones are slices of it — so offsets into what the writer itself wrote (a
/// count slot to patch later) stay valid across a splice.
pub(crate) struct SegmentsMut {
    /// A plain vector, so that the small appends an encoder is made of inline here.
    buf: Vec<u8>,
    /// Spliced byte strings, each with the length of `buf` at the time: the offset in the
    /// writer's own bytes it goes in front of.
    splices: Vec<(usize, Bytes)>,
}

impl SegmentsMut {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        SegmentsMut {
            buf: Vec::with_capacity(capacity),
            splices: Vec::new(),
        }
    }

    /// Bytes written so far, spliced ones included: the length of what `finish` returns.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() + self.splices.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    /// Overwrites bytes written earlier, at an offset into the writer's own bytes (spliced
    /// ones not counted).
    pub(crate) fn patch(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    pub(crate) fn finish(self) -> Segments {
        let buf = Bytes::from(self.buf);
        if self.splices.is_empty() {
            return buf.into();
        }
        let mut from = 0;
        let mut segs = Vec::with_capacity(2 * self.splices.len() + 1);
        for (at, spliced) in self.splices {
            segs.push(buf.slice(from..at));
            segs.push(spliced);
            from = at;
        }
        segs.push(buf.slice(from..));
        segs.into_iter().collect()
    }
}

impl BufMut for SegmentsMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}

impl Sink for SegmentsMut {
    fn put_shared(&mut self, bytes: &Bytes) {
        if splices(bytes.len()) {
            self.splices.push((self.buf.len(), bytes.clone()));
        } else {
            self.buf.extend_from_slice(bytes);
        }
    }
}

/// A read position in a byte string: the unread part of the segment it is in, and the
/// segments after that.  `Copy`, so a position can be kept and returned to.
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a> {
    /// The unread rest of the current segment.
    buf: &'a [u8],
    /// The segment `buf` is the tail of; `None` when reading plain borrowed bytes, which
    /// byte-string values are then copied out of.
    seg: Option<&'a Bytes>,
    /// Segments not yet entered, and their total length.
    next: &'a [Bytes],
    beyond: usize,
}

impl<'a> Reader<'a> {
    /// Reads borrowed bytes; byte-string values are copied out of them.
    pub(crate) fn flat(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            seg: None,
            next: &[],
            beyond: 0,
        }
    }

    /// Reads one shared buffer; byte-string values alias it.
    pub(crate) fn shared(bytes: &'a Bytes) -> Self {
        Reader {
            seg: Some(bytes),
            ..Reader::flat(bytes)
        }
    }

    /// Reads a segment list; byte-string values alias the segments.
    pub(crate) fn over(segs: &'a Segments) -> Self {
        Reader {
            next: segs.rest(),
            beyond: segs.len() - segs.first.len(),
            ..Reader::shared(&segs.first)
        }
    }

    /// Bytes left to read, in this segment and after it.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() + self.beyond
    }

    /// The next `n` bytes, which must lie in one segment: the rest of the current one, or —
    /// only when that is used up — the one after it.
    #[inline]
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n <= self.buf.len() {
            let (head, rest) = self.buf.split_at(n);
            self.buf = rest;
            return Ok(head);
        }
        self.take_next(n, what)
    }

    /// The slow half of [`Reader::take`]: enters the next segment if the current one is
    /// spent, and fails if `n` bytes are still not to be had in one piece.
    #[cold]
    fn take_next(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.is_empty() {
            if let Some((seg, rest)) = self.next.split_first() {
                self.buf = seg;
                self.seg = Some(seg);
                self.next = rest;
                self.beyond -= seg.len();
            }
        }
        if n > self.buf.len() {
            return Err(VsError::CodecError(format!(
                "truncated message: need {n} bytes for {what}, have {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Moves past the next `n` bytes, which may span segments: what a reader that does not
    /// look inside a value (a byte string it only measures, a frame held whole) does.
    pub(crate) fn skip(&mut self, mut n: usize, what: &str) -> Result<()> {
        if n > self.remaining() {
            return Err(VsError::CodecError(format!(
                "truncated message: need {n} bytes for {what}, have {}",
                self.remaining()
            )));
        }
        while n > self.buf.len() {
            n -= self.buf.len();
            let (seg, rest) = self.next.split_first().expect("remaining() counts them");
            self.buf = seg;
            self.seg = Some(seg);
            self.next = rest;
            self.beyond -= seg.len();
        }
        self.buf = &self.buf[n..];
        Ok(())
    }

    /// [`Reader::take`] for a byte-string value: a slice of the segment it lies in — the
    /// whole segment, for a value a writer spliced — or a copy when the input is not shared.
    pub(crate) fn take_shared(&mut self, n: usize, what: &str) -> Result<Bytes> {
        let raw = self.take(n, what)?;
        Ok(match self.seg {
            Some(seg) => {
                let end = self.offset(seg);
                seg.slice(end - n..end)
            }
            None => Bytes::copy_from_slice(raw),
        })
    }

    /// How far into `seg`, the current segment, the position is.
    fn offset(&self, seg: &Bytes) -> usize {
        seg.len() - self.buf.len()
    }

    #[inline]
    pub(crate) fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    #[inline]
    pub(crate) fn u16(&mut self, what: &str) -> Result<u16> {
        let raw = self.take(2, what)?;
        Ok(u16::from_be_bytes(raw.try_into().expect("took 2 bytes")))
    }

    #[inline]
    pub(crate) fn u32(&mut self, what: &str) -> Result<u32> {
        let raw = self.take(4, what)?;
        Ok(u32::from_be_bytes(raw.try_into().expect("took 4 bytes")))
    }

    #[inline]
    pub(crate) fn u64(&mut self, what: &str) -> Result<u64> {
        let raw = self.take(8, what)?;
        Ok(u64::from_be_bytes(raw.try_into().expect("took 8 bytes")))
    }

    /// The bytes from this position up to `end`, a later position of the same reader, as a
    /// list sharing the segments they lie in.
    pub(crate) fn until(&self, end: &Reader<'a>) -> Segments {
        let (Some(from), Some(to)) = (self.seg, end.seg) else {
            // Input that is not shared is one buffer.
            return Bytes::copy_from_slice(&self.buf[..self.buf.len() - end.buf.len()]).into();
        };
        let (a, b) = (self.offset(from), end.offset(to));
        match self.next.len() - end.next.len() {
            0 => from.slice(a..b).into(),
            hops => std::iter::once(from.slice(a..))
                .chain(self.next[..hops - 1].iter().cloned())
                .chain([to.slice(..b)])
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cut(bytes: &[u8], at: &[usize]) -> Segments {
        let whole = Bytes::copy_from_slice(bytes);
        let mut from = 0;
        at.iter()
            .chain([&bytes.len()])
            .map(|&to| {
                let seg = whole.slice(from..to);
                from = to;
                seg
            })
            .collect()
    }

    #[test]
    fn one_segment_is_the_buffer_itself_and_several_flatten_to_their_concatenation() {
        let bytes = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let one = Segments::from(bytes.clone());
        assert_eq!(one.iter().count(), 1);
        assert_eq!(one.to_bytes().as_ptr(), bytes.as_ptr(), "no copy");
        let three = cut(&bytes, &[1, 1, 3]);
        assert_eq!(three.iter().count(), 3, "the empty segment is dropped");
        assert_eq!(three.len(), 5);
        assert_eq!(three.to_bytes(), bytes);
        assert_eq!(three, one, "equality ignores where the cuts fall");
        assert_ne!(cut(&[1, 2, 3, 4, 6], &[2]), one);
        assert_ne!(cut(&[1, 2, 3, 4], &[2]), one);
        assert!(Segments::default().is_empty());
        assert!(cut(&[], &[0, 0]).is_empty());
        assert_eq!(three.without_first_byte(), cut(&[2, 3, 4, 5], &[]));
        assert_eq!(three.without_first_byte().iter().count(), 2);
    }

    #[test]
    fn a_writer_splices_large_strings_by_reference_and_copies_small_ones() {
        let large = Bytes::from(vec![7u8; SPLICE_MIN]);
        let small = Bytes::from(vec![9u8; SPLICE_MIN - 1]);
        let mut w = SegmentsMut::with_capacity(16);
        w.put_u32(0);
        w.put_shared(&small);
        w.put_shared(&large);
        w.put_shared(&large);
        let slot = 4 + small.len();
        w.put_u8(0);
        w.patch(slot, &[5]);
        w.patch(0, &1u32.to_be_bytes());
        let segs = w.finish();
        let parts: Vec<&Bytes> = segs.iter().collect();
        assert_eq!(parts.len(), 4, "adjacent splices leave no empty segment");
        assert_eq!(parts[1].as_ptr(), large.as_ptr());
        assert_eq!(parts[2].as_ptr(), large.as_ptr());
        assert_eq!(&parts[3][..], &[5]);
        // The writer's own first kilobyte is by now a large segment itself.
        assert_eq!(parts[0].len(), 4 + small.len());
        assert_eq!(segs.buffered_len(), 1);
        let mut flat = BytesMut::new();
        flat.put_u32(1);
        flat.put_shared(&small);
        flat.put_shared(&large);
        flat.put_shared(&large);
        flat.put_u8(5);
        assert_eq!(segs.to_bytes(), flat.freeze());
    }

    #[test]
    fn a_reader_moves_on_only_from_a_spent_segment_and_read_with_flattens_other_cuts() {
        let bytes: Vec<u8> = (0..12).collect();
        let read = |segs: &Segments| -> Result<(u32, Bytes, u16)> {
            let mut r = Reader::over(segs);
            let head = r.u32("head")?;
            let start = r;
            let body = r.take_shared(6, "body")?;
            let tail = r.u16("tail")?;
            assert_eq!(r.remaining(), 0);
            assert_eq!(start.until(&r).to_bytes()[..], bytes[4..]);
            Ok((head, body, tail))
        };
        let at_boundaries = cut(&bytes, &[4, 10]);
        assert_eq!(Reader::over(&at_boundaries).remaining(), 12);
        let (head, body, tail) = read(&at_boundaries).expect("boundaries between reads");
        assert_eq!((head, tail), (0x0001_0203, 0x0a0b));
        let middle = at_boundaries.iter().nth(1).expect("three segments");
        assert_eq!(body.as_ptr(), middle.as_ptr(), "the segment itself");
        let inside = cut(&bytes, &[2, 7]);
        assert!(
            read(&inside).is_err(),
            "a cut inside a read is not followed"
        );
        let (head, body, _) = inside.read_with(read).expect("read again as one buffer");
        assert_eq!((head, &body[..]), (0x0001_0203, &bytes[4..10]));
        assert!(cut(&bytes[..11], &[4]).read_with(read).is_err());
    }
}
