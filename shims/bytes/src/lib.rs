//! Minimal stand-in for the `bytes` crate so the workspace builds without network
//! access.  Implements the subset the vsync codec uses — `Bytes`, `BytesMut`, and
//! the `Buf`/`BufMut` traits with big-endian integer accessors — with the same
//! semantics as the real crate (`Bytes` is a cheaply clonable immutable buffer
//! supporting zero-copy `slice`, `BytesMut::freeze` converts without copying).

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable immutable byte buffer: a reference-counted allocation plus a
/// window into it, so [`Bytes::slice`] shares storage instead of copying.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::default()
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Returns a zero-copy sub-buffer sharing this buffer's storage, like the real
    /// crate's `Bytes::slice`.  Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.end - self.start;
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let finish = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= finish && finish <= len,
            "slice {begin}..{finish} out of bounds of {len}-byte Bytes"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + finish,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// In-place access to what has been written so far, like the real crate: a writer that
/// reserves a length or count slot patches it once the value is known.
impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Read access to a byte cursor; implemented for `&[u8]` exactly like the real
/// crate, so decoders advance a `&mut &[u8]`.  All integer accessors are
/// big-endian, matching `bytes`' default.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    fn get_u16(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_be_bytes(raw)
    }

    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(raw)
    }

    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }

    fn get_i64(&mut self) -> i64 {
        self.get_u64() as i64
    }

    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write access to a growable buffer.  All integer writers are big-endian,
/// matching `bytes`' default.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(0xA5);
        buf.put_u16(0xBEEF);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(0x0123_4567_89AB_CDEF);
        buf.put_i64(-42);
        buf.put_f64(2.5);
        buf.put_slice(b"tail");

        let frozen = buf.freeze();
        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.get_u8(), 0xA5);
        assert_eq!(cur.get_u16(), 0xBEEF);
        assert_eq!(cur.get_u32(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64(), 0x0123_4567_89AB_CDEF);
        assert_eq!(cur.get_i64(), -42);
        assert_eq!(cur.get_f64(), 2.5);
        assert_eq!(cur.remaining(), 4);
        cur.advance(4);
        assert!(!cur.has_remaining());
    }

    #[test]
    fn big_endian_wire_layout() {
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        assert_eq!(&buf[..], &[0, 0, 0, 1]);
    }

    #[test]
    fn slice_shares_storage_and_composes() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let mid = b.slice(2..6);
        assert_eq!(&mid[..], &[2, 3, 4, 5]);
        // Same backing allocation, not a copy.
        assert_eq!(mid.as_ptr() as usize, b.as_ptr() as usize + 2);
        // Slicing a slice stays relative to the inner window.
        let inner = mid.slice(1..=2);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(b.slice(..), b);
        assert_eq!(b.slice(8..8).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let _ = b.slice(1..5);
    }

    #[test]
    fn equality_and_hash_follow_contents() {
        use std::collections::HashSet;
        let a = Bytes::from(vec![9u8, 9]);
        let b = Bytes::copy_from_slice(&[9u8, 9]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
