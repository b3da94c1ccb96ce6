//! Reference-counted wire frames.
//!
//! A [`Frame`] is an immutable, cheaply clonable handle to one message prepared for
//! transmission.  It holds the message in **wire form** (the codec's bytes), in **tree form**
//! (a [`Message`]), or both, and derives whichever is missing from the other on demand,
//! once, through the one generic codec.  The wire form is a [`Segments`] list — one buffer,
//! unless the message holds a large byte string, which is then a segment of its own shared
//! with whoever else holds that buffer and never copied into or out of the frame:
//!
//! * [`Frame::new`] starts from a tree — what an application hands the stack.  The bytes
//!   are encoded the first time a byte-oriented transport asks for them
//!   ([`Frame::wire_segments`], counted by [`wire_cache`]).
//! * [`Frame::from_wire`] starts from bytes — what arrives over a thread boundary.  Nothing
//!   is decoded until someone reads a field ([`Frame::message`] or `Deref`, counted by
//!   [`tree_builds`]); `Bytes` values of the tree then alias the received segments.
//! * [`Frame::from_writer`] starts from a [`FrameWriter`] — how protocol messages are born:
//!   the bytes and the typed value they were written from, at once.  Such a frame never
//!   needs a tree.
//!
//! Multicasting to N sites therefore costs one pointer clone per destination, whatever form
//! the frame is in.
//!
//! Frames also carry a *memo slot*: a one-shot, type-erased cache for the typed value the
//! frame stands for (the protocol message).  Because the slot lives inside the shared
//! allocation, every holder of the frame in one process reads the same typed value and the
//! bytes are parsed at most once per process — not at all where the frame was born.  The
//! slot is write-once — the first value stored wins — and is deliberately dropped by
//! [`Frame::make_mut`], since mutating the message would invalidate anything derived from it.
//!
//! Mutation is copy-on-write: [`Frame::make_mut`] hands out `&mut Message`, building a
//! private tree first if other handles share the frame.  This is what keeps deliveries
//! isolated — a receiver that edits its copy can never be observed by another receiver
//! aliasing the same frame.
//!
//! Bytes that do not decode are not an error until someone looks: [`Frame::try_message`]
//! reports them, and `Deref` (which cannot) reads them as an empty message, so corrupt
//! input from a peer can be dropped and traced by whoever routes the frame but can never
//! panic a node.
//!
//! Each node is single-threaded (see ARCHITECTURE.md), so the handle is an `Rc` and frames
//! never cross threads: what crosses is [`Frame::wire_segments`].

use std::any::Any;
use std::cell::{Cell, OnceCell};
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use bytes::Bytes;
use vsync_util::Result;

use crate::codec;
use crate::message::Message;
use crate::segments::Segments;
use crate::stream::FrameWriter;

/// Thread-local counter of tree → bytes encodes performed by [`Frame::wire_bytes`] (cache
/// misses only — a warm cache costs a pointer clone, and a frame born from a writer or from
/// the wire never encodes).  Tests use the deltas to pin the fan-out invariant: a frame
/// shipped to N destinations over a byte-oriented transport is encoded once in total.
/// Thread-local for the same reason as the protocol-level `wire_stats`: nodes encode on
/// their own threads and `cargo test` runs tests in parallel.
pub mod wire_cache {
    use std::cell::Cell;

    thread_local! {
        static ENCODES: Cell<u64> = const { Cell::new(0) };
    }

    /// Wire-byte encodes performed on this thread so far (cache hits excluded).
    pub fn encodes() -> u64 {
        ENCODES.with(|c| c.get())
    }

    pub(super) fn note_encode() {
        ENCODES.with(|c| c.set(c.get() + 1));
    }
}

/// Bytes → tree decodes performed by frames on this thread so far: how often a frame that
/// had only its wire form was asked for a [`Message`].  Protocol traffic never is — it is
/// read through the typed value in the memo slot — so tests pin a delta of zero across it.
pub fn tree_builds() -> u64 {
    TREE_BUILDS.with(|c| c.get())
}

thread_local! {
    static TREE_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// What `Deref` reads when a frame's bytes do not decode.
static EMPTY: Message = Message::new();

struct FrameInner {
    /// Tree form, built lazily from the wire form (`Err` if the bytes do not decode).
    tree: OnceCell<Result<Message>>,
    /// Wire form — the codec's bytes, envelope byte included, as the segments they were
    /// written or received in (one, unless the message holds a large byte string; see
    /// [`crate::segments`]) — encoded lazily from the tree.  Lives in the shared allocation,
    /// so a fan-out that serializes the same frame once per destination pays for one encode
    /// and N clones of a refcounted segment list.
    wire: OnceCell<Segments>,
    memo: OnceCell<Box<dyn Any>>,
}

impl FrameInner {
    fn from_tree(msg: Message) -> Self {
        FrameInner {
            tree: OnceCell::from(Ok(msg)),
            wire: OnceCell::new(),
            memo: OnceCell::new(),
        }
    }

    fn from_wire(wire: Segments) -> Self {
        FrameInner {
            tree: OnceCell::new(),
            wire: OnceCell::from(wire),
            memo: OnceCell::new(),
        }
    }
}

/// A shared, immutable wire frame: one message in wire form, tree form or both, plus a
/// write-once memo slot for the typed value it stands for.  Cloning is O(1).
pub struct Frame {
    inner: Rc<FrameInner>,
}

impl Frame {
    /// Wraps a message tree in a fresh frame (empty memo slot, bytes encoded on demand).
    pub fn new(msg: Message) -> Self {
        Frame {
            inner: Rc::new(FrameInner::from_tree(msg)),
        }
    }

    /// Wraps an encoded message (envelope byte included) as received from a byte-oriented
    /// transport: one buffer, or the segments it arrived in.  Nothing is decoded or validated
    /// here; see the module docs for what happens if the bytes turn out to be corrupt.
    pub fn from_wire(wire: impl Into<Segments>) -> Self {
        Frame {
            inner: Rc::new(FrameInner::from_wire(wire.into())),
        }
    }

    /// A frame born in wire form: the bytes `writer` produced, and in the memo slot the typed
    /// value the bytes were written from — so no holder of this frame ever parses it.
    pub fn from_writer<T: 'static>(writer: FrameWriter, memo: T) -> Self {
        let inner = FrameInner::from_wire(writer.finish());
        let _ = inner.memo.set(Box::new(memo));
        Frame {
            inner: Rc::new(inner),
        }
    }

    fn wire(&self) -> &Segments {
        self.inner.wire.get_or_init(|| {
            wire_cache::note_encode();
            let tree = self.inner.tree.get().and_then(|t| t.as_ref().ok());
            codec::encode_segments(tree.expect("a frame holds a tree or bytes"))
        })
    }

    /// The codec-encoded wire form of the framed message, envelope byte included, as the
    /// segments it is held in: what a byte-oriented transport sends.  A large byte string
    /// of the message is a segment of its own, shared with whoever else holds that buffer,
    /// and a message without one is a single segment.  For a frame that started as a tree
    /// the bytes are encoded **once per frame** and cached in the shared allocation, so
    /// every later call (every further destination of a fan-out) clones a refcounted list;
    /// [`wire_cache`] counts those encodes.
    pub fn wire_segments(&self) -> Segments {
        self.wire().clone()
    }

    /// [`Frame::wire_segments`] as one buffer: the frame's only segment, or a copy of
    /// several.  For tests, tools and stores that want contiguous bytes; the packet path
    /// sends the segments.
    pub fn wire_bytes(&self) -> Bytes {
        self.wire_segments().to_bytes()
    }

    /// The wire form without the envelope byte: what a [`crate::stream::FrameReader`]
    /// opens.  Shares the frame's segments; fails if they do not start with the envelope
    /// byte.
    pub fn wire_body(&self) -> Result<Segments> {
        codec::envelope_body(self.wire())
    }

    /// The framed message as a tree, or why its bytes do not decode.  A frame that has only
    /// its wire form decodes it here, once ([`tree_builds`] counts), over the shared
    /// segments: `Bytes` values alias the frame's bytes instead of being copied out of them.
    pub fn try_message(&self) -> Result<&Message> {
        self.inner
            .tree
            .get_or_init(|| {
                TREE_BUILDS.with(|c| c.set(c.get() + 1));
                let wire = self.inner.wire.get();
                codec::decode_segments(wire.expect("a frame holds a tree or bytes"))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The framed message; an empty message if the frame's bytes do not decode (see
    /// [`Frame::try_message`] to tell the two apart).
    pub fn message(&self) -> &Message {
        self.try_message().unwrap_or(&EMPTY)
    }

    /// Copies the framed message out into an independent [`Message`].
    pub fn to_message(&self) -> Message {
        self.message().clone()
    }

    /// The name of the message's first field, read off whichever form the frame already
    /// has — a few bytes into the first segment for a wire-born frame.  Lets a router
    /// recognise a protocol frame (whose one field is [`crate::stream::FRAME_FIELD`])
    /// without building a tree.  Only bytes whose first field cannot be read where it
    /// stands (corrupt, or cut inside it) are decoded to find out.
    pub fn first_field_name(&self) -> Option<&str> {
        if self.inner.tree.get().is_none() {
            if let Ok(name) = codec::first_field_name(self.inner.wire.get()?) {
                return name;
            }
        }
        let first = self.try_message().ok()?.iter().next()?;
        Some(first.name.as_str())
    }

    /// Length of the frame's wire form, envelope byte included: what a byte-oriented
    /// transport sends and what the simulator charges.  The length of the bytes if the frame
    /// holds them (bytes that do not decode count as themselves), otherwise worked out from
    /// the tree without encoding it ([`codec::wire_len`]).
    pub fn wire_len(&self) -> usize {
        match self.inner.wire.get() {
            Some(wire) => wire.len(),
            None => codec::wire_len(self.message()),
        }
    }

    /// Mutable access to the message, copy-on-write: if other handles alias this frame the
    /// message is cloned first, so the mutation is invisible to them.  The memo slot and the
    /// wire form are dropped either way — derived values do not survive mutation.
    pub fn make_mut(&mut self) -> &mut Message {
        let tree = match Rc::get_mut(&mut self.inner).and_then(|inner| inner.tree.take()) {
            Some(Ok(tree)) => tree,
            _ => self.to_message(),
        };
        self.inner = Rc::new(FrameInner::from_tree(tree));
        let inner = Rc::get_mut(&mut self.inner).expect("freshly allocated");
        match inner.tree.get_mut() {
            Some(Ok(msg)) => msg,
            _ => unreachable!("constructed from a tree above"),
        }
    }

    /// Number of handles (packets, buffers) currently aliasing this frame.  Diagnostic; used
    /// by tests asserting that fan-out shares rather than copies.
    pub fn handle_count(&self) -> usize {
        Rc::strong_count(&self.inner)
    }

    /// Returns the memoized value of type `T`, if one was stored.
    pub fn memo_get<T: 'static>(&self) -> Option<&T> {
        self.inner.memo.get().and_then(|b| b.downcast_ref::<T>())
    }

    /// Returns the memoized value of type `T`, running `make` to fill the empty slot.  The
    /// slot is write-once and type-erased: if a value of a *different* type already occupies
    /// it, `None` is returned and the caller falls back to uncached work (in practice the
    /// slot holds the typed protocol message, or — in a frame made of a held copy's bytes —
    /// the few facts about it that its holder knew).
    pub fn memo_get_or_init<T: 'static>(&self, make: impl FnOnce() -> T) -> Option<&T> {
        self.inner
            .memo
            .get_or_init(|| Box::new(make()))
            .downcast_ref::<T>()
    }
}

impl Clone for Frame {
    fn clone(&self) -> Self {
        Frame {
            inner: self.inner.clone(),
        }
    }
}

impl Deref for Frame {
    type Target = Message;
    fn deref(&self) -> &Message {
        self.message()
    }
}

impl From<Message> for Frame {
    fn from(msg: Message) -> Self {
        Frame::new(msg)
    }
}

/// Frames are equal when they carry the same message, whatever form each holds it in: two
/// wire forms compare as bytes (no tree is built), anything else compares as trees.
impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        if Rc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        if self.inner.wire.get().is_some() && other.inner.wire.get().is_some() {
            if let (Ok(a), Ok(b)) = (self.wire_body(), other.wire_body()) {
                return a == b;
            }
        }
        match (self.try_message(), other.try_message()) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        }
    }
}

// A frame renders as its message: the sharing is an implementation detail and traces/tests
// compare payload content, not identity.  Rendering never changes the frame: a wire-born
// frame decodes a throwaway tree instead of caching one.
impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(Ok(tree)) = self.inner.tree.get() {
            return fmt::Debug::fmt(tree, f);
        }
        let wire = self.wire_segments();
        match codec::decode_segments(&wire) {
            Ok(tree) => fmt::Debug::fmt(&tree, f),
            Err(e) => write!(f, "Frame(<{} undecodable bytes: {e}>)", wire.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::FRAME_FIELD;

    #[test]
    fn clone_aliases_instead_of_copying() {
        let frame = Frame::new(Message::with_body("shared"));
        assert_eq!(frame.handle_count(), 1);
        let copies: Vec<Frame> = (0..8).map(|_| frame.clone()).collect();
        assert_eq!(frame.handle_count(), 9);
        for c in &copies {
            assert_eq!(c.get_str("body"), Some("shared"));
        }
        drop(copies);
        assert_eq!(frame.handle_count(), 1);
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut a = Frame::new(Message::with_body(1u64));
        let b = a.clone();
        a.make_mut().set("body", 2u64);
        assert_eq!(a.get_u64("body"), Some(2));
        assert_eq!(b.get_u64("body"), Some(1), "aliasing handle is untouched");
        // Uniquely owned: mutation happens in place, no second allocation.
        let mut c = Frame::new(Message::with_body(3u64));
        c.make_mut().set("body", 4u64);
        assert_eq!(c.get_u64("body"), Some(4));
        assert_eq!(c.handle_count(), 1);
    }

    #[test]
    fn memo_slot_is_write_once_and_shared_across_handles() {
        let a = Frame::new(Message::with_body(1u64));
        let b = a.clone();
        assert!(a.memo_get::<u64>().is_none());
        assert_eq!(a.memo_get_or_init(|| 42u64), Some(&42));
        // The clone sees the memo without re-running the initializer.
        let mut ran = false;
        assert_eq!(
            b.memo_get_or_init(|| {
                ran = true;
                7u64
            }),
            Some(&42)
        );
        assert!(!ran, "initializer must not run on a warm slot");
        // A different type cannot displace the stored value.
        assert!(b.memo_get_or_init(|| "other").is_none());
        assert_eq!(b.memo_get::<u64>(), Some(&42));
    }

    #[test]
    fn make_mut_clears_the_memo() {
        let mut a = Frame::new(Message::with_body(1u64));
        a.memo_get_or_init(|| 1u64);
        a.make_mut().set("body", 2u64);
        assert!(a.memo_get::<u64>().is_none(), "memo dropped on mutation");
        // And on the copy-on-write path the *other* handle keeps its memo.
        let mut b = a.clone();
        a.memo_get_or_init(|| 9u64);
        b.make_mut().set("body", 3u64);
        assert_eq!(a.memo_get::<u64>(), Some(&9));
        assert!(b.memo_get::<u64>().is_none());
    }

    #[test]
    fn wire_bytes_encode_once_per_frame_across_handles() {
        let frame = Frame::new(Message::with_body("fan-out").with("seq", 9u64));
        let before = wire_cache::encodes();
        // N destinations serialize the same frame; only the first pays for the encode.
        let copies: Vec<Frame> = (0..4).map(|_| frame.clone()).collect();
        let first = frame.wire_bytes();
        for c in &copies {
            assert_eq!(c.wire_bytes(), first);
        }
        assert_eq!(
            wire_cache::encodes() - before,
            1,
            "one encode per frame, not per destination"
        );
        // The cached bytes are the real codec form.
        assert_eq!(codec::decode(&first).expect("decode"), *frame.message());
    }

    #[test]
    fn make_mut_invalidates_the_wire_cache() {
        let mut a = Frame::new(Message::with_body(1u64));
        let stale = a.wire_bytes();
        a.make_mut().set("body", 2u64);
        let before = wire_cache::encodes();
        let fresh = a.wire_bytes();
        assert_eq!(
            wire_cache::encodes() - before,
            1,
            "cache dropped on mutation"
        );
        assert_ne!(stale, fresh);
        assert_eq!(
            codec::decode(&fresh).expect("decode").get_u64("body"),
            Some(2)
        );
        // Copy-on-write keeps the aliasing handle's cache intact.
        let b = a.clone();
        let cached = a.wire_bytes();
        let mut c = b.clone();
        c.make_mut().set("body", 3u64);
        let before = wire_cache::encodes();
        assert_eq!(a.wire_bytes(), cached, "original handle keeps its cache");
        assert_eq!(wire_cache::encodes() - before, 0);
    }

    #[test]
    fn a_wire_born_frame_builds_its_tree_lazily_once_and_aliases_the_buffer() {
        let msg = Message::with_body(vec![9u8; 256]).with("seq", 3u64);
        let bytes = codec::encode(&msg);
        let frame = Frame::from_wire(bytes.clone());
        let copy = frame.clone();
        let (encodes, builds) = (wire_cache::encodes(), tree_builds());
        // Shipping it on and sizing it touch no tree and encode nothing.
        assert_eq!(frame.wire_bytes(), bytes);
        assert_eq!(frame.wire_len(), bytes.len());
        assert_eq!(frame.first_field_name(), Some("body"));
        assert_eq!((wire_cache::encodes(), tree_builds()), (encodes, builds));
        // The first field read builds the tree; every handle shares it afterwards.
        assert_eq!(frame.get_u64("seq"), Some(3));
        assert_eq!(copy.message(), &msg);
        assert_eq!(tree_builds() - builds, 1);
        let body = copy.get_bytes("body").expect("body");
        let (base, at) = (bytes.as_ptr() as usize, body.as_ptr() as usize);
        assert!(at >= base && at < base + bytes.len(), "aliases the wire");
    }

    #[test]
    fn undecodable_bytes_read_as_an_empty_message_and_report_the_error() {
        let bytes = codec::encode(&Message::with_body("x"));
        for corrupt in [
            Bytes::new(),
            bytes.slice(..bytes.len() - 1),
            Bytes::from(vec![0x00, 0, 0, 0, 0]),
        ] {
            let frame = Frame::from_wire(corrupt.clone());
            assert!(frame.try_message().is_err());
            assert!(
                frame.message().is_empty(),
                "Deref cannot fail: it reads empty"
            );
            assert_eq!(frame.wire_len(), corrupt.len());
            assert_eq!(frame.wire_bytes(), corrupt, "still forwardable as is");
            let _ = format!("{frame:?}");
        }
        assert_eq!(Frame::from_wire(Bytes::new()).first_field_name(), None);
    }

    #[test]
    fn a_frame_born_from_a_writer_has_bytes_model_and_memo_and_never_a_tree() {
        let mut w = FrameWriter::with_capacity(32);
        w.put_str("born");
        w.put_varint(7);
        let frame = Frame::from_writer(w, 7u64);
        let tree = Message::new().with(FRAME_FIELD, b"\x04born\x07".to_vec());
        let twin = Frame::new(tree.clone());
        let (encodes, builds) = (wire_cache::encodes(), tree_builds());
        assert_eq!(frame.wire_bytes(), codec::encode(&tree));
        // Its size is its bytes' length, and its tree-born twin is sized to the same length
        // without being encoded.
        assert_eq!(frame.wire_len(), codec::encode(&tree).len());
        assert_eq!(twin.wire_len(), frame.wire_len());
        assert_eq!(frame.memo_get::<u64>(), Some(&7));
        assert_eq!(frame.first_field_name(), Some(FRAME_FIELD));
        assert_eq!((wire_cache::encodes(), tree_builds()), (encodes, builds));
        // Still a message to anyone who asks for one, and equal to its tree-born twin.
        assert_eq!(frame.message(), &tree);
        assert_eq!(frame, twin);
    }

    #[test]
    fn a_frame_remade_from_held_bytes_keeps_a_known_size() {
        let mut w = FrameWriter::with_capacity(32);
        w.put_str("held");
        let written = Frame::from_writer(w, 1u64);
        // The bytes alone, held and made into a frame again, are sized without a tree.
        let remade = Frame::from_wire(written.wire_segments());
        let builds = tree_builds();
        assert_eq!(remade.wire_len(), written.wire_len());
        assert_eq!(tree_builds(), builds);
        assert_eq!(remade.wire_bytes(), written.wire_bytes());
        assert_eq!(remade, written);
    }

    #[test]
    fn make_mut_on_a_wire_born_frame_edits_a_private_tree() {
        let bytes = codec::encode(&Message::with_body(1u64));
        let mut a = Frame::from_wire(bytes.clone());
        let b = a.clone();
        a.make_mut().set("body", 2u64);
        assert_eq!(a.get_u64("body"), Some(2));
        assert_eq!(b.get_u64("body"), Some(1));
        assert_eq!(b.wire_bytes(), bytes, "the aliasing handle keeps its bytes");
        assert_ne!(a.wire_bytes(), bytes, "the edited one re-encodes");
    }

    #[test]
    fn equality_compares_content() {
        let a = Frame::new(Message::with_body(5u64));
        let b = Frame::new(Message::with_body(5u64));
        let c = Frame::new(Message::with_body(6u64));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, a.clone());
    }
}
