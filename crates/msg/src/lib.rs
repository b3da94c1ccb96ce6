//! The ISIS message subsystem (paper Section 4.1).
//!
//! "A message is represented as a symbol table containing multiple fields, each having a
//! name, type, and variable length data.  Fields can be inserted and deleted at will, and
//! special system fields carry information such as the address of the sender of a message
//! (this cannot be forged), the session-id number used to match a reply with a pending call,
//! etc.  A field can even contain another message."
//!
//! This crate provides exactly that data structure ([`Message`]), the typed values fields can
//! hold ([`Value`]), the well-known system field names ([`fields`]), the compact binary
//! codec ([`codec`]) that is the wire format between threads and on stable storage, the
//! positional writer and reader of the protocol frames carried in that format, for layers
//! that do not need the symbol table ([`stream`]), and the shared wire frame packets carry
//! ([`Frame`]).  A frame's size is its wire length ([`Frame::wire_len`]): the bytes the
//! threaded backend sends, and what the simulator charges, worked out from the tree
//! without encoding it when the frame holds no bytes.

pub mod codec;
pub mod fields;
pub mod frame;
pub mod message;
pub mod name;
pub mod segments;
pub mod stream;
pub mod value;

/// The shared byte buffer wire forms live in (re-exported so layers that handle frames'
/// bytes need no dependency of their own on the buffer crate).
pub use bytes::Bytes;
pub use frame::Frame;
pub use message::{Field, Message};
pub use name::FieldName;
pub use segments::Segments;
pub use value::Value;
