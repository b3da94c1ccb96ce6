//! Typed values carried in message fields.

use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use vsync_util::{Address, GroupId, ProcessId, SiteId};

use crate::message::Message;

/// A typed, variable-length field value.
///
/// The set of types mirrors what the ISIS message subsystem needed: scalars, strings, byte
/// strings, process/group addresses and address lists, unsigned integer vectors (used for
/// vector timestamps), and nested messages.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed 64-bit integer.
    I64(i64),
    /// Unsigned 64-bit integer.
    U64(u64),
    /// IEEE-754 double.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.  Held as [`Bytes`] so a decode over a shared buffer can alias the input
    /// instead of copying (see `codec::decode_shared`); equality follows contents.
    Bytes(Bytes),
    /// A process or group address.
    Addr(Address),
    /// A list of addresses (destination lists, membership lists, ...).
    AddrList(Vec<Address>),
    /// A vector of unsigned integers (vector timestamps, rank lists, ...).
    U64List(Vec<u64>),
    /// A nested message.
    Msg(Box<Message>),
}

impl Value {
    /// Returns the boolean if this is a `Bool`.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer if this is a `U64` (or a non-negative `I64`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the bytes if this is a `Bytes`.
    pub(crate) fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the address if this is an `Addr`.
    pub(crate) fn as_addr(&self) -> Option<Address> {
        match self {
            Value::Addr(a) => Some(*a),
            _ => None,
        }
    }

    /// Returns the address list if this is an `AddrList`.
    pub(crate) fn as_addr_list(&self) -> Option<&[Address]> {
        match self {
            Value::AddrList(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the integer list if this is a `U64List`.
    pub(crate) fn as_u64_list(&self) -> Option<&[u64]> {
        match self {
            Value::U64List(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the nested message if this is a `Msg`.
    pub(crate) fn as_msg(&self) -> Option<&Message> {
        match self {
            Value::Msg(m) => Some(m),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}u"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Addr(a) => write!(f, "{a:?}"),
            Value::AddrList(v) => write!(f, "{v:?}"),
            Value::U64List(v) => write!(f, "{v:?}"),
            Value::Msg(m) => write!(f, "msg({} fields)", m.field_count()),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(Bytes::from(v))
    }
}
impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value::Bytes(Bytes::copy_from_slice(v))
    }
}
impl From<Bytes> for Value {
    fn from(v: Bytes) -> Self {
        Value::Bytes(v)
    }
}
impl From<Address> for Value {
    fn from(v: Address) -> Self {
        Value::Addr(v)
    }
}
impl From<ProcessId> for Value {
    fn from(v: ProcessId) -> Self {
        Value::Addr(Address::Process(v))
    }
}
impl From<GroupId> for Value {
    fn from(v: GroupId) -> Self {
        Value::Addr(Address::Group(v))
    }
}
impl From<Vec<Address>> for Value {
    fn from(v: Vec<Address>) -> Self {
        Value::AddrList(v)
    }
}
impl From<Vec<u64>> for Value {
    fn from(v: Vec<u64>) -> Self {
        Value::U64List(v)
    }
}
impl From<Message> for Value {
    fn from(v: Message) -> Self {
        Value::Msg(Box::new(v))
    }
}

/// Helper used by codecs: packs an [`Address`] into the paper's 8-byte encoded form.
pub(crate) fn encode_address(addr: &Address) -> u64 {
    match addr {
        Address::Process(p) => {
            // Tag bit 0 (MSB clear), then site (16) | local (24) | incarnation (23).
            ((p.site.0 as u64) << 47)
                | (((p.local as u64) & 0xFF_FFFF) << 23)
                | ((p.incarnation as u64) & 0x7F_FFFF)
        }
        Address::Group(g) => (1u64 << 63) | (g.0 & 0x7FFF_FFFF_FFFF_FFFF),
    }
}

/// Unpacks an [`Address`] from its 8-byte encoded form.
pub(crate) fn decode_address(raw: u64) -> Address {
    if raw >> 63 == 1 {
        Address::Group(GroupId(raw & 0x7FFF_FFFF_FFFF_FFFF))
    } else {
        Address::Process(ProcessId {
            site: SiteId(((raw >> 47) & 0xFFFF) as u16),
            local: ((raw >> 23) & 0xFF_FFFF) as u32,
            incarnation: (raw & 0x7F_FFFF) as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(7u64).as_u64(), Some(7));
        assert_eq!(Value::from(-1i64).as_u64(), None);
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::from("hi").as_u64(), None);
    }

    #[test]
    fn address_encoding_roundtrip() {
        let cases = [
            Address::Process(ProcessId::new(SiteId(0), 0)),
            Address::Process(ProcessId::new(SiteId(65535), 12345)),
            Address::Process(ProcessId {
                site: SiteId(7),
                local: 3,
                incarnation: 42,
            }),
            Address::Group(GroupId(0)),
            Address::Group(GroupId(0x7FFF_FFFF_FFFF_FFFF)),
        ];
        for addr in cases {
            assert_eq!(decode_address(encode_address(&addr)), addr, "{addr:?}");
        }
    }
}
