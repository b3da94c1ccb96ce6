//! Small-string-optimized field names.
//!
//! Field names in the toolkit are short — system fields (`@sender`, `@vt`, ...) and
//! application fields (`body`, `price`, `xfer-last`) are all well under 22 bytes — yet the
//! original representation heap-allocated a `String` per field on every decode and every
//! `Message::set`.  On the measured hot paths (codec decode, handler message building) those
//! allocations were the single largest cost.  [`FieldName`] stores names up to
//! [`FieldName::INLINE_CAP`] (30) bytes inline and only falls back to a heap `String`
//! beyond that, so the common case allocates nothing.
//!
//! The type dereferences to `str`, compares like a string, and keeps the no-unsafe policy of
//! the workspace: the inline buffer is re-validated as UTF-8 on access, which is a few
//! nanoseconds for these lengths and still far cheaper than an allocation.

use std::fmt;
use std::ops::Deref;

use serde::{Deserialize, Serialize};

/// A field name: inline up to 30 bytes, heap-allocated beyond.
#[derive(Clone, Serialize, Deserialize)]
pub struct FieldName(Repr);

// Derived so the `FieldName` derives keep compiling against real serde (the shim's derives
// are no-ops); the real wire format is `codec`, which never sees this repr.
#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    Inline {
        len: u8,
        buf: [u8; FieldName::INLINE_CAP],
    },
    Heap(String),
}

impl FieldName {
    /// Maximum name length stored without allocating.  The enum rounds up to 32 bytes on
    /// 64-bit targets either way (a `String` variant plus a tag, aligned to 8), so the
    /// inline buffer uses all of it: 1 length byte + 30 payload bytes + 1 discriminant.
    pub const INLINE_CAP: usize = 30;

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => std::str::from_utf8(&buf[..*len as usize])
                .expect("inline field names are constructed from valid UTF-8"),
            Repr::Heap(s) => s,
        }
    }

    /// The name's bytes.  Unlike going through `Deref<str>`, this skips the inline-buffer
    /// UTF-8 revalidation, which matters to the codec's encode loop and name comparisons.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Byte length of the name (validation-free; shadows `str::len` via `Deref`).
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(s) => s.len(),
        }
    }

    /// Converts to an owned `String` (allocating only if inline).
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        self.as_str().to_owned()
    }
}

impl From<&str> for FieldName {
    fn from(s: &str) -> Self {
        if s.len() <= FieldName::INLINE_CAP {
            let mut buf = [0u8; FieldName::INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            FieldName(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            FieldName(Repr::Heap(s.to_owned()))
        }
    }
}

impl From<String> for FieldName {
    fn from(s: String) -> Self {
        if s.len() <= FieldName::INLINE_CAP {
            FieldName::from(s.as_str())
        } else {
            FieldName(Repr::Heap(s))
        }
    }
}

impl Deref for FieldName {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for FieldName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for FieldName {
    fn eq(&self, other: &Self) -> bool {
        // Mixed representations (same text, different storage) still compare equal.
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for FieldName {}

impl PartialEq<str> for FieldName {
    fn eq(&self, other: &str) -> bool {
        // Byte equality coincides with str equality and needs no UTF-8 revalidation.
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for FieldName {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for FieldName {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<FieldName> for str {
    fn eq(&self, other: &FieldName) -> bool {
        self == other.as_str()
    }
}

impl fmt::Debug for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_stay_inline() {
        let n = FieldName::from("@sender");
        assert!(matches!(n.0, Repr::Inline { .. }));
        assert_eq!(n.as_str(), "@sender");
        assert_eq!(n, "@sender");
        assert_eq!(n.len(), 7);
        assert!(n.starts_with('@'));
    }

    #[test]
    fn long_names_go_to_the_heap_and_still_compare() {
        let long = "a".repeat(FieldName::INLINE_CAP + 1);
        let n = FieldName::from(long.as_str());
        assert!(matches!(n.0, Repr::Heap(_)));
        assert_eq!(n, long.as_str());
        assert_eq!(n.to_string(), long);
    }

    #[test]
    fn boundary_length_is_inline() {
        let exact = "b".repeat(FieldName::INLINE_CAP);
        let n = FieldName::from(exact.as_str());
        assert!(matches!(n.0, Repr::Inline { .. }));
        assert_eq!(n.as_str(), exact);
    }

    #[test]
    fn equality_crosses_representations() {
        // Force a heap representation of an inline-sized name via From<String> on a string
        // built at the boundary... From<String> inlines when it fits, so build Heap directly.
        let heap = FieldName(Repr::Heap("body".to_owned()));
        let inline = FieldName::from("body");
        assert_eq!(heap, inline);
        assert_eq!(inline, heap);
    }

    #[test]
    fn utf8_multibyte_names_roundtrip() {
        let n = FieldName::from("prix-\u{20AC}");
        assert_eq!(n.as_str(), "prix-€");
        assert_eq!(FieldName::from("日本語の名前").as_str(), "日本語の名前");
    }

    #[test]
    fn type_stays_within_one_tagged_string_slot() {
        // String (24) + tag, rounded to String's alignment: 32 bytes on 64-bit targets.
        assert!(std::mem::size_of::<FieldName>() <= std::mem::size_of::<String>() + 8);
    }
}
