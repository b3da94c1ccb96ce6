//! The field-structured message type.
//!
//! # Sharing contract
//!
//! A [`Message`] is a *handle* to a field table, not the table itself.  [`Clone`] bumps a
//! reference count; it never copies a field.  The payload a sender stamps, the copy in the
//! frame's typed memo, the CBCAST/ABCAST holdback entries, every `Delivery` and — where
//! several sites live in one process — every receiving site therefore alias **one** table
//! per multicast per process.
//!
//! Sharing is invisible: a mutation through one handle is never seen through another.  A
//! mutating method first makes the handle's table private — in place when no other handle
//! aliases it, by copying the table (one level: nested messages and byte strings inside it
//! stay shared) when one does — and a mutation that would change nothing (`remove` of an
//! absent field, `strip_system_fields` on a message with none) copies nothing.  Handles
//! compare by content, whatever they share.
//!
//! Code that *builds* a table field by field (the codec's decoder, the stack's system-field
//! stamping) builds a private `Vec<Field>` and shares it once, through
//! [`Message::replace_system_fields`] or the crate-private `Message::from_table`, instead
//! of paying a uniqueness check per field.
//!
//! The table is behind an [`Arc`], so a handle is `Send`: it can be moved to, cloned on and
//! dropped by another thread while this one keeps reading.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vsync_util::{Address, EntryId, GroupId, ProcessId};

use crate::fields;
use crate::name::FieldName;
use crate::value::Value;

/// One named, typed field of a message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Field {
    /// Field name.  Names beginning with `'@'` are reserved for the toolkit.  Short names
    /// (the overwhelmingly common case) are stored inline without heap allocation.
    pub name: FieldName,
    /// Field value.
    pub value: Value,
}

/// A message: an ordered symbol table of named, typed fields.
///
/// Fields can be inserted and deleted at will; setting an existing name replaces its value.
/// System fields (names starting with `'@'`) carry toolkit metadata such as the sender
/// address and the session id; they are managed by the protocol stack and are stripped from
/// user-supplied messages before transmission so they cannot be forged.
///
/// Cloning is O(1) and mutation is copy-on-write; see the [module docs](self) for the
/// sharing contract.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Message {
    /// The shared field table; `None` is the empty message (so [`Message::new`] is `const`
    /// and allocates nothing).
    fields: Option<Arc<Vec<Field>>>,
}

impl Message {
    /// Creates an empty message.
    pub const fn new() -> Self {
        Message { fields: None }
    }

    /// Creates an empty message whose field table is pre-sized for `fields` inserts, turning
    /// the O(log n) growth reallocations of repeated `set` calls into one allocation.
    pub fn with_field_capacity(fields: usize) -> Self {
        Message::from_table(Vec::with_capacity(fields))
    }

    /// Shares a privately built table.  A table without capacity is the empty message.
    pub(crate) fn from_table(table: Vec<Field>) -> Self {
        Message {
            fields: (table.capacity() > 0).then(|| Arc::new(table)),
        }
    }

    /// Creates a message with a single `body` field, a common pattern in examples and tests.
    pub fn with_body(value: impl Into<Value>) -> Self {
        let mut m = Message::new();
        m.set(fields::BODY, value);
        m
    }

    /// The field table, read-only.
    fn table(&self) -> &[Field] {
        self.fields.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The field table, private to this handle from here on: copied first if another handle
    /// aliases it.
    fn table_mut(&mut self) -> &mut Vec<Field> {
        Arc::make_mut(self.fields.get_or_insert_with(Default::default))
    }

    /// Number of fields currently in the message.
    pub fn field_count(&self) -> usize {
        self.table().len()
    }

    /// Returns true if the message has no fields.
    pub fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    /// Iterates over all fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Field> {
        self.table().iter()
    }

    /// Sets (inserting or replacing) a field.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) -> &mut Self {
        let value = value.into();
        let table = self.table_mut();
        if let Some(f) = table.iter_mut().find(|f| f.name == name) {
            f.value = value;
        } else {
            table.push(Field {
                name: FieldName::from(name),
                value,
            });
        }
        self
    }

    /// Builder-style `set`.
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Removes a field, returning its value if it was present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.table().iter().position(|f| f.name == name)?;
        Some(self.table_mut().remove(idx).value)
    }

    /// Returns a reference to a field's value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.table()
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.value)
    }

    /// Returns true if the field exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Typed accessor: u64.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(Value::as_u64)
    }

    /// Typed accessor: bool.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(Value::as_bool)
    }

    /// Typed accessor: string slice.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Typed accessor: byte slice.
    pub fn get_bytes(&self, name: &str) -> Option<&[u8]> {
        self.get(name).and_then(Value::as_bytes)
    }

    /// Typed accessor: address.
    pub fn get_addr(&self, name: &str) -> Option<Address> {
        self.get(name).and_then(Value::as_addr)
    }

    /// Typed accessor: address list.
    pub fn get_addr_list(&self, name: &str) -> Option<&[Address]> {
        self.get(name).and_then(Value::as_addr_list)
    }

    /// Typed accessor: u64 list.
    pub fn get_u64_list(&self, name: &str) -> Option<&[u64]> {
        self.get(name).and_then(Value::as_u64_list)
    }

    /// Typed accessor: nested message.
    pub fn get_msg(&self, name: &str) -> Option<&Message> {
        self.get(name).and_then(Value::as_msg)
    }

    // --- System field helpers -------------------------------------------------------------

    /// Removes every system (`@`-prefixed) field.  The protocol stack calls this on
    /// user-supplied messages before adding its own metadata, which is what makes the sender
    /// address unforgeable.
    pub fn strip_system_fields(&mut self) {
        if self.iter().any(|f| fields::is_system_field(&f.name)) {
            self.replace_system_fields([]);
        }
    }

    /// Removes every system field and appends `stamped` — system fields, each name at most
    /// once — in one pass: what the stack does to every message it sends.  The table is made
    /// private once instead of once per field (a shared one is copied without the fields
    /// that go), and the new fields are not searched for among the ones just removed.
    ///
    /// A table this handle owns alone is stamped in place if it has room for `stamped`.
    /// If it has none, its user fields move into a table allocated here instead of growing
    /// the caller's allocation: the fields of a message built on one thread and stamped on
    /// another then live, and are freed, on the stamping thread (see ARCHITECTURE.md,
    /// "Allocations per CBCAST").
    pub fn replace_system_fields<'a>(
        &mut self,
        stamped: impl IntoIterator<Item = (&'a str, Value)>,
    ) {
        let stamped = stamped.into_iter().map(|(name, value)| {
            debug_assert!(fields::is_system_field(name), "{name:?} is a user field");
            Field {
                name: FieldName::from(name),
                value,
            }
        });
        let room = match stamped.size_hint() {
            (_, Some(most)) => most,
            (least, None) => least,
        };
        let is_user = |f: &Field| !fields::is_system_field(&f.name);
        if let Some(own) = self.fields.as_mut().and_then(Arc::get_mut) {
            own.retain(is_user);
            if own.capacity() - own.len() < room {
                let mut table = Vec::with_capacity(own.len() + room);
                table.append(own);
                *own = table;
            }
            own.extend(stamped);
            return;
        }
        let mut table = Vec::with_capacity(self.field_count() + room);
        table.extend(self.iter().filter(|f| is_user(f)).cloned());
        table.extend(stamped);
        *self = Message::from_table(table);
    }

    /// Sets the (unforgeable) sender address.
    pub fn set_sender(&mut self, sender: ProcessId) {
        self.set(fields::SENDER, sender);
    }

    /// Returns the sender address, if the message has been through the protocol stack.
    pub fn sender(&self) -> Option<ProcessId> {
        self.get_addr(fields::SENDER).and_then(|a| a.as_process())
    }

    /// Sets the destination entry point.
    pub fn set_entry(&mut self, entry: EntryId) {
        self.set(fields::ENTRY, entry.0 as u64);
    }

    /// Returns the destination entry point.
    pub fn entry(&self) -> Option<EntryId> {
        self.get_u64(fields::ENTRY).map(|e| EntryId(e as u8))
    }

    /// Sets the session id used to match replies with pending calls.
    pub fn set_session(&mut self, session: u64) {
        self.set(fields::SESSION, session);
    }

    /// Returns the session id.
    pub fn session(&self) -> Option<u64> {
        self.get_u64(fields::SESSION)
    }

    /// Sets the group the message was addressed to.
    pub fn set_group(&mut self, group: GroupId) {
        self.set(fields::GROUP, group);
    }

    /// Returns the group the message was addressed to.
    pub fn group(&self) -> Option<GroupId> {
        self.get_addr(fields::GROUP).and_then(|a| a.as_group())
    }

    /// Marks the message as a reply (optionally a null reply).
    pub fn mark_reply(&mut self, null: bool) {
        self.set(fields::IS_REPLY, true);
        if null {
            self.set(fields::NULL_REPLY, true);
        }
    }

    /// Returns true if this is a reply message.
    pub fn is_reply(&self) -> bool {
        self.get_bool(fields::IS_REPLY).unwrap_or(false)
    }

    /// Returns true if this is a null reply.
    pub fn is_null_reply(&self) -> bool {
        self.get_bool(fields::NULL_REPLY).unwrap_or(false)
    }
}

/// Messages are equal when their tables hold the same fields in the same order, however
/// many handles share either table.
impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        self.table() == other.table()
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Message");
        for field in self.table() {
            s.field(&field.name, &field.value);
        }
        s.finish()
    }
}

impl FromIterator<(String, Value)> for Message {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut m = Message::new();
        for (name, value) in iter {
            m.set(&name, value);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    #[test]
    fn set_get_remove() {
        let mut m = Message::new();
        m.set("price", 9000u64);
        m.set("color", "red");
        assert_eq!(m.field_count(), 2);
        assert_eq!(m.get_u64("price"), Some(9000));
        assert_eq!(m.get_str("color"), Some("red"));
        m.set("price", 500u64);
        assert_eq!(m.field_count(), 2, "set replaces, not duplicates");
        assert_eq!(m.get_u64("price"), Some(500));
        assert_eq!(m.remove("price"), Some(Value::U64(500)));
        assert!(!m.contains("price"));
        assert_eq!(m.remove("price"), None);
    }

    #[test]
    fn builder_style() {
        let m = Message::new().with("a", 1u64).with("b", "two");
        assert_eq!(m.get_u64("a"), Some(1));
        assert_eq!(m.get_str("b"), Some("two"));
        let m2 = Message::with_body("hello");
        assert_eq!(m2.get_str(fields::BODY), Some("hello"));
    }

    #[test]
    fn system_field_helpers() {
        let mut m = Message::with_body(1u64);
        let sender = ProcessId::new(SiteId(1), 2);
        m.set_sender(sender);
        m.set_entry(EntryId(7));
        m.set_session(99);
        m.set_group(GroupId(5));
        m.mark_reply(true);
        assert_eq!(m.sender(), Some(sender));
        assert_eq!(m.entry(), Some(EntryId(7)));
        assert_eq!(m.session(), Some(99));
        assert_eq!(m.group(), Some(GroupId(5)));
        assert!(m.is_reply());
        assert!(m.is_null_reply());

        m.strip_system_fields();
        assert!(m.sender().is_none());
        assert!(m.entry().is_none());
        assert!(!m.is_reply());
        assert_eq!(
            m.get_u64(fields::BODY),
            Some(1),
            "user fields survive stripping"
        );
    }

    #[test]
    fn stamping_fills_an_owned_table_in_place_or_moves_it_into_a_fresh_one() {
        let stamp = || {
            [
                (fields::SENDER, Value::from(ProcessId::new(SiteId(1), 2))),
                (fields::ENTRY, Value::from(7u64)),
                (fields::SESSION, Value::from(9u64)),
                (
                    fields::REPLY_TO,
                    Value::from(vec![Address::Group(GroupId(3))]),
                ),
            ]
        };
        // Room for the stamp: the table stays where it is.
        let mut roomy = Message::with_field_capacity(8);
        roomy.set("body", 1u64);
        roomy.set(fields::GROUP, GroupId(3));
        let table = |m: &Message| m.table().as_ptr();
        let before = table(&roomy);
        roomy.replace_system_fields(stamp());
        assert_eq!(table(&roomy), before, "stamped in place");
        // No room: the user fields move to a table made here, the stamp after them.
        let mut full = Message::with_field_capacity(2);
        full.set("body", 1u64);
        full.set("n", 2u64);
        full.replace_system_fields(stamp());
        let names: Vec<&str> = full.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            ["body", "n", "@sender", "@entry", "@session", "@reply-to"]
        );
        assert_eq!(roomy.get_u64("body"), full.get_u64("body"));
        assert_eq!(roomy.group(), None, "the old system fields went");
    }

    #[test]
    fn nested_messages() {
        let inner = Message::with_body("inner");
        let mut outer = Message::new();
        outer.set("wrapped", inner.clone());
        assert_eq!(outer.get_msg("wrapped"), Some(&inner));
    }
}
