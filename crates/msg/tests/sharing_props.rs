//! Sharing is invisible: a family of [`Message`] handles that alias one another's tables in
//! every way the API allows behaves, handle by handle and step by step, like a family of
//! deep copies.
//!
//! The reference model is a plain owned tree per handle — no `Message` inside it, so nothing
//! in the model can share anything — and after **every** step every handle is compared with
//! its model: field by field, and through equality, `Debug`, `wire_len` and the codec
//! against a message rebuilt from the model with fresh, unshared tables.  Sequences are
//! generated from fixed seeds, so a failure names the seed and step that reproduce it; the
//! test does not rely on shrinking.

use vsync_msg::{codec, fields, Message, Value};
use vsync_util::{Address, DetRng, EntryId, GroupId, ProcessId, SiteId};

/// A value that owns everything below it.
#[derive(Clone, Debug, PartialEq)]
enum ModelValue {
    Leaf(Value),
    Msg(Model),
}

/// What one handle must read as: its fields, in order.
type Model = Vec<(String, ModelValue)>;

fn model_set(model: &mut Model, name: &str, value: ModelValue) {
    match model.iter_mut().find(|(n, _)| n == name) {
        Some((_, v)) => *v = value,
        None => model.push((name.to_owned(), value)),
    }
}

fn model_strip(model: &mut Model) {
    model.retain(|(n, _)| !n.starts_with('@'));
}

/// The message `model` describes, built from nothing: no table in it is shared with any
/// handle under test.
fn rebuild(model: &Model) -> Message {
    let mut m = Message::new();
    for (name, value) in model {
        match value {
            ModelValue::Leaf(v) => m.set(name, v.clone()),
            ModelValue::Msg(inner) => m.set(name, rebuild(inner)),
        };
    }
    m
}

fn assert_reads_as(handle: &Message, model: &Model, ctx: &str) {
    assert_eq!(handle.field_count(), model.len(), "{ctx}: field count");
    assert_eq!(handle.is_empty(), model.is_empty(), "{ctx}: is_empty");
    for (field, (name, value)) in handle.iter().zip(model) {
        assert_eq!(field.name.as_str(), name, "{ctx}: field order");
        match (&field.value, value) {
            (Value::Msg(inner), ModelValue::Msg(inner_model)) => {
                assert_reads_as(inner, inner_model, ctx);
            }
            (got, ModelValue::Leaf(want)) => assert_eq!(got, want, "{ctx}: field {name:?}"),
            (got, want) => panic!("{ctx}: field {name:?} is {got:?}, model says {want:?}"),
        }
        assert!(handle.contains(name), "{ctx}: contains({name:?})");
    }
    let fresh = rebuild(model);
    assert_eq!(handle, &fresh, "{ctx}: equality with an unshared twin");
    assert_eq!(
        format!("{handle:?}"),
        format!("{fresh:?}"),
        "{ctx}: Debug rendering"
    );
    assert_eq!(
        codec::wire_len(handle),
        codec::wire_len(&fresh),
        "{ctx}: wire length"
    );
    assert_eq!(
        codec::encode(handle),
        codec::encode(&fresh),
        "{ctx}: wire bytes"
    );
}

/// Names the operations draw from: few enough that sets replace and removes hit, with user
/// and system names, and one too long for the inline representation.
const NAMES: &[&str] = &[
    "a",
    "b",
    "body",
    "price",
    "a-field-name-long-enough-to-live-on-the-heap",
    "@x",
    fields::SENDER,
    fields::SESSION,
    fields::GROUP,
];

fn pick<'a>(rng: &mut DetRng, names: &[&'a str]) -> &'a str {
    names[rng.next_index(names.len())]
}

fn leaf(rng: &mut DetRng) -> Value {
    match rng.next_below(6) {
        0 => Value::Bool(rng.chance(0.5)),
        1 => Value::U64(rng.next_below(1000)),
        2 => Value::Str(format!("s{}", rng.next_below(1000))),
        3 => Value::Bytes(vec![rng.next_below(256) as u8; rng.next_index(40)].into()),
        4 => Value::U64List((0..rng.next_below(5)).collect()),
        _ => Value::Addr(Address::Group(GroupId(rng.next_below(9)))),
    }
}

struct Family {
    handles: Vec<Message>,
    models: Vec<Model>,
}

impl Family {
    fn push(&mut self, handle: Message, model: Model) {
        self.handles.push(handle);
        self.models.push(model);
    }

    fn set(&mut self, i: usize, name: &str, value: Value) {
        self.handles[i].set(name, value.clone());
        model_set(&mut self.models[i], name, ModelValue::Leaf(value));
    }

    /// One random operation on one random handle.
    fn step(&mut self, rng: &mut DetRng) {
        let i = rng.next_index(self.handles.len());
        let name = pick(rng, NAMES);
        match rng.next_below(17) {
            0 | 1 => {
                let (h, m) = (self.handles[i].clone(), self.models[i].clone());
                self.push(h, m);
            }
            2 | 3 => {
                let value = leaf(rng);
                self.set(i, name, value);
            }
            // Nest another handle of the family: the parent now aliases that table too.
            4 => {
                let j = rng.next_index(self.handles.len());
                let (nested, nested_model) = (self.handles[j].clone(), self.models[j].clone());
                self.handles[i].set(name, nested);
                model_set(&mut self.models[i], name, ModelValue::Msg(nested_model));
            }
            // Pull a nested message out as a handle of its own; editing it later must not
            // show in the parent.
            5 => {
                let found = self.models[i].iter().find_map(|(n, v)| match v {
                    ModelValue::Msg(inner) => Some((n.clone(), inner.clone())),
                    ModelValue::Leaf(_) => None,
                });
                if let Some((n, inner_model)) = found {
                    let inner = self.handles[i].get_msg(&n).expect("nested").clone();
                    self.push(inner, inner_model);
                }
            }
            6 => {
                let got = self.handles[i].remove(name);
                let at = self.models[i].iter().position(|(n, _)| n == name);
                assert_eq!(got.is_some(), at.is_some(), "remove({name:?}) found");
                if let Some(at) = at {
                    self.models[i].remove(at);
                }
            }
            7 => {
                self.handles[i].strip_system_fields();
                model_strip(&mut self.models[i]);
            }
            8 => {
                let stamped: Vec<(&str, Value)> = [fields::SENDER, fields::ENTRY, "@x"]
                    .into_iter()
                    .take(rng.next_index(4))
                    .map(|n| (n, leaf(rng)))
                    .collect();
                self.handles[i].replace_system_fields(stamped.clone());
                model_strip(&mut self.models[i]);
                for (n, v) in stamped {
                    self.models[i].push((n.to_owned(), ModelValue::Leaf(v)));
                }
            }
            9 => {
                let sender = ProcessId::new(SiteId(rng.next_below(4) as u16), 1);
                self.handles[i].set_sender(sender);
                model_set(
                    &mut self.models[i],
                    fields::SENDER,
                    ModelValue::Leaf(sender.into()),
                );
                let entry = rng.next_below(200);
                self.handles[i].set_entry(EntryId(entry as u8));
                model_set(
                    &mut self.models[i],
                    fields::ENTRY,
                    ModelValue::Leaf(entry.into()),
                );
            }
            10 => {
                let session = rng.next_below(100);
                self.handles[i].set_session(session);
                model_set(
                    &mut self.models[i],
                    fields::SESSION,
                    ModelValue::Leaf(session.into()),
                );
                let group = GroupId(rng.next_below(5));
                self.handles[i].set_group(group);
                model_set(
                    &mut self.models[i],
                    fields::GROUP,
                    ModelValue::Leaf(group.into()),
                );
            }
            11 => {
                let null = rng.chance(0.5);
                self.handles[i].mark_reply(null);
                model_set(
                    &mut self.models[i],
                    fields::IS_REPLY,
                    ModelValue::Leaf(true.into()),
                );
                if null {
                    model_set(
                        &mut self.models[i],
                        fields::NULL_REPLY,
                        ModelValue::Leaf(true.into()),
                    );
                }
            }
            // `mem::take`: the table moves to a new handle, the old one reads empty.
            12 => {
                let taken = std::mem::take(&mut self.handles[i]);
                let taken_model = std::mem::take(&mut self.models[i]);
                self.push(taken, taken_model);
            }
            // Through the codec and back: a decoded table is built privately, shared once.
            13 => {
                let bytes = codec::encode(&self.handles[i]);
                self.handles[i] = codec::decode_shared(&bytes).expect("own encoding decodes");
            }
            // Dropping a handle may leave another one the sole owner of the table, which
            // then mutates in place.
            14 if self.handles.len() > 1 => {
                self.handles.swap_remove(i);
                self.models.swap_remove(i);
            }
            // Another thread takes the handle, aliases it, edits both and hands them back
            // while this thread goes on holding the table's other aliases.
            15 => {
                let moved = std::mem::take(&mut self.handles[i]);
                let value = leaf(rng);
                let edit = value.clone();
                let (edited, alias) = std::thread::spawn(move || {
                    let mut edited = moved;
                    let mut alias = edited.clone();
                    edited.set(name, edit);
                    alias.remove(name);
                    (edited, alias)
                })
                .join()
                .expect("editing thread");
                let mut alias_model = self.models[i].clone();
                alias_model.retain(|(n, _)| n != name);
                self.handles[i] = edited;
                model_set(&mut self.models[i], name, ModelValue::Leaf(value));
                self.push(alias, alias_model);
            }
            _ => {
                let body = leaf(rng);
                self.push(
                    Message::with_body(body.clone()),
                    vec![(fields::BODY.to_owned(), ModelValue::Leaf(body))],
                );
            }
        }
        // Keep the family small enough to check in full after every step.
        while self.handles.len() > 10 {
            let drop = rng.next_index(self.handles.len());
            self.handles.swap_remove(drop);
            self.models.swap_remove(drop);
        }
    }

    fn check(&self, ctx: &str) {
        for (k, (handle, model)) in self.handles.iter().zip(&self.models).enumerate() {
            assert_reads_as(handle, model, &format!("{ctx}, handle {k}"));
        }
        // Handles compare with one another as their contents do, aliased or not.
        for (a, ma) in self.handles.iter().zip(&self.models) {
            for (b, mb) in self.handles.iter().zip(&self.models) {
                assert_eq!(a == b, ma == mb, "{ctx}: equality between handles");
            }
        }
    }
}

#[test]
fn a_family_of_aliasing_handles_behaves_like_deep_copies() {
    for seed in 0..24u64 {
        let mut rng = DetRng::new(0x5AFE_0000 + seed);
        let mut family = Family {
            handles: vec![Message::new()],
            models: vec![Model::new()],
        };
        for step in 0..300 {
            family.step(&mut rng);
            family.check(&format!("seed {seed}, step {step}"));
        }
    }
}

#[test]
fn mutations_that_change_nothing_copy_nothing() {
    let original = Message::with_body("x").with("n", 1u64);
    let at = |m: &Message| m.get("n").map(|v| v as *const Value);
    let mut alias = original.clone();
    assert_eq!(at(&alias), at(&original), "a clone aliases the table");
    assert_eq!(alias.remove("absent"), None);
    alias.strip_system_fields();
    assert_eq!(at(&alias), at(&original), "still the same table");
    alias.set("n", 2u64);
    assert_ne!(at(&alias), at(&original), "the first real mutation copies");
    assert_eq!(original.get_u64("n"), Some(1));
    // A sole owner mutates in place.
    let before = at(&alias);
    alias.set("n", 3u64);
    assert_eq!(at(&alias), before);
}

#[test]
fn a_message_is_send_and_an_empty_one_allocates_nothing() {
    fn assert_send<T: Send + Sync>() {}
    assert_send::<Message>();
    const EMPTY: Message = Message::new();
    assert!(EMPTY.is_empty());
    assert_eq!(EMPTY, Message::default());
    assert_eq!(EMPTY, Message::with_field_capacity(0));
    assert_eq!(EMPTY, Message::with_field_capacity(8));
}
