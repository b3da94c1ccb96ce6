//! Property tests for the message codec: arbitrary messages survive an encode/decode
//! round-trip, and garbage or truncated bytes never panic the decoder.

use proptest::prelude::*;
use vsync_msg::{codec, Message, Value};
use vsync_util::{Address, GroupId, ProcessId, SiteId};

fn arb_address() -> impl Strategy<Value = Address> {
    prop_oneof![
        (any::<u16>(), 0u32..1_000_000, 0u32..1000).prop_map(|(s, l, inc)| {
            Address::Process(ProcessId {
                site: SiteId(s),
                local: l,
                incarnation: inc,
            })
        }),
        (0u64..0x7FFF_FFFF_FFFF_FFFF).prop_map(|g| Address::Group(GroupId(g))),
    ]
}

fn arb_leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        // NaN does not compare equal to itself, so restrict to finite values.
        (-1e15f64..1e15).prop_map(Value::F64),
        ".{0,64}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(|v| Value::Bytes(v.into())),
        arb_address().prop_map(Value::Addr),
        proptest::collection::vec(arb_address(), 0..8).prop_map(Value::AddrList),
        proptest::collection::vec(any::<u64>(), 0..16).prop_map(Value::U64List),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_leaf_value().prop_recursive(3, 32, 4, |inner| {
        proptest::collection::vec(("[a-z]{1,12}", inner), 0..4).prop_map(|fields| {
            let mut m = Message::new();
            for (name, value) in fields {
                m.set(&name, value);
            }
            Value::Msg(Box::new(m))
        })
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    proptest::collection::vec(("[a-zA-Z_][a-zA-Z0-9_-]{0,15}", arb_value()), 0..12).prop_map(
        |fields| {
            let mut m = Message::new();
            for (name, value) in fields {
                m.set(&name, value);
            }
            m
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_roundtrip(msg in arb_message()) {
        let bytes = codec::encode(&msg);
        let back = codec::decode(&bytes).expect("decode must succeed");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Decoding garbage may fail, but must never panic.
        let _ = codec::decode(&bytes);
    }

    #[test]
    fn decode_never_panics_on_truncated_valid_messages(msg in arb_message(), cut in 0usize..4096) {
        let bytes = codec::encode(&msg);
        let cut = cut.min(bytes.len());
        let _ = codec::decode(&bytes[..cut]);
    }
}
