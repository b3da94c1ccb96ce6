//! Well-known system field names.
//!
//! System fields carry toolkit metadata inside the same symbol table that holds application
//! data (paper Section 4.1).  Their names start with `'@'`, a character application field
//! names may not use, which is how the toolkit guarantees that "the address of the sender
//! of a message ... cannot be forged": the protocol stack strips and re-writes every `@`
//! field on transmission.
//!
//! The stack stamps only what a receiver reads: the sender, the entry point, the session
//! and, for a call that collects replies, where they go, plus the group a multicast was
//! addressed to.  Everything else a multicast's receivers need to know — its id, its view,
//! its timestamp, the primitive that carries it — lives in the protocol frame around the
//! message (`vsync_proto::ProtoMsg`), once.

/// Address of the sending process; written by the protocol stack, unforgeable.
pub const SENDER: &str = "@sender";
/// Entry point at which the message should be delivered.
pub const ENTRY: &str = "@entry";
/// Session identifier used to match replies with pending calls.
pub const SESSION: &str = "@session";
/// Marks a reply message (value: bool). Null replies also carry [`NULL_REPLY`].
pub const IS_REPLY: &str = "@is-reply";
/// Marks a null reply: the sender declines to produce a real reply (paper Section 3.2).
pub const NULL_REPLY: &str = "@null-reply";
/// The broadcast primitive's name ("CBCAST", "ABCAST", "GBCAST").  Nothing in the stack
/// stamps or reads it; it is kept for one caller alone, the benchmark's per-layer harness,
/// which still builds its application messages with it.
pub const PROTOCOL: &str = "@protocol";
/// Group id the message was addressed to (when the destination is a group).
pub const GROUP: &str = "@group";
/// Reply destination(s) for a group RPC (the caller plus optional co-destinations).
pub const REPLY_TO: &str = "@reply-to";
/// Application payload field conventionally used by simple tools and examples.
pub const BODY: &str = "body";

/// Returns true if `name` is reserved for system use.
pub(crate) fn is_system_field(name: &str) -> bool {
    name.starts_with('@')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_fields_are_flagged() {
        for f in [
            SENDER, ENTRY, SESSION, IS_REPLY, NULL_REPLY, PROTOCOL, GROUP, REPLY_TO,
        ] {
            assert!(is_system_field(f), "{f} should be a system field");
        }
        assert!(!is_system_field(BODY));
        assert!(!is_system_field("price"));
    }
}
