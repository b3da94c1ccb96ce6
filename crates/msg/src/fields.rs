//! Well-known system field names.
//!
//! System fields carry toolkit metadata inside the same symbol table that holds application
//! data (paper Section 4.1).  Their names start with `'@'`, a character application field
//! names may not use, which is how the toolkit guarantees that "the address of the sender
//! of a message ... cannot be forged": the protocol stack strips and re-writes every `@`
//! field on transmission.

/// Address of the sending process; written by the protocol stack, unforgeable.
pub const SENDER: &str = "@sender";
/// Destination list of the multicast that carried the message.
pub const DESTS: &str = "@dests";
/// Entry point at which the message should be delivered.
pub const ENTRY: &str = "@entry";
/// Session identifier used to match replies with pending calls.
pub const SESSION: &str = "@session";
/// Marks a reply message (value: bool). Null replies also carry [`NULL_REPLY`].
pub const IS_REPLY: &str = "@is-reply";
/// Marks a null reply: the sender declines to produce a real reply (paper Section 3.2).
pub const NULL_REPLY: &str = "@null-reply";
/// The broadcast primitive used to transmit the message ("cbcast", "abcast", "gbcast").
pub const PROTOCOL: &str = "@protocol";
/// Vector timestamp attached by the CBCAST protocol.
pub const VECTOR_TIME: &str = "@vt";
/// Rank of the sender in the view under which the message was sent.
pub const SENDER_RANK: &str = "@sender-rank";
/// View sequence number under which the message was sent.
pub const VIEW_SEQ: &str = "@view-seq";
/// Unique message id assigned by the sender's protocol stack.
pub const MSG_ID: &str = "@msg-id";
/// Group id the message was addressed to (when the destination is a group).
pub const GROUP: &str = "@group";
/// Reply destination(s) for a group RPC (the caller plus optional co-destinations).
pub const REPLY_TO: &str = "@reply-to";
/// Credentials presented on a join request (checked by the protection tool).
pub const CREDENTIALS: &str = "@credentials";
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
            SENDER,
            DESTS,
            ENTRY,
            SESSION,
            IS_REPLY,
            NULL_REPLY,
            PROTOCOL,
            VECTOR_TIME,
        ] {
            assert!(is_system_field(f), "{f} should be a system field");
        }
        assert!(!is_system_field(BODY));
        assert!(!is_system_field("price"));
    }
}
