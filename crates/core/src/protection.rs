//! The protection tool (paper Section 3.10).
//!
//! "A protection tool is provided that, if desired, will validate all incoming messages using
//! the sender address.  Messages that arrive from an unknown or untrusted client will be
//! presented to a user-specified routine ...  This works because ISIS ensures that a sender's
//! address cannot be forged.  Group membership changes are similarly validated before a
//! process is allowed to join or to receive a state transfer."
//!
//! Sender addresses cannot be forged here for the same reason as in ISIS: the protocol stack
//! strips every `@`-prefixed field from user-supplied payloads and writes `@sender` itself.

use std::collections::BTreeSet;

use vsync_msg::Message;
use vsync_util::ProcessId;

/// A per-group protection policy: who may join and who may send.
#[derive(Clone, Debug, Default)]
pub struct ProtectionPolicy {
    /// If set, join requests must present exactly this credential string.
    pub join_credential: Option<String>,
    /// If non-empty, only these processes may send messages to the group's members; the
    /// stack drops anything else before it reaches a handler.
    pub trusted_senders: BTreeSet<ProcessId>,
}

impl ProtectionPolicy {
    /// A policy that accepts everything (the default).
    pub fn open() -> Self {
        ProtectionPolicy::default()
    }

    /// A policy requiring a join credential.
    pub fn with_join_credential(mut self, credential: impl Into<String>) -> Self {
        self.join_credential = Some(credential.into());
        self
    }

    /// A policy restricting senders to a fixed set.
    pub fn with_trusted_senders(mut self, senders: impl IntoIterator<Item = ProcessId>) -> Self {
        self.trusted_senders = senders.into_iter().collect();
        self
    }

    /// Validates a join request.
    pub(crate) fn validate_join(&self, credentials: Option<&str>) -> Result<(), String> {
        match &self.join_credential {
            None => Ok(()),
            Some(required) => {
                if credentials == Some(required.as_str()) {
                    Ok(())
                } else {
                    Err("join credential missing or incorrect".to_owned())
                }
            }
        }
    }

    /// Validates an incoming message using its (unforgeable) sender address.
    pub(crate) fn validate_sender(&self, msg: &Message) -> Result<(), String> {
        if self.trusted_senders.is_empty() {
            return Ok(());
        }
        match msg.sender() {
            Some(sender) if self.trusted_senders.contains(&sender) => Ok(()),
            Some(sender) => Err(format!("untrusted sender {sender}")),
            None => Err("message has no sender address".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn p(local: u32) -> ProcessId {
        ProcessId::new(SiteId(0), local)
    }

    #[test]
    fn open_policy_accepts_everything() {
        let policy = ProtectionPolicy::open();
        assert_eq!(policy.validate_join(None), Ok(()));
        assert_eq!(policy.validate_sender(&Message::new()), Ok(()));
    }

    #[test]
    fn join_credentials_are_enforced() {
        let policy = ProtectionPolicy::open().with_join_credential("sesame");
        assert!(policy.validate_join(Some("sesame")).is_ok());
        assert!(policy.validate_join(Some("wrong")).is_err());
        assert!(policy.validate_join(None).is_err());
    }

    #[test]
    fn sender_validation_uses_the_unforgeable_address() {
        let policy = ProtectionPolicy::open().with_trusted_senders([p(1), p(2)]);
        let mut trusted = Message::with_body(1u64);
        trusted.set_sender(p(1));
        assert_eq!(policy.validate_sender(&trusted), Ok(()));

        let mut untrusted = Message::with_body(1u64);
        untrusted.set_sender(p(9));
        assert!(policy.validate_sender(&untrusted).is_err());

        assert!(policy.validate_sender(&Message::with_body(1u64)).is_err());
    }
}
