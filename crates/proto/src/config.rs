//! Protocol-level tunables.

use vsync_util::Duration;

/// Timers and limits used by the group endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtoConfig {
    /// Interval between stability gossip rounds.
    pub stability_interval: Duration,
    /// How long a participant waits for a flush to commit before suspecting the flush
    /// coordinator and (if next in line) taking over.
    pub flush_timeout: Duration,
    /// How long the initiator of an ABCAST waits for priority proposals before re-sending
    /// phase one to destinations that have not answered (loss recovery belt-and-braces).
    pub abcast_retry: Duration,
    /// Whether flush acks carry *proposal-only* entries: ABCAST messages that are stable
    /// (so the stability tracker dropped their wire copies) but still undecided.  Required
    /// for correctness — a stable-but-undecided ABCAST is otherwise silently dropped at a
    /// view change.  The escape hatch exists only so tests can pin the failure mode.
    pub ack_proposal_only: bool,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            stability_interval: Duration::from_millis(200),
            flush_timeout: Duration::from_millis(2_000),
            abcast_retry: Duration::from_millis(1_000),
            ack_proposal_only: true,
        }
    }
}

impl ProtoConfig {
    /// A configuration with short timers suited to the `Modern`/`Instant` latency profiles.
    pub fn fast() -> Self {
        ProtoConfig {
            stability_interval: Duration::from_millis(5),
            flush_timeout: Duration::from_millis(100),
            abcast_retry: Duration::from_millis(50),
            ack_proposal_only: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_config_is_faster_than_default() {
        let d = ProtoConfig::default();
        let f = ProtoConfig::fast();
        assert!(f.stability_interval < d.stability_interval);
        assert!(f.flush_timeout < d.flush_timeout);
    }
}
