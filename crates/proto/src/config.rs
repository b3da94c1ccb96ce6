//! Protocol-level tunables.

use vsync_util::Duration;

/// The timers of the group endpoints.  Nothing here switches protocol behaviour: both
/// fields only say how often, or how long, an endpoint waits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtoConfig {
    /// Interval between stability gossip rounds.
    pub stability_interval: Duration,
    /// How long a participant waits for a flush to commit before suspecting the flush
    /// coordinator and (if next in line) taking over.
    pub flush_timeout: Duration,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            stability_interval: Duration::from_millis(200),
            flush_timeout: Duration::from_millis(2_000),
        }
    }
}

impl ProtoConfig {
    /// A configuration with short timers suited to the `Modern`/`Instant` latency profiles.
    pub fn fast() -> Self {
        ProtoConfig {
            stability_interval: Duration::from_millis(5),
            flush_timeout: Duration::from_millis(100),
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
