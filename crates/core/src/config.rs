//! Per-site stack configuration.

use vsync_util::{Duration, LatencyProfile, NetParams};

/// Timers used by the per-site protocols process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StackConfig {
    /// Period of the stack's maintenance tick (heartbeats, failure detection, stability).
    pub tick_interval: Duration,
    /// Interval between heartbeats sent to every other site.
    pub heartbeat_interval: Duration,
    /// Base failure-detection timeout (the detector adapts it upward under load).
    pub failure_timeout: Duration,
    /// Default deadline for a group RPC issued by a process that is not a group member
    /// (members rely on view changes instead of timeouts).
    pub rpc_timeout: Duration,
    /// How long a restarting site collects log summaries during a total-failure reform
    /// before holding a degraded election over whatever arrived (paper Section 3.8).
    pub reform_timeout: Duration,
}

impl StackConfig {
    /// Derives stack timers from a latency profile: slower networks need slower timers.
    fn for_profile(profile: LatencyProfile) -> Self {
        let params = NetParams::for_profile(profile);
        StackConfig::from_params(&params)
    }

    /// Derives stack timers from explicit network parameters.  The maintenance tick runs at
    /// the heartbeat period (heartbeat sending is separately rate-limited by
    /// `heartbeat_interval`, and every timeout the tick enforces — failure detection, RPC
    /// deadlines, flush watchdogs — is several multiples of it), so an idle site processes
    /// one timer event per period instead of two.
    pub fn from_params(params: &NetParams) -> Self {
        let hb = params.heartbeat_interval;
        StackConfig {
            tick_interval: Duration::from_micros(hb.as_micros().max(1_000)),
            heartbeat_interval: hb,
            failure_timeout: params.failure_timeout,
            rpc_timeout: params.failure_timeout.saturating_mul(4),
            reform_timeout: params.failure_timeout.saturating_mul(4),
        }
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig::for_profile(LatencyProfile::Modern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_timers() {
        let paper = StackConfig::for_profile(LatencyProfile::Paper1987);
        let modern = StackConfig::for_profile(LatencyProfile::Modern);
        assert!(paper.heartbeat_interval > modern.heartbeat_interval);
        assert!(paper.failure_timeout > modern.failure_timeout);
        assert!(paper.tick_interval >= Duration::from_millis(1));
        assert!(paper.rpc_timeout > paper.failure_timeout);
    }
}
