//! Network latency / bandwidth profiles, and the faults an inter-site link injects.
//!
//! The paper's performance figures (Section 7, Figures 2 and 3) were measured on four SUN
//! 3/50 workstations connected by a 10 Mbit Ethernet, with a measured cost of roughly 10 ms
//! to traverse a link within a site and 16 ms to send an inter-site packet, and with
//! inter-site messages fragmented into 4 KiB packets.  [`LatencyProfile::Paper1987`]
//! reproduces exactly that model so the benchmark harness can regenerate the figures'
//! shapes; [`LatencyProfile::Modern`] is a faster profile used by the examples and most
//! tests so they run quickly.
//! A [`FaultPlan`] adds what an inter-site link does on top: delay, jitter, loss, reordering.

use serde::{Deserialize, Serialize};

use crate::time::Duration;

/// Named latency profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatencyProfile {
    /// The SOSP'87 measurement environment: 10 ms intra-site hop, 16 ms inter-site packet,
    /// 4 KiB fragmentation, 10 Mbit/s shared Ethernet.
    Paper1987,
    /// A modern datacenter-like profile: 5 µs intra-site hop, 50 µs inter-site packet,
    /// 64 KiB fragmentation, 10 Gbit/s links.
    Modern,
    /// Zero-latency profile for pure logic tests (delivery still goes through the event
    /// queue, so ordering properties are preserved).
    Instant,
}

/// Concrete network parameters consumed by the simulator and the transport layer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetParams {
    /// One-way delay for a message between two processes on the same site.
    pub intra_site_delay: Duration,
    /// One-way delay for a single packet between two sites.
    pub inter_site_delay: Duration,
    /// Maximum packet payload before a message is fragmented (paper: 4 KiB).
    pub fragment_size: usize,
    /// Link bandwidth in bytes per second (per-packet serialization delay = size/bandwidth).
    pub bandwidth_bytes_per_sec: u64,
    /// What every inter-site link injects on top of the latency model (none in every
    /// profile).
    pub faults: FaultPlan,
    /// Interval between failure-detector heartbeats.
    pub heartbeat_interval: Duration,
    /// Initial failure-detection timeout (the detector adapts it upward under load).
    pub failure_timeout: Duration,
    /// Fixed CPU cost charged for processing one protocol packet at a site.
    pub cpu_per_packet: Duration,
}

impl NetParams {
    /// Returns the parameters for a named profile.
    pub fn for_profile(profile: LatencyProfile) -> Self {
        match profile {
            LatencyProfile::Paper1987 => NetParams {
                intra_site_delay: Duration::from_millis(10),
                inter_site_delay: Duration::from_millis(16),
                fragment_size: 4 * 1024,
                bandwidth_bytes_per_sec: 10_000_000 / 8,
                faults: FaultPlan::none(),
                heartbeat_interval: Duration::from_millis(500),
                failure_timeout: Duration::from_millis(2_000),
                cpu_per_packet: Duration::from_millis(1),
            },
            LatencyProfile::Modern => NetParams {
                intra_site_delay: Duration::from_micros(5),
                inter_site_delay: Duration::from_micros(50),
                fragment_size: 64 * 1024,
                bandwidth_bytes_per_sec: 1_250_000_000,
                faults: FaultPlan::none(),
                heartbeat_interval: Duration::from_millis(10),
                failure_timeout: Duration::from_millis(50),
                cpu_per_packet: Duration::from_micros(1),
            },
            LatencyProfile::Instant => NetParams {
                intra_site_delay: Duration::ZERO,
                inter_site_delay: Duration::ZERO,
                fragment_size: usize::MAX,
                bandwidth_bytes_per_sec: u64::MAX,
                faults: FaultPlan::none(),
                heartbeat_interval: Duration::from_millis(10),
                failure_timeout: Duration::from_millis(50),
                cpu_per_packet: Duration::ZERO,
            },
        }
    }

    /// Builds the 1987 profile.
    pub fn paper1987() -> Self {
        Self::for_profile(LatencyProfile::Paper1987)
    }

    /// Builds the modern profile.
    pub fn modern() -> Self {
        Self::for_profile(LatencyProfile::Modern)
    }

    /// Builds the instant profile.
    pub fn instant() -> Self {
        Self::for_profile(LatencyProfile::Instant)
    }

    /// Number of fragments a message of `len` bytes is split into.
    pub fn fragments_for(&self, len: usize) -> usize {
        if len == 0 || self.fragment_size == usize::MAX {
            1
        } else {
            len.div_ceil(self.fragment_size).max(1)
        }
    }

    /// Serialization delay for a packet of `len` bytes at the configured bandwidth.
    pub fn serialization_delay(&self, len: usize) -> Duration {
        if self.bandwidth_bytes_per_sec == u64::MAX || self.bandwidth_bytes_per_sec == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(len as f64 / self.bandwidth_bytes_per_sec as f64)
        }
    }
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams::modern()
    }
}

/// Delay, jitter, loss and reordering injected on an inter-site link, decided per packet by
/// the sending side from a seeded RNG.
///
/// Loss keeps the channel reliable — the paper's system "tolerates message loss, but not
/// partitioning" — so a lost attempt costs [`FaultPlan::RETRANSMIT_TIMEOUT`] of delay rather
/// than the packet.  Packets that disappear are a partition's business (the runtime's link
/// table), or a crashed site's.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Fixed one-way delay added to every packet.
    pub delay: Duration,
    /// Extra uniformly distributed delay in `[0, jitter)`.
    pub jitter: Duration,
    /// Probability that a packet attempt is lost and recovered by retransmission.
    pub drop_probability: f64,
    /// Probability that a packet is deliberately reordered: it skips the per-channel FIFO
    /// clamp and is held for `reorder_extra` more, so packets sent after it can arrive first.
    pub reorder_probability: f64,
    /// Extra hold applied to reordered packets.
    pub reorder_extra: Duration,
}

impl FaultPlan {
    /// Delay charged per lost attempt.
    pub const RETRANSMIT_TIMEOUT: Duration = Duration::from_millis(5);

    /// No injected faults: packets arrive as fast as the channels carry them, in FIFO order
    /// per (src, dst) channel, and no decision draws from the RNG.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the fixed delay.
    pub fn with_delay(mut self, d: Duration) -> Self {
        self.delay = d;
        self
    }

    /// Sets the jitter bound.
    pub fn with_jitter(mut self, d: Duration) -> Self {
        self.jitter = d;
        self
    }

    /// Sets the loss probability (clamped to `[0, 0.999]`).
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_probability = p.clamp(0.0, 0.999);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_reported_constants() {
        let p = NetParams::paper1987();
        assert_eq!(p.intra_site_delay, Duration::from_millis(10));
        assert_eq!(p.inter_site_delay, Duration::from_millis(16));
        assert_eq!(p.fragment_size, 4096);
    }

    #[test]
    fn fragmentation_counts() {
        let p = NetParams::paper1987();
        assert_eq!(p.fragments_for(0), 1);
        assert_eq!(p.fragments_for(100), 1);
        assert_eq!(p.fragments_for(4096), 1);
        assert_eq!(p.fragments_for(4097), 2);
        assert_eq!(p.fragments_for(10_000), 3);
        let inst = NetParams::instant();
        assert_eq!(inst.fragments_for(1_000_000), 1);
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let p = NetParams::paper1987();
        let d1 = p.serialization_delay(1_250_000); // one second at 10 Mbit/s
        assert!((d1.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(
            NetParams::instant().serialization_delay(1 << 20),
            Duration::ZERO
        );
    }

    #[test]
    fn loss_is_clamped() {
        let p = FaultPlan::none().with_drop(5.0);
        assert!(p.drop_probability < 1.0);
        let p = FaultPlan::none().with_drop(-1.0);
        assert_eq!(p.drop_probability, 0.0);
    }
}
