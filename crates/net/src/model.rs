//! The latency / loss / fragmentation model of the simulated LAN.
//!
//! Given a packet, the model decides *when* it arrives at its destination and how much
//! traffic it generated.  The constants come from [`NetParams`]; the `Paper1987` profile uses
//! the figures the paper reports (10 ms intra-site hop, 16 ms per inter-site packet, 4 KiB
//! fragments, 10 Mbit/s shared medium).
//!
//! Loss is modelled at the packet level on inter-site links and recovered by a simple
//! stop-and-wait retransmission at the transport layer; rather than simulating every ack we
//! charge the delivery time with one retransmission-timeout per lost attempt, which yields
//! the same observable behaviour (reliable delivery, occasional latency spikes, extra
//! packets counted in the statistics).  Delivery between a given pair of processes is FIFO,
//! like the TCP-style channels ISIS used between sites.

use vsync_util::{Duration, FastHashMap, NetParams, ProcessId, SimTime};

use crate::packet::Packet;
use crate::stats::SharedStats;
use vsync_util::DetRng;

/// The outcome of submitting a packet to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryPlan {
    /// When the destination site receives the last fragment.
    pub arrival: SimTime,
    /// Number of physical packets (fragments plus retransmissions) used.
    pub physical_packets: u64,
}

/// The simulated LAN.
pub struct NetworkModel {
    params: NetParams,
    stats: SharedStats,
    rng: DetRng,
    /// Last scheduled arrival per (src, dst) pair, to preserve FIFO channel semantics.
    /// Touched once per planned packet; keyed with the toolkit's id hasher.
    channel_front: FastHashMap<(ProcessId, ProcessId), SimTime>,
}

impl NetworkModel {
    /// Creates a network model with the given parameters, statistics sink and RNG seed.
    pub fn new(params: NetParams, stats: SharedStats, seed: u64) -> Self {
        NetworkModel {
            params,
            stats,
            rng: DetRng::new(seed),
            channel_front: FastHashMap::default(),
        }
    }

    /// Plans the delivery of `packet` submitted at time `now`.
    ///
    /// The returned [`DeliveryPlan`] gives the arrival time of the complete message at the
    /// destination process and the number of physical packets consumed.  Statistics are
    /// updated as a side effect.
    pub fn plan_delivery(&mut self, now: SimTime, packet: &Packet) -> DeliveryPlan {
        let size = packet.wire_size();
        let inter_site = !packet.is_intra_site();
        let fragments = if inter_site {
            self.params.fragments_for(size) as u64
        } else {
            1
        };

        let base_delay = if inter_site {
            self.params.inter_site_delay
        } else {
            self.params.intra_site_delay
        };

        // Serialization: every fragment must be clocked onto the medium.
        let serialization = self.params.serialization_delay(size);
        // Per-packet CPU charge at the sending and receiving protocol stacks.
        let cpu = self.params.cpu_per_packet.saturating_mul(fragments);

        // Loss and retransmission (inter-site only; the intra-site path is a local pipe).
        let mut physical = fragments;
        let mut retransmit_penalty = Duration::ZERO;
        if inter_site && self.params.loss_probability > 0.0 {
            for _ in 0..fragments {
                let mut attempts = 0u64;
                while self.rng.chance(self.params.loss_probability) && attempts < 16 {
                    attempts += 1;
                }
                if attempts > 0 {
                    physical += attempts;
                    retransmit_penalty += self.params.retransmit_timeout.saturating_mul(attempts);
                    self.stats.with(|s| {
                        for _ in 0..attempts {
                            s.count_retransmission();
                        }
                    });
                }
            }
        }

        let mut arrival = now + base_delay + serialization + cpu + retransmit_penalty;

        // FIFO per (src, dst) channel: never deliver *before* a previously submitted packet.
        // Equal arrival instants are allowed — the event queue breaks timestamp ties in
        // submission order, which preserves FIFO.
        let key = (packet.src, packet.dst);
        if let Some(front) = self.channel_front.get(&key) {
            if arrival < *front {
                arrival = *front;
            }
        }
        self.channel_front.insert(key, arrival);

        self.stats.with(|s| {
            s.count_packet(packet.kind, inter_site, fragments, size as u64);
        });

        DeliveryPlan {
            arrival,
            physical_packets: physical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use vsync_msg::Message;
    use vsync_util::SiteId;

    fn mk_packet(size: usize, same_site: bool) -> Packet {
        let src = ProcessId::new(SiteId(0), 0);
        let dst = if same_site {
            ProcessId::new(SiteId(0), 1)
        } else {
            ProcessId::new(SiteId(1), 0)
        };
        Packet::new(
            src,
            dst,
            PacketKind::Data,
            Message::with_body(vec![0u8; size]),
        )
    }

    #[test]
    fn intra_site_is_faster_than_inter_site() {
        let stats = SharedStats::new();
        let mut net = NetworkModel::new(NetParams::paper1987(), stats, 1);
        let local = net.plan_delivery(SimTime::ZERO, &mk_packet(100, true));
        let remote = net.plan_delivery(SimTime::ZERO, &mk_packet(100, false));
        assert!(local.arrival < remote.arrival);
        // Paper constants: 10 ms local hop vs 16 ms remote packet.
        assert!(local.arrival.as_millis_f64() >= 10.0);
        assert!(remote.arrival.as_millis_f64() >= 16.0);
    }

    #[test]
    fn large_messages_fragment_and_slow_down() {
        let stats = SharedStats::new();
        let mut net = NetworkModel::new(NetParams::paper1987(), stats.clone(), 1);
        let small = net.plan_delivery(SimTime::ZERO, &mk_packet(1_000, false));
        let big = net.plan_delivery(SimTime::ZERO, &mk_packet(10_000, false));
        assert!(
            big.arrival > small.arrival,
            "10 KiB must be slower than 1 KiB"
        );
        assert!(
            big.physical_packets >= 3,
            "10 KiB fragments into >= 3 packets of 4 KiB"
        );
        let snap = stats.snapshot();
        assert!(snap.fragments_sent >= 2);
    }

    #[test]
    fn fifo_per_channel_is_preserved() {
        let stats = SharedStats::new();
        let mut net = NetworkModel::new(NetParams::paper1987(), stats, 1);
        // Submit a big (slow) packet first and a small one immediately after on the same
        // channel: the small one must not overtake it (arriving at the same instant is
        // allowed; the event queue then delivers in submission order).
        let first = net.plan_delivery(SimTime::ZERO, &mk_packet(100_000, false));
        let second = net.plan_delivery(SimTime::ZERO, &mk_packet(10, false));
        assert!(second.arrival >= first.arrival);
    }

    #[test]
    fn different_channels_can_overtake() {
        let stats = SharedStats::new();
        let mut net = NetworkModel::new(NetParams::paper1987(), stats, 1);
        let slow = net.plan_delivery(SimTime::ZERO, &mk_packet(100_000, false));
        let other = Packet::new(
            ProcessId::new(SiteId(2), 0),
            ProcessId::new(SiteId(1), 0),
            PacketKind::Data,
            Message::with_body(1u64),
        );
        let fast = net.plan_delivery(SimTime::ZERO, &other);
        assert!(fast.arrival < slow.arrival);
    }

    #[test]
    fn loss_adds_retransmissions_but_still_delivers() {
        let stats = SharedStats::new();
        let mut net = NetworkModel::new(NetParams::paper1987().with_loss(0.5), stats.clone(), 42);
        let mut extra = 0;
        for i in 0..200 {
            let mut p = mk_packet(100, false);
            // Use distinct channels so FIFO does not conflate the measurements.
            p.src = ProcessId::new(SiteId(0), i as u32 + 10);
            let plan = net.plan_delivery(SimTime::ZERO, &p);
            extra += plan.physical_packets - 1;
            assert!(plan.arrival > SimTime::ZERO, "always delivered eventually");
        }
        assert!(
            extra > 20,
            "with 50% loss many retransmissions must happen, got {extra}"
        );
        assert!(stats.snapshot().retransmissions > 20);
    }
}
