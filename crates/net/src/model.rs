//! The latency / fragmentation model of the simulated LAN, and the sending side of every
//! channel: the one place a packet's delivery instant is settled, on both backends.
//!
//! Given a packet, the model decides *when* it arrives at its destination and how much
//! traffic it generated.  The constants come from [`NetParams`]; the `Paper1987` profile uses
//! the figures the paper reports (10 ms intra-site hop, 16 ms per inter-site packet, 4 KiB
//! fragments, 10 Mbit/s shared medium).
//!
//! [`Channels`] then applies the link's [`FaultPlan`] — delay, jitter, loss charged as
//! retransmission timeouts, deliberate reordering — and keeps delivery between a given pair
//! of processes FIFO, like the TCP-style channels ISIS used between sites.  The simulator's
//! model owns one; each node of the threaded backend owns its own.

use vsync_util::{DetRng, Duration, FastHashMap, FaultPlan, NetParams, ProcessId, SimTime};

use crate::packet::Packet;
use crate::stats::SharedStats;

/// The sending side of a set of channels: the fault plan, the seeded RNG its decisions draw
/// from, and the last delivery instant promised on each (src, dst) channel.
pub struct Channels {
    plan: FaultPlan,
    rng: DetRng,
    /// Latest promised delivery instant per (src, dst) channel; keyed with the toolkit's id
    /// hasher and touched once per packet.
    front: FastHashMap<(ProcessId, ProcessId), SimTime>,
}

impl Channels {
    /// Channels under `plan`, whose decisions draw from an RNG seeded with `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Channels {
            plan,
            rng: DetRng::new(seed),
            front: FastHashMap::default(),
        }
    }

    /// Settles when a packet from `src` to `dst` that would arrive at `earliest` is
    /// delivered.  An inter-site packet pays the plan's delay first.  Then the channel stays
    /// FIFO: nothing is delivered *before* a packet sent earlier on it.  Equal instants are
    /// allowed, because both backends break ties in send order.  A reordered packet skips the
    /// clamp and leaves it untouched, so packets sent after it keep their earlier instants
    /// and overtake it.
    pub fn deliver_at(&mut self, src: ProcessId, dst: ProcessId, earliest: SimTime) -> SimTime {
        let (extra, reordered) = if src.site == dst.site {
            (Duration::ZERO, false)
        } else {
            self.decide()
        };
        let at = earliest + extra;
        if reordered {
            return at;
        }
        let front = self.front.entry((src, dst)).or_insert(at);
        *front = (*front).max(at);
        *front
    }

    /// The plan's decision for one packet: its extra delay, and whether it is reordered.
    /// A plan with no faults draws nothing from the RNG.
    fn decide(&mut self) -> (Duration, bool) {
        let plan = &self.plan;
        let mut extra = plan.delay;
        if plan.jitter > Duration::ZERO {
            extra += Duration::from_micros(self.rng.next_below(plan.jitter.as_micros()));
        }
        if plan.drop_probability > 0.0 {
            // Each lost attempt costs one retransmission timeout, capped so a pathological
            // probability cannot stall forever.
            let mut attempts = 0u64;
            while self.rng.chance(plan.drop_probability) && attempts < 16 {
                attempts += 1;
            }
            extra += FaultPlan::RETRANSMIT_TIMEOUT.saturating_mul(attempts);
        }
        let reordered = plan.reorder_probability > 0.0 && self.rng.chance(plan.reorder_probability);
        if reordered {
            extra += plan.reorder_extra;
        }
        (extra, reordered)
    }
}

/// The simulated LAN.
pub struct NetworkModel {
    params: NetParams,
    stats: SharedStats,
    /// The LAN's channels, under the profile's fault plan.
    channels: Channels,
}

impl NetworkModel {
    /// Creates a network model with the given parameters, statistics sink and RNG seed (the
    /// seed feeds the fault plan's decisions, so it matters only when the plan injects any).
    pub fn new(params: NetParams, stats: SharedStats, seed: u64) -> Self {
        NetworkModel {
            params,
            stats,
            channels: Channels::new(params.faults, seed),
        }
    }

    /// Plans the delivery of `packet` sent at time `now`: returns when the complete message
    /// arrives at the destination process.  Statistics are updated as a side effect.
    pub fn plan_delivery(&mut self, now: SimTime, packet: &Packet) -> SimTime {
        let size = packet.wire_size();
        let inter_site = !packet.is_intra_site();
        let (fragments, base_delay) = if inter_site {
            (
                self.params.fragments_for(size) as u64,
                self.params.inter_site_delay,
            )
        } else {
            (1, self.params.intra_site_delay)
        };
        // Serialization: every fragment must be clocked onto the medium.
        let serialization = self.params.serialization_delay(size);
        // Per-packet CPU charge at the sending and receiving protocol stacks.
        let cpu = self.params.cpu_per_packet.saturating_mul(fragments);

        self.stats.with(|s| {
            s.count_packet(packet.kind, inter_site, fragments, size as u64);
        });
        self.channels.deliver_at(
            packet.src,
            packet.dst,
            now + base_delay + serialization + cpu,
        )
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
        assert!(local < remote);
        // Paper constants: 10 ms local hop vs 16 ms remote packet.
        assert!(local.as_millis_f64() >= 10.0);
        assert!(remote.as_millis_f64() >= 16.0);
    }

    #[test]
    fn large_messages_fragment_and_slow_down() {
        let stats = SharedStats::new();
        let mut net = NetworkModel::new(NetParams::paper1987(), stats.clone(), 1);
        let small = net.plan_delivery(SimTime::ZERO, &mk_packet(1_000, false));
        let big = net.plan_delivery(SimTime::ZERO, &mk_packet(10_000, false));
        assert!(big > small, "10 KiB must be slower than 1 KiB");
        let snap = stats.snapshot();
        assert_eq!(
            snap.packets_sent, 4,
            "10 KiB fragments into 3 packets of 4 KiB"
        );
        assert_eq!(snap.fragments_sent, 2);
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
        assert!(second >= first);
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
        assert!(fast < slow);
    }

    #[test]
    fn loss_adds_retransmissions_but_still_delivers() {
        let params = NetParams {
            faults: FaultPlan::none().with_drop(0.5),
            ..NetParams::paper1987()
        };
        let mut clean = NetworkModel::new(NetParams::paper1987(), SharedStats::new(), 42);
        let clean_local = clean.plan_delivery(SimTime::ZERO, &mk_packet(100, true));
        let clean = clean.plan_delivery(SimTime::ZERO, &mk_packet(100, false));
        let mut net = NetworkModel::new(params, SharedStats::new(), 42);
        let mut delayed = 0;
        for i in 0..200 {
            let mut p = mk_packet(100, false);
            // Use distinct channels so FIFO does not conflate the measurements.
            p.src = ProcessId::new(SiteId(0), i as u32 + 10);
            let at = net.plan_delivery(SimTime::ZERO, &p);
            assert!(at >= clean, "always delivered, never early");
            delayed += usize::from(at > clean);
        }
        assert!(
            delayed > 60,
            "with 50% loss many packets pay a retransmission: {delayed}"
        );
        // Loss is an inter-site matter: the local pipe never retransmits.
        let local = net.plan_delivery(SimTime::ZERO, &mk_packet(100, true));
        assert_eq!(local, clean_local);
    }

    fn pids() -> (ProcessId, ProcessId) {
        (ProcessId::new(SiteId(0), 1), ProcessId::new(SiteId(1), 1))
    }

    #[test]
    fn no_faults_means_no_delay_and_no_reorder() {
        let mut channels = Channels::new(FaultPlan::none(), 1);
        for _ in 0..100 {
            assert_eq!(channels.decide(), (Duration::ZERO, false));
        }
        let (a, b) = pids();
        assert_eq!(channels.deliver_at(a, b, SimTime(7)), SimTime(7));
        // The RNG is where a fresh one with the same seed is: a run with no faults reads
        // no randomness, so its seed cannot change it.
        assert_eq!(channels.rng.next_u64(), DetRng::new(1).next_u64());
    }

    #[test]
    fn jitter_stays_within_its_bound() {
        let plan = FaultPlan::none()
            .with_delay(Duration::from_micros(100))
            .with_jitter(Duration::from_micros(50));
        let mut channels = Channels::new(plan, 2);
        for _ in 0..200 {
            let (extra, _) = channels.decide();
            assert!(extra >= Duration::from_micros(100));
            assert!(extra < Duration::from_micros(150));
        }
    }

    #[test]
    fn loss_charges_retransmission_timeouts() {
        let mut channels = Channels::new(FaultPlan::none().with_drop(0.9), 3);
        let delayed = (0..200)
            .filter(|_| channels.decide().0 >= FaultPlan::RETRANSMIT_TIMEOUT)
            .count();
        assert!(delayed > 100, "90% loss must delay most packets: {delayed}");
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan {
            reorder_probability: 0.02,
            reorder_extra: Duration::from_millis(1),
            ..FaultPlan::none()
                .with_jitter(Duration::from_micros(400))
                .with_drop(0.01)
        };
        let run = |seed| {
            let mut channels = Channels::new(plan, seed);
            (0..64).map(|_| channels.decide()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn a_reordered_packet_skips_the_clamp_and_leaves_it_untouched() {
        let plan = FaultPlan {
            reorder_probability: 0.5,
            reorder_extra: Duration::from_millis(10),
            ..FaultPlan::none()
        };
        let mut channels = Channels::new(plan, 5);
        let (a, b) = pids();
        // Packets sent 1 ms apart, each due 1 ms after it is sent unless reordered.
        let sends: Vec<(SimTime, SimTime)> = (0..64u64)
            .map(|i| {
                let sent = SimTime(i * 1_000);
                (
                    sent,
                    channels.deliver_at(a, b, sent + Duration::from_millis(1)),
                )
            })
            .collect();
        let mut front = SimTime::ZERO;
        let mut overtaken = 0;
        for (sent, at) in &sends {
            if *at == *sent + Duration::from_millis(11) {
                // Reordered: held 10 ms more, not clamped, and the clamp did not move.
                overtaken += 1;
                continue;
            }
            assert_eq!(
                *at,
                *sent + Duration::from_millis(1),
                "clamped to a reordered one"
            );
            assert!(*at >= front);
            front = *at;
        }
        assert!((8..56).contains(&overtaken), "{overtaken} of 64 reordered");
    }
}
