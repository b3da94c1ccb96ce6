//! Network and protocol statistics.
//!
//! Table 1 of the paper reports, for every toolkit routine, the *number and kind of
//! multicasts* it performs.  Figure 3 breaks an ABCAST down into link traversals and packet
//! costs.  Both are regenerated from the counters collected here: the protocol layer calls
//! [`SharedStats::count_multicast`] every time it initiates a CBCAST/ABCAST/GBCAST (or a reply),
//! and the network model counts packets, fragments and bytes as they flow.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::packet::PacketKind;

/// The broadcast primitive (or primitive-like operation) being counted.
///
/// These correspond to the "Multicasts required" column of Table 1: entries such as
/// "1 async CBCAST", "1 ABCAST", "1 GBCAST", "1 local RPC", "1 CBCAST, 1 reply".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Causal broadcast.
    Cbcast,
    /// Totally ordered atomic broadcast.
    Abcast,
    /// Globally ordered broadcast (view changes, configuration changes).
    Gbcast,
    /// A reply to a group RPC (itself transmitted with CBCAST in ISIS).
    Reply,
    /// A point-to-point call that never leaves the site ("1 local RPC" rows of Table 1).
    LocalRpc,
}

impl ProtocolKind {
    /// Static display name, so it must not go through a `format!` allocation.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Cbcast => "CBCAST",
            ProtocolKind::Abcast => "ABCAST",
            ProtocolKind::Gbcast => "GBCAST",
            ProtocolKind::Reply => "reply",
            ProtocolKind::LocalRpc => "local RPC",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregate counters for one run (or one measured interval).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Multicast invocations by primitive.
    pub multicasts: BTreeMap<ProtocolKind, u64>,
    /// Packets handed to the network, by kind.
    pub packets: BTreeMap<PacketKind, u64>,
    /// Total packets sent (fragments included).
    pub packets_sent: u64,
    /// Packets that crossed a site boundary.
    pub inter_site_packets: u64,
    /// Packets delivered within a site.
    pub intra_site_packets: u64,
    /// Fragments generated by large messages.
    pub fragments_sent: u64,
    /// Bytes handed to the network: each packet's payload wire length plus the simulated
    /// header ([`crate::packet::HEADER_LEN`]), once per packet however many fragments it
    /// took.
    pub bytes_sent: u64,
    /// Messages delivered to application entry points.
    pub deliveries: u64,
    /// Partition episodes in which this member wedged in a minority component.
    pub minority_wedges: u64,
    /// Flush/view-install attempts refused by the primary-partition majority fence.
    pub partition_stalls: u64,
    /// Wedged minority members that discarded their tail and rejoined the primary.
    pub rejoins_after_heal: u64,
    /// Suspicions retracted because the suspect spoke before the flush committed.
    pub suspicions_cleared: u64,
    /// Pending joins that failed over to a different contact site.
    pub join_failovers: u64,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one multicast invocation of the given kind.
    fn count_multicast(&mut self, kind: ProtocolKind) {
        *self.multicasts.entry(kind).or_insert(0) += 1;
    }

    /// Records a packet transmission.
    pub(crate) fn count_packet(
        &mut self,
        kind: PacketKind,
        inter_site: bool,
        fragments: u64,
        bytes: u64,
    ) {
        *self.packets.entry(kind).or_insert(0) += 1;
        self.packets_sent += fragments.max(1);
        self.fragments_sent += fragments.saturating_sub(1);
        if inter_site {
            self.inter_site_packets += fragments.max(1);
        } else {
            self.intra_site_packets += fragments.max(1);
        }
        self.bytes_sent += bytes;
    }

    /// Records a delivery to an application entry point.
    fn count_delivery(&mut self) {
        self.deliveries += 1;
    }

    /// Records one wedge of a minority-partition member.
    pub fn count_minority_wedge(&mut self) {
        self.minority_wedges += 1;
    }

    /// Records one flush attempt refused by the majority fence.
    pub fn count_partition_stall(&mut self) {
        self.partition_stalls += 1;
    }

    /// Records one minority member rejoining the primary partition after a heal.
    pub fn count_rejoin_after_heal(&mut self) {
        self.rejoins_after_heal += 1;
    }

    /// Records one retracted suspicion.
    pub fn count_suspicion_cleared(&mut self) {
        self.suspicions_cleared += 1;
    }

    /// Records one pending-join failover to a different contact site.
    pub fn count_join_failover(&mut self) {
        self.join_failovers += 1;
    }

    /// Returns the number of multicasts of a given kind.
    pub fn multicasts_of(&self, kind: ProtocolKind) -> u64 {
        self.multicasts.get(&kind).copied().unwrap_or(0)
    }

    /// Subtracts a baseline snapshot, yielding the activity between the two snapshots.
    /// Used by the Table 1 harness: snapshot, run one toolkit routine, diff.
    pub fn delta_since(&self, baseline: &NetStats) -> NetStats {
        let mut d = NetStats::new();
        for (k, v) in &self.multicasts {
            let before = baseline.multicasts.get(k).copied().unwrap_or(0);
            if *v > before {
                d.multicasts.insert(*k, v - before);
            }
        }
        for (k, v) in &self.packets {
            let before = baseline.packets.get(k).copied().unwrap_or(0);
            if *v > before {
                d.packets.insert(*k, v - before);
            }
        }
        d.packets_sent = self.packets_sent - baseline.packets_sent;
        d.inter_site_packets = self.inter_site_packets - baseline.inter_site_packets;
        d.intra_site_packets = self.intra_site_packets - baseline.intra_site_packets;
        d.fragments_sent = self.fragments_sent - baseline.fragments_sent;
        d.bytes_sent = self.bytes_sent - baseline.bytes_sent;
        d.deliveries = self.deliveries - baseline.deliveries;
        d.minority_wedges = self.minority_wedges - baseline.minority_wedges;
        d.partition_stalls = self.partition_stalls - baseline.partition_stalls;
        d.rejoins_after_heal = self.rejoins_after_heal - baseline.rejoins_after_heal;
        d.suspicions_cleared = self.suspicions_cleared - baseline.suspicions_cleared;
        d.join_failovers = self.join_failovers - baseline.join_failovers;
        d
    }

    /// Adds another counter set into this one.  The threaded runtime keeps one counter set
    /// per node (so hot-path bumps never cross a lock) and merges them into a cluster-wide
    /// snapshot on demand.
    pub fn merge(&mut self, other: &NetStats) {
        for (k, v) in &other.multicasts {
            *self.multicasts.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.packets {
            *self.packets.entry(*k).or_insert(0) += v;
        }
        self.packets_sent += other.packets_sent;
        self.inter_site_packets += other.inter_site_packets;
        self.intra_site_packets += other.intra_site_packets;
        self.fragments_sent += other.fragments_sent;
        self.bytes_sent += other.bytes_sent;
        self.deliveries += other.deliveries;
        self.minority_wedges += other.minority_wedges;
        self.partition_stalls += other.partition_stalls;
        self.rejoins_after_heal += other.rejoins_after_heal;
        self.suspicions_cleared += other.suspicions_cleared;
        self.join_failovers += other.join_failovers;
    }

    /// Renders the multicast counters in the style of Table 1's "Multicasts required" column,
    /// e.g. `"1 CBCAST, 3 reply"`.
    pub fn multicast_summary(&self) -> String {
        if self.multicasts.is_empty() {
            return "none".to_owned();
        }
        self.multicasts
            .iter()
            .map(|(k, v)| format!("{v} {k}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Statistics shared between the simulator, the network model and the protocol stacks.
///
/// The whole simulation runs on one thread (see ARCHITECTURE.md), and the counters are
/// bumped several times per packet, so they live behind a `RefCell`, not a mutex: an
/// uncontended lock per bump is still an atomic round-trip, and the hot paths pay it
/// hundreds of times per virtual millisecond.  The counter handle is therefore `!Sync`;
/// a threaded runtime would swap this one type for a mutex (or shard per thread).
#[derive(Clone, Default)]
pub struct SharedStats(Rc<RefCell<NetStats>>);

impl SharedStats {
    /// Creates a fresh, zeroed, shared counter set.
    pub fn new() -> Self {
        SharedStats(Rc::new(RefCell::new(NetStats::new())))
    }

    /// Runs `f` with exclusive access to the counters.
    pub fn with<R>(&self, f: impl FnOnce(&mut NetStats) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    /// Returns a copy of the current counters.
    pub fn snapshot(&self) -> NetStats {
        self.0.borrow().clone()
    }

    /// Records one multicast invocation.
    pub fn count_multicast(&self, kind: ProtocolKind) {
        self.0.borrow_mut().count_multicast(kind);
    }

    /// Records a delivery to an application entry point.
    pub fn count_delivery(&self) {
        self.0.borrow_mut().count_delivery();
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        *self.0.borrow_mut() = NetStats::new();
    }
}

impl fmt::Debug for SharedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedStats({:?})", self.0.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_counting_and_summary() {
        let mut s = NetStats::new();
        s.count_multicast(ProtocolKind::Cbcast);
        s.count_multicast(ProtocolKind::Cbcast);
        s.count_multicast(ProtocolKind::Reply);
        assert_eq!(s.multicasts_of(ProtocolKind::Cbcast), 2);
        assert_eq!(s.multicasts_of(ProtocolKind::Abcast), 0);
        assert_eq!(s.multicast_summary(), "2 CBCAST, 1 reply");
        assert_eq!(NetStats::new().multicast_summary(), "none");
    }

    #[test]
    fn packet_counting_distinguishes_locality() {
        let mut s = NetStats::new();
        s.count_packet(PacketKind::Data, true, 3, 9000);
        s.count_packet(PacketKind::Reply, false, 1, 100);
        assert_eq!(s.packets_sent, 4);
        assert_eq!(s.inter_site_packets, 3);
        assert_eq!(s.intra_site_packets, 1);
        assert_eq!(s.fragments_sent, 2);
        assert_eq!(s.bytes_sent, 9100);
    }

    #[test]
    fn delta_isolates_one_operation() {
        let mut s = NetStats::new();
        s.count_multicast(ProtocolKind::Gbcast);
        let baseline = s.clone();
        s.count_multicast(ProtocolKind::Abcast);
        s.count_multicast(ProtocolKind::Gbcast);
        s.count_packet(PacketKind::Data, true, 1, 10);
        let d = s.delta_since(&baseline);
        assert_eq!(d.multicasts_of(ProtocolKind::Abcast), 1);
        assert_eq!(d.multicasts_of(ProtocolKind::Gbcast), 1);
        assert_eq!(d.packets_sent, 1);
    }

    #[test]
    fn shared_stats_are_shared() {
        let shared = SharedStats::new();
        let clone = shared.clone();
        clone.count_multicast(ProtocolKind::Abcast);
        shared.count_delivery();
        let snap = shared.snapshot();
        assert_eq!(snap.multicasts_of(ProtocolKind::Abcast), 1);
        assert_eq!(snap.deliveries, 1);
        shared.reset();
        assert_eq!(shared.snapshot().multicast_summary(), "none");
    }
}
