//! The inter-process datagram exchanged through the simulated LAN.

use std::fmt;

use serde::{Deserialize, Serialize};
use vsync_msg::{Frame, Message};
use vsync_util::{ProcessId, SiteId};

/// Globally unique identifier of a multicast message.
///
/// Ids are allocated by the protocol endpoint at the *origin site*, so `(origin, seq)` never
/// repeats even when the same logical message is retransmitted, forwarded or re-broadcast
/// during a flush.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId {
    /// Site whose protocol endpoint assigned the id.
    pub origin: SiteId,
    /// Monotonic per-origin sequence number.
    pub seq: u64,
}

impl MsgId {
    /// Creates a message id.
    pub fn new(origin: SiteId, seq: u64) -> Self {
        MsgId { origin, seq }
    }
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}:{}", self.origin.0, self.seq)
    }
}

/// Coarse classification of a packet, used by the statistics layer and by the Figure 3
/// breakdown (which distinguishes protocol phases of an ABCAST).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// First phase of a multicast (the data-bearing transmission).
    Data,
    /// An ABCAST priority proposal returning to the initiator.
    Proposal,
    /// The second-phase ordering decision of an ABCAST.
    SetOrder,
    /// Flush / view-change control traffic (GBCAST).
    Flush,
    /// A point-to-point reply to a group RPC.
    Reply,
    /// Failure-detector heartbeat: an empty message, which a receiver knows by this kind
    /// alone.
    Heartbeat,
    /// Stability gossip (delivery acknowledgement vectors).
    Stability,
    /// Anything else (namespace lookups, tool-internal control traffic, ...).
    Control,
}

/// Bytes the simulator charges a packet on top of its payload's wire length: the header a
/// real datagram would carry.
pub const HEADER_LEN: usize = 32;

/// An addressed message in flight between two processes.
///
/// Packets always name concrete processes; group expansion happens in the protocol layer
/// before packets are handed to the network.  The payload is a shared [`Frame`]: a multicast
/// fan-out builds one frame and every destination packet aliases it, so cloning a packet (or
/// addressing the same message to N destinations) never copies the message, whichever form —
/// wire bytes, field tree or both — the frame holds it in.  Readers of application traffic
/// reach the fields through `Deref` (`pkt.payload.get_str(..)`); a handler that wants to
/// *edit* its copy goes through [`Packet::payload_mut`], which is copy-on-write.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Sending process.
    pub src: ProcessId,
    /// Receiving process.
    pub dst: ProcessId,
    /// Classification for statistics and tracing; for a heartbeat, all there is to read.
    pub kind: PacketKind,
    /// The payload frame (shared across the packets of one fan-out).
    pub payload: Frame,
}

impl Packet {
    /// Creates a packet.  Accepts a bare [`Message`] (wrapped in a fresh frame) or an
    /// existing [`Frame`] to alias.
    pub fn new(
        src: ProcessId,
        dst: ProcessId,
        kind: PacketKind,
        payload: impl Into<Frame>,
    ) -> Self {
        Packet {
            src,
            dst,
            kind,
            payload: payload.into(),
        }
    }

    /// Mutable access to this packet's payload, copy-on-write: if other packets alias the
    /// same frame the message is cloned first, so the edit is invisible to them.
    pub fn payload_mut(&mut self) -> &mut Message {
        self.payload.make_mut()
    }

    /// True if source and destination live on the same site.
    pub(crate) fn is_intra_site(&self) -> bool {
        self.src.site == self.dst.site
    }

    /// Size the simulator charges the packet: its payload's wire length — the bytes the
    /// threaded backend sends for it — plus [`HEADER_LEN`].
    pub(crate) fn wire_size(&self) -> usize {
        self.payload.wire_len() + HEADER_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_ordering_is_by_origin_then_seq() {
        let a = MsgId::new(SiteId(0), 5);
        let b = MsgId::new(SiteId(0), 6);
        let c = MsgId::new(SiteId(1), 0);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(format!("{a:?}"), "m0:5");
    }

    #[test]
    fn packet_site_locality() {
        let s0p = ProcessId::new(SiteId(0), 0);
        let s0q = ProcessId::new(SiteId(0), 1);
        let s1p = ProcessId::new(SiteId(1), 0);
        let local = Packet::new(s0p, s0q, PacketKind::Data, Message::new());
        let remote = Packet::new(s0p, s1p, PacketKind::Data, Message::new());
        assert!(local.is_intra_site());
        assert!(!remote.is_intra_site());
    }

    #[test]
    fn shared_payload_edits_are_copy_on_write() {
        let frame = vsync_msg::Frame::new(Message::with_body("original"));
        let mut a = Packet::new(
            ProcessId::new(SiteId(0), 0),
            ProcessId::new(SiteId(1), 0),
            PacketKind::Data,
            frame.clone(),
        );
        let b = Packet::new(
            ProcessId::new(SiteId(0), 0),
            ProcessId::new(SiteId(2), 0),
            PacketKind::Data,
            frame,
        );
        a.payload_mut().set("body", "edited");
        assert_eq!(a.payload.get_str("body"), Some("edited"));
        assert_eq!(
            b.payload.get_str("body"),
            Some("original"),
            "the aliasing packet must not observe the edit"
        );
    }

    #[test]
    fn wire_size_includes_header() {
        let p = Packet::new(
            ProcessId::new(SiteId(0), 0),
            ProcessId::new(SiteId(1), 0),
            PacketKind::Data,
            Message::with_body(vec![0u8; 1000]),
        );
        assert_eq!(p.wire_size(), p.payload.wire_bytes().len() + HEADER_LEN);
    }
}
