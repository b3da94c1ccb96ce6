//! Serialized packets for thread-boundary crossings.
//!
//! Inside one node everything is single-threaded and packets alias refcounted
//! [`vsync_msg::Frame`]s (`Rc`-based, deliberately `!Send`).  At the boundary between nodes
//! the threaded backend does what a real network stack does: it ships the frame's wire
//! bytes across the channel and wraps them in a fresh frame on the receiving node.  This
//! keeps every `Rc` strictly thread-local — the compiler, not convention, enforces that no
//! protocol state is shared between nodes — and means the threaded runtime exercises the
//! same codec a socket-backed transport will.
//!
//! Neither direction decodes anything here.  A protocol frame was born as bytes, so sending
//! it clones a refcounted segment list; an application frame is encoded once per frame,
//! however many destinations it has.  On arrival the bytes become a frame as they are
//! ([`Frame::from_wire`]): the receiving stack reads a protocol message straight out of
//! them, and builds a field tree only for application traffic, lazily, with byte-string
//! values aliasing the received segments.  Corrupt bytes are therefore discovered by whoever
//! first reads the frame — the site stack, which traces and drops them — not here.
//!
//! What crosses is the frame's [`Segments`] list, not one buffer: a large byte string an
//! application put in a message (a 64 KiB body) is a segment of its own — the application's
//! buffer, shared, never copied into the frame — between slices of the few hundred bytes the
//! sender wrote around it.  A socket transport would hand the same list to `writev`; here
//! the receiving thread reads the value straight out of the sender's buffer.  An immutable
//! `Bytes` is the only thing two nodes ever share.

use vsync_msg::{Frame, Segments};
use vsync_net::{Packet, PacketKind};
use vsync_util::{ProcessId, Result, SimTime};

/// A packet in wire form, ready to cross a thread (or, later, socket) boundary.
pub struct WirePacket {
    /// Sending process.
    pub src: ProcessId,
    /// Receiving process.
    pub dst: ProcessId,
    /// Classification (carried out-of-band like a real header would).
    pub kind: PacketKind,
    /// Earliest instant the receiving transport may deliver the packet.  The sending side
    /// folds link delay and fault injection into this, so the receiver just holds the
    /// packet until the instant passes.
    pub deliver_at: SimTime,
    /// The codec-encoded payload.  The segments are `Arc`-backed, so handing the list to
    /// the channel moves pointers, not the payload (one encode, zero copies).
    wire: Segments,
}

impl WirePacket {
    /// Takes a packet's payload in wire form.
    ///
    /// This goes through the frame's own bytes ([`Frame::wire_segments`]): a multicast
    /// fan-out emits one packet per destination site, all aliasing the same frame, so
    /// whatever producing the bytes cost — nothing for a protocol frame, one encode for an
    /// application frame — is paid once and every further destination clones a refcounted
    /// list.
    pub fn from_packet(pkt: &Packet, deliver_at: SimTime) -> Self {
        WirePacket {
            src: pkt.src,
            dst: pkt.dst,
            kind: pkt.kind,
            deliver_at,
            wire: pkt.payload.wire_segments(),
        }
    }

    /// Size of the encoded payload in bytes: the sum of its segments, what a socket would
    /// carry.
    pub fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// The encoded payload.
    pub fn segments(&self) -> &Segments {
        &self.wire
    }

    /// Turns the bytes back into a packet with a fresh local frame around them.  Nothing is
    /// decoded, so this cannot fail today; the `Result` is what a transport that validates
    /// on arrival (a checksum, a length prefix) would report through.
    pub fn into_packet(self) -> Result<Packet> {
        let frame = Frame::from_wire(self.wire);
        Ok(Packet::new(self.src, self.dst, self.kind, frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use vsync_msg::Message;
    use vsync_util::SiteId;

    #[test]
    fn packets_roundtrip_through_wire_form() {
        let src = ProcessId::new(SiteId(0), 1);
        let dst = ProcessId::new(SiteId(1), 2);
        let msg = Message::with_body("payload").with("seq", 7u64);
        let pkt = Packet::new(src, dst, PacketKind::Data, msg.clone());
        let wp = WirePacket::from_packet(&pkt, SimTime(123));
        assert_eq!(wp.deliver_at, SimTime(123));
        assert!(wp.wire_len() > 0);
        let back = wp.into_packet().expect("decode");
        assert_eq!(back.src, src);
        assert_eq!(back.dst, dst);
        assert_eq!(back.kind, PacketKind::Data);
        assert_eq!(back.payload.message(), &msg);
    }

    #[test]
    fn a_protocol_frame_crosses_without_an_encode_a_decode_or_a_tree() {
        use vsync_msg::frame::{tree_builds, wire_cache};
        use vsync_net::MsgId;
        use vsync_proto::ProtoMsg;
        use vsync_util::GroupId;
        let msg = ProtoMsg::AbOrder {
            view_seq: 2,
            orders: (MsgId::new(SiteId(0), 4), 9, SiteId(1)).into(),
        };
        let frame = msg.encode_frame(GroupId(3));
        let pkt = Packet::new(
            ProcessId::new(SiteId(0), 0),
            ProcessId::new(SiteId(1), 0),
            PacketKind::SetOrder,
            frame.clone(),
        );
        let before = (wire_cache::encodes(), tree_builds());
        let wp = WirePacket::from_packet(&pkt, SimTime(1));
        assert_eq!(
            wp.wire.to_bytes().as_ptr(),
            frame.wire_bytes().as_ptr(),
            "the bytes the frame was born as"
        );
        let back = wp.into_packet().expect("into_packet");
        let (group, decoded) = ProtoMsg::decode_frame(&back.payload).expect("typed decode");
        assert_eq!((*group, decoded), (GroupId(3), &msg));
        assert_eq!((wire_cache::encodes(), tree_builds()), before);
    }

    #[test]
    fn multicast_fanout_encodes_the_frame_once() {
        use vsync_msg::frame::wire_cache;
        // One frame, fanned out to four destination sites — exactly what the threaded
        // backend's per-site `send` loop produces for a multicast.
        let frame = Frame::new(Message::with_body("burst").with("n", 4u64));
        let src = ProcessId::new(SiteId(0), 0);
        let packets: Vec<Packet> = (1..=4u16)
            .map(|s| {
                Packet::new(
                    src,
                    ProcessId::new(SiteId(s), 0),
                    PacketKind::Data,
                    frame.clone(),
                )
            })
            .collect();
        let before = wire_cache::encodes();
        let wires: Vec<WirePacket> = packets
            .iter()
            .map(|p| WirePacket::from_packet(p, SimTime(1)))
            .collect();
        assert_eq!(
            wire_cache::encodes() - before,
            1,
            "one codec encode per frame, not per destination site"
        );
        // Every destination still receives the identical, decodable payload.
        for wp in wires {
            assert!(wp.wire_len() > 0);
            let back = wp.into_packet().expect("decode");
            assert_eq!(back.payload.message(), frame.message());
        }
    }

    #[test]
    fn byte_strings_of_a_received_application_frame_are_the_senders_buffers() {
        // A reply or a state-transfer block arrives as segments and becomes a tree
        // lazily, over them: a 64 KiB body is neither copied into the wire form nor out of
        // it, a small one aliases the buffer it was written into.
        let body = Bytes::from(vec![0xABu8; 64 * 1024]);
        let pkt = Packet::new(
            ProcessId::new(SiteId(0), 1),
            ProcessId::new(SiteId(1), 2),
            PacketKind::Reply,
            Message::with_body(body.clone())
                .with("xfer-seq", 3u64)
                .with("tag", vec![7u8; 16]),
        );
        let wp = WirePacket::from_packet(&pkt, SimTime(1));
        assert_eq!(wp.segments().iter().count(), 3);
        assert!(wp.wire_len() > body.len());
        let tail = wp.segments().iter().last().expect("segments").clone();
        let builds = vsync_msg::frame::tree_builds();
        let back = wp.into_packet().expect("into_packet");
        assert_eq!(
            vsync_msg::frame::tree_builds(),
            builds,
            "nothing decoded yet"
        );
        let received = back.payload.get_bytes("body").expect("body");
        assert_eq!(
            vsync_msg::frame::tree_builds() - builds,
            1,
            "decoded on first read"
        );
        assert_eq!(received.as_ptr(), body.as_ptr(), "the sender's buffer");
        assert_eq!(received, &body[..]);
        let tag = back.payload.get_bytes("tag").expect("tag");
        let (base, at) = (tail.as_ptr() as usize, tag.as_ptr() as usize);
        assert!(
            at >= base && at + tag.len() <= base + tail.len(),
            "aliases input"
        );
        assert_eq!(back.payload.get_u64("xfer-seq"), Some(3));
    }

    #[test]
    fn corrupt_bytes_become_a_frame_that_reads_empty_and_reports_why() {
        // Nothing is decoded at the boundary, so corrupt bytes cross it; whoever reads the
        // frame first finds out (see the stack-level test below for what it does then).
        let wp = WirePacket {
            src: ProcessId::new(SiteId(0), 1),
            dst: ProcessId::new(SiteId(1), 1),
            kind: PacketKind::Data,
            deliver_at: SimTime::ZERO,
            wire: Bytes::from(vec![0xFF, 0x00, 0x01]).into(),
        };
        let pkt = wp.into_packet().expect("the boundary validates nothing");
        assert!(pkt.payload.try_message().is_err());
        assert!(
            pkt.payload.is_empty(),
            "reads as an empty message, no panic"
        );
    }

    /// Corrupt input never panics a node: every prefix cut and a flipped tag byte of one
    /// protocol frame, one application frame and one relayed multicast, fed through
    /// `WirePacket` into a site stack, is traced and dropped with no delivery and nothing
    /// multicast; the intact frames then deliver, which proves the harness could have.
    #[test]
    fn corrupt_frames_are_traced_and_dropped_by_the_site_stack() {
        use std::cell::Cell;
        use std::rc::Rc;
        use vsync_core::{ProcessBuilder, SiteStack, StackConfig};
        use vsync_msg::Message;
        use vsync_net::{MsgId, Outbox, ProtocolKind, SharedStats, SiteHandler};
        use vsync_proto::{ProtoConfig, ProtoMsg};
        use vsync_util::{EntryId, GroupId, VectorClock};

        const APPLY: EntryId = EntryId(9);
        let gid = GroupId(5);
        let me = ProcessId::new(SiteId(0), 1);
        let peer = ProcessId::new(SiteId(1), 1);
        let mut stack = SiteStack::new(
            SiteId(0),
            vec![SiteId(0), SiteId(1)],
            StackConfig::default(),
            ProtoConfig::default(),
            SharedStats::new(),
        );
        let delivered = Rc::new(Cell::new(0u32));
        let seen = delivered.clone();
        let mut b = ProcessBuilder::new(me);
        b.on_entry(APPLY, move |_ctx, _msg| seen.set(seen.get() + 1));
        stack.add_process(b.build());
        let mut out = Outbox::new();
        stack.create_group("g", gid, me, &mut out);
        let view_seq = stack.view_of(gid).expect("founding view").seq();

        let mut app = Message::with_body(7u64);
        app.set_sender(peer);
        app.set_entry(APPLY);
        let proto_frame = ProtoMsg::CbData {
            id: MsgId::new(SiteId(1), 1),
            sender: peer,
            sender_rank: 0,
            view_seq,
            vt: VectorClock::from_entries(vec![1]),
            payload: app.clone(),
        }
        .into_frame(gid);
        let relay_frame = ProtoMsg::Relay {
            protocol: ProtocolKind::Cbcast,
            payload: app.clone(),
        }
        .into_frame(gid);
        let cases = [
            ("protocol", PacketKind::Data, proto_frame.wire_bytes()),
            (
                "application",
                PacketKind::Control,
                Frame::new(app).wire_bytes(),
            ),
            ("relay", PacketKind::Control, relay_frame.wire_bytes()),
        ];

        let feed = |stack: &mut SiteStack, kind, bytes: Bytes| -> Vec<String> {
            let wp = WirePacket {
                src: peer,
                dst: me,
                kind,
                deliver_at: SimTime::ZERO,
                wire: bytes.into(),
            };
            let pkt = wp.into_packet().expect("the boundary validates nothing");
            let mut out = Outbox::new();
            stack.on_packet(SimTime(1), pkt, &mut out);
            assert_eq!(
                out.drain_sends().count(),
                0,
                "a dropped frame answers nothing"
            );
            out.drain_traces().collect()
        };
        for (what, kind, bytes) in &cases {
            // The tag byte of the first field's value: envelope, count, name length, name.
            let name_len = u16::from_be_bytes([bytes[5], bytes[6]]) as usize;
            let mut flipped = bytes.to_vec();
            flipped[7 + name_len] = 0xFF;
            let corrupt = (0..bytes.len())
                .map(|cut| bytes.slice(..cut))
                .chain([Bytes::from(flipped)]);
            for (i, bad) in corrupt.enumerate() {
                let traces = feed(&mut stack, *kind, bad);
                assert!(
                    traces.iter().any(|t| t.contains("undecodable")),
                    "{what} frame, corruption {i}: not traced: {traces:?}"
                );
                assert_eq!(
                    delivered.get(),
                    0,
                    "{what} frame, corruption {i}: delivered"
                );
            }
        }
        for (i, (what, kind, bytes)) in cases.iter().enumerate() {
            let traces = feed(&mut stack, *kind, bytes.clone());
            assert!(
                !traces.iter().any(|t| t.contains("undecodable")),
                "{traces:?}"
            );
            assert_eq!(
                delivered.get(),
                i as u32 + 1,
                "intact {what} frame delivers"
            );
        }
    }

    /// Site 0 sends site 1 an application message and a protocol frame when it starts;
    /// site 1 reports each arrival.
    struct Sender {
        site: SiteId,
        arrived: std::sync::mpsc::Sender<()>,
    }

    fn cross_site_packets() -> [Packet; 2] {
        use vsync_net::MsgId;
        use vsync_proto::ProtoMsg;
        use vsync_util::GroupId;
        let (a, b) = (ProcessId::new(SiteId(0), 1), ProcessId::new(SiteId(1), 1));
        let app = Message::with_body("payload").with("seq", 7u64);
        let order = ProtoMsg::AbOrder {
            view_seq: 2,
            orders: (MsgId::new(SiteId(0), 4), 9, SiteId(1)).into(),
        };
        [
            Packet::new(a, b, PacketKind::Data, app),
            Packet::new(a, b, PacketKind::SetOrder, order.encode_frame(GroupId(3))),
        ]
    }

    impl vsync_net::SiteHandler for Sender {
        fn on_start(&mut self, _now: SimTime, out: &mut vsync_net::Outbox) {
            if self.site == SiteId(0) {
                cross_site_packets().into_iter().for_each(|p| out.send(p));
            }
        }
        fn on_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut vsync_net::Outbox) {
            let _ = self.arrived.send(());
        }
        fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut vsync_net::Outbox) {}
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn both_backends_count_the_bytes_a_frame_puts_on_the_wire() {
        use crate::{FaultPlan, SimCluster, ThreadedCluster};
        use std::sync::mpsc;
        use std::time::Duration as WallTime;
        use vsync_net::packet::HEADER_LEN;
        use vsync_util::{Duration, NetParams};
        let want: usize = cross_site_packets()
            .iter()
            .map(|p| p.payload.wire_bytes().len())
            .sum();
        let (tx, rx) = mpsc::channel();
        let sender = |site: u16| Sender {
            site: SiteId(site),
            arrived: tx.clone(),
        };

        let mut sim = SimCluster::new(2, NetParams::modern(), 1);
        for site in 0..2 {
            sim.install(SiteId(site), Box::new(sender(site)));
        }
        sim.run_for(Duration::from_millis(10));
        assert_eq!(rx.try_iter().count(), 2, "the simulator delivered both");
        let stats = sim.stats().snapshot();
        let charged = stats.bytes_sent - HEADER_LEN as u64 * stats.packets_sent;

        let mut threads = ThreadedCluster::new(2, FaultPlan::none(), 1);
        for site in 0..2 {
            let handler = sender(site);
            threads.spawn_site(SiteId(site), move |_now| Box::new(handler));
        }
        for _ in 0..2 {
            rx.recv_timeout(WallTime::from_secs(10))
                .expect("the threads delivered both");
        }
        let reports = threads.shutdown();
        let sent: u64 = reports.iter().map(|r| r.wire_bytes_sent).sum();

        assert_eq!((charged, sent), (want as u64, want as u64));
    }
}
