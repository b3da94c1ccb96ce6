//! The from-outside ladder: every layer a multicast crosses, timed in isolation through
//! its public API, with the message shape of the workload it is reported for.
//!
//! `msg` → `proto` → `endpoint` → `core` → `net` / `rt`.  Each row is the median of
//! several batches; allocation counts come from the counting allocator and are therefore
//! zero unless the traced binary runs this.  Nothing here uses a transport: endpoints and
//! stacks are wired back-to-back by moving their outputs across by hand, which is exactly
//! what makes the rows add up to less than an end-to-end run — the difference is
//! `ladder.unexplained_share`.

use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use vsync_core::{Address, Message, ProcessBuilder, ReplyWanted, SiteStack, StackConfig};
use vsync_msg::{codec, fields, Frame};
use vsync_net::{
    CalendarQueue, MsgId, NetworkModel, Outbox, Packet, PacketKind, ProtocolKind, SharedStats,
    SiteHandler,
};
use vsync_proto::abcast::AbcastState;
use vsync_proto::cbcast::{CbcastState, ReadyCb};
use vsync_proto::messages::StoredMsg;
use vsync_proto::stability::StabilityTracker;
use vsync_proto::{EndpointOutput, GroupEndpoint, ProtoConfig, ProtoMsg};
use vsync_rt::{chan, WirePacket};
use vsync_tools::{MemoryStore, RecoveryManager};
use vsync_util::{DetRng, EntryId, GroupId, NetParams, ProcessId, SimTime, SiteId, VectorClock};

use crate::alloc;
use crate::common::{Bodies, Outcome, ENTRY};
use crate::oracle::{OpId, OpKind};
use crate::stats;

/// The message shape of a workload, as far as the ladder cares.
#[derive(Clone, Copy, Debug)]
pub struct LadderShape {
    /// Member sites in the view (one member each).
    pub width: usize,
    pub body_len: usize,
    /// Percent of multicasts that are ABCAST.
    pub abcast_pct: u64,
    /// Virtual microseconds between multicasts (drives how often timers run per multicast).
    pub interval_us: u64,
}

/// Cost of one iteration of a micro row.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub ns: f64,
    pub allocs: f64,
}

/// Times `batch` (which performs `iters` iterations) several times and reports the median
/// cost per iteration.
fn measure(iters: u64, batches: usize, mut batch: impl FnMut()) -> Cost {
    batch();
    let mut ns = Vec::new();
    let mut allocs = Vec::new();
    for _ in 0..batches {
        let a0 = alloc::snapshot();
        let t = Instant::now();
        batch();
        let dt = t.elapsed().as_nanos() as f64;
        let da = alloc::snapshot().since(a0);
        ns.push(dt / iters as f64);
        allocs.push(da.count as f64 / iters as f64);
    }
    Cost {
        ns: stats::median(&ns),
        allocs: stats::median(&allocs),
    }
}

const GID: GroupId = GroupId(1);

fn pid(site: usize) -> ProcessId {
    ProcessId::new(SiteId(site as u16), 1)
}

/// The application message as `issue_call` hands it to an endpoint.
fn app_message(bodies: &Bodies, index: u32, kind: OpKind, sender: usize) -> Message {
    let mut m = bodies.message(OpId::new(index, kind, sender));
    m.set_sender(pid(sender));
    m.set_entry(ENTRY);
    m.set_session(u64::from(index) + 1);
    m.set(
        fields::PROTOCOL,
        match kind {
            OpKind::Abcast => ProtocolKind::Abcast.name(),
            _ => ProtocolKind::Cbcast.name(),
        },
    );
    m.set_group(GID);
    m
}

/// The protocol message that carries it between sites.
fn data_msg(shape: &LadderShape, bodies: &Bodies, index: u32) -> ProtoMsg {
    let id = MsgId::new(SiteId(0), u64::from(index) + 1);
    if shape.abcast_pct >= 50 {
        ProtoMsg::AbData {
            id,
            sender: pid(0),
            view_seq: 1,
            payload: app_message(bodies, index, OpKind::Abcast, 0),
        }
    } else {
        let mut vt = VectorClock::zero(shape.width);
        vt.set(0, u64::from(index) + 1);
        ProtoMsg::CbData {
            id,
            sender: pid(0),
            sender_rank: 0,
            view_seq: 1,
            vt,
            payload: app_message(bodies, index, OpKind::Cbcast, 0),
        }
    }
}

// -- msg -------------------------------------------------------------------------------------

fn msg_rows(shape: &LadderShape, bodies: &Bodies, out: &mut Outcome) {
    let wire_msg = data_msg(shape, bodies, 7).encode(GID);
    let bytes = codec::encode(&wire_msg);
    let iters = if shape.body_len > 4096 { 2_000 } else { 20_000 };
    let enc = measure(iters, 7, || {
        for _ in 0..iters {
            std::hint::black_box(codec::encode(std::hint::black_box(&wire_msg)));
        }
    });
    let dec = measure(iters, 7, || {
        for _ in 0..iters {
            std::hint::black_box(codec::decode(std::hint::black_box(&bytes)).expect("decodes"));
        }
    });
    out.set("msg.encode_ns", enc.ns);
    out.set("msg.decode_ns", dec.ns);
    out.set("msg.allocs_per_roundtrip", enc.allocs + dec.allocs);
}

// -- proto -----------------------------------------------------------------------------------

fn proto_rows(shape: &LadderShape, bodies: &Bodies, out: &mut Outcome) {
    let w = shape.width;
    let iters = 5_000u64;

    // CBCAST: stamp at the sender, causal delivery check at one receiver.
    let payload = app_message(bodies, 1, OpKind::Cbcast, 0);
    let cb = measure(iters, 7, || {
        let mut sender = CbcastState::new(w);
        let mut receiver = CbcastState::new(w);
        let mut ready = Vec::new();
        for i in 0..iters {
            let vt = sender.stamp_send(0);
            receiver.receive_into(
                ReadyCb {
                    id: MsgId::new(SiteId(0), i + 1),
                    sender: pid(0),
                    sender_rank: 0,
                    vt,
                    payload: payload.clone(),
                },
                &mut ready,
            );
            ready.clear();
        }
    });
    out.set("proto.cbcast_ns", cb.ns);

    // ABCAST: all three phases at the initiator and at one receiver; the other receivers'
    // proposals arrive as numbers.
    let payload = app_message(bodies, 1, OpKind::Abcast, 0);
    let peers: Vec<SiteId> = (1..w as u16).map(SiteId).collect();
    let ab = measure(iters, 7, || {
        let mut initiator = AbcastState::new();
        let mut receiver = AbcastState::new();
        for i in 0..iters {
            let id = MsgId::new(SiteId(0), i + 1);
            initiator.initiate(id, pid(0), payload.clone(), SiteId(0), peers.clone());
            let proposed = receiver.on_data(id, pid(0), payload.clone());
            let mut decided = None;
            for p in &peers {
                decided = initiator.on_proposal(id, *p, proposed).or(decided);
            }
            if let Some((prio, tiebreak)) = decided {
                initiator.decide(id, prio, tiebreak);
                receiver.decide(id, prio, tiebreak);
            }
            std::hint::black_box(initiator.drain());
            std::hint::black_box(receiver.drain());
        }
    });
    out.set("proto.abcast_ns", ab.ns);

    // Stability: record a batch locally, then hear every peer acknowledge it.
    let batch = 64usize;
    let rounds = 100u64;
    let wire = data_msg(shape, bodies, 1).encode_frame(GID);
    let sites: Vec<SiteId> = (0..w as u16).map(SiteId).collect();
    let stab = measure(rounds * batch as u64, 7, || {
        let mut tracker = StabilityTracker::new(SiteId(0), sites.clone());
        for r in 0..rounds {
            let ids: Vec<MsgId> = (0..batch as u64)
                .map(|i| MsgId::new(SiteId(0), r * batch as u64 + i + 1))
                .collect();
            for id in &ids {
                tracker.record_local(
                    *id,
                    StoredMsg {
                        wire: wire.clone(),
                        ab_priority: None,
                    },
                );
            }
            for s in &sites[1..] {
                std::hint::black_box(tracker.on_gossip(*s, &ids));
            }
            tracker.note_gossip_round();
        }
    });
    out.set("proto.stability_ns_per_id", stab.ns);

    // Frame encode, and decode of a frame nobody has parsed yet.
    let proto = data_msg(shape, bodies, 3);
    let iters = if shape.body_len > 4096 { 2_000 } else { 10_000 };
    let enc = measure(iters, 7, || {
        for _ in 0..iters {
            std::hint::black_box(proto.encode_frame(GID));
        }
    });
    out.set("proto.frame_encode_ns", enc.ns);
    let encoded = proto.encode(GID);
    let mut fresh: Vec<Frame> = Vec::new();
    let mut dec_ns = Vec::new();
    for _ in 0..8 {
        fresh.clear();
        fresh.extend((0..iters).map(|_| Frame::new(encoded.clone())));
        let t = Instant::now();
        for f in &fresh {
            std::hint::black_box(ProtoMsg::decode_frame(f).expect("decodes"));
        }
        dec_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    out.set("proto.frame_decode_ns", stats::median(&dec_ns[1..]));
}

// -- endpoint --------------------------------------------------------------------------------

/// Endpoints of one group, one per site, wired back-to-back.
struct EndpointRing {
    eps: Vec<GroupEndpoint>,
    /// Outputs waiting to be routed, per producing site.
    queue: VecDeque<(usize, EndpointOutput)>,
    now: SimTime,
    deliveries: u64,
    sends: u64,
    on_message_ns: u64,
    on_messages: u64,
}

impl EndpointRing {
    fn new(width: usize) -> Self {
        let cfg = ProtoConfig::fast();
        let mut ring = EndpointRing {
            eps: (0..width)
                .map(|s| GroupEndpoint::new(GID, SiteId(s as u16), cfg, SharedStats::new()))
                .collect(),
            queue: VecDeque::new(),
            now: SimTime(1_000),
            deliveries: 0,
            sends: 0,
            on_message_ns: 0,
            on_messages: 0,
        };
        let mut outs = Vec::new();
        ring.eps[0].create(pid(0), &mut outs);
        ring.enqueue(0, &mut outs);
        ring.route();
        for s in 1..width {
            ring.eps[0]
                .submit_join(ring.now, pid(s), None, &mut outs)
                .expect("ladder: join refused");
            ring.enqueue(0, &mut outs);
            ring.route();
        }
        assert!(
            ring.eps
                .iter()
                .all(|e| e.view().is_some_and(|v| v.len() == width)),
            "ladder: endpoint ring never formed its view"
        );
        ring.deliveries = 0;
        ring.sends = 0;
        ring
    }

    fn enqueue(&mut self, from: usize, outs: &mut Vec<EndpointOutput>) {
        self.queue.extend(outs.drain(..).map(|o| (from, o)));
    }

    /// Moves every pending output to its destination until nothing is pending.
    fn route(&mut self) {
        let mut outs = Vec::new();
        while let Some((from, output)) = self.queue.pop_front() {
            match output {
                EndpointOutput::Send { dst_site, msg, .. } => {
                    self.sends += 1;
                    let dst = dst_site.index();
                    let t = Instant::now();
                    let _ =
                        self.eps[dst].on_message(self.now, SiteId(from as u16), &msg, &mut outs);
                    self.on_message_ns += t.elapsed().as_nanos() as u64;
                    self.on_messages += 1;
                    self.enqueue(dst, &mut outs);
                }
                EndpointOutput::Deliver(_) => self.deliveries += 1,
                _ => {}
            }
        }
    }

    fn tick_all(&mut self) -> u64 {
        let mut outs = Vec::new();
        let mut ns = 0;
        for s in 0..self.eps.len() {
            let t = Instant::now();
            self.eps[s].on_tick(self.now, &mut outs);
            ns += t.elapsed().as_nanos() as u64;
            self.enqueue(s, &mut outs);
        }
        self.route();
        ns
    }
}

fn endpoint_rows(shape: &LadderShape, bodies: &Bodies, rng: &mut DetRng, out: &mut Outcome) {
    let mut ring = EndpointRing::new(shape.width);
    let ops = if shape.body_len > 4096 {
        4_000u32
    } else {
        20_000
    };
    // Endpoints gossip once per stability interval of *virtual* time.
    let tick_every = (ProtoConfig::fast().stability_interval.as_micros() / shape.interval_us.max(1))
        .clamp(1, 10_000) as u32;
    let mut send_ns = 0u64;
    let mut tick_ns = 0u64;
    let mut ticks = 0u64;
    let mut outs = Vec::new();
    let a0 = alloc::snapshot();
    let started = Instant::now();
    for i in 0..ops {
        let sender = rng.next_index(shape.width);
        let abcast = rng.next_below(100) < shape.abcast_pct;
        let kind = if abcast {
            OpKind::Abcast
        } else {
            OpKind::Cbcast
        };
        let payload = app_message(bodies, i, kind, sender);
        ring.now = SimTime(ring.now.0 + shape.interval_us);
        let t = Instant::now();
        let sent = if abcast {
            ring.eps[sender].abcast(ring.now, pid(sender), payload, &mut outs)
        } else {
            ring.eps[sender].cbcast(ring.now, pid(sender), payload, &mut outs)
        };
        send_ns += t.elapsed().as_nanos() as u64;
        sent.expect("ladder: multicast refused");
        ring.enqueue(sender, &mut outs);
        ring.route();
        if i % tick_every == 0 {
            tick_ns += ring.tick_all();
            ticks += shape.width as u64;
        }
    }
    let total_ns = started.elapsed().as_nanos() as f64;
    let allocs = alloc::snapshot().since(a0);
    let deliveries = ring.deliveries.max(1) as f64;
    out.set("endpoint.send_ns", send_ns as f64 / f64::from(ops));
    out.set(
        "endpoint.on_message_ns",
        ring.on_message_ns as f64 / ring.on_messages.max(1) as f64,
    );
    out.set("endpoint.on_tick_ns", tick_ns as f64 / ticks.max(1) as f64);
    out.set("endpoint.ns_per_delivery", total_ns / deliveries);
    out.set(
        "endpoint.sends_per_mcast",
        ring.sends as f64 / f64::from(ops),
    );
    out.set(
        "endpoint.allocs_per_delivery",
        allocs.count as f64 / deliveries,
    );
}

// -- core ------------------------------------------------------------------------------------

/// Site stacks wired back-to-back: packets move between their outboxes by hand, timers
/// fire when the loop says so.  No `Node`, no calendar, no network model.
struct StackRing {
    stacks: Vec<SiteStack>,
    outbox: Outbox,
    queue: VecDeque<Packet>,
    now: SimTime,
    tick_token: u64,
    deliveries: Rc<std::cell::Cell<u64>>,
}

impl StackRing {
    fn new(width: usize) -> Self {
        let params = NetParams::modern();
        let cfg = StackConfig::from_params(&params);
        let sites: Vec<SiteId> = (0..width as u16).map(SiteId).collect();
        let deliveries = Rc::new(std::cell::Cell::new(0u64));
        let mut ring = StackRing {
            stacks: sites
                .iter()
                .map(|s| {
                    SiteStack::new(
                        *s,
                        sites.clone(),
                        cfg,
                        ProtoConfig::fast(),
                        SharedStats::new(),
                    )
                })
                .collect(),
            outbox: Outbox::new(),
            queue: VecDeque::new(),
            now: SimTime(1_000),
            tick_token: 0,
            deliveries,
        };
        for s in 0..width {
            ring.stacks[s].on_start(ring.now, &mut ring.outbox);
            ring.tick_token = ring
                .outbox
                .drain_timers()
                .map(|(_, token)| token)
                .next_back()
                .unwrap_or(ring.tick_token);
            let counter = ring.deliveries.clone();
            let mut b = ProcessBuilder::new(pid(s));
            b.on_entry(ENTRY, move |_ctx, _msg| counter.set(counter.get() + 1));
            ring.stacks[s].add_process(b.build());
        }
        ring.stacks[0].create_group("ladder", GID, pid(0), &mut ring.outbox);
        ring.pump();
        for s in 1..width {
            ring.stacks[s].register_group("ladder", GID, vec![SiteId(0)]);
            ring.stacks[s]
                .join_group(GID, pid(s), None, &mut ring.outbox)
                .expect("ladder: join refused");
            ring.pump();
        }
        assert!(
            ring.stacks
                .iter()
                .all(|s| s.view_of(GID).is_some_and(|v| v.len() == width)),
            "ladder: stack ring never formed its view"
        );
        ring.deliveries.set(0);
        ring
    }

    /// Takes what a stack just recorded and routes packets until none are pending.
    fn pump(&mut self) {
        self.queue.extend(self.outbox.drain_sends());
        self.outbox.drain_timers();
        while let Some(pkt) = self.queue.pop_front() {
            let dst = pkt.dst.site.index();
            self.stacks[dst].on_packet(self.now, pkt, &mut self.outbox);
            self.queue.extend(self.outbox.drain_sends());
            self.outbox.drain_timers();
        }
    }

    fn tick_all(&mut self) {
        for s in 0..self.stacks.len() {
            self.stacks[s].on_timer(self.now, self.tick_token, &mut self.outbox);
            self.pump();
        }
    }
}

fn core_rows(shape: &LadderShape, bodies: &Bodies, rng: &mut DetRng, out: &mut Outcome) {
    let mut ring = StackRing::new(shape.width);
    let ops = if shape.body_len > 4096 {
        4_000u32
    } else {
        20_000
    };
    let tick_us = StackConfig::from_params(&NetParams::modern())
        .tick_interval
        .as_micros();
    let tick_every = (tick_us / shape.interval_us.max(1)).clamp(1, 10_000) as u32;
    let a0 = alloc::snapshot();
    let started = Instant::now();
    for i in 0..ops {
        let sender = rng.next_index(shape.width);
        let abcast = rng.next_below(100) < shape.abcast_pct;
        let (kind, protocol) = if abcast {
            (OpKind::Abcast, ProtocolKind::Abcast)
        } else {
            (OpKind::Cbcast, ProtocolKind::Cbcast)
        };
        let payload = bodies.message(OpId::new(i, kind, sender));
        ring.now = SimTime(ring.now.0 + shape.interval_us);
        ring.stacks[sender].issue_call(
            pid(sender),
            vec![Address::Group(GID)],
            ENTRY,
            payload,
            protocol,
            ReplyWanted::None,
            None,
            &mut ring.outbox,
        );
        ring.pump();
        if i % tick_every == 0 {
            ring.tick_all();
        }
    }
    let total_ns = started.elapsed().as_nanos() as f64;
    let allocs = alloc::snapshot().since(a0);
    let deliveries = ring.deliveries.get().max(1) as f64;
    out.set("core.ns_per_delivery", total_ns / deliveries);
    out.set("core.allocs_per_delivery", allocs.count as f64 / deliveries);
}

// -- net -------------------------------------------------------------------------------------

fn net_rows(shape: &LadderShape, bodies: &Bodies, out: &mut Outcome) {
    // A standing population of one pending event per (site, peer) pair, pushed and popped
    // at the workload's pace.
    let depth = (shape.width * shape.width).max(4);
    let iters = 50_000u64;
    let cal = measure(iters, 7, || {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for i in 0..depth as u64 {
            q.push(SimTime(50 + i), i);
        }
        for i in 0..iters {
            let (at, v) = q.pop().expect("standing population");
            q.push(SimTime(at.0 + 51 + (v & 3)), i);
        }
    });
    out.set("net.calendar_ns_per_event", cal.ns);

    let frame = data_msg(shape, bodies, 1).encode_frame(GID);
    let pkt = Packet::new(pid(0), pid(1), PacketKind::Data, frame);
    let iters = 20_000u64;
    let plan = measure(iters, 7, || {
        let mut model = NetworkModel::new(NetParams::modern(), SharedStats::new(), 1);
        for i in 0..iters {
            std::hint::black_box(model.plan_delivery(SimTime(i * 100), &pkt));
        }
    });
    out.set("net.plan_delivery_ns", plan.ns);
}

// -- rt --------------------------------------------------------------------------------------

fn rt_rows(shape: &LadderShape, bodies: &Bodies, out: &mut Outcome) {
    // A packet's trip across a thread boundary: encode (frame cache cold), decode.
    let encoded = data_msg(shape, bodies, 1).encode(GID);
    let iters = if shape.body_len > 4096 {
        1_000usize
    } else {
        5_000
    };
    let mut trip_ns = Vec::new();
    for _ in 0..8 {
        let packets: Vec<Packet> = (0..iters)
            .map(|_| {
                Packet::new(
                    pid(0),
                    pid(1),
                    PacketKind::Data,
                    Frame::new(encoded.clone()),
                )
            })
            .collect();
        let t = Instant::now();
        for p in &packets {
            let wire = WirePacket::from_packet(p, SimTime(1));
            std::hint::black_box(wire.into_packet().expect("decodes"));
        }
        trip_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    out.set("rt.wire_roundtrip_ns", stats::median(&trip_ns[1..]));

    // Send into a channel whose receiver is busy elsewhere (never parked): lock + push.
    let iters = 50_000u64;
    let send = measure(iters, 7, || {
        let (tx, rx) = chan::channel::<u64>();
        for i in 0..iters {
            tx.send(i);
        }
        drop(rx);
    });
    out.set("rt.chan_send_ns", send.ns);

    // Hand-off between two threads that wait for each other: the wake-up path.
    let rounds = 2_000usize;
    let (to_peer, peer_rx) = chan::channel::<u64>();
    let (to_me, my_rx) = chan::channel::<u64>();
    let mut round_trips = Vec::with_capacity(rounds);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let chan::Recv::Item(v) = peer_rx.recv_deadline(None) {
                to_me.send(v);
            }
        });
        for i in 0..rounds as u64 {
            let t = Instant::now();
            to_peer.send(i);
            let _ = my_rx.recv_deadline(None);
            round_trips.push(t.elapsed().as_nanos() as u64);
        }
        drop(to_peer);
    });
    out.set(
        "rt.chan_handoff_us_p50",
        stats::segment_percentile(&round_trips, 50.0) / 2.0 / 1000.0,
    );
}

// -- tools -----------------------------------------------------------------------------------

fn tools_rows(bodies: &Bodies, out: &mut Outcome) {
    let payload = app_message(bodies, 1, OpKind::Cbcast, 0);
    let iters = 2_000u64;
    let append = measure(iters, 7, || {
        let manager = RecoveryManager::new(Rc::new(MemoryStore::new()), "ladder");
        for _ in 0..iters {
            manager
                .log_delivery(EntryId(ENTRY.0), &payload)
                .expect("memory store append");
        }
    });
    out.set("tools.log_append_ns", append.ns);
}

/// Runs every micro row for one message shape and records them in `out`.
pub fn run(shape: &LadderShape, seed: u64, out: &mut Outcome) {
    let mut rng = DetRng::new(seed);
    let bodies = Bodies::new(&mut rng, shape.body_len);
    msg_rows(shape, &bodies, out);
    proto_rows(shape, &bodies, out);
    endpoint_rows(shape, &bodies, &mut rng, out);
    core_rows(shape, &bodies, &mut rng, out);
    net_rows(shape, &bodies, out);
    rt_rows(shape, &bodies, out);
    tools_rows(&bodies, out);
}

/// The "one multicast costs X, of which ..." table: the micro rows, scaled to one
/// delivery, next to the end-to-end processor time of a delivery.
pub struct Ladder {
    width: usize,
    /// (layer, what the row covers, ns per delivery)
    rows: Vec<(&'static str, &'static str, f64)>,
    /// Processor ns per delivery end to end; 0 when no end-to-end run is at hand.
    end_to_end_ns: f64,
}

impl Ladder {
    /// Builds the table from the values `run` (and, for the per-multicast counts, a traced
    /// workload run) left in `out`.
    pub fn build(shape: &LadderShape, out: &Outcome, end_to_end_ns: f64) -> Ladder {
        let n = shape.width as f64;
        let ab = shape.abcast_pct as f64 / 100.0;
        // Ordering state: a CBCAST is stamped once and checked at n-1 receivers; the
        // ABCAST row measured two of the n parties.
        let ordering = (1.0 - ab) * out.get("proto.cbcast_ns") * (n - 1.0) / n
            + ab * out.get("proto.abcast_ns") / 2.0;
        // Frame codec: as often per multicast as the traced run counted (once each when
        // there is no such run).
        let per_mcast = |name: &str| match out.get(name) {
            c if c > 0.0 => c,
            _ => 1.0,
        };
        let frames = (per_mcast("proto.frame_encodes_per_mcast")
            * out.get("proto.frame_encode_ns")
            + per_mcast("proto.frame_decodes_per_mcast") * out.get("proto.frame_decode_ns"))
            / n;
        let proto = ordering + frames;
        let endpoint = out.get("endpoint.ns_per_delivery");
        let core = out.get("core.ns_per_delivery");
        // Transport.  Threads: every inter-site packet is encoded, queued and decoded.
        // Simulator: every event goes through the calendar, every packet through the model.
        let wire_encodes = out.get("msg.wire_encodes_per_mcast");
        let packets_per_delivery = out.get("net.packets_per_mcast") / n;
        let (msg, transport) = if wire_encodes > 0.0 {
            let codec = out.get("msg.encode_ns") + out.get("msg.decode_ns");
            let crossings = wire_encodes / n;
            (
                crossings * codec,
                crossings
                    * ((out.get("rt.wire_roundtrip_ns") - codec).max(0.0)
                        + out.get("rt.chan_send_ns")),
            )
        } else {
            (
                0.0,
                out.get("rt.events_per_delivery") * out.get("net.calendar_ns_per_event")
                    + packets_per_delivery * out.get("net.plan_delivery_ns"),
            )
        };
        Ladder {
            width: shape.width,
            rows: vec![
                ("msg", "codec at the thread boundary", msg),
                ("proto", "ordering state and frame codec", proto),
                (
                    "endpoint",
                    "GroupEndpoint, minus proto",
                    (endpoint - proto).max(0.0),
                ),
                (
                    "core",
                    "SiteStack, minus endpoint",
                    (core - endpoint).max(0.0),
                ),
                (
                    "net/rt",
                    "calendar and network model, or wire and channel",
                    transport,
                ),
            ],
            end_to_end_ns,
        }
    }

    fn explained_ns(&self) -> f64 {
        self.rows.iter().map(|(_, _, ns)| ns).sum()
    }

    /// Share of a delivery's end-to-end processor time that no row accounts for.
    pub fn unexplained_share(&self) -> f64 {
        if self.end_to_end_ns > 0.0 {
            1.0 - self.explained_ns() / self.end_to_end_ns
        } else {
            0.0
        }
    }

    pub fn render(&self, workload: &str) -> String {
        let mut s = format!(
            "ladder for {workload}: one multicast to {} sites is {} deliveries",
            self.width, self.width
        );
        if self.end_to_end_ns > 0.0 {
            s.push_str(&format!(
                "; a delivery costs {:.0} ns of processor time end to end, of which",
                self.end_to_end_ns
            ));
        }
        s.push('\n');
        let total = if self.end_to_end_ns > 0.0 {
            self.end_to_end_ns
        } else {
            self.explained_ns().max(1e-9)
        };
        for (layer, what, ns) in &self.rows {
            s.push_str(&format!(
                "  {layer:<9} {what:<48} {ns:>10.0} ns {:>6.1} %\n",
                ns / total * 100.0
            ));
        }
        if self.end_to_end_ns > 0.0 {
            s.push_str(&format!(
                "  {:<9} {:<48} {:>10.0} ns {:>6.1} %\n",
                "-",
                "unexplained (node loop, driver, cache effects)",
                self.end_to_end_ns - self.explained_ns(),
                self.unexplained_share() * 100.0
            ));
        }
        s
    }
}
