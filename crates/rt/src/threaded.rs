//! The multi-threaded in-process backend: one OS thread per site.
//!
//! Topology: a shared [`Router`] holds one channel [`crate::chan::Sender`] per live site
//! behind a `parking_lot::RwLock`; each node's thread owns the matching receiver inside its
//! [`ThreadedTransport`] and parks in `Node::run` until traffic or a timer deadline wakes
//! it.  Packets cross threads in wire form ([`WirePacket`]), so every `Rc`-based protocol
//! structure stays strictly thread-local — ownership of all mutable state is per-thread by
//! construction, and the only shared state is the router table and the channel queues, both
//! lock-protected.
//!
//! A node hands a peer its packets in batches: [`ThreadedTransport::send`] settles each
//! packet's fate on the spot (cut link, fault delay, FIFO clamp, counters) and appends it to
//! a buffer kept per destination site, and a buffer goes to the peer's channel under one
//! lock, with at most one wake-up ([`crate::chan::Sender::send_all`]), when it reaches
//! `SEND_BATCH` packets and — every buffer — before the node looks at its own channel or
//! parks.  So a packet waits only while its node has ready work, never while it sleeps, and
//! each link stays FIFO.
//!
//! Time is wall-clock: `Router::now` maps `Instant::now()` onto microseconds since
//! cluster start, the same [`vsync_util::SimTime`] axis the simulator uses, so the protocol
//! stacks run unmodified.
//!
//! Failure injection: [`ThreadedCluster::kill_site`] drops the site's channel sender.  The
//! node drains whatever was already queued (a crash is never instantaneous on a real
//! network either), then observes the disconnect and exits — abandoning its pending timers,
//! exactly like a fail-stop site.  Subsequent sends to the site, buffered ones included, are
//! silently dropped at the router, and [`ThreadedCluster::spawn_site`] on the empty slot
//! models site recovery.
//! Link faults are the simulator's, applied where it applies them.  The link table
//! ([`crate::faults::LinkFaults`]) lives on the router, swapped by
//! [`ThreadedCluster::set_link_faults`]; a sending transport asks it about each packet before
//! buffering it, so a cut link drops the packet at the sender.  Then the transport's own
//! [`Channels`] apply the cluster's [`FaultPlan`] and keep each channel FIFO.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::RwLock;

use vsync_net::{Channels, Packet, SiteHandler};
use vsync_util::{Duration, FaultPlan, SimTime, SiteId};

use crate::chan::{self, Receiver, Recv, Sender};
use crate::faults::LinkFaults;
use crate::transport::{Event, InvokeFn, Node, Transport};
use crate::wire::WirePacket;

/// A message on a node's channel.
enum NodeMsg {
    /// A packet from another node, in wire form.
    Packet(WirePacket),
    /// A control-plane closure to run on the node's thread.
    Invoke(InvokeFn),
}

/// The shared routing table: clock origin plus one sender per live site.
pub struct Router {
    start: Instant,
    slots: RwLock<Vec<Option<Sender<NodeMsg>>>>,
    /// Current link-level partition table, swapped whole by [`ThreadedCluster::set_link_faults`].
    links: RwLock<LinkFaults>,
    /// Fast-path flag: `true` iff `links` has any cut or extra delay.  Senders check this
    /// with a relaxed-cost atomic load so a fully-healed cluster never takes the read lock.
    links_active: AtomicBool,
}

impl Router {
    fn new(num_sites: usize) -> Self {
        Router {
            start: Instant::now(),
            slots: RwLock::new((0..num_sites).map(|_| None).collect()),
            links: RwLock::new(LinkFaults::default()),
            links_active: AtomicBool::new(false),
        }
    }

    fn set_links(&self, links: LinkFaults) {
        let active = links != LinkFaults::default();
        *self.links.write() = links;
        self.links_active.store(active, Ordering::Release);
    }

    /// What the link table does to a packet from `src` to `dst` ([`LinkFaults::hold`]).  A
    /// healed cluster answers without taking the lock.
    fn link_hold(&self, src: SiteId, dst: SiteId) -> Option<Duration> {
        if self.links_active.load(Ordering::Acquire) {
            self.links.read().hold(src, dst)
        } else {
            Some(Duration::ZERO)
        }
    }

    /// Microseconds since cluster start, on the same axis as simulated time.
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }

    /// Maps a cluster timestamp back onto the wall clock (for channel wait deadlines).
    fn instant_of(&self, t: SimTime) -> Instant {
        self.start + std::time::Duration::from_micros(t.0)
    }

    /// Sends a batch to a site's channel in order, under one lock and with at most one
    /// wake-up; `false` (batch dropped) if the site is down.
    fn send_all_to(&self, site: SiteId, msgs: impl IntoIterator<Item = NodeMsg>) -> bool {
        match self.slots.read().get(site.index()) {
            Some(Some(tx)) => tx.send_all(msgs),
            _ => false,
        }
    }

    fn is_up(&self, site: SiteId) -> bool {
        matches!(self.slots.read().get(site.index()), Some(Some(_)))
    }
}

/// A pending local timer, min-ordered by `(due, seq)`.
struct TimerEntry {
    due: SimTime,
    seq: u64,
    token: u64,
}

/// A cross-node packet held until its delivery instant, min-ordered by `(due, seq)`.
struct HeldPacket {
    due: SimTime,
    seq: u64,
    wire: WirePacket,
}

macro_rules! min_heap_order {
    ($ty:ident) => {
        impl PartialEq for $ty {
            fn eq(&self, other: &Self) -> bool {
                self.due == other.due && self.seq == other.seq
            }
        }
        impl Eq for $ty {}
        impl PartialOrd for $ty {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for $ty {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reversed: BinaryHeap is a max-heap and we want the earliest entry on top.
                (other.due, other.seq).cmp(&(self.due, self.seq))
            }
        }
    };
}

min_heap_order!(TimerEntry);
min_heap_order!(HeldPacket);

/// Packets a node keeps for one peer before it hands them to the peer's channel together.
const SEND_BATCH: usize = 32;

/// The per-node transport of the threaded backend.  Constructed *inside* the node's thread
/// (it holds thread-local `Rc`-based packets in its loopback queue, so it is deliberately
/// never sent across threads).
pub struct ThreadedTransport {
    site: SiteId,
    router: Arc<Router>,
    rx: Receiver<NodeMsg>,
    /// What the last look at the channel brought in and `recv` has not filed yet.  The
    /// channel is emptied in one lock acquisition per pass, not one per message.
    inbox: VecDeque<NodeMsg>,
    /// This node's sending side of its channels: the cluster's fault plan and the FIFO
    /// clamp per (src, dst), seeded per incarnation.
    channels: Channels,
    timers: BinaryHeap<TimerEntry>,
    held: BinaryHeap<HeldPacket>,
    /// Same-site loopback: local traffic never crosses the wire (or the codec).
    local: VecDeque<Packet>,
    seq: u64,
    /// The wall clock as last read by [`Transport::recv`]: one reading per event serves the
    /// due check, the handler's `now`, every `deliver_at` and every timer the event arms.
    clock: SimTime,
    /// Cross-site packets not yet handed to the router: one buffer per destination site,
    /// indexed by site.  A buffer goes to its peer when it reaches [`SEND_BATCH`], and every
    /// buffer goes before this node looks at its own channel or parks.
    outgoing: Vec<Vec<NodeMsg>>,
    /// Packets in `outgoing`.
    unsent: usize,
    /// Cross-site packets sent (buffered or handed to the router), and their wire bytes
    /// (segment lengths summed: what a socket would carry).
    packets_sent: u64,
    wire_bytes_sent: u64,
}

impl ThreadedTransport {
    fn new(
        site: SiteId,
        router: Arc<Router>,
        rx: Receiver<NodeMsg>,
        faults: FaultPlan,
        seed: u64,
    ) -> Self {
        ThreadedTransport {
            clock: router.now(),
            site,
            router,
            rx,
            inbox: VecDeque::new(),
            channels: Channels::new(faults, seed),
            timers: BinaryHeap::new(),
            held: BinaryHeap::new(),
            local: VecDeque::new(),
            seq: 0,
            outgoing: Vec::new(),
            unsent: 0,
            packets_sent: 0,
            wire_bytes_sent: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Buffers a packet for `dst`, and hands the buffer to the router once it is a batch.
    fn send_to_peer(&mut self, dst: SiteId, wire: WirePacket) {
        if self.outgoing.len() <= dst.index() {
            self.outgoing.resize_with(dst.index() + 1, Vec::new);
        }
        let buf = &mut self.outgoing[dst.index()];
        buf.push(NodeMsg::Packet(wire));
        self.unsent += 1;
        if buf.len() >= SEND_BATCH {
            self.unsent -= buf.len();
            self.router.send_all_to(dst, buf.drain(..));
        }
    }

    /// Hands every buffered packet to the router, one batch per peer.  A batch for a site
    /// that is down is dropped there, as a single packet would be.
    fn send_buffered(&mut self) {
        if self.unsent == 0 {
            return;
        }
        for (i, buf) in self.outgoing.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.router.send_all_to(SiteId(i as u16), buf.drain(..));
            }
        }
        self.unsent = 0;
    }

    /// Files a packet from another node; it waits in the held heap until due.
    fn hold(&mut self, wire: WirePacket) {
        let entry = HeldPacket {
            due: wire.deliver_at,
            seq: self.next_seq(),
            wire,
        };
        self.held.push(entry);
    }

    /// Pops whichever of (due timer, due held packet) comes first, if any is due at `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<Event> {
        loop {
            let timer_due = self.timers.peek().map(|t| t.due);
            let packet_due = self.held.peek().map(|p| p.due);
            match (timer_due, packet_due) {
                (Some(td), pd) if td <= now && pd.map(|p| td <= p).unwrap_or(true) => {
                    let t = self.timers.pop().expect("peeked");
                    return Some(Event::Timer(t.token));
                }
                (_, Some(pd)) if pd <= now => {
                    let p = self.held.pop().expect("peeked");
                    // Nothing is decoded here, so nothing is rejected here: corrupt contents
                    // are found, traced and dropped by the site stack when it first reads
                    // the frame.  (An `Err` would be a transport that validates on arrival
                    // dropping a datagram.)
                    if let Ok(pkt) = p.wire.into_packet() {
                        return Some(Event::Packet(pkt));
                    }
                }
                _ => return None,
            }
        }
    }

    /// The earliest future deadline among pending timers and held packets.
    fn next_deadline(&self) -> Option<SimTime> {
        let t = self.timers.peek().map(|t| t.due);
        let p = self.held.peek().map(|p| p.due);
        match (t, p) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl Transport for ThreadedTransport {
    fn site(&self) -> SiteId {
        self.site
    }

    fn now(&self) -> SimTime {
        self.clock
    }

    fn send(&mut self, pkt: Packet) {
        if pkt.dst.site == self.site {
            self.local.push_back(pkt);
            return;
        }
        // Link table: a cut link swallows the packet at the sender, like the sim.
        // Control-plane `NodeMsg::Invoke` traffic never passes through here, so harness
        // queries keep working across a partition.
        let Some(hold) = self.router.link_hold(self.site, pkt.dst.site) else {
            return;
        };
        let deliver_at = self
            .channels
            .deliver_at(pkt.src, pkt.dst, self.now() + hold);
        let wire = WirePacket::from_packet(&pkt, deliver_at);
        self.packets_sent += 1;
        self.wire_bytes_sent += wire.wire_len() as u64;
        self.send_to_peer(pkt.dst.site, wire);
    }

    fn set_timer(&mut self, after: Duration, token: u64) {
        let entry = TimerEntry {
            due: self.now() + after,
            seq: self.next_seq(),
            token,
        };
        self.timers.push(entry);
    }

    fn recv(&mut self, block: bool) -> Option<Event> {
        loop {
            // The one clock reading of this pass; `now()` serves it until the next `recv`.
            self.clock = self.router.now();
            if let Some(pkt) = self.local.pop_front() {
                return Some(Event::Packet(pkt));
            }
            if let Some(ev) = self.pop_due(self.clock) {
                return Some(ev);
            }
            // File what the last look at the channel brought in, in order.  A closure runs
            // only after the packets queued ahead of it that are already due, so it waits
            // at the front of the inbox while the loop goes around to hand those out.
            let mut held_any = false;
            while let Some(msg) = self.inbox.pop_front() {
                match msg {
                    NodeMsg::Packet(wire) => {
                        self.hold(wire);
                        held_any = true;
                    }
                    NodeMsg::Invoke(f) if held_any => {
                        self.inbox.push_front(NodeMsg::Invoke(f));
                        break;
                    }
                    NodeMsg::Invoke(f) => return Some(Event::Invoke(f)),
                }
            }
            if held_any {
                continue;
            }
            // Nothing is ready here, so what this node sent goes out before it looks at its
            // channel: a peer never waits on a packet buffered behind a parked node.  Then
            // pull in whatever already sits on the channel (it may be immediately due), and
            // wait only if asked to and there is nothing.
            self.send_buffered();
            match self.rx.drain_into(&mut self.inbox) {
                Recv::Item(()) => {}
                Recv::TimedOut if block => {
                    let deadline = self.next_deadline().map(|t| self.router.instant_of(t));
                    match self.rx.recv_deadline(deadline) {
                        // Time passed while parked; the next pass reads the clock again.
                        Recv::Item(msg) => self.inbox.push_back(msg),
                        // A deadline passed: loop around and fire the now-due timer/packet.
                        Recv::TimedOut => {}
                        // Disconnected from the cluster: exit even though timers may be
                        // pending — a crashed site's timers die with it.
                        Recv::Disconnected => return None,
                    }
                }
                Recv::TimedOut | Recv::Disconnected => return None,
            }
        }
    }
}

/// Final accounting returned by a node's thread.
#[derive(Clone, Copy, Debug)]
pub struct NodeReport {
    /// The site the node ran.
    pub site: SiteId,
    /// Events (packets, timers, invokes) dispatched into the handler.
    pub events: u64,
    /// Cross-site packets the node sent, counted when sent rather than when their batch
    /// went to the router (those a cut link swallowed are not counted; same-site loopback
    /// never is).
    pub packets_sent: u64,
    /// Wire bytes of those packets: the lengths of their segments, summed — what a socket
    /// transport would have carried.
    pub wire_bytes_sent: u64,
}

/// A cluster of nodes, one OS thread each.
pub struct ThreadedCluster {
    router: Arc<Router>,
    faults: FaultPlan,
    seed: u64,
    spawned: u64,
    handles: Vec<Option<JoinHandle<NodeReport>>>,
    reports: Vec<NodeReport>,
}

impl ThreadedCluster {
    /// Creates a cluster shell with `num_sites` empty slots.  Sites start when
    /// [`ThreadedCluster::spawn_site`] installs a handler factory.
    pub fn new(num_sites: usize, faults: FaultPlan, seed: u64) -> Self {
        ThreadedCluster {
            router: Arc::new(Router::new(num_sites)),
            faults,
            seed,
            spawned: 0,
            handles: (0..num_sites).map(|_| None).collect(),
            reports: Vec::new(),
        }
    }

    /// Number of site slots.
    pub fn num_sites(&self) -> usize {
        self.handles.len()
    }

    /// Microseconds since cluster start.
    pub fn now(&self) -> SimTime {
        self.router.now()
    }

    /// True if the site currently has a live node.
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.router.is_up(site)
    }

    /// Starts a node for `site` on its own OS thread.  `make` runs *on that thread* and
    /// builds the site's handler (so `Rc`-based stack state never crosses threads); only
    /// the factory itself must be `Send`.  Panics if the slot is already occupied.
    pub fn spawn_site<F>(&mut self, site: SiteId, make: F)
    where
        F: FnOnce(SimTime) -> Box<dyn SiteHandler> + Send + 'static,
    {
        let idx = site.index();
        assert!(idx < self.handles.len(), "site {site:?} out of range");
        assert!(
            !self.site_is_up(site) && self.handles[idx].is_none(),
            "site {site:?} already has a live node"
        );
        let (tx, rx) = chan::channel();
        self.router.slots.write()[idx] = Some(tx);
        self.spawned += 1;
        // Per-incarnation fault seed: deterministic per node, distinct across recoveries.
        let seed = self
            .seed
            .wrapping_add((idx as u64 + 1).wrapping_mul(0x9E37_79B9))
            .wrapping_add(self.spawned << 32);
        let router = self.router.clone();
        let faults = self.faults;
        let handle = std::thread::Builder::new()
            .name(format!("vsync-node-{}", site.0))
            .spawn(move || {
                let transport = ThreadedTransport::new(site, router, rx, faults, seed);
                let now = transport.now();
                let mut node = Node::new(transport, make(now));
                node.start();
                let events = node.run();
                let transport = node.transport();
                NodeReport {
                    site,
                    events,
                    packets_sent: transport.packets_sent,
                    wire_bytes_sent: transport.wire_bytes_sent,
                }
            })
            .expect("spawn node thread");
        self.handles[idx] = Some(handle);
    }

    /// Injects a control-plane closure into a node's event loop.  Returns `false` if the
    /// site is down (the closure is dropped, like any packet to a crashed site).
    pub fn invoke(&self, site: SiteId, f: InvokeFn) -> bool {
        self.router.send_all_to(site, [NodeMsg::Invoke(f)])
    }

    /// Installs a link table (cuts and delay spikes); `LinkFaults::default()` heals all links.
    /// Takes effect for packets sent after the call; packets already queued or held at
    /// the receiver still arrive (a real cut cannot recall in-flight datagrams either).
    pub fn set_link_faults(&self, links: LinkFaults) {
        self.router.set_links(links);
    }

    /// Crashes a site: its channel closes, the node drains its backlog, observes the
    /// disconnect and exits; pending timers die with it.  Blocks until the thread has
    /// finished and returns its report.  No-op returning `None` if the site is down.
    pub fn kill_site(&mut self, site: SiteId) -> Option<NodeReport> {
        let idx = site.index();
        // Dropping the slot's sender is the kill: the receiver observes the disconnect
        // once its queue drains and the run loop exits.
        self.router.slots.write().get_mut(idx)?.take()?;
        let handle = self.handles.get_mut(idx)?.take()?;
        match handle.join() {
            Ok(report) => {
                self.reports.push(report);
                Some(report)
            }
            Err(payload) => {
                // Re-raise a node-thread panic — unless this join runs during an unwind
                // (e.g. `Drop` after a failed test assertion), where a second panic would
                // abort the process and eat the original failure message.
                if std::thread::panicking() {
                    eprintln!("node thread for {site:?} panicked (suppressed: already unwinding)");
                    None
                } else {
                    std::panic::resume_unwind(payload)
                }
            }
        }
    }

    /// Stops every live node and returns the reports of all nodes this cluster ever ran.
    pub fn shutdown(mut self) -> Vec<NodeReport> {
        self.shutdown_all();
        std::mem::take(&mut self.reports)
    }

    fn shutdown_all(&mut self) {
        for i in 0..self.handles.len() {
            self.kill_site(SiteId(i as u16));
        }
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        // Never leak node threads: a dropped cluster (test failure, early return) still
        // closes every channel and joins every thread.
        self.shutdown_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::sync::mpsc;
    use vsync_msg::Message;
    use vsync_net::{Outbox, PacketKind};
    use vsync_util::ProcessId;

    /// Echoes every "ping" back to its sender and reports everything it sees.
    struct Echo {
        me: SiteId,
        seen: mpsc::Sender<(SiteId, String)>,
    }

    impl SiteHandler for Echo {
        fn on_start(&mut self, _now: SimTime, out: &mut Outbox) {
            out.set_timer(Duration::from_millis(1), 7);
        }
        fn on_packet(&mut self, _now: SimTime, pkt: Packet, out: &mut Outbox) {
            let body = pkt.payload.get_str("body").unwrap_or("").to_owned();
            if body == "ping" {
                out.send(Packet::new(
                    pkt.dst,
                    pkt.src,
                    PacketKind::Reply,
                    Message::with_body("pong"),
                ));
            }
            let _ = self.seen.send((self.me, body));
        }
        fn on_timer(&mut self, _now: SimTime, token: u64, _out: &mut Outbox) {
            let _ = self.seen.send((self.me, format!("timer{token}")));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn echo_cluster(n: usize) -> (ThreadedCluster, mpsc::Receiver<(SiteId, String)>) {
        let (tx, rx) = mpsc::channel();
        let mut cluster = ThreadedCluster::new(n, FaultPlan::none(), 11);
        for i in 0..n {
            let tx = tx.clone();
            cluster.spawn_site(SiteId(i as u16), move |_now| {
                Box::new(Echo {
                    me: SiteId(i as u16),
                    seen: tx,
                })
            });
        }
        (cluster, rx)
    }

    fn wait_for(rx: &mpsc::Receiver<(SiteId, String)>, what: &str) -> Option<(SiteId, String)> {
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(ev) = rx.recv_timeout(std::time::Duration::from_millis(50)) {
                if ev.1 == what {
                    return Some(ev);
                }
            }
        }
        None
    }

    #[test]
    fn ping_pong_crosses_threads() {
        let (cluster, rx) = echo_cluster(2);
        let a = ProcessId::new(SiteId(0), 1);
        let b = ProcessId::new(SiteId(1), 1);
        assert!(cluster.invoke(
            SiteId(0),
            Box::new(move |_h, _now, out| {
                out.send(Packet::new(
                    a,
                    b,
                    PacketKind::Data,
                    Message::with_body("ping"),
                ));
            })
        ));
        let ping = wait_for(&rx, "ping").expect("site 1 saw the ping");
        assert_eq!(ping.0, SiteId(1));
        let pong = wait_for(&rx, "pong").expect("site 0 saw the pong");
        assert_eq!(pong.0, SiteId(0));
        let reports = cluster.shutdown();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.events > 0));
    }

    #[test]
    fn a_node_reports_the_packets_and_wire_bytes_it_sent() {
        use vsync_msg::codec;
        let (cluster, rx) = echo_cluster(2);
        let a = ProcessId::new(SiteId(0), 1);
        let b = ProcessId::new(SiteId(1), 1);
        // One message whose body the wire form takes by reference and one it copies: what
        // is counted is the bytes of the flat encoding either way — the splice changes how
        // the bytes are held, not how many there are.
        let bulk = Message::with_body(vec![3u8; 64 * 1024]).with("op", 1u64);
        let small = Message::with_body(vec![3u8; 16]).with("op", 2u64);
        let want = (codec::wire_len(&bulk) + codec::wire_len(&small)) as u64;
        assert_eq!(
            want,
            (codec::encode(&bulk).len() + codec::encode(&small).len()) as u64
        );
        let send = move |cluster: &ThreadedCluster, dst: ProcessId, msgs: Vec<Message>| {
            assert!(cluster.invoke(
                SiteId(0),
                Box::new(move |_h, _now, out| {
                    for m in msgs {
                        out.send(Packet::new(a, dst, PacketKind::Data, m));
                    }
                })
            ));
        };
        send(&cluster, b, vec![bulk, small, Message::with_body("last")]);
        assert!(wait_for(&rx, "last").is_some(), "site 1 received all three");
        // Neither same-site loopback nor a packet a cut link swallows reaches the router.
        cluster.set_link_faults(LinkFaults::partition(&[vec![SiteId(0)], vec![SiteId(1)]]));
        send(&cluster, b, vec![Message::with_body("cut")]);
        send(&cluster, a, vec![Message::with_body("loop")]);
        assert!(wait_for(&rx, "loop").is_some(), "loopback delivered");
        let reports = cluster.shutdown();
        let of = |site| *reports.iter().find(|r| r.site == site).expect("report");
        let last = codec::wire_len(&Message::with_body("last")) as u64;
        assert_eq!(of(SiteId(0)).packets_sent, 3);
        assert_eq!(of(SiteId(0)).wire_bytes_sent, want + last);
        assert_eq!(of(SiteId(1)).packets_sent, 0);
        assert_eq!(of(SiteId(1)).wire_bytes_sent, 0);
    }

    /// Collects the bodies starting with `m` that site 1 reports, until there are `n` or
    /// a deadline passes.
    fn bodies_at_site_1(rx: &mpsc::Receiver<(SiteId, String)>, n: usize) -> Vec<String> {
        let mut got = Vec::new();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while got.len() < n && Instant::now() < deadline {
            if let Ok((site, body)) = rx.recv_timeout(std::time::Duration::from_millis(50)) {
                if site == SiteId(1) && body.starts_with('m') {
                    got.push(body);
                }
            }
        }
        got
    }

    #[test]
    fn a_thousand_packets_to_one_peer_arrive_in_order_across_batches() {
        let (cluster, rx) = echo_cluster(2);
        let a = ProcessId::new(SiteId(0), 1);
        let b = ProcessId::new(SiteId(1), 1);
        // Two invokes, so some batches go out full and some short, before the node parks.
        for range in [0..700u64, 700..1000] {
            assert!(cluster.invoke(
                SiteId(0),
                Box::new(move |_h, _now, out| {
                    for i in range {
                        out.send(Packet::new(
                            a,
                            b,
                            PacketKind::Data,
                            Message::with_body(format!("m{i}")),
                        ));
                    }
                })
            ));
        }
        let want: Vec<String> = (0..1000).map(|i| format!("m{i}")).collect();
        assert_eq!(bodies_at_site_1(&rx, 1000), want, "one link stays FIFO");
        let reports = cluster.shutdown();
        let sent = reports
            .iter()
            .find(|r| r.site == SiteId(0))
            .expect("report");
        assert_eq!(sent.packets_sent, 1000);
    }

    /// Sends one packet from `from` to `to` when its start timer fires, and nothing else.
    struct SendOnTimer {
        from: ProcessId,
        to: ProcessId,
    }

    impl SiteHandler for SendOnTimer {
        fn on_start(&mut self, _now: SimTime, out: &mut Outbox) {
            out.set_timer(Duration::from_millis(20), 1);
        }
        fn on_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Outbox) {}
        fn on_timer(&mut self, _now: SimTime, _token: u64, out: &mut Outbox) {
            out.send(Packet::new(
                self.from,
                self.to,
                PacketKind::Data,
                Message::with_body("m-from-timer"),
            ));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_lone_packet_sent_from_a_timer_reaches_a_parked_peer() {
        // Nothing else ever happens on either node: the packet is the sender's last act
        // before it parks, and the receiver is parked when it is sent.
        let (tx, rx) = mpsc::channel();
        let mut cluster = ThreadedCluster::new(2, FaultPlan::none(), 3);
        let (a, b) = (ProcessId::new(SiteId(0), 1), ProcessId::new(SiteId(1), 1));
        cluster.spawn_site(SiteId(0), move |_now| {
            Box::new(SendOnTimer { from: a, to: b })
        });
        cluster.spawn_site(SiteId(1), move |_now| {
            Box::new(Echo {
                me: SiteId(1),
                seen: tx,
            })
        });
        assert_eq!(bodies_at_site_1(&rx, 1), vec!["m-from-timer".to_owned()]);
    }

    #[test]
    fn packets_buffered_for_a_killed_site_are_dropped() {
        let (mut cluster, rx) = echo_cluster(3);
        let a = ProcessId::new(SiteId(0), 1);
        let (b, c) = (ProcessId::new(SiteId(1), 1), ProcessId::new(SiteId(2), 1));
        cluster.kill_site(SiteId(1)).expect("was up");
        // More than a batch for the dead site, then one packet for a live one: the full
        // batch and the short one both go to a closed slot, and the node carries on.
        assert!(cluster.invoke(
            SiteId(0),
            Box::new(move |_h, _now, out| {
                for i in 0..(SEND_BATCH as u64 + 5) {
                    let body = Message::with_body(format!("m{i}"));
                    out.send(Packet::new(a, b, PacketKind::Data, body));
                }
                out.send(Packet::new(
                    a,
                    c,
                    PacketKind::Data,
                    Message::with_body("alive"),
                ));
            })
        ));
        assert_eq!(
            wait_for(&rx, "alive").map(|(site, _)| site),
            Some(SiteId(2))
        );
        let reports = cluster.shutdown();
        let sent = reports
            .iter()
            .find(|r| r.site == SiteId(0))
            .expect("report");
        assert_eq!(
            sent.packets_sent,
            SEND_BATCH as u64 + 6,
            "counted when sent"
        );
    }

    #[test]
    fn timers_fire_on_real_threads() {
        let (cluster, rx) = echo_cluster(1);
        assert!(wait_for(&rx, "timer7").is_some(), "start timer fired");
        drop(cluster);
    }

    #[test]
    fn killed_sites_drop_traffic_and_recovery_restores_it() {
        let (mut cluster, rx) = echo_cluster(2);
        assert!(wait_for(&rx, "timer7").is_some());
        let report = cluster.kill_site(SiteId(1)).expect("was up");
        assert_eq!(report.site, SiteId(1));
        assert!(!cluster.site_is_up(SiteId(1)));
        // Sends toward the dead site are dropped at the router.
        let a = ProcessId::new(SiteId(0), 1);
        let b = ProcessId::new(SiteId(1), 1);
        assert!(cluster.invoke(
            SiteId(0),
            Box::new(move |_h, _now, out| {
                out.send(Packet::new(
                    a,
                    b,
                    PacketKind::Data,
                    Message::with_body("ping"),
                ));
            })
        ));
        assert!(!cluster.invoke(SiteId(1), Box::new(|_h, _n, _o| {})));
        // Recovery: a fresh node occupies the slot and answers again.
        let (tx2, rx2) = mpsc::channel();
        cluster.spawn_site(SiteId(1), move |_now| {
            Box::new(Echo {
                me: SiteId(1),
                seen: tx2,
            })
        });
        assert!(cluster.site_is_up(SiteId(1)));
        assert!(cluster.invoke(
            SiteId(0),
            Box::new(move |_h, _now, out| {
                out.send(Packet::new(
                    a,
                    b,
                    PacketKind::Data,
                    Message::with_body("ping"),
                ));
            })
        ));
        assert!(wait_for(&rx2, "ping").is_some(), "recovered node receives");
        drop(rx);
    }

    #[test]
    fn cut_links_swallow_packets_and_heal_restores_them() {
        let (cluster, rx) = echo_cluster(2);
        let a = ProcessId::new(SiteId(0), 1);
        let b = ProcessId::new(SiteId(1), 1);
        let ping = move |cluster: &ThreadedCluster, body: &'static str| {
            assert!(cluster.invoke(
                SiteId(0),
                Box::new(move |_h, _now, out| {
                    out.send(Packet::new(
                        a,
                        b,
                        PacketKind::Data,
                        Message::with_body(body),
                    ));
                })
            ));
        };
        cluster.set_link_faults(LinkFaults::partition(&[vec![SiteId(0)], vec![SiteId(1)]]));
        ping(&cluster, "cut-ping");
        // Invoke still works across the cut (control plane), but the packet is dropped.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            rx.try_iter().all(|(_, body)| body != "cut-ping"),
            "packet across a cut link must be swallowed"
        );
        cluster.set_link_faults(LinkFaults::default());
        ping(&cluster, "heal-ping");
        assert!(
            wait_for(&rx, "heal-ping").is_some(),
            "healed link delivers again"
        );
        drop(cluster);
    }

    #[test]
    fn one_way_cut_blocks_one_direction_only() {
        let (cluster, rx) = echo_cluster(2);
        let a = ProcessId::new(SiteId(0), 1);
        let b = ProcessId::new(SiteId(1), 1);
        // 0 -> 1 is cut; 1 -> 0 still works.
        cluster.set_link_faults(LinkFaults::one_way(&[SiteId(0)], &[SiteId(1)]));
        assert!(cluster.invoke(
            SiteId(1),
            Box::new(move |_h, _now, out| {
                out.send(Packet::new(
                    b,
                    a,
                    PacketKind::Data,
                    Message::with_body("ping"),
                ));
            })
        ));
        // Site 0 hears the ping, but its pong dies on the cut 0 -> 1 link.
        let got = wait_for(&rx, "ping").expect("reverse direction stays open");
        assert_eq!(got.0, SiteId(0));
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            rx.try_iter()
                .all(|(site, body)| !(site == SiteId(1) && body == "pong")),
            "pong must be swallowed by the one-way cut"
        );
        drop(cluster);
    }

    #[test]
    fn reorder_injection_actually_reorders() {
        let (tx, rx) = mpsc::channel();
        let mut cluster = ThreadedCluster::new(
            2,
            // ~30% of packets skip the FIFO clamp and are held 3 ms extra, long past the
            // sub-millisecond spacing of a burst — they must land out of order.
            FaultPlan {
                reorder_probability: 0.3,
                reorder_extra: Duration::from_millis(3),
                ..FaultPlan::none()
            },
            21,
        );
        for i in 0..2 {
            let tx = tx.clone();
            cluster.spawn_site(SiteId(i as u16), move |_now| {
                Box::new(Echo {
                    me: SiteId(i as u16),
                    seen: tx,
                })
            });
        }
        let a = ProcessId::new(SiteId(0), 1);
        let b = ProcessId::new(SiteId(1), 1);
        cluster.invoke(
            SiteId(0),
            Box::new(move |_h, _now, out| {
                for i in 0..30u64 {
                    out.send(Packet::new(
                        a,
                        b,
                        PacketKind::Data,
                        Message::with_body(format!("m{i:02}")),
                    ));
                }
            }),
        );
        let mut got = Vec::new();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < 30 && Instant::now() < deadline {
            if let Ok((site, body)) = rx.recv_timeout(std::time::Duration::from_millis(50)) {
                if site == SiteId(1) && body.starts_with('m') {
                    got.push(body);
                }
            }
        }
        let want: Vec<String> = (0..30).map(|i| format!("m{i:02}")).collect();
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(sorted, want, "every packet still delivered exactly once");
        assert_ne!(
            got, want,
            "with reorder injection the arrival order must differ"
        );
    }

    #[test]
    fn jittered_channels_still_deliver_in_fifo_order() {
        // Heavy jitter, but no deliberate reordering: the per-channel clamp must keep one
        // sender's stream in order.
        let (tx, rx) = mpsc::channel();
        let mut cluster = ThreadedCluster::new(
            2,
            FaultPlan::none().with_jitter(Duration::from_millis(2)),
            5,
        );
        for i in 0..2 {
            let tx = tx.clone();
            cluster.spawn_site(SiteId(i as u16), move |_now| {
                Box::new(Echo {
                    me: SiteId(i as u16),
                    seen: tx,
                })
            });
        }
        let a = ProcessId::new(SiteId(0), 1);
        let b = ProcessId::new(SiteId(1), 1);
        cluster.invoke(
            SiteId(0),
            Box::new(move |_h, _now, out| {
                for i in 0..20u64 {
                    out.send(Packet::new(
                        a,
                        b,
                        PacketKind::Data,
                        Message::with_body(format!("m{i}")),
                    ));
                }
            }),
        );
        let mut got = Vec::new();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < 20 && Instant::now() < deadline {
            if let Ok((site, body)) = rx.recv_timeout(std::time::Duration::from_millis(50)) {
                if site == SiteId(1) && body.starts_with('m') {
                    got.push(body);
                }
            }
        }
        let want: Vec<String> = (0..20).map(|i| format!("m{i}")).collect();
        assert_eq!(got, want, "per-channel FIFO under jitter");
    }
}
