//! The discrete-event simulation backend behind the [`Transport`] trait.
//!
//! The [`CalendarQueue`] event loop and the [`NetworkModel`] latency/fragmentation model,
//! behind the per-node [`Transport`] interface, so the *same* [`Node`] driver that runs on an
//! OS thread in the threaded backend runs here under a deterministic scheduler.  The link
//! faults are the threaded backend's too: the profile's [`vsync_util::FaultPlan`], settled by
//! the model's [`vsync_net::Channels`], and the [`LinkFaults`] table.  Virtual time, seeded
//! randomness and single-threaded execution make every run exactly reproducible, which is
//! what the cross-backend conformance tests lean on: prove a property here, then check the
//! threaded backend preserves it under real concurrency.  This is the only simulator: every
//! test, example, application and the paper reproduction (`repro`) runs on it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use vsync_net::{CalendarQueue, NetworkModel, Outbox, Packet, SharedStats, SiteHandler};
use vsync_util::{Duration, NetParams, SimTime, SiteId};

use crate::faults::LinkFaults;
use crate::transport::{Event, Node, Transport};

/// An event in the shared calendar queue.
enum SimEv {
    /// A packet en route to its destination site.
    Pkt(Packet),
    /// A timer armed by a site; `epoch` guards against firing on a later incarnation.
    Timer {
        site: SiteId,
        token: u64,
        epoch: u64,
    },
}

/// State shared by every [`SimTransport`] of one cluster (single-threaded, hence `Rc`).
struct SimCore {
    now: SimTime,
    queue: CalendarQueue<SimEv>,
    net: NetworkModel,
    /// Per-site incarnation counters; bumped on kill so stale timers are discarded.
    epochs: Vec<u64>,
    stats: SharedStats,
    /// Link-level faults (partitions, delay spikes), consulted at every send.
    links: LinkFaults,
}

/// The simulated per-node transport: sends plan deliveries through the network model into
/// the shared calendar queue; receives pop from a per-node inbox the scheduler fills.
pub struct SimTransport {
    site: SiteId,
    core: Rc<RefCell<SimCore>>,
    inbox: Rc<RefCell<VecDeque<Event>>>,
}

impl Transport for SimTransport {
    fn site(&self) -> SiteId {
        self.site
    }

    fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    fn send(&mut self, pkt: Packet) {
        let mut core = self.core.borrow_mut();
        // A cut link swallows the packet at the sender, like a send racing a crash: no
        // retransmission charge, no arrival, no trace of it in the calendar.
        let Some(hold) = core.links.hold(pkt.src.site, pkt.dst.site) else {
            return;
        };
        let sent = core.now + hold;
        let arrival = core.net.plan_delivery(sent, &pkt);
        core.queue.push(arrival, SimEv::Pkt(pkt));
    }

    fn set_timer(&mut self, after: Duration, token: u64) {
        let mut core = self.core.borrow_mut();
        let at = core.now + after;
        let epoch = core.epochs[self.site.index()];
        core.queue.push(
            at,
            SimEv::Timer {
                site: self.site,
                token,
                epoch,
            },
        );
    }

    fn recv(&mut self, _block: bool) -> Option<Event> {
        // The scheduler guarantees readiness: blocking would never have to wait.
        self.inbox.borrow_mut().pop_front()
    }
}

/// A simulated cluster of [`Node`]s sharing one calendar queue and network model.
pub struct SimCluster {
    core: Rc<RefCell<SimCore>>,
    nodes: Vec<Option<Node<SimTransport>>>,
    inboxes: Vec<Rc<RefCell<VecDeque<Event>>>>,
    events_processed: u64,
}

impl SimCluster {
    /// Creates a cluster with `num_sites` empty slots.
    pub fn new(num_sites: usize, params: NetParams, seed: u64) -> Self {
        let stats = SharedStats::new();
        let core = SimCore {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            net: NetworkModel::new(params, stats.clone(), seed),
            epochs: vec![0; num_sites],
            stats,
            links: LinkFaults::default(),
        };
        SimCluster {
            core: Rc::new(RefCell::new(core)),
            nodes: (0..num_sites).map(|_| None).collect(),
            inboxes: (0..num_sites)
                .map(|_| Rc::new(RefCell::new(VecDeque::new())))
                .collect(),
            events_processed: 0,
        }
    }

    /// Number of site slots.
    pub fn num_sites(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// The cluster-wide statistics counters (shared with the network model; pass a clone
    /// into handlers that count multicasts and deliveries).
    pub fn stats(&self) -> SharedStats {
        self.core.borrow().stats.clone()
    }

    /// Events dispatched so far (a progress measure).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// True if the site currently has a node installed.
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.nodes
            .get(site.index())
            .map(|n| n.is_some())
            .unwrap_or(false)
    }

    /// Installs (or replaces, on recovery) the node for `site` and runs its start hook.
    /// Replacing a live node retires the old incarnation first, so its pending timers can
    /// never fire into the replacement handler (same epoch discipline as a kill).
    pub fn install(&mut self, site: SiteId, handler: Box<dyn SiteHandler>) {
        let idx = site.index();
        assert!(idx < self.nodes.len(), "site {site:?} out of range");
        if self.nodes[idx].is_some() {
            self.core.borrow_mut().epochs[idx] += 1;
        }
        let transport = SimTransport {
            site,
            core: self.core.clone(),
            inbox: self.inboxes[idx].clone(),
        };
        self.inboxes[idx].borrow_mut().clear();
        let mut node = Node::new(transport, handler);
        node.start();
        self.nodes[idx] = Some(node);
    }

    /// Replaces the link-fault table (partitions / delay spikes) effective immediately.
    /// Packets already in the calendar are not recalled — like real routers, a cut stops
    /// *new* traffic; what is in flight lands.
    pub fn set_link_faults(&mut self, links: LinkFaults) {
        self.core.borrow_mut().links = links;
    }

    /// Crashes a site: the node is dropped, its pending timers are invalidated through the
    /// epoch counter, and in-flight packets toward it will be discarded on arrival.
    pub fn kill(&mut self, site: SiteId) {
        let idx = site.index();
        if let Some(slot) = self.nodes.get_mut(idx) {
            *slot = None;
            self.core.borrow_mut().epochs[idx] += 1;
            self.inboxes[idx].borrow_mut().clear();
        }
    }

    /// Crashes a site *and* drops its not-yet-delivered outbound packets, modelling a crash
    /// whose final sends die on the wire (or in an unflushed kernel buffer).  This is the
    /// adversarial kill crash-instant fuzzing wants: a plain [`SimCluster::kill`] lets every
    /// packet the site ever emitted arrive, so a multi-packet exchange such as a state
    /// transfer can never be observed half-done.
    pub(crate) fn kill_dropping_outbound(&mut self, site: SiteId) {
        self.kill(site);
        self.core
            .borrow_mut()
            .queue
            .retain(|ev| !matches!(ev, SimEv::Pkt(pkt) if pkt.src.site == site));
    }

    /// Runs `f` against a site's concrete handler at the current virtual time, flushing
    /// whatever actions it records.  `None` if the site is down or the type mismatches.
    pub fn with_node<H: SiteHandler, R>(
        &mut self,
        site: SiteId,
        f: impl FnOnce(&mut H, SimTime, &mut Outbox) -> R,
    ) -> Option<R> {
        self.nodes.get_mut(site.index())?.as_mut()?.with_handler(f)
    }

    /// Runs the event loop until the queue empties or virtual time would pass `limit`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        let mut processed = 0;
        loop {
            let popped = {
                let mut core = self.core.borrow_mut();
                match core.queue.next_time() {
                    Some(at) if at <= limit => {
                        let (at, ev) = core.queue.pop().expect("peeked");
                        if at > core.now {
                            core.now = at;
                        }
                        Some(ev)
                    }
                    _ => None,
                }
            };
            let Some(ev) = popped else { break };
            processed += 1;
            self.events_processed += 1;
            match ev {
                SimEv::Pkt(pkt) => {
                    let idx = pkt.dst.site.index();
                    if let Some(node) = self.nodes.get_mut(idx).and_then(|n| n.as_mut()) {
                        self.inboxes[idx].borrow_mut().push_back(Event::Packet(pkt));
                        node.poll();
                    }
                }
                SimEv::Timer { site, token, epoch } => {
                    let idx = site.index();
                    let live = self.core.borrow().epochs[idx] == epoch;
                    if live {
                        if let Some(node) = self.nodes.get_mut(idx).and_then(|n| n.as_mut()) {
                            self.inboxes[idx]
                                .borrow_mut()
                                .push_back(Event::Timer(token));
                            node.poll();
                        }
                    }
                }
            }
        }
        let mut core = self.core.borrow_mut();
        if core.now < limit {
            core.now = limit;
        }
        processed
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        let target = self.now() + d;
        self.run_until(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use vsync_msg::Message;
    use vsync_net::PacketKind;
    use vsync_util::{FaultPlan, ProcessId};

    struct Echo {
        received: Vec<(SimTime, String)>,
        timers: Vec<u64>,
    }

    impl Echo {
        fn boxed() -> Box<dyn SiteHandler> {
            Box::new(Echo {
                received: Vec::new(),
                timers: Vec::new(),
            })
        }
    }

    impl SiteHandler for Echo {
        fn on_start(&mut self, _now: SimTime, out: &mut Outbox) {
            out.set_timer(Duration::from_millis(5), 1);
        }
        fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Outbox) {
            let body = pkt.payload.get_str("body").unwrap_or("").to_owned();
            self.received.push((now, body.clone()));
            if body == "ping" {
                out.send(Packet::new(
                    pkt.dst,
                    pkt.src,
                    PacketKind::Reply,
                    Message::with_body("pong"),
                ));
            }
        }
        fn on_timer(&mut self, _now: SimTime, token: u64, _out: &mut Outbox) {
            self.timers.push(token);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_sites() -> SimCluster {
        let mut c = SimCluster::new(2, NetParams::paper1987(), 7);
        c.install(SiteId(0), Echo::boxed());
        c.install(SiteId(1), Echo::boxed());
        c
    }

    #[test]
    fn ping_pong_obeys_the_latency_model() {
        let mut c = two_sites();
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
            out.send(Packet::new(
                a,
                b,
                PacketKind::Data,
                Message::with_body("ping"),
            ));
        });
        c.run_until(SimTime(200_000));
        let ping = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.received.clone())
            .unwrap();
        let pong = c
            .with_node::<Echo, _>(SiteId(0), |h, _n, _o| h.received.clone())
            .unwrap();
        assert_eq!(ping.len(), 1);
        assert_eq!(pong.len(), 1);
        // The 1987 profile charges at least 16 ms per inter-site hop.
        assert!(ping[0].0.as_millis_f64() >= 16.0);
        assert!(pong[0].0.as_millis_f64() >= 32.0);
    }

    #[test]
    fn ping_pong_round_trip_obeys_link_delays() {
        let mut c = two_sites();
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
            out.send(Packet::new(
                a,
                b,
                PacketKind::Data,
                Message::with_body("ping"),
            ));
        });
        c.run_until(SimTime(200_000));
        let ping = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.received.clone())
            .unwrap();
        let pong = c
            .with_node::<Echo, _>(SiteId(0), |h, _n, _o| h.received.clone())
            .unwrap();
        // Site 1 saw the ping, site 0 saw the pong.
        assert_eq!(ping.len(), 1);
        assert_eq!(pong.len(), 1);
        assert_eq!(ping[0].1, "ping");
        assert_eq!(pong[0].1, "pong");
        // The pong leaves when the ping lands, so it pays a full hop of its own.
        assert!(pong[0].0.as_millis_f64() - ping[0].0.as_millis_f64() >= 16.0);
    }

    #[test]
    fn timers_fire_and_on_start_runs() {
        let mut c = two_sites();
        c.run_until(SimTime(100_000));
        for site in [SiteId(0), SiteId(1)] {
            let timers = c
                .with_node::<Echo, _>(site, |h, _n, _o| h.timers.clone())
                .unwrap();
            assert_eq!(timers, vec![1], "the on_start timer fired once at {site:?}");
        }
    }

    #[test]
    fn crashed_sites_drop_traffic() {
        let mut c = two_sites();
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        // Unlike an in-flight kill, the destination is already down when the packet leaves.
        c.kill(SiteId(1));
        c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
            out.send(Packet::new(
                a,
                b,
                PacketKind::Data,
                Message::with_body("ping"),
            ));
        });
        c.run_until(SimTime(1_000_000));
        assert!(!c.site_is_up(SiteId(1)));
        let got = c
            .with_node::<Echo, _>(SiteId(0), |h, _n, _o| h.received.len())
            .unwrap();
        assert_eq!(got, 0, "no pong ever came back");
    }

    #[test]
    fn recovery_installs_a_fresh_handler() {
        let mut c = two_sites();
        c.kill(SiteId(1));
        assert!(!c.site_is_up(SiteId(1)));
        c.install(SiteId(1), Echo::boxed());
        assert!(c.site_is_up(SiteId(1)));
        // The fresh handler re-armed its start timer.
        c.run_until(SimTime(50_000));
        let timers = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.timers.clone())
            .unwrap();
        assert_eq!(timers, vec![1]);
    }

    #[test]
    fn timers_fire_and_epochs_gate_stale_ones() {
        let mut c = two_sites();
        c.run_until(SimTime(50_000));
        let timers = c
            .with_node::<Echo, _>(SiteId(0), |h, _n, _o| h.timers.clone())
            .unwrap();
        assert_eq!(timers, vec![1]);
        // Kill and recover before the (already-armed) start timer of the old incarnation
        // would fire again; the new node sees only its own timer.
        c.kill(SiteId(1));
        assert!(!c.site_is_up(SiteId(1)));
        c.install(SiteId(1), Echo::boxed());
        c.run_until(SimTime(100_000));
        let timers = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.timers.clone())
            .unwrap();
        assert_eq!(timers, vec![1], "exactly the fresh incarnation's timer");
    }

    #[test]
    fn virtual_time_is_monotonic_and_respects_limits() {
        let mut c = two_sites();
        assert_eq!(c.now(), SimTime::ZERO);
        c.run_until(SimTime(1_000));
        assert_eq!(c.now(), SimTime(1_000));
        c.run_for(Duration::from_millis(2));
        assert_eq!(c.now(), SimTime(3_000));
    }

    #[test]
    fn with_node_on_down_or_missing_site_returns_none() {
        let mut c = SimCluster::new(1, NetParams::instant(), 0);
        assert!(c.with_node::<Echo, _>(SiteId(0), |_h, _n, _o| ()).is_none());
        assert!(c.with_node::<Echo, _>(SiteId(5), |_h, _n, _o| ()).is_none());
        c.install(SiteId(0), Echo::boxed());
        assert!(c.with_node::<Echo, _>(SiteId(0), |_h, _n, _o| ()).is_some());
        c.kill(SiteId(0));
        assert!(c.with_node::<Echo, _>(SiteId(0), |_h, _n, _o| ()).is_none());
    }

    /// Records every callback with its time, so a test can check cross-kind ordering.
    struct Recorder {
        log: Rc<RefCell<Vec<String>>>,
    }

    impl SiteHandler for Recorder {
        fn on_packet(&mut self, now: SimTime, pkt: Packet, _out: &mut Outbox) {
            let body = pkt.payload.get_str("body").unwrap_or("?").to_owned();
            self.log.borrow_mut().push(format!("{}:pkt:{body}", now.0));
        }
        fn on_timer(&mut self, now: SimTime, token: u64, _out: &mut Outbox) {
            self.log
                .borrow_mut()
                .push(format!("{}:timer:{token}", now.0));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Crash-epoch interleaving at one instant: a site killed and reinstalled at the instant
    /// its timers fire must drop every timer of the dead incarnation — including one that
    /// shares a later instant with the fresh incarnation's timer — while other sites' timers
    /// at the crash instant still fire, and traffic to the new incarnation arrives once.
    #[test]
    fn same_instant_crash_epoch_interleaving_drops_only_stale_timers() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let recorder = || Box::new(Recorder { log: log.clone() }) as Box<dyn SiteHandler>;
        let mut c = SimCluster::new(2, NetParams::instant(), 7);
        c.install(SiteId(0), recorder());
        c.install(SiteId(1), recorder());
        let arm = |c: &mut SimCluster, site: u16, after: Duration, token: u64| {
            c.with_node::<Recorder, _>(SiteId(site), |_h, _n, out| out.set_timer(after, token))
                .expect("site is up");
        };
        arm(&mut c, 1, Duration::from_millis(5), 41);
        arm(&mut c, 0, Duration::from_millis(5), 42);
        // Armed by the incarnation about to die, due after its death.
        arm(&mut c, 1, Duration::from_millis(7), 43);
        c.run_until(SimTime(5_000));

        // Site 1 dies and comes back at the instant its first timer fired.  Site 0 re-occupies
        // the drained instant; the fresh incarnation's timer lands on the stale one's instant.
        c.kill(SiteId(1));
        arm(&mut c, 0, Duration::ZERO, 45);
        c.install(SiteId(1), recorder());
        arm(&mut c, 1, Duration::from_millis(2), 44);
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        c.with_node::<Recorder, _>(SiteId(0), |_h, _n, out| {
            out.send(Packet::new(
                a,
                b,
                PacketKind::Data,
                Message::with_body("post-recovery"),
            ));
        });
        c.run_until(SimTime(20_000));

        let entries = log.borrow();
        for want in [
            "5000:timer:41",
            "5000:timer:42",
            "5000:timer:45",
            "7000:timer:44",
        ] {
            assert!(
                entries.iter().any(|e| e == want),
                "{want} missing: {entries:?}"
            );
        }
        assert!(
            !entries.iter().any(|e| e.ends_with("timer:43")),
            "stale timer of the crashed incarnation must be dropped: {entries:?}"
        );
        assert_eq!(
            entries.iter().filter(|e| e.contains(":pkt:")).count(),
            1,
            "post-recovery packet delivered exactly once: {entries:?}"
        );
    }

    #[test]
    fn killed_sites_discard_in_flight_traffic() {
        let mut c = two_sites();
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
            out.send(Packet::new(
                a,
                b,
                PacketKind::Data,
                Message::with_body("ping"),
            ));
        });
        c.kill(SiteId(1));
        c.run_until(SimTime(1_000_000));
        let got = c
            .with_node::<Echo, _>(SiteId(0), |h, _n, _o| h.received.len())
            .unwrap();
        assert_eq!(got, 0, "no pong from a dead site");
    }

    #[test]
    fn hard_kill_drops_in_flight_outbound_packets() {
        let mut c = two_sites();
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
            for i in 0..5u64 {
                out.send(Packet::new(a, b, PacketKind::Data, Message::with_body(i)));
            }
        });
        c.kill_dropping_outbound(SiteId(0));
        c.run_until(SimTime(1_000_000));
        let got = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.received.len())
            .unwrap();
        assert_eq!(
            got, 0,
            "a hard-killed site's in-flight sends die on the wire"
        );
    }

    #[test]
    fn cut_links_swallow_packets_and_heal_restores_them() {
        let mut c = two_sites();
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        c.set_link_faults(LinkFaults::partition(&[vec![SiteId(0)], vec![SiteId(1)]]));
        c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
            out.send(Packet::new(
                a,
                b,
                PacketKind::Data,
                Message::with_body("ping"),
            ));
        });
        c.run_until(SimTime(500_000));
        let got = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.received.len())
            .unwrap();
        assert_eq!(got, 0, "a cut link swallows the packet");

        c.set_link_faults(LinkFaults::default());
        c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
            out.send(Packet::new(
                a,
                b,
                PacketKind::Data,
                Message::with_body("ping"),
            ));
        });
        c.run_until(SimTime(1_000_000));
        let got = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.received.len())
            .unwrap();
        assert_eq!(got, 1, "healed links deliver again");
    }

    #[test]
    fn one_way_cut_blocks_one_direction_only() {
        let mut c = two_sites();
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        // Site 0 cannot reach site 1, but replies (1 -> 0) flow.
        c.set_link_faults(LinkFaults::one_way(&[SiteId(0)], &[SiteId(1)]));
        c.with_node::<Echo, _>(SiteId(1), |_h, _now, out| {
            out.send(Packet::new(
                b,
                a,
                PacketKind::Data,
                Message::with_body("ping"),
            ));
        });
        c.run_until(SimTime(500_000));
        let at_zero = c
            .with_node::<Echo, _>(SiteId(0), |h, _n, _o| h.received.len())
            .unwrap();
        assert_eq!(at_zero, 1, "1 -> 0 still delivers");
        let at_one = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.received.len())
            .unwrap();
        assert_eq!(at_one, 0, "the pong (0 -> 1) died on the cut link");
    }

    #[test]
    fn delay_spikes_slow_surviving_links() {
        let run = |spike: Duration| {
            let mut c = two_sites();
            let a = ProcessId::new(SiteId(0), 0);
            let b = ProcessId::new(SiteId(1), 0);
            c.set_link_faults(LinkFaults::default().with_extra_delay(spike));
            c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
                out.send(Packet::new(
                    a,
                    b,
                    PacketKind::Data,
                    Message::with_body("ping"),
                ));
            });
            c.run_until(SimTime(5_000_000));
            c.with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.received[0].0)
                .unwrap()
        };
        let base = run(Duration::ZERO);
        let spiked = run(Duration::from_millis(100));
        assert!(
            spiked >= base + Duration::from_millis(100),
            "spike adds at least its latency: base {base:?}, spiked {spiked:?}"
        );
    }

    #[test]
    fn one_link_stays_fifo_across_the_end_of_a_delay_spike() {
        let mut c = two_sites();
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(1), 0);
        let send = |c: &mut SimCluster, body: &'static str| {
            c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
                out.send(Packet::new(
                    a,
                    b,
                    PacketKind::Data,
                    Message::with_body(body),
                ));
            });
        };
        c.set_link_faults(LinkFaults::default().with_extra_delay(Duration::from_millis(100)));
        send(&mut c, "first");
        c.set_link_faults(LinkFaults::default());
        send(&mut c, "second");
        c.run_until(SimTime(1_000_000));
        let got: Vec<String> = c
            .with_node::<Echo, _>(SiteId(1), |h, _n, _o| {
                h.received.iter().map(|(_, body)| body.clone()).collect()
            })
            .unwrap();
        assert_eq!(
            got,
            ["first", "second"],
            "a packet sent after the spike queues behind"
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let params = NetParams {
                faults: FaultPlan::none()
                    .with_drop(0.1)
                    .with_jitter(Duration::from_micros(200)),
                ..NetParams::modern()
            };
            let mut c = SimCluster::new(2, params, seed);
            c.install(SiteId(0), Echo::boxed());
            c.install(SiteId(1), Echo::boxed());
            let a = ProcessId::new(SiteId(0), 0);
            let b = ProcessId::new(SiteId(1), 0);
            c.with_node::<Echo, _>(SiteId(0), |_h, _now, out| {
                for i in 0..10u64 {
                    out.send(Packet::new(a, b, PacketKind::Data, Message::with_body(i)));
                }
            });
            c.run_until(SimTime(1_000_000));
            c.with_node::<Echo, _>(SiteId(1), |h, _n, _o| h.received.clone())
                .unwrap()
        };
        assert_eq!(run(9), run(9), "identical seeds replay identically");
        assert_ne!(run(9), run(10), "with faults, the seed picks the schedule");
    }
}
