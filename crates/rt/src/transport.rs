//! The [`Transport`] abstraction and the [`Node`] driver loop.
//!
//! A transport is everything a site's protocol stack needs from the outside world: a local
//! clock, a way to send [`Packet`]s toward other sites, a timer service, and a source of
//! incoming events.  The stack itself ([`SiteHandler`]) stays sans-io — it reacts to packets
//! and timers by recording actions in an [`Outbox`] — and the [`Node`] loop is the one piece
//! of glue that pumps transport events into the handler and flushes the outbox back into the
//! transport.
//!
//! Two backends implement the trait:
//!
//! * [`crate::sim::SimTransport`] — the discrete-event simulation: deterministic virtual
//!   time, a shared calendar queue, the [`vsync_net::NetworkModel`] latency/loss model.
//! * [`crate::threaded::ThreadedTransport`] — real OS threads: wall-clock time, packets
//!   serialized across lock-protected channels, fault injection at the sending side.
//!
//! Because both backends drive the *same* `Node::handle` path, anything proven about the
//! protocol stack under the simulator (ordering, view agreement, flush atomicity) carries
//! over structurally to the threaded runtime; what changes is only where events come from
//! and how time advances.

use vsync_net::{Outbox, Packet, SiteHandler};
use vsync_util::{Duration, SimTime, SiteId};

/// An event delivered to a node by its transport.
pub enum Event {
    /// A packet addressed to a process on this node's site.
    Packet(Packet),
    /// A timer armed earlier by this node has fired.
    Timer(u64),
    /// A control-plane closure injected from outside the node ("a client calls the toolkit
    /// now"; the threaded counterpart of `Node::with_handler`).
    Invoke(InvokeFn),
}

/// A closure injected into a node's event loop.  It runs on the node's thread with
/// exclusive access to the handler, so external callers never share the stack's state;
/// results travel back over whatever channel the closure captured.
pub type InvokeFn = Box<dyn FnOnce(&mut dyn SiteHandler, SimTime, &mut Outbox) + Send>;

/// Boxes a closure as an [`InvokeFn`].  Going through this helper (rather than `Box::new`
/// at the call site) lets the compiler infer the closure as higher-ranked over the borrow
/// lifetimes, which a bare `Box::new(...) as InvokeFn` coercion cannot.
pub fn invoke_fn(
    f: impl FnOnce(&mut dyn SiteHandler, SimTime, &mut Outbox) + Send + 'static,
) -> InvokeFn {
    Box::new(f)
}

/// What a node needs from its environment: clock, egress, timers, and an event source.
pub trait Transport {
    /// The site this transport serves.
    fn site(&self) -> SiteId;

    /// The current time.  Virtual for the simulation, microseconds since cluster start for
    /// the threaded backend — the protocol stacks only ever compare and add, so the same
    /// state machines run on both.
    fn now(&self) -> SimTime;

    /// Submits a packet for delivery.  Same-site traffic loops back locally; cross-site
    /// traffic goes through the backend's network (simulated links or inter-thread
    /// channels), which decides when — and, under fault injection, in what order — it
    /// arrives.
    fn send(&mut self, pkt: Packet);

    /// Arms a timer that fires `after` from now, identified by `token`.
    fn set_timer(&mut self, after: Duration, token: u64);

    /// Returns the next event ready for this node.
    ///
    /// With `block` the call waits until an event is ready and returns `None` only when the
    /// transport is closed for good (every sender gone — the node should exit).  Without
    /// `block` it returns `None` as soon as nothing is ready right now.
    fn recv(&mut self, block: bool) -> Option<Event>;
}

/// The driver loop that owns one site's protocol stack and its transport.
///
/// The loop is deliberately tiny: receive an event, dispatch it into the handler, flush the
/// recorded actions back into the transport.  The simulation calls `Node::poll` from its
/// scheduler; the threaded backend parks in `Node::run` on its own OS thread.
///
/// Both look one event ahead: the event after the one being handled is taken from the
/// transport first, if it is ready, so that the handler can be told whether another packet
/// follows at once ([`Outbox::packet_follows`]).  The lookahead never waits: an event that
/// is not ready yet ends the run.
pub struct Node<T: Transport> {
    transport: T,
    handler: Box<dyn SiteHandler>,
    out: Outbox,
    events: u64,
}

impl<T: Transport> Node<T> {
    /// Creates a node.  Call [`Node::start`] before pumping events so the handler can arm
    /// its initial timers.
    pub(crate) fn new(transport: T, handler: Box<dyn SiteHandler>) -> Self {
        let mut out = Outbox::new();
        // Nodes normally do not collect traces: the threaded backend has no global trace
        // sink, and handlers using `trace_with` should skip the formatting entirely.
        // `VSYNC_RT_TRACE=1` flips them on and streams every line to stderr (interleaved
        // across node threads, each line prefixed by its site) — the only way to watch a
        // protocol exchange unfold on the OS-scheduled backend.
        out.set_trace_collection(std::env::var_os("VSYNC_RT_TRACE").is_some());
        Node {
            transport,
            handler,
            out,
            events: 0,
        }
    }

    /// The node's transport (for what it counted).
    pub(crate) fn transport(&self) -> &T {
        &self.transport
    }

    /// Runs the handler's `on_start` hook and flushes its actions.
    pub(crate) fn start(&mut self) {
        let now = self.transport.now();
        self.handler.on_start(now, &mut self.out);
        self.flush();
    }

    /// Dispatches one event into the handler and flushes the recorded actions.  First
    /// takes the next event, if one is ready, and returns it: a packet is told whether
    /// another packet follows it.
    fn handle(&mut self, ev: Event) -> Option<Event> {
        let next = self.transport.recv(false);
        let now = self.transport.now();
        match ev {
            Event::Packet(pkt) => {
                let follows = matches!(next, Some(Event::Packet(_)));
                self.out.set_packet_follows(follows);
                self.handler.on_packet(now, pkt, &mut self.out);
                self.out.set_packet_follows(false);
            }
            Event::Timer(token) => self.handler.on_timer(now, token, &mut self.out),
            Event::Invoke(f) => f(self.handler.as_mut(), now, &mut self.out),
        }
        self.events += 1;
        self.flush();
        next
    }

    /// Drains every event that is ready *right now* (non-blocking); returns how many were
    /// handled.  This is the entry point the simulation scheduler uses after routing events
    /// into the node's inbox.
    pub(crate) fn poll(&mut self) -> u64 {
        let mut n = 0;
        let mut next = self.transport.recv(false);
        while let Some(ev) = next {
            next = self.handle(ev);
            n += 1;
        }
        n
    }

    /// Blocks on the transport until it closes, dispatching every event.  This is the body
    /// of a threaded node's OS thread.  Returns the total number of events handled.
    pub(crate) fn run(&mut self) -> u64 {
        let mut next = None;
        while let Some(ev) = next.take().or_else(|| self.transport.recv(true)) {
            next = self.handle(ev);
        }
        self.events
    }

    /// Runs `f` against the concrete handler (downcast through
    /// [`SiteHandler::as_any_mut`]), then flushes whatever actions it recorded.
    /// Returns `None` if the concrete type does not match.
    pub(crate) fn with_handler<H: SiteHandler, R>(
        &mut self,
        f: impl FnOnce(&mut H, SimTime, &mut Outbox) -> R,
    ) -> Option<R> {
        let now = self.transport.now();
        let result = self
            .handler
            .as_any_mut()
            .downcast_mut::<H>()
            .map(|h| f(h, now, &mut self.out));
        self.flush();
        result
    }

    /// Turns the outbox's recorded actions into transport calls, retaining the buffers.
    fn flush(&mut self) {
        for pkt in self.out.drain_sends() {
            self.transport.send(pkt);
        }
        for (after, token) in self.out.drain_timers() {
            self.transport.set_timer(after, token);
        }
        // With `VSYNC_RT_TRACE` set the collected lines stream to stderr; otherwise the
        // outbox collects none (see `Node::new`).
        if self.out.traces_enabled() {
            let now = self.transport.now();
            for line in self.out.drain_traces() {
                eprintln!("[rt {now:?}] {line}");
            }
        }
    }
}
