//! The sans-io interface between a site's protocol stack and whatever drives it.
//!
//! A [`SiteHandler`] is one site's "protocols process" together with the client processes it
//! serves (paper Figure 1).  It never touches a clock, a socket or a timer wheel: it reacts to
//! packets and timers by recording actions in an [`Outbox`], and the driver (the simulated or
//! the threaded runtime in `vsync-rt`) turns those actions into deliveries and timer events.
//! A crashed site is simply a handler the driver has dropped — the fail-stop behaviour the
//! paper assumes (Section 2.1).

use std::any::Any;

use vsync_util::{Duration, SimTime};

use crate::packet::Packet;

/// A per-site event handler: the site's protocol stack together with the processes it hosts.
pub trait SiteHandler: Any {
    /// Called once when the site starts (or restarts after recovery).
    fn on_start(&mut self, _now: SimTime, _out: &mut Outbox) {}

    /// Called when a packet addressed to a process on this site arrives.
    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Outbox);

    /// Called when a timer set by this site fires.
    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Outbox);

    /// Downcasting hook so harnesses can reach their concrete site runtime.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Actions a handler wants its driver to perform, and what the driver tells the handler of
/// the event after this one.
pub struct Outbox {
    sends: Vec<Packet>,
    timers: Vec<(Duration, u64)>,
    traces: Vec<String>,
    /// Whether trace lines are kept.  Drivers set this once, so handlers using
    /// [`Outbox::trace_with`] skip even the string formatting when traces are off.
    collect_traces: bool,
    /// Whether the driver already holds another packet for the handler, ready to be handled
    /// next (see [`Outbox::packet_follows`]).
    packet_follows: bool,
}

impl Default for Outbox {
    fn default() -> Self {
        Outbox {
            sends: Vec::new(),
            timers: Vec::new(),
            traces: Vec::new(),
            // A free-standing outbox (handler unit tests) records traces; a runtime driver
            // chooses its own setting at construction.
            collect_traces: true,
            packet_follows: false,
        }
    }
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queues a packet for transmission.
    pub fn send(&mut self, pkt: Packet) {
        self.sends.push(pkt);
    }

    /// Requests a timer callback `after` from now, identified by `token`.
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        self.timers.push((after, token));
    }

    /// Records a lazily-built trace line; `make` runs only if traces are being collected,
    /// so disabled tracing costs one branch instead of a `format!` allocation.
    pub fn trace_with(&mut self, make: impl FnOnce() -> String) {
        if self.collect_traces {
            self.traces.push(make());
        }
    }

    /// True if trace lines are currently being kept (lets handlers gate extra diagnostic
    /// work beyond the line itself).
    pub fn traces_enabled(&self) -> bool {
        self.collect_traces
    }

    /// Enables or disables trace collection.  Runtime drivers (the `vsync-rt` node loop)
    /// configure it once at construction.
    pub fn set_trace_collection(&mut self, on: bool) {
        self.collect_traces = on;
    }

    /// True while the handler handles a packet that its driver will follow, at once, with
    /// another packet: the run of packets goes on.  A handler may hold back what it would
    /// send in answer to every packet of the run (a site's ABCAST proposals and orders) and
    /// send it as one frame when the run ends, which delays nothing the transport was not
    /// holding back anyway.  False for everything else — a timer, an injected call, the
    /// last packet that is ready, and any outbox not filled by a driver's event loop — so a
    /// handler that holds something sends it before the call returns.
    pub fn packet_follows(&self) -> bool {
        self.packet_follows
    }

    /// Says whether the next event the driver will hand the handler is another packet that
    /// is already ready.  Set by the event loop around each packet it dispatches.
    pub fn set_packet_follows(&mut self, follows: bool) {
        self.packet_follows = follows;
    }

    /// Drains the queued packet sends.  Used by runtime drivers that flush a dispatch's
    /// actions into a transport; the buffer's capacity is retained for reuse.
    pub fn drain_sends(&mut self) -> std::vec::Drain<'_, Packet> {
        self.sends.drain(..)
    }

    /// Drains the queued timer requests (`(after, token)` pairs).
    pub fn drain_timers(&mut self) -> std::vec::Drain<'_, (Duration, u64)> {
        self.timers.drain(..)
    }

    /// Drains the recorded trace lines.
    pub fn drain_traces(&mut self) -> std::vec::Drain<'_, String> {
        self.traces.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_standing_outbox_records_traces_for_unit_tests() {
        let mut out = Outbox::new();
        assert!(
            !out.packet_follows(),
            "no run of packets goes on by default"
        );
        assert!(out.traces_enabled());
        out.trace_with(|| "kept".to_owned());
        assert_eq!(out.drain_traces().collect::<Vec<_>>(), ["kept"]);
    }
}
