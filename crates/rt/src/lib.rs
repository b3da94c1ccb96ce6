//! Runtime backends for the vsync stack: the step from "reproduction" to "system".
//!
//! Everything below `vsync-core` is sans-io: protocol endpoints and site stacks react to
//! packets and timers by recording actions in an outbox.  This crate is what *drives* them:
//! a small [`Transport`] abstraction with two interchangeable backends:
//!
//! * [`sim`] — the discrete-event simulation: deterministic virtual time over `vsync-net`'s
//!   calendar queue and network model.  Properties are proved here.
//! * [`threaded`] — one OS thread per site; packets are serialized through the toolkit
//!   codec and flow over lock-protected channels (`parking_lot` mutexes).  Properties are
//!   *exercised under real concurrency* here.
//!
//! Both inject the same link faults at the sending side: a [`FaultPlan`] settled by
//! `vsync-net`'s `Channels`, and the [`LinkFaults`] table.
//!
//! Layering:
//!
//! * [`transport`] — the [`Transport`] trait and the [`Node`] driver loop both backends
//!   share.
//! * [`chan`] — the blocking MPSC channel (parking_lot mutex + thread parking) that serves
//!   as the threaded backend's wire.
//! * [`wire`] — packet serialization for thread-boundary crossings; keeps every `Rc`-based
//!   protocol structure provably thread-local.
//! * [`faults`] — the link table ([`LinkFaults`]: cuts and delay spikes) and timed
//!   partition / heal / crash / delay-spike schedules ([`NemesisSchedule`]).
//! * [`harness`] — backend-generic stack construction and toolkit operations
//!   ([`IsisHarness`]), so scenarios (including the cross-backend conformance tests) are
//!   written once.
//! * [`invariants`] — the virtual-synchrony checker: replays per-member view logs and
//!   view-tagged delivery logs, asserting no two concurrent primary views, monotone views,
//!   exactly-once delivery, the same deliveries per view among the members that moved on
//!   together (in one order, for ABCAST), and post-heal convergence to one state order.
//!
//! Determinism ends at the threaded backend's scheduler: fault *decisions* stay seeded and
//! reproducible per node, but thread interleaving is the operating system's.  The
//! conformance suite therefore checks *invariants* (identical per-group delivery orders
//! relative to views) rather than identical schedules — see ARCHITECTURE.md's "Runtime"
//! section.

pub mod chan;
pub mod faults;
pub mod harness;
pub mod invariants;
pub mod sim;
pub mod threaded;
pub mod transport;
pub mod wire;

pub use faults::{LinkFaults, NemesisEvent, NemesisSchedule, ScheduledNemesis};
pub use harness::{IsisHarness, IsisRuntime, SimRuntime, StackJob, ThreadedRuntime};
pub use invariants::{InvariantViolation, MemberTimeline, PartitionInvariants};
pub use sim::{SimCluster, SimTransport};
pub use threaded::{NodeReport, ThreadedCluster, ThreadedTransport};
pub use transport::{Event, InvokeFn, Node, Transport};
pub use vsync_util::FaultPlan;
pub use wire::WirePacket;
