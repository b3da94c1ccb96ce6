//! The ISIS multicast protocols (paper Section 3.1) as sans-io state machines.
//!
//! This crate implements the ordering machinery that makes process groups *virtually
//! synchronous*:
//!
//! * [`cbcast`] — causally ordered multicast: messages that are potentially causally related
//!   are delivered everywhere in their causal order; unrelated messages may be delivered in
//!   different orders at different members.
//! * [`abcast`] — totally ordered atomic multicast using the ISIS two-phase priority scheme
//!   (every destination proposes a priority, the initiator picks the maximum and announces
//!   it; ties are broken by proposer site).
//! * [`flush`] + [`endpoint`] — GBCAST and the view-change protocol: a coordinator collects
//!   every member's unstable messages, redistributes the union, finalises pending ABCAST
//!   orderings, and installs the new view, so that all survivors observe the same set of
//!   messages before every membership change — the defining property of virtual synchrony.
//! * [`stability`] — tracking of which messages are known to have reached every member, so
//!   flush reports stay small.
//! * [`sequencer`] — the hop counts of a fixed-sequencer total order, for the ablation
//!   benchmark.
//!
//! Everything here is deterministic and free of I/O: inputs are explicit calls plus a clock
//! value, outputs are [`output::EndpointOutput`] values that the hosting layer (the
//! `vsync-core` protocol stack) turns into packets, timers and application deliveries.

pub mod abcast;
pub mod cbcast;
pub mod config;
pub mod endpoint;
pub mod flush;
pub mod frontier;
pub mod messages;
pub mod output;
pub mod reform;
pub mod sequencer;
pub mod stability;
pub mod view;

pub use config::ProtoConfig;
pub use endpoint::{GossipReport, GroupEndpoint};
pub use frontier::{Frontier, IdSet};
pub use messages::{Entries, ProtoMsg, StabilityEntry};
pub use output::{Delivery, EndpointOutput, ViewEvent};
pub use reform::{LogSummary, ReformStatus, ReformTracker};
pub use view::View;
