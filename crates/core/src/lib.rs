//! The user-facing virtual synchrony toolkit core (the paper's primary contribution surface).
//!
//! This crate assembles the protocol machinery of `vsync-proto` into the programming model
//! the paper describes:
//!
//! * [`process`] — the per-process runtime: entry points, monitors, and the
//!   [`process::ToolCtx`] handle through which handlers issue multicasts, replies and calls
//!   (the continuation-style equivalent of ISIS's lightweight tasks).
//! * [`rpc`] — group RPC: multicast a request, collect 0 / 1 / N / ALL replies, discard
//!   duplicate and null replies, and fail cleanly when every destination has crashed
//!   (paper Section 3.2).
//! * [`stack`] — the per-site protocols process of Figure 1: a router that owns one
//!   [`vsync_proto::GroupEndpoint`] per group, the failure detector and the group-name
//!   directory cache, and relays multicasts issued by non-member clients.  Three parts it
//!   owns keep a job each: the joins waiting for their view, the total-failure reform
//!   elections, and (in [`rpc`]) the group-RPC sessions.
//! * [`protection`] — sender validation and join-credential checks (paper Section 3.10).
//!
//! The crate is sans-io: a [`SiteStack`] reacts to packets and timers through a
//! `vsync_net::Outbox`.  Running stacks — on the deterministic simulator or on OS threads —
//! is `vsync-rt`'s job, and its `IsisHarness` is where every example, test and benchmark
//! starts.
//!
//! The crate deliberately exposes the same vocabulary as the paper: `pg_create`, `pg_join`,
//! `pg_lookup`, `pg_monitor`, CBCAST / ABCAST / GBCAST, coordinator–cohort (in `vsync-tools`),
//! and so on, so the twenty-questions walk-through of Section 5 can be followed line by line
//! in `examples/twenty_questions.rs`.

pub mod config;
pub mod process;
pub mod protection;
pub mod rpc;
pub mod stack;

pub use config::StackConfig;
pub use process::{CtxAction, EntryHandler, IsisProcess, MonitorHandler, ProcessBuilder, ToolCtx};
pub use protection::ProtectionPolicy;
pub use rpc::{ReplyWanted, RpcOutcome};
pub use stack::SiteStack;

// Re-export the identifiers and message types users need constantly.
pub use vsync_msg::{fields, Message, Value};
pub use vsync_net::{MsgId, NetStats, ProtocolKind, SharedStats};
pub use vsync_proto::{Delivery, Frontier, LogSummary, View, ViewEvent};
pub use vsync_util::{
    Address, Duration, EntryId, GroupId, LatencyProfile, NetParams, ProcessId, Rank, Result,
    SimTime, SiteId, VsError,
};
