//! Umbrella crate for the vsync workspace — a reproduction of the ISIS virtual
//! synchrony toolkit from Birman & Joseph, *"Exploiting Virtual Synchrony in
//! Distributed Systems"* (SOSP 1987).
//!
//! This crate exists so the repository root can host the cross-crate integration
//! tests (`tests/`) and the runnable examples (`examples/`), and so downstream
//! consumers can pull the whole stack in with a single dependency.  Each layer is
//! re-exported under its short name:
//!
//! * [`util`] — ids, virtual time, logical clocks, deterministic RNG.
//! * [`msg`] — the ISIS symbol-table message representation and binary codec.
//! * [`net`] — the simulated LAN's network model and calendar queue, the sans-io
//!   `SiteHandler`/`Outbox` interface, and the failure detector.
//! * [`proto`] — CBCAST / ABCAST / GBCAST sans-io protocol state machines.
//! * [`core`] — the user-facing toolkit core: processes, group RPC, and the
//!   per-site protocol stack.
//! * [`rt`](mod@rt) — runtime backends behind the `Transport` abstraction: the
//!   deterministic simulation and the multi-threaded in-process runtime (one OS
//!   thread per site, lock-protected channels, fault injection), driven through
//!   [`IsisHarness`](vsync_rt::IsisHarness).
//! * [`tools`] — the ISIS tool suite (coordinator–cohort, replicated data,
//!   semaphores, monitoring, recovery, state transfer, news, bulletin board).
//! * [`apps`] — worked applications: twenty questions (paper Section 5) and the
//!   factory-automation scenario.
//! * [`bench`](mod@bench) — the measurement harness that regenerates the paper's tables
//!   and figures.

pub use vsync_apps as apps;
pub use vsync_bench as bench;
pub use vsync_core as core;
pub use vsync_msg as msg;
pub use vsync_net as net;
pub use vsync_proto as proto;
pub use vsync_rt as rt;
pub use vsync_tools as tools;
pub use vsync_util as util;
