//! Foundation types for the vsync reproduction of the ISIS virtual synchrony toolkit
//! (Birman & Joseph, "Exploiting Virtual Synchrony in Distributed Systems", SOSP 1987).
//!
//! This crate holds the vocabulary shared by every other crate in the workspace:
//!
//! * [`ids`] — compact identifiers for sites, processes, groups, views and entry points,
//!   mirroring the paper's 8-byte encoded addressing scheme (Section 4.1).
//! * [`time`] — the virtual time base used by the discrete-event simulator and by the
//!   sans-io protocol state machines.
//! * [`clock`] — the per-view vector clocks CBCAST orders by.
//! * [`error`] — the common error type.
//! * [`config`] — latency/bandwidth profiles, including the 1987 profile used to reproduce
//!   the paper's Figures 2 and 3, and the fault plan of an inter-site link.
//! * [`rng`] — a small deterministic RNG so simulations are reproducible from a seed.
//! * [`hash`] — a fast non-cryptographic hasher for hot-path maps keyed by toolkit ids.

pub mod clock;
pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod time;

pub use clock::VectorClock;
pub use config::{FaultPlan, LatencyProfile, NetParams};
pub use error::{Result, VsError};
pub use hash::{FastHashMap, FastHashSet, IdBuildHasher, IdHasher};
pub use ids::{Address, EntryId, GroupId, Incarnation, ProcessId, Rank, SiteId, ViewId};
pub use rng::DetRng;
pub use time::{Duration, SimTime};
