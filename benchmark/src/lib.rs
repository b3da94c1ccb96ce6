//! The vsync benchmark.  See `README.md` for the metrics, the workloads and why each
//! exists; `BENCHMARK.json` at the repository root is the contract the driver reads.

pub mod alloc;
pub mod cli;
pub mod common;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod runtime;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod window;
pub mod workloads;
