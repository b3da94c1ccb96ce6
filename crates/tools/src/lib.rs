//! The ISIS toolkit (paper Sections 3.3 – 3.10).
//!
//! Each module implements one of the tools the paper describes, on top of the virtually
//! synchronous process groups of `vsync-core`.  All tools follow the same pattern: a struct
//! holding `Rc<RefCell<..>>` state is created by the application, *attached* to a
//! [`vsync_core::ProcessBuilder`] (binding the generic entry points and monitors the tool
//! needs), and then used from inside the application's own entry handlers through plain
//! method calls — exactly the "set of subroutines callable from application software" the
//! paper promises.
//!
//! | Paper section | Tool | Module |
//! |---|---|---|
//! | 3.3 | configuration tool | [`config_tool`] |
//! | 3.3 | quorum / full replication calls | [`quorum`] |
//! | 3.3, 6 | coordinator–cohort | [`coordinator`] |
//! | 3.5 | replicated semaphores | [`semaphore`] |
//! | 3.6 | replicated data (with optional logging) | [`replicated`] |
//! | 3.7 | site / process monitoring | [`monitor`] |
//! | 3.8 | recovery manager + stable storage | [`recovery`], [`stable`] |
//! | 3.8 | state transfer | [`transfer`] |
//! | 3.9 | news service | [`news`] |
//! | 3.11 | bulletin board (designed-but-future in the paper; implemented here) | [`bboard`] |

pub mod bboard;
pub mod config_tool;
pub mod coordinator;
pub mod monitor;
pub mod news;
pub mod quorum;
pub mod recovery;
pub mod replicated;
pub mod semaphore;
pub mod stable;
pub mod transfer;

pub use bboard::BulletinBoard;
pub use config_tool::ConfigTool;
pub use coordinator::CoordCohort;
pub use monitor::SiteMonitor;
pub use news::NewsService;
pub use recovery::{RecoveryManager, ReplaySummary};
pub use replicated::{ReplicatedData, UpdateOrdering};
pub use semaphore::SemaphoreTool;
pub use stable::{FileStore, MemoryStore, StableStore};
pub use transfer::StateTransfer;
