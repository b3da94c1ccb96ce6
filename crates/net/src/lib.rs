//! The network substrate for the vsync reproduction of ISIS.
//!
//! The paper measured ISIS on four SUN 3/50 workstations on a 10 Mbit Ethernet; we substitute
//! a **deterministic discrete-event simulated LAN** whose latency model uses exactly the
//! constants the paper reports (10 ms intra-site hop, 16 ms inter-site packet, 4 KiB
//! fragmentation — Section 7, Figure 3).  On top of it, each link may inject the delay,
//! jitter, loss and reordering of a [`vsync_util::FaultPlan`]; loss is recovered by
//! retransmission (the paper's system "tolerates message loss, but not partitioning").
//!
//! The crate provides:
//!
//! * [`packet`] — the inter-process datagram exchanged between sites.
//! * [`stats`] — counters used to regenerate Table 1 (multicasts per toolkit routine) and the
//!   message-count aspects of Figure 3.
//! * [`model`] — the latency / fragmentation model, and [`Channels`]: the one routine, used
//!   by both runtime backends, that applies a link's fault plan and keeps each channel FIFO.
//! * [`calendar`] — the bucketed calendar queue backing the simulator's event loop.
//! * [`handler`] — the sans-io [`SiteHandler`] interface and the [`Outbox`] it records its
//!   sends, timers and trace lines in; `vsync-rt` drives handlers on the simulated and the
//!   threaded backend.
//! * [`fail`] — the heartbeat failure detector with adaptive timeouts (paper Section 3.7).

pub mod calendar;
pub mod fail;
pub mod handler;
pub mod model;
pub mod packet;
pub mod stats;

pub use calendar::CalendarQueue;
pub use fail::FailureDetector;
pub use handler::{Outbox, SiteHandler};
pub use model::{Channels, NetworkModel};
pub use packet::{MsgId, Packet, PacketKind};
pub use stats::{NetStats, ProtocolKind, SharedStats};
