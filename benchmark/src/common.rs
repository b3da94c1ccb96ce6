//! Plumbing every workload shares: run arguments, the message shape, the recording
//! application handler and the latency board.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bytes::Bytes;
use vsync_core::{EntryId, Message, ProcessBuilder};
use vsync_util::{DetRng, SiteId};

use crate::oracle::{ChunkLog, OpId, OpKind, Verdict};
use crate::trace::{self, Layer};

/// The entry every benchmark member binds.
pub const ENTRY: EntryId = EntryId(60);

/// Arguments of one workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// `--seconds`: the size of the timed work scales with it.
    pub seconds: f64,
    /// How long the timed window may stay open: `--seconds` too, except in tests, whose
    /// unoptimised builds must not be cut short.
    pub cap_seconds: f64,
    /// Wrap stacks in the tracing handler and collect per-layer numbers.
    pub traced: bool,
    /// How many times set-up is repeated (the median is reported).
    pub setups: usize,
    /// Factor applied to the fixed warm-up sizes (1 for measurements, less for smoke runs).
    pub scale: f64,
}

impl RunArgs {
    /// A fixed warm-up size scaled for this run (never below one).
    pub fn scaled(&self, size: u64) -> u64 {
        ((size as f64 * self.scale) as u64).max(1)
    }

    /// The timed work of this run: a workload's frozen operations per second of
    /// `--seconds`, times `--seconds` (never below one).
    pub fn timed(&self, ops_per_s: u64) -> u64 {
        ((ops_per_s as f64 * self.seconds) as u64).max(1)
    }
}

/// What a workload hands back: the oracle's verdict plus named measurements.  End-to-end
/// names and per-layer names live in one map; the caller picks the ones its mode prints.
#[derive(Debug, Default)]
pub struct Outcome {
    pub verdict: Verdict,
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form facts for the human-readable report (sample counts and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// `len` seeded bytes.
pub fn seeded_bytes(rng: &mut DetRng, len: usize) -> Bytes {
    let mut v = vec![0u8; len];
    for chunk in v.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    Bytes::from(v)
}

/// A few seeded payload bodies of one size, rotated across operations.  `Bytes` is
/// reference-counted, so building a message clones a pointer, not the body.
pub struct Bodies {
    pool: Vec<Bytes>,
}

impl Bodies {
    pub fn new(rng: &mut DetRng, len: usize) -> Self {
        Bodies {
            pool: (0..8).map(|_| seeded_bytes(rng, len)).collect(),
        }
    }

    /// The application message for one operation: the body plus the operation id.
    pub fn message(&self, id: OpId) -> Message {
        let body = self.pool[id.index() as usize % self.pool.len()].clone();
        Message::with_body(body).with("op", u64::from(id.0))
    }
}

/// The latest runtime-clock instant any member delivered each sampled operation at.
/// Slots are allocated in chunks on first touch, so an idle board costs nothing.
pub struct LatencyBoard {
    stride: u32,
    chunks: Vec<OnceLock<Box<[AtomicU64]>>>,
}

const BOARD_CHUNK: usize = 64 * 1024;

impl LatencyBoard {
    /// A board sampling every `stride`-th operation.
    pub fn new(stride: u32) -> Arc<Self> {
        let slots = crate::oracle::MAX_OPS as usize / stride as usize;
        Arc::new(LatencyBoard {
            stride,
            chunks: (0..slots.div_ceil(BOARD_CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
        })
    }

    pub fn samples(&self, index: u32) -> bool {
        index.is_multiple_of(self.stride)
    }

    fn slot(&self, index: u32) -> &AtomicU64 {
        let i = (index / self.stride) as usize;
        let chunk = self.chunks[i / BOARD_CHUNK]
            .get_or_init(|| (0..BOARD_CHUNK).map(|_| AtomicU64::new(0)).collect());
        &chunk[i % BOARD_CHUNK]
    }

    /// Records a delivery of a sampled operation at runtime-clock instant `now_us`.
    pub fn delivered(&self, index: u32, now_us: u64) {
        // A statistic that publishes nothing else: Relaxed.
        self.slot(index).fetch_max(now_us, Ordering::Relaxed);
    }

    /// Latest delivery instant of a sampled operation (0 if none was recorded).
    pub fn last_delivery(&self, index: u32) -> u64 {
        self.slot(index).load(Ordering::Relaxed)
    }
}

/// What one member shares with the driver: the log its handler appends to and a counter
/// of its deliveries.
#[derive(Clone, Default)]
pub struct MemberHandle {
    log: Arc<Mutex<ChunkLog>>,
    delivered: Arc<AtomicU64>,
}

impl MemberHandle {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Acquire)
    }

    /// The member's log as operation ids.
    pub fn log(&self) -> Vec<OpId> {
        let log = self
            .log
            .lock()
            .expect("member log poisoned: a handler panicked");
        log.iter().map(OpId).collect()
    }
}

/// The part of every benchmark handler that feeds the oracle: reads the operation id,
/// appends it to the member's log and bumps the member's counter.  `None` for a message
/// that is not a benchmark operation.
pub fn record_delivery(msg: &Message, member: &MemberHandle, traced: bool) -> Option<OpId> {
    let id = OpId(msg.get_u64("op")? as u32);
    if traced {
        trace::set_op(id.index());
    }
    member
        .log
        .lock()
        .expect("member log poisoned: a handler panicked")
        .push(id.0);
    // Release pairs with the driver's Acquire load: a counter value implies the log
    // entries behind it are visible.
    member.delivered.fetch_add(1, Ordering::Release);
    Some(id)
}

/// Binds the recording handler the simulator workloads use: log the operation, note its
/// delivery instant on the board, answer it if it is an RPC.  In a traced run the handler
/// is a span of its own so its time is not charged to the stack.
pub fn bind_recorder(
    b: &mut ProcessBuilder,
    site: SiteId,
    member: MemberHandle,
    board: Arc<LatencyBoard>,
    traced: bool,
) {
    b.on_entry(ENTRY, move |ctx, msg| {
        if traced {
            trace::begin(Layer::Handler, site);
        }
        if let Some(id) = record_delivery(msg, &member, traced) {
            if board.samples(id.index()) {
                board.delivered(id.index(), ctx.now().as_micros());
            }
            if id.kind() == OpKind::Rpc {
                ctx.reply(msg, Message::new());
            }
        }
        if traced {
            trace::end();
        }
    });
}
