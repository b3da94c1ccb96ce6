//! Spans recorded from the benchmark's side of every layer boundary.
//!
//! Nothing inside the measured crates is instrumented.  A traced run wraps each site's
//! [`SiteStack`](vsync_core::SiteStack) in [`Traced`], which times every `on_packet` and
//! `on_timer`; the closures the driver injects time `issue_call`; the application handlers
//! the benchmark installs time themselves.  Spans nest (a handler runs inside the
//! `on_packet` that delivered to it), carry the span that caused them and the operation id
//! once a handler learns it, and stay in memory until the run ends.
//!
//! The recorder is thread-local: a threaded node records on its own thread without
//! sharing anything, and the simulator's nodes — all on one thread — share one recorder
//! and tell themselves apart by the span's `site`.

use std::any::Any;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use vsync_net::{Outbox, Packet, SiteHandler};
use vsync_util::{SimTime, SiteId};

use crate::json::Json;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    OnPacket = 0,
    OnTimer = 1,
    IssueCall = 2,
    Handler = 3,
}

pub const LAYERS: usize = 4;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::OnPacket => "core.on_packet",
            Layer::OnTimer => "core.on_timer",
            Layer::IssueCall => "core.issue_call",
            Layer::Handler => "app.handler",
        }
    }
}

const NONE: u32 = u32::MAX;

/// One recorded span.  `parent` indexes the same recorder's span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub site: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// Spans kept verbatim per recorder; past this only the per-layer durations are kept, so
/// a long run cannot grow the trace without bound.
const KEPT_SPANS: usize = 20_000;

struct Open {
    layer: Layer,
    start_ns: u64,
    /// Index in `spans`, or `NONE` once the cap is reached.
    index: u32,
    op: u32,
    child_ns: u64,
}

/// What one recorder collected.
#[derive(Default)]
pub struct NodeTrace {
    pub spans: Vec<Span>,
    /// Every span's duration, by layer, in arrival order.
    pub durations: [Vec<u32>; LAYERS],
    /// Per layer, time not covered by child spans.
    pub self_ns: [u64; LAYERS],
    open: Vec<Open>,
}

thread_local! {
    static RECORDER: RefCell<NodeTrace> = RefCell::new(NodeTrace::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's first traced instant.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Opens a span on this thread's recorder.
pub fn begin(layer: Layer, site: SiteId) {
    let start_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().map_or(NONE, |o| o.index);
        let index = if r.spans.len() < KEPT_SPANS {
            r.spans.push(Span {
                layer,
                site: site.0,
                start_ns,
                end_ns: start_ns,
                parent,
                op: NONE,
            });
            (r.spans.len() - 1) as u32
        } else {
            NONE
        };
        r.open.push(Open {
            layer,
            start_ns,
            index,
            op: NONE,
            child_ns: 0,
        });
    });
}

/// Tags the innermost open span — and every enclosing span that has no operation yet —
/// with the operation it works for.  Handlers call this once they have read the id.
pub fn set_op(op: u32) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let NodeTrace { open, spans, .. } = &mut *r;
        for o in open.iter_mut().rev() {
            if o.op != NONE {
                break;
            }
            o.op = op;
            if let Some(s) = spans.get_mut(o.index as usize) {
                s.op = op;
            }
        }
    });
}

/// Closes the innermost open span.
pub fn end() {
    let end_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(o) = r.open.pop() else { return };
        let dur = end_ns.saturating_sub(o.start_ns);
        if let Some(s) = r.spans.get_mut(o.index as usize) {
            s.end_ns = end_ns;
        }
        r.durations[o.layer as usize].push(dur.min(u64::from(u32::MAX)) as u32);
        r.self_ns[o.layer as usize] += dur.saturating_sub(o.child_ns);
        if let Some(parent) = r.open.last_mut() {
            parent.child_ns += dur;
        }
    });
}

/// Takes everything this thread recorded, leaving an empty recorder.
pub fn take() -> NodeTrace {
    RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

impl NodeTrace {
    /// Folds another recorder's output into this one (span parents are re-based).
    pub fn merge(&mut self, other: NodeTrace) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
        for (mine, theirs) in self.durations.iter_mut().zip(other.durations) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns) {
            *mine += theirs;
        }
    }

    pub fn count(&self, layer: Layer) -> u64 {
        self.durations[layer as usize].len() as u64
    }

    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.durations[layer as usize]
            .iter()
            .map(|d| u64::from(*d))
            .sum()
    }

    /// Durations of one layer widened for the percentile helpers.
    pub fn durations_of(&self, layer: Layer) -> Vec<u64> {
        self.durations[layer as usize]
            .iter()
            .map(|d| u64::from(*d))
            .collect()
    }

    /// The kept spans as a JSON array (name, site, start, end, parent, op).
    pub fn spans_json(&self) -> Json {
        let opt = |v: u32| {
            if v == NONE {
                Json::Null
            } else {
                Json::Num(f64::from(v))
            }
        };
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.layer.name())
                        .with("site", u64::from(s.site))
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("parent", opt(s.parent))
                        .with("op", opt(s.op))
                })
                .collect(),
        )
    }
}

/// A [`SiteHandler`] that times the handler it wraps.  `as_any_mut` hands out the wrapped
/// handler, so code that downcasts a node to its `SiteStack` (the harness does) keeps
/// working unchanged.
pub struct Traced<H: SiteHandler> {
    site: SiteId,
    inner: H,
}

impl<H: SiteHandler> Traced<H> {
    pub fn new(site: SiteId, inner: H) -> Self {
        Traced { site, inner }
    }
}

impl<H: SiteHandler> SiteHandler for Traced<H> {
    fn on_start(&mut self, now: SimTime, out: &mut Outbox) {
        self.inner.on_start(now, out);
    }

    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Outbox) {
        begin(Layer::OnPacket, self.site);
        self.inner.on_packet(now, pkt, out);
        end();
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Outbox) {
        begin(Layer::OnTimer, self.site);
        self.inner.on_timer(now, token, out);
        end();
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let _ = take();
        begin(Layer::OnPacket, SiteId(3));
        begin(Layer::Handler, SiteId(3));
        set_op(42);
        std::thread::sleep(std::time::Duration::from_millis(2));
        end();
        end();
        let t = take();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NONE);
        assert_eq!(t.spans[0].op, 42, "the op reaches the enclosing span");
        assert_eq!(t.spans[1].op, 42);
        assert_eq!(t.spans[0].site, 3);
        assert_eq!(t.count(Layer::OnPacket), 1);
        let outer = t.total_ns(Layer::OnPacket);
        let inner = t.total_ns(Layer::Handler);
        assert!(inner >= 2_000_000 && outer >= inner);
        assert_eq!(t.self_ns[Layer::OnPacket as usize], outer - inner);
        assert!(take().spans.is_empty(), "take drains");
    }

    #[test]
    fn merge_rebases_parents() {
        let _ = take();
        begin(Layer::OnTimer, SiteId(0));
        end();
        let mut a = take();
        begin(Layer::OnPacket, SiteId(1));
        begin(Layer::Handler, SiteId(1));
        end();
        end();
        a.merge(take());
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.count(Layer::OnTimer), 1);
        assert_eq!(a.count(Layer::Handler), 1);
        let line = a.spans_json().to_line();
        assert!(line.contains("\"core.on_timer\"") && line.contains("\"parent\": 1"));
    }
}
