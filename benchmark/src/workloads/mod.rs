//! The workloads, by name, and what their traced runs share.

pub mod churn;
pub mod sim;
pub mod stream;

use vsync_net::{NetStats, PacketKind};
use vsync_proto::messages::wire_stats;

use crate::alloc::{self, AllocCount};
use crate::common::{Outcome, RunArgs};
use crate::json::Json;
use crate::layers::LadderShape;
use crate::oracle::OpKind;
use crate::stats;
use crate::trace::{Layer, NodeTrace};

/// How a workload is run.
enum Runner {
    Stream(stream::StreamShape),
    Paced(sim::PacedShape),
    Churn,
}

/// Everything the benchmark knows about one workload: how to run it, and the message
/// shape the from-outside ladder is measured with for it.
fn lookup(name: &str) -> Option<(Runner, LadderShape)> {
    use sim::PacedShape;
    use stream::StreamShape;
    let stream = |kind, body_len, warmup, ops_per_s| {
        Runner::Stream(StreamShape {
            kind,
            body_len,
            warmup,
            ops_per_s,
        })
    };
    let ladder = |width, body_len, abcast_pct, interval_us| LadderShape {
        width,
        body_len,
        abcast_pct,
        interval_us,
    };
    // The frozen sizes.  The timed work of a run is `ops_per_s` x `--seconds` operations
    // (600 k, 450 k, 270 k, 70 k and 160 k multicasts and 300 churn cycles for the
    // contract's 10 s): about two thirds of what this runner gets through in that time,
    // so that `--seconds` caps a run without normally cutting it short.
    Some(match name {
        // The streams are not paced; the ladder ticks its timers as often per multicast
        // as a stream at the usual rate does.
        "stream-cbcast-thr2" => (
            stream(OpKind::Cbcast, 16, 50_000, 60_000),
            ladder(2, 16, 0, 20),
        ),
        "stream-abcast-thr2" => (
            stream(OpKind::Abcast, 16, 30_000, 45_000),
            ladder(2, 16, 100, 30),
        ),
        "stream-bulk-thr2" => (
            stream(OpKind::Cbcast, 64 * 1024, 15_000, 27_000),
            ladder(2, 64 * 1024, 0, 40),
        ),
        "paced-mix-sim8" => (
            Runner::Paced(PacedShape {
                sites: 8,
                groups: 1,
                interval_us: 100,
                abcast_pct: 20,
                rpc_pct: 10,
                body_len: 256,
                warmup_ops: 8_000,
                ops_per_s: 7_000,
            }),
            ladder(8, 256, 20, 100),
        ),
        "multigroup-sim4" => (
            Runner::Paced(PacedShape {
                sites: 4,
                groups: 64,
                interval_us: 156,
                abcast_pct: 0,
                rpc_pct: 0,
                body_len: 64,
                warmup_ops: 12_800,
                ops_per_s: 16_000,
            }),
            // One group's view: a multicast every 10 ms of virtual time.
            ladder(4, 64, 0, 10_000),
        ),
        "churn-sim5" => (Runner::Churn, ladder(4, 256, 20, 200)),
        _ => return None,
    })
}

/// The ladder shape of a workload; `None` for a name the benchmark does not know.
pub fn ladder_shape(name: &str) -> Option<LadderShape> {
    lookup(name).map(|(_, shape)| shape)
}

/// Runs the named workload.  `None` for a name the benchmark does not know.
pub fn run(args: &RunArgs) -> Option<Outcome> {
    Some(match lookup(&args.workload)?.0 {
        Runner::Stream(shape) => stream::run(&shape, args),
        Runner::Paced(shape) => sim::run(&shape, args),
        Runner::Churn => churn::run(args),
    })
}

/// Per-layer numbers every traced workload derives from its spans.  `threads` is how many
/// OS threads ran stacks during the `elapsed`-second window.
pub fn span_metrics(
    out: &mut Outcome,
    spans: &NodeTrace,
    elapsed: f64,
    threads: usize,
    timed_ops: u64,
) {
    let on_packet = spans.durations_of(Layer::OnPacket);
    out.set(
        "core.on_packet_ns_p50",
        stats::segment_percentile(&on_packet, 50.0),
    );
    out.set(
        "core.on_packet_ns_p99",
        stats::segment_percentile(&on_packet, 99.0),
    );
    out.set(
        "core.on_timer_ns_p50",
        stats::segment_percentile(&spans.durations_of(Layer::OnTimer), 50.0),
    );
    if spans.count(Layer::IssueCall) > 0 {
        out.set(
            "core.issue_call_ns",
            stats::median_u64(&spans.durations_of(Layer::IssueCall)),
        );
    }
    // Handler spans nest inside the other three, so these three are all the time a stack
    // (and the application code it called) kept a thread busy.
    let timers = spans.total_ns(Layer::OnTimer) as f64;
    let busy =
        spans.total_ns(Layer::OnPacket) as f64 + timers + spans.total_ns(Layer::IssueCall) as f64;
    out.set(
        "core.timer_share",
        if busy > 0.0 { timers / busy } else { 0.0 },
    );
    out.set(
        "core.busy_share",
        busy / (elapsed * 1e9 * threads as f64).max(1.0),
    );
    out.set(
        "core.packets_in_per_mcast",
        spans.count(Layer::OnPacket) as f64 / timed_ops.max(1) as f64,
    );
    let self_ms = |layer: Layer| spans.self_ns[layer as usize] as f64 / 1e6;
    out.notes.push(format!(
        "spans (count, self time): on_packet {} {:.0} ms, on_timer {} {:.0} ms, issue_call {} \
         {:.0} ms, handler {} {:.0} ms; {} kept verbatim",
        spans.count(Layer::OnPacket),
        self_ms(Layer::OnPacket),
        spans.count(Layer::OnTimer),
        self_ms(Layer::OnTimer),
        spans.count(Layer::IssueCall),
        self_ms(Layer::IssueCall),
        spans.count(Layer::Handler),
        self_ms(Layer::Handler),
        spans.spans.len()
    ));
}

/// Median and tail of one primitive's latency on the virtual clock (microseconds); a
/// primitive the workload does not use reports nothing.
pub fn vlatency_metrics(out: &mut Outcome, kind: OpKind, sample: &[u64]) {
    if sample.is_empty() {
        return;
    }
    let (p50, p99) = match kind {
        OpKind::Cbcast => ("cbcast_vlatency_us_p50", "cbcast_vlatency_us_p99"),
        OpKind::Abcast => ("abcast_vlatency_us_p50", "abcast_vlatency_us_p99"),
        OpKind::Rpc => ("rpc_vlatency_us_p50", "rpc_vlatency_us_p99"),
    };
    out.set(p50, stats::segment_percentile(sample, 50.0));
    out.set(p99, stats::segment_percentile(sample, 99.0));
}

/// This thread's protocol-frame codec counters (encodes, decodes).
pub fn frame_counters() -> (u64, u64) {
    (wire_stats::frame_encodes(), wire_stats::frame_decodes())
}

/// Protocol-frame encodes and decodes per operation since `since`, on this thread — which
/// on the simulator is every node.
pub fn frame_metrics(out: &mut Outcome, since: (u64, u64), timed_ops: u64) {
    let (encodes, decodes) = frame_counters();
    let per_op = |n: u64| n as f64 / timed_ops.max(1) as f64;
    out.set("proto.frame_encodes_per_mcast", per_op(encodes - since.0));
    out.set("proto.frame_decodes_per_mcast", per_op(decodes - since.1));
}

/// Inter-site traffic per operation over a window's `NetStats` delta (the simulator counts
/// packets; the threaded transport does not, and reads 0 here).
pub fn net_metrics(out: &mut Outcome, delta: &NetStats, timed_ops: u64) {
    let per_op = |n: u64| n as f64 / timed_ops.max(1) as f64;
    let kind = |k: PacketKind| delta.packets.get(&k).copied().unwrap_or(0);
    out.set("net.packets_per_mcast", per_op(delta.inter_site_packets));
    out.set("net.bytes_per_mcast", per_op(delta.bytes_sent));
    out.set(
        "net.gossip_packets_per_mcast",
        per_op(kind(PacketKind::Stability) + kind(PacketKind::Heartbeat)),
    );
}

/// Heap allocations per delivery over a window that began at `since` (all zero unless
/// the counting allocator is installed, i.e. in the traced binary).
pub fn alloc_metrics(out: &mut Outcome, since: AllocCount, deliveries: u64) {
    let used = alloc::snapshot().since(since);
    let per_delivery = |n: u64| n as f64 / deliveries.max(1) as f64;
    out.set("alloc.count_per_delivery", per_delivery(used.count));
    out.set("alloc.bytes_per_delivery", per_delivery(used.bytes));
}

/// What the runtime itself spends per event: processor time of the window that no stack
/// span covers (calendar, network model, node loop and driver on the simulator; channel,
/// wire decode, timer heap and driver on threads), divided by the events the nodes handled.
pub fn runtime_ns_per_event(spans: &NodeTrace, cpu_s: f64, events: u64) -> f64 {
    let in_spans = spans.total_ns(Layer::OnPacket)
        + spans.total_ns(Layer::OnTimer)
        + spans.total_ns(Layer::IssueCall);
    (cpu_s * 1e9 - in_spans as f64).max(0.0) / events.max(1) as f64
}

/// Writes the kept spans to `benchmark/out/trace-<workload>.json` (relative to the
/// directory the benchmark was started from, i.e. the checkout root).  Failing to write a
/// trace file is reported, not fatal: the metrics do not depend on it.
pub fn write_spans(workload: &str, spans: &NodeTrace) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{workload}.json"));
    let doc = Json::obj()
        .with("workload", workload)
        .with("spans", spans.spans_json());
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_line()));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What must be identical for the same seed on the simulator: everything read off the
    /// virtual clock or counted.  Wall-clock and processor-time figures are left out.
    const EXACT: [&str; 16] = [
        "cbcast_vlatency_us_p50",
        "cbcast_vlatency_us_p99",
        "abcast_vlatency_us_p50",
        "abcast_vlatency_us_p99",
        "rpc_vlatency_us_p50",
        "rpc_vlatency_us_p99",
        "join_vms_p50",
        "crash_view_vms_p50",
        "net.packets_per_mcast",
        "net.bytes_per_mcast",
        "net.gossip_packets_per_mcast",
        "rt.events_per_delivery",
        "flush.packets_per_view",
        "flush.redelivered_per_view",
        "tools.transfer_vms_p50",
        "tools.transfer_bytes_per_join",
    ];

    fn small_run(workload: &str, seed: u64) -> Outcome {
        run(&RunArgs {
            workload: workload.to_owned(),
            seed,
            seconds: 0.2,
            cap_seconds: 60.0,
            traced: false,
            setups: 2,
            scale: 0.1,
        })
        .expect("a known workload")
    }

    #[test]
    fn the_same_seed_gives_identical_virtual_time_metrics_and_counts() {
        for workload in ["paced-mix-sim8", "multigroup-sim4", "churn-sim5"] {
            let (a, b) = (small_run(workload, 7), small_run(workload, 7));
            assert_eq!(a.verdict, b.verdict, "{workload}");
            assert_eq!(a.verdict.failed(), 0, "{workload}");
            let mut compared = 0;
            for name in EXACT {
                assert_eq!(a.values.get(name), b.values.get(name), "{workload} {name}");
                compared += usize::from(a.values.contains_key(name));
            }
            assert!(
                compared >= 6,
                "{workload} reported {compared} exact metrics"
            );
            // Another seed is another run (where the seed drives the mix of primitives or
            // the schedule; on `multigroup-sim4` it picks senders and bodies only).
            if workload != "multigroup-sim4" {
                let c = small_run(workload, 8);
                assert!(
                    a.verdict != c.verdict || EXACT.iter().any(|n| a.get(n) != c.get(n)),
                    "{workload}: seeds 7 and 8 gave the same run"
                );
            }
        }
    }

    #[test]
    fn a_workload_reports_a_primitives_latency_only_if_it_uses_the_primitive() {
        let out = small_run("multigroup-sim4", 3);
        assert!(out.get("cbcast_vlatency_us_p50") > 0.0);
        assert!(!out.values.contains_key("abcast_vlatency_us_p50"));
        assert!(!out.values.contains_key("join_vms_p50"));
    }
}
