//! A replicated counter service using the replicated-data tool with asynchronous CBCAST
//! updates (paper Sections 3.4 and 3.6): the caller never blocks on its own updates, yet no
//! member ever reads a stale value relative to what the caller already observed.
//!
//! Run with: `cargo run --example replicated_counter`

use vsync_core::{Duration, EntryId, LatencyProfile, Message, ProtocolKind, SiteId};
use vsync_rt::{IsisHarness, SimRuntime};
use vsync_tools::{ReplicatedData, UpdateOrdering};

const DATA: EntryId = EntryId(60);

fn main() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(3, LatencyProfile::Modern, 42));
    let gid = sys.allocate_group_id();

    // Three members, each holding a replica managed by the replicated-data tool.
    let mut members = Vec::new();
    let mut replicas = Vec::new();
    for i in 0..3u16 {
        let data = ReplicatedData::new(gid, DATA, UpdateOrdering::Causal);
        let d = data.clone();
        let pid = sys.spawn_local(SiteId(i), move |b| d.attach(b));
        if i == 0 {
            sys.create_group_with_id("counter", gid, pid);
        } else {
            sys.join_and_wait(gid, pid, None, Duration::from_secs(5))
                .expect("join");
        }
        members.push(pid);
        replicas.push(data);
    }

    // Member 0 issues a burst of asynchronous updates; it can keep computing immediately.
    for value in 1..=20u64 {
        sys.client_send(
            members[0],
            gid,
            DATA,
            Message::new()
                .with("rd-item", "counter")
                .with("rd-value", value),
            ProtocolKind::Cbcast,
        );
    }
    // Reads at the sender reflect its own updates at once (delivered locally at send time).
    println!(
        "replica 0 immediately reads: {:?}",
        replicas[0].read_u64("counter")
    );

    sys.settle(Duration::from_millis(500));
    for (i, r) in replicas.iter().enumerate() {
        println!(
            "replica {i}: counter = {:?} after {} applied updates",
            r.read_u64("counter"),
            r.updates_applied()
        );
    }
    println!("multicasts used: {}", sys.rt.stats().multicast_summary());
}
