//! Quickstart for the threaded runtime: a process group served by real OS threads.
//!
//! Three sites run on three threads; a group forms across them, multicasts flow over the
//! lock-protected channels, one site crashes, and the survivors install the new view —
//! the same toolkit calls as the simulated quickstart, on `ThreadedRuntime` instead of
//! `SimRuntime`.
//!
//! Run with: `cargo run --example threaded_group`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vsync::core::{Duration, EntryId, Message, ProcessId, ProtocolKind, SiteId};
use vsync::proto::ProtoConfig;
use vsync::rt::{FaultPlan, IsisHarness, IsisRuntime, ThreadedRuntime};

const HELLO: EntryId = EntryId(1);

fn main() {
    // One protocols process per site, each on its own OS thread.  Fault injection adds a
    // little link delay and jitter so this behaves like a LAN, not a function call.
    let rt = ThreadedRuntime::new(
        3,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        FaultPlan::none()
            .with_delay(Duration::from_micros(100))
            .with_jitter(Duration::from_micros(200)),
        1,
    );
    let mut h = IsisHarness::new(rt);

    // Spawn one member per site.  The handler closures are built on each node's thread;
    // the atomic counter is the only state shared with the main thread.
    let delivered = Arc::new(AtomicU64::new(0));
    let members: Vec<ProcessId> = (0..3u16)
        .map(|site| {
            let d = delivered.clone();
            h.spawn(SiteId(site), move |b| {
                b.on_entry(HELLO, move |ctx, msg| {
                    let n = d.fetch_add(1, Ordering::Relaxed);
                    let _ = (ctx.me(), msg.get_u64("body"), n);
                });
            })
        })
        .collect();

    // pg_create + pg_join, exactly as in the simulated quickstart.
    let gid = h.create_group("hello", members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(10))
            .expect("join");
    }
    let view = h.view_of(SiteId(0), gid).expect("view");
    println!(
        "group formed: {} members, view seq {}",
        view.len(),
        view.seq()
    );

    // Multicast from every member; each message lands once per member.
    for i in 0..5u64 {
        h.client_send(
            members[(i % 3) as usize],
            gid,
            HELLO,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let all = h.wait_until(Duration::from_secs(10), |_| {
        delivered.load(Ordering::Relaxed) >= 15
    });
    println!(
        "delivered {} handler invocations (complete: {all})",
        delivered.load(Ordering::Relaxed)
    );

    // Crash a site; the survivors flush and install the two-member view.
    h.rt.kill_site(SiteId(2));
    let ok = h.wait_until(Duration::from_secs(15), |h| {
        h.view_of(SiteId(0), gid)
            .map(|v| v.len() == 2)
            .unwrap_or(false)
    });
    let view = h.view_of(SiteId(0), gid).expect("view");
    println!(
        "after crash: {} members, view seq {} (flush ok: {ok})",
        view.len(),
        view.seq()
    );

    // Clean shutdown joins every node thread.
    let reports = h.rt.shutdown();
    for r in reports {
        println!("site {:?} handled {} events", r.site, r.events);
    }
}
