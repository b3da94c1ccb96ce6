//! Integration: what a delivery may allocate.
//!
//! A payload is one shared field table per multicast per process (`vsync_msg::message`), and
//! an in-order CBCAST is delivered from the frame it arrived in without a copy of its
//! timestamp.  This file holds both facts down from the outside: a counting
//! `#[global_allocator]` (this test binary's own) puts a budget on allocations per delivery
//! on both backends, and a pair of handlers compares the addresses of what they were handed.
//!
//! What still allocates, per CBCAST of a 16 B body (ARCHITECTURE.md, "Allocations per
//! CBCAST", has the table, with which thread frees each one):
//!
//! * **the caller** (six on the simulator, seven on threads) — the body's bytes and the
//!   `Bytes` around them, the payload's table (`Arc` + `Vec`), and on these harnesses the
//!   boxed job that carries the call to the site (boxed once more to cross a thread) and
//!   its destination list;
//! * **the sending stack** (six, once per multicast whatever the fan-out) — a table for the
//!   user and system fields made on the stamping thread when the caller's has no room for
//!   them (in place of growing the caller's), `stamp_send`'s timestamp, the frame writer's
//!   buffer and the `Bytes` it is frozen into, the frame's `Rc` and its memo `Box`.  The
//!   stamp holds no string of its own: the primitive is the frame's type, not a field;
//! * **a receiving site on the simulator** — nothing: it reads the typed value the frame was
//!   born with, and the payload it delivers is the sender's table;
//! * **a receiving site across a thread boundary** (five) — the arriving frame's `Rc`, its
//!   memo `Box`, the decoded timestamp and the decoded payload's table (`Arc` + `Vec`); the
//!   body aliases the receive buffer, and no system field of the payload is a string;
//! * **the stability buffer** — nothing: a held copy is the frame's bytes, one refcount, and
//!   sending to a peer in batches allocates nothing per packet either;
//! * **the runtime** — one stability-gossip frame per site per tick however many groups the
//!   site hosts (the entry list, the writer's buffer and the `Bytes` it is frozen into, the
//!   frame's `Rc` and its memo `Box`; an entry shares its group's run list), a fraction of an
//!   allocation per multicast when amortised over these streams; the heartbeat, an empty
//!   message, is written once per stack and never decoded; nothing per packet on either
//!   backend.
//!
//! That is 12.6 per CBCAST on the 8-site simulator (2.49 per delivery in release) and 18.3
//! on two threads (9.13).  An ABCAST adds a proposal frame per receiving site and one order
//! frame — four allocations per frame born (buffer, `Bytes`, `Rc`, memo `Box`), none per
//! frame read on the simulator — and its holdback entries: 52.6 on the simulator.
//!
//! The simulator budgets have a figure per build type, and each fails on the stack as it
//! was while it still stamped `@protocol`, in release and in debug.  The threaded budget is
//! a release-build figure: a debug build re-reads every frame it writes and re-writes every
//! frame it reads (the `debug_assert`s in `ProtoMsg::{into_frame, decode_frame}`), which
//! doubles the count and drowns the difference, so there the test only checks a loose
//! bound; CI runs this file in release.
//!
//! The allocator also sums the *bytes* asked for, which is what holds the third fact down: a
//! large body is never copied.  A 64 KiB body drawn from a pool costs a delivery under 2 KiB
//! of heap on either backend in release, under 4 KiB in debug (before frames were segment
//! lists: one 64 KiB frame buffer per multicast — 8 KiB per delivery on the 8-site simulator,
//! 33 KiB on two threads), and the body a handler is handed on the far side of a thread boundary is
//! the sender's pool buffer itself, at the same address.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vsync::core::{
    Duration, EntryId, GroupId, Message, ProcessId, ProtocolKind, SiteId, StackConfig,
};
use vsync::msg::{Bytes, Value};
use vsync::proto::ProtoConfig;
use vsync::rt::{FaultPlan, IsisHarness, IsisRuntime, SimRuntime, ThreadedRuntime};
use vsync::util::NetParams;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every call that obtains or grows memory and
/// the bytes it asks for (a grow: the additional ones).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr`/`layout` describe a live `System` block; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide and `cargo test` runs tests on parallel threads: every test
/// in this file holds this lock for its whole body.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const APPLY: EntryId = EntryId(2);

/// Allocations per delivery over 2 000 CBCASTs and 500 ABCASTs on the 8-site simulator.
/// Measured 2.49 in release and 2.87 in debug, the same on every run; with `@protocol`
/// still stamped on every multicast, same file: 2.61 and 3.12.
const SIM_BUDGET: f64 = if cfg!(debug_assertions) { 3.0 } else { 2.55 };

/// Allocations per delivery over a 2-site threaded CBCAST stream, driver included.
/// Release: measured 9.13 on three runs; with `@protocol` still stamped, 10.15, so the
/// budget sits 6 % above the one and 4 % below the other.  Debug: measured 17.9 against
/// 20.4 — only a loose bound, see the module docs.
const THREADED_BUDGET: f64 = if cfg!(debug_assertions) { 24.0 } else { 9.7 };

/// Allocations per delivery on the 4-site simulator when every site hosts 16 groups and each
/// group carries one CBCAST per tick.  Release: measured 3.31, the same on every run; with
/// `@protocol` still stamped, 3.56, and with a gossip frame per group, 10.50.  Debug, which
/// re-reads every frame it writes — a 16-entry gossip frame included: 7.12 against 7.62.
const MULTI_GROUP_BUDGET: f64 = if cfg!(debug_assertions) { 7.4 } else { 3.45 };

/// Heap bytes a delivery of a 64 KiB body may ask for, on either backend.  Measured 216 B on
/// the 8-site simulator and 1 180 B on two threads in release; 280 B and 2 782 B in debug,
/// which re-reads every frame it writes (see the module docs) but copies no body either.
const BULK_BYTES_BUDGET: f64 = if cfg!(debug_assertions) {
    4096.0
} else {
    2048.0
};

/// What the members of a [`counting_group`] were handed.
#[derive(Default)]
struct Delivered {
    all: AtomicU64,
    /// Deliveries whose body was one of the group's pool buffers itself: same address.
    from_pool: AtomicU64,
}

/// A group with one counting member on each of the first `sites` sites; `pool` holds the
/// buffers bodies will be drawn from, if they are drawn from any.
fn counting_group<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    sites: u16,
    pool: &[Bytes],
) -> (GroupId, Vec<ProcessId>, Arc<Delivered>) {
    let delivered = Arc::new(Delivered::default());
    let members: Vec<ProcessId> = (0..sites)
        .map(|site| {
            let delivered = delivered.clone();
            let pool: Vec<usize> = pool.iter().map(|b| b.as_ptr() as usize).collect();
            h.spawn(SiteId(site), move |b| {
                b.on_entry(APPLY, move |_ctx, msg| {
                    delivered.all.fetch_add(1, Ordering::Relaxed);
                    let at = msg.get_bytes("body").map(|body| body.as_ptr() as usize);
                    if at.is_some_and(|at| pool.contains(&at)) {
                        delivered.from_pool.fetch_add(1, Ordering::Relaxed);
                    }
                });
            })
        })
        .collect();
    let gid = h.create_group("budget", members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(30))
            .expect("join");
    }
    (gid, members, delivered)
}

fn body(_i: u64) -> Message {
    Message::with_body(vec![7u8; 16])
}

/// Sends `n` multicasts round-robin from the members, every fifth an ABCAST when `mixed`,
/// letting the runtime run every 16 sends; returns once all of them are delivered to all.
fn stream<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    gid: GroupId,
    members: &[ProcessId],
    delivered: &AtomicU64,
    n: u64,
    mixed: bool,
    body: &dyn Fn(u64) -> Message,
) {
    let target = delivered.load(Ordering::Relaxed) + n * members.len() as u64;
    for i in 0..n {
        let kind = if mixed && i % 5 == 4 {
            ProtocolKind::Abcast
        } else {
            ProtocolKind::Cbcast
        };
        let from = members[i as usize % members.len()];
        h.client_send(from, gid, APPLY, body(i), kind);
        if i % 16 == 15 {
            h.settle(Duration::from_millis(1));
        }
    }
    let done = h.wait_until(Duration::from_secs(30), |_| {
        delivered.load(Ordering::Relaxed) >= target
    });
    assert!(done, "stream was not delivered everywhere");
}

fn sim8() -> IsisHarness<SimRuntime> {
    let params = NetParams::modern();
    IsisHarness::new(SimRuntime::new(
        8,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        15,
    ))
}

#[test]
fn sim_deliveries_stay_within_the_allocation_budget() {
    let _guard = exclusive();
    let mut h = sim8();
    let (gid, members, delivered) = counting_group(&mut h, 8, &[]);
    let delivered = &delivered.all;
    // Warm-up: scratch buffers, the calendar and every per-view table reach their size.
    stream(&mut h, gid, &members, delivered, 500, true, &body);
    let (allocs, count) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        delivered.load(Ordering::Relaxed),
    );
    stream(&mut h, gid, &members, delivered, 2_500, true, &body);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs;
    let count = delivered.load(Ordering::Relaxed) - count;
    assert_eq!(count, 2_500 * 8, "each member delivers each multicast");
    let per_delivery = allocs as f64 / count as f64;
    println!("sim: {per_delivery:.2} allocations per delivery");
    assert!(
        per_delivery <= SIM_BUDGET,
        "{per_delivery:.2} allocations per delivery on the simulator, budget {SIM_BUDGET}"
    );
}

/// One CBCAST per group per maintenance tick on 16 groups spanning 4 simulated sites: the
/// data path idles and what allocates is the tick — above all stability gossip, which a
/// site sends as one frame for all its groups (five allocations a tick, each entry sharing
/// its group's run list) rather than a frame per group (seven allocations each).
#[test]
fn sim_many_groups_per_site_stay_within_the_allocation_budget() {
    const GROUPS: usize = 16;
    let _guard = exclusive();
    let params = NetParams::modern();
    let stack_cfg = StackConfig::from_params(&params);
    let mut h = IsisHarness::new(SimRuntime::new(
        4,
        params,
        stack_cfg,
        ProtoConfig::fast(),
        17,
    ));
    let groups: Vec<_> = (0..GROUPS)
        .map(|_| counting_group(&mut h, 4, &[]))
        .collect();
    let delivered = |groups: &[(GroupId, Vec<ProcessId>, Arc<Delivered>)]| -> u64 {
        groups
            .iter()
            .map(|(_, _, d)| d.all.load(Ordering::Relaxed))
            .sum()
    };
    let run = |h: &mut IsisHarness<SimRuntime>, ticks: u64| {
        for t in 0..ticks {
            for (gid, members, _) in &groups {
                let from = members[t as usize % members.len()];
                h.client_send(from, *gid, APPLY, body(t), ProtocolKind::Cbcast);
            }
            h.settle(stack_cfg.tick_interval);
        }
    };
    run(&mut h, 20);
    let (allocs, count) = (ALLOCATIONS.load(Ordering::Relaxed), delivered(&groups));
    run(&mut h, 100);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs;
    let count = delivered(&groups) - count;
    assert_eq!(
        count,
        100 * GROUPS as u64 * 4,
        "every member of every group"
    );
    let per_delivery = allocs as f64 / count as f64;
    println!("sim, {GROUPS} groups a site: {per_delivery:.2} allocations per delivery");
    assert!(
        per_delivery <= MULTI_GROUP_BUDGET,
        "{per_delivery:.2} allocations per delivery with {GROUPS} groups a site, \
         budget {MULTI_GROUP_BUDGET}"
    );
}

fn threaded2() -> IsisHarness<ThreadedRuntime> {
    IsisHarness::new(ThreadedRuntime::new(
        2,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        FaultPlan::none(),
        15,
    ))
}

#[test]
fn threaded_deliveries_stay_within_the_allocation_budget() {
    let _guard = exclusive();
    let mut h = threaded2();
    let (gid, members, delivered) = counting_group(&mut h, 2, &[]);
    let delivered = &delivered.all;
    stream(&mut h, gid, &members, delivered, 500, false, &body);
    let (allocs, count) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        delivered.load(Ordering::Relaxed),
    );
    stream(&mut h, gid, &members, delivered, 2_000, false, &body);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs;
    let count = delivered.load(Ordering::Relaxed) - count;
    assert_eq!(count, 2_000 * 2);
    let per_delivery = allocs as f64 / count as f64;
    println!("threaded: {per_delivery:.2} allocations per delivery");
    assert!(
        per_delivery <= THREADED_BUDGET,
        "{per_delivery:.2} allocations per delivery on threads, budget {THREADED_BUDGET}"
    );
}

/// Heap bytes asked for per delivery over a CBCAST stream of 64 KiB bodies drawn from a pool
/// of eight, after checking that every body delivered — on the sender's site and on every
/// other — was a pool buffer itself.  Prints the allocation count beside it.
fn bulk_bytes_per_delivery<R: IsisRuntime>(h: &mut IsisHarness<R>, sites: u16) -> f64 {
    let pool: Vec<Bytes> = (0..8u8).map(|i| vec![i; 64 * 1024].into()).collect();
    let (gid, members, delivered) = counting_group(h, sites, &pool);
    let body = |i: u64| Message::with_body(pool[i as usize % pool.len()].clone());
    stream(h, gid, &members, &delivered.all, 200, false, &body);
    let (bytes, allocs, count) = (
        BYTES.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
        delivered.all.load(Ordering::Relaxed),
    );
    stream(h, gid, &members, &delivered.all, 1_000, false, &body);
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs;
    let count = delivered.all.load(Ordering::Relaxed) - count;
    assert_eq!(count, 1_000 * u64::from(sites));
    println!(
        "{sites} sites, 64 KiB bodies: {:.2} allocations per delivery",
        allocs as f64 / count as f64
    );
    assert_eq!(
        delivered.from_pool.load(Ordering::Relaxed),
        delivered.all.load(Ordering::Relaxed),
        "a handler was handed a copy of the body, not the sender's buffer"
    );
    bytes as f64 / count as f64
}

#[test]
fn a_bulk_body_is_delivered_by_reference_on_both_backends() {
    let _guard = exclusive();
    let sim = bulk_bytes_per_delivery(&mut sim8(), 8);
    println!("sim, 64 KiB bodies: {sim:.0} bytes allocated per delivery");
    let threaded = bulk_bytes_per_delivery(&mut threaded2(), 2);
    println!("threaded, 64 KiB bodies: {threaded:.0} bytes allocated per delivery");
    for (backend, per_delivery) in [("the simulator", sim), ("threads", threaded)] {
        assert!(
            per_delivery <= BULK_BYTES_BUDGET,
            "{per_delivery:.0} bytes allocated per delivery of a 64 KiB body on {backend}, \
             budget {BULK_BYTES_BUDGET}"
        );
    }
}

#[test]
fn every_member_in_the_process_is_handed_the_same_table() {
    let _guard = exclusive();
    let mut h = sim8();
    // Where each member found the body of what it was handed: `(member, address)`.
    let seen: Arc<Mutex<Vec<(ProcessId, usize)>>> = Arc::default();
    let members: Vec<ProcessId> = [0u16, 0, 1, 2]
        .into_iter()
        .map(|site| {
            let seen = seen.clone();
            h.spawn(SiteId(site), move |b| {
                b.on_entry(APPLY, move |ctx, msg| {
                    let at = msg.get("body").expect("body") as *const Value as usize;
                    seen.lock().expect("seen").push((ctx.me(), at));
                });
            })
        })
        .collect();
    let gid = h.create_group("alias", members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(30))
            .expect("join");
    }
    for kind in [ProtocolKind::Cbcast, ProtocolKind::Abcast] {
        seen.lock().expect("seen").clear();
        h.client_send(members[2], gid, APPLY, body(0), kind);
        h.settle(Duration::from_millis(50));
        let seen = seen.lock().expect("seen").clone();
        assert_eq!(
            seen.len(),
            members.len(),
            "{kind:?}: delivered to every member"
        );
        let at = |m: ProcessId| seen.iter().find(|(who, _)| *who == m).expect("seen").1;
        assert_eq!(
            at(members[0]),
            at(members[1]),
            "{kind:?}: two members on one site"
        );
        assert_eq!(
            at(members[0]),
            at(members[3]),
            "{kind:?}: members on two different simulated sites"
        );
        assert_eq!(
            at(members[2]),
            at(members[3]),
            "{kind:?}: the sender's site and a receiver's"
        );
    }
}
