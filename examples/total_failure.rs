//! Total-failure recovery (paper Section 3.8): every site hosting a group dies — OS
//! threads, memory, in-flight messages, all of it — and the group must come back from
//! nothing but the fsync'd recovery logs on each site's disk.
//!
//! The restarting sites run the *reform* protocol:
//!
//! 1. each reopens its own log and broadcasts a **log summary** — the highest view
//!    sequence it recorded and its per-origin delivery frontier — to the sites of the
//!    last view its log remembers;
//! 2. the summaries are totally ordered (view seq, then covered frontier, then rank):
//!    the **"last site to fail"** wins, because only its log saw the group's final state;
//! 3. each site's stack acts on the verdict: the winner's refounds the group with its
//!    restarting member one view past the authoritative log, so the reformed
//!    incarnation's views dominate every pre-crash log, and every other stack joins its
//!    member through the winner, exactly like a brand-new member;
//! 4. each member reads the verdict from its first view (`RecoveryManager::attach_restart`):
//!    the one that founded it alone replays its log (checkpoint + tail, if compaction
//!    ran), the others discard their divergent tails and take the state-transfer snapshot.
//!
//! The example stages a coordinated crash with a crash-only [`NemesisSchedule`] — site 0
//! first, then site 1, then site 2, 25 ms apart: faster than the failure detector, so
//! every log ends at the same view and the election falls to its tie-breaks — and prints
//! the election plus each member's exactly-once partition:
//! `log-replayed + snapshot + post-reform applies == total`.
//!
//! Run with: `cargo run --example total_failure`

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vsync::core::{Duration, EntryId, GroupId, Message, ProcessBuilder, ProtocolKind, SiteId};
use vsync::proto::ProtoConfig;
use vsync::rt::{FaultPlan, IsisHarness, IsisRuntime, NemesisSchedule, ThreadedRuntime};
use vsync::tools::{FileStore, RecoveryManager, StateTransfer};

const APPLY: EntryId = EntryId(9);

/// One member's state — the ordered list of bodies it applied — and how many of them came
/// from its durable log, from a transfer snapshot and by delivery.  Written on the
/// member's node thread, read by `main`.
#[derive(Clone, Default)]
struct Mirror {
    order: Arc<Mutex<Vec<u64>>>,
    ready: Arc<AtomicBool>,
    replayed: Arc<AtomicU64>,
    snapshot_added: Arc<AtomicU64>,
    applies: Arc<AtomicU64>,
}

impl Mirror {
    /// Applies `v`, counting it under `door`.
    fn add(&self, v: u64, door: &AtomicU64) {
        self.order.lock().unwrap().push(v);
        door.fetch_add(1, Ordering::Relaxed);
    }
}

fn open_manager(root: PathBuf) -> RecoveryManager {
    RecoveryManager::new(
        Rc::new(FileStore::new(root).expect("store").with_fsync_interval(1)),
        "recovery",
    )
}

/// Wires a member whose state is the ordered list of delivered bodies, durably logged
/// (log first, then apply) and served to joiners via state transfer.
fn wire_member(b: &mut ProcessBuilder, gid: GroupId, rm: RecoveryManager, m: Mirror) {
    rm.attach_logging(b, gid);
    let (encode, apply) = (m.clone(), m.clone());
    let xfer = StateTransfer::new(
        gid,
        move || {
            let order = encode.order.lock().unwrap();
            order
                .iter()
                .map(|v| Message::new().with("tf-entry", *v))
                .collect()
        },
        move |_ctx, block| {
            if let Some(v) = block.get_u64("tf-entry") {
                if !apply.order.lock().unwrap().contains(&v) {
                    apply.add(v, &apply.snapshot_added);
                }
            }
            if block.get_bool("xfer-last").unwrap_or(false) {
                apply.ready.store(true, Ordering::Relaxed);
            }
        },
    );
    xfer.attach(b);
    // A founder holds its state at its first view: nobody transfers it any.
    let (x, founded) = (xfer.clone(), m.clone());
    b.on_view_change(gid, move |_ctx, _ev| {
        if x.is_ready() {
            founded.ready.store(true, Ordering::Relaxed);
        }
    });
    xfer.on_entry_buffered(b, APPLY, move |_ctx, msg| {
        let _ = rm.log_delivery(APPLY, msg);
        m.add(msg.get_u64("body").unwrap_or(u64::MAX), &m.applies);
    });
}

fn main() {
    let root = std::env::temp_dir().join(format!("vsync-total-failure-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let site_root = |s: SiteId| root.join(format!("s{}", s.0));

    let faults = FaultPlan::none()
        .with_delay(Duration::from_micros(100))
        .with_jitter(Duration::from_micros(300));
    let mut h = IsisHarness::new(ThreadedRuntime::new(
        3,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        7,
    ));
    let sites: Vec<SiteId> = h.sites();
    let gid = h.allocate_group_id();

    // -- A three-member group, every member logging durably ------------------------------
    let mut pids = Vec::new();
    let mut mirrors = Vec::new();
    for (i, &s) in sites.iter().enumerate() {
        let m = Mirror::default();
        let (shared, r) = (m.clone(), site_root(s));
        let pid = h.spawn(s, move |b| wire_member(b, gid, open_manager(r), shared));
        if i == 0 {
            h.create_group_with_id("inventory", gid, pid);
        } else {
            h.join_and_wait(gid, pid, None, Duration::from_secs(10))
                .expect("join");
        }
        pids.push(pid);
        mirrors.push(m);
    }
    h.wait_until(Duration::from_secs(10), |_| {
        mirrors.iter().all(|m| m.ready.load(Ordering::Relaxed))
    });
    println!("group formed: 3 members over sites 0-2, each logging to its own disk");

    // -- A burst, and a coordinated total failure in the middle of it --------------------
    for i in 0..8u64 {
        h.client_send(
            pids[(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    h.rt.advance(Duration::from_millis(2));
    let schedule = NemesisSchedule::crashes(sites.clone(), Duration::from_millis(25));
    println!(
        "killing every site mid-burst, {:?} apart (kill order {:?})",
        Duration::from_millis(25),
        schedule.crashed_sites()
    );
    h.run_nemesis(&schedule);
    let covered: Vec<usize> = mirrors
        .iter()
        .map(|m| m.order.lock().unwrap().len())
        .collect();
    println!("total failure: all sites dead; per-site durably covered deliveries: {covered:?}");

    // -- Reform: respawn, and let each site's stack elect the last log and act on it ------
    h.respawn_all();
    let mut members = Vec::new();
    let mut new_pids = Vec::new();
    for &s in &sites {
        let m = Mirror::default();
        let (shared, r) = (m.clone(), site_root(s));
        let pid = h.spawn(s, move |b| {
            let rm = open_manager(r);
            // Replays the log into the state, if this member's first view says its log won.
            let (snapshot, log) = (shared.clone(), shared.clone());
            rm.attach_restart(
                b,
                gid,
                move |block| {
                    if let Some(v) = block.get_u64("tf-entry") {
                        snapshot.add(v, &snapshot.replayed);
                    }
                },
                move |entry, payload| {
                    if entry == APPLY {
                        log.add(payload.get_u64("body").unwrap_or(u64::MAX), &log.replayed);
                    }
                },
            );
            wire_member(b, gid, rm, shared);
        });
        let (r, old) = (site_root(s), pids[s.index()]);
        h.query(s, move |stack, _now, out| {
            let rm = open_manager(r);
            let summary = rm.log_summary(old).expect("summary").expect("logged");
            let expected = rm.last_known_sites().expect("sites");
            stack.begin_reform("inventory", gid, pid, None, summary, expected, out);
        });
        members.push(m);
        new_pids.push(pid);
    }
    let reformed = h.wait_until(Duration::from_secs(10), |_| {
        members.iter().all(|m| m.ready.load(Ordering::Relaxed))
    });
    assert!(reformed, "the reformed group never formed");
    // The founder is the reformed view's oldest member.
    let view = h.view_of(sites[0], gid).expect("reformed view");
    let lead = view.members[0].site;
    println!(
        "election: site {}'s log is authoritative; it refounded the group, now view {} \
         with {} members",
        lead.0,
        view.seq(),
        view.len()
    );
    println!("reform complete: losers discarded their tails and rejoined via state transfer");

    // -- The reformed group is fully operational -----------------------------------------
    let replayed = members[lead.index()].replayed.load(Ordering::Relaxed);
    for i in 0..8u64 {
        h.client_send(
            new_pids[(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(100 + i),
            ProtocolKind::Abcast,
        );
    }
    let total = replayed + 8;
    h.wait_until(Duration::from_secs(10), |_| {
        members
            .iter()
            .all(|m| m.order.lock().unwrap().len() as u64 == total)
    });

    println!("\nexactly-once partition per member (log-replayed + snapshot + applies = total):");
    for (i, m) in members.iter().enumerate() {
        let (r, sn, a) = (
            m.replayed.load(Ordering::Relaxed),
            m.snapshot_added.load(Ordering::Relaxed),
            m.applies.load(Ordering::Relaxed),
        );
        println!(
            "  site {i}: {r:2} + {sn:2} + {a:2} = {:2}{}",
            r + sn + a,
            if SiteId(i as u16) == lead {
                "   <- election winner"
            } else {
                ""
            }
        );
        assert_eq!(r + sn + a, total);
    }
    let orders: Vec<Vec<u64>> = members
        .iter()
        .map(|m| m.order.lock().unwrap().clone())
        .collect();
    assert!(orders.windows(2).all(|w| w[0] == w[1]), "orders must agree");
    println!(
        "\nall members share the identical delivery order: {:?}",
        orders[0]
    );

    let _ = std::fs::remove_dir_all(&root);
}
