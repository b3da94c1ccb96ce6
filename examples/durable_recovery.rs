//! Durable log-based recovery (paper Sections 2.2 and 3.8): a member site dies outright —
//! its OS thread, memory and in-flight state all gone — and its next incarnation rebuilds
//! from an fsync'd on-disk log, rejoins via state transfer, and ends exactly-once.
//!
//! Every message reaches the recovered member through exactly one of three doors:
//!
//! * the **replayed log** for what it delivered (and durably recorded) before dying,
//! * the **rejoin snapshot** for what the group delivered while it was down,
//! * **post-snapshot delivery** for what arrived after its rejoin cut.
//!
//! The example prints the partition so the accounting is visible:
//! `log-replayed + snapshot + post-snapshot applies == total`.
//!
//! Run with: `cargo run --example durable_recovery`

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use vsync::core::{Duration, EntryId, Message, ProcessId, ProtocolKind, SiteId};
use vsync::proto::ProtoConfig;
use vsync::rt::{FaultPlan, IsisHarness, IsisRuntime, ThreadedRuntime};
use vsync::tools::{FileStore, RecoveryManager, StateTransfer};

const APPLY: EntryId = EntryId(9);

struct Mirror {
    len: Arc<AtomicU64>,
    ready: Arc<AtomicBool>,
    replayed: Arc<AtomicU64>,
    snapshot_added: Arc<AtomicU64>,
    applies: Arc<AtomicU64>,
}

/// Spawns a member whose state is the list of delivered bodies.  With a `root`, every
/// delivery and view marker is appended to an on-disk recovery log (fsync'd per record);
/// with `replay`, the state is first rebuilt from that log before anything else is wired.
fn spawn_member(
    h: &mut IsisHarness<ThreadedRuntime>,
    site: SiteId,
    gid: vsync::core::GroupId,
    ready: bool,
    root: Option<PathBuf>,
    replay: bool,
) -> (ProcessId, Mirror) {
    let mirror = Mirror {
        len: Arc::new(AtomicU64::new(0)),
        ready: Arc::new(AtomicBool::new(ready)),
        replayed: Arc::new(AtomicU64::new(0)),
        snapshot_added: Arc::new(AtomicU64::new(0)),
        applies: Arc::new(AtomicU64::new(0)),
    };
    let m_len = mirror.len.clone();
    let m_ready = mirror.ready.clone();
    let m_replayed = mirror.replayed.clone();
    let m_snapshot = mirror.snapshot_added.clone();
    let m_applies = mirror.applies.clone();
    let pid = h.spawn(site, move |b| {
        let rm = root.map(|r| {
            RecoveryManager::new(
                Rc::new(FileStore::new(r).expect("store").with_fsync_interval(1)),
                "example",
            )
        });
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        if replay {
            let rm = rm.as_ref().expect("replay needs a store");
            let s = state.clone();
            let summary = rm
                .recover(
                    |_| {},
                    |entry, payload| {
                        if entry == APPLY {
                            s.borrow_mut()
                                .push(payload.get_u64("body").unwrap_or(u64::MAX));
                        }
                    },
                )
                .expect("replay");
            m_replayed.store(summary.messages as u64, Ordering::Relaxed);
            m_len.store(state.borrow().len() as u64, Ordering::Relaxed);
        }
        if let Some(rm) = &rm {
            rm.attach_logging(b, gid);
        }
        let s_encode = state.clone();
        let s_apply = state.clone();
        let l_apply = m_len.clone();
        let xfer = StateTransfer::new(
            gid,
            move || {
                s_encode
                    .borrow()
                    .iter()
                    .map(|v| Message::new().with("entry", *v))
                    .collect()
            },
            move |_ctx, block| {
                if let Some(v) = block.get_u64("entry") {
                    let mut s = s_apply.borrow_mut();
                    // The rejoin snapshot overlaps the replayed prefix; apply only what
                    // the log did not already rebuild.
                    if !s.contains(&v) {
                        s.push(v);
                        l_apply.store(s.len() as u64, Ordering::Relaxed);
                        m_snapshot.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if block.get_bool("xfer-last").unwrap_or(false) {
                    m_ready.store(true, Ordering::Relaxed);
                }
            },
        );
        xfer.attach(b);
        if ready {
            xfer.mark_ready();
        }
        let s_update = state.clone();
        xfer.on_entry_buffered(b, APPLY, move |_ctx, msg| {
            if let Some(rm) = &rm {
                let _ = rm.log_delivery(APPLY, msg);
            }
            let mut s = s_update.borrow_mut();
            s.push(msg.get_u64("body").unwrap_or(u64::MAX));
            m_len.store(s.len() as u64, Ordering::Relaxed);
            m_applies.fetch_add(1, Ordering::Relaxed);
        });
    });
    (pid, mirror)
}

fn main() {
    let root = std::env::temp_dir().join(format!("vsync-durable-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut h = IsisHarness::new(ThreadedRuntime::new(
        3,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        FaultPlan::none().with_delay(Duration::from_micros(100)),
        7,
    ));
    let gid = h.allocate_group_id();
    let (m0, _c0) = spawn_member(&mut h, SiteId(0), gid, true, None, false);
    h.create_group_with_id("durable", gid, m0);
    let (m1, c1) = spawn_member(&mut h, SiteId(1), gid, false, None, false);
    h.join_and_wait(gid, m1, None, Duration::from_secs(20))
        .expect("join m1");
    let (m2, c2) = spawn_member(&mut h, SiteId(2), gid, false, Some(root.clone()), false);
    h.join_and_wait(gid, m2, None, Duration::from_secs(20))
        .expect("join m2");
    h.wait_until(Duration::from_secs(20), |_| {
        c1.ready.load(Ordering::Relaxed) && c2.ready.load(Ordering::Relaxed)
    });

    // Phase one: ten messages, each durably logged at site 2 before it is applied.
    for i in 0..10u64 {
        h.client_send(
            [m0, m1, m2][(i % 3) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    h.wait_until(Duration::from_secs(20), |_| {
        c2.len.load(Ordering::Relaxed) == 10
    });
    println!("phase one delivered: member 2 holds 10 records, all on disk");

    // The site dies completely; only the disk survives.
    h.rt.kill_site(SiteId(2));
    println!("site 2 killed (thread gone, memory gone)");

    // Phase two happens without it.
    for i in 10..20u64 {
        h.client_send(
            [m0, m1][(i % 2) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    h.wait_until(Duration::from_secs(20), |h| {
        c1.len.load(Ordering::Relaxed) == 20 && h.unstable_count(SiteId(0), gid) == 0
    });
    println!("phase two delivered to the survivors while site 2 was down");

    // Resurrection: fresh thread, replay the log, rejoin via state transfer.
    h.rt.recover_site(SiteId(2));
    let (r2, c2b) = spawn_member(&mut h, SiteId(2), gid, false, Some(root.clone()), true);
    h.query(SiteId(2), move |stack, _now, _out| {
        stack.register_group("durable", gid, vec![SiteId(0), SiteId(1)]);
    });
    h.join_and_wait(gid, r2, None, Duration::from_secs(20))
        .expect("rejoin");
    h.wait_until(Duration::from_secs(20), |_| {
        c2b.ready.load(Ordering::Relaxed)
    });

    // Phase three: the recovered member applies live traffic again.
    for i in 20..24u64 {
        h.client_send(r2, gid, APPLY, Message::with_body(i), ProtocolKind::Abcast);
    }
    h.wait_until(Duration::from_secs(20), |_| {
        c2b.len.load(Ordering::Relaxed) == 24
    });

    let replayed = c2b.replayed.load(Ordering::Relaxed);
    let snapshot = c2b.snapshot_added.load(Ordering::Relaxed);
    let applies = c2b.applies.load(Ordering::Relaxed);
    println!("recovered member's exactly-once partition:");
    println!("  log-replayed:           {replayed}");
    println!("  rejoin snapshot:        {snapshot}");
    println!("  post-snapshot applies:  {applies}");
    println!(
        "  total:                  {} (== {} messages sent)",
        replayed + snapshot + applies,
        24
    );
    assert_eq!(replayed + snapshot + applies, 24);

    let _ = std::fs::remove_dir_all(&root);
    h.rt.shutdown();
}
