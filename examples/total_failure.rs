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
//! 3. the winner replays its log (checkpoint + tail, if compaction ran) and *refounds*
//!    the group one view past the authoritative log, so the reformed incarnation's views
//!    dominate every pre-crash log;
//! 4. the losers discard their divergent tails and rejoin through the ordinary view-cut
//!    state transfer, exactly like a brand-new member.
//!
//! The example stages a coordinated crash with a crash-only [`NemesisSchedule`] — site 0
//! first, then site 1, then site 2, so site 2's log is authoritative — and prints the
//! election plus each member's exactly-once partition:
//! `log-replayed + snapshot + post-reform applies == total`.
//!
//! Run with: `cargo run --example total_failure`

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vsync::core::{Duration, EntryId, GroupId, Message, ProtocolKind, ReformStatus, SiteId};
use vsync::proto::ProtoConfig;
use vsync::rt::{FaultPlan, IsisHarness, IsisRuntime, NemesisSchedule, ThreadedRuntime};
use vsync::tools::{FileStore, RecoveryManager, StateTransfer};

const APPLY: EntryId = EntryId(9);

struct Mirror {
    order: Arc<Mutex<Vec<u64>>>,
    ready: Arc<AtomicBool>,
    replayed: Arc<AtomicU64>,
    snapshot_added: Arc<AtomicU64>,
    applies: Arc<AtomicU64>,
}

impl Mirror {
    fn new(ready: bool) -> Mirror {
        Mirror {
            order: Arc::new(Mutex::new(Vec::new())),
            ready: Arc::new(AtomicBool::new(ready)),
            replayed: Arc::new(AtomicU64::new(0)),
            snapshot_added: Arc::new(AtomicU64::new(0)),
            applies: Arc::new(AtomicU64::new(0)),
        }
    }

    fn share(&self) -> Mirror {
        Mirror {
            order: self.order.clone(),
            ready: self.ready.clone(),
            replayed: self.replayed.clone(),
            snapshot_added: self.snapshot_added.clone(),
            applies: self.applies.clone(),
        }
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
fn wire_member(
    b: &mut vsync::core::ProcessBuilder,
    gid: GroupId,
    rm: RecoveryManager,
    state: Rc<RefCell<Vec<u64>>>,
    m: &Mirror,
    ready: bool,
) {
    rm.attach_logging(b, gid);
    let s_encode = state.clone();
    let s_apply = state.clone();
    let o_apply = m.order.clone();
    let c_snapshot = m.snapshot_added.clone();
    let m_ready = m.ready.clone();
    let xfer = StateTransfer::new(
        gid,
        move || {
            s_encode
                .borrow()
                .iter()
                .map(|v| Message::new().with("tf-entry", *v))
                .collect()
        },
        move |_ctx, block| {
            if let Some(v) = block.get_u64("tf-entry") {
                let mut s = s_apply.borrow_mut();
                if !s.contains(&v) {
                    s.push(v);
                    o_apply.lock().unwrap().push(v);
                    c_snapshot.fetch_add(1, Ordering::Relaxed);
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
    let o_update = m.order.clone();
    let c_applies = m.applies.clone();
    xfer.on_entry_buffered(b, APPLY, move |_ctx, msg| {
        let _ = rm.log_delivery(APPLY, msg);
        let v = msg.get_u64("body").unwrap_or(u64::MAX);
        s_update.borrow_mut().push(v);
        o_update.lock().unwrap().push(v);
        c_applies.fetch_add(1, Ordering::Relaxed);
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
        let m = Mirror::new(i == 0);
        let shared = m.share();
        let r = site_root(s);
        let pid = h.spawn(s, move |b| {
            let state = Rc::new(RefCell::new(Vec::new()));
            wire_member(b, gid, open_manager(r), state, &shared, i == 0);
        });
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

    // -- Reform: respawn, exchange summaries, elect the last log -------------------------
    h.respawn_all();
    for &s in &sites {
        let r = site_root(s);
        let me = pids[s.index()];
        h.query(s, move |stack, _now, out| {
            let rm = open_manager(r);
            let summary = rm.log_summary(me).expect("summary").expect("logged");
            let mut expected = rm.last_known_sites().expect("sites");
            if expected.is_empty() {
                expected.push(me.site);
            }
            stack.begin_reform(gid, summary, expected, out);
        });
    }
    let mut resolved: Vec<Option<ReformStatus>> = vec![None; sites.len()];
    while resolved.iter().any(Option::is_none) {
        for &s in &sites {
            if resolved[s.index()].is_none() {
                match h.reform_status(s, gid) {
                    Some(ReformStatus::Collecting { .. }) | None => {}
                    Some(done) => {
                        println!("  site {} resolved: {done:?}", s.0);
                        resolved[s.index()] = Some(done);
                    }
                }
            }
        }
        h.rt.advance(Duration::from_millis(5));
    }
    let (lead, new_view_seq) = sites
        .iter()
        .find_map(|&s| match resolved[s.index()] {
            Some(ReformStatus::Lead { new_view_seq }) => Some((s, new_view_seq)),
            _ => None,
        })
        .expect("exactly one leader");
    println!("election: site {}'s log is authoritative (last to fail); refounding at view {new_view_seq}", lead.0);

    // Winner: recover checkpoint + log tail into a fresh member, then refound the group.
    let lead_mirror = Mirror::new(true);
    let shared = lead_mirror.share();
    let r = site_root(lead);
    let lead_pid = h.spawn(lead, move |b| {
        let rm = open_manager(r);
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let s = state.clone();
        let o = shared.order.clone();
        let s2 = state.clone();
        let o2 = shared.order.clone();
        let summary = rm
            .recover(
                |block| {
                    if let Some(v) = block.get_u64("tf-entry") {
                        s.borrow_mut().push(v);
                        o.lock().unwrap().push(v);
                    }
                },
                |entry, payload| {
                    if entry == APPLY {
                        let v = payload.get_u64("body").unwrap_or(u64::MAX);
                        s2.borrow_mut().push(v);
                        o2.lock().unwrap().push(v);
                    }
                },
            )
            .expect("recover");
        shared.replayed.store(
            (summary.messages + summary.snapshot_blocks) as u64,
            Ordering::Relaxed,
        );
        wire_member(b, gid, rm, state, &shared, true);
    });
    h.query(lead, move |stack, _now, out| {
        stack.create_group_at("inventory", gid, lead_pid, new_view_seq, out);
    });

    // Losers: discard the divergent tail, rejoin via the ordinary view-cut transfer.
    let mut members = vec![None, None, None];
    let mut new_pids = [lead_pid; 3];
    members[lead.index()] = Some(lead_mirror);
    for &s in &sites {
        if s == lead {
            continue;
        }
        let m = Mirror::new(false);
        let shared = m.share();
        let r = site_root(s);
        let pid = h.spawn(s, move |b| {
            let rm = open_manager(r);
            rm.discard().expect("discard losing log");
            wire_member(
                b,
                gid,
                rm,
                Rc::new(RefCell::new(Vec::new())),
                &shared,
                false,
            );
        });
        h.query(s, move |stack, _now, _out| {
            stack.register_group("inventory", gid, vec![lead]);
        });
        h.join_and_wait(gid, pid, None, Duration::from_secs(10))
            .expect("loser rejoin");
        members[s.index()] = Some(m);
        new_pids[s.index()] = pid;
    }
    let members: Vec<Mirror> = members.into_iter().map(Option::unwrap).collect();
    h.wait_until(Duration::from_secs(10), |_| {
        members.iter().all(|m| m.ready.load(Ordering::Relaxed))
    });
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
