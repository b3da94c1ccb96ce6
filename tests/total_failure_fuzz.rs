//! Total-failure reform (paper Section 3.8): every member site of a group is killed
//! mid-burst — process, memory and in-flight state all gone, only the fsync'd on-disk
//! recovery logs survive — and the restarting sites must *reform* the group from those
//! logs: exchange log summaries, elect the "last to fail" log as authoritative, refound
//! the group from the winner's replayed state, and rejoin the losers via the ordinary
//! view-cut state transfer.
//!
//! What the scenario pins, on both backends and across fuzzed kill orders and instants:
//!
//! * exactly one site's log wins the election (no split-brain refounding);
//! * every reformed member ends with the identical delivery order, whose prefix is
//!   exactly the winner's durably-logged pre-crash order;
//! * the exactly-once partition holds per member:
//!   `log-replayed + snapshot + post-reform applies == total`;
//! * compaction-truncated logs (checkpoint + log tail) reform to the same state as
//!   uncompacted ones, including when a kill lands in the compaction window.
//!
//! The kill choreography is a seedable crash-only [`NemesisSchedule`] so the proptest leg
//! draws many orders and instants without hand-writing permutations.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use vsync::core::{
    Duration, EntryId, GroupId, Message, ProcessId, ProtocolKind, ReformStatus, SiteId, StackConfig,
};
use vsync::proto::ProtoConfig;
use vsync::rt::{
    FaultPlan, IsisHarness, IsisRuntime, NemesisEvent, NemesisSchedule, SimRuntime, ThreadedRuntime,
};
use vsync::tools::{FileStore, RecoveryManager, StateTransfer};
use vsync::util::{DetRng, NetParams};

const APPLY: EntryId = EntryId(5);
const NUM_SITES: u16 = 3;
/// Pre-crash burst: sent round-robin while the crash schedule executes, so an arbitrary
/// prefix of it lands in the logs.
const BURST: u64 = 8;
/// Post-reform burst: sent by all reformed members, must be delivered everywhere.
const POST: u64 = 8;

/// Test-side mirror of one member: its full state order plus the exactly-once partition
/// counters (how many bodies arrived via log replay, via the rejoin snapshot, and via
/// post-cut delivery).
struct Member {
    order: Arc<Mutex<Vec<u64>>>,
    ready: Arc<AtomicBool>,
    replayed: Arc<AtomicU64>,
    snapshot_added: Arc<AtomicU64>,
    applies: Arc<AtomicU64>,
}

impl Member {
    fn new(ready: bool) -> Member {
        Member {
            order: Arc::new(Mutex::new(Vec::new())),
            ready: Arc::new(AtomicBool::new(ready)),
            replayed: Arc::new(AtomicU64::new(0)),
            snapshot_added: Arc::new(AtomicU64::new(0)),
            applies: Arc::new(AtomicU64::new(0)),
        }
    }

    fn order(&self) -> Vec<u64> {
        self.order.lock().unwrap().clone()
    }

    fn partition(&self) -> [u64; 3] {
        [
            self.replayed.load(Ordering::Relaxed),
            self.snapshot_added.load(Ordering::Relaxed),
            self.applies.load(Ordering::Relaxed),
        ]
    }
}

fn site_root(root: &Path, site: SiteId) -> PathBuf {
    root.join(format!("s{}", site.0))
}

fn open_manager(root: PathBuf) -> RecoveryManager {
    RecoveryManager::new(
        Rc::new(
            FileStore::new(root)
                .expect("open store")
                .with_fsync_interval(1),
        ),
        "recovery",
    )
}

/// Wires the common member plumbing on the node: a `Vec<u64>` state fed by ABCAST
/// deliveries (logged durably *before* they touch state, so the mirror is always covered
/// by the log) and by snapshot blocks (deduplicated — the rejoin snapshot may overlap a
/// replayed prefix).
fn wire_member(
    b: &mut vsync::core::ProcessBuilder,
    gid: GroupId,
    rm: RecoveryManager,
    state: Rc<RefCell<Vec<u64>>>,
    m: &Member,
    ready: bool,
    compaction: Option<usize>,
) {
    rm.attach_logging(b, gid);
    if let Some(threshold) = compaction {
        let s_ckpt = state.clone();
        rm.attach_compaction(b, gid, threshold, move || {
            s_ckpt
                .borrow()
                .iter()
                .map(|v| Message::new().with("tf-entry", *v))
                .collect()
        });
    }
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

/// First incarnation: empty state, durable logging (and optionally compaction) from the
/// start.
fn spawn_logging_member<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    site: SiteId,
    gid: GroupId,
    ready: bool,
    root: PathBuf,
    compaction: Option<usize>,
) -> (ProcessId, Member) {
    let m = Member::new(ready);
    let mirror = Member {
        order: m.order.clone(),
        ready: m.ready.clone(),
        replayed: m.replayed.clone(),
        snapshot_added: m.snapshot_added.clone(),
        applies: m.applies.clone(),
    };
    let pid = h.spawn(site, move |b| {
        let rm = open_manager(root);
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        wire_member(b, gid, rm, state, &mirror, ready, compaction);
    });
    (pid, m)
}

/// The election winner's second incarnation: full recovery (newest checkpoint's blocks,
/// then the surviving log tail) rebuilds the authoritative pre-crash state *before* any
/// handler is wired; it then refounds the group, so it spawns ready.
fn spawn_reform_leader<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    site: SiteId,
    gid: GroupId,
    root: PathBuf,
) -> (ProcessId, Member) {
    let m = Member::new(true);
    let mirror = Member {
        order: m.order.clone(),
        ready: m.ready.clone(),
        replayed: m.replayed.clone(),
        snapshot_added: m.snapshot_added.clone(),
        applies: m.applies.clone(),
    };
    let pid = h.spawn(site, move |b| {
        let rm = open_manager(root);
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let s = state.clone();
            let o = mirror.order.clone();
            let s2 = state.clone();
            let o2 = mirror.order.clone();
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
                .expect("leader recovery");
            mirror.replayed.store(
                (summary.messages + summary.snapshot_blocks) as u64,
                Ordering::Relaxed,
            );
        }
        wire_member(b, gid, rm, state, &mirror, true, None);
    });
    (pid, m)
}

/// A loser's second incarnation: its log lost the election, so its (possibly divergent)
/// tail is discarded outright and the whole state arrives via the winner's view-cut
/// snapshot — the paper's "recover as if joining for the first time" path.
fn spawn_reform_follower<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    site: SiteId,
    gid: GroupId,
    root: PathBuf,
) -> (ProcessId, Member) {
    let m = Member::new(false);
    let mirror = Member {
        order: m.order.clone(),
        ready: m.ready.clone(),
        replayed: m.replayed.clone(),
        snapshot_added: m.snapshot_added.clone(),
        applies: m.applies.clone(),
    };
    let pid = h.spawn(site, move |b| {
        let rm = open_manager(root);
        rm.discard().expect("discard losing log");
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        wire_member(b, gid, rm, state, &mirror, false, None);
    });
    (pid, m)
}

/// Everything the invariant checks need from one run.
struct ReformOutcome {
    /// The elected site.
    lead: SiteId,
    /// Kill order the schedule executed.
    kill_order: Vec<SiteId>,
    /// The winner's durably-covered pre-crash order (its mirror at the instant it died).
    precrash_lead: Vec<u64>,
    /// Final state orders, indexed by site.
    orders: Vec<Vec<u64>>,
    /// Final partition counters, indexed by site.
    partitions: Vec<[u64; 3]>,
}

/// Runs the full scenario: found a three-member group, start a burst, execute the crash
/// schedule mid-burst (total failure), respawn every site, reform from the logs, rejoin
/// the losers, then a post-reform burst.
fn run_total_failure_scenario<R: IsisRuntime>(
    mut h: IsisHarness<R>,
    root: &Path,
    schedule: &NemesisSchedule,
    crash_after: Duration,
    compaction: Option<usize>,
) -> ReformOutcome {
    let _ = std::fs::remove_dir_all(root);
    let gid = h.allocate_group_id();
    let sites = h.sites();

    // Found the group and get all three members in with completed transfers.
    let mut pids = Vec::new();
    let mut members = Vec::new();
    for (i, &s) in sites.iter().enumerate() {
        let (pid, m) = spawn_logging_member(&mut h, s, gid, i == 0, site_root(root, s), compaction);
        if i == 0 {
            h.create_group_with_id("tf", gid, pid);
        } else {
            h.join_and_wait(gid, pid, None, Duration::from_secs(20))
                .expect("initial join");
        }
        pids.push(pid);
        members.push(m);
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        members.iter().all(|m| m.ready.load(Ordering::Relaxed))
    });
    assert!(ok, "initial transfers never completed");

    // The burst, and the coordinated crash in the middle of it.
    for i in 0..BURST {
        h.client_send(
            pids[(i % NUM_SITES as u64) as usize],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    if crash_after > Duration::ZERO {
        h.rt.advance(crash_after);
    }
    h.run_nemesis(schedule);
    for &s in &sites {
        assert!(!h.rt.site_is_up(s), "schedule must kill every site");
    }
    let precrash: Vec<Vec<u64>> = members.iter().map(|m| m.order()).collect();

    // Respawn the sites (empty stacks, no processes) and start the reform election at
    // each: offer what the site's own log covers to the sites of its last recorded view.
    h.respawn_all();
    for &s in &sites {
        let r = site_root(root, s);
        let me = pids[s.index()];
        let began = h.query(s, move |stack, _now, out| {
            let rm = open_manager(r);
            let summary = rm
                .log_summary(me)
                .expect("log summary")
                .expect("every member site logged durably");
            let mut expected = rm.last_known_sites().expect("last known sites");
            if expected.is_empty() {
                expected.push(me.site);
            }
            stack.begin_reform(gid, summary, expected, out);
        });
        assert!(began.is_some(), "reform never started at {s:?}");
    }

    // Poll every site until its election resolves.
    let mut resolved: Vec<Option<ReformStatus>> = vec![None; sites.len()];
    let mut waited = Duration::ZERO;
    while resolved.iter().any(Option::is_none) {
        for &s in &sites {
            if resolved[s.index()].is_some() {
                continue;
            }
            match h.reform_status(s, gid) {
                Some(ReformStatus::Collecting { .. }) | None => {}
                Some(done) => resolved[s.index()] = Some(done),
            }
        }
        h.rt.advance(Duration::from_millis(5));
        waited += Duration::from_millis(5);
        assert!(
            waited < Duration::from_secs(30),
            "reform election never resolved: {resolved:?}"
        );
    }

    // Exactly one winner; everyone else must name it as their contact.
    let leads: Vec<(SiteId, u64)> = sites
        .iter()
        .filter_map(|&s| match resolved[s.index()] {
            Some(ReformStatus::Lead { new_view_seq }) => Some((s, new_view_seq)),
            _ => None,
        })
        .collect();
    assert_eq!(
        leads.len(),
        1,
        "exactly one log must win the election: {resolved:?}"
    );
    let (lead, new_view_seq) = leads[0];
    for &s in &sites {
        if s == lead {
            continue;
        }
        let contact = match resolved[s.index()] {
            Some(ReformStatus::Follow { leader }) => leader,
            Some(ReformStatus::Operational { contact }) => contact,
            ref other => panic!("loser at {s:?} resolved unexpectedly: {other:?}"),
        };
        assert_eq!(contact, lead, "loser at {s:?} named the wrong contact");
    }

    // The winner replays its log and refounds the group one past the authoritative view,
    // so the reformed incarnation's views dominate every pre-crash log.
    let (lead_pid, lead_member) = spawn_reform_leader(&mut h, lead, gid, site_root(root, lead));
    h.query(lead, move |stack, _now, out| {
        stack.create_group_at("tf", gid, lead_pid, new_view_seq, out);
    })
    .expect("refound at leader");
    assert_eq!(
        lead_member.order(),
        precrash[lead.index()],
        "leader replay must rebuild exactly its durably-covered pre-crash order"
    );

    // The losers discard their divergent tails and rejoin through the ordinary view-cut
    // transfer, with the reformed leader as contact.
    let mut new_pids = vec![ProcessId::new(lead, 0); sites.len()];
    let mut new_members: Vec<Option<Member>> = sites.iter().map(|_| None).collect();
    new_pids[lead.index()] = lead_pid;
    new_members[lead.index()] = Some(lead_member);
    for &s in &sites {
        if s == lead {
            continue;
        }
        let (pid, m) = spawn_reform_follower(&mut h, s, gid, site_root(root, s));
        h.query(s, move |stack, _now, _out| {
            stack.register_group("tf", gid, vec![lead]);
        })
        .expect("register reformed group");
        h.join_and_wait(gid, pid, None, Duration::from_secs(20))
            .expect("loser rejoin");
        new_pids[s.index()] = pid;
        new_members[s.index()] = Some(m);
    }
    let new_members: Vec<Member> = new_members.into_iter().map(Option::unwrap).collect();
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        new_members.iter().all(|m| m.ready.load(Ordering::Relaxed))
    });
    assert!(ok, "rejoin transfers never completed");

    // Post-reform burst: distinct bodies, everyone sending, everyone delivering.
    let total = precrash[lead.index()].len() as u64 + POST;
    for i in 0..POST {
        h.client_send(
            new_pids[(i % NUM_SITES as u64) as usize],
            gid,
            APPLY,
            Message::with_body(100 + i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| {
        new_members
            .iter()
            .all(|m| m.order.lock().unwrap().len() as u64 == total)
    });
    assert!(ok, "post-reform deliveries incomplete");
    h.settle(Duration::from_millis(50));

    let outcome = ReformOutcome {
        lead,
        kill_order: schedule.crashed_sites(),
        precrash_lead: precrash[lead.index()].clone(),
        orders: new_members.iter().map(Member::order).collect(),
        partitions: new_members.iter().map(Member::partition).collect(),
    };
    let _ = std::fs::remove_dir_all(root);
    outcome
}

/// The invariants every run must satisfy, regardless of kill order or instant.
fn check_reform(o: &ReformOutcome) {
    let lead = o.lead.index();
    let total = o.precrash_lead.len() + POST as usize;

    // Identical delivery orders everywhere, whose prefix is exactly the winner's
    // durably-logged pre-crash order.
    for (i, order) in o.orders.iter().enumerate() {
        assert_eq!(
            order, &o.orders[lead],
            "member at site {i} diverges from the reformed order"
        );
        assert_eq!(
            order.len(),
            total,
            "member at site {i} lost or gained bodies"
        );
    }
    assert_eq!(
        &o.orders[lead][..o.precrash_lead.len()],
        &o.precrash_lead[..],
        "the authoritative pre-crash order must survive as the reformed prefix"
    );

    // No duplicates, and the delivered set is exactly log ∪ post-reform burst.
    let mut bodies = o.orders[lead].clone();
    bodies.sort_unstable();
    let mut expect = o.precrash_lead.clone();
    expect.extend((0..POST).map(|i| 100 + i));
    expect.sort_unstable();
    assert_eq!(bodies, expect, "reformed members lost or duplicated bodies");

    // The exactly-once partition.  The winner gets its whole prefix from the log and
    // nothing from any snapshot; each loser gets the whole prefix from the winner's
    // snapshot and nothing from its (discarded) log; everyone applies the post burst.
    let prefix = o.precrash_lead.len() as u64;
    for (i, p) in o.partitions.iter().enumerate() {
        let expected = if i == lead {
            [prefix, 0, POST]
        } else {
            [0, prefix, POST]
        };
        assert_eq!(
            *p, expected,
            "site {i} partition (log-replayed + snapshot + applies) off \
             (kill order {:?}, lead {:?})",
            o.kill_order, o.lead
        );
        assert_eq!(
            p.iter().sum::<u64>(),
            total as u64,
            "site {i}: partition must sum to the member's total state"
        );
    }
}

fn sim_harness(seed: u64) -> IsisHarness<SimRuntime> {
    let params = NetParams::modern();
    IsisHarness::new(SimRuntime::new(
        NUM_SITES as usize,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        seed,
    ))
}

fn threaded_harness(seed: u64) -> IsisHarness<ThreadedRuntime> {
    let faults = FaultPlan::none()
        .with_delay(Duration::from_micros(100))
        .with_jitter(Duration::from_micros(300));
    IsisHarness::new(ThreadedRuntime::new(
        NUM_SITES as usize,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        seed,
    ))
}

fn fuzz_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vsync-total-failure-{tag}-{}", std::process::id()))
}

// ---------------------------------------------------------------------------------------
// Deterministic conformance legs (both backends)
// ---------------------------------------------------------------------------------------

/// Every site, in an order drawn from `seed`.
fn shuffled_sites(seed: u64) -> Vec<SiteId> {
    let mut sites: Vec<SiteId> = (0..NUM_SITES).map(SiteId).collect();
    DetRng::new(seed).shuffle(&mut sites);
    sites
}

#[test]
fn simulated_backend_reforms_after_total_failure() {
    // Generous gaps: each kill is followed by a view change at the survivors — until the
    // group is down to its last two members.  Killing the *older* of those wedges the
    // younger behind the primary-partition fence (the survivor is the losing half of an
    // even split), so the final two sites' logs share the authoritative view and the
    // election tie-breaks toward the older member: the penultimate kill wins.
    let sites: Vec<SiteId> = (0..NUM_SITES).map(SiteId).collect();
    let schedule = NemesisSchedule::crashes(sites, Duration::from_millis(200));
    let o = run_total_failure_scenario(
        sim_harness(2026),
        &fuzz_root("sim"),
        &schedule,
        Duration::from_millis(2),
        None,
    );
    check_reform(&o);
    let penultimate = o.kill_order.get(o.kill_order.len() - 2);
    assert_eq!(
        Some(&o.lead),
        penultimate,
        "the older member of the final wedged pair must win the election"
    );
}

#[test]
fn simulated_backend_reforms_after_a_reversed_kill_order() {
    let sites: Vec<SiteId> = (0..NUM_SITES).rev().map(SiteId).collect();
    let schedule = NemesisSchedule::crashes(sites, Duration::from_millis(200));
    let o = run_total_failure_scenario(
        sim_harness(2027),
        &fuzz_root("sim-rev"),
        &schedule,
        Duration::from_millis(2),
        None,
    );
    check_reform(&o);
    assert_eq!(Some(&o.lead), o.kill_order.last());
}

#[test]
fn simulated_backend_reforms_after_a_simultaneous_crash() {
    // No site outlives another: the election falls entirely to the frontier weight and
    // rank tie-breaks, and must still produce exactly one winner.
    let sites: Vec<SiteId> = (0..NUM_SITES).map(SiteId).collect();
    let schedule = NemesisSchedule::crashes(sites, Duration::ZERO);
    let o = run_total_failure_scenario(
        sim_harness(2028),
        &fuzz_root("sim-simul"),
        &schedule,
        Duration::from_millis(3),
        None,
    );
    check_reform(&o);
}

#[test]
fn threaded_backend_reforms_after_total_failure() {
    let sites: Vec<SiteId> = (0..NUM_SITES).map(SiteId).collect();
    let schedule = NemesisSchedule::crashes(sites, Duration::from_millis(20));
    let o = run_total_failure_scenario(
        threaded_harness(2026),
        &fuzz_root("thr"),
        &schedule,
        Duration::from_millis(2),
        None,
    );
    check_reform(&o);
}

#[test]
fn threaded_backend_reforms_after_a_shuffled_kill_order() {
    let schedule = NemesisSchedule::crashes(shuffled_sites(7), Duration::from_millis(10));
    let o = run_total_failure_scenario(
        threaded_harness(2029),
        &fuzz_root("thr-shuf"),
        &schedule,
        Duration::from_millis(1),
        None,
    );
    check_reform(&o);
}

// ---------------------------------------------------------------------------------------
// Compaction companions
// ---------------------------------------------------------------------------------------

/// A compaction-truncated log (checkpoint + surviving tail) must reform to *exactly* the
/// state an uncompacted log reforms to.  Compaction is purely local work inside a view
/// change handler, so the same seed and schedule produce the same network history in the
/// simulator — any divergence is compaction corrupting recovery.
#[test]
fn compacted_logs_reform_to_the_same_state_as_uncompacted() {
    let sites: Vec<SiteId> = (0..NUM_SITES).map(SiteId).collect();
    let schedule = NemesisSchedule::crashes(sites, Duration::from_millis(200));
    let plain = run_total_failure_scenario(
        sim_harness(2030),
        &fuzz_root("plain"),
        &schedule,
        Duration::from_millis(2),
        None,
    );
    check_reform(&plain);
    // Threshold 1: every view change with anything in the log compacts, so the staggered
    // kills (each of which forces a view change at the survivors) guarantee the winner's
    // log is checkpoint + tail by the time it dies.
    let compacted = run_total_failure_scenario(
        sim_harness(2030),
        &fuzz_root("compacted"),
        &schedule,
        Duration::from_millis(2),
        Some(1),
    );
    check_reform(&compacted);
    assert_eq!(
        plain.lead, compacted.lead,
        "compaction changed the election outcome"
    );
    assert_eq!(
        plain.orders, compacted.orders,
        "compaction-truncated logs reformed to a different state"
    );
    assert_eq!(plain.partitions, compacted.partitions);
}

/// Kills timed around the survivors' post-kill view change — the instant automatic
/// compaction fires — exercising the checkpoint-written / log-truncated crash window.
#[test]
fn kills_landing_in_the_compaction_window_stay_exactly_once() {
    // The first kill forces a view change (and hence a compaction) at the survivors
    // roughly one failure timeout later; sweep the second kill across that instant.
    let ft = NetParams::modern().failure_timeout;
    for (i, epsilon_ms) in [0u64, 2, 5, 10].into_iter().enumerate() {
        let crash = |site| NemesisEvent::Crash { site: SiteId(site) };
        let schedule = NemesisSchedule::new()
            .at(Duration::ZERO, crash(0))
            .at(ft + Duration::from_millis(epsilon_ms), crash(1))
            .at(ft.saturating_mul(3), crash(2));
        let o = run_total_failure_scenario(
            sim_harness(3000 + i as u64),
            &fuzz_root(&format!("ckpt-window-{i}")),
            &schedule,
            Duration::from_millis(2),
            Some(1),
        );
        check_reform(&o);
    }
}

// ---------------------------------------------------------------------------------------
// Fuzz: crash order and crash instant
// ---------------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]
    #[test]
    fn any_kill_order_and_instant_reforms_exactly_once_sim(
        seed in 0u64..u64::MAX,
        gap_ms in 0u64..300,
        crash_after_ms in 0u64..10,
        compact in 0u8..2,
    ) {
        let schedule = NemesisSchedule::crashes(shuffled_sites(seed), Duration::from_millis(gap_ms));
        let o = run_total_failure_scenario(
            sim_harness(seed ^ 0xace1),
            &fuzz_root(&format!("fuzz-{seed}")),
            &schedule,
            Duration::from_millis(crash_after_ms),
            if compact == 1 { Some(2) } else { None },
        );
        check_reform(&o);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3 })]
    #[test]
    fn any_kill_order_and_instant_reforms_exactly_once_threaded(
        seed in 0u64..u64::MAX,
        gap_ms in 0u64..30,
        crash_after_ms in 0u64..4,
    ) {
        let schedule = NemesisSchedule::crashes(shuffled_sites(seed), Duration::from_millis(gap_ms));
        let o = run_total_failure_scenario(
            threaded_harness(seed ^ 0xbeef),
            &fuzz_root(&format!("fuzz-thr-{seed}")),
            &schedule,
            Duration::from_millis(crash_after_ms),
            None,
        );
        check_reform(&o);
    }
}
