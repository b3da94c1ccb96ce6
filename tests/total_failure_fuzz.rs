//! Total-failure reform (paper Section 3.8): every member site of a group is killed
//! mid-burst — process, memory and in-flight state all gone, only the fsync'd on-disk
//! recovery logs survive — and the restarting sites must *reform* the group from those
//! logs: exchange log summaries, elect the "last to fail" log as authoritative, refound
//! the group from the winner's replayed state, and rejoin the losers via the ordinary
//! view-cut state transfer.  The site stacks act on their own verdicts; each restarting
//! member reads its verdict from its first view.
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

mod support;

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use support::{
    check, holding, jitter, open_log, send, sim, spawn_member, temp_root, threaded, Disk, Recorder,
};
use vsync::core::{Duration, ProtocolKind, SiteId};
use vsync::rt::{
    FaultPlan, IsisHarness, IsisRuntime, NemesisEvent, NemesisSchedule, PartitionInvariants,
};
use vsync::util::{DetRng, NetParams};

const NUM_SITES: u16 = 3;
/// Pre-crash burst: sent round-robin while the crash schedule executes, so an arbitrary
/// prefix of it lands in the logs.
const BURST: u64 = 8;
/// Post-reform burst: sent by all reformed members, must be delivered everywhere.
const POST: u64 = 8;

fn site_root(root: &Path, site: SiteId) -> PathBuf {
    root.join(format!("s{}", site.0))
}

/// Everything the invariant checks need from one run.
struct ReformOutcome {
    /// The elected site.
    lead: SiteId,
    /// Kill order the schedule executed.
    kill_order: Vec<SiteId>,
    /// The first incarnations, indexed by site, as they were when their sites died.
    precrash: Vec<Recorder>,
    /// The reformed members, indexed by site.
    reformed: Vec<Recorder>,
}

impl ReformOutcome {
    /// The winner's durably-covered pre-crash order (its state at the instant it died).
    fn precrash_lead(&self) -> Vec<u64> {
        self.precrash[self.lead.index()].bodies()
    }
}

/// Runs the full scenario: found a three-member group, start a burst, execute the crash
/// schedule mid-burst (total failure), respawn every site, reform from the logs (the
/// winner refounds, the losers rejoin), then a post-reform burst.
fn run_total_failure_scenario<R: IsisRuntime>(
    mut h: IsisHarness<R>,
    root: &Path,
    schedule: &NemesisSchedule,
    crash_after: Duration,
    compaction: Option<usize>,
) -> ReformOutcome {
    let gid = h.allocate_group_id();
    let sites = h.sites();

    // Found the group and get all three members in with completed transfers.  Each logs
    // durably (and optionally compacts) from the start.
    let mut pids = Vec::new();
    let mut members = Vec::new();
    for (i, &s) in sites.iter().enumerate() {
        let disk = Disk::Log(site_root(root, s), compaction);
        let (pid, m) = spawn_member(&mut h, s, gid, i == 0, disk);
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
        members.iter().all(Recorder::is_ready)
    });
    assert!(ok, "initial transfers never completed");

    // The burst, and the coordinated crash in the middle of it.
    for i in 0..BURST {
        send(
            &mut h,
            pids[(i % NUM_SITES as u64) as usize],
            gid,
            i,
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

    // Respawn the sites (empty stacks, no processes), spawn each site's restarting member
    // and start the reform election for it: offer what the site's own log covers to the
    // sites of its last recorded view.  The stacks refound the group with the winner's
    // member one view past the authoritative log, so the reformed incarnation's views
    // dominate every pre-crash log, and join every other member through the winner.
    h.respawn_all();
    let (new_pids, reformed): (Vec<_>, Vec<_>) = sites
        .iter()
        .map(|&s| {
            let r = site_root(root, s);
            let (pid, m) = spawn_member(&mut h, s, gid, false, Disk::Reform(r.clone()));
            let old = pids[s.index()];
            let began = h.query(s, move |stack, _now, out| {
                let rm = open_log(r);
                let summary = rm
                    .log_summary(old)
                    .expect("log summary")
                    .expect("every member site logged durably");
                let expected = rm.last_known_sites().expect("last known sites");
                stack.begin_reform("tf", gid, pid, None, summary, expected, out);
            });
            assert!(began.is_some(), "reform never started at {s:?}");
            (pid, m)
        })
        .unzip();
    let ok = h.wait_until(Duration::from_secs(30), |_| {
        reformed.iter().all(Recorder::is_ready)
    });
    assert!(ok, "the reformed group never formed");

    // Exactly one winner: the one member whose first view it founded alone.  Its first
    // view dominates every pre-crash view.  Its replay (newest checkpoint's blocks, then
    // the surviving log tail) rebuilt exactly its durably-covered pre-crash order; every
    // other member discarded its divergent tail and took the winner's snapshot.
    let leads: Vec<usize> = (0..sites.len())
        .filter(|&i| reformed[i].timeline().views[0].1.len() == 1)
        .collect();
    assert_eq!(leads.len(), 1, "exactly one log must win the election");
    let lead = sites[leads[0]];
    let founded = reformed[lead.index()].views()[0];
    let precrash_last = members.iter().flat_map(Recorder::views).max();
    assert!(
        Some(founded) > precrash_last,
        "refounded at view {founded}, not past {precrash_last:?}"
    );
    assert_eq!(
        reformed[lead.index()].bodies(),
        members[lead.index()].bodies(),
        "leader replay must rebuild exactly its durably-covered pre-crash order"
    );

    // Post-reform burst: distinct bodies, everyone sending, everyone delivering.
    let total = members[lead.index()].len() + POST as usize;
    for i in 0..POST {
        send(
            &mut h,
            new_pids[(i % NUM_SITES as u64) as usize],
            gid,
            100 + i,
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_| holding(&reformed, total));
    assert!(ok, "post-reform deliveries incomplete");
    h.settle(Duration::from_millis(50));

    let _ = std::fs::remove_dir_all(root);
    ReformOutcome {
        lead,
        kill_order: schedule.crashed_sites(),
        precrash: members,
        reformed,
    }
}

/// The invariants every run must satisfy, regardless of kill order or instant.
fn check_reform(o: &ReformOutcome) {
    let lead = o.lead.index();
    let precrash_lead = o.precrash_lead();
    let total = precrash_lead.len() + POST as usize;

    // Identical duplicate-free state orders everywhere, whose prefix is exactly the
    // winner's durably-logged pre-crash order; and one order per view in both lives.
    check(&o.reformed, PartitionInvariants::check_all);
    let both_lives: Vec<Recorder> = o.precrash.iter().chain(&o.reformed).cloned().collect();
    check(&both_lives, PartitionInvariants::check_view_order);
    let order = o.reformed[lead].bodies();
    assert_eq!(order.len(), total, "reformed members lost or gained bodies");
    assert_eq!(
        &order[..precrash_lead.len()],
        &precrash_lead[..],
        "the authoritative pre-crash order must survive as the reformed prefix"
    );

    // The delivered set is exactly log ∪ post-reform burst.
    let mut expect = precrash_lead.clone();
    expect.extend((0..POST).map(|i| 100 + i));
    expect.sort_unstable();
    assert_eq!(
        o.reformed[lead].sorted(),
        expect,
        "reformed members lost bodies"
    );

    // The exactly-once partition.  The winner gets its whole prefix from the log and
    // nothing from any snapshot; each loser gets the whole prefix from the winner's
    // snapshot and nothing from its (discarded) log; everyone applies the post burst.
    let prefix = precrash_lead.len() as u64;
    for (i, r) in o.reformed.iter().enumerate() {
        let expected = if i == lead {
            [prefix, 0, POST]
        } else {
            [0, prefix, POST]
        };
        assert_eq!(
            r.from(),
            expected,
            "site {i} partition (log-replayed + snapshot + applies) off \
             (kill order {:?}, lead {:?})",
            o.kill_order,
            o.lead
        );
    }
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
        sim(NUM_SITES as usize, 2026, FaultPlan::none()),
        &temp_root("sim"),
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
        sim(NUM_SITES as usize, 2027, FaultPlan::none()),
        &temp_root("sim-rev"),
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
        sim(NUM_SITES as usize, 2028, FaultPlan::none()),
        &temp_root("sim-simul"),
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
        threaded(NUM_SITES as usize, 2026, jitter()),
        &temp_root("thr"),
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
        threaded(NUM_SITES as usize, 2029, jitter()),
        &temp_root("thr-shuf"),
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
        sim(NUM_SITES as usize, 2030, FaultPlan::none()),
        &temp_root("plain"),
        &schedule,
        Duration::from_millis(2),
        None,
    );
    check_reform(&plain);
    // Threshold 1: every view change with anything in the log compacts, so the staggered
    // kills (each of which forces a view change at the survivors) guarantee the winner's
    // log is checkpoint + tail by the time it dies.
    let compacted = run_total_failure_scenario(
        sim(NUM_SITES as usize, 2030, FaultPlan::none()),
        &temp_root("compacted"),
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
        plain
            .reformed
            .iter()
            .map(Recorder::bodies)
            .collect::<Vec<_>>(),
        compacted
            .reformed
            .iter()
            .map(Recorder::bodies)
            .collect::<Vec<_>>(),
        "compaction-truncated logs reformed to a different state"
    );
    assert_eq!(
        plain
            .reformed
            .iter()
            .map(Recorder::from)
            .collect::<Vec<_>>(),
        compacted
            .reformed
            .iter()
            .map(Recorder::from)
            .collect::<Vec<_>>()
    );
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
            sim(NUM_SITES as usize, 3000 + i as u64, FaultPlan::none()),
            &temp_root(&format!("ckpt-window-{i}")),
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
            sim(NUM_SITES as usize, seed ^ 0xace1, FaultPlan::none()),
            &temp_root(&format!("fuzz-{seed}")),
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
            threaded(NUM_SITES as usize, seed ^ 0xbeef, jitter()),
            &temp_root(&format!("fuzz-thr-{seed}")),
            &schedule,
            Duration::from_millis(crash_after_ms),
            None,
        );
        check_reform(&o);
    }
}
