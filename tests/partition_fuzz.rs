//! Property test: **network partitions never split the brain** (primary-partition
//! membership, both backends).
//!
//! Every fuzz case forms a five-member group, blasts ABCAST bursts from the members that
//! will stay in the majority component, and drives a randomized [`NemesisSchedule`]: a
//! symmetric cut at a randomized instant, held for a randomized duration, then healed.
//! The cut may or may not last long enough to trigger failure detection, and the minority
//! may or may not contain the rank-0 coordinator — whatever happens, the recorded
//! [`MemberTimeline`]s must satisfy the [`PartitionInvariants`]: no two members ever
//! install the same view seq with different memberships (no split-brain), each member's
//! view seqs are monotonic across wedge/heal/rejoin cycles, and after the heal every
//! member converges to the identical duplicate-free delivery log.
//!
//! Deterministic companions pin the mechanisms the fuzz relies on: the minority wedges
//! *observably* (counters) and rejoins after the heal; a cut too short for suspicion
//! changes nothing; the checker catches a recorded split-brain history (two disjoint view
//! 6s); a cluster-wide delay spike produces suspicions that retract without a needless view
//! change; and a join routed at a wedged contact fails over to a reachable one.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::mpsc;

use proptest::prelude::*;
use vsync::core::{
    Duration, EntryId, GroupId, Message, ProcessId, ProtocolKind, SiteId, StackConfig,
};
use vsync::proto::ProtoConfig;
use vsync::rt::{
    FaultPlan, InvariantViolation, IsisHarness, IsisRuntime, MemberTimeline, NemesisEvent,
    NemesisSchedule, PartitionInvariants, SimRuntime, ThreadedRuntime,
};
use vsync::tools::StateTransfer;
use vsync::util::NetParams;

const APPLY: EntryId = EntryId(7);
const SITES: u16 = 5;
/// Messages per burst phase (one fully-delivered pre-cut burst, one riding into the cut).
const BURST: u64 = 6;

/// One observation from a member, tagged with the member's site.  Handlers run
/// sequentially on the member's node, so filtering the shared stream by member
/// reconstructs each member's local event order.
#[derive(Clone, Debug)]
enum Obs {
    Delivered {
        member: u16,
        body: u64,
    },
    View {
        member: u16,
        seq: u64,
        members: Vec<ProcessId>,
    },
}

fn drain(rx: &mpsc::Receiver<Obs>, into: &mut Vec<Obs>) {
    while let Ok(o) = rx.try_recv() {
        into.push(o);
    }
}

fn distinct_bodies(obs: &[Obs], member: u16) -> BTreeSet<u64> {
    obs.iter()
        .filter_map(|o| match o {
            Obs::Delivered { member: m, body } if *m == member => Some(*body),
            _ => None,
        })
        .collect()
}

/// Spawns a member whose state is the log of applied bodies.  The state-transfer tool is
/// what lets an exiled member catch up after a heal-rejoin: the rejoin snapshot re-serves
/// the primary's state and deduplicated application appends exactly the messages the
/// exile missed, in the primary's order.
fn spawn_member<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    site: u16,
    gid: GroupId,
    ready: bool,
    tx: mpsc::Sender<Obs>,
) -> ProcessId {
    h.spawn(SiteId(site), move |b| {
        let state: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let s_encode = state.clone();
        let s_apply = state.clone();
        let tx_apply = tx.clone();
        let xfer = StateTransfer::new(
            gid,
            move || {
                s_encode
                    .borrow()
                    .iter()
                    .map(|v| Message::new().with("pf-entry", *v))
                    .collect()
            },
            move |_ctx, block| {
                if let Some(v) = block.get_u64("pf-entry") {
                    let mut s = s_apply.borrow_mut();
                    // A rejoin snapshot overlaps the prefix the exile already holds.
                    if !s.contains(&v) {
                        s.push(v);
                        let _ = tx_apply.send(Obs::Delivered {
                            member: site,
                            body: v,
                        });
                    }
                }
            },
        );
        xfer.attach(b);
        if ready {
            xfer.mark_ready();
        }
        let s_update = state.clone();
        let tx_deliver = tx.clone();
        xfer.on_entry_buffered(b, APPLY, move |_ctx, msg| {
            let v = msg.get_u64("body").unwrap_or(u64::MAX);
            s_update.borrow_mut().push(v);
            let _ = tx_deliver.send(Obs::Delivered {
                member: site,
                body: v,
            });
        });
        b.on_view_change(gid, move |_ctx, ev| {
            let _ = tx.send(Obs::View {
                member: site,
                seq: ev.view.seq(),
                members: ev.view.members.clone(),
            });
        });
    })
}

/// Forms the five-member group (one member per site) and waits for the fully-formed view
/// (seq 5) everywhere.
fn form_group<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    tx: &mpsc::Sender<Obs>,
) -> (GroupId, Vec<ProcessId>) {
    let gid = h.allocate_group_id();
    let members: Vec<ProcessId> = (0..SITES)
        .map(|s| spawn_member(h, s, gid, s == 0, tx.clone()))
        .collect();
    h.create_group_with_id("part", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(20))
            .expect("join");
    }
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        (0..SITES).all(|s| {
            h.view_of(SiteId(s), gid)
                .map(|v| v.seq() == SITES as u64 && v.len() == SITES as usize)
                .unwrap_or(false)
        })
    });
    assert!(ok, "five-member view never installed everywhere");
    (gid, members)
}

/// Folds the shared observation stream into per-member timelines for the checker.
fn timelines_from(obs: &[Obs]) -> Vec<MemberTimeline> {
    (0..SITES)
        .map(|m| {
            let mut t = MemberTimeline::new(format!("m{m}"));
            let mut cur = 0u64;
            for o in obs {
                match o {
                    Obs::View {
                        member,
                        seq,
                        members,
                    } if *member == m => {
                        cur = *seq;
                        t.install(*seq, members.clone());
                    }
                    Obs::Delivered { member, body } if *member == m => {
                        t.deliver(cur, body.to_string());
                    }
                    _ => {}
                }
            }
            t
        })
        .collect()
}

struct CycleOutcome {
    timelines: Vec<MemberTimeline>,
    /// Whether any member installed a view past the fully-formed one (the cut was long
    /// enough to change membership).
    membership_changed: bool,
}

/// The core cycle: form, burst, cut, heal, converge.  Panics if the cluster fails to
/// re-agree on one view containing every member with every body delivered everywhere.
fn run_partition_cycle<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    minority: &[u16],
    cut_at: Duration,
    cut_len: Duration,
) -> CycleOutcome {
    let (tx, rx) = mpsc::channel::<Obs>();
    let (gid, members) = form_group(h, &tx);
    let majority: Vec<u16> = (0..SITES).filter(|s| !minority.contains(s)).collect();
    // Senders stay in the primary component throughout, so virtual synchrony obliges
    // every burst message to survive the cut (a doomed component's unsent traffic may be
    // legitimately lost; a primary member's may not).
    let senders: Vec<ProcessId> = majority.iter().map(|s| members[*s as usize]).collect();
    let mut observations: Vec<Obs> = Vec::new();

    // Phase one: a burst fully delivered before the cut.
    for i in 0..BURST {
        h.client_send(
            senders[(i as usize) % senders.len()],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        drain(&rx, &mut observations);
        (0..SITES).all(|m| distinct_bodies(&observations, m).len() >= BURST as usize)
    });
    assert!(ok, "phase-one deliveries incomplete");

    // Phase two rides into the cut: send, then execute the nemesis window.
    for i in BURST..2 * BURST {
        h.client_send(
            senders[(i as usize) % senders.len()],
            gid,
            APPLY,
            Message::with_body(i),
            ProtocolKind::Abcast,
        );
    }
    let components = vec![
        majority.iter().map(|s| SiteId(*s)).collect::<Vec<_>>(),
        minority.iter().map(|s| SiteId(*s)).collect::<Vec<_>>(),
    ];
    h.run_nemesis(&NemesisSchedule::partition_window(
        cut_at,
        cut_at + cut_len,
        components,
    ));

    // Healed: the cluster must converge — one agreed view containing every member, and
    // every member holding every body (exiles catch up through the rejoin snapshot).
    let all = 2 * BURST;
    let ok = h.wait_until(Duration::from_secs(60), |h| {
        drain(&rx, &mut observations);
        let mut agreed: Option<(u64, Vec<ProcessId>)> = None;
        for s in 0..SITES {
            let Some(v) = h.view_of(SiteId(s), gid) else {
                return false;
            };
            let mut ms = v.members.clone();
            ms.sort();
            match &agreed {
                None => agreed = Some((v.seq(), ms)),
                Some((seq, known)) => {
                    if *seq != v.seq() || *known != ms {
                        return false;
                    }
                }
            }
        }
        let (_, ms) = agreed.expect("checked all sites");
        members.iter().all(|m| ms.contains(m))
            && (0..SITES).all(|m| distinct_bodies(&observations, m).len() >= all as usize)
    });
    assert!(ok, "cluster never converged after the heal");
    h.settle(Duration::from_millis(100));
    drain(&rx, &mut observations);

    let membership_changed = observations
        .iter()
        .any(|o| matches!(o, Obs::View { seq, .. } if *seq > SITES as u64));
    CycleOutcome {
        timelines: timelines_from(&observations),
        membership_changed,
    }
}

fn check_invariants(timelines: Vec<MemberTimeline>) {
    let mut inv = PartitionInvariants::new();
    for t in timelines {
        inv.record(t);
    }
    if let Err(v) = inv.check_all() {
        panic!("partition invariant violated: {v}");
    }
}

fn sim_harness(seed: u64) -> IsisHarness<SimRuntime> {
    let params = NetParams::modern();
    IsisHarness::new(SimRuntime::new(
        SITES as usize,
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
        SITES as usize,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        seed,
    ))
}

/// Minority compositions the fuzz rotates through: a lone junior, a junior pair, the
/// coordinator paired with a junior, the coordinator alone, and the two oldest members —
/// every one a strict minority, so the fence must wedge exactly that side.
const MINORITIES: [&[u16]; 5] = [&[4], &[3, 4], &[0, 4], &[0], &[0, 1]];

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]
    #[test]
    fn simulated_backend_survives_fuzzed_partitions(
        minority_idx in 0usize..MINORITIES.len(),
        cut_at_ms in 0u64..40,
        // From well under the failure timeout (no suspicion forms at all) to many
        // multiples of it (the majority cuts the minority, which must wedge and rejoin).
        cut_len_ms in 20u64..400,
        seed in 1u64..5_000,
    ) {
        let mut h = sim_harness(seed);
        let outcome = run_partition_cycle(
            &mut h,
            MINORITIES[minority_idx],
            Duration::from_millis(cut_at_ms),
            Duration::from_millis(cut_len_ms),
        );
        check_invariants(outcome.timelines);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2 })]
    #[test]
    fn threaded_backend_survives_fuzzed_partitions(
        minority_idx in 0usize..2,
        // The threaded failure timeout is 300ms of wall-clock; hold the cut well past it.
        cut_len_ms in 700u64..1_000,
        seed in 1u64..5_000,
    ) {
        let mut h = threaded_harness(seed);
        let outcome = run_partition_cycle(
            &mut h,
            MINORITIES[minority_idx],
            Duration::from_millis(10),
            Duration::from_millis(cut_len_ms),
        );
        check_invariants(outcome.timelines);
    }
}

#[test]
fn the_minority_wedges_observably_and_rejoins_after_the_heal() {
    let mut h = sim_harness(41);
    let outcome = run_partition_cycle(
        &mut h,
        &[3, 4],
        Duration::from_millis(10),
        Duration::from_millis(600),
    );
    assert!(
        outcome.membership_changed,
        "a 600ms cut must have cut the minority out of the view"
    );
    let stats = h.rt.stats();
    assert!(stats.minority_wedges >= 1, "no wedge was counted");
    assert!(stats.partition_stalls >= 1, "no stall was counted");
    assert!(
        stats.rejoins_after_heal >= 2,
        "both exiled sites must discard their tails and rejoin: {}",
        stats.rejoins_after_heal
    );
    check_invariants(outcome.timelines);
}

#[test]
fn a_cut_shorter_than_the_failure_timeout_changes_nothing() {
    let mut h = sim_harness(42);
    let outcome = run_partition_cycle(
        &mut h,
        &[4],
        Duration::from_millis(10),
        Duration::from_millis(12),
    );
    assert!(
        !outcome.membership_changed,
        "a 12ms cut (failure timeout 50ms) must not change membership"
    );
    check_invariants(outcome.timelines);
}

#[test]
fn a_recorded_split_brain_history_is_caught_by_the_checker() {
    // The history a 3 | 2 cut would leave if both components cut their own view 6: the
    // fence never lets the stack produce it, so it is written down here as observations
    // and fed through the same fold the fuzz uses.
    let pid = |s: u16| ProcessId::new(SiteId(s), 1);
    let everyone: Vec<ProcessId> = (0..SITES).map(pid).collect();
    let mut observations: Vec<Obs> = Vec::new();
    for m in 0..SITES {
        observations.push(Obs::View {
            member: m,
            seq: SITES as u64,
            members: everyone.clone(),
        });
        observations.push(Obs::Delivered { member: m, body: 0 });
    }
    for (side, body) in [(&[0u16, 1, 2][..], 1u64), (&[3, 4][..], 2)] {
        for &m in side {
            observations.push(Obs::View {
                member: m,
                seq: 6,
                members: side.iter().map(|s| pid(*s)).collect(),
            });
            observations.push(Obs::Delivered { member: m, body });
        }
    }

    let mut inv = PartitionInvariants::new();
    for t in timelines_from(&observations) {
        inv.record(t);
    }
    match inv.check_no_split_brain() {
        Err(InvariantViolation::ConflictingViews { seq: 6, .. }) => {}
        other => panic!("expected the checker to catch the split-brain, got {other:?}"),
    }
}

#[test]
fn a_delay_spike_wedges_then_retracts_without_a_needless_view_change() {
    let mut h = sim_harness(44);
    let (tx, rx) = mpsc::channel::<Obs>();
    let (gid, members) = form_group(&mut h, &tx);

    // 300ms of extra one-way latency on every link, against a 50ms failure timeout: every
    // site suspects every peer (false suspicions — all packets still arrive, late), so the
    // fence wedges everyone instead of letting anyone cut anyone.  Once the spiked
    // heartbeat stream catches up, the suspicions retract and the group resumes at the
    // *same* view.
    h.run_nemesis(&NemesisSchedule::delay_spike_window(
        Duration::from_millis(10),
        Duration::from_millis(510),
        Duration::from_millis(300),
    ));
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        h.rt.stats().suspicions_cleared >= 1
            && (0..SITES).all(|s| {
                h.view_of(SiteId(s), gid)
                    .map(|v| v.seq() == SITES as u64 && v.len() == SITES as usize)
                    .unwrap_or(false)
            })
    });
    assert!(ok, "suspicions never retracted back to the full view");

    // Functional probe: the unwedged group still delivers everywhere.
    h.client_send(
        members[0],
        gid,
        APPLY,
        Message::with_body(99),
        ProtocolKind::Abcast,
    );
    let mut observations: Vec<Obs> = Vec::new();
    let ok = h.wait_until(Duration::from_secs(20), |_h| {
        drain(&rx, &mut observations);
        (0..SITES).all(|m| distinct_bodies(&observations, m).contains(&99))
    });
    assert!(ok, "post-spike multicast not delivered everywhere");
    // Keep watching well past the flush timeout: a flush abandoned during the spike must
    // not surface later as a takeover that cuts out a coordinator that only went quiet.
    h.settle(Duration::from_secs(2));
    drain(&rx, &mut observations);

    assert!(
        !observations
            .iter()
            .any(|o| matches!(o, Obs::View { seq, .. } if *seq > SITES as u64)),
        "a false suspicion must not produce a view change"
    );
    let stats = h.rt.stats();
    assert!(stats.suspicions_cleared >= 1, "no retraction was counted");
    assert!(
        stats.partition_stalls >= 1,
        "the fence never engaged during the spike"
    );
}

#[test]
fn a_join_through_a_wedged_contact_fails_over_to_a_reachable_one() {
    // Three-member group on sites 0-2 plus a spare site 3 for the joiner.
    let params = NetParams::modern();
    let mut h = IsisHarness::new(SimRuntime::new(
        4,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        45,
    ));
    let (tx, _rx) = mpsc::channel::<Obs>();
    let gid = h.allocate_group_id();
    let members: Vec<ProcessId> = (0..3u16)
        .map(|s| spawn_member(&mut h, s, gid, s == 0, tx.clone()))
        .collect();
    h.create_group_with_id("fo", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(20))
            .expect("join");
    }

    // Cut site 0 away from the other members.  Site 3 is in no component, so it keeps
    // its links to *both* sides: site 0 still heartbeats it and looks perfectly alive.
    h.run_nemesis(&NemesisSchedule::new().at(
        Duration::from_millis(10),
        NemesisEvent::Partition {
            components: vec![vec![SiteId(0)], vec![SiteId(1), SiteId(2)]],
        },
    ));
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        h.rt.stats().minority_wedges >= 1
            && [1u16, 2].iter().all(|s| {
                h.view_of(SiteId(*s), gid)
                    .map(|v| v.len() == 2)
                    .unwrap_or(false)
            })
    });
    assert!(ok, "the majority never cut the wedged minority out");

    // The join names the wedged site as its first contact.  The contact answers
    // heartbeats, so the failure detector never writes it off — only the backoff
    // exhaustion can conclude the join is stranded and rotate to the other contact.
    let joiner = spawn_member(&mut h, 3, gid, false, tx.clone());
    h.query(SiteId(3), move |stack, _now, _out| {
        stack.register_group("fo", gid, vec![SiteId(0), SiteId(1)]);
    });
    h.join_and_wait(gid, joiner, None, Duration::from_secs(30))
        .expect("join must fail over to the reachable contact");
    let stats = h.rt.stats();
    assert!(
        stats.join_failovers >= 1,
        "the join must have rotated away from the wedged contact"
    );
}
