//! Property-style integration tests of the virtual synchrony invariants, run across random
//! seeds, message mixes and failure times.
//!
//! The defining property (paper Section 2.4): every process observes the same events in the
//! same order — for ABCAST, the same total order; for any primitive, the same set of
//! messages delivered before each membership change.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use vsync_core::{
    Duration, EntryId, GroupId, Message, NetParams, ProcessId, ProtocolKind, SiteId, StackConfig,
};
use vsync_proto::ProtoConfig;
use vsync_rt::{FaultPlan, IsisHarness, IsisRuntime, SimRuntime};

const APPLY: EntryId = EntryId(2);

type Log = Rc<RefCell<Vec<u64>>>;

/// `n` members in one group on the simulator, every inter-site link under `faults`.
fn deploy_with(
    seed: u64,
    faults: FaultPlan,
    n: usize,
) -> (IsisHarness<SimRuntime>, GroupId, Vec<ProcessId>, Vec<Log>) {
    let params = NetParams {
        faults,
        ..NetParams::modern()
    };
    let mut sys = IsisHarness::new(SimRuntime::new(
        n,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        seed,
    ));
    let mut members = Vec::new();
    let mut logs = Vec::new();
    for i in 0..n {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let pid = sys.spawn_local(SiteId(i as u16), move |b| {
            b.on_entry(APPLY, move |_ctx, msg| {
                l.borrow_mut().push(msg.get_u64("body").unwrap_or(0));
            });
        });
        members.push(pid);
        logs.push(log);
    }
    let gid = sys.create_group("props", members[0]);
    for m in &members[1..] {
        sys.join_and_wait(gid, *m, None, Duration::from_secs(10))
            .unwrap();
    }
    (sys, gid, members, logs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ABCAST delivers the same total order at every member, for any seed, sender mix,
    /// (recoverable) packet-loss rate, jitter and share of reordered packets.
    #[test]
    fn abcast_total_order_holds_under_loss_and_any_seed(
        seed in 0u64..1_000,
        loss in 0.0f64..0.2,
        jitter_us in 0u64..400,
        reorder in 0.0f64..0.1,
        sender_picks in proptest::collection::vec(0usize..3, 6..15),
    ) {
        let faults = FaultPlan {
            reorder_probability: reorder,
            reorder_extra: Duration::from_millis(1),
            ..FaultPlan::none()
                .with_drop(loss)
                .with_jitter(Duration::from_micros(jitter_us))
        };
        let (mut sys, gid, members, logs) = deploy_with(seed, faults, 3);
        for (i, pick) in sender_picks.iter().enumerate() {
            sys.client_send(
                members[*pick],
                gid,
                APPLY,
                Message::with_body(i as u64),
                ProtocolKind::Abcast,
            );
        }
        sys.settle(Duration::from_millis(5_000));
        let reference = logs[0].borrow().clone();
        prop_assert_eq!(reference.len(), sender_picks.len(), "all messages delivered");
        for log in &logs[1..] {
            prop_assert_eq!(&*log.borrow(), &reference);
        }
    }

    /// When a member crashes mid-stream, every survivor delivers exactly the same set of
    /// messages (atomicity + the virtual synchrony cut), and all survivors agree on the view.
    /// Jitter makes the seed pick the interleaving.
    #[test]
    fn survivors_agree_on_deliveries_across_a_crash(
        seed in 0u64..1_000,
        jitter_us in 0u64..300,
        crash_after in 1usize..8,
        total in 8usize..16,
    ) {
        let faults = FaultPlan::none().with_jitter(Duration::from_micros(jitter_us));
        let (mut sys, gid, members, logs) = deploy_with(seed, faults, 4);
        for i in 0..total {
            sys.client_send(
                members[i % 4],
                gid,
                APPLY,
                Message::with_body(i as u64),
                ProtocolKind::Cbcast,
            );
            if i == crash_after {
                // Crash the site of member 3 mid-stream.
                sys.rt.kill_site(SiteId(3));
            }
        }
        let ok = sys.wait_until(Duration::from_secs(30), |s| {
            [0u16, 1, 2].iter().all(|i| {
                s.view_of(SiteId(*i), gid).map(|v| v.len() == 3).unwrap_or(false)
            })
        });
        prop_assert!(ok, "survivors never installed the post-crash view");
        sys.settle(Duration::from_millis(3_000));
        // Survivors delivered identical message sets (order may differ between concurrent
        // CBCASTs from different senders, so compare as sets).
        let mut sets: Vec<Vec<u64>> = logs[..3]
            .iter()
            .map(|l| {
                let mut v = l.borrow().clone();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let reference = sets.remove(0);
        for s in sets {
            prop_assert_eq!(&s, &reference, "survivors delivered different message sets");
        }
        // Messages from surviving senders must not be lost.
        for i in 0..total {
            if i % 4 != 3 && i > crash_after {
                prop_assert!(reference.contains(&(i as u64)), "message {i} lost");
            }
        }
    }
}

#[test]
fn per_sender_fifo_holds_for_every_seed_in_a_sweep() {
    for seed in 0..5u64 {
        let (mut sys, gid, members, logs) = deploy_with(seed, FaultPlan::none().with_drop(0.05), 3);
        for i in 0..12u64 {
            sys.client_send(
                members[0],
                gid,
                APPLY,
                Message::with_body(i),
                ProtocolKind::Cbcast,
            );
        }
        sys.settle(Duration::from_millis(3_000));
        for log in &logs {
            let seen = log.borrow();
            let only_sender0: Vec<u64> = seen.iter().copied().collect();
            assert_eq!(only_sender0, (0..12).collect::<Vec<u64>>(), "seed {seed}");
        }
    }
}
