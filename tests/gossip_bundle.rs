//! Integration: stability gossip is a conversation between *sites*, seen from outside.
//!
//! A site that hosts many groups sends each peer site one stability frame per tick — the
//! reports of all the groups the two share, one entry per group — instead of one frame per
//! group.  This file holds that down on a cluster laid out to have both shapes at once:
//! three sites and eight groups, six of them spanning all three sites and two spanning only
//! sites 0 and 1, so site 0's and site 1's reports travel in two frames per tick (one per
//! distinct set of peer sites) and site 2 must never hear of the two groups it has no part
//! in.
//!
//! * the packet count is the coalesced one, to the packet, on the simulator;
//! * stability still converges through the bundles on both backends — on `rt::threaded`
//!   every frame is parsed from bytes on arrival;
//! * everything a per-group gossip frame did on arrival happens per *entry*: a stale entry
//!   draws its own group's bulletin commit, an entry for a group without an endpoint is
//!   dropped without creating one, and a site cut out of six groups at once finds its way
//!   back into each of them while the groups that share its peers' frames never notice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vsync::core::{
    Duration, EntryId, GroupId, Message, NetStats, ProcessId, ProtocolKind, SiteId, StackConfig,
};
use vsync::msg::{Bytes, Frame};
use vsync::net::{Packet, PacketKind, SiteHandler};
use vsync::proto::{IdSet, ProtoConfig, ProtoMsg, StabilityEntry};
use vsync::rt::{
    FaultPlan, IsisHarness, IsisRuntime, NemesisEvent, NemesisSchedule, SimRuntime, ThreadedRuntime,
};
use vsync::util::NetParams;

const APPLY: EntryId = EntryId(5);
/// Groups `0..WIDE` span sites 0, 1 and 2; the remaining two span sites 0 and 1 only.
const GROUPS: usize = 8;
const WIDE: usize = 6;
/// Stability packets one tick costs this layout: sites 0 and 1 each send one frame to both
/// peers (the wide groups) and one to each other (the narrow ones), site 2 one frame to
/// both of its peers.  A frame per group would be 6 × 6 + 2 × 2 = 40.
const PACKETS_PER_TICK: u64 = 3 + 3 + 2;

fn sites_of(group: usize) -> u16 {
    if group < WIDE {
        3
    } else {
        2
    }
}

/// What one member has seen.
#[derive(Default)]
struct Seen {
    delivered: AtomicU64,
    views: AtomicU64,
}

struct Layout {
    gids: Vec<GroupId>,
    /// `members[group][site]`.
    members: Vec<Vec<ProcessId>>,
    seen: Vec<Vec<Arc<Seen>>>,
}

impl Layout {
    fn delivered(&self, group: usize, site: usize) -> u64 {
        self.seen[group][site].delivered.load(Ordering::Relaxed)
    }

    fn views(&self, group: usize, site: usize) -> u64 {
        self.seen[group][site].views.load(Ordering::Relaxed)
    }
}

/// Forms the eight groups, one member process per group per member site.
fn form<R: IsisRuntime>(h: &mut IsisHarness<R>) -> Layout {
    let mut layout = Layout {
        gids: Vec::new(),
        members: Vec::new(),
        seen: Vec::new(),
    };
    for g in 0..GROUPS {
        let gid = h.allocate_group_id();
        let mut members = Vec::new();
        let mut seen = Vec::new();
        for site in 0..sites_of(g) {
            let at = Arc::new(Seen::default());
            seen.push(at.clone());
            members.push(h.spawn(SiteId(site), move |b| {
                let (on_msg, on_view) = (at.clone(), at);
                b.on_entry(APPLY, move |_ctx, _msg| {
                    on_msg.delivered.fetch_add(1, Ordering::Relaxed);
                });
                b.on_view_change(gid, move |_ctx, _ev| {
                    on_view.views.fetch_add(1, Ordering::Relaxed);
                });
            }));
        }
        h.create_group_with_id(&format!("bundle-{g}"), gid, members[0]);
        for m in &members[1..] {
            h.join_and_wait(gid, *m, None, Duration::from_secs(30))
                .expect("join");
        }
        layout.gids.push(gid);
        layout.members.push(members);
        layout.seen.push(seen);
    }
    layout
}

/// `rounds` rounds of one multicast per listed group — senders rotating over the group's
/// members, every third an ABCAST — with `gap` of runtime time after each round.
fn pace<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    layout: &Layout,
    groups: std::ops::Range<usize>,
    rounds: u64,
    gap: Duration,
) {
    for r in 0..rounds {
        for g in groups.clone() {
            let members = &layout.members[g];
            let kind = if (r as usize + g) % 3 == 0 {
                ProtocolKind::Abcast
            } else {
                ProtocolKind::Cbcast
            };
            h.client_send(
                members[r as usize % members.len()],
                layout.gids[g],
                APPLY,
                Message::with_body(r),
                kind,
            );
        }
        h.settle(gap);
    }
}

/// Every member of every listed group has been handed `want` multicasts, and no member site
/// holds a copy it still believes unstable: every site's report reached every other.
fn converged<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    layout: &Layout,
    groups: std::ops::Range<usize>,
    want: u64,
) -> bool {
    groups.clone().all(|g| {
        (0..sites_of(g)).all(|site| {
            layout.delivered(g, site as usize) == want
                && h.unstable_count(SiteId(site), layout.gids[g]) == 0
        })
    })
}

fn stability_packets(stats: &NetStats) -> u64 {
    stats
        .packets
        .get(&PacketKind::Stability)
        .copied()
        .unwrap_or(0)
}

/// Site 2 runs no endpoint and knows no view for the two groups that do not span it.
fn site_2_knows_nothing_of_the_narrow_groups<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    layout: &Layout,
) {
    for g in WIDE..GROUPS {
        let gid = layout.gids[g];
        let known = h
            .query(SiteId(2), move |stack, _now, _out| {
                (stack.has_endpoint(gid), stack.view_of(gid).is_some())
            })
            .expect("site 2 is up");
        assert_eq!(
            known,
            (false, false),
            "group {g} spans sites 0 and 1 only, yet site 2 has (endpoint, view) for it"
        );
    }
}

fn sim(sites: usize, seed: u64) -> IsisHarness<SimRuntime> {
    let params = NetParams::modern();
    IsisHarness::new(SimRuntime::new(
        sites,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        seed,
    ))
}

/// The schedule-independent half, on any backend: traffic on all eight groups is delivered
/// everywhere, stability converges to nothing held anywhere, and the groups that do not
/// span site 2 stay unknown there.
fn stability_converges_through_bundles<R: IsisRuntime>(h: &mut IsisHarness<R>, gap: Duration) {
    let layout = form(h);
    let rounds = 30;
    pace(h, &layout, 0..GROUPS, rounds, gap);
    let done = h.wait_until(Duration::from_secs(30), |h| {
        converged(h, &layout, 0..GROUPS, rounds)
    });
    assert!(
        done,
        "deliveries incomplete or copies still held as unstable"
    );
    site_2_knows_nothing_of_the_narrow_groups(h, &layout);
}

#[test]
fn sim_stability_converges_through_bundles() {
    stability_converges_through_bundles(&mut sim(3, 31), Duration::from_millis(2));
}

#[test]
fn threaded_stability_converges_through_bundles_parsed_from_bytes() {
    let mut h = IsisHarness::new(ThreadedRuntime::new(
        3,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        FaultPlan::none(),
        31,
    ));
    stability_converges_through_bundles(&mut h, Duration::from_millis(2));
    h.rt.shutdown();
}

#[test]
fn sim_a_tick_costs_one_stability_packet_per_peer_set_member_not_one_per_group() {
    let mut h = sim(3, 32);
    let layout = form(&mut h);
    let tick = StackConfig::from_params(&NetParams::modern()).tick_interval;
    // Warm up past the joins, then measure a window of whole ticks in which every group
    // carries traffic between any two ticks, so every endpoint has something to report on
    // every one of them.
    pace(&mut h, &layout, 0..GROUPS, 20, Duration::from_millis(2));
    let before = h.rt.stats();
    let ticks = 12;
    let rounds = ticks * tick.as_micros() / 2_000;
    pace(&mut h, &layout, 0..GROUPS, rounds, Duration::from_millis(2));
    let sent = stability_packets(&h.rt.stats().delta_since(&before));
    assert!(
        (ticks - 1) * PACKETS_PER_TICK <= sent && sent <= (ticks + 1) * PACKETS_PER_TICK,
        "{sent} stability packets over {ticks} ticks; {PACKETS_PER_TICK} a tick when each \
         site sends one frame per distinct set of peers (a frame per group: 40 a tick)"
    );
    // And the coalesced reports do the whole job.
    let total = 20 + rounds;
    let done = h.wait_until(Duration::from_secs(10), |h| {
        converged(h, &layout, 0..GROUPS, total)
    });
    assert!(done, "stability never converged");
    site_2_knows_nothing_of_the_narrow_groups(&mut h, &layout);
}

/// The stability frame `entries` make when site `reporter` reports them.
fn gossip_frame(reporter: u16, entries: Vec<StabilityEntry>) -> Frame {
    let group = entries.first().map_or(GroupId(0), |e| e.group);
    ProtoMsg::Stability {
        from_site: SiteId(reporter),
        entries,
    }
    .into_frame(group)
}

/// Hands site 0's stack `wire` as a stability packet from site `from`, the way the
/// transport would (built on the node: a frame does not cross threads), and returns how
/// many endpoints the stack runs afterwards among the groups this file forms and `also`.
fn deliver_to_site_0<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    from: u16,
    wire: Bytes,
    also: GroupId,
) -> usize {
    h.query(SiteId(0), move |stack, now, out| {
        let pkt = Packet::new(
            ProcessId::new(SiteId(from), 0),
            ProcessId::new(SiteId(0), 0),
            PacketKind::Stability,
            Frame::from_wire(wire),
        );
        stack.on_packet(now, pkt, out);
        (1..=GROUPS as u64)
            .map(GroupId)
            .chain([also])
            .filter(|g| stack.has_endpoint(*g))
            .count()
    })
    .expect("site 0 is up")
}

#[test]
fn sim_every_stale_entry_draws_its_own_bulletin_and_unknown_groups_create_nothing() {
    // A fourth site that hosts nothing stands in for a site every group has left behind:
    // its report is stale in all of them.
    let mut h = sim(4, 33);
    let layout = form(&mut h);
    // (Down, so that what is sent to it is counted and goes no further.)
    h.rt.kill_site(SiteId(3));
    h.settle(Duration::from_millis(50));
    let stranger = GroupId(9_999);
    let entry = |group: GroupId, view_seq: u64| StabilityEntry {
        group,
        view_seq,
        received: IdSet::new().into(),
    };
    // Six stale entries (the founding view, long gone), one entry for the view each group
    // is in now, and entries for a group nobody has heard of, first and last.
    let mut entries = vec![entry(stranger, 1)];
    entries.extend(layout.gids[..WIDE].iter().map(|gid| entry(*gid, 1)));
    entries.extend(layout.gids[WIDE..].iter().map(|gid| entry(*gid, 2)));
    entries.push(entry(stranger, 7));
    let bytes = gossip_frame(3, entries).wire_bytes();
    let before = h.rt.stats();
    let endpoints = deliver_to_site_0(&mut h, 3, bytes.clone(), stranger);
    assert_eq!(
        endpoints, GROUPS,
        "an entry for an unknown group created an endpoint"
    );
    h.settle(Duration::from_millis(5));
    let moved = h.rt.stats().delta_since(&before);
    assert_eq!(
        moved.packets.get(&PacketKind::Flush).copied().unwrap_or(0),
        WIDE as u64,
        "one bulletin commit per stale entry: six groups answered, the two whose entry is \
         current and the unknown one did not"
    );
    // The same frame arriving from another site than the one it reports for is dropped
    // whole.
    let before = h.rt.stats();
    deliver_to_site_0(&mut h, 2, bytes.clone(), stranger);
    h.settle(Duration::from_millis(5));
    let moved = h.rt.stats().delta_since(&before);
    assert_eq!(
        moved.packets.get(&PacketKind::Flush),
        None,
        "forged reporter"
    );
    // Damaged on the way: whatever the bytes still say, the node neither panics nor gains
    // an endpoint, and what it keeps running still works.
    for at in (0..bytes.len()).step_by(5) {
        let mut damaged = bytes.to_vec();
        damaged[at] ^= 0x10;
        let endpoints = deliver_to_site_0(&mut h, 3, Bytes::from(damaged), stranger);
        assert_eq!(endpoints, GROUPS, "flip at byte {at} created an endpoint");
    }
    for cut in (0..bytes.len()).step_by(5) {
        deliver_to_site_0(&mut h, 3, bytes.slice(..cut), stranger);
    }
    pace(&mut h, &layout, 0..GROUPS, 3, Duration::from_millis(2));
    let done = h.wait_until(Duration::from_secs(10), |h| {
        converged(h, &layout, WIDE..GROUPS, 3)
    });
    assert!(done, "the narrow groups stopped working");
}

#[test]
fn sim_a_site_cut_out_of_six_groups_at_once_rejoins_each_while_its_peers_other_groups_carry_on() {
    let mut h = sim(3, 34);
    let layout = form(&mut h);
    pace(&mut h, &layout, 0..GROUPS, 5, Duration::from_millis(2));
    assert!(h.wait_until(Duration::from_secs(10), |h| {
        converged(h, &layout, 0..GROUPS, 5)
    }));
    let narrow_views: Vec<u64> = (WIDE..GROUPS)
        .flat_map(|g| [layout.views(g, 0), layout.views(g, 1)])
        .collect();
    let before = h.rt.stats();

    // Cut site 2 off for twelve failure timeouts.  Its six endpoints wedge (one voter of
    // three in sight) and the other two sites cut it out of all six groups; the two narrow
    // groups, whose entries ride in the same site 0 ↔ site 1 frames as the cut groups',
    // carry traffic all the while.
    h.run_nemesis(&NemesisSchedule::new().at(
        Duration::ZERO,
        NemesisEvent::Partition {
            components: vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)]],
        },
    ));
    let during = 300;
    pace(
        &mut h,
        &layout,
        WIDE..GROUPS,
        during,
        Duration::from_millis(2),
    );
    for g in 0..WIDE {
        for site in 0..2 {
            let view = h
                .view_of(SiteId(site), layout.gids[g])
                .expect("member site");
            assert_eq!(view.len(), 2, "group {g}: site {site} never cut site 2 out");
        }
    }
    let wedged = h.rt.stats().delta_since(&before).minority_wedges;
    assert_eq!(wedged, WIDE as u64, "site 2 wedges once per group it is in");

    // Heal.  Site 2's stale reports — six entries a frame — reach sites 0 and 1, each entry
    // is answered with its own group's bulletin, and each of the six endpoints discards its
    // tail and rejoins: once per group, not once per frame.
    h.run_nemesis(&NemesisSchedule::new().at(Duration::ZERO, NemesisEvent::Heal));
    let back = h.wait_until(Duration::from_secs(30), |h| {
        (0..WIDE).all(|g| {
            (0..3).all(|site| {
                h.view_of(SiteId(site), layout.gids[g]).is_some_and(|v| {
                    v.len() == 3 && layout.members[g].iter().all(|m| v.contains(*m))
                })
            })
        })
    });
    assert!(back, "site 2 never made it back into all six groups");
    let stats = h.rt.stats().delta_since(&before);
    assert_eq!(
        stats.rejoins_after_heal, WIDE as u64,
        "one rejoin per group"
    );

    // The narrow groups delivered everything sent during the cut, everywhere, and never saw
    // a view change; site 2 still knows nothing of them.
    let total = 5 + during;
    assert!(h.wait_until(Duration::from_secs(10), |h| {
        converged(h, &layout, WIDE..GROUPS, total)
    }));
    let narrow_views_after: Vec<u64> = (WIDE..GROUPS)
        .flat_map(|g| [layout.views(g, 0), layout.views(g, 1)])
        .collect();
    assert_eq!(
        narrow_views_after, narrow_views,
        "a narrow group saw a view change"
    );
    site_2_knows_nothing_of_the_narrow_groups(&mut h, &layout);
    // And the re-formed groups work: a round on all eight is delivered to every member
    // that was there throughout.
    pace(&mut h, &layout, 0..GROUPS, 3, Duration::from_millis(2));
    let done = h.wait_until(Duration::from_secs(10), |h| {
        (0..WIDE).all(|g| (0..2).all(|site| layout.delivered(g, site) == 5 + 3))
            && converged(h, &layout, WIDE..GROUPS, total + 3)
    });
    assert!(done, "traffic after the heal was not delivered");
}
