//! Protocol-level tests for the group endpoint, driven by a small in-memory cluster harness
//! that routes endpoint outputs between sites without the full simulator.  The harness keeps
//! per-(source, destination) FIFO channels (like the real transport) but lets tests choose
//! adversarial interleavings *across* sources, which is where ordering protocols earn their
//! keep.

use std::collections::{BTreeMap, VecDeque};

use vsync_msg::{Frame, Message};
use vsync_net::{PacketKind, ProtocolKind, SharedStats};
use vsync_util::{GroupId, ProcessId, SimTime, SiteId};

use super::GroupEndpoint;
use crate::config::ProtoConfig;
use crate::frontier::{Frontier, IdSet};
use crate::messages::{ProtoMsg, StabilityEntry};
use crate::output::{Delivery, EndpointOutput, ViewEvent};

const GROUP: GroupId = GroupId(1);

fn member(site: u16) -> ProcessId {
    ProcessId::new(SiteId(site), 1)
}

struct Cluster {
    endpoints: BTreeMap<SiteId, GroupEndpoint>,
    /// FIFO channel per (destination, source).  Carries the shared wire frames the
    /// endpoints emit, like the real packet layer.
    channels: BTreeMap<(SiteId, SiteId), VecDeque<Frame>>,
    deliveries: BTreeMap<SiteId, Vec<Delivery>>,
    views: BTreeMap<SiteId, Vec<ViewEvent>>,
    /// `PartitionStalled` reports per site: `(view_seq, alive, voters)`.
    stalls: BTreeMap<SiteId, Vec<(u64, usize, usize)>>,
    /// `RejoinRequired` requests per site: `(contact, observed_seq)`.
    rejoins: BTreeMap<SiteId, Vec<(SiteId, u64)>>,
    /// Every stability-gossip frame sent, with its sender (one entry per destination).
    gossip: Vec<(SiteId, Frame)>,
    now: SimTime,
    stats: SharedStats,
}

impl Cluster {
    fn new(num_sites: u16) -> Self {
        Cluster::new_with_config(num_sites, ProtoConfig::fast())
    }

    fn new_with_config(num_sites: u16, cfg: ProtoConfig) -> Self {
        let stats = SharedStats::new();
        let mut endpoints = BTreeMap::new();
        for s in 0..num_sites {
            endpoints.insert(
                SiteId(s),
                GroupEndpoint::new(GROUP, SiteId(s), cfg, stats.clone()),
            );
        }
        Cluster {
            endpoints,
            channels: BTreeMap::new(),
            deliveries: BTreeMap::new(),
            views: BTreeMap::new(),
            stalls: BTreeMap::new(),
            rejoins: BTreeMap::new(),
            gossip: Vec::new(),
            now: SimTime::ZERO,
            stats,
        }
    }

    /// Runs `f` against one endpoint and routes everything it produced.  Each call is a run
    /// of its own: the ordering entries it made go out at its end.
    fn exec<R>(
        &mut self,
        site: SiteId,
        f: impl FnOnce(&mut GroupEndpoint, SimTime, &mut Vec<EndpointOutput>) -> R,
    ) -> R {
        let mut out = Vec::new();
        let now = self.now;
        let ep = self.endpoints.get_mut(&site).expect("endpoint exists");
        let r = f(ep, now, &mut out);
        ep.send_held(&mut out);
        self.route(site, out);
        r
    }

    fn route(&mut self, from: SiteId, outputs: Vec<EndpointOutput>) {
        for o in outputs {
            match o {
                EndpointOutput::Send {
                    dst_site,
                    kind,
                    msg,
                } => {
                    if kind == PacketKind::Stability {
                        self.gossip.push((from, msg.clone()));
                    }
                    self.channels
                        .entry((dst_site, from))
                        .or_default()
                        .push_back(msg);
                }
                EndpointOutput::Deliver(d) => {
                    self.deliveries.entry(from).or_default().push(d);
                }
                EndpointOutput::ViewChange(v) => {
                    self.views.entry(from).or_default().push(v);
                }
                EndpointOutput::PartitionStalled {
                    view_seq,
                    alive,
                    voters,
                    ..
                } => {
                    self.stalls
                        .entry(from)
                        .or_default()
                        .push((view_seq, alive, voters));
                }
                EndpointOutput::RejoinRequired {
                    contact,
                    observed_seq,
                    ..
                } => {
                    self.rejoins
                        .entry(from)
                        .or_default()
                        .push((contact, observed_seq));
                }
            }
        }
    }

    /// Delivers queued messages until quiescent.  `reverse_sources` picks the adversarial
    /// interleaving: channels from higher-numbered sites are serviced first.
    fn pump(&mut self, reverse_sources: bool) {
        loop {
            let mut keys: Vec<(SiteId, SiteId)> = self
                .channels
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(k, _)| *k)
                .collect();
            if keys.is_empty() {
                break;
            }
            keys.sort_by_key(|(dst, src)| {
                (
                    *dst,
                    if reverse_sources {
                        u16::MAX - src.0
                    } else {
                        src.0
                    },
                )
            });
            for key in keys {
                // Deliver one message per channel per round to interleave sources.
                let Some(msg) = self.channels.get_mut(&key).and_then(|q| q.pop_front()) else {
                    continue;
                };
                let (dst, src) = key;
                if !self.endpoints.contains_key(&dst) {
                    continue; // site is "down"
                }
                self.now = SimTime(self.now.0 + 1_000);
                self.exec(dst, |ep, now, out| {
                    ep.on_message(now, src, &msg, out)
                        .expect("protocol message handled");
                });
            }
        }
    }

    /// Discards everything queued on the channel from `src` to `dst` (simulated loss of all
    /// in-flight traffic when a sender crashes).
    fn drop_channel(&mut self, dst: SiteId, src: SiteId) {
        self.channels.remove(&(dst, src));
    }

    /// Removes a site entirely (crash): its endpoint vanishes, queued traffic to it is lost.
    fn crash_site(&mut self, site: SiteId) {
        self.endpoints.remove(&site);
        self.channels.retain(|(dst, _), _| *dst != site);
    }

    /// Hands the frame at the head of the channel from `src` to `dst` to its endpoint: one
    /// transport event of a hand-written schedule.
    fn step(&mut self, dst: u16, src: u16) {
        let frame = self_channel_take(self, SiteId(dst), SiteId(src));
        self.now = SimTime(self.now.0 + 1_000);
        self.exec(SiteId(dst), |ep, now, out| {
            ep.on_message(now, SiteId(src), &frame, out)
                .expect("protocol message handled");
        });
    }

    /// Member `site` CBCASTs `body`.
    fn cbcast(&mut self, site: u16, body: u64) {
        self.exec(SiteId(site), |ep, now, out| {
            ep.cbcast(now, member(site), Message::with_body(body), out)
                .unwrap();
        });
    }

    /// Site `site`'s failure detector times out on the members at the `silent` sites.
    fn suspect(&mut self, site: u16, silent: &[u16]) {
        let silent: Vec<ProcessId> = silent.iter().map(|s| member(*s)).collect();
        self.exec(SiteId(site), |ep, now, out| {
            ep.report_failures(now, &silent, out);
        });
    }

    /// Site `site` hears from `heard` again, which retracts its suspicion of that site.
    fn hear(&mut self, site: u16, heard: u16) {
        self.exec(SiteId(site), |ep, now, out| {
            ep.unsuspect_site(now, SiteId(heard), out);
        });
    }

    /// True while the primary-partition fence holds site `site`.
    fn wedged(&self, site: u16) -> bool {
        self.endpoints[&SiteId(site)].mode.wedged()
    }

    /// The kinds of the frames queued from `src` to `dst`, oldest first.
    fn queued(&self, dst: u16, src: u16) -> Vec<&'static str> {
        self.channels
            .get(&(SiteId(dst), SiteId(src)))
            .map(|q| {
                q.iter()
                    .map(|f| ProtoMsg::decode_frame(f).expect("decodes").1.type_tag())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Site `site` learns that the members at the `crashed` sites have crashed.
    fn confirm_crashes(&mut self, site: u16, crashed: &[u16]) {
        let crashed: Vec<ProcessId> = crashed.iter().map(|s| member(*s)).collect();
        self.exec(SiteId(site), |ep, now, out| {
            ep.confirm_failures(now, &crashed, out);
        });
    }

    /// Member `site` ABCASTs `body`.
    fn abcast(&mut self, site: u16, body: u64) {
        self.exec(SiteId(site), |ep, now, out| {
            ep.abcast(now, member(site), Message::with_body(body), out)
                .unwrap();
        });
    }

    /// Member `site` GBCASTs, which starts a flush at the coordinator.
    fn gbcast(&mut self, site: u16) {
        self.exec(SiteId(site), |ep, now, out| {
            ep.gbcast(now, member(site), Message::with_body(0u64), out)
                .unwrap();
        });
    }

    /// Asserts that `sites` delivered the same bodies in the same order, and returns it.
    fn one_total_order(&self, sites: &[u16]) -> Vec<u64> {
        let first = self.delivered_bodies(SiteId(sites[0]));
        for s in &sites[1..] {
            assert_eq!(
                self.delivered_bodies(SiteId(*s)),
                first,
                "sites {} and {s} disagree on the total order",
                sites[0]
            );
        }
        first
    }

    fn tick_all(&mut self) {
        self.now = SimTime(self.now.0 + 50_000);
        let sites: Vec<SiteId> = self.endpoints.keys().copied().collect();
        for s in sites {
            self.exec(s, |ep, now, out| ep.on_tick(now, out));
        }
    }

    fn delivered_bodies(&self, site: SiteId) -> Vec<u64> {
        self.deliveries
            .get(&site)
            .map(|ds| {
                ds.iter()
                    .filter_map(|d| d.payload.get_u64("body"))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn latest_view(&self, site: SiteId) -> Option<&ViewEvent> {
        self.views.get(&site).and_then(|v| v.last())
    }

    /// Builds a group of `n` members spanning sites `0..n`, member i at site i with rank i.
    fn build_group(n: u16) -> Cluster {
        let mut c = Cluster::new(n);
        c.exec(SiteId(0), |ep, _now, out| ep.create(member(0), out));
        for joiner in 1..n {
            c.exec(SiteId(0), |ep, now, out| {
                ep.submit_join(now, member(joiner), None, out).unwrap();
            });
            c.pump(false);
        }
        c
    }

    /// Builds a three-member group spanning sites 0, 1, 2 (member i at site i).
    fn build_three_member_group() -> Cluster {
        Cluster::build_group(3)
    }
}

#[test]
fn create_and_join_produce_identical_ranked_views() {
    let c = Cluster::build_three_member_group();
    for s in [0u16, 1, 2] {
        let view = c
            .endpoints
            .get(&SiteId(s))
            .and_then(|e| e.view())
            .expect("view installed");
        assert_eq!(view.seq(), 3, "site {s}");
        assert_eq!(view.members, vec![member(0), member(1), member(2)]);
    }
    // Each member's rank reflects join order (decreasing age).
    let v = c.endpoints[&SiteId(2)].view().unwrap();
    assert_eq!(v.rank_of(member(0)), Some(0));
    assert_eq!(v.rank_of(member(1)), Some(1));
    assert_eq!(v.rank_of(member(2)), Some(2));
}

#[test]
fn every_member_sees_the_same_sequence_of_views() {
    let c = Cluster::build_three_member_group();
    // Site 0 saw the founding view plus two joins; 1 and 2 saw the views from when they joined.
    let seqs = |s: u16| -> Vec<u64> {
        c.views
            .get(&SiteId(s))
            .map(|vs| vs.iter().map(|v| v.view.seq()).collect())
            .unwrap_or_default()
    };
    assert_eq!(seqs(0), vec![1, 2, 3]);
    assert_eq!(seqs(1), vec![2, 3]);
    assert_eq!(seqs(2), vec![3]);
}

#[test]
fn cbcast_reaches_every_member_exactly_once() {
    let mut c = Cluster::build_three_member_group();
    for i in 0..5u64 {
        c.exec(SiteId(0), |ep, now, out| {
            ep.cbcast(now, member(0), Message::with_body(i), out)
                .unwrap();
        });
    }
    c.pump(false);
    for s in [0u16, 1, 2] {
        assert_eq!(
            c.delivered_bodies(SiteId(s)),
            vec![0, 1, 2, 3, 4],
            "site {s}"
        );
    }
}

#[test]
fn cbcast_preserves_causality_under_adversarial_interleaving() {
    let mut c = Cluster::build_three_member_group();
    // Member 0 multicasts m1.
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(1u64), out)
            .unwrap();
    });
    // Deliver m1 at site 1 only (site 2's channel stays queued).
    // Then member 1, having seen m1, multicasts m2 (causally after m1).
    // Site 2 services the channel from site 1 first (reverse order), receiving m2 before m1.
    let m1_for_site1 = self_channel_take(&mut c, SiteId(1), SiteId(0));
    c.exec(SiteId(1), |ep, now, out| {
        ep.on_message(now, SiteId(0), &m1_for_site1, out).unwrap();
    });
    c.exec(SiteId(1), |ep, now, out| {
        ep.cbcast(now, member(1), Message::with_body(2u64), out)
            .unwrap();
    });
    c.pump(true);
    // Causal order must hold at every member: 1 before 2.
    for s in [0u16, 1, 2] {
        let bodies = c.delivered_bodies(SiteId(s));
        let pos1 = bodies.iter().position(|b| *b == 1).expect("m1 delivered");
        let pos2 = bodies.iter().position(|b| *b == 2).expect("m2 delivered");
        assert!(
            pos1 < pos2,
            "site {s} delivered m2 before its causal predecessor m1"
        );
    }
}

/// Takes the single queued message on channel (dst, src).
fn self_channel_take(c: &mut Cluster, dst: SiteId, src: SiteId) -> Frame {
    c.channels
        .get_mut(&(dst, src))
        .and_then(|q| q.pop_front())
        .expect("message queued")
}

#[test]
fn abcast_orders_concurrent_messages_identically_everywhere() {
    let mut c = Cluster::build_three_member_group();
    // Three members issue ABCASTs concurrently.
    for s in [0u16, 1, 2] {
        c.exec(SiteId(s), |ep, now, out| {
            ep.abcast(now, member(s), Message::with_body(100 + s as u64), out)
                .unwrap();
        });
    }
    c.pump(true);
    let order0 = c.delivered_bodies(SiteId(0));
    assert_eq!(order0.len(), 3);
    for s in [1u16, 2] {
        assert_eq!(
            c.delivered_bodies(SiteId(s)),
            order0,
            "total order differs at site {s}"
        );
    }
}

#[test]
fn abcast_and_cbcast_mix_delivers_everything() {
    let mut c = Cluster::build_three_member_group();
    c.exec(SiteId(1), |ep, now, out| {
        ep.cbcast(now, member(1), Message::with_body(1u64), out)
            .unwrap();
    });
    c.exec(SiteId(2), |ep, now, out| {
        ep.abcast(now, member(2), Message::with_body(2u64), out)
            .unwrap();
    });
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(3u64), out)
            .unwrap();
    });
    c.pump(false);
    for s in [0u16, 1, 2] {
        let mut bodies = c.delivered_bodies(SiteId(s));
        bodies.sort_unstable();
        assert_eq!(bodies, vec![1, 2, 3], "site {s}");
    }
}

#[test]
fn gbcast_payload_is_delivered_with_a_view_event_at_every_member() {
    let mut c = Cluster::build_three_member_group();
    c.stats.reset();
    c.exec(SiteId(2), |ep, now, out| {
        ep.gbcast(now, member(2), Message::with_body(77u64), out)
            .unwrap();
    });
    c.pump(false);
    for s in [0u16, 1, 2] {
        let ve = c.latest_view(SiteId(s)).expect("view event");
        assert_eq!(ve.gbcasts.len(), 1, "site {s}");
        assert_eq!(ve.gbcasts[0].get_u64("body"), Some(77));
        assert_eq!(
            ve.view.members.len(),
            3,
            "membership unchanged by a user GBCAST"
        );
    }
    // The GBCAST was counted once.
    assert_eq!(c.stats.snapshot().multicasts_of(ProtocolKind::Gbcast), 1);
}

#[test]
fn voluntary_leave_installs_a_smaller_view_everywhere() {
    let mut c = Cluster::build_three_member_group();
    c.exec(SiteId(1), |ep, now, out| {
        ep.submit_leave(now, member(1), out).unwrap();
    });
    c.pump(false);
    for s in [0u16, 2] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.members, vec![member(0), member(2)]);
        assert_eq!(v.seq(), 4);
    }
    // The departed member's site also learned about the new view (so the leaver can stop).
    let v1 = c.latest_view(SiteId(1)).unwrap();
    assert_eq!(v1.view.departed, vec![member(1)]);
}

#[test]
fn a_joining_endpoint_installs_only_the_cut_that_admits_it() {
    // Site 1's member leaves; the site then runs a fresh, joining endpoint for a new local
    // process.  A late copy of the leave's commit reaches it: that view holds nobody here,
    // so it is not this endpoint's cut.  The commit admitting the new process is.
    let mut c = Cluster::build_three_member_group();
    c.exec(SiteId(1), |ep, now, out| {
        ep.submit_leave(now, member(1), out).unwrap();
    });
    c.pump(false);
    let leave_commit = c.endpoints[&SiteId(0)].last_commit().unwrap().clone();
    let fresh = GroupEndpoint::new(GROUP, SiteId(1), ProtoConfig::fast(), c.stats.clone());
    c.endpoints.insert(SiteId(1), fresh);
    let before = c.views[&SiteId(1)].len();
    c.exec(SiteId(1), |ep, now, out| {
        ep.on_message(now, SiteId(2), &leave_commit, out).unwrap();
    });
    assert!(c.endpoints[&SiteId(1)].view().is_none());
    assert_eq!(
        c.views[&SiteId(1)].len(),
        before,
        "no view event for the leave's cut"
    );
    let newcomer = ProcessId::new(SiteId(1), 2);
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_join(now, newcomer, None, out).unwrap();
    });
    c.pump(false);
    let v = c.endpoints[&SiteId(1)].view().expect("admitted");
    assert_eq!(
        (v.seq(), v.members.clone()),
        (5, vec![member(0), member(2), newcomer])
    );
}

#[test]
fn virtual_synchrony_failed_senders_message_is_redistributed_at_the_cut() {
    let mut c = Cluster::build_three_member_group();
    // Member 0 multicasts; the copy reaches site 1 but the copy to site 2 is lost when the
    // sender's site crashes.
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(42u64), out)
            .unwrap();
    });
    let m_for_1 = self_channel_take(&mut c, SiteId(1), SiteId(0));
    c.exec(SiteId(1), |ep, now, out| {
        ep.on_message(now, SiteId(0), &m_for_1, out).unwrap();
    });
    c.drop_channel(SiteId(2), SiteId(0));
    c.crash_site(SiteId(0));
    assert_eq!(c.delivered_bodies(SiteId(1)), vec![42]);
    assert_eq!(c.delivered_bodies(SiteId(2)), Vec::<u64>::new());
    // Survivors learn of the failure.
    for s in [1u16, 2] {
        c.exec(SiteId(s), |ep, now, out| {
            ep.report_failures(now, &[member(0)], out);
        });
    }
    c.pump(false);
    // Both survivors installed the two-member view AND both delivered message 42 before it:
    // the defining guarantee of virtual synchrony.
    for s in [1u16, 2] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.members, vec![member(1), member(2)], "site {s}");
        assert_eq!(
            c.delivered_bodies(SiteId(s)),
            vec![42],
            "site {s} missed the pre-cut message"
        );
    }
}

#[test]
fn abcast_orphaned_by_sender_failure_is_finalized_by_the_flush() {
    let mut c = Cluster::build_three_member_group();
    // Member 0 initiates an ABCAST; phase one reaches both peers, but site 0 crashes before
    // sending the final order.
    c.exec(SiteId(0), |ep, now, out| {
        ep.abcast(now, member(0), Message::with_body(7u64), out)
            .unwrap();
    });
    // Deliver phase one at sites 1 and 2; their proposals go back to a dead site.
    let d1 = self_channel_take(&mut c, SiteId(1), SiteId(0));
    let d2 = self_channel_take(&mut c, SiteId(2), SiteId(0));
    c.exec(SiteId(1), |ep, now, out| {
        ep.on_message(now, SiteId(0), &d1, out).unwrap();
    });
    c.exec(SiteId(2), |ep, now, out| {
        ep.on_message(now, SiteId(0), &d2, out).unwrap();
    });
    c.crash_site(SiteId(0));
    assert!(
        c.delivered_bodies(SiteId(1)).is_empty(),
        "not deliverable before ordering"
    );
    for s in [1u16, 2] {
        c.exec(SiteId(s), |ep, now, out| {
            ep.report_failures(now, &[member(0)], out);
        });
    }
    c.pump(false);
    for s in [1u16, 2] {
        assert_eq!(c.delivered_bodies(SiteId(s)), vec![7], "site {s}");
        assert_eq!(c.endpoints[&SiteId(s)].view().unwrap().members.len(), 2);
    }
}

/// Drives what used to be the stable-but-undecided ABCAST edge: two concurrent ABCASTs
/// from two different initiators reach every site in *opposite* orders at the two eventual
/// survivors, the stability gossip runs to completion, and then both initiators crash
/// before phase two.  Returns the cluster after the failure flush between the survivors
/// (sites 0 and 2): exactly half of the view, holding the rank-0 member, which the
/// primary-partition fence admits.
fn stable_undecided_abcasts_after_crash() -> Cluster {
    let mut c = Cluster::build_group(4);
    // Member 1 initiates A (body 10) and member 3 initiates B (body 20) concurrently.
    c.exec(SiteId(1), |ep, now, out| {
        ep.abcast(now, member(1), Message::with_body(10u64), out)
            .unwrap();
    });
    c.exec(SiteId(3), |ep, now, out| {
        ep.abcast(now, member(3), Message::with_body(20u64), out)
            .unwrap();
    });
    // Adversarial phase-one interleaving: site 0 receives A then B, site 2 receives B then
    // A, and each initiator's site receives the other's message, so every site holds both.
    // All priority proposals head back to the initiators.
    let a_for_0 = self_channel_take(&mut c, SiteId(0), SiteId(1));
    let b_for_0 = self_channel_take(&mut c, SiteId(0), SiteId(3));
    let a_for_2 = self_channel_take(&mut c, SiteId(2), SiteId(1));
    let b_for_2 = self_channel_take(&mut c, SiteId(2), SiteId(3));
    let b_for_1 = self_channel_take(&mut c, SiteId(1), SiteId(3));
    let a_for_3 = self_channel_take(&mut c, SiteId(3), SiteId(1));
    for (dst, src, frame) in [
        (0u16, 1u16, a_for_0),
        (0, 3, b_for_0),
        (2, 3, b_for_2),
        (2, 1, a_for_2),
        (1, 3, b_for_1),
        (3, 1, a_for_3),
    ] {
        c.exec(SiteId(dst), |ep, now, out| {
            ep.on_message(now, SiteId(src), &frame, out).unwrap();
        });
    }
    // One gossip round from every site, then both initiators crash, taking the in-flight
    // proposals with them — phase two never runs.
    c.tick_all();
    c.crash_site(SiteId(1));
    c.crash_site(SiteId(3));
    c.pump(false);
    c.tick_all();
    c.pump(false);
    // Gossip advertises an ABCAST only once it is decided, so neither message went stable:
    // both survivors still hold both copies for the flush, and delivered neither.
    for s in [0u16, 2] {
        assert_eq!(
            c.endpoints[&SiteId(s)].unstable_len(),
            2,
            "site {s} released an undecided ABCAST"
        );
        assert!(
            c.delivered_bodies(SiteId(s)).is_empty(),
            "site {s} delivered before ordering completed"
        );
    }
    for s in [0u16, 2] {
        c.exec(SiteId(s), |ep, now, out| {
            ep.report_failures(now, &[member(1), member(3)], out);
        });
    }
    c.pump(false);
    c
}

#[test]
fn stable_but_undecided_abcasts_keep_a_single_total_order_across_the_view_change() {
    let c = stable_undecided_abcasts_after_crash();
    // Neither survivor had decided either message, so the commit settled both above every
    // reported clock: one total order, identical at every survivor.
    let order0 = c.delivered_bodies(SiteId(0));
    let order2 = c.delivered_bodies(SiteId(2));
    assert_eq!(order0.len(), 2, "site 0 lost an undecided ABCAST");
    assert_eq!(
        order0, order2,
        "survivors disagree on the total order at the cut"
    );
    for s in [0u16, 2] {
        assert_eq!(c.endpoints[&SiteId(s)].view().unwrap().members.len(), 2);
    }
}

// -- At the flush cut: hand-routed schedules --------------------------------------------------
//
// One rule settles both protocols at the cut.  An ack reports what the site holds that may
// not be everywhere, each ABCAST with its priority if decided there, and the site's priority
// clock; an ABCAST is advertised to stability gossip only once decided, and never if decided
// after the ack.  From its ack to the commit a site delivers nothing.  The commit's set is
// delivered, an ABCAST nobody decided settled above every reported clock, and whatever is
// still undeliverable after it is dropped.  Each schedule but the last gives two survivors
// different deliveries in the view, or breaks causal or total order, without one of these
// rules.  The comments name each site's proposals as p<site>(message).

#[test]
fn an_undecided_abcast_settles_above_what_an_acked_site_delivered() {
    let mut c = Cluster::build_three_member_group();
    c.abcast(2, 30); // C; p2(C) = 1
    c.step(1, 2); // p1(C) = 1
    c.abcast(1, 10); // A; p1(A) = 2
    c.step(0, 1); // p0(A) = 1
    c.step(0, 2); // p0(C) = 2
    c.step(2, 1); // C's proposal from site 1
    c.step(2, 0); // ... and from site 0: C decided at 2, delivered at site 2
    assert_eq!(c.delivered_bodies(SiteId(2)), vec![30]);
    c.gbcast(0);
    c.step(1, 0); // A's proposal from site 0
    c.step(1, 0); // site 1 acks, A undecided
    c.step(2, 0); // site 2 acks before A's data reaches it
    c.step(0, 1); // site 1's ack
    c.step(0, 2); // C's order
    c.step(0, 2); // site 2's ack: the commit
    c.pump(false);
    // A priority of at most 2 for A, which has the lower id, would put it before C.
    assert_eq!(c.one_total_order(&[0, 1, 2]), vec![30, 10]);
}

#[test]
fn an_abcast_goes_stable_only_once_decided_everywhere() {
    let mut c = Cluster::build_three_member_group();
    c.abcast(0, 20); // B; p0(B) = 1
    c.abcast(1, 10); // A; p1(A) = 1
    c.step(0, 1); // p0(A) = 2
    c.step(1, 0); // p1(B) = 2
    c.step(2, 1); // p2(A) = 1
    c.step(2, 0); // p2(B) = 2
    c.step(1, 0); // A's proposals from site 0 ...
    c.step(1, 2); // ... and site 2: A decided at 2
    c.step(0, 1); // B's proposals from site 1 ...
    c.step(0, 2); // ... and site 2: B decided at 2, delivered at site 0
    c.step(0, 1); // A's order
    c.step(1, 0); // B's order
    c.step(2, 0); // B's order; A's order to site 2 is held back
    let a_order_for_2 = self_channel_take(&mut c, SiteId(2), SiteId(1));
    for _ in 0..2 {
        c.tick_all();
        c.pump(false);
    }
    // B is decided everywhere and went stable; A is not decided at site 2, so site 2 never
    // advertised it and every site still holds its copy for a flush.
    for s in [0u16, 1, 2] {
        assert_eq!(c.endpoints[&SiteId(s)].unstable_len(), 1, "site {s}");
    }
    c.gbcast(0);
    c.pump(false);
    c.exec(SiteId(2), |ep, now, out| {
        ep.on_message(now, SiteId(1), &a_order_for_2, out).unwrap();
    });
    // Settling A at site 2's proposal of 1 would put it before B there.
    assert_eq!(c.one_total_order(&[0, 1, 2]), vec![20, 10]);
}

#[test]
fn an_acked_site_delivers_no_abcast_until_the_commit() {
    let mut c = Cluster::build_three_member_group();
    c.abcast(1, 10); // A; p1(A) = 1
    c.abcast(2, 20); // B; p2(B) = 1
    c.step(0, 1); // p0(A) = 1
    c.step(0, 2); // p0(B) = 2
    c.step(1, 2); // p1(B) = 2
    c.step(2, 0); // B's proposal from site 0
    c.step(2, 1); // p2(A) = 2
    c.step(2, 1); // B's proposal from site 1: B decided at 2
    c.step(1, 0); // A's proposal from site 0
    c.gbcast(0);
    c.step(1, 0); // site 1 acks, A and B undecided
                  // A's last proposal: A is decided at 2 here, ahead of B by id, but the ack reported it
                  // undecided and the commit will settle it above site 1's clock — after B.
    c.step(1, 2);
    assert_eq!(c.delivered_bodies(SiteId(1)), Vec::<u64>::new());
    c.step(2, 0); // site 2 acks, B decided
    c.step(0, 1); // site 1's ack
    c.step(0, 2); // B's order
    c.step(0, 2); // site 2's ack: the commit
    c.pump(false);
    assert_eq!(c.one_total_order(&[0, 1, 2]), vec![20, 10]);
}

#[test]
fn a_decision_made_after_the_ack_is_not_gossiped_before_the_commit() {
    let mut c = Cluster::build_three_member_group();
    c.abcast(2, 10); // M; p2(M) = 1
    c.step(0, 2); // p0(M) = 1
    c.step(1, 2); // p1(M) = 1
    c.abcast(0, 20); // M2; p0(M2) = 2
    c.step(1, 0); // p1(M2) = 2
    c.step(2, 0); // M's proposal from site 0
    c.step(2, 0); // p2(M2) = 2
    c.step(2, 1); // M's proposal from site 1: M decided at 1, delivered at site 2
    c.step(0, 1); // M2's proposal from site 1 ...
    c.step(0, 2); // ... and site 2: M2 decided at 2
    c.step(0, 2); // M's order: site 0 delivers M, then M2
    c.step(1, 0); // M2's order: decided at site 1, behind the undecided M
    c.step(2, 0); // M2's order: site 2 delivers M2
    assert_eq!(c.delivered_bodies(SiteId(1)), Vec::<u64>::new());
    // A gossip round before the flush: sites 0 and 2 learn that each other decided M.
    c.tick_all();
    for (dst, src) in [(0, 1), (0, 2), (1, 0), (2, 0), (2, 1)] {
        c.step(dst, src);
    }
    c.gbcast(0);
    c.step(1, 0); // site 1 acks, M undecided and M2 decided at 2
    c.step(1, 2); // M's order: decided at 1 here, after the ack
    c.tick_all(); // one gossip round between site 1's ack and site 2's
    c.step(2, 1); // site 1's gossip
    c.step(0, 1); // site 1's ack
    c.step(0, 1); // site 1's gossip
    c.step(2, 0); // site 2 acks
    c.step(0, 2); // site 2's gossip
    c.step(0, 2); // site 2's ack: the commit
    c.pump(false);
    // Had site 1 gossiped M, sites 0 and 2 would have let it go stable, no report would
    // carry its decision, and the commit would settle it above M2 at site 1 alone.
    assert_eq!(c.one_total_order(&[0, 1, 2]), vec![10, 20]);
}

#[test]
fn an_acked_site_delivers_no_cbcast_until_the_commit() {
    let mut c = Cluster::build_three_member_group();
    c.cbcast(2, 7); // m
    c.drop_channel(SiteId(0), SiteId(2)); // m's copy to site 0 is lost ...
    c.crash_site(SiteId(2)); // ... and its sender crashes
    c.confirm_crashes(0, &[2]);
    c.step(1, 0); // site 1 acks without m
    c.step(1, 2); // m arrives after the ack: held, not delivered
    assert_eq!(c.delivered_bodies(SiteId(1)), Vec::<u64>::new());
    // The commit does not carry m.  Had site 1 delivered m, it would be the one survivor
    // to have it in the view.
    c.pump(false);
    assert_eq!(c.one_total_order(&[0, 1]), Vec::<u64>::new());
    for s in [0u16, 1] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.members, vec![member(0), member(1)], "site {s}");
    }
}

#[test]
fn a_cbcast_whose_predecessor_no_survivor_has_is_dropped_at_the_cut() {
    let mut c = Cluster::build_group(4);
    c.cbcast(2, 1); // p
    c.step(3, 2); // only site 3 receives p ...
    c.drop_channel(SiteId(0), SiteId(2));
    c.drop_channel(SiteId(1), SiteId(2));
    c.crash_site(SiteId(2)); // ... before its sender crashes
    c.cbcast(3, 2); // m, causally after p
    c.step(1, 3); // only site 1 receives m, and holds it back for p
    c.drop_channel(SiteId(0), SiteId(3));
    c.crash_site(SiteId(3));
    c.confirm_crashes(0, &[2, 3]);
    c.step(1, 0); // site 1 acks with m
    c.step(0, 1); // site 1's ack: the commit carries m, which site 0 holds back for p too
    let commit = self_channel_take(&mut c, SiteId(1), SiteId(0));
    let applied = c.exec(SiteId(1), |ep, now, out| {
        ep.on_message(now, SiteId(0), &commit, out)
    });
    // No survivor will ever deliver p, so none may deliver m.
    assert_eq!(c.one_total_order(&[0, 1]), Vec::<u64>::new());
    let dropped = applied.expect_err("the drop is reported").to_string();
    assert!(dropped.contains("[m3:1]"), "{dropped}");
    for s in [0u16, 1] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.members, vec![member(0), member(1)], "site {s}");
    }
}

#[test]
fn a_cbcast_held_since_the_ack_is_re_reported_to_a_takeover_coordinator() {
    let mut c = Cluster::build_group(4);
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_leave(now, member(3), out).unwrap();
    });
    c.step(2, 0); // site 2 acks site 0's flush
    c.cbcast(3, 9); // m, from a site that has not seen the flush request yet
    c.step(2, 3); // site 2 holds m
    c.drop_channel(SiteId(1), SiteId(0));
    c.drop_channel(SiteId(1), SiteId(3));
    c.crash_site(SiteId(0));
    c.crash_site(SiteId(3));
    for s in [1u16, 2] {
        c.confirm_crashes(s, &[0, 3]);
    }
    c.pump(false); // site 1 takes over; site 2's re-ack carries m
    assert_eq!(c.one_total_order(&[1, 2]), vec![9]);
    for s in [1u16, 2] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.members, vec![member(1), member(2)], "site {s}");
    }
}

/// Runs the flush watchdog at each of `sites` once the flush timeout has passed.
fn time_out_flushes(c: &mut Cluster, sites: &[u16]) {
    c.now = SimTime(c.now.0 + 200_000);
    for s in sites {
        c.exec(SiteId(*s), |ep, now, out| ep.flush_watchdog(now, out));
    }
}

#[test]
fn an_ack_for_an_abandoned_flush_is_answered_and_cuts_nobody_out() {
    let mut c = Cluster::build_three_member_group();
    c.suspect(0, &[2]); // a delay spike: site 0 starts a flush without site 2 ...
    assert_eq!(c.queued(1, 0), ["flush-req"]);
    c.hear(0, 2); // ... and abandons it when site 2 speaks again
    c.step(1, 0); // the request arrives late, and site 1 acks it
    c.cbcast(2, 7); // m reaches site 1 behind its ack, and is held
    c.step(1, 2);
    assert_eq!(c.delivered_bodies(SiteId(1)), Vec::<u64>::new());
    c.step(0, 1); // site 0 answers an ack for an attempt it no longer runs
    assert_eq!(c.queued(1, 0), ["flush-abandoned"]);
    c.step(1, 0); // site 1 leaves the flush and delivers m
    assert_eq!(c.delivered_bodies(SiteId(1)), vec![7]);
    // Without the answer, site 1 would suspect the quiet site 0 here and cut it out.
    time_out_flushes(&mut c, &[1]);
    c.pump(false);
    assert_eq!(c.one_total_order(&[0, 1, 2]), vec![7]);
    for s in 0..3u16 {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!((v.seq(), v.members.len()), (3, 3), "site {s}");
        assert!(!c.endpoints[&SiteId(s)].mode.flushing(), "site {s}");
    }
}

#[test]
fn a_coordinator_that_hears_no_ack_is_taken_over_by_the_sites_that_hear_it() {
    let mut c = Cluster::build_three_member_group();
    c.gbcast(0);
    c.step(1, 0); // both sites ack ...
    c.step(2, 0);
    c.drop_channel(SiteId(0), SiteId(1)); // ... behind a one-way cut into site 0
    c.drop_channel(SiteId(0), SiteId(2));
    c.suspect(0, &[1, 2]); // site 0 hears nobody and wedges mid-flush
    assert!(c.wedged(0));
    time_out_flushes(&mut c, &[1, 2]); // sites 1 and 2 still hear site 0, yet take over
    let cut_off = c.endpoints.remove(&SiteId(0)).expect("endpoint exists");
    c.pump(false);
    c.endpoints.insert(SiteId(0), cut_off);
    for s in [1u16, 2] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!((v.seq(), &v.members[..]), (4, &[member(1), member(2)][..]));
    }
}

#[test]
fn multicasts_issued_during_a_flush_are_delivered_in_the_next_view() {
    let mut c = Cluster::build_three_member_group();
    // Start a join (flush) but do not pump yet; the coordinator is now flushing.
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_join(now, ProcessId::new(SiteId(0), 9), None, out)
            .unwrap();
    });
    assert!(c.endpoints[&SiteId(0)].mode.flushing());
    // A multicast issued at the flushing site is buffered, not lost.
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(5u64), out)
            .unwrap();
    });
    c.pump(false);
    for s in [0u16, 1, 2] {
        assert_eq!(c.delivered_bodies(SiteId(s)), vec![5], "site {s}");
        assert_eq!(c.endpoints[&SiteId(s)].view().unwrap().members.len(), 4);
    }
}

#[test]
fn stability_gossip_shrinks_the_unstable_set() {
    let mut c = Cluster::build_three_member_group();
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(1u64), out)
            .unwrap();
    });
    c.pump(false);
    // Before gossip the copies are held as potentially unstable somewhere.
    // After a couple of gossip rounds everyone knows everyone has the message.
    c.tick_all();
    c.pump(false);
    c.tick_all();
    c.pump(false);
    for s in [0u16, 1, 2] {
        let ep = &c.endpoints[&SiteId(s)];
        assert_eq!(ep.local_members().len(), 1);
    }
    // Trigger a view change; its commit must not need to redistribute the stable message.
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_join(now, ProcessId::new(SiteId(1), 9), None, out)
            .unwrap();
    });
    c.pump(false);
    // The newly joined member must NOT receive a stale copy of message 1.
    let site1_bodies = c.delivered_bodies(SiteId(1));
    assert_eq!(
        site1_bodies.iter().filter(|b| **b == 1).count(),
        1,
        "no duplicate deliveries"
    );
}

#[test]
fn joiner_at_a_fresh_site_does_not_apply_snapshot_covered_redelivery() {
    // Four site slots; the group spans sites 0-2 and site 3 starts with no view.
    let mut c = Cluster::new(4);
    c.exec(SiteId(0), |ep, _now, out| ep.create(member(0), out));
    for s in [1u16, 2] {
        c.exec(SiteId(0), |ep, now, out| {
            ep.submit_join(now, member(s), None, out).unwrap();
        });
        c.pump(false);
    }
    // A burst of multicasts that everyone receives but nobody has gossiped about: all of
    // them are still *unstable* (a flush would redistribute every one).
    for i in 0..8u64 {
        c.exec(SiteId(0), |ep, now, out| {
            ep.cbcast(now, member(0), Message::with_body(i), out)
                .unwrap();
        });
    }
    c.exec(SiteId(1), |ep, now, out| {
        ep.abcast(now, member(1), Message::with_body(100u64), out)
            .unwrap();
    });
    c.pump(false);
    for s in [0u16, 1, 2] {
        assert!(
            c.endpoints[&SiteId(s)].unstable_len() >= 8,
            "site {s} should still hold the burst as unstable"
        );
    }
    // Site 3 joins while all nine messages are unstable.
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_join(now, member(3), None, out).unwrap();
    });
    c.pump(false);
    // The joiner installed the view but applied NONE of the redistributed pre-cut
    // messages: their effects belong to the state snapshot taken at the cut.
    let v3 = c.endpoints[&SiteId(3)].view().expect("view installed");
    assert_eq!(v3.members.len(), 4);
    assert_eq!(
        c.delivered_bodies(SiteId(3)),
        Vec::<u64>::new(),
        "covered redelivery must be suppressed at the joiner"
    );
    // The joiner's view event carries the cut's covered frontier, and it covers exactly
    // the unstable burst it suppressed.
    let ev = c.latest_view(SiteId(3)).expect("view event");
    assert!(!ev.covered.is_empty());
    for (_site, seq) in ev.covered.entries() {
        assert!(*seq >= 1);
    }
    // Old members delivered each body exactly once (the flush changed nothing for them).
    for s in [0u16, 1, 2] {
        let mut bodies = c.delivered_bodies(SiteId(s));
        bodies.sort_unstable();
        assert_eq!(bodies, vec![0, 1, 2, 3, 4, 5, 6, 7, 100], "site {s}");
    }
}

#[test]
fn delivery_recipients_route_cut_deliveries_to_the_old_view() {
    let mut c = Cluster::build_three_member_group();
    let old_seq = c.endpoints[&SiteId(1)].view().unwrap().seq();
    // A second process joins at site 1, which already hosts member 1.
    let newcomer = ProcessId::new(SiteId(1), 9);
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_join(now, newcomer, None, out).unwrap();
    });
    c.pump(false);
    let ep1 = &c.endpoints[&SiteId(1)];
    let new_seq = ep1.view().unwrap().seq();
    assert_eq!(new_seq, old_seq + 1);
    // Deliveries tagged with the old view go to its members only — never the newcomer,
    // whose snapshot covers them; current-view deliveries include the newcomer.
    assert_eq!(ep1.delivery_recipients(old_seq), &[member(1)]);
    assert_eq!(ep1.delivery_recipients(new_seq), &[member(1), newcomer]);
}

#[test]
fn operations_without_a_view_fail_cleanly() {
    let stats = SharedStats::new();
    let mut ep = GroupEndpoint::new(GROUP, SiteId(0), ProtoConfig::fast(), stats);
    let mut out = Vec::new();
    assert!(ep
        .cbcast(SimTime::ZERO, member(0), Message::new(), &mut out)
        .is_err());
    assert!(ep
        .abcast(SimTime::ZERO, member(0), Message::new(), &mut out)
        .is_err());
    assert!(ep
        .gbcast(SimTime::ZERO, member(0), Message::new(), &mut out)
        .is_err());
    assert!(ep.view().is_none());
    assert!(ep.local_members().is_empty());
}

#[test]
fn multicast_counters_reflect_primitive_usage() {
    let mut c = Cluster::build_three_member_group();
    c.stats.reset();
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(1u64), out)
            .unwrap();
    });
    c.exec(SiteId(1), |ep, now, out| {
        ep.abcast(now, member(1), Message::with_body(2u64), out)
            .unwrap();
    });
    c.pump(false);
    let snap = c.stats.snapshot();
    assert_eq!(snap.multicasts_of(ProtocolKind::Cbcast), 1);
    assert_eq!(snap.multicasts_of(ProtocolKind::Abcast), 1);
    assert_eq!(snap.multicasts_of(ProtocolKind::Gbcast), 0);
}

// -- Stability bookkeeping is O(sites), not O(messages) --------------------------------------

/// The runs and the single ids, `[origin, seq, ...]`, a lone endpoint's gossip frame lists:
/// those of the one entry it carries, as the bytes read back at another site give them.
fn listed(gossip: &Frame) -> (usize, Option<Vec<u64>>) {
    let arrived = Frame::from_wire(gossip.wire_segments());
    let Ok((_, ProtoMsg::Stability { entries, .. })) = ProtoMsg::decode_frame(&arrived) else {
        panic!("not a stability frame");
    };
    assert_eq!(entries.len(), 1, "one endpoint, one entry");
    assert_eq!(entries[0].group, GROUP);
    let (runs, ids) = entries[0].received.to_wire();
    (runs.len() / 3, (!ids.is_empty()).then_some(ids))
}

fn listed_ids(gossip: &Frame) -> Option<Vec<u64>> {
    listed(gossip).1
}

#[test]
fn a_long_view_keeps_gossip_and_dedup_state_bounded() {
    const MESSAGES: u64 = 20_000;
    let mut c = Cluster::build_three_member_group();
    let view_seq = c.endpoints[&SiteId(0)].view().unwrap().seq();
    let mut early_runs = None;
    for i in 0..MESSAGES {
        let s = (i % 3) as u16;
        c.exec(SiteId(s), |ep, now, out| {
            if i % 4 == 3 {
                ep.abcast(now, member(s), Message::with_body(i), out)
            } else {
                ep.cbcast(now, member(s), Message::with_body(i), out)
            }
            .unwrap();
        });
        if i % 64 == 63 {
            c.pump(false);
        }
        if i % 256 == 255 {
            c.tick_all();
            c.pump(false);
            // (a) Past the warm-up every gossip frame lists the same runs and is as small,
            // however many messages the view has carried by then (only the width of its
            // sequence numbers grows, a byte per seven bits).
            for (from, frame) in c.gossip.drain(..) {
                let size = frame.wire_bytes().len();
                assert!(
                    size <= 64,
                    "site {} gossiped {size} B at message {i}",
                    from.0
                );
                let (runs, ids) = listed(&frame);
                assert_eq!(*early_runs.get_or_insert(runs), runs, "at message {i}");
                assert_eq!(ids, None, "FIFO traffic lists no ids");
            }
        }
    }
    c.pump(false);
    assert!(early_runs.is_some(), "gossip was observed");
    // (b) Once sends stop, everything stabilizes and gossip goes silent within a fixed
    // number of ticks: one exchange to stabilize, then the quiet rounds.
    let mut ticks_to_silence = 0;
    loop {
        c.gossip.clear();
        c.tick_all();
        c.pump(false);
        if c.gossip.is_empty() {
            break;
        }
        ticks_to_silence += 1;
        assert!(ticks_to_silence <= 8, "gossip never goes silent");
    }
    for s in [0u16, 1, 2] {
        let ep = &c.endpoints[&SiteId(s)];
        assert_eq!(ep.unstable_len(), 0, "site {s}");
        // Every site's ids run from 1 without a gap, so the frontier's weight counts them.
        assert_eq!(
            ep.data.delivered().frontier().weight(),
            MESSAGES,
            "site {s}"
        );
    }
    // (c) Site 1 receives the first and third of three multicasts; while the second is
    // overdue its gossip lists the third explicitly, and no longer once the gap closes.
    for i in 0..3u64 {
        c.exec(SiteId(0), |ep, now, out| {
            ep.cbcast(now, member(0), Message::with_body(MESSAGES + i), out)
                .unwrap();
        });
    }
    let first = self_channel_take(&mut c, SiteId(1), SiteId(0));
    let second = self_channel_take(&mut c, SiteId(1), SiteId(0));
    let third = self_channel_take(&mut c, SiteId(1), SiteId(0));
    let gossip_of_site_1 = |c: &mut Cluster| -> Frame {
        c.gossip.clear();
        c.now = SimTime(c.now.0 + 50_000);
        c.exec(SiteId(1), |ep, now, out| ep.on_tick(now, out));
        let (_, frame) = c.gossip.first().expect("site 1 gossips").clone();
        frame
    };
    for frame in [&first, &third] {
        c.exec(SiteId(1), |ep, now, out| {
            ep.on_message(now, SiteId(0), frame, out).unwrap();
        });
    }
    let open = gossip_of_site_1(&mut c);
    let third_seq = MESSAGES / 3 + 1 + 3; // site 0 sent a third of the bulk, rounded up
    assert_eq!(
        listed_ids(&open),
        Some(vec![0, third_seq]),
        "the id beyond the gap is listed explicitly"
    );
    c.exec(SiteId(1), |ep, now, out| {
        ep.on_message(now, SiteId(0), &second, out).unwrap();
    });
    let closed = gossip_of_site_1(&mut c);
    assert_eq!(
        listed(&closed),
        (early_runs.unwrap(), None),
        "the gap closed"
    );
    c.pump(false);
    // (d) A join cuts the view: the commit's covered frontier, read off the per-origin
    // runs, is the one that folding every delivered id would give.
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_join(now, ProcessId::new(SiteId(1), 9), None, out)
            .unwrap();
    });
    c.pump(false);
    let mut folded = Frontier::new();
    for d in &c.deliveries[&SiteId(0)] {
        assert_eq!(d.view_seq, view_seq);
        folded.observe(d.msg_id);
    }
    assert_eq!(c.deliveries[&SiteId(0)].len() as u64, MESSAGES + 3);
    for s in [0u16, 1, 2] {
        let ev = c.latest_view(SiteId(s)).expect("view event");
        assert_eq!(ev.view.seq(), view_seq + 1, "site {s}");
        assert_eq!(ev.covered, folded, "site {s}");
        assert!(
            c.endpoints[&SiteId(s)].data.delivered().runs().is_empty(),
            "site {s}"
        );
    }
}

// -- A stability frame is a site's report on many groups ---------------------------------------

#[test]
fn on_message_takes_its_own_groups_entries_out_of_a_site_level_stability_frame() {
    let mut c = Cluster::build_three_member_group();
    let view_seq = c.endpoints[&SiteId(0)].view().unwrap().seq();
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(1u64), out)
            .unwrap();
    });
    c.pump(false);
    assert_eq!(c.endpoints[&SiteId(0)].unstable_len(), 1);
    let acks = |c: &Cluster, site: u16| IdSet::clone(c.endpoints[&SiteId(site)].data.received());
    let entry = |group: GroupId, view_seq: u64, received: IdSet| StabilityEntry {
        group,
        view_seq,
        received: received.into(),
    };
    let other = GroupId(77);
    // Site 1 reports on three groups; ours sits between two this endpoint knows nothing
    // of, one of them stamped with a view far ahead and one with garbage ids.
    let mut foreign = IdSet::new();
    foreign.insert_run(SiteId(0), 1, 1_000);
    let from_1 = ProtoMsg::Stability {
        from_site: SiteId(1),
        entries: vec![
            entry(other, 99, foreign.clone()),
            entry(GROUP, view_seq, acks(&c, 1)),
            entry(GroupId(78), 1, foreign.clone()),
        ],
    }
    .into_frame(other);
    c.exec(SiteId(0), |ep, now, out| {
        ep.on_message(now, SiteId(1), &from_1, out).unwrap();
        assert!(out.is_empty(), "other groups' entries cause nothing here");
    });
    assert_eq!(
        c.endpoints[&SiteId(0)].unstable_len(),
        1,
        "one of two peers has acknowledged"
    );
    // Site 2's report comes in two entries for the group, the first of them empty: both
    // are applied, in order.
    let from_2 = ProtoMsg::Stability {
        from_site: SiteId(2),
        entries: vec![
            entry(GROUP, view_seq, IdSet::new()),
            entry(GROUP, view_seq, acks(&c, 2)),
        ],
    }
    .into_frame(GROUP);
    c.exec(SiteId(0), |ep, now, out| {
        ep.on_message(now, SiteId(2), &from_2, out).unwrap();
    });
    assert_eq!(
        c.endpoints[&SiteId(0)].unstable_len(),
        0,
        "stable: both peers reported it"
    );
    // A frame with nothing for this group was routed here by mistake, whatever group its
    // envelope names; so was one that reports for another site than the one it came from.
    for stray in [
        ProtoMsg::Stability {
            from_site: SiteId(1),
            entries: vec![entry(other, view_seq, foreign.clone())],
        }
        .into_frame(GROUP),
        ProtoMsg::Stability {
            from_site: SiteId(1),
            entries: Vec::new(),
        }
        .into_frame(GROUP),
    ] {
        c.exec(SiteId(0), |ep, now, out| {
            assert!(ep.on_message(now, SiteId(1), &stray, out).is_err());
        });
    }
    let forged = ProtoMsg::Stability {
        from_site: SiteId(2),
        entries: vec![entry(GROUP, view_seq, foreign)],
    }
    .into_frame(GROUP);
    c.exec(SiteId(0), |ep, now, out| {
        assert!(ep.on_message(now, SiteId(1), &forged, out).is_err());
    });
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(2u64), out)
            .unwrap();
    });
    assert_eq!(
        c.endpoints[&SiteId(0)].unstable_len(),
        1,
        "the forged report acknowledged nothing"
    );
}

#[test]
fn the_halves_of_a_tick_report_what_on_tick_sends() {
    // A host of many endpoints calls `gossip_due` + `flush_watchdog` where a host of one
    // calls `on_tick`: same timer, same decision, same report.
    let mut c = Cluster::build_three_member_group();
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(1u64), out)
            .unwrap();
    });
    c.pump(false);
    c.now = SimTime(c.now.0 + 50_000);
    let now = c.now;
    let ep1 = c.endpoints.get_mut(&SiteId(1)).expect("endpoint");
    let report = ep1.gossip_due(now).expect("a held copy is worth a round");
    assert_eq!(report.group, GROUP);
    assert_eq!(report.peer_sites, &[SiteId(0), SiteId(2)]);
    let entry = report.to_entry();
    assert!(
        ep1.gossip_due(now).is_none(),
        "one round per stability interval"
    );
    let mut out = Vec::new();
    ep1.flush_watchdog(now, &mut out);
    assert!(out.is_empty(), "no flush in progress");
    // Site 2, ticked whole at the same instant, sends that entry's counterpart alone in a
    // frame of its own, to the same kind of destination list.
    c.exec(SiteId(2), |ep, now, out| ep.on_tick(now, out));
    let sent: Vec<SiteId> = c
        .channels
        .iter()
        .filter(|((_, src), q)| *src == SiteId(2) && !q.is_empty())
        .map(|((dst, _), _)| *dst)
        .collect();
    assert_eq!(sent, [SiteId(0), SiteId(1)]);
    let (from, frame) = c.gossip.first().expect("gossip");
    assert_eq!(*from, SiteId(2));
    let (_, ProtoMsg::Stability { from_site, entries }) =
        ProtoMsg::decode_frame(frame).expect("decodes")
    else {
        panic!("not a stability frame");
    };
    assert_eq!(*from_site, SiteId(2));
    assert_eq!(entries.len(), 1);
    assert_eq!(
        (entries[0].group, entries[0].view_seq, &entries[0].received),
        (entry.group, entry.view_seq, &entry.received),
        "both sites received the same multicast in the same view"
    );
}

// -- Primary-partition fence ---------------------------------------------------------------

#[test]
fn minority_component_wedges_instead_of_cutting_a_view() {
    let mut c = Cluster::build_three_member_group();
    c.stats.reset();
    // A cut isolates site 2: its failure detector suspects both other members.
    c.exec(SiteId(2), |ep, now, out| {
        ep.report_failures(now, &[member(0), member(1)], out);
    });
    assert!(c.wedged(2));
    assert_eq!(c.stalls[&SiteId(2)], vec![(3, 1, 3)]);
    // The wedge happens before any flush traffic leaves the site: no FlushReq was sent,
    // so a one-member "view" can never be cut.
    assert!(c.channels.values().all(|q| q.is_empty()));
    assert_eq!(c.endpoints[&SiteId(2)].view().unwrap().seq(), 3);
    let snap = c.stats.snapshot();
    assert_eq!(snap.minority_wedges, 1);
    assert_eq!(snap.partition_stalls, 1);
}

#[test]
fn retracted_suspicion_unwedges_without_a_view_change() {
    let mut c = Cluster::build_three_member_group();
    c.stats.reset();
    c.exec(SiteId(2), |ep, now, out| {
        ep.report_failures(now, &[member(0), member(1)], out);
    });
    assert!(c.wedged(2));
    // The "dead" members speak again (the cut was a delay spike, not a crash): their
    // suspicions are withdrawn on arrival and the wedge lifts, with no view change.
    c.exec(SiteId(0), |ep, now, out| {
        ep.cbcast(now, member(0), Message::with_body(7u64), out)
            .unwrap();
    });
    c.exec(SiteId(1), |ep, now, out| {
        ep.cbcast(now, member(1), Message::with_body(8u64), out)
            .unwrap();
    });
    c.pump(false);
    assert!(!c.wedged(2));
    let ep2 = &c.endpoints[&SiteId(2)];
    assert!(!ep2.changes.pending(), "no suspicion left, nothing queued");
    assert_eq!(ep2.view().unwrap().seq(), 3, "no view change was needed");
    assert_eq!(c.delivered_bodies(SiteId(2)), vec![7, 8]);
    assert_eq!(c.stats.snapshot().suspicions_cleared, 2);
}

#[test]
fn majority_cuts_the_minority_which_rejoins_after_heal() {
    let mut c = Cluster::build_three_member_group();
    c.stats.reset();
    // Cut: {0, 1} | {2}.  Each side suspects the other.
    c.exec(SiteId(2), |ep, now, out| {
        ep.report_failures(now, &[member(0), member(1)], out);
    });
    c.exec(SiteId(0), |ep, now, out| {
        ep.report_failures(now, &[member(2)], out);
    });
    c.exec(SiteId(1), |ep, now, out| {
        ep.report_failures(now, &[member(2)], out);
    });
    // While the cut holds, packets addressed to the isolated site are swallowed: pump
    // with its endpoint lifted out of the cluster (the harness drops traffic to missing
    // sites, which is exactly the sender-side drop a real partition performs).
    let isolated = c.endpoints.remove(&SiteId(2)).expect("endpoint exists");
    c.pump(false);
    c.endpoints.insert(SiteId(2), isolated);
    // The majority side cut the minority out ...
    for s in [0u16, 1] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.seq(), 4, "site {s}");
        assert_eq!(v.members, vec![member(0), member(1)]);
    }
    // ... while the minority wedged at the old view, having missed the commit.
    assert!(c.wedged(2));
    assert_eq!(c.endpoints[&SiteId(2)].view().unwrap().seq(), 3);
    assert!(c.stats.snapshot().minority_wedges >= 1);
    // Heal.  The wedged side's next tick gossips into its stale view; a primary-side
    // member answers with the latest commit (the bulletin); the commit excludes the
    // minority's local member, which requests a rejoin instead of installing.
    c.tick_all();
    c.pump(false);
    assert_eq!(c.rejoins[&SiteId(2)], vec![(SiteId(0), 4)]);
    assert_eq!(
        c.endpoints[&SiteId(2)].view().unwrap().seq(),
        3,
        "the divergent tail is never installed over"
    );
}

#[test]
fn an_even_split_has_exactly_one_winner_the_rank_zero_side() {
    let mut c = Cluster::build_group(4);
    for s in [0u16, 1, 2, 3] {
        assert_eq!(c.endpoints[&SiteId(s)].view().unwrap().seq(), 4, "site {s}");
    }
    c.stats.reset();
    // Cut: {0, 1} | {2, 3} — exactly half of the view on each side.
    c.exec(SiteId(2), |ep, now, out| {
        ep.report_failures(now, &[member(0), member(1)], out);
    });
    c.exec(SiteId(3), |ep, now, out| {
        ep.report_failures(now, &[member(0), member(1)], out);
    });
    c.exec(SiteId(0), |ep, now, out| {
        ep.report_failures(now, &[member(2), member(3)], out);
    });
    c.exec(SiteId(1), |ep, now, out| {
        ep.report_failures(now, &[member(2), member(3)], out);
    });
    let iso2 = c.endpoints.remove(&SiteId(2)).expect("endpoint exists");
    let iso3 = c.endpoints.remove(&SiteId(3)).expect("endpoint exists");
    c.pump(false);
    c.endpoints.insert(SiteId(2), iso2);
    c.endpoints.insert(SiteId(3), iso3);
    // The half holding the rank-0 member cuts the view ...
    for s in [0u16, 1] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.seq(), 5, "site {s}");
        assert_eq!(v.members, vec![member(0), member(1)]);
    }
    // ... and the other half wedges: an even split has one winner, never two.
    for s in [2u16, 3] {
        assert!(c.wedged(s), "site {s}");
        assert_eq!(c.endpoints[&SiteId(s)].view().unwrap().seq(), 4, "site {s}");
        assert_eq!(c.stalls[&SiteId(s)], vec![(4, 2, 4)], "site {s}");
    }
    assert_eq!(c.stats.snapshot().minority_wedges, 2);
}

// -- Where the fence meets the flush -------------------------------------------------------------
//
// A site is in one mode: normal, coordinating a flush, acked into one, wedged, or exiled.
// These schedules pin how the modes meet when the fence and a flush overlap.  Five sites let
// one of them lose its majority while it still hears the coordinator.

#[test]
fn a_wedged_site_acks_the_majoritys_flush_and_installs_its_commit() {
    let mut c = Cluster::build_group(5);
    c.suspect(4, &[1, 2, 3]); // site 4 still hears site 0: 2 of 5 voters
    assert!(c.wedged(4));
    c.gbcast(0);
    c.step(4, 0); // the request leaves site 4 wedged, and it acks
    assert!(c.wedged(4));
    assert_eq!(c.queued(0, 4), ["flush-ack"]);
    c.pump(false);
    // Site 0's commit reaches site 4 before any relay retracts a suspicion: site 4 installs
    // the view while wedged, wedges again in it, and un-wedges as the relays arrive.
    for s in 0..5u16 {
        let ve = c.latest_view(SiteId(s)).expect("view event");
        assert_eq!(ve.view.seq(), 6, "site {s}");
        assert_eq!(
            (ve.view.members.len(), ve.gbcasts.len()),
            (5, 1),
            "site {s}"
        );
    }
    assert_eq!(c.stalls[&SiteId(4)], vec![(5, 2, 5), (6, 2, 5)]);
    assert!(!c.wedged(4));
}

#[test]
fn a_flush_request_is_acked_during_the_probes_after_an_unwedge() {
    let mut c = Cluster::build_three_member_group();
    c.suspect(2, &[0, 1]);
    assert!(c.wedged(2));
    c.hear(2, 1); // 2 of 3 voters: site 2 un-wedges and probes both peers
    assert!(!c.wedged(2));
    assert_eq!(c.queued(0, 2), ["stability"]);
    assert_eq!(c.queued(1, 2), ["stability"]);
    c.gbcast(0);
    c.step(2, 0); // the request retracts the last suspicion, and site 2 acks it
    assert_eq!(c.queued(0, 2), ["stability", "flush-ack"]);
    c.pump(false);
    for s in 0..3u16 {
        let ve = c.latest_view(SiteId(s)).expect("view event");
        assert_eq!((ve.view.seq(), ve.gbcasts.len()), (4, 1), "site {s}");
    }
    assert_eq!(c.stalls[&SiteId(2)], vec![(3, 1, 3)]);
}

#[test]
fn an_acked_site_unwedges_probes_and_installs_the_commit() {
    let mut c = Cluster::build_group(5);
    c.suspect(4, &[1, 2, 3]);
    c.gbcast(0);
    c.step(4, 0); // site 4 acks while wedged
    c.hear(4, 1); // 3 of 5 voters: site 4 un-wedges while it waits for the commit
    assert!(!c.wedged(4));
    assert_eq!(c.queued(0, 4), ["flush-ack", "stability"]);
    for dst in 1..4 {
        assert_eq!(c.queued(dst, 4), ["stability"], "site {dst}");
    }
    c.pump(false);
    for s in 0..5u16 {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!((v.seq(), v.members.len()), (6, 5), "site {s}");
    }
    assert_eq!(c.stalls[&SiteId(4)], vec![(5, 2, 5)]);
}

#[test]
fn a_commit_that_cuts_out_an_acked_site_asks_it_to_rejoin_once() {
    let mut c = Cluster::build_three_member_group();
    c.gbcast(0);
    c.step(2, 0); // site 2 acks
    c.confirm_crashes(0, &[2]); // the coordinator stops waiting for site 2 ...
    c.confirm_crashes(1, &[2]);
    c.pump(false); // ... and both its commit and site 1's relay reach site 2
    for s in [0u16, 1] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!((v.seq(), &v.members[..]), (4, &[member(0), member(1)][..]));
    }
    assert_eq!(c.rejoins[&SiteId(2)], vec![(SiteId(0), 4)]);
    assert_eq!(c.endpoints[&SiteId(2)].view().unwrap().seq(), 3);
}

#[test]
fn an_acked_site_that_loses_its_majority_wedges_and_still_installs_the_commit() {
    let mut c = Cluster::build_three_member_group();
    c.gbcast(0);
    c.step(2, 0); // site 2 acks ...
    c.suspect(2, &[0, 1]); // ... then loses both peers
    assert!(c.wedged(2));
    assert!(!c.endpoints[&SiteId(2)].mode.flushing());
    assert_eq!(c.stalls[&SiteId(2)], vec![(3, 1, 3)]);
    c.pump(false); // the commit from site 0 retracts a suspicion first
    for s in 0..3u16 {
        let ve = c.latest_view(SiteId(s)).expect("view event");
        assert_eq!((ve.view.seq(), ve.gbcasts.len()), (4, 1), "site {s}");
    }
    assert!(!c.wedged(2));
}

#[test]
fn a_wedged_site_that_regains_its_majority_probes_before_it_cuts() {
    let mut c = Cluster::build_three_member_group();
    c.suspect(0, &[1, 2]);
    assert!(c.wedged(0));
    // Member 1 leaves and stops voting: site 0 holds half of the voters, the oldest among
    // them, so it may cut.  It leaves the wedge the one way there is, with a probe.
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_leave(now, member(1), out).unwrap();
    });
    for dst in [1u16, 2] {
        assert_eq!(
            c.queued(dst, 0),
            ["stability", "flush-commit"],
            "site {dst}"
        );
    }
    let v = c.endpoints[&SiteId(0)].view().unwrap();
    assert_eq!((v.seq(), &v.members[..]), (4, &[member(0)][..]));
    assert!(!c.wedged(0));
}

// -- A deposed coordinator hands its queue over ------------------------------------------------
//
// A site holds queued changes only while it is the acting coordinator.  Site 1 falsely
// suspects site 0, coordinates, and queues a change; then it hears site 0 again.

/// The view events at `site` that carried GBCASTs: each view's seq with their bodies.
fn gbcast_bodies(c: &Cluster, site: u16) -> Vec<(u64, Vec<u64>)> {
    c.views[&SiteId(site)]
        .iter()
        .filter(|ve| !ve.gbcasts.is_empty())
        .map(|ve| {
            let bodies = ve.gbcasts.iter().filter_map(|m| m.get_u64("body"));
            (ve.view.seq(), bodies.collect())
        })
        .collect()
}

#[test]
fn a_deposed_coordinator_hands_its_queued_gbcast_to_the_coordinator() {
    let mut c = Cluster::build_three_member_group();
    c.suspect(1, &[0]); // site 1 starts a flush without site 0 ...
    c.exec(SiteId(1), |ep, now, out| {
        ep.gbcast(now, member(1), Message::with_body(77u64), out)
            .unwrap();
    });
    c.hear(1, 0); // ... and is deposed while its GBCAST waits
    c.pump(false);
    c.exec(SiteId(2), |ep, now, out| {
        ep.submit_leave(now, member(2), out).unwrap();
    });
    c.pump(false);
    for s in [0u16, 1] {
        assert_eq!(gbcast_bodies(&c, s), [(4, vec![77])], "site {s}");
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.members, vec![member(0), member(1)], "site {s}");
    }
}

#[test]
fn a_deposed_coordinator_never_readmits_a_joiner_that_left() {
    let mut c = Cluster::build_three_member_group();
    let joiner = ProcessId::new(SiteId(2), 2);
    c.suspect(1, &[0]);
    c.exec(SiteId(1), |ep, now, out| {
        ep.submit_join(now, joiner, None, out).unwrap();
    });
    c.hear(1, 0);
    c.pump(false);
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_join(now, joiner, None, out).unwrap();
    });
    c.pump(false);
    assert!(c.endpoints[&SiteId(1)].view().unwrap().contains(joiner));
    c.exec(SiteId(2), |ep, now, out| {
        ep.submit_leave(now, joiner, out).unwrap();
    });
    c.pump(false);
    c.crash_site(SiteId(0));
    for s in [1u16, 2] {
        c.confirm_crashes(s, &[0]);
    }
    c.pump(false);
    for s in [1u16, 2] {
        let v = c.endpoints[&SiteId(s)].view().unwrap();
        assert_eq!(v.members, vec![member(1), member(2)], "site {s}");
    }
}

#[test]
fn a_join_of_a_current_member_changes_no_view() {
    let mut c = Cluster::build_three_member_group();
    c.exec(SiteId(0), |ep, now, out| {
        ep.submit_join(now, member(2), None, out).unwrap();
    });
    c.pump(false);
    for s in [0u16, 1, 2] {
        assert_eq!(c.endpoints[&SiteId(s)].view().unwrap().seq(), 3, "site {s}");
    }
}
