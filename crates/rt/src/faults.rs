//! Link faults and fault schedules for the runtime backends.
//!
//! What a link does to the packets it carries — delay, jitter, loss charged as
//! retransmission timeouts, reordering — is a [`vsync_util::FaultPlan`], settled for every
//! packet by [`vsync_net::Channels`] on both backends.  This module holds what the plan cannot
//! say: the state of the cluster's links over time.
//!
//! *Partitions* go beyond the paper's fail-stop model: the paper's system "tolerates message
//! loss, but not partitioning", which was true of ISIS in 1987, but this system no longer
//! inherits the limitation.  [`LinkFaults`] cuts site-to-site links (symmetric or one-way)
//! so traffic genuinely disappears instead of being retransmitted, and holds every surviving
//! inter-site packet for a delay spike.  A [`NemesisSchedule`] composes timed partition /
//! heal / crash / delay-spike events, coordinated kills included.  Both backends ask the
//! table one question per packet, at the sending side (`LinkFaults::hold`); the protocol
//! layer's primary-partition rule (see `vsync-proto`'s endpoint) turns a cut into a wedged
//! minority rather than split-brain.

use std::collections::BTreeSet;

use vsync_util::{Duration, SiteId};

/// The current state of the cluster's links: which directed site pairs drop packets, and
/// how much extra latency every surviving inter-site packet pays.  The default is healthy.
///
/// A cut is *directional* — `(src, dst)` present means packets from `src` to `dst`
/// disappear — so asymmetric failures (A hears B, B does not hear A) are expressible.
/// Both backends consult the table at the sending transport, which is where the simulator
/// plans deliveries and where the threaded router hands a packet to the destination
/// channel: a cut packet is simply never submitted, exactly like a mid-flight crash.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Directed (src, dst) site pairs whose packets are dropped.
    cut: BTreeSet<(SiteId, SiteId)>,
    /// Extra one-way latency added to surviving inter-site packets (a delay spike).
    extra_delay: Duration,
}

impl LinkFaults {
    /// Cuts the cluster into the given components: every link between sites in
    /// *different* components is cut in both directions; links within a component stay up.
    /// Sites not listed in any component keep all their links (they can still talk to
    /// every side — useful for modelling a partial cut).
    pub(crate) fn partition(components: &[Vec<SiteId>]) -> Self {
        let mut faults = LinkFaults::default();
        for (i, a) in components.iter().enumerate() {
            for b in components.iter().skip(i + 1) {
                for &x in a {
                    for &y in b {
                        faults.cut.insert((x, y));
                        faults.cut.insert((y, x));
                    }
                }
            }
        }
        faults
    }

    /// Cuts links one way only: packets from any site in `from` to any site in `to`
    /// disappear, while the reverse direction keeps working.
    pub(crate) fn one_way(from: &[SiteId], to: &[SiteId]) -> Self {
        let mut faults = LinkFaults::default();
        for &x in from {
            for &y in to {
                if x != y {
                    faults.cut.insert((x, y));
                }
            }
        }
        faults
    }

    /// Adds an extra one-way latency to every surviving inter-site packet.
    pub(crate) fn with_extra_delay(mut self, d: Duration) -> Self {
        self.extra_delay = d;
        self
    }

    /// What the table does to a packet from `src` to `dst`: `None` if the link is cut, and
    /// otherwise how long the packet is held before it leaves — the delay spike, on an
    /// inter-site link.  A sender adds the hold to the send instant, so a packet sent after
    /// a spike ends still queues behind one sent during it.
    pub(crate) fn hold(&self, src: SiteId, dst: SiteId) -> Option<Duration> {
        if src == dst {
            Some(Duration::ZERO)
        } else if self.cut.contains(&(src, dst)) {
            None
        } else {
            Some(self.extra_delay)
        }
    }
}

/// One timed step of a [`NemesisSchedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NemesisEvent {
    /// Replace the link table with a symmetric partition into the given components.
    Partition { components: Vec<Vec<SiteId>> },
    /// Replace the link table with a one-way cut: `from` can no longer reach `to`.
    OneWayCut { from: Vec<SiteId>, to: Vec<SiteId> },
    /// Restore every link and clear any delay spike.
    Heal,
    /// Kill a site outright (composes partition scenarios with real crashes).
    Crash { site: SiteId },
    /// Add `extra` latency to every surviving inter-site packet from now on
    /// (`Duration::ZERO` ends the spike).  Cuts currently in force are kept.
    DelaySpike { extra: Duration },
}

/// One appointment in a [`NemesisSchedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledNemesis {
    /// When the event fires, relative to the start of the schedule.
    pub after: Duration,
    /// What happens.
    pub event: NemesisEvent,
}

/// A composed sequence of timed faults: partitions, heals, crashes and delay spikes.
///
/// A total failure is a schedule too: the tests that need *every* member of a group dead
/// depend on who fails last (the log the reform protocol must elect, paper Section 3.8),
/// so the kill order and spacing are a seedable schedule ([`NemesisSchedule::crashes`])
/// rather than a loop in each test.
///
/// Executed by `IsisHarness::run_nemesis` on either backend.  Each `Partition` /
/// `OneWayCut` event *replaces* the link table (carrying any active delay spike forward),
/// `Heal` clears everything, and `DelaySpike` adjusts only the latency component — so a
/// schedule reads as a sequence of network states, not a diff algebra.  Events are held in
/// non-decreasing `after` order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NemesisSchedule {
    events: Vec<ScheduledNemesis>,
}

impl NemesisSchedule {
    /// An empty schedule; chain [`at`](Self::at) to populate it.
    pub fn new() -> Self {
        NemesisSchedule::default()
    }

    /// Appends an event at `after` (kept sorted; equal offsets preserve insertion order).
    pub fn at(mut self, after: Duration, event: NemesisEvent) -> Self {
        let idx = self
            .events
            .iter()
            .position(|e| e.after > after)
            .unwrap_or(self.events.len());
        self.events.insert(idx, ScheduledNemesis { after, event });
        self
    }

    /// The common shape: cut the cluster into `components` at `cut_at`, heal at `heal_at`.
    pub fn partition_window(
        cut_at: Duration,
        heal_at: Duration,
        components: Vec<Vec<SiteId>>,
    ) -> Self {
        NemesisSchedule::new()
            .at(cut_at, NemesisEvent::Partition { components })
            .at(heal_at.max(cut_at), NemesisEvent::Heal)
    }

    /// A delay spike of `extra` per packet between `start` and `end` (no links cut).
    pub fn delay_spike_window(start: Duration, end: Duration, extra: Duration) -> Self {
        NemesisSchedule::new()
            .at(start, NemesisEvent::DelaySpike { extra })
            .at(
                end.max(start),
                NemesisEvent::DelaySpike {
                    extra: Duration::ZERO,
                },
            )
    }

    /// Crashes `sites` one by one, `gap` apart, in the order given: the listed last site is
    /// the last to fail, so its log should win a reform election.  A zero gap crashes them
    /// all at the same instant, and the election falls to its tie-breaks.
    pub fn crashes(sites: impl IntoIterator<Item = SiteId>, gap: Duration) -> Self {
        sites
            .into_iter()
            .enumerate()
            .fold(NemesisSchedule::new(), |schedule, (i, site)| {
                schedule.at(gap.saturating_mul(i as u64), NemesisEvent::Crash { site })
            })
    }

    /// The sites the schedule crashes, in crash order (the last entry is the last to fail).
    pub fn crashed_sites(&self) -> Vec<SiteId> {
        self.events
            .iter()
            .filter_map(|e| match e.event {
                NemesisEvent::Crash { site } => Some(site),
                _ => None,
            })
            .collect()
    }

    /// The events in execution order.
    pub(crate) fn events(&self) -> &[ScheduledNemesis] {
        &self.events
    }

    /// Folds one event into a running link table, returning `true` if the table changed
    /// (crashes leave it untouched — the runtime handles those directly).
    pub(crate) fn apply_to_links(event: &NemesisEvent, links: &mut LinkFaults) -> bool {
        match event {
            NemesisEvent::Partition { components } => {
                *links = LinkFaults::partition(components).with_extra_delay(links.extra_delay);
                true
            }
            NemesisEvent::OneWayCut { from, to } => {
                *links = LinkFaults::one_way(from, to).with_extra_delay(links.extra_delay);
                true
            }
            NemesisEvent::Heal => {
                *links = LinkFaults::default();
                true
            }
            NemesisEvent::DelaySpike { extra } => {
                links.extra_delay = *extra;
                true
            }
            NemesisEvent::Crash { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_schedules_order_and_window() {
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let all = NemesisSchedule::crashes(sites.clone(), Duration::ZERO);
        assert!(all.events().iter().all(|e| e.after == Duration::ZERO));
        assert_eq!(all.crashed_sites(), sites);

        let gap = Duration::from_millis(50);
        let st = NemesisSchedule::crashes(sites.clone(), gap);
        assert_eq!(
            st.events().last().map(|e| e.after),
            Some(Duration::from_millis(150))
        );
        assert_eq!(st.crashed_sites().last(), Some(&SiteId(3)));

        // Explicit offsets execute in time order regardless of argument order, and other
        // events between the crashes do not count as crashes.
        let ex = NemesisSchedule::new()
            .at(
                Duration::from_millis(20),
                NemesisEvent::Crash { site: SiteId(1) },
            )
            .at(
                Duration::from_millis(5),
                NemesisEvent::Crash { site: SiteId(0) },
            )
            .at(Duration::from_millis(10), NemesisEvent::Heal);
        assert_eq!(ex.crashed_sites(), vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn partitions_cut_across_components_only() {
        let links = LinkFaults::partition(&[vec![SiteId(0), SiteId(1)], vec![SiteId(2)]]);
        // Across components, both directions.
        assert!(links.hold(SiteId(0), SiteId(2)).is_none());
        assert!(links.hold(SiteId(2), SiteId(0)).is_none());
        assert!(links.hold(SiteId(1), SiteId(2)).is_none());
        // Within a component, nothing.
        assert!(links.hold(SiteId(0), SiteId(1)).is_some());
        assert!(links.hold(SiteId(1), SiteId(0)).is_some());
        // A site outside every component keeps its links.
        assert!(links.hold(SiteId(0), SiteId(3)).is_some());
        assert!(links.hold(SiteId(3), SiteId(2)).is_some());
        // Self-traffic is never cut or held.
        assert_eq!(links.hold(SiteId(2), SiteId(2)), Some(Duration::ZERO));
    }

    #[test]
    fn one_way_cuts_are_directional() {
        let links = LinkFaults::one_way(&[SiteId(0)], &[SiteId(1), SiteId(2)]);
        assert!(links.hold(SiteId(0), SiteId(1)).is_none());
        assert!(links.hold(SiteId(0), SiteId(2)).is_none());
        assert!(links.hold(SiteId(1), SiteId(0)).is_some());
        assert!(links.hold(SiteId(2), SiteId(0)).is_some());
        assert!(links.hold(SiteId(1), SiteId(2)).is_some());
    }

    #[test]
    fn nemesis_schedule_orders_events_and_folds_links() {
        let spike = Duration::from_millis(5);
        let sched = NemesisSchedule::new()
            .at(Duration::from_millis(100), NemesisEvent::Heal)
            .at(
                Duration::from_millis(20),
                NemesisEvent::Partition {
                    components: vec![vec![SiteId(0)], vec![SiteId(1)]],
                },
            )
            .at(
                Duration::from_millis(50),
                NemesisEvent::DelaySpike { extra: spike },
            );
        let offsets: Vec<Duration> = sched.events().iter().map(|e| e.after).collect();
        assert_eq!(
            offsets,
            vec![
                Duration::from_millis(20),
                Duration::from_millis(50),
                Duration::from_millis(100)
            ]
        );

        let mut links = LinkFaults::default();
        NemesisSchedule::apply_to_links(&sched.events()[0].event, &mut links);
        assert!(links.hold(SiteId(0), SiteId(1)).is_none());
        NemesisSchedule::apply_to_links(&sched.events()[1].event, &mut links);
        assert!(
            links.hold(SiteId(0), SiteId(1)).is_none(),
            "spike keeps the cut"
        );
        assert_eq!(links.hold(SiteId(0), SiteId(2)), Some(spike));
        // A new partition carries the spike forward.
        NemesisSchedule::apply_to_links(
            &NemesisEvent::Partition {
                components: vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)]],
            },
            &mut links,
        );
        assert_eq!(links.hold(SiteId(0), SiteId(1)), Some(spike));
        NemesisSchedule::apply_to_links(&sched.events()[2].event, &mut links);
        assert_eq!(
            links,
            LinkFaults::default(),
            "heal clears cuts and the spike"
        );

        // Crashes do not touch the link table.
        assert!(!NemesisSchedule::apply_to_links(
            &NemesisEvent::Crash { site: SiteId(1) },
            &mut links
        ));
    }

    #[test]
    fn nemesis_window_helpers() {
        let cut = Duration::from_millis(10);
        let heal = Duration::from_millis(90);
        let p =
            NemesisSchedule::partition_window(cut, heal, vec![vec![SiteId(0)], vec![SiteId(1)]]);
        assert_eq!(p.events().len(), 2);
        assert!(matches!(
            p.events()[0].event,
            NemesisEvent::Partition { .. }
        ));
        assert!(matches!(p.events()[1].event, NemesisEvent::Heal));

        let d = NemesisSchedule::delay_spike_window(cut, heal, Duration::from_millis(3));
        assert!(
            matches!(d.events()[1].event, NemesisEvent::DelaySpike { extra } if extra == Duration::ZERO)
        );
    }
}
