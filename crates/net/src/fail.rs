//! Heartbeat-based failure detection with an adaptive timeout.
//!
//! The paper (Section 3.7): "ISIS provides a site-monitoring facility that can trigger
//! actions when a site or process fails or a site recovers.  Site and process failures are
//! clean events ... The failed entity will have to undergo recovery even if it was actually
//! experiencing a transient communication problem that looked like a failure.  The ISIS
//! failure detector adaptively adjusts the timeout interval to avoid treating an overloaded
//! site as having failed."
//!
//! [`FailureDetector`] is the sans-io core of that facility: each site runs one instance,
//! feeds it incoming heartbeats and clock ticks, and acts on the suspicion events it emits.
//! The conversion of a suspicion into a *clean, system-wide* failure event is done by the
//! group membership layer (a GBCAST view change), not here.

use std::collections::BTreeMap;

use vsync_util::{Duration, SimTime, SiteId};

/// Per-peer bookkeeping.
#[derive(Clone, Debug)]
struct PeerState {
    last_heard: SimTime,
    /// Smoothed inter-arrival estimate, seeded from the configured heartbeat interval.
    smoothed_interval: Duration,
    /// Whether the peer is currently considered operational.
    alive: bool,
}

impl PeerState {
    /// The timeout applied to this peer: the adaptive estimate, never below `base`.
    fn timeout(&self, base: Duration, safety_factor: f64) -> Duration {
        let adaptive = self.smoothed_interval.mul_f64(safety_factor);
        if adaptive > base {
            adaptive
        } else {
            base
        }
    }
}

/// A heartbeat failure detector with an adaptive timeout.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    heartbeat_interval: Duration,
    base_timeout: Duration,
    /// Multiplier applied to the smoothed inter-arrival time to obtain the timeout.
    safety_factor: f64,
    peers: BTreeMap<SiteId, PeerState>,
}

/// A change of opinion about a peer site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The peer stopped responding and is now suspected of having failed.
    Suspected(SiteId),
    /// A previously suspected peer has been heard from again.
    ///
    /// ISIS converts suspicions into fail-stop events, so the membership layer treats this as
    /// a *recovery of a new incarnation*, never as "the failure never happened".
    HeardAgain(SiteId),
}

impl FailureDetector {
    /// Creates a detector for site `me` monitoring `peers`.
    pub fn new(
        me: SiteId,
        peers: impl IntoIterator<Item = SiteId>,
        heartbeat_interval: Duration,
        base_timeout: Duration,
        now: SimTime,
    ) -> Self {
        let peers = peers
            .into_iter()
            .filter(|p| *p != me)
            .map(|p| {
                (
                    p,
                    PeerState {
                        last_heard: now,
                        smoothed_interval: heartbeat_interval,
                        alive: true,
                    },
                )
            })
            .collect();
        FailureDetector {
            heartbeat_interval,
            base_timeout,
            safety_factor: 4.0,
            peers,
        }
    }

    /// Returns true if the peer is currently believed operational (unknown peers are not).
    pub fn is_alive(&self, peer: SiteId) -> bool {
        self.peers.get(&peer).map(|s| s.alive).unwrap_or(false)
    }

    /// Feeds a heartbeat (or any message, since any traffic proves liveness) from `peer`.
    pub fn on_heartbeat(&mut self, peer: SiteId, now: SimTime) -> Option<Verdict> {
        let state = self.peers.get_mut(&peer)?;
        let gap = now.saturating_since(state.last_heard);
        // Exponentially weighted moving average of the observed inter-arrival time; an
        // overloaded peer whose heartbeats slow down therefore earns a longer timeout.
        let smoothed =
            Duration::from_micros((state.smoothed_interval.as_micros() * 7 + gap.as_micros()) / 8);
        state.smoothed_interval = if smoothed < self.heartbeat_interval {
            self.heartbeat_interval
        } else {
            smoothed
        };
        state.last_heard = now;
        if !state.alive {
            state.alive = true;
            Some(Verdict::HeardAgain(peer))
        } else {
            None
        }
    }

    /// Checks all peers against their timeouts; returns newly suspected sites.  Runs on
    /// every maintenance tick of every site, so the healthy path (nobody suspected) must
    /// not allocate: the verdict vector only allocates when a suspicion actually fires.
    pub fn tick(&mut self, now: SimTime) -> Vec<Verdict> {
        let mut verdicts = Vec::new();
        let base = self.base_timeout;
        let safety = self.safety_factor;
        for (peer, state) in self.peers.iter_mut() {
            if !state.alive {
                continue;
            }
            if now.saturating_since(state.last_heard) > state.timeout(base, safety) {
                state.alive = false;
                verdicts.push(Verdict::Suspected(*peer));
            }
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> FailureDetector {
        FailureDetector::new(
            SiteId(0),
            [SiteId(0), SiteId(1), SiteId(2)],
            Duration::from_millis(100),
            Duration::from_millis(500),
            SimTime::ZERO,
        )
    }

    #[test]
    fn does_not_monitor_itself() {
        let d = detector();
        assert!(!d.is_alive(SiteId(0)));
        assert!(d.is_alive(SiteId(1)) && d.is_alive(SiteId(2)));
    }

    #[test]
    fn healthy_peers_are_never_suspected() {
        let mut d = detector();
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            now += Duration::from_millis(100);
            assert!(d.on_heartbeat(SiteId(1), now).is_none());
            assert!(d.on_heartbeat(SiteId(2), now).is_none());
            assert!(d.tick(now).is_empty());
        }
        assert!(d.is_alive(SiteId(1)));
        assert!(d.is_alive(SiteId(2)));
    }

    #[test]
    fn silent_peer_is_suspected_after_timeout() {
        let mut d = detector();
        let mut now = SimTime::ZERO;
        // Site 1 keeps talking, site 2 goes silent.
        for _ in 0..20 {
            now += Duration::from_millis(100);
            d.on_heartbeat(SiteId(1), now);
        }
        let verdicts = d.tick(now);
        assert_eq!(verdicts, vec![Verdict::Suspected(SiteId(2))]);
        assert!(!d.is_alive(SiteId(2)));
        // Suspicion is reported exactly once.
        assert!(d
            .tick(now + Duration::from_secs(10))
            .contains(&Verdict::Suspected(SiteId(1))));
    }

    #[test]
    fn heard_again_after_suspicion_is_reported() {
        let mut d = detector();
        let now = SimTime::ZERO + Duration::from_secs(10);
        let v = d.tick(now);
        assert_eq!(v.len(), 2, "both peers silent for 10s are suspected");
        let back = d.on_heartbeat(SiteId(1), now + Duration::from_millis(1));
        assert_eq!(back, Some(Verdict::HeardAgain(SiteId(1))));
        assert!(d.is_alive(SiteId(1)));
    }

    #[test]
    fn timeout_adapts_to_slow_heartbeats() {
        let mut d = detector();
        let timeout_1 =
            |d: &FailureDetector| d.peers[&SiteId(1)].timeout(d.base_timeout, d.safety_factor);
        let initial = timeout_1(&d);
        // Site 1 is overloaded: heartbeats arrive every 400 ms instead of every 100 ms.
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            now += Duration::from_millis(400);
            d.on_heartbeat(SiteId(1), now);
        }
        let adapted = timeout_1(&d);
        assert!(
            adapted > initial,
            "timeout should grow: initial {initial:?}, adapted {adapted:?}"
        );
        // And the slow-but-alive peer is not suspected at its own pace.
        now += Duration::from_millis(400);
        d.on_heartbeat(SiteId(1), now);
        let verdicts = d.tick(now);
        assert!(!verdicts.contains(&Verdict::Suspected(SiteId(1))));
    }
}
