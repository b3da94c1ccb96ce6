//! The endpoint's mode: where its site stands in the view change and against the
//! primary-partition fence.
//!
//! ```text
//! Normal{p}  ── Coordinate ──▶ Coordinating{p} ── Abandon ──▶ Normal{p}
//! Normal, Coordinating ── Ack ──▶ Acked{wedged: false}
//! Wedged ── Ack ──▶ Acked{wedged: true}         Acked{w} ── Ack ──▶ Acked{w}
//! Acked{w} ── Abandon, CoordinatorSilent ──▶ Wedged if w, else Normal{0}
//! Normal, Coordinating, Acked ── Wedge ──▶ Wedged
//! Wedged ── Unwedge ──▶ Normal{3}               Acked{true} ── Unwedge ──▶ Acked{false}
//! Normal{p}, Coordinating{p} ── GossipRound ──▶ the same, p - 1
//! any ── Install ──▶ Normal{0}                  any ── Exile ──▶ Exiled, for good
//! ```
//!
//! [`Mode::next`] is the whole machine, and the endpoint's `step` the only place that
//! assigns its result.  An input a mode has no arrow for leaves it unchanged: a wedged site
//! does not start coordinating (it un-wedges first), an acked one does not time out as a
//! coordinator, and so on.

use crate::flush::{FlushCoordinator, FlushParticipant};

/// Gossip rounds an endpoint keeps probing for after it un-wedges without a view change:
/// one immediate probe plus this many periodic ones, so a lost probe cannot strand a healed
/// minority in a stale view.
const STALE_VIEW_PROBES: u8 = 3;

/// Where an endpoint stands.  A joiner with no view yet is `Normal`.
#[derive(Debug)]
pub(super) enum Mode {
    /// No flush running here.  `probes` counts the gossip rounds still owed after an
    /// un-wedge: each goes out even with nothing to report, so that a peer that moved on
    /// answers the stale view stamp with the commit that excluded this site.
    Normal { probes: u8 },
    /// This site coordinates the flush to the next view.  It keeps the probes it owed: a
    /// flush abandoned here resumes them.
    Coordinating { flush: FlushCoordinator, probes: u8 },
    /// This site acked `flush` and delivers nothing from the view until its commit.  `wedged`
    /// if the fence holds the site meanwhile: the ack went to a coordinator it still hears.
    Acked {
        flush: FlushParticipant,
        wedged: bool,
    },
    /// The fence holds the site: its component has no majority of the view, so it neither
    /// starts nor completes a flush.
    Wedged,
    /// A primary view without this site's members exists and the endpoint asked to rejoin.
    /// It ignores all further input; the hosting stack drops it.
    Exiled,
}

/// What moves the mode.
#[derive(Debug)]
pub(super) enum Input {
    /// This site starts coordinating `flush`.
    Coordinate(FlushCoordinator),
    /// This site acks a flush request (and defers to it, if it was coordinating).
    Ack(FlushParticipant),
    /// The flush role ends without a commit: retracted suspicions, or a failed initiator.
    Abandon,
    /// The coordinator of the flush this site acked went quiet for a flush timeout.
    CoordinatorSilent,
    /// The fence failed.
    Wedge,
    /// Retracted suspicions gave the site its majority back.
    Unwedge,
    /// A gossip round went out.
    GossipRound,
    /// A view was installed: the founding one, or a commit's.
    Install,
    /// Evidence of a primary view that excludes this site.
    Exile,
}

impl Mode {
    /// The transition function.  `attempt` is the attempt number this site's next flush as
    /// coordinator carries; a flush role that ends without a commit counts it up, and a
    /// takeover after a silent coordinator counts up from that coordinator's attempt.
    pub(super) fn next(self, input: Input, attempt: u64) -> (Mode, u64) {
        use Input::*;
        use Mode::*;
        let normal = |probes| Normal { probes };
        let acked = |flush, wedged| Acked { flush, wedged };
        let after_ack = |wedged| if wedged { Wedged } else { normal(0) };
        match (self, input) {
            (Exiled, _) | (_, Exile) => (Exiled, attempt),
            (_, Install) => (normal(0), 0),
            (Normal { probes }, Coordinate(flush)) => (Coordinating { flush, probes }, attempt),
            (Normal { .. } | Coordinating { .. }, Ack(flush)) => (acked(flush, false), attempt),
            (Acked { wedged, .. }, Ack(flush)) => (acked(flush, wedged), attempt),
            (Wedged, Ack(flush)) => (acked(flush, true), attempt),
            (Coordinating { probes, .. }, Abandon) => (normal(probes), attempt + 1),
            (Acked { wedged, .. }, Abandon) => (after_ack(wedged), attempt + 1),
            (Acked { flush, wedged }, CoordinatorSilent) => (after_ack(wedged), flush.attempt + 1),
            (Coordinating { .. } | Acked { .. }, Wedge) => (Wedged, attempt + 1),
            (Normal { .. } | Wedged, Wedge) => (Wedged, attempt),
            (Wedged, Unwedge) => (normal(STALE_VIEW_PROBES), attempt),
            (Acked { flush, .. }, Unwedge) => (acked(flush, false), attempt),
            (Normal { probes }, GossipRound) => (normal(probes.saturating_sub(1)), attempt),
            (Coordinating { flush, probes }, GossipRound) => {
                let probes = probes.saturating_sub(1);
                (Coordinating { flush, probes }, attempt)
            }
            (mode, _) => (mode, attempt),
        }
    }

    /// True while a flush runs here: multicasts wait for the next view.
    pub(super) fn flushing(&self) -> bool {
        matches!(self, Mode::Coordinating { .. } | Mode::Acked { .. })
    }

    /// True while the fence holds the site.
    pub(super) fn wedged(&self) -> bool {
        matches!(self, Mode::Wedged | Mode::Acked { wedged: true, .. })
    }

    /// True while the site owes probe rounds.
    pub(super) fn probing(&self) -> bool {
        matches!(
            self,
            Mode::Normal { probes } | Mode::Coordinating { probes, .. } if *probes > 0
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use vsync_util::{ProcessId, SimTime, SiteId};

    use super::*;

    fn acked(attempt: u64, wedged: bool) -> Mode {
        Mode::Acked {
            flush: participant(attempt),
            wedged,
        }
    }

    fn participant(attempt: u64) -> FlushParticipant {
        FlushParticipant {
            initiator: ProcessId::new(SiteId(0), 1),
            attempt,
            started_at: SimTime::ZERO,
        }
    }

    fn mode(label: &str) -> Mode {
        match label {
            "normal 2" => Mode::Normal { probes: 2 },
            "coordinating 2" => Mode::Coordinating {
                flush: FlushCoordinator::new(4, 5, BTreeSet::new(), SimTime::ZERO),
                probes: 2,
            },
            "acked 7" => acked(7, false),
            "acked 7 wedged" => acked(7, true),
            "wedged" => Mode::Wedged,
            "exiled" => Mode::Exiled,
            other => panic!("no mode {other:?}"),
        }
    }

    fn input(label: &str) -> Input {
        match label {
            "coordinate" => {
                Input::Coordinate(FlushCoordinator::new(4, 5, BTreeSet::new(), SimTime::ZERO))
            }
            "ack 8" => Input::Ack(participant(8)),
            "abandon" => Input::Abandon,
            "coordinator silent" => Input::CoordinatorSilent,
            "wedge" => Input::Wedge,
            "unwedge" => Input::Unwedge,
            "gossip round" => Input::GossipRound,
            "install" => Input::Install,
            "exile" => Input::Exile,
            other => panic!("no input {other:?}"),
        }
    }

    fn label(mode: &Mode) -> String {
        match mode {
            Mode::Normal { probes } => format!("normal {probes}"),
            Mode::Coordinating { probes, .. } => format!("coordinating {probes}"),
            Mode::Acked { flush, wedged } => {
                format!(
                    "acked {}{}",
                    flush.attempt,
                    if *wedged { " wedged" } else { "" }
                )
            }
            Mode::Wedged => "wedged".into(),
            Mode::Exiled => "exiled".into(),
        }
    }

    /// Every (mode, input) pair once: the next mode, and the attempt counter after it when
    /// it was 5 before.  The acked flush is attempt 7, the request acked by `ack 8` attempt 8.
    const TABLE: &[(&str, &str, &str, u64)] = &[
        ("normal 2", "coordinate", "coordinating 2", 5),
        ("normal 2", "ack 8", "acked 8", 5),
        ("normal 2", "abandon", "normal 2", 5),
        ("normal 2", "coordinator silent", "normal 2", 5),
        ("normal 2", "wedge", "wedged", 5),
        ("normal 2", "unwedge", "normal 2", 5),
        ("normal 2", "gossip round", "normal 1", 5),
        ("normal 2", "install", "normal 0", 0),
        ("normal 2", "exile", "exiled", 5),
        ("coordinating 2", "coordinate", "coordinating 2", 5),
        ("coordinating 2", "ack 8", "acked 8", 5),
        ("coordinating 2", "abandon", "normal 2", 6),
        ("coordinating 2", "coordinator silent", "coordinating 2", 5),
        ("coordinating 2", "wedge", "wedged", 6),
        ("coordinating 2", "unwedge", "coordinating 2", 5),
        ("coordinating 2", "gossip round", "coordinating 1", 5),
        ("coordinating 2", "install", "normal 0", 0),
        ("coordinating 2", "exile", "exiled", 5),
        ("acked 7", "coordinate", "acked 7", 5),
        ("acked 7", "ack 8", "acked 8", 5),
        ("acked 7", "abandon", "normal 0", 6),
        ("acked 7", "coordinator silent", "normal 0", 8),
        ("acked 7", "wedge", "wedged", 6),
        ("acked 7", "unwedge", "acked 7", 5),
        ("acked 7", "gossip round", "acked 7", 5),
        ("acked 7", "install", "normal 0", 0),
        ("acked 7", "exile", "exiled", 5),
        ("acked 7 wedged", "coordinate", "acked 7 wedged", 5),
        ("acked 7 wedged", "ack 8", "acked 8 wedged", 5),
        ("acked 7 wedged", "abandon", "wedged", 6),
        ("acked 7 wedged", "coordinator silent", "wedged", 8),
        ("acked 7 wedged", "wedge", "wedged", 6),
        ("acked 7 wedged", "unwedge", "acked 7", 5),
        ("acked 7 wedged", "gossip round", "acked 7 wedged", 5),
        ("acked 7 wedged", "install", "normal 0", 0),
        ("acked 7 wedged", "exile", "exiled", 5),
        ("wedged", "coordinate", "wedged", 5),
        ("wedged", "ack 8", "acked 8 wedged", 5),
        ("wedged", "abandon", "wedged", 5),
        ("wedged", "coordinator silent", "wedged", 5),
        ("wedged", "wedge", "wedged", 5),
        ("wedged", "unwedge", "normal 3", 5),
        ("wedged", "gossip round", "wedged", 5),
        ("wedged", "install", "normal 0", 0),
        ("wedged", "exile", "exiled", 5),
        ("exiled", "coordinate", "exiled", 5),
        ("exiled", "ack 8", "exiled", 5),
        ("exiled", "abandon", "exiled", 5),
        ("exiled", "coordinator silent", "exiled", 5),
        ("exiled", "wedge", "exiled", 5),
        ("exiled", "unwedge", "exiled", 5),
        ("exiled", "gossip round", "exiled", 5),
        ("exiled", "install", "exiled", 5),
        ("exiled", "exile", "exiled", 5),
    ];

    #[test]
    fn every_mode_answers_every_input() {
        let pairs: BTreeSet<(&str, &str)> = TABLE.iter().map(|(m, i, _, _)| (*m, *i)).collect();
        assert_eq!(pairs.len(), 6 * 9, "one row per (mode, input) pair");
        assert_eq!(TABLE.len(), pairs.len());
        for (from, by, to, attempt) in TABLE {
            let (next, after) = mode(from).next(input(by), 5);
            assert_eq!(
                (label(&next).as_str(), after),
                (*to, *attempt),
                "{from} + {by}"
            );
        }
    }
}
