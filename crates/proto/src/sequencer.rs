//! A hop-count model of a fixed-sequencer total order, for the ablation benchmark.
//!
//! The paper's ABCAST uses decentralised two-phase priority agreement.  A common alternative
//! (used by many later group-communication systems) is a *fixed sequencer*: all messages are
//! sent to one distinguished member which assigns consecutive sequence numbers and
//! rebroadcasts them; receivers deliver in sequence-number order.  The sequencer needs fewer
//! messages per multicast when the sender is not the sequencer's site (2 inter-site hops
//! instead of 3) but concentrates load and adds a hop for every sender that is not co-located
//! with the sequencer.  The ablation benchmark (`repro -- ablation-order`) compares the two
//! critical paths as counted here; no sequencer protocol runs.

use vsync_util::SiteId;

/// Message cost of one multicast under the sequencer scheme, counted the same way Figure 3
/// counts ABCAST hops: inter-site messages on the critical path to a remote destination.
pub fn sequencer_inter_site_hops(sender_site: SiteId, sequencer_site: SiteId) -> u32 {
    if sender_site == sequencer_site {
        1 // Rebroadcast only.
    } else {
        2 // Forward to the sequencer, then rebroadcast.
    }
}

/// Inter-site hops on the critical path of the ISIS ABCAST (phase one out, proposal back,
/// phase two out — see Figure 3 of the paper).
pub fn abcast_inter_site_hops(sender_site: SiteId, destination_site: SiteId) -> u32 {
    if sender_site == destination_site {
        0
    } else {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_counts_match_the_analytical_model() {
        assert_eq!(sequencer_inter_site_hops(SiteId(0), SiteId(0)), 1);
        assert_eq!(sequencer_inter_site_hops(SiteId(1), SiteId(0)), 2);
        assert_eq!(abcast_inter_site_hops(SiteId(0), SiteId(0)), 0);
        assert_eq!(abcast_inter_site_hops(SiteId(0), SiteId(1)), 3);
    }
}
