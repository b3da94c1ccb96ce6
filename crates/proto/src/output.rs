//! Actions produced by a [`crate::endpoint::GroupEndpoint`].
//!
//! The endpoint is sans-io: it never sends packets or sets timers itself.  Every call that
//! advances the protocol appends [`EndpointOutput`] values to a caller-provided vector, and
//! the hosting protocol stack (in `vsync-core`) turns them into packets addressed to the peer
//! site's protocols process, application deliveries, or view-change notifications.

use vsync_msg::{Frame, Message};
use vsync_net::{MsgId, PacketKind, ProtocolKind};
use vsync_util::{GroupId, SiteId};

use crate::frontier::Frontier;
use crate::view::View;

/// An application-level message ready to be handed to the local members of a group.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The group the message was addressed to.
    pub group: GroupId,
    /// Unique id of the multicast.
    pub msg_id: MsgId,
    /// Sequence number of the view in which the message is delivered.
    pub view_seq: u64,
    /// The primitive that carried the message.
    pub protocol: ProtocolKind,
    /// The payload, including the unforgeable `@sender` and routing fields set by the
    /// sending stack.
    pub payload: Message,
}

/// A view change (or user GBCAST) delivered at the virtual-synchrony cut point.
#[derive(Clone, Debug)]
pub struct ViewEvent {
    /// The newly installed view.
    pub view: View,
    /// User GBCAST payloads delivered together with the view event, in a fixed order that is
    /// identical at every member.
    pub gbcasts: Vec<Message>,
    /// Per-origin sequence frontier of the pre-cut history (from the flush commit; empty
    /// for a founding view).  A state snapshot encoded while handling this event covers
    /// exactly the messages behind this frontier, so state-transfer tools tag their blocks
    /// with it and joining endpoints use it to suppress redelivery of covered messages.
    pub covered: Frontier,
}

/// One action requested by a group endpoint.
#[derive(Clone, Debug)]
pub enum EndpointOutput {
    /// Send a protocol message to the group endpoint at another site.
    Send {
        /// Destination site (its protocols process).
        dst_site: SiteId,
        /// Packet classification for statistics and the Figure 3 breakdown.
        kind: PacketKind,
        /// The protocol message in wire form.  A multicast fan-out emits one `Send` per
        /// peer site, all aliasing the same frame: the hosting stack turns each into a
        /// packet without copying (or reading) the message.
        msg: Frame,
    },
    /// Deliver an application message to the local members of the group.
    Deliver(Delivery),
    /// Deliver a view change / GBCAST event to the local members of the group.
    ViewChange(ViewEvent),
    /// The endpoint refused to start or commit a view change because its component does
    /// not hold a majority of the current view (the primary-partition fence): it is now
    /// wedged, and stays wedged until the partition heals or suspicions are retracted.
    PartitionStalled {
        /// The group whose view change stalled.
        group: GroupId,
        /// The view the component failed to cut from.
        view_seq: u64,
        /// Unsuspected members of that view visible from this component.
        alive: usize,
        /// Total members eligible to vote (the view minus voluntary leavers).
        voters: usize,
    },
    /// A wedged (or excluded) member observed evidence of a newer primary view: its own
    /// history is a divergent tail.  The hosting stack must discard this endpoint and
    /// rejoin its local members through `contact`, receiving fresh state at the join cut.
    RejoinRequired {
        /// The group to rejoin.
        group: GroupId,
        /// The site whose traffic evidenced the newer primary view.
        contact: SiteId,
        /// The newer view sequence observed there.
        observed_seq: u64,
    },
}
