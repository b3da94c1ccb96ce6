//! Identifiers for sites, processes, groups, views and entry points.
//!
//! ISIS represents process and group addresses with a compact 8-byte identifier
//! (paper Section 4.1, "Addresses").  We keep the same spirit: every identifier here is a
//! small `Copy` value that fits in a machine word or two, is cheap to compare and hash, and
//! can be used interchangeably wherever an address is expected (a [`GroupId`] can appear in
//! any destination list, exactly as in the paper).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a computing *site* (a machine on the LAN).
///
/// Sites are the unit of inter-host communication and of total failure: when a site crashes,
/// every process it hosts crashes with it (paper Section 2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteId(pub u16);

impl SiteId {
    /// Returns the numeric index of the site.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// Incarnation number of a process.
///
/// ISIS converts timeouts into fail-stop behaviour: once a process has been declared failed
/// it must rejoin under a new incarnation even if it was merely slow (paper Section 3.7).
/// The incarnation number is what distinguishes the "old" identity from the recovered one.
pub type Incarnation = u32;

/// Identifier of a single process.
///
/// A process lives at a fixed [`SiteId`], has a site-local index, and an [`Incarnation`]
/// that is bumped each time the recovery manager restarts it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId {
    /// Site hosting the process.
    pub site: SiteId,
    /// Index of the process at its site.
    pub local: u32,
    /// Incarnation number (0 for the first incarnation).
    pub incarnation: Incarnation,
}

impl ProcessId {
    /// Creates a first-incarnation process id.
    pub fn new(site: SiteId, local: u32) -> Self {
        ProcessId {
            site,
            local,
            incarnation: 0,
        }
    }

    /// Returns the same process identity with the incarnation bumped by one.
    pub fn next_incarnation(self) -> Self {
        ProcessId {
            incarnation: self.incarnation + 1,
            ..self
        }
    }

    /// Returns true if `other` is an earlier or equal incarnation of the same process slot.
    pub fn same_slot(&self, other: &ProcessId) -> bool {
        self.site == other.site && self.local == other.local
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.incarnation == 0 {
            write!(f, "P{}.{}", self.site.0, self.local)
        } else {
            write!(f, "P{}.{}#{}", self.site.0, self.local, self.incarnation)
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a process group.
///
/// Group ids are allocated by the namespace service; a symbolic name such as `"twenty"` maps
/// to a `GroupId` through `pg_lookup` (paper Section 5, Step 2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u64);

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a group membership view.
///
/// Views are numbered sequentially within a group; every member observes the same sequence
/// of views, and every multicast is delivered in a well-defined view (virtual synchrony).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ViewId {
    /// The group this view belongs to.
    pub group: GroupId,
    /// Sequence number of the view within the group, starting at 1 for the founding view.
    pub seq: u64,
}

impl ViewId {
    /// The founding view of a group.
    pub fn initial(group: GroupId) -> Self {
        ViewId { group, seq: 1 }
    }

    /// Returns the next view id in sequence.
    pub fn next(self) -> Self {
        ViewId {
            group: self.group,
            seq: self.seq + 1,
        }
    }
}

impl fmt::Debug for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/v{}", self.group, self.seq)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Rank of a member within a view.
///
/// Views list members in order of decreasing age (paper Section 3.2), so rank 0 is the
/// oldest member.  Ranks are the basis of the "deterministic rule" coordination style used
/// throughout the toolkit (coordinator selection, work partitioning in twenty questions).
pub type Rank = usize;

/// One-byte entry-point identifier (paper Section 4.1, "Entries").
///
/// Every process binds handler routines to entry points; a message names the entry point it
/// should be dispatched to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntryId(pub u8);

impl EntryId {
    /// Generic entry used by the toolkit to deliver group membership change notifications.
    pub const GENERIC_VIEW_CHANGE: EntryId = EntryId(250);
    /// Generic entry used by the coordinator-cohort tool to deliver reply copies to cohorts.
    pub const GENERIC_CC_REPLY: EntryId = EntryId(251);
    /// Generic entry used by the state-transfer tool.
    pub const GENERIC_XFER: EntryId = EntryId(252);
    /// Generic entry used by the join protocol.
    pub const GENERIC_JOIN: EntryId = EntryId(253);
    /// Generic entry used for tool-internal control traffic.
    pub const GENERIC_TOOL: EntryId = EntryId(254);
    /// Reserved entry used for replies; never bound by users.
    pub const REPLY: EntryId = EntryId(255);

    /// Returns true if this entry id is reserved for toolkit use.
    pub fn is_generic(self) -> bool {
        self.0 >= 250
    }
}

impl fmt::Debug for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// A destination address: either a single process or a whole process group.
///
/// Group addresses can be used in any context where a process address is acceptable
/// (paper Section 4.1), so destination lists are lists of `Address`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Address {
    /// A single process.
    Process(ProcessId),
    /// All current members of a process group.
    Group(GroupId),
}

impl Address {
    /// Returns the process id if this is a process address.
    pub fn as_process(&self) -> Option<ProcessId> {
        match self {
            Address::Process(p) => Some(*p),
            Address::Group(_) => None,
        }
    }

    /// Returns the group id if this is a group address.
    pub fn as_group(&self) -> Option<GroupId> {
        match self {
            Address::Group(g) => Some(*g),
            Address::Process(_) => None,
        }
    }
}

impl From<ProcessId> for Address {
    fn from(p: ProcessId) -> Self {
        Address::Process(p)
    }
}

impl From<GroupId> for Address {
    fn from(g: GroupId) -> Self {
        Address::Group(g)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Address::Process(p) => write!(f, "{p:?}"),
            Address::Group(g) => write!(f, "{g:?}"),
        }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_incarnation_bump_keeps_slot() {
        let p = ProcessId::new(SiteId(3), 7);
        let q = p.next_incarnation();
        assert!(p.same_slot(&q));
        assert_ne!(p, q);
        assert_eq!(q.incarnation, 1);
    }

    #[test]
    fn view_id_sequence() {
        let g = GroupId(42);
        let v1 = ViewId::initial(g);
        let v2 = v1.next();
        assert_eq!(v1.seq, 1);
        assert_eq!(v2.seq, 2);
        assert!(v1 < v2);
        assert_eq!(v1.group, v2.group);
    }

    #[test]
    fn address_conversions() {
        let p = ProcessId::new(SiteId(0), 1);
        let g = GroupId(9);
        let ap: Address = p.into();
        let ag: Address = g.into();
        assert_eq!(ap.as_process(), Some(p));
        assert_eq!(ap.as_group(), None);
        assert_eq!(ag.as_group(), Some(g));
    }

    #[test]
    fn entry_id_generic_range() {
        assert!(EntryId::GENERIC_CC_REPLY.is_generic());
        assert!(EntryId::REPLY.is_generic());
        assert!(!EntryId(0).is_generic());
        assert!(!EntryId(249).is_generic());
    }

    #[test]
    fn debug_formats_are_compact() {
        let p = ProcessId::new(SiteId(2), 4);
        assert_eq!(format!("{p:?}"), "P2.4");
        assert_eq!(format!("{:?}", p.next_incarnation()), "P2.4#1");
        assert_eq!(format!("{:?}", GroupId(7)), "G7");
        assert_eq!(format!("{:?}", SiteId(1)), "S1");
        assert_eq!(
            format!(
                "{:?}",
                ViewId {
                    group: GroupId(7),
                    seq: 3
                }
            ),
            "G7/v3"
        );
    }

    #[test]
    fn ordering_is_total_on_process_ids() {
        let a = ProcessId::new(SiteId(0), 0);
        let b = ProcessId::new(SiteId(0), 1);
        let c = ProcessId::new(SiteId(1), 0);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }
}
