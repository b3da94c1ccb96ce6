//! Group membership views.
//!
//! A view is the membership of a process group at a point in its history.  "The membership
//! list is sorted in order of decreasing age, providing a natural ranking on the members, and
//! one that is the same at all members" (paper Section 3.2).  Because view changes are
//! delivered as virtually synchronous events, every member observes the same sequence of
//! views and can use its rank in the current view as the basis of deterministic, local
//! decisions — no extra agreement protocol required.

use serde::{Deserialize, Serialize};
use vsync_msg::stream::{FrameReader, FrameWriter};
use vsync_util::{GroupId, ProcessId, Rank, Result, SiteId, ViewId};

use crate::messages::{get_processes, put_processes};

/// A group membership view.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct View {
    /// Identity of the view (group plus sequence number).
    pub id: ViewId,
    /// Members in order of decreasing age: index = rank, rank 0 is the oldest member.
    pub members: Vec<ProcessId>,
    /// Members added relative to the previous view; a founding view lists its creator.
    pub joined: Vec<ProcessId>,
    /// Members that departed (left or failed) relative to the previous view.
    pub departed: Vec<ProcessId>,
}

impl View {
    /// Creates the founding view of a group with a single creator member.
    pub fn founding(group: GroupId, creator: ProcessId) -> Self {
        View::founding_at(group, creator, ViewId::initial(group).seq)
    }

    /// Creates a founding view whose sequence number starts at `seq` instead of the
    /// default.  Used when a group is *reformed* after a total failure: the new
    /// incarnation continues the view-sequence line of the authoritative log
    /// (`last logged seq + 1`), so recovery logs written across incarnations stay
    /// totally ordered and a later reform election still compares view seqs directly.
    pub(crate) fn founding_at(group: GroupId, creator: ProcessId, seq: u64) -> Self {
        View {
            id: ViewId { group, seq },
            members: vec![creator],
            joined: vec![creator],
            departed: Vec::new(),
        }
    }

    /// The group this view belongs to.
    pub fn group(&self) -> GroupId {
        self.id.group
    }

    /// The view sequence number.
    pub fn seq(&self) -> u64 {
        self.id.seq
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the view has no members (a group that everyone has left).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Rank of a member (0 = oldest), or `None` if not a member.
    pub fn rank_of(&self, p: ProcessId) -> Option<Rank> {
        self.members.iter().position(|m| *m == p)
    }

    /// True if `p` is a member of this view.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.rank_of(p).is_some()
    }

    /// The oldest member, which acts as the group coordinator for view changes.
    pub(crate) fn coordinator(&self) -> Option<ProcessId> {
        self.members.first().copied()
    }

    /// The distinct sites hosting members, in rank order (oldest member's site first).
    pub fn member_sites(&self) -> Vec<SiteId> {
        let mut sites = Vec::new();
        for m in &self.members {
            if !sites.contains(&m.site) {
                sites.push(m.site);
            }
        }
        sites
    }

    /// Members hosted at `site`.
    pub fn members_at(&self, site: SiteId) -> Vec<ProcessId> {
        self.members
            .iter()
            .copied()
            .filter(|m| m.site == site)
            .collect()
    }

    /// Builds the successor view after applying departures and additions.
    ///
    /// Departed members are removed; joiners are appended at the end (they are the youngest),
    /// preserving the decreasing-age order of everyone else.
    pub fn successor(&self, departed: &[ProcessId], joined: &[ProcessId]) -> View {
        let mut members: Vec<ProcessId> = self
            .members
            .iter()
            .copied()
            .filter(|m| !departed.contains(m))
            .collect();
        let mut actually_joined = Vec::new();
        for j in joined {
            if !members.contains(j) {
                members.push(*j);
                actually_joined.push(*j);
            }
        }
        View {
            id: self.id.next(),
            members,
            joined: actually_joined,
            departed: departed
                .iter()
                .copied()
                .filter(|d| self.contains(*d))
                .collect(),
        }
    }

    /// Writes the view into a flush commit — the one place a view is written: its group,
    /// its sequence number, and its member, joined and departed lists.
    pub(crate) fn write(&self, w: &mut FrameWriter) {
        w.put_varint(self.id.group.0);
        w.put_varint(self.id.seq);
        put_processes(w, &self.members);
        put_processes(w, &self.joined);
        put_processes(w, &self.departed);
    }

    /// Reads a view written by [`View::write`] — the one place a view is read.
    pub(crate) fn read(c: &mut FrameReader<'_>) -> Result<View> {
        Ok(View {
            id: ViewId {
                group: GroupId(c.varint()?),
                seq: c.varint()?,
            },
            members: get_processes(c)?,
            joined: get_processes(c)?,
            departed: get_processes(c)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    fn p(site: u16, local: u32) -> ProcessId {
        ProcessId::new(SiteId(site), local)
    }

    #[test]
    fn founding_view_has_one_member_at_rank_zero() {
        let v = View::founding(GroupId(1), p(0, 1));
        assert_eq!(v.seq(), 1);
        assert_eq!(v.len(), 1);
        assert_eq!(v.rank_of(p(0, 1)), Some(0));
        assert_eq!(v.coordinator(), Some(p(0, 1)));
        assert_eq!(v.joined, vec![p(0, 1)]);
    }

    #[test]
    fn successor_appends_joiners_as_youngest() {
        let v1 = View::founding(GroupId(1), p(0, 1));
        let v2 = v1.successor(&[], &[p(1, 1)]);
        let v3 = v2.successor(&[], &[p(2, 1)]);
        assert_eq!(v3.members, vec![p(0, 1), p(1, 1), p(2, 1)]);
        assert_eq!(v3.seq(), 3);
        assert_eq!(v3.rank_of(p(2, 1)), Some(2));
        assert_eq!(v3.joined, vec![p(2, 1)]);
    }

    #[test]
    fn successor_removes_departed_and_promotes_survivors() {
        let v = View::founding(GroupId(1), p(0, 1))
            .successor(&[], &[p(1, 1)])
            .successor(&[], &[p(2, 1)]);
        let after = v.successor(&[p(0, 1)], &[]);
        assert_eq!(after.members, vec![p(1, 1), p(2, 1)]);
        assert_eq!(after.coordinator(), Some(p(1, 1)));
        assert_eq!(after.departed, vec![p(0, 1)]);
        // Departures of non-members are ignored.
        let again = after.successor(&[p(9, 9)], &[]);
        assert!(again.departed.is_empty());
        assert_eq!(again.members.len(), 2);
    }

    #[test]
    fn duplicate_joins_are_ignored() {
        let v = View::founding(GroupId(1), p(0, 1));
        let v2 = v.successor(&[], &[p(0, 1), p(1, 1)]);
        assert_eq!(v2.members, vec![p(0, 1), p(1, 1)]);
        assert_eq!(v2.joined, vec![p(1, 1)]);
    }

    #[test]
    fn member_sites_deduplicate_in_rank_order() {
        let v = View::founding(GroupId(1), p(2, 1))
            .successor(&[], &[p(0, 1)])
            .successor(&[], &[p(2, 2)])
            .successor(&[], &[p(1, 1)]);
        assert_eq!(v.member_sites(), vec![SiteId(2), SiteId(0), SiteId(1)]);
        assert_eq!(v.members_at(SiteId(2)), vec![p(2, 1), p(2, 2)]);
    }

    #[test]
    fn wire_roundtrip() {
        let v = View::founding(GroupId(7), p(0, 1))
            .successor(&[], &[p(1, 1)])
            .successor(&[p(0, 1)], &[p(2, 1)]);
        let mut w = FrameWriter::with_capacity(64);
        v.write(&mut w);
        let bytes = w.finish();
        let body = vsync_msg::codec::envelope_body(&bytes).expect("envelope");
        // Group, seq, then each list as a count and (site, local, incarnation) per member.
        let tree = vsync_msg::codec::decode_segments(&bytes).expect("tree");
        let positional = tree
            .get_bytes(vsync_msg::stream::FRAME_FIELD)
            .expect("body");
        assert_eq!(
            positional,
            &[7, 3, 2, 1, 1, 0, 2, 1, 0, 1, 2, 1, 0, 1, 0, 1, 0]
        );
        let mut c = FrameReader::open(&body).expect("open");
        assert_eq!(View::read(&mut c).expect("decode"), v);
        c.finish().expect("nothing else in the buffer");
    }
}
