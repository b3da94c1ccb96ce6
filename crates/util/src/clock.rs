//! Per-view vector clocks.
//!
//! The CBCAST protocol orders potentially causally related multicasts (paper Section 3.1)
//! using vector timestamps indexed by the sender's rank in the current group view.  The
//! clock lives here so it can be property-tested in isolation.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::Rank;

/// Result of comparing two vector timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CausalOrder {
    /// The left timestamp happened strictly before the right one.
    Before,
    /// The left timestamp happened strictly after the right one.
    After,
    /// The timestamps are identical.
    Equal,
    /// The timestamps are concurrent (neither happened before the other).
    Concurrent,
}

/// A fixed-width vector clock indexed by member rank within a group view.
///
/// The width equals the number of members in the view.  Because every view change flushes
/// all messages sent in the previous view (the virtual synchrony cut), vector clocks are
/// reset whenever a new view is installed, so ranks never refer to stale memberships.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// Creates an all-zero clock of the given width.
    pub fn zero(width: usize) -> Self {
        VectorClock {
            entries: vec![0; width],
        }
    }

    /// Creates a clock directly from entries (used by codecs and tests).
    pub fn from_entries(entries: Vec<u64>) -> Self {
        VectorClock { entries }
    }

    /// Returns the component for `rank`, or 0 if the clock is narrower than `rank`.
    pub fn get(&self, rank: Rank) -> u64 {
        self.entries.get(rank).copied().unwrap_or(0)
    }

    /// Sets the component for `rank`, growing the clock if necessary.
    pub fn set(&mut self, rank: Rank, value: u64) {
        if rank >= self.entries.len() {
            self.entries.resize(rank + 1, 0);
        }
        self.entries[rank] = value;
    }

    /// Increments the component for `rank` and returns the new value.
    pub fn increment(&mut self, rank: Rank) -> u64 {
        let v = self.get(rank) + 1;
        self.set(rank, v);
        v
    }

    /// Component-wise maximum with another clock (the classic merge operation).
    pub fn merge(&mut self, other: &VectorClock) {
        if other.entries.len() > self.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (i, v) in other.entries.iter().enumerate() {
            if *v > self.entries[i] {
                self.entries[i] = *v;
            }
        }
    }

    /// Returns true if `self <= other` component-wise.
    fn dominated_by(&self, other: &VectorClock) -> bool {
        let width = self.entries.len().max(other.entries.len());
        (0..width).all(|i| self.get(i) <= other.get(i))
    }

    /// Compares two vector timestamps under the causal (happened-before) partial order.
    fn causal_cmp(&self, other: &VectorClock) -> CausalOrder {
        let le = self.dominated_by(other);
        let ge = other.dominated_by(self);
        match (le, ge) {
            (true, true) => CausalOrder::Equal,
            (true, false) => CausalOrder::Before,
            (false, true) => CausalOrder::After,
            (false, false) => CausalOrder::Concurrent,
        }
    }

    /// Returns the raw entries.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// CBCAST delivery condition: a message stamped `msg_vt` from the member at `sender`
    /// is deliverable at a process whose delivered-clock is `self` when
    /// `msg_vt[sender] == self[sender] + 1` and `msg_vt[k] <= self[k]` for every `k != sender`.
    pub fn deliverable_from(&self, sender: Rank, msg_vt: &VectorClock) -> bool {
        let width = self.entries.len().max(msg_vt.entries.len());
        for k in 0..width {
            if k == sender {
                if msg_vt.get(k) != self.get(k) + 1 {
                    return false;
                }
            } else if msg_vt.get(k) > self.get(k) {
                return false;
            }
        }
        true
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VT{:?}", self.entries)
    }
}

impl PartialOrd for VectorClock {
    /// Partial order induced by causality; concurrent clocks are incomparable.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match self.causal_cmp(other) {
            CausalOrder::Before => Some(Ordering::Less),
            CausalOrder::After => Some(Ordering::Greater),
            CausalOrder::Equal => Some(Ordering::Equal),
            CausalOrder::Concurrent => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_clock_basic_ops() {
        let mut a = VectorClock::zero(3);
        a.increment(0);
        a.increment(0);
        a.increment(2);
        assert_eq!(a.entries(), &[2, 0, 1]);
        assert_eq!(a.get(5), 0);
        a.set(4, 7);
        assert_eq!(a.entries().len(), 5);
        assert_eq!(a.get(4), 7);
    }

    #[test]
    fn causal_comparison() {
        let a = VectorClock::from_entries(vec![1, 0]);
        let b = VectorClock::from_entries(vec![1, 1]);
        let c = VectorClock::from_entries(vec![0, 2]);
        assert_eq!(a.causal_cmp(&b), CausalOrder::Before);
        assert_eq!(b.causal_cmp(&a), CausalOrder::After);
        assert_eq!(a.causal_cmp(&a), CausalOrder::Equal);
        assert_eq!(a.causal_cmp(&c), CausalOrder::Concurrent);
        assert!(a < b);
        assert!(a.partial_cmp(&c).is_none());
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = VectorClock::from_entries(vec![3, 0, 5]);
        let b = VectorClock::from_entries(vec![1, 4, 2, 9]);
        a.merge(&b);
        assert_eq!(a.entries(), &[3, 4, 5, 9]);
    }

    #[test]
    fn cbcast_delivery_condition() {
        // Receiver has delivered one message from rank 0 and none from rank 1.
        let delivered = VectorClock::from_entries(vec![1, 0, 0]);
        // Next message from rank 0 is deliverable.
        let m = VectorClock::from_entries(vec![2, 0, 0]);
        assert!(delivered.deliverable_from(0, &m));
        // A message from rank 1 that depends on an undelivered rank-0 message is not.
        let m2 = VectorClock::from_entries(vec![3, 1, 0]);
        assert!(!delivered.deliverable_from(1, &m2));
        // A message from rank 1 depending only on what we have is deliverable.
        let m3 = VectorClock::from_entries(vec![1, 1, 0]);
        assert!(delivered.deliverable_from(1, &m3));
        // Gaps in the sender's own sequence are not deliverable.
        let m4 = VectorClock::from_entries(vec![3, 0, 0]);
        assert!(!delivered.deliverable_from(0, &m4));
    }

    #[test]
    fn widths_are_handled_leniently() {
        let narrow = VectorClock::from_entries(vec![1]);
        let wide = VectorClock::from_entries(vec![1, 0, 0]);
        assert_eq!(narrow.causal_cmp(&wide), CausalOrder::Equal);
    }
}
