//! A calendar queue for the discrete-event simulator (`vsync-rt`'s `sim` backend).
//!
//! The simulator's event queue used to be a `BinaryHeap` ordered by `(time, sequence)`.  Its
//! dominant workload is bursty: a multicast fan-out or reply storm schedules dozens of
//! events at the *same instant* (identical arrival time under a zero-jitter profile), and each of those paid a full
//! O(log n) sift on push *and* pop.
//!
//! [`CalendarQueue`] is a calendar keyed by [`SimTime`]: one FIFO bucket per occupied
//! instant, plus a min-heap over the *distinct* instants only.  Scheduling another event at
//! an already-occupied instant — the common burst case — is an O(1) push onto that
//! instant's bucket; the heap is touched once per instant, not once per event.  Popping
//! drains the earliest bucket front-to-back, so the delivered order is exactly the
//! `(time, insertion sequence)` order of the old heap.
//!
//! Invariants (pinned by `tests/calendar_props.rs` against a `BinaryHeap` reference model):
//!
//! * every instant in the heap has a non-empty bucket, and appears in the heap exactly once;
//! * `pop` returns events in ascending time, FIFO within one instant;
//! * `len` counts queued events, not buckets.
//!
//! Drained bucket allocations are recycled through a small spare pool, so steady-state
//! operation allocates nothing.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

use vsync_util::{FastHashMap, SimTime};

/// Upper bound on recycled bucket allocations kept around between instants.
const MAX_SPARE_BUCKETS: usize = 32;

/// A time-ordered event queue with O(1) amortized scheduling at occupied instants and FIFO
/// order within an instant.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Min-heap of the distinct occupied instants (each exactly once).
    instants: BinaryHeap<Reverse<SimTime>>,
    /// FIFO bucket per occupied instant; never empty while its instant is in the heap.
    /// Keyed with the toolkit's id hasher — timestamps are trusted internal values and the
    /// map is touched on every push and pop.
    buckets: FastHashMap<SimTime, VecDeque<T>>,
    /// Drained bucket allocations available for reuse.
    spare: Vec<VecDeque<T>>,
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            instants: BinaryHeap::new(),
            buckets: FastHashMap::default(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest occupied instant, if any (the time `pop` would return next).
    pub fn next_time(&self) -> Option<SimTime> {
        self.instants.peek().map(|r| r.0)
    }

    /// Schedules `item` at `at`.  O(1) when the instant already has a bucket; one heap push
    /// otherwise.
    pub fn push(&mut self, at: SimTime, item: T) {
        match self.buckets.entry(at) {
            Entry::Occupied(bucket) => bucket.into_mut().push_back(item),
            Entry::Vacant(slot) => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                bucket.push_back(item);
                slot.insert(bucket);
                self.instants.push(Reverse(at));
            }
        }
        self.len += 1;
    }

    /// Drops every queued event for which `keep` returns false, preserving time order and
    /// FIFO order within each instant.  O(n); used by fault injection (a hard-killed site's
    /// in-flight sends die on the wire), not on the steady-state path.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut removed = 0usize;
        self.buckets.retain(|_, bucket| {
            let before = bucket.len();
            bucket.retain(|item| keep(item));
            removed += before - bucket.len();
            !bucket.is_empty()
        });
        if removed > 0 {
            self.len -= removed;
            // Instants whose buckets emptied must leave the heap; each survivor appears in
            // `buckets` exactly once, so rebuilding from the keys preserves the invariant.
            self.instants = self.buckets.keys().map(|t| Reverse(*t)).collect();
        }
    }

    /// Removes and returns the earliest event: ascending time, FIFO within an instant.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let at = self.next_time()?;
        let bucket = self
            .buckets
            .get_mut(&at)
            .expect("every heap instant has a bucket");
        let item = bucket.pop_front().expect("bucket in the heap is non-empty");
        if bucket.is_empty() {
            let drained = self.buckets.remove(&at).expect("bucket present");
            if self.spare.len() < MAX_SPARE_BUCKETS {
                self.spare.push(drained);
            }
            self.instants.pop();
        }
        self.len -= 1;
        Some((at, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_fifo_within_an_instant() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(20), "late");
        q.push(SimTime(10), "a");
        q.push(SimTime(10), "b");
        q.push(SimTime(5), "first");
        q.push(SimTime(10), "c");
        assert_eq!(q.len(), 5);
        assert_eq!(q.next_time(), Some(SimTime(5)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec!["first", "a", "b", "c", "late"]);
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_the_heap_deduplicated() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(10), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        // Re-occupying a drained instant must re-register it exactly once.
        q.push(SimTime(10), 2);
        q.push(SimTime(10), 3);
        assert_eq!(q.pop(), Some((SimTime(10), 2)));
        q.push(SimTime(10), 4);
        assert_eq!(q.pop(), Some((SimTime(10), 3)));
        assert_eq!(q.pop(), Some((SimTime(10), 4)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn retain_preserves_order_and_heap_invariants() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(5), 50);
        q.push(SimTime(10), 100);
        q.push(SimTime(10), 101);
        q.push(SimTime(20), 200);
        q.retain(|v| *v % 2 == 0);
        assert_eq!(q.len(), 3);
        // The instant whose bucket emptied entirely must be gone from the heap too.
        q.retain(|v| *v != 200);
        assert_eq!(q.len(), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec![50, 100]);
        assert_eq!(q.next_time(), None);
        // Retaining everything on an empty queue is a no-op.
        q.retain(|_| true);
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_allocations_are_recycled() {
        let mut q = CalendarQueue::new();
        for round in 0..10u64 {
            q.push(SimTime(round), round);
            q.pop();
        }
        assert!(
            q.spare.len() <= MAX_SPARE_BUCKETS && !q.spare.is_empty(),
            "drained buckets return to the spare pool"
        );
    }
}
