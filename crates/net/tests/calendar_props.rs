//! Property tests pinning the calendar event queue to a binary-heap reference model.
//!
//! The simulator's old queue was a `BinaryHeap` ordered by `(time, insertion sequence)`; the
//! calendar queue must pop in exactly that order for *every* interleaving of pushes and
//! pops, or the simulator's determinism (and the virtual-synchrony property tests built on
//! it) silently breaks.  Schedules here are driven by the deterministic RNG across many
//! seeds and deliberately pile events onto shared instants — the burst case the calendar
//! exists to make cheap — and interleave pops mid-schedule so drained-and-reoccupied
//! instants are exercised.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vsync_net::CalendarQueue;
use vsync_util::{DetRng, SimTime};

/// Reference model: the exact ordering contract of the simulator's previous queue.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    seq: u64,
    items: Vec<(SimTime, u64, u32)>,
}

impl HeapModel {
    fn push(&mut self, at: SimTime, item: u32) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq)));
        self.items.push((at, self.seq, item));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        let idx = self
            .items
            .iter()
            .position(|(a, s, _)| *a == at && *s == seq)
            .expect("heap entry has a payload");
        let (_, _, item) = self.items.remove(idx);
        Some((at, item))
    }
}

#[test]
fn pop_order_matches_the_heap_reference_across_random_schedules() {
    for seed in 0..200u64 {
        let mut rng = DetRng::new(seed);
        let mut calendar: CalendarQueue<u32> = CalendarQueue::new();
        let mut model = HeapModel::default();
        // A small instant domain forces heavy same-instant collisions; interleaved pops
        // exercise buckets that drain and then re-fill.
        let instants: u64 = 1 + rng.next_below(8);
        let ops = 64 + rng.next_below(192);
        let mut item = 0u32;
        for _ in 0..ops {
            if rng.chance(0.35) && !calendar.is_empty() {
                let got = calendar.pop();
                let want = model.pop();
                assert_eq!(got, want, "seed {seed}: pop diverged mid-schedule");
            } else {
                let at = SimTime(rng.next_below(instants) * 1_000);
                calendar.push(at, item);
                model.push(at, item);
                item += 1;
            }
            assert_eq!(
                calendar.len(),
                model.items.len(),
                "seed {seed}: len diverged"
            );
            assert_eq!(
                calendar.next_time(),
                model.heap.peek().map(|Reverse((at, _))| *at),
                "seed {seed}: next_time diverged"
            );
        }
        // Drain both to the end: the full remaining order must agree.
        loop {
            let got = calendar.pop();
            let want = model.pop();
            assert_eq!(got, want, "seed {seed}: drain diverged");
            if got.is_none() {
                break;
            }
        }
    }
}
