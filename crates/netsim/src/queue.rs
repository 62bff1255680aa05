//! The deterministic event queue for the simulator hot path.
//!
//! A binary heap over `(time, lane, seq)`: O(log n) push/pop with
//! contiguous storage and no per-operation node allocation. Because the
//! key is a *strict total order* (`(lane, seq)` is unique — `seq` is a
//! per-lane counter), the pop sequence is fully determined by the
//! pushed keys — the heap's internal layout can never leak into event
//! order (rule D2, `tests/determinism.rs`). The test module checks that
//! against a sorted-map model of the same key on generated scripts.
//!
//! The *lane* component is what makes the order shard-invariant
//! (`ldp-shard`): a lane is the global id of the host whose processing
//! scheduled the event (or a control/driver lane), and `seq` counts
//! pushes within that lane. Host behaviour is deterministic per host,
//! so the same workload produces the same `(time, lane, seq)` key for
//! every event regardless of how hosts are partitioned across shards —
//! a single-shard run and an N-shard run pop the same global sequence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The argument of [`EventQueue::new`]. There is one backend; the enum
/// and the argument remain only because the frozen `benchmark/` package
/// (`benches/layers.rs`) calls `EventQueue::new(QueueKind::Heap)`. The
/// `benchmark` PR that switches it to [`EventQueue::default`] deletes
/// both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Binary heap ordered by `(time, lane, seq)`.
    Heap,
}

/// One scheduled item; ordered so that `BinaryHeap` (a max-heap) pops
/// the *smallest* `(time, lane, seq)` first.
struct Slot<T> {
    at: SimTime,
    lane: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.lane == other.lane && self.seq == other.seq
    }
}

impl<T> Eq for Slot<T> {}

impl<T> PartialOrd for Slot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Slot<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on all fields: earliest time wins, then lowest lane,
        // then FIFO within a lane.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.lane.cmp(&self.lane))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue keyed by `(time, lane, seq)`:
/// [`pop`](EventQueue::pop) yields items in key order. Callers own key
/// assignment; `(lane, seq)` pairs must be unique per queue (the
/// simulator keeps one `seq` counter per lane).
pub struct EventQueue<T> {
    heap: BinaryHeap<Slot<T>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue; same as [`EventQueue::default`] (see [`QueueKind`]).
    pub fn new(_: QueueKind) -> Self {
        EventQueue::default()
    }

    /// Schedule `item` under the explicit key `(at, lane, seq)`.
    pub fn push(&mut self, at: SimTime, lane: u64, seq: u64, item: T) {
        self.heap.push(Slot {
            at,
            lane,
            seq,
            item,
        });
    }

    /// The time of the earliest scheduled item, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Remove and return the earliest item with its scheduled time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|s| (s.at, s.item))
    }

    /// Number of scheduled items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(t(30), 0, 0, "c");
        q.push(t(10), 0, 1, "a");
        q.push(t(20), 0, 2, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_lane_then_seq() {
        let mut q = EventQueue::default();
        // Push in scrambled lane order; within lane, in seq order.
        for i in 0..100u32 {
            let lane = u64::from(i % 7);
            let seq = u64::from(i / 7);
            q.push(t(7), lane, seq, (lane, seq));
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        let mut expect = order.clone();
        expect.sort();
        assert_eq!(order, expect);
        assert_eq!(order.len(), 100);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::default();
        q.push(t(5), 0, 0, 5u64);
        q.push(t(1), 0, 1, 1);
        assert_eq!(q.pop(), Some((t(1), 1)));
        q.push(t(3), 0, 2, 3);
        q.push(t(5), 0, 3, 50); // same time as the first push, later seq
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.pop(), Some((t(5), 5)));
        assert_eq!(q.pop(), Some((t(5), 50)));
    }

    /// The key is a total order even when pushes arrive out of key
    /// order — exactly what the sharded exchange does when it injects a
    /// remote packet whose `(time, lane, seq)` was assigned on another
    /// shard.
    #[test]
    fn out_of_order_keyed_pushes_pop_in_key_order() {
        let mut q = EventQueue::default();
        q.push(t(10), 3, 0, "later-lane");
        q.push(t(10), 1, 9, "mid-lane");
        q.push(t(10), 1, 2, "mid-lane-early-seq");
        q.push(t(9), 7, 0, "earlier-time");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        assert_eq!(
            order,
            vec![
                "earlier-time",
                "mid-lane-early-seq",
                "mid-lane",
                "later-lane"
            ]
        );
    }

    /// The queue against its reference, a `BTreeMap` over the same key:
    /// on generated scripts of pushes and pops, `pop`, `peek_time` and
    /// `len` agree after every operation. Scripts are simulator-shaped:
    /// times are offsets from a clock that pops advance, with frequent
    /// exact ties and occasional far-future timers, and `(lane, seq)`
    /// arrives in any order, as the shard exchange delivers it.
    #[test]
    fn matches_sorted_map_model_on_generated_scripts() {
        ldp_rng::check::check(256, |g| {
            let mut queue = EventQueue::default();
            let mut model: BTreeMap<(SimTime, u64, u64), u64> = BTreeMap::new();
            let mut now = 0u64;
            let mut item = 0u64;
            for _ in 0..g.size(0..=200) {
                if g.below(3) == 0 {
                    let expect = model.pop_first().map(|((at, _, _), v)| (at, v));
                    assert_eq!(queue.pop(), expect);
                    if let Some((at, _)) = expect {
                        now = at.as_nanos();
                    }
                } else {
                    let jitter = match g.below(8) {
                        0 => 0,
                        7 => g.below(1 << 40),
                        _ => g.below(4),
                    };
                    let key = (t(now + jitter), g.below(5), g.below(64));
                    // `(lane, seq)` is unique per queue: a drawn pair
                    // that is still scheduled is not pushed again.
                    if model.keys().any(|k| (k.1, k.2) == (key.1, key.2)) {
                        continue;
                    }
                    queue.push(key.0, key.1, key.2, item);
                    model.insert(key, item);
                    item += 1;
                }
                assert_eq!(queue.len(), model.len());
                assert_eq!(queue.is_empty(), model.is_empty());
                assert_eq!(queue.peek_time(), model.first_key_value().map(|(k, _)| k.0));
            }
            while let Some(((at, _, _), v)) = model.pop_first() {
                assert_eq!(queue.pop(), Some((at, v)));
            }
            assert_eq!(queue.pop(), None);
        });
    }
}
