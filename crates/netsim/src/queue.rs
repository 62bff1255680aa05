//! Deterministic event queues for the simulator hot path.
//!
//! The production queue is a binary heap over `(time, lane, seq)`:
//! O(log n) push/pop with contiguous storage and no per-operation node
//! allocation. Because the key is a *strict total order* (`(lane, seq)`
//! is unique — `seq` is a per-lane counter), the pop sequence is fully
//! determined by the pushed keys — the heap's internal layout can never
//! leak into event order, so the determinism guarantee (rule D2,
//! `tests/determinism.rs`) is exactly as strong as the old `BTreeMap`
//! queue's.
//!
//! The *lane* component is what makes the order shard-invariant
//! (`ldp-shard`): a lane is the global id of the host whose processing
//! scheduled the event (or a control/driver lane), and `seq` counts
//! pushes within that lane. Host behaviour is deterministic per host,
//! so the same workload produces the same `(time, lane, seq)` key for
//! every event regardless of how hosts are partitioned across shards —
//! a single-shard run and an N-shard run pop the same global sequence.
//!
//! The `BTreeMap` implementation is kept as the measured baseline: the
//! `hotpath` microbench runs the same simulation under both backends
//! and records the throughput of each in `BENCH_hotpath.json`, and the
//! equivalence tests prove the two replay byte-identical histories.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use crate::time::SimTime;

/// Which event-queue backend a simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Binary heap ordered by `(time, lane, seq)` — the production default.
    #[default]
    Heap,
    /// `BTreeMap` keyed by `(time, lane, seq)` — the pre-heap
    /// implementation, kept as the benchmark baseline and for
    /// equivalence testing.
    BTree,
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

enum Inner<T> {
    Heap(BinaryHeap<Slot<T>>),
    BTree(BTreeMap<(SimTime, u64, u64), T>),
}

/// A deterministic priority queue keyed by `(time, lane, seq)`:
/// [`pop`](EventQueue::pop) yields items in key order, independent of
/// backend. Callers own key assignment; `(lane, seq)` pairs must be
/// unique per queue (the simulator keeps one `seq` counter per lane).
pub struct EventQueue<T> {
    inner: Inner<T>,
}

impl<T> EventQueue<T> {
    /// An empty queue over the given backend.
    pub fn new(kind: QueueKind) -> Self {
        let inner = match kind {
            QueueKind::Heap => Inner::Heap(BinaryHeap::new()),
            QueueKind::BTree => Inner::BTree(BTreeMap::new()),
        };
        EventQueue { inner }
    }

    /// Schedule `item` under the explicit key `(at, lane, seq)`.
    pub fn push(&mut self, at: SimTime, lane: u64, seq: u64, item: T) {
        match &mut self.inner {
            Inner::Heap(h) => h.push(Slot {
                at,
                lane,
                seq,
                item,
            }),
            Inner::BTree(m) => {
                m.insert((at, lane, seq), item);
            }
        }
    }

    /// The time of the earliest scheduled item, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.inner {
            Inner::Heap(h) => h.peek().map(|s| s.at),
            Inner::BTree(m) => m.first_key_value().map(|(&(t, _, _), _)| t),
        }
    }

    /// Remove and return the earliest item with its scheduled time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        match &mut self.inner {
            Inner::Heap(h) => h.pop().map(|s| (s.at, s.item)),
            Inner::BTree(m) => m.pop_first().map(|((t, _, _), item)| (t, item)),
        }
    }

    /// Number of scheduled items.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.len(),
            Inner::BTree(m) => m.len(),
        }
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rng::SplitMix64;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        for kind in [QueueKind::Heap, QueueKind::BTree] {
            let mut q = EventQueue::new(kind);
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
    }

    #[test]
    fn equal_times_pop_lane_then_seq() {
        for kind in [QueueKind::Heap, QueueKind::BTree] {
            let mut q = EventQueue::new(kind);
            // Push in scrambled lane order; within lane, in seq order.
            for i in 0..100u32 {
                let lane = u64::from(i % 7);
                let seq = u64::from(i / 7);
                q.push(t(7), lane, seq, (lane, seq));
            }
            let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
            let mut expect = order.clone();
            expect.sort();
            assert_eq!(order, expect, "{kind:?}");
            assert_eq!(order.len(), 100);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        for kind in [QueueKind::Heap, QueueKind::BTree] {
            let mut q = EventQueue::new(kind);
            q.push(t(5), 0, 0, 5u64);
            q.push(t(1), 0, 1, 1);
            assert_eq!(q.pop(), Some((t(1), 1)));
            q.push(t(3), 0, 2, 3);
            q.push(t(5), 0, 3, 50); // same time as the first push, later seq
            assert_eq!(q.pop(), Some((t(3), 3)));
            assert_eq!(q.pop(), Some((t(5), 5)));
            assert_eq!(q.pop(), Some((t(5), 50)));
        }
    }

    /// The key is a total order even when pushes arrive out of key
    /// order — exactly what the sharded exchange does when it injects a
    /// remote packet whose `(time, lane, seq)` was assigned on another
    /// shard.
    #[test]
    fn out_of_order_keyed_pushes_pop_in_key_order() {
        for kind in [QueueKind::Heap, QueueKind::BTree] {
            let mut q = EventQueue::new(kind);
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
    }

    /// The satellite equivalence property at the queue level: on a
    /// randomized same-seed workload of interleaved pushes and pops,
    /// the heap and the BTreeMap baseline emit the identical sequence.
    #[test]
    fn heap_matches_btree_on_randomized_workload() {
        let mut rng = SplitMix64::seed_from_u64(0x5eed_cafe);
        let mut heap = EventQueue::new(QueueKind::Heap);
        let mut btree = EventQueue::new(QueueKind::BTree);
        let mut heap_out = Vec::new();
        let mut btree_out = Vec::new();
        let mut now = 0u64;
        for i in 0..20_000u64 {
            // Simulator-shaped schedule: mostly near-future events with
            // frequent exact ties, occasional far-future timers.
            let jitter = match rng.gen::<u32>() % 8 {
                0 => 0,
                7 => rng.gen::<u64>() % 1_000_000,
                _ => rng.gen::<u64>() % 1_000,
            };
            let at = t(now + jitter);
            let lane = u64::from(rng.gen::<u32>() % 5);
            heap.push(at, lane, i, i);
            btree.push(at, lane, i, i);
            if rng.gen::<u32>().is_multiple_of(3) {
                let a = heap.pop();
                let b = btree.pop();
                assert_eq!(a, b);
                if let Some((popped, _)) = a {
                    now = popped.as_nanos(); // time advances like a sim clock
                }
            }
        }
        while let Some(x) = heap.pop() {
            heap_out.push(x);
        }
        while let Some(x) = btree.pop() {
            btree_out.push(x);
        }
        assert_eq!(heap_out, btree_out);
        assert!(heap_out.len() > 10_000);
    }
}
