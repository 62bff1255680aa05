//! The deterministic event queue for the simulator hot path.
//!
//! One `VecDeque` of slots in two regions: a *sorted run* at the front
//! and a binary min-heap behind it, both over `(time, lane, seq)`. A
//! push joins the run when the heap region is empty and its key is
//! above the run's last one — what scheduling one driver-lane timer per
//! trace entry in trace order does, so a pre-scheduled trace costs O(1)
//! per push and pop instead of a sift through a heap as deep as the
//! trace. Every other push goes to the heap, which only ever holds what
//! is in flight. `pop` takes the smaller of the run's front and the
//! heap's top. The run's freed front slots are reused by the heap's
//! pushes at the back, so the queue never holds more storage than its
//! peak length needs, as one binary heap would.
//!
//! Because the key is a *strict total order* (`(lane, seq)` is unique —
//! `seq` is a per-lane counter), the pop sequence is fully determined by
//! the pushed keys — which region an item sits in, and the heap's
//! layout, can never leak into event order (rule D2; `ldp-chaos`'s
//! scenario sweep reruns every generated cell and compares). The test
//! module checks that against a sorted-map model of the same key on
//! generated scripts.
//!
//! The *lane* component is what makes the order shard-invariant
//! (`ldp-shard`): a lane is the global id of the host whose processing
//! scheduled the event (or the driver lane), and `seq` counts
//! pushes within that lane. Host behaviour is deterministic per host,
//! so the same workload produces the same `(time, lane, seq)` key for
//! every event regardless of how hosts are partitioned across shards —
//! a single-shard run and an N-shard run pop the same global sequence.

use std::collections::VecDeque;

use crate::time::SimTime;

/// The argument of [`EventQueue::new`]. There is one backend; the enum
/// and the argument remain only because the frozen `benchmark/` package
/// (`benches/layers.rs`) calls `EventQueue::new(QueueKind::Heap)`. The
/// `benchmark` PR that switches it to [`EventQueue::default`] deletes
/// both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The one backend: a sorted run plus a binary heap over
    /// `(time, lane, seq)` (see [the module doc](self)).
    Heap,
}

/// One scheduled item under its key.
struct Slot<T> {
    at: SimTime,
    lane: u64,
    seq: u64,
    item: T,
}

impl<T> Slot<T> {
    fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.lane, self.seq)
    }
}

/// A deterministic priority queue keyed by `(time, lane, seq)`:
/// [`pop`](EventQueue::pop) yields items in key order. Callers own key
/// assignment; `(lane, seq)` pairs must be unique per queue (the
/// simulator keeps one `seq` counter per lane).
pub struct EventQueue<T> {
    /// `slots[..run]` ascending by key; `slots[run..]` a min-heap
    /// (heap index `i` is `slots[run + i]`).
    slots: VecDeque<Slot<T>>,
    run: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            slots: VecDeque::new(),
            run: 0,
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
        let slot = Slot {
            at,
            lane,
            seq,
            item,
        };
        let joins_run = self.run == self.slots.len()
            && self.slots.back().is_none_or(|last| last.key() < slot.key());
        self.slots.push_back(slot);
        if joins_run {
            self.run += 1;
        } else {
            self.sift_up();
        }
    }

    /// The time of the earliest scheduled item, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.first().map(|i| self.slots[i].at)
    }

    /// Remove and return the earliest item with its scheduled time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_if(|_| true)
    }

    /// Remove and return the earliest item if `admit` accepts its time:
    /// a bounded run's `peek_time` + `pop` in one lookup.
    pub fn pop_if(&mut self, admit: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, T)> {
        let i = self.first()?;
        if !admit(self.slots[i].at) {
            return None;
        }
        let slot = if i < self.run {
            self.run -= 1;
            self.slots.pop_front()
        } else {
            let last = self.slots.len() - 1;
            self.slots.swap(i, last);
            let top = self.slots.pop_back();
            self.sift_down();
            top
        };
        slot.map(|s| (s.at, s.item))
    }

    /// Number of scheduled items.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The index of the earliest item: the run's front (`0`) or the
    /// heap's top (`run`), whichever key is smaller.
    fn first(&self) -> Option<usize> {
        if self.run == 0 {
            return (!self.slots.is_empty()).then_some(0);
        }
        match self.slots.get(self.run) {
            Some(top) if top.key() < self.slots[0].key() => Some(self.run),
            _ => Some(0),
        }
    }

    /// The key of heap index `i`.
    fn heap_key(&self, i: usize) -> (SimTime, u64, u64) {
        self.slots[self.run + i].key()
    }

    /// Move the heap's last slot up to its place.
    fn sift_up(&mut self) {
        let mut i = self.slots.len() - 1 - self.run;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_key(parent) < self.heap_key(i) {
                break;
            }
            self.slots.swap(self.run + parent, self.run + i);
            i = parent;
        }
    }

    /// Move the heap's top slot down to its place.
    fn sift_down(&mut self) {
        let n = self.slots.len() - self.run;
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap_key(right) < self.heap_key(left) {
                right
            } else {
                left
            };
            if self.heap_key(i) < self.heap_key(child) {
                break;
            }
            self.slots.swap(self.run + i, self.run + child);
            i = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::DRIVER_LANE;
    use ldp_rng::check::Gen;
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

    /// A queue and its reference, a `BTreeMap` over the same key, driven
    /// in step: every `pop` is checked against the model, and `len`,
    /// `is_empty` and `peek_time` after every operation. `now` is the
    /// time of the last item popped.
    #[derive(Default)]
    struct Twin {
        queue: EventQueue<u64>,
        model: BTreeMap<(SimTime, u64, u64), u64>,
        now: u64,
        items: u64,
    }

    impl Twin {
        fn push(&mut self, at: u64, lane: u64, seq: u64) {
            self.queue.push(t(at), lane, seq, self.items);
            self.model.insert((t(at), lane, seq), self.items);
            self.items += 1;
            self.check();
        }

        /// `(lane, seq)` is unique per queue: a drawn pair that is
        /// still scheduled must not be pushed again.
        fn holds(&self, lane: u64, seq: u64) -> bool {
            self.model.keys().any(|k| (k.1, k.2) == (lane, seq))
        }

        fn pop(&mut self) {
            let expect = self.model.pop_first().map(|((at, _, _), v)| (at, v));
            assert_eq!(self.queue.pop(), expect);
            if let Some((at, _)) = expect {
                self.now = at.as_nanos();
            }
            self.check();
        }

        /// Pop everything, then once more from the empty queue.
        fn drain(&mut self) {
            while !self.model.is_empty() {
                self.pop();
            }
            self.pop();
        }

        fn check(&self) {
            assert_eq!(self.queue.len(), self.model.len());
            assert_eq!(self.queue.is_empty(), self.model.is_empty());
            let first = self.model.first_key_value().map(|(k, _)| k.0);
            assert_eq!(self.queue.peek_time(), first);
        }
    }

    /// The queue against its model on generated scripts of pushes and
    /// pops. Scripts are simulator-shaped: times are offsets from a
    /// clock that pops advance, with frequent exact ties and occasional
    /// far-future timers, and `(lane, seq)` arrives in any order, as the
    /// shard exchange delivers it.
    #[test]
    fn matches_sorted_map_model_on_generated_scripts() {
        ldp_rng::check::check(256, |g| {
            let mut twin = Twin::default();
            for _ in 0..g.size(0..=200) {
                if g.below(3) == 0 {
                    twin.pop();
                    continue;
                }
                let jitter = match g.below(8) {
                    0 => 0,
                    7 => g.below(1 << 40),
                    _ => g.below(4),
                };
                let (at, lane, seq) = (twin.now + jitter, g.below(5), g.below(64));
                if !twin.holds(lane, seq) {
                    twin.push(at, lane, seq);
                }
            }
            twin.drain();
        });
    }

    /// The run and the heap against the model on trace-shaped scripts.
    /// A driver-lane batch is pre-scheduled in trace order, as
    /// `schedule_timer` does it: equal-time ties, and now and then a
    /// straggler behind the batch's last key. Then rounds interleave
    /// pops, host-lane pushes from the popped clock (often tying a
    /// pre-scheduled timer's time), `enqueue_remote`-style pushes under
    /// keys drawn out of order, drains to empty, and fresh in-order
    /// driver appends, which must land in the run again.
    #[test]
    fn run_and_heap_match_the_model_on_trace_shaped_scripts() {
        const HOST_LANES: u64 = 4;
        ldp_rng::check::check(256, |g| {
            let mut twin = Twin::default();
            let mut driver = (0u64, 0u64); // (last time, next seq)
            let mut host_seqs = [0u64; HOST_LANES as usize];
            // A driver-lane timer in trace order (time steps of 0–2 ns),
            // or, if `straggle` draws it, up to 7 ns behind the last.
            let append = |twin: &mut Twin, driver: &mut (u64, u64), g: &mut Gen, straggle: bool| {
                let at = if straggle && g.below(8) == 0 {
                    driver.0.saturating_sub(g.below(8))
                } else {
                    driver.0 += g.below(3);
                    driver.0
                };
                twin.push(at, DRIVER_LANE, driver.1);
                driver.1 += 1;
            };
            for _ in 0..g.size(0..=300) {
                append(&mut twin, &mut driver, g, true);
            }
            for _ in 0..g.size(0..=300) {
                match g.below(8) {
                    0..=2 => twin.pop(),
                    3 | 4 => {
                        let lane = g.below(HOST_LANES);
                        let at = twin.now + g.below(4);
                        twin.push(at, lane, host_seqs[lane as usize]);
                        host_seqs[lane as usize] += 1;
                    }
                    5 => {
                        // A remote lane's key, assigned on another shard:
                        // any seq not scheduled yet.
                        let (lane, seq) = (HOST_LANES + g.below(2), g.below(64));
                        if !twin.holds(lane, seq) {
                            twin.push(twin.now + g.below(6), lane, seq);
                        }
                    }
                    6 => {
                        twin.drain();
                        driver.0 = driver.0.max(twin.now);
                        for _ in 0..g.size(1..=20) {
                            append(&mut twin, &mut driver, g, false);
                        }
                        assert_eq!(twin.queue.run, twin.queue.len(), "appends join the run");
                    }
                    _ => append(&mut twin, &mut driver, g, true),
                }
            }
            twin.drain();
        });
    }
}
