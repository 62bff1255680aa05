//! The deterministic event queue for the simulator hot path.
//!
//! A few *sorted runs* and a binary min-heap, all over `(time, lane,
//! seq)` and all in one slab. With a monotone clock, the pushes one
//! kind of event makes at one fixed delay arrive in key order — the
//! pre-scheduled trace, the deliveries over one path, an idle check —
//! so each such class is a sorted run, pushed at its tail and popped at
//! its head in O(1). A push appends to the first run whose last key is
//! below its own (an empty run takes any key); only a push that fits no
//! run goes to the heap, which sifts slab indices, not items. `pop`
//! takes the least key among the run heads and the heap's top.
//!
//! Every item lives in one slab `Vec` with an intrusive free list; a
//! run is a FIFO linked through the slab, and the heap's index array is
//! spread over it too (one `u32` per slot, in what would be padding). A
//! pop frees its slot and a push reuses a freed slot before the slab
//! grows, so the slab is never longer than the queue's peak length —
//! the pre-scheduled trace's slots carry the in-flight events — and a
//! warm run allocates nothing.
//!
//! Because the key is a *strict total order* (`(lane, seq)` is unique —
//! `seq` is a per-lane counter), the pop sequence is fully determined by
//! the pushed keys — which run or the heap an item sits in, and the
//! heap's layout, can never leak into event order (rule D2; `ldp-chaos`'s
//! scenario sweep reruns every generated cell and compares). The test
//! module checks that against a sorted-map model of the same key on
//! generated scripts, and the slab's books after every operation.
//!
//! The *lane* component is what makes the order shard-invariant
//! (`ldp-shard`): a lane is the global id of the host whose processing
//! scheduled the event (or the driver lane), and `seq` counts
//! pushes within that lane. Host behaviour is deterministic per host,
//! so the same workload produces the same `(time, lane, seq)` key for
//! every event regardless of how hosts are partitioned across shards —
//! a single-shard run and an N-shard run pop the same global sequence.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: every event crosses it, so it never panics (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::time::SimTime;

/// The argument of [`EventQueue::new`]. There is one backend; the enum
/// and the argument remain only because the frozen `benchmark/` package
/// (`benches/layers.rs`) calls `EventQueue::new(QueueKind::Heap)`. The
/// `benchmark` PR that switches it to [`EventQueue::default`] deletes
/// both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The one backend: sorted runs plus a binary heap over
    /// `(time, lane, seq)` in one slab (see [the module doc](self)).
    Heap,
}

/// How many sorted runs a queue keeps: four took every push on
/// `rec_hot` and `rec_wide` and all but 0.9 % on `broot_auth`
/// (EXPERIMENTS.md "Run-set study").
const RUNS: usize = 4;

/// A slab index. The slab holds at most `NIL` (2³² − 1) slots — 512 GiB
/// of 128-byte slots, past any memory a run has — checked where a slot
/// is added ([`EventQueue::alloc`]), so an index never wraps.
type Idx = u32;

/// The end of a run or of the free list.
const NIL: Idx = Idx::MAX;

type Key = (SimTime, u64, u64);

/// One slab entry: a scheduled item under its key, or a free slot.
struct Slot<T> {
    key: Key,
    /// The next slot of this slot's run or of the free list (`NIL` ends
    /// either); unused while the slot is in the heap.
    next: Idx,
    /// The heap's array, spread over the slab: the slot at heap position
    /// `h` is `slab[h].heap` (the heap never holds more than the slab).
    heap: Idx,
    /// `None` while the slot is free.
    item: Option<T>,
}

/// A non-empty sorted run: a FIFO linked through the slab, ascending by
/// key. Its ends are `(slot, key)`, the key cached.
#[derive(Clone, Copy)]
struct Run {
    head: (Idx, Key),
    tail: (Idx, Key),
}

/// A deterministic priority queue keyed by `(time, lane, seq)`:
/// [`pop`](EventQueue::pop) yields items in key order. Callers own key
/// assignment; `(lane, seq)` pairs must be unique per queue (the
/// simulator keeps one `seq` counter per lane).
pub struct EventQueue<T> {
    slab: Vec<Slot<T>>,
    /// The first free slot (`NIL` when none is).
    free: Idx,
    /// `None` is an empty run.
    runs: [Option<Run>; RUNS],
    /// The length of the min-heap of slab indices by their slots' keys.
    heap_len: usize,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            runs: [None; RUNS],
            heap_len: 0,
            len: 0,
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
        let key = (at, lane, seq);
        let i = self.alloc(key, item);
        self.len += 1;
        let fits = |run: &&mut Option<Run>| run.is_none_or(|run| run.tail.1 < key);
        match self.runs.iter_mut().find(fits) {
            Some(Some(run)) => {
                self.slab[run.tail.0 as usize].next = i;
                run.tail = (i, key);
            }
            Some(empty) => {
                *empty = Some(Run {
                    head: (i, key),
                    tail: (i, key),
                })
            }
            None => {
                self.slab[self.heap_len].heap = i;
                self.heap_len += 1;
                self.sift_up(self.heap_len - 1);
            }
        }
    }

    /// The time of the earliest scheduled item, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.first().map(|(key, _)| key.0)
    }

    /// Remove and return the earliest item with its scheduled time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_if(|_| true)
    }

    /// Remove and return the earliest item if `admit` accepts its time:
    /// a bounded run's `peek_time` + `pop` in one lookup.
    pub fn pop_if(&mut self, admit: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, T)> {
        let (key, source) = self.first()?;
        if !admit(key.0) {
            return None;
        }
        let i = match source.and_then(|r| self.runs[r].as_mut().map(|run| (r, run))) {
            Some((r, run)) => {
                let i = run.head.0;
                let next = self.slab[i as usize].next;
                // `NIL` is past the slab's end: the run is spent.
                match self.slab.get(next as usize) {
                    Some(slot) => run.head = (next, slot.key),
                    None => self.runs[r] = None,
                }
                i
            }
            None => self.pop_heap(),
        };
        let slot = &mut self.slab[i as usize];
        slot.next = self.free;
        self.free = i;
        self.len -= 1;
        slot.item.take().map(|item| (key.0, item))
    }

    /// Make room for `additional` more items than the queue holds now,
    /// so that pushing them grows nothing: the slab is sized once, to
    /// what a caller knows it will hold (a pre-scheduled trace), rather
    /// than by doubling up to it.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.len + additional).saturating_sub(self.slab.len());
        self.slab.reserve_exact(needed);
    }

    /// Number of scheduled items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Put `item` in a free slot, adding one at the slab's end if none is.
    #[allow(clippy::expect_used, reason = "an index must never wrap")]
    fn alloc(&mut self, key: Key, item: T) -> Idx {
        if self.free == NIL {
            let i = Idx::try_from(self.slab.len()).ok().filter(|&i| i != NIL);
            self.free = i.expect("at most 2^32 - 1 events scheduled at once");
            self.slab.push(Slot {
                key,
                next: NIL,
                heap: NIL,
                item: None,
            });
        }
        let i = self.free;
        let slot = &mut self.slab[i as usize];
        self.free = slot.next;
        // `slot.heap` is the heap's, not this slot's: it stays.
        (slot.key, slot.next, slot.item) = (key, NIL, Some(item));
        i
    }

    /// The least key and where it sits: run `r`'s head (`Some(r)`) or
    /// the heap's top (`None`).
    fn first(&self) -> Option<(Key, Option<usize>)> {
        let mut best = (self.heap_len > 0).then(|| (self.heap_key(0), None));
        for (r, run) in self.runs.iter().enumerate() {
            if let Some(run) = run.filter(|run| best.is_none_or(|(key, _)| run.head.1 < key)) {
                best = Some((run.head.1, Some(r)));
            }
        }
        best
    }

    /// The key of heap position `h`.
    fn heap_key(&self, h: usize) -> Key {
        self.slab[self.slab[h].heap as usize].key
    }

    /// Swap heap positions `a` and `b`.
    fn heap_swap(&mut self, a: usize, b: usize) {
        let at_a = self.slab[a].heap;
        self.slab[a].heap = std::mem::replace(&mut self.slab[b].heap, at_a);
    }

    /// Move heap position `h` up to its place.
    fn sift_up(&mut self, mut h: usize) {
        while h > 0 {
            let parent = (h - 1) / 2;
            if self.heap_key(parent) < self.heap_key(h) {
                break;
            }
            self.heap_swap(parent, h);
            h = parent;
        }
    }

    /// Remove the heap's top, and move its last index down from the top
    /// to its place.
    fn pop_heap(&mut self) -> Idx {
        let top = self.slab[0].heap;
        self.heap_len -= 1;
        self.slab[0].heap = self.slab[self.heap_len].heap;
        let mut h = 0;
        loop {
            let left = 2 * h + 1;
            if left >= self.heap_len {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap_len && self.heap_key(right) < self.heap_key(left) {
                right
            } else {
                left
            };
            if self.heap_key(h) < self.heap_key(child) {
                break;
            }
            self.heap_swap(h, child);
            h = child;
        }
        top
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
    /// `is_empty`, `peek_time` and the slab's books after every
    /// operation. `now` is the time of the last item popped; `peak` the
    /// model's longest length.
    #[derive(Default)]
    struct Twin {
        queue: EventQueue<u64>,
        model: BTreeMap<(SimTime, u64, u64), u64>,
        now: u64,
        items: u64,
        peak: usize,
    }

    impl Twin {
        fn push(&mut self, at: u64, lane: u64, seq: u64) {
            self.queue.push(t(at), lane, seq, self.items);
            self.model.insert((t(at), lane, seq), self.items);
            self.items += 1;
            self.peak = self.peak.max(self.model.len());
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
            self.check_books();
        }

        /// Every slot sits in exactly one of a run, the heap and the free
        /// list; a run ascends from its cached head key to its cached
        /// tail key; the heap is a min-heap; a free slot holds no item;
        /// and the slab is exactly as long as the queue's peak length.
        fn check_books(&self) {
            let q = &self.queue;
            let mut seen = vec![false; q.slab.len()];
            let mut mark = |i: Idx, scheduled: bool| {
                let slot = &q.slab[i as usize];
                assert!(!seen[i as usize], "slot {i} is linked twice");
                assert_eq!(slot.item.is_some(), scheduled, "slot {i}");
                seen[i as usize] = true;
                slot
            };
            for run in q.runs.iter().flatten() {
                assert_eq!(q.slab[run.head.0 as usize].key, run.head.1);
                let (mut i, mut last) = (run.head.0, None);
                while i != NIL {
                    let slot = mark(i, true);
                    assert!(last < Some(slot.key), "a run ascends");
                    (last, i) = (Some(slot.key), slot.next);
                }
                assert_eq!(last, Some(run.tail.1));
                assert_eq!(q.slab[run.tail.0 as usize].key, run.tail.1);
            }
            for h in 0..q.heap_len {
                let key = mark(q.slab[h].heap, true).key;
                if h > 0 {
                    assert!(q.heap_key((h - 1) / 2) < key, "a heap's parent is less");
                }
            }
            let mut i = q.free;
            while i != NIL {
                i = mark(i, false).next;
            }
            assert!(seen.iter().all(|&s| s), "every slot is accounted for");
            assert_eq!(q.slab.len(), self.peak, "the slab grows only when full");
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
                        assert!(
                            twin.queue.heap_len == 0,
                            "appends to a drained queue leave the heap empty"
                        );
                    }
                    _ => append(&mut twin, &mut driver, g, true),
                }
            }
            twin.drain();
        });
    }

    /// The run set against the model on fixed-delay scripts: one to six
    /// push classes, each with a delay drawn once, so that with more
    /// classes than runs some overflow into the heap. A round pops,
    /// pushes one class's events from a few lanes at one instant in
    /// drawn lane order (cross-lane ties at one time, which a run's tail
    /// key turns away), pushes a remote lane's key out of order, or
    /// drains the queue and appends fresh driver-lane timers, which must
    /// all land in runs.
    #[test]
    fn run_set_matches_the_model_on_fixed_delay_classes() {
        const LANES: u64 = 4;
        ldp_rng::check::check(256, |g| {
            let mut twin = Twin::default();
            let delays: Vec<u64> = (0..g.size(1..=6)).map(|_| 1 + g.below(40)).collect();
            let mut seqs = [0u64; LANES as usize];
            let mut driver_seq = 0;
            for _ in 0..g.size(0..=400) {
                match g.below(8) {
                    0..=2 => twin.pop(),
                    3..=5 => {
                        let at = twin.now + *g.pick(&delays);
                        for _ in 0..g.size(1..=3) {
                            let lane = g.below(LANES);
                            twin.push(at, lane, seqs[lane as usize]);
                            seqs[lane as usize] += 1;
                        }
                    }
                    6 => {
                        let (lane, seq) = (LANES + g.below(2), g.below(64));
                        if !twin.holds(lane, seq) {
                            twin.push(twin.now + g.below(50), lane, seq);
                        }
                    }
                    _ => {
                        twin.drain();
                        let mut at = twin.now;
                        for _ in 0..g.size(1..=20) {
                            at += g.below(3);
                            twin.push(at, DRIVER_LANE, driver_seq);
                            driver_seq += 1;
                        }
                        assert!(
                            twin.queue.heap_len == 0,
                            "appends to a drained queue leave the heap empty"
                        );
                    }
                }
            }
            twin.drain();
        });
    }
}
