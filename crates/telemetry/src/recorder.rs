//! The hot path: per-thread ring buffers and the record functions.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::clock;
use crate::event::{KindId, Op, RawEvent};

/// Events per thread ring: 64 Ki events × 32 B = 2 MiB per recording
/// thread. When the ring is full the oldest events are overwritten, so
/// a drain always returns the most recent window (DESIGN.md §8 sizing).
const RING_CAP: usize = 1 << 16;

/// The one switch: whether record calls record. One relaxed load
/// decides everything on the hot path.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn recording on or off (off is the default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Registration order of recording threads, for stable drain order.
static THREAD_ORD: AtomicUsize = AtomicUsize::new(0);

/// Rings of threads that exited (or explicitly flushed), in thread
/// registration order.
static FLUSHED: Mutex<Vec<ThreadLog>> = Mutex::new(Vec::new());

/// One thread's drained events.
#[derive(Debug, Clone)]
pub struct ThreadLog {
    /// Registration order of the recording thread (0 = first thread
    /// that recorded anything).
    pub ord: usize,
    /// Events in record order (oldest first; at most the ring window).
    pub events: Vec<RawEvent>,
}

struct Recorder {
    ring: Vec<RawEvent>,
    /// Overwrite cursor once the ring is full.
    head: usize,
    ord: usize,
}

impl Recorder {
    /// Const-constructible so the thread-local needs no lazy-init
    /// branch on every record; the ring allocates on first push.
    const fn new() -> Self {
        Recorder {
            ring: Vec::new(),
            head: 0,
            ord: usize::MAX,
        }
    }

    #[inline]
    fn push(&mut self, ev: RawEvent) {
        if self.ring.len() < RING_CAP {
            if self.ring.capacity() == 0 {
                self.ring.reserve_exact(RING_CAP);
                if self.ord == usize::MAX {
                    self.ord = THREAD_ORD.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) & (RING_CAP - 1);
        }
    }

    /// Contents in record order; resets the ring.
    fn take(&mut self) -> Vec<RawEvent> {
        let head = self.head;
        self.head = 0;
        let mut out = std::mem::take(&mut self.ring);
        let head = head.min(out.len());
        out.rotate_left(head);
        out
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // Thread exit: park the ring so `drain_flushed`/`drain_all`
        // still sees this thread's events (replay querier threads).
        if !self.ring.is_empty() {
            let log = ThreadLog {
                ord: self.ord,
                events: self.take(),
            };
            if let Ok(mut flushed) = FLUSHED.lock() {
                flushed.push(log);
            }
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const { RefCell::new(Recorder::new()) };
}

#[inline]
fn push_event(ev: RawEvent) {
    // try_borrow_mut: a re-entrant record (e.g. from a panic hook)
    // silently drops rather than aborting the process.
    let _ = RECORDER.try_with(|r| {
        if let Ok(mut rec) = r.try_borrow_mut() {
            rec.push(ev);
        }
    });
}

/// Record an event with an explicit timestamp (nanoseconds). This is
/// the virtual-time API: simulator code passes `ctx.now()` so recording
/// never reads a clock and drained logs are bit-deterministic.
#[inline]
pub fn record_at(t_ns: u64, kind: KindId, op: Op, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    push_event(RawEvent {
        t_ns,
        a,
        b,
        kind,
        op,
    });
}

/// Record an event stamped by the process-wide [`clock`]: what a
/// [`span`] does on entry and exit.
#[inline]
fn record_now(kind: KindId, op: Op, a: u64) {
    if enabled() {
        push_event(RawEvent {
            t_ns: clock::now_ns(),
            a,
            b: 0,
            kind,
            op,
        });
    }
}

/// Lifecycle mark at an explicit time.
#[inline]
pub fn mark_at(t_ns: u64, kind: KindId, a: u64, b: u64) {
    record_at(t_ns, kind, Op::Mark, a, b);
}

/// Counter increment (`b` = delta) at an explicit time.
#[inline]
pub fn counter_at(t_ns: u64, kind: KindId, a: u64, delta: u64) {
    record_at(t_ns, kind, Op::Counter, a, delta);
}

/// RAII span over the process-wide clock: records enter on
/// construction, exit on drop.
pub struct SpanGuard {
    kind: KindId,
    a: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record_now(self.kind, Op::SpanExit, self.a);
    }
}

/// Open a clocked span; close it by dropping the guard.
#[inline]
pub fn span(kind: KindId, a: u64) -> SpanGuard {
    record_now(kind, Op::SpanEnter, a);
    SpanGuard { kind, a }
}

/// Drain this thread's ring (record order; ring resets to empty).
pub fn drain_local() -> Vec<RawEvent> {
    RECORDER
        .try_with(|r| match r.try_borrow_mut() {
            Ok(mut rec) => rec.take(),
            Err(_) => Vec::new(),
        })
        .unwrap_or_default()
}

/// Park this thread's ring into the flushed store (what thread exit
/// does automatically); used by long-lived worker threads that want
/// their events visible to a coordinator's [`drain_all`].
pub fn flush_thread() {
    let _ = RECORDER.try_with(|r| {
        if let Ok(mut rec) = r.try_borrow_mut() {
            if !rec.ring.is_empty() {
                let log = ThreadLog {
                    ord: rec.ord,
                    events: rec.take(),
                };
                if let Ok(mut flushed) = FLUSHED.lock() {
                    flushed.push(log);
                }
            }
        }
    });
}

/// Take every flushed (exited or [`flush_thread`]-ed) thread's log,
/// ordered by thread registration order.
pub fn drain_flushed() -> Vec<ThreadLog> {
    let mut logs = match FLUSHED.lock() {
        Ok(mut flushed) => std::mem::take(&mut *flushed),
        Err(_) => Vec::new(),
    };
    logs.sort_by_key(|l| l.ord);
    logs
}

/// Flushed threads' events (registration order) followed by this
/// thread's: the one-call drain for single-coordinator setups.
pub fn drain_all() -> Vec<RawEvent> {
    let mut out: Vec<RawEvent> = Vec::new();
    for log in drain_flushed() {
        out.extend(log.events);
    }
    out.extend(drain_local());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::register_kind;

    // Global config is process-wide, so tests that toggle it are
    // serialized through this lock; rings are per-thread, so each
    // test's events stay isolated regardless.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _s = serial();
        let k = register_kind("test.rec.disabled");
        set_enabled(false);
        mark_at(1, k, 1, 0);
        assert!(!drain_local().iter().any(|e| e.kind == k));
    }

    #[test]
    fn record_drain_roundtrip_preserves_order_and_payload() {
        let _s = serial();
        let k1 = register_kind("test.rec.k1");
        let k2 = register_kind("test.rec.k2");
        set_enabled(true);
        mark_at(10, k1, 1, 100);
        counter_at(20, k2, 1, 5);
        record_at(30, k1, Op::SpanEnter, 2, 0);
        record_at(40, k1, Op::SpanExit, 2, 0);
        set_enabled(false);
        let evs: Vec<RawEvent> = drain_local()
            .into_iter()
            .filter(|e| e.kind == k1 || e.kind == k2)
            .collect();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            (evs[0].t_ns, evs[0].a, evs[0].b, evs[0].op),
            (10, 1, 100, Op::Mark)
        );
        assert_eq!((evs[1].kind, evs[1].op, evs[1].b), (k2, Op::Counter, 5));
        assert_eq!(evs[2].op, Op::SpanEnter);
        assert_eq!(evs[3].op, Op::SpanExit);
        // Drain resets the ring.
        assert!(!drain_local().iter().any(|e| e.kind == k1));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let _s = serial();
        let k = register_kind("test.rec.ring");
        set_enabled(true);
        drain_local();
        for i in 0..(RING_CAP as u64 + 10) {
            mark_at(i, k, 0, i);
        }
        set_enabled(false);
        let evs = drain_local();
        assert_eq!(evs.len(), RING_CAP);
        // Oldest 10 were overwritten; order is still chronological.
        assert_eq!(evs[0].b, 10);
        assert_eq!(evs[RING_CAP - 1].b, RING_CAP as u64 + 9);
        assert!(evs.windows(2).all(|w| w[0].b < w[1].b));
    }

    #[test]
    fn span_guard_records_enter_and_exit() {
        let _s = serial();
        let k = register_kind("test.rec.guard");
        set_enabled(true);
        {
            let _g = span(k, 3);
            mark_at(0, k, 3, 1);
        }
        set_enabled(false);
        let evs: Vec<RawEvent> = drain_local().into_iter().filter(|e| e.kind == k).collect();
        assert_eq!(
            evs.iter().map(|e| e.op).collect::<Vec<_>>(),
            vec![Op::SpanEnter, Op::Mark, Op::SpanExit]
        );
    }

    #[test]
    fn worker_thread_ring_is_flushed_on_exit_and_drained_in_order() {
        let _s = serial();
        let k = register_kind("test.rec.thread");
        set_enabled(true);
        drain_flushed();
        mark_at(1, k, 0, 7); // coordinator-thread event
        let handles: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let kw = register_kind("test.rec.thread");
                    mark_at(2, kw, 0, i);
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        set_enabled(false);
        let flushed = drain_flushed();
        let worker_events: Vec<RawEvent> = flushed
            .iter()
            .flat_map(|l| l.events.iter())
            .copied()
            .filter(|e| e.kind == k)
            .collect();
        assert_eq!(worker_events.len(), 2, "both worker rings flushed at exit");
        assert!(flushed.windows(2).all(|w| w[0].ord <= w[1].ord));
        // The coordinator's own event is still local.
        assert!(drain_local().iter().any(|e| e.kind == k && e.b == 7));
    }
}
