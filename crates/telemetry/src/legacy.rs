//! The process-wide calls `benchmark/` still makes (`set_enabled`,
//! `drain_all`, `clock::use_virtual_clock`, `clock::use_zero_clock`),
//! kept as adaptors over owned recorders until that directory's next
//! change removes them. Nothing else may call them: a run records into
//! the [`Recorder`] its simulator owns.
//!
//! Two statics, and only here: the default switch a new simulator's
//! recorder reads ([`Recorder::from_default`]), and the sink such a
//! recorder hands its events to when a run returns
//! ([`Recorder::hand_off`]) — while the benchmark's simulator is still
//! alive, which is when it drains. The sink is itself a ring of
//! [`crate::RING_CAP`] events, so a drain returns the most recent window
//! as a per-thread ring did.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::event::RawEvent;
use crate::recorder::{Log, Recorder};

static DEFAULT_ON: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Recorder> = Mutex::new(Recorder::new());

/// Whether simulators built from now on record (off is the default).
pub fn set_enabled(on: bool) {
    DEFAULT_ON.store(on, Ordering::Relaxed);
}

pub(crate) fn default_on() -> bool {
    DEFAULT_ON.load(Ordering::Relaxed)
}

pub(crate) fn accept(log: Log) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.set_on(true);
    for ev in log.events {
        sink.record(ev.t_ns, ev.kind, ev.op, ev.a, ev.b);
    }
}

/// Every event handed over since the last call, oldest first.
pub fn drain_all() -> Vec<RawEvent> {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.drain().events
}

/// The clock calls are no-ops: every event is stamped with its
/// simulator's virtual time.
pub mod clock {
    /// No-op (events carry virtual time).
    pub fn use_virtual_clock() {}

    /// No-op (events carry virtual time).
    pub fn use_zero_clock() {}
}
