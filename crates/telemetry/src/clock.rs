//! Time sources for event timestamps.
//!
//! Virtual-time code should not read any clock at all — it stamps
//! events explicitly via [`crate::record_at`]. Everything else goes
//! through the process-wide clock configured here, which defaults to
//! [`use_zero_clock`] (every timestamp is 0 ns) so that code running
//! under the simulator stays deterministic even when it records
//! through the clocked API.
//!
//! Nothing in this crate reads real time (`clippy::disallowed_methods`,
//! rule T1): a run against the wall clock installs its own
//! [`ClockSource`], as the socket replay engine does with its
//! `ReplayClock`.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically non-decreasing nanosecond timestamp source.
///
/// Implementations must be cheap (called on the hot path when the
/// clocked recording API is used) and must never panic.
pub trait ClockSource: Send + Sync {
    /// Current time in nanoseconds since an arbitrary origin.
    fn now_ns(&self) -> u64;
}

thread_local! {
    /// The simulator's published "now", in nanoseconds of virtual
    /// time. Thread-local, not process-global: a sharded run
    /// (`ldp-shard`) drives one simulator per worker thread, each at
    /// its own point in virtual time within the current window —
    /// records made on a worker must read *that worker's* clock, never
    /// a racing neighbour's.
    static VIRTUAL_NOW: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Publish the simulator's current virtual time. `netsim` calls this
/// once per dispatched event (only while telemetry is enabled), so
/// clocked records made from inside host callbacks — e.g. the server
/// engine's parse/lookup/encode spans — carry virtual timestamps.
/// Per-thread: each sharded worker publishes its own clock.
#[inline]
pub fn publish_virtual_now(t_ns: u64) {
    VIRTUAL_NOW.with(|v| v.set(t_ns));
}

/// The last virtual time published *on this thread*, in nanoseconds.
#[inline]
fn virtual_now() -> u64 {
    VIRTUAL_NOW.with(|v| v.get())
}

const MODE_ZERO: u8 = 0;
const MODE_VIRTUAL: u8 = 1;
const MODE_CUSTOM: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_ZERO);
static CUSTOM: RwLock<Option<Arc<dyn ClockSource>>> = RwLock::new(None);

/// Every clocked record is stamped 0 ns (the default; deterministic
/// with no publisher at all).
pub fn use_zero_clock() {
    MODE.store(MODE_ZERO, Ordering::Relaxed);
}

/// Clocked records read the simulator time published by
/// [`publish_virtual_now`].
pub fn use_virtual_clock() {
    MODE.store(MODE_VIRTUAL, Ordering::Relaxed);
}

/// Clocked records read `source` — e.g. the replay engine's
/// `ReplayClock` adapted into a [`ClockSource`].
pub fn install_clock(source: Arc<dyn ClockSource>) {
    if let Ok(mut slot) = CUSTOM.write() {
        *slot = Some(source);
    }
    MODE.store(MODE_CUSTOM, Ordering::Relaxed);
}

/// Current time of the process-wide clock, in nanoseconds.
#[inline]
pub fn now_ns() -> u64 {
    match MODE.load(Ordering::Relaxed) {
        MODE_VIRTUAL => virtual_now(),
        MODE_CUSTOM => match CUSTOM.read() {
            Ok(slot) => slot.as_ref().map(|c| c.now_ns()).unwrap_or(0),
            Err(_) => 0,
        },
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The installed clock is process-wide: tests that install one run
    /// one at a time.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn zero_clock_is_the_default_and_reads_zero() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        use_zero_clock();
        assert_eq!(now_ns(), 0);
    }

    #[test]
    fn virtual_clock_tracks_published_time() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        publish_virtual_now(42_000);
        use_virtual_clock();
        assert_eq!(now_ns(), 42_000);
        publish_virtual_now(43_000);
        assert_eq!(now_ns(), 43_000);
        use_zero_clock();
    }

    #[test]
    fn custom_clock_is_read_through_the_trait() {
        struct Fixed(u64);
        impl ClockSource for Fixed {
            fn now_ns(&self) -> u64 {
                self.0
            }
        }
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        install_clock(Arc::new(Fixed(7_700)));
        assert_eq!(now_ns(), 7_700);
        use_zero_clock();
        assert_eq!(now_ns(), 0);
    }
}
