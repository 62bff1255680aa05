//! The replay clock abstraction (rule D1).
//!
//! Every read of "now" in the socket engine ([`crate::engine`]) flows
//! through [`ReplayClock`], so the same engine runs against the wall
//! clock ([`WallClock`]) or a test clock such as [`VirtualClock`], on
//! which its schedule is exact. Simulator-mode replay is another
//! driver, [`crate::SimReplayClient`] on netsim's virtual time, and
//! takes no `ReplayClock`. `WallClock` is the one place in the replay
//! crate allowed to call `Instant::now()` (its
//! `#[allow(clippy::disallowed_methods)]`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic clock measured in microseconds since its origin.
///
/// The origin is the moment the replay run starts; warm-up and query
/// deadlines are offsets from it (see [`crate::TimingTracker`]).
pub trait ReplayClock: Send + Sync {
    /// Microseconds elapsed since the clock's origin.
    fn now_us(&self) -> u64;

    /// Block the calling thread until `now_us() >= deadline_us`.
    /// Returns immediately when the deadline has already passed.
    /// Virtual clocks may jump rather than wait.
    fn sleep_until_us(&self, deadline_us: u64);
}

/// The real clock: microseconds of wall time since construction.
///
/// `sleep_until_us` uses the hybrid wait the paper's timing fidelity
/// needs — sleep until ~1 ms before the deadline, then spin — because
/// plain `sleep` cannot place sends with sub-millisecond accuracy.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

#[allow(
    clippy::disallowed_methods,
    reason = "D1: WallClock is the real clock behind ReplayClock"
)]
impl WallClock {
    /// A wall clock whose origin is the moment of the call.
    pub fn start() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "D1/T2: WallClock is the real clock behind ReplayClock, and its sleep is the real wait"
)]
impl ReplayClock for WallClock {
    fn now_us(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.origin)
            .as_micros() as u64
    }

    fn sleep_until_us(&self, deadline_us: u64) {
        let deadline = self.origin + Duration::from_micros(deadline_us);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let remaining = deadline - now;
            if remaining > Duration::from_micros(1200) {
                std::thread::sleep(remaining - Duration::from_micros(1000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// A virtual clock: time only moves when a sleeper pushes it forward,
/// so a socket replay under it runs as fast as the machine allows while
/// the recorded send instants land exactly on their deadlines — with
/// one querier. Queriers sharing it drag it forward for each other, and
/// the engine's deadline shedding reads that as lateness. The engine's
/// tests use it; simulator-mode replay runs as
/// [`crate::SimReplayClient`] on netsim and never touches it.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_us: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at its origin (t = 0).
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Push time forward to `at_us` (never backwards).
    pub fn advance_to(&self, at_us: u64) {
        self.now_us.fetch_max(at_us, Ordering::SeqCst);
    }
}

impl ReplayClock for VirtualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }

    fn sleep_until_us(&self, deadline_us: u64) {
        // Virtual time: the sleeper itself drags the clock forward.
        self.advance_to(deadline_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_advances_and_sleeps() {
        let clock = WallClock::start();
        let t0 = clock.now_us();
        clock.sleep_until_us(t0 + 2_000);
        let t1 = clock.now_us();
        assert!(t1 >= t0 + 2_000, "slept to {t1} from {t0}");
        // Past deadlines return immediately.
        clock.sleep_until_us(0);
    }

    #[test]
    fn virtual_clock_jumps_instead_of_waiting() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_us(), 0);
        clock.sleep_until_us(60_000_000); // one virtual minute
        assert_eq!(clock.now_us(), 60_000_000);
        // Never backwards.
        clock.sleep_until_us(1);
        assert_eq!(clock.now_us(), 60_000_000);
        clock.advance_to(70_000_000);
        assert_eq!(clock.now_us(), 70_000_000);
    }
}
