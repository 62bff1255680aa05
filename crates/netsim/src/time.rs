//! Simulated time: nanosecond-resolution virtual clock values.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// From nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From floating-point seconds (panics on negative).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "negative SimTime");
        SimTime((s * 1e9).round() as u64)
    }

    /// Nanoseconds since start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start as f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From floating-point seconds (panics on negative).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "negative SimDuration");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Integer scaling.
    pub fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// Halve (RTT → one-way delay).
    pub fn half(self) -> SimDuration {
        SimDuration(self.0 / 2)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("SimTime underflow"))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(
            SimDuration::from_millis(20).half(),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            SimDuration::from_millis(3).times(4),
            SimDuration::from_millis(12)
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn saturating_sub() {
        assert_eq!(
            SimTime::from_millis(1).saturating_sub(SimTime::from_millis(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
    }
}
