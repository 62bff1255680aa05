//! Bounded retries with capped decorrelated-jitter backoff.
//!
//! The socket engine's querier reconnects and the replay core's UDP
//! retransmit chains share this one type, so "how many times and how
//! fast do we hammer a struggling peer" is one policy for them. (The
//! resolver's failover escalation — `next_timeout` in `dns-resolver`'s
//! `sim_resolver.rs` — and the sim client's TCP redial grow a delay
//! under a counter of their own.) An exhausted budget is a *terminal*
//! answer — callers must surface it (a `Dead` outcome, a query left
//! pending), never spin.

use ldp_rng::SampleUniform;

/// A bounded, jittered retry allowance.
///
/// Delays follow the decorrelated-jitter scheme (AWS architecture
/// blog): each delay is uniform in `[base, 3 × previous)`, clamped to
/// `cap`, which spreads concurrent retriers apart. Attempt `n` takes
/// the draw [`ldp_rng::nth`]`(seed, n)`, so a delay is a pure function
/// of the seed, the attempt and the delay before it: the budget carries
/// no stream.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    max_attempts: u32,
    used: u32,
    base_us: u64,
    cap_us: u64,
    prev_us: u64,
    seed: u64,
}

impl RetryBudget {
    /// A budget of `max_attempts` retries with delays in
    /// `[base_us, cap_us]`, jittered deterministically from `seed`.
    pub fn new(max_attempts: u32, base_us: u64, cap_us: u64, seed: u64) -> Self {
        let base_us = base_us.max(1);
        RetryBudget {
            max_attempts,
            used: 0,
            base_us,
            cap_us: cap_us.max(base_us),
            prev_us: base_us,
            seed,
        }
    }

    /// Spend one attempt: the delay (µs) to wait before the retry, or
    /// `None` when the budget is exhausted. Once `None`, always
    /// `None` (until [`RetryBudget::reset`]).
    pub fn next_delay_us(&mut self) -> Option<u64> {
        if self.used >= self.max_attempts {
            return None;
        }
        let draw = ldp_rng::nth(self.seed, u64::from(self.used));
        self.used += 1;
        let hi = self.prev_us.saturating_mul(3).max(self.base_us + 1);
        let delay = u64::from_range(self.base_us, hi, draw).min(self.cap_us);
        self.prev_us = delay.max(self.base_us);
        Some(delay)
    }

    /// Attempts remaining.
    pub fn remaining(&self) -> u32 {
        self.max_attempts - self.used
    }

    /// Attempts spent so far.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Refill the budget after a confirmed recovery (e.g. a successful
    /// reconnect) so the next incident starts from a full allowance —
    /// and from the first delay again: the next incident's delays are
    /// a fresh budget's.
    pub fn reset(&mut self) {
        self.used = 0;
        self.prev_us = self.base_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustion_is_terminal() {
        let mut b = RetryBudget::new(3, 100, 1000, 9);
        assert_eq!(b.remaining(), 3);
        for _ in 0..3 {
            assert!(b.next_delay_us().is_some());
        }
        assert_eq!(b.next_delay_us(), None);
        assert_eq!(b.next_delay_us(), None, "stays exhausted");
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.used(), 3);
    }

    #[test]
    fn delays_stay_within_base_and_cap() {
        let mut b = RetryBudget::new(50, 200, 5_000, 13);
        while let Some(d) = b.next_delay_us() {
            assert!(d >= 200, "below base: {d}");
            assert!(d <= 5_000, "above cap: {d}");
        }
    }

    #[test]
    fn same_seed_same_delays() {
        let mut a = RetryBudget::new(10, 100, 10_000, 77);
        let mut b = RetryBudget::new(10, 100, 10_000, 77);
        for _ in 0..10 {
            assert_eq!(a.next_delay_us(), b.next_delay_us());
        }
    }

    #[test]
    fn jitter_actually_varies() {
        let mut b = RetryBudget::new(20, 100, 1_000_000, 3);
        let delays: Vec<u64> = std::iter::from_fn(|| b.next_delay_us()).collect();
        let distinct: std::collections::BTreeSet<u64> = delays.iter().copied().collect();
        assert!(
            distinct.len() > 5,
            "decorrelated jitter should spread: {delays:?}"
        );
    }

    /// The first five delays of the storm policy `fig_recovery` runs,
    /// as the budget drew them from a `SplitMix64` stream: every
    /// retransmit chain in a committed figure and transcript.
    const STORM_FIRST_FIVE: [u64; 5] = [216_052, 317_285, 403_911, 244_420, 337_273];

    fn storm() -> RetryBudget {
        RetryBudget::new(12, 200_000, 1_500_000, 0x5eed)
    }

    #[test]
    fn storm_delays_are_pinned() {
        let mut b = storm();
        let first: Vec<u64> = (0..5).filter_map(|_| b.next_delay_us()).collect();
        assert_eq!(first, STORM_FIRST_FIVE);
    }

    #[test]
    fn reset_refills_and_restarts_the_delays() {
        let mut b = storm();
        for _ in 0..3 {
            b.next_delay_us();
        }
        b.reset();
        assert_eq!(b.remaining(), 12);
        let again: Vec<u64> = (0..5).filter_map(|_| b.next_delay_us()).collect();
        assert_eq!(
            again, STORM_FIRST_FIVE,
            "a reset budget draws as a fresh one"
        );
    }

    #[test]
    fn zero_budget_never_grants() {
        let mut b = RetryBudget::new(0, 100, 1000, 1);
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.next_delay_us(), None);
    }
}
