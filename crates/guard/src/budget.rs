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

use ldp_rng::SplitMix64;

/// A bounded, jittered retry allowance.
///
/// Delays follow the decorrelated-jitter scheme (AWS architecture
/// blog): each delay is uniform in `[base, 3 × previous)`, clamped to
/// `cap`, which spreads concurrent retriers apart while staying fully
/// deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    max_attempts: u32,
    used: u32,
    base_us: u64,
    cap_us: u64,
    prev_us: u64,
    rng: SplitMix64,
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
            rng: SplitMix64::from_state(seed),
        }
    }

    /// Spend one attempt: the delay (µs) to wait before the retry, or
    /// `None` when the budget is exhausted. Once `None`, always
    /// `None` (until [`RetryBudget::reset`]).
    pub fn next_delay_us(&mut self) -> Option<u64> {
        if self.used >= self.max_attempts {
            return None;
        }
        self.used += 1;
        let hi = self.prev_us.saturating_mul(3).max(self.base_us + 1);
        let delay = self.rng.gen_range(self.base_us..hi).min(self.cap_us);
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
    /// reconnect) so the next incident starts from a full allowance.
    /// The jitter stream is *not* rewound — determinism is per-run,
    /// not per-incident.
    pub fn reset(&mut self) {
        self.used = 0;
        self.prev_us = self.base_us;
    }

    /// Capture the budget's dynamic state — attempts spent, the
    /// previous delay the decorrelated-jitter recurrence feeds on, and
    /// the RNG stream position — for a fuzzy-cut checkpoint. The
    /// static policy (`max_attempts`, `base_us`, `cap_us`) is the
    /// caller's configuration and is not part of the snapshot.
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            used: self.used,
            prev_us: self.prev_us,
            rng_state: self.rng.state(),
        }
    }

    /// Rewind this budget to a captured snapshot. The subsequent
    /// delay stream is identical to what the snapshotted budget would
    /// have produced — the property that lets a resumed run continue a
    /// half-spent retry chain instead of restarting it. No driver
    /// resumes that way (a resumed run re-executes a carried query from
    /// its first send), so this is the tests' check that the snapshot
    /// holds the whole dynamic state.
    #[cfg(test)]
    fn restore(&mut self, snap: &BudgetSnapshot) {
        self.used = snap.used;
        self.prev_us = snap.prev_us.max(self.base_us);
        self.rng = SplitMix64::from_state(snap.rng_state);
    }
}

/// The dynamic state of a [`RetryBudget`] at one instant, as carried
/// on a checkpoint `inflight` line. Small, `Copy`, and exact: restoring
/// it reproduces the remaining delay stream bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetSnapshot {
    /// Attempts already spent.
    pub used: u32,
    /// Previous delay (µs) — the decorrelated-jitter recurrence input.
    pub prev_us: u64,
    /// SplitMix64 stream position.
    pub rng_state: u64,
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

    #[test]
    fn reset_refills_but_does_not_rewind_jitter() {
        let mut b = RetryBudget::new(2, 100, 1000, 5);
        let first = b.next_delay_us();
        b.next_delay_us();
        assert_eq!(b.remaining(), 0);
        b.reset();
        assert_eq!(b.remaining(), 2);
        // Fresh allowance, but the RNG has advanced: a replayed first
        // draw would only match by coincidence, not by construction.
        assert!(b.next_delay_us().is_some());
        let _ = first;
    }

    #[test]
    fn snapshot_restore_continues_the_identical_delay_stream() {
        let mut a = RetryBudget::new(12, 100, 50_000, 4242);
        for _ in 0..5 {
            a.next_delay_us();
        }
        let snap = a.snapshot();
        assert_eq!(snap.used, 5);

        // A fresh budget with the same *policy* but a different seed:
        // restore overwrites the dynamic state, so from here on it
        // must shadow `a` exactly.
        let mut b = RetryBudget::new(12, 100, 50_000, 1);
        b.restore(&snap);
        assert_eq!(b.used(), 5);
        assert_eq!(b.remaining(), 7);
        loop {
            let (da, db) = (a.next_delay_us(), b.next_delay_us());
            assert_eq!(da, db);
            if da.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_is_passive() {
        let mut a = RetryBudget::new(3, 100, 1000, 7);
        let before = a.snapshot();
        let _ = a.snapshot();
        a.next_delay_us();
        let after = a.snapshot();
        assert_eq!(before.used + 1, after.used);
        assert_ne!(before.rng_state, after.rng_state);
    }

    #[test]
    fn zero_budget_never_grants() {
        let mut b = RetryBudget::new(0, 100, 1000, 1);
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.next_delay_us(), None);
    }
}
