//! Bounded retries with capped decorrelated-jitter backoff, as counts.
//!
//! A retry chain is a [`RetransmitConfig`], a seed and the number of
//! delays already drawn: its `n`-th delay is a fold of `n + 1`
//! [`ldp_rng::backoff_step`]s, step `i` drawing [`ldp_rng::nth`]`(seed,
//! i)`, so a caller keeps a count and nothing else. The replay core's
//! per-query UDP retransmit chains and the socket engine's querier
//! reconnects share this one policy, so "how many times and how fast do
//! we hammer a struggling peer" is decided in one place. (The
//! resolver's failover escalation — `next_timeout` in `dns-resolver`'s
//! `sim_resolver.rs` — steps the same jitter under a counter and a
//! normalisation of its own; the sim client's TCP redial is a fixed
//! doubling, `RECONNECT_BACKOFF_MS` under `MAX_RECONNECTS` in
//! `sim_replay.rs`.) Exhaustion is a *terminal* answer — callers must
//! surface it (a `Dead` outcome, a query left pending), never spin.

/// A bounded, jittered retry policy: at most `max_retx` delays in
/// `[base_us, cap_us]`.
///
/// The replay client's UDP retransmission policy (each query's chain
/// is seeded per seq, so each retransmit delay is a function of the
/// run's seed, the seq and the attempt, whatever else is in flight;
/// `fig_recovery`'s storm sets it, the benchmark's guarded variant
/// takes the default) and the socket querier's reconnect policy. Unlike
/// the sim client's TCP reconnect chain — which rides connection-death
/// events — UDP loss is silent, so retransmits are timer-driven from
/// dispatch. Exhaustion is terminal: the query stays pending (and is
/// carried on a checkpoint `inflight` line) but is never sent again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Retransmits allowed per query after the initial send.
    pub max_retx: u32,
    /// Base inter-retransmit delay (µs). Must comfortably exceed the
    /// expected RTT or every query double-sends.
    pub base_us: u64,
    /// Inter-retransmit delay cap (µs).
    pub cap_us: u64,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        // Base 200ms: ~5× the study RTT (40ms), so healthy paths never
        // retransmit; cap 1.5s bounds a chain to a few seconds.
        RetransmitConfig {
            max_retx: 8,
            base_us: 200_000,
            cap_us: 1_500_000,
        }
    }
}

impl RetransmitConfig {
    /// The delay (µs) before retry `n` (0-based) of the chain seeded
    /// `seed`, or `None` once `n` reaches `max_retx`. A base of 0 counts
    /// as 1 and a cap below the base as the base; the first step folds
    /// from `prev = base`. A chain starts over by counting from 0 again.
    pub fn delay_us(&self, seed: u64, n: u32) -> Option<u64> {
        if n >= self.max_retx {
            return None;
        }
        let base = self.base_us.max(1);
        let cap = self.cap_us.max(base);
        let delay = (0..=u64::from(n)).fold(base, |prev, i| {
            ldp_rng::backoff_step(base, cap, prev, ldp_rng::nth(seed, i))
        });
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rng::check::check;

    fn cfg(max_retx: u32, base_us: u64, cap_us: u64) -> RetransmitConfig {
        RetransmitConfig {
            max_retx,
            base_us,
            cap_us,
        }
    }

    /// Every delay of a chain, counting from 0 until it ends.
    fn chain(c: &RetransmitConfig, seed: u64) -> Vec<u64> {
        (0..).map_while(|n| c.delay_us(seed, n)).collect()
    }

    #[test]
    fn exhaustion_is_terminal() {
        let c = cfg(3, 100, 1000);
        assert_eq!(chain(&c, 9).len(), 3);
        assert_eq!(c.delay_us(9, 3), None);
        assert_eq!(c.delay_us(9, 4), None, "stays exhausted");
        assert_eq!(c.delay_us(9, u32::MAX), None);
    }

    #[test]
    fn delays_stay_within_base_and_cap() {
        for d in chain(&cfg(50, 200, 5_000), 13) {
            assert!(d >= 200, "below base: {d}");
            assert!(d <= 5_000, "above cap: {d}");
        }
    }

    #[test]
    fn same_seed_same_delays() {
        let c = cfg(10, 100, 10_000);
        assert_eq!(chain(&c, 77), chain(&c, 77));
        assert_ne!(chain(&c, 77), chain(&c, 78));
    }

    #[test]
    fn jitter_actually_varies() {
        let delays = chain(&cfg(20, 100, 1_000_000), 3);
        let distinct: std::collections::BTreeSet<u64> = delays.iter().copied().collect();
        assert!(
            distinct.len() > 5,
            "decorrelated jitter should spread: {delays:?}"
        );
    }

    /// The first five delays of the storm policy `fig_recovery` runs,
    /// as a `SplitMix64` stream drew them: every retransmit chain in a
    /// committed figure and transcript.
    const STORM_FIRST_FIVE: [u64; 5] = [216_052, 317_285, 403_911, 244_420, 337_273];

    fn storm() -> RetransmitConfig {
        cfg(12, 200_000, 1_500_000)
    }

    #[test]
    fn storm_delays_are_pinned() {
        assert_eq!(chain(&storm(), 0x5eed)[..5], STORM_FIRST_FIVE);
    }

    /// A chain is its count: counting from 0 again (as a successful
    /// reconnect or a crash does) draws a fresh chain's delays.
    #[test]
    fn reset_refills_and_restarts_the_delays() {
        let c = storm();
        let spent: Vec<u64> = (0..3).filter_map(|n| c.delay_us(0x5eed, n)).collect();
        assert_eq!(spent, STORM_FIRST_FIVE[..3]);
        let again: Vec<u64> = (0..5).filter_map(|n| c.delay_us(0x5eed, n)).collect();
        assert_eq!(
            again, STORM_FIRST_FIVE,
            "a restarted chain draws as a fresh one"
        );
        assert_eq!(chain(&c, 0x5eed).len(), 12, "and has its whole allowance");
    }

    #[test]
    fn zero_budget_never_grants() {
        assert_eq!(cfg(0, 100, 1000).delay_us(1, 0), None);
    }

    /// The retry budget the fold replaced, its body as it stood: one
    /// delay per call, the previous delay carried.
    struct ParentBudget {
        max_attempts: u32,
        used: u32,
        base_us: u64,
        cap_us: u64,
        prev_us: u64,
        seed: u64,
    }

    impl ParentBudget {
        fn new(max_attempts: u32, base_us: u64, cap_us: u64, seed: u64) -> Self {
            let base_us = base_us.max(1);
            ParentBudget {
                max_attempts,
                used: 0,
                base_us,
                cap_us: cap_us.max(base_us),
                prev_us: base_us,
                seed,
            }
        }

        fn next_delay_us(&mut self) -> Option<u64> {
            use ldp_rng::SampleUniform;
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
    }

    /// The fold draws what the budget it replaced drew, delay for delay
    /// and to the same end, over generated policies: bases of 0 and 1,
    /// caps below, at and far above the base, and chains long enough to
    /// reach the cap.
    #[test]
    fn the_fold_draws_the_parent_budgets_chain() {
        check(256, |g| {
            let base_us = match g.range(0..=3) {
                0 => g.range(0..=1),
                1 => g.range(2..=1_000),
                _ => g.range(1_000..=1 << 40),
            };
            let cap_us = match g.range(0..=2) {
                0 => g.range(0..=base_us),
                1 => base_us.saturating_add(g.range(0..=base_us)),
                _ => g.range(0..=1 << 42),
            };
            let c = cfg(g.range(0..=12) as u32, base_us, cap_us);
            let seed = g.u64();
            let mut parent = ParentBudget::new(c.max_retx, base_us, cap_us, seed);
            let want: Vec<u64> = std::iter::from_fn(|| parent.next_delay_us()).collect();
            assert_eq!(chain(&c, seed), want, "{c:?}, seed {seed:#x}");
        });
    }
}
