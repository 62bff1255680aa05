//! The UDP retransmission policy: the one guard parameter an
//! experiment varies (`fig_recovery`'s storm sets it, the benchmark's
//! guarded variant takes the default).

/// UDP retransmission policy for a replay client: each query gets its
/// own [`crate::RetryBudget`], seeded per seq, so each retransmit
/// delay is a function of the run's seed, the seq and the attempt,
/// whatever else is in flight. Unlike the TCP reconnect chain — which
/// rides connection-death events — UDP loss is silent, so retransmits
/// are timer-driven from dispatch. Exhaustion
/// is terminal: the query stays pending (and is carried on a
/// checkpoint `inflight` line) but is never sent again.
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
