//! Deterministic eviction policies: one enum, one rank function.
//!
//! A policy maps an entry's bookkeeping ([`EntryMeta`]) to a `u128`
//! *rank*; the store keeps a `(rank, slot)` ordered index and always
//! evicts the minimum. Ranks are recomputed whenever an entry is
//! touched, so a policy sees the entry's state as of its last access —
//! the standard frozen-rank approximation every O(log n) cache uses.
//! Ties break on the insertion slot (packed into the low bits or via
//! the index tuple), never on memory addresses or hash order, so a
//! given access sequence evicts the same victims in every run.

use crate::store::EntryMeta;

/// An eviction policy: smaller [`PolicyKind::rank`] ⇒ evicted sooner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used: rank is the global access sequence number
    /// of the entry's last touch.
    Lru,
    /// Frequency-first ("LFU-lite"): rank orders by lifetime request
    /// count, breaking ties by recency. "Lite" because counts are
    /// per-generation accumulations, not a decayed sketch —
    /// deterministic and cheap.
    LfuLite,
    /// Aggregate-delay-aware (MAD-style): rank by the delay an eviction
    /// would reintroduce — (expected miss latency) × (arrival rate) — so
    /// the store prefers to keep entries whose misses are expensive
    /// *and* frequent, not merely recent. Under in-flight aggregation a
    /// miss for a popular name delays every coalesced waiter, which is
    /// exactly the product this score estimates.
    DelayAware,
}

impl PolicyKind {
    /// All built-in policies, in display order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::LfuLite, PolicyKind::DelayAware];

    /// The policy's transcript/legend label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::LfuLite => "lfu-lite",
            PolicyKind::DelayAware => "delay-aware",
        }
    }

    /// Eviction rank of an entry with bookkeeping `meta` at time `now`
    /// (seconds, same epoch as the store's `now` parameters). The
    /// minimum-ranked entry is evicted first.
    pub fn rank(self, meta: &EntryMeta, now: f64) -> u128 {
        let recency = meta.last_access_seq as u128;
        match self {
            PolicyKind::Lru => recency,
            PolicyKind::LfuLite => ((meta.requests as u128) << 64) | recency,
            PolicyKind::DelayAware => {
                // Arrival rate over the entry's observed lifetime,
                // floored at a 1 s window so a brand-new entry's rate
                // is just its aggregated request count (the waiters
                // that piled up during its fill).
                let age = (now - meta.first_seen).max(1.0);
                let rate = meta.requests as f64 / age;
                let score = (meta.fill_latency.max(0.0) * rate).max(0.0);
                // Non-negative f64 bit patterns sort like the floats
                // they encode, so the score is order-preserved; recency
                // breaks ties.
                ((score.to_bits() as u128) << 64) | recency
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(seq: u64, requests: u64, first_seen: f64, fill_latency: f64) -> EntryMeta {
        EntryMeta {
            first_seen,
            requests,
            last_access_seq: seq,
            fill_latency,
        }
    }

    #[test]
    fn lru_orders_by_recency() {
        let p = PolicyKind::Lru;
        assert!(p.rank(&meta(1, 100, 0.0, 9.0), 10.0) < p.rank(&meta(2, 1, 0.0, 0.0), 10.0));
    }

    #[test]
    fn lfu_orders_by_frequency_then_recency() {
        let p = PolicyKind::LfuLite;
        assert!(p.rank(&meta(9, 1, 0.0, 0.0), 10.0) < p.rank(&meta(1, 2, 0.0, 0.0), 10.0));
        // Same frequency: older access evicts first.
        assert!(p.rank(&meta(1, 2, 0.0, 0.0), 10.0) < p.rank(&meta(5, 2, 0.0, 0.0), 10.0));
    }

    #[test]
    fn delay_aware_keeps_expensive_frequent_entries() {
        let p = PolicyKind::DelayAware;
        // Cheap-and-rare evicts before expensive-and-frequent.
        let cheap = meta(1, 2, 0.0, 0.010);
        let costly = meta(2, 200, 0.0, 0.200);
        assert!(p.rank(&cheap, 100.0) < p.rank(&costly, 100.0));
        // An expensive fill beats a cheap one at equal rates.
        let slow = meta(3, 10, 0.0, 0.500);
        let fast = meta(4, 10, 0.0, 0.005);
        assert!(p.rank(&fast, 100.0) < p.rank(&slow, 100.0));
    }

    #[test]
    fn delay_aware_rank_is_deterministic() {
        let p = PolicyKind::DelayAware;
        let m = meta(7, 42, 1.5, 0.123);
        assert_eq!(p.rank(&m, 50.0), p.rank(&m, 50.0));
    }
}
