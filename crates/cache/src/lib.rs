//! # ldp-cache
//!
//! Production-grade resolver caching for the LDplayer reproduction.
//! The paper's what-if methodology (recursive trace replay against an
//! emulated hierarchy, §2.3/§5) stands or falls on resolver cache
//! fidelity; this crate replaces the first-generation unbounded TTL map
//! with two pieces real resolvers under heavy-tailed load live or die
//! on (in-flight aggregation of concurrent misses is the resolver's
//! own: `dns_resolver::SimResolver`'s tasks):
//!
//! * **[`ResolverCache`]** — a capacity-bounded TTL store with
//!   deterministic eviction policies named by one enum and ranked by
//!   one function ([`PolicyKind::rank`]): [`PolicyKind::Lru`],
//!   [`PolicyKind::LfuLite`] and the aggregate-delay-aware
//!   [`PolicyKind::DelayAware`] that ranks entries by
//!   (expected miss latency × arrival rate) rather than recency. TTLs
//!   are clamped per RFC 2181 §8 and expired sets are never inserted.
//! * **[`negative_ttl`]** — RFC 2308 negative caching: the negative TTL
//!   is derived from the authority-section SOA (min of the SOA record
//!   TTL and its MINIMUM field) instead of a hardcoded constant, with a
//!   named fallback ([`NEG_TTL_DEFAULT`]) and a cap ([`NEG_TTL_CAP`]).
//!
//! Everything is virtual-time-friendly: time is an explicit `f64`
//! seconds parameter (any epoch), there is no ambient clock and no
//! ambient randomness, and all internal iteration is over ordered
//! containers or, to build the eviction index, over the entry table in
//! entry order, which the operations alone decide — two same-seed
//! simulator runs using this cache produce
//! byte-identical transcripts (`clippy::disallowed_methods`,
//! `disallowed_types` and the panic lints are denied in this crate;
//! see DESIGN.md §7 and §11).

#![warn(missing_docs)]
// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod answer;
pub mod negative;
pub mod policy;
pub mod records;
pub mod store;

pub use answer::AnswerBytes;
pub use negative::negative_ttl;
pub use policy::PolicyKind;
pub use records::RecordList;
pub use store::{CacheStats, CachedAnswer, EntryMeta, FillInfo, PutOutcome, ResolverCache};

/// Cap on a positive TTL (seconds): RFC 2181 §8 bounds TTL to 31
/// bits, and operationally a week is the common upper clamp.
pub const MAX_TTL: u32 = 604_800;

/// Negative TTL used when the response carried no SOA to derive one
/// from (RFC 2308 §5): the named fallback replacing the old hardcoded
/// constant.
pub const NEG_TTL_DEFAULT: u32 = 30;

/// Cap on SOA-derived negative TTLs (RFC 2308 suggests resolvers bound
/// negative caching; 3 hours is BIND's default cap).
pub const NEG_TTL_CAP: u32 = 10_800;

/// Configuration of a [`ResolverCache`]: what the cache studies vary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum resident entries; `usize::MAX` means unbounded (the
    /// legacy first-generation behavior). `0` disables caching.
    pub capacity: usize,
    /// Eviction policy applied when the store is full.
    pub policy: PolicyKind,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: usize::MAX,
            policy: PolicyKind::Lru,
        }
    }
}

impl CacheConfig {
    /// A bounded cache with `capacity` entries under `policy`.
    pub fn bounded(capacity: usize, policy: PolicyKind) -> Self {
        CacheConfig { capacity, policy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unbounded_lru() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.capacity, usize::MAX);
        assert_eq!(cfg.policy, PolicyKind::Lru);
    }

    #[test]
    fn bounded_sets_capacity_and_policy() {
        let cfg = CacheConfig::bounded(128, PolicyKind::DelayAware);
        assert_eq!(cfg.capacity, 128);
        assert_eq!(cfg.policy, PolicyKind::DelayAware);
    }
}
