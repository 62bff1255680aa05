//! # dns-resolver
//!
//! Recursive DNS resolution for the LDplayer reproduction: the
//! [`ldp_cache`]-backed resolver cache (capacity-bounded) and one
//! resolution core (`core.rs`: the
//! delegation table and the step function that classifies every
//! upstream response) under two drivers — a synchronous iterative
//! resolver (used by the zone constructor's one-time cold-cache walks,
//! paper §2.3) and an event-driven recursive resolver host for the
//! network simulator (the "Recursive Server" of Figures 1 and 2).

#![warn(missing_docs)]

mod core;
pub mod iterative;
pub mod sim_resolver;

pub use iterative::{IterativeResolver, Resolution, ResolveError, Upstream};
pub use ldp_cache::{
    negative_ttl, AnswerBytes, CacheConfig, CacheStats, CachedAnswer, FillInfo, PolicyKind,
    PutOutcome, RecordList, ResolverCache,
};
pub use sim_resolver::{
    AnswerClass, AnswerEvent, OutstandingStats, ResolverSnapshot, ResolverStats, SimResolver,
    StubHead,
};
