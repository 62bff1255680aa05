//! `ldp-guard`: the overload-and-recovery layer for the replay stack.
//!
//! LDplayer's replays run for hours (paper §3 replays a full day of
//! B-Root traffic); a querier crash or an overloaded server mid-run
//! used to lose the whole experiment. This crate makes degraded-mode
//! behavior an explicit, testable state machine instead of an
//! accident:
//!
//! - [`budget`]: [`RetransmitConfig`] — bounded retries with capped
//!   decorrelated-jitter backoff, the `n`-th delay a fold of `n + 1`
//!   [`ldp_rng::backoff_step`]s drawn from the chain's seed, so a
//!   chain is a count: the replay core's per-query UDP retransmits
//!   and the socket engine's querier reconnect loop each keep one
//!   (lint rule R1 asks every connect / reconnect loop for a visible
//!   bound). The resolver's failover escalation (`next_timeout` in
//!   `dns-resolver`'s `sim_resolver.rs`) steps the same jitter under
//!   `max_retries` and its own normalisation; the sim client's TCP
//!   redial is a fixed doubling (`RECONNECT_BACKOFF_MS` under
//!   `MAX_RECONNECTS`) and does not go through it.
//! - [`checkpoint`]: [`Checkpoint`] — a compact line-based snapshot
//!   of replay progress (trace cursor, completed records, counters,
//!   virtual-time epoch) with an exact text round-trip, so a killed
//!   run resumes from the last cut and replays a byte-identical
//!   virtual-time transcript. A cut commits at any instant by carrying
//!   per-query in-flight state.
//! - [`inflight`]: [`InflightEntry`] — the per-query state a
//!   checkpoint carries for each outstanding query (original send
//!   deadline, elapsed sends and retransmits, admission status).
//! - [`admission`]: [`AdmissionController`] — a bounded in-flight
//!   window with deadline-aware shedding that records dropped seqs
//!   instead of stalling the replay clock.
//!
//! Everything here is pure logic over explicit `now` parameters — no
//! clocks, no threads, no I/O — so the whole crate unit-tests without
//! sockets and behaves identically under the simulator's virtual time
//! and the socket engine's wall time.

#![warn(missing_docs)]
// Simulator path: no hash collection, no wall-clock type, no random
// stream (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod admission;
pub mod budget;
pub mod checkpoint;
pub mod inflight;

pub use admission::{Admission, AdmissionConfig, AdmissionController, MAX_LATENESS_US};
pub use budget::RetransmitConfig;
pub use checkpoint::{Checkpoint, CheckpointParseError};
pub use inflight::{InflightEntry, InflightStatus};
