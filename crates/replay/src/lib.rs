//! # ldp-replay
//!
//! LDplayer's distributed query engine (paper §2.6, §3, Figure 4): a
//! Controller (Reader + Postman) distributes pre-encoded queries through
//! Distributors to Queriers over bounded channels; same-source queries
//! stick to the same querier and the same emulated socket/connection;
//! each query is sent at ΔTᵢ = Δt̄ᵢ − Δtᵢ, re-anchored continuously so
//! pipeline delay never accumulates — or immediately in fast mode.
//!
//! Two replayers own the wire:
//! - [`engine`] — real sockets and threads (replay fidelity and
//!   throughput experiments, paper §4), on the [`timing`] schedule;
//! - [`sim_replay`] — a simulator host with per-source connection reuse,
//!   latency logging and kill → resume (the §5.2 what-if experiments),
//!   over one [`core`]: the schedule, the seq window (per-query state
//!   and what is done, from the cursor on), and the checkpoint writer.

#![warn(missing_docs)]

pub mod capture;
pub mod clock;
pub mod core;
pub mod engine;
pub mod pending;
pub mod sim_replay;
pub mod sticky;
pub mod timing;

pub use crate::core::ReplayCore;
pub use capture::{parse_tag_seq, Arrival, CaptureServer};
pub use clock::{ReplayClock, VirtualClock, WallClock};
pub use engine::{replay, replay_with_clock, ReplayConfig, ReplayReport, SentRecord};
pub use pending::PendingTable;
pub use sim_replay::{CheckpointStamp, LatencyLog, LatencyRecord, SimReplayClient};
pub use sticky::StickyRouter;
pub use timing::TimingTracker;
