//! # ldp-telemetry
//!
//! Virtual-time event tracing for LDplayer's simulated hot paths:
//! per-query lifecycle marks (enqueue → send → retx → response →
//! match), span enter/exit pairs around server stages, and counters —
//! recorded into a fixed-size ring of compact binary events that the
//! run's owner holds, then drained offline into text timelines,
//! per-stage latency breakdowns (via [`ldp_metrics`]) and folded-stacks
//! flamegraph dumps.
//!
//! Design constraints (DESIGN.md §8):
//!
//! * **Owned, not process-wide.** A [`Recorder`] is a value: a
//!   `netsim::Simulator` owns one (a sharded run one per shard), hosts
//!   record through their `Ctx`, and the owner switches it on and
//!   drains it. Two simulations record side by side in one process.
//! * **Zero allocation on the hot path.** A record is one branch on
//!   the switch and a 32-byte slot write into a ring reserved on the
//!   first record. Kinds are one closed [`Kind`] enum; names are
//!   resolved only at drain time.
//! * **Determinism.** Every event is stamped with the simulator's
//!   virtual time (`ctx.now()`), so two same-seed runs drain
//!   byte-identical logs and recording never perturbs event order.
//!   Nothing here reads a clock.
//! * **Nothing lost silently.** A full ring overwrites its oldest
//!   events and counts them in [`Log::lost`].
//!
//! ## Quick example
//!
//! ```
//! use ldp_telemetry::{render_timeline, Kind, Recorder};
//!
//! let mut rec = Recorder::new();
//! rec.set_on(true);
//! // Events carry virtual time in nanoseconds:
//! rec.mark(1_000, Kind::QSend, 7, 0);
//! rec.mark(4_500_000, Kind::QMatch, 7, 0);
//! let log = rec.drain();
//! assert_eq!(log.lost, 0);
//! let text = render_timeline(&log.events);
//! assert!(text.contains("q.send") && text.contains("q.match"));
//! ```

#![warn(missing_docs)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// No lazily built process-wide state (D5): the recorder is a value.
#![deny(clippy::disallowed_types)]

mod event;
mod export;
pub mod legacy;
mod recorder;

pub use event::{Kind, Op, RawEvent};
pub use export::{
    canonical_order, count_by_kind, diff_logs, dump_binary, folded_stacks, render_timeline,
    stage_breakdown, StageBreakdown, StageStat,
};
pub use legacy::{clock, drain_all, set_enabled};
pub use recorder::{Log, Recorder, RING_CAP};
