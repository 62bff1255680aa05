//! # ldp-telemetry
//!
//! Always-on, virtual-time-aware tracing for LDplayer's hot paths:
//! per-query lifecycle marks (enqueue → send → retx → response →
//! match), span enter/exit pairs around server stages, and counters —
//! recorded into fixed-size per-thread ring buffers of compact binary
//! events, then drained offline into text timelines, per-stage latency
//! breakdowns (via [`ldp_metrics`]) and folded-stacks flamegraph dumps.
//!
//! Design constraints (DESIGN.md §8):
//!
//! * **Zero allocation on the hot path.** A record is one relaxed
//!   atomic load (the enabled flag), a thread-local
//!   borrow, and a 32-byte slot write into a preallocated ring. Event
//!   kinds are interned [`KindId`]s registered up front
//!   ([`register_kind`]); names are resolved only at drain time.
//! * **Determinism.** Virtual-time code stamps events explicitly with
//!   [`record_at`] (the simulator's own `SimTime`), so two same-seed
//!   runs drain byte-identical logs and recording can never perturb
//!   event order. Transport-agnostic code opens a [`span`], which
//!   reads the process-wide [`clock`] — zero (the default, always
//!   0 ns), virtual (the last published simulator time) or one the
//!   run installs ([`clock::install_clock`]); nothing in this crate
//!   reads real time (`clippy::disallowed_methods`, rule T1).
//! * **Disabled cost is a branch.** Disabled recording (the default)
//!   costs one relaxed load and a predictable branch;
//!   [`set_enabled`] is the only switch.
//!
//! ## Quick example
//!
//! ```
//! use ldp_telemetry as tel;
//!
//! let send = tel::register_kind("q.send");
//! let done = tel::register_kind("q.match");
//! tel::set_enabled(true);
//! // A virtual-time path stamps events itself (t in nanoseconds):
//! tel::mark_at(1_000, send, 7, 0);
//! tel::mark_at(4_500_000, done, 7, 0);
//! tel::set_enabled(false);
//! let events = tel::drain_local();
//! let text = tel::render_timeline(&events);
//! assert!(text.contains("q.send") && text.contains("q.match"));
//! ```

#![warn(missing_docs)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod clock;
mod event;
mod export;
mod recorder;

pub use clock::ClockSource;
pub use event::{kind_name, register_kind, registered_kinds, KindId, Op, RawEvent};
pub use export::{
    canonical_order, count_by_kind, diff_logs, dump_binary, folded_stacks, render_timeline,
    stage_breakdown, StageBreakdown, StageStat,
};
pub use recorder::{
    counter_at, drain_all, drain_flushed, drain_local, enabled, flush_thread, mark_at, record_at,
    set_enabled, span, SpanGuard, ThreadLog,
};
