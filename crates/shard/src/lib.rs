//! # ldp-shard
//!
//! A sharded, multi-core front-end for [`netsim`]: hosts are
//! partitioned across N worker simulators, synchronized by
//! conservative lookahead windows sized by the minimum one-way link
//! latency between shards. The caller's thread runs shard 0 and scoped
//! threads run the rest; one barrier separates the windows, with no
//! coordinator. Cross-shard datagrams carry their exact single-shard
//! event keys and are copied into the receiver's own packet pool, so
//! the merged transcript — and the canonically ordered telemetry drain
//! — are **byte-identical** to the single-shard run for the same seed,
//! for any shard count (DESIGN.md §10).
//!
//! ```
//! use ldp_shard::{ShardPlan, ShardedSimulator};
//! use netsim::{PathConfig, SimConfig, SimDuration, Topology};
//!
//! let topo = Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10)));
//! let sim = ShardedSimulator::new(topo, SimConfig::default(), ShardPlan::round_robin(4));
//! assert_eq!(sim.shards(), 4);
//! assert_eq!(sim.lookahead(), SimDuration::from_millis(5));
//! ```

#![warn(missing_docs)]
// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod exchange;
pub mod plan;
pub mod sim;

pub use plan::ShardPlan;
pub use sim::{GlobalHostId, ShardedSimulator};
