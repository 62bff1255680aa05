//! `ldp-chaos`: deterministic fault injection for the LDplayer
//! simulator.
//!
//! LDplayer's value (paper §3) is *controlled* DNS experimentation:
//! the same trace replayed under systematically varied conditions.
//! This crate supplies the "varied conditions" half for failures — a
//! declarative, virtual-time-scheduled [`FaultPlan`] of link cuts,
//! loss bursts, delay spikes, duplication, CPU throttles, and server
//! crash/restart events, executed inside the simulator with all
//! randomness drawn statelessly from the plan's seed. Same seed, same
//! plan → byte-identical simulator transcripts on the plain simulator
//! *and at any shard count* (the plan replicates cleanly onto
//! `ldp-shard` workers), so every failure experiment is exactly
//! reproducible.
//!
//! The pieces:
//! - [`scenario`]: the one testbed the studies below are
//!   parameterisations of — address plan, SOA-plus-records zone
//!   builder, shared-engine server farm, uniform-RTT seeded simulator,
//!   the [`scenario::StubSwarm`] host, the query schedule and
//!   [`scenario::install`], which wires a plan into either simulator:
//!   an injector per shard for the packet faults, and each crash or
//!   restart as a host-fault event in the simulator's own queue
//!   ([`netsim::SimDriver::schedule_host_fault`]) — generic over
//!   [`netsim::SimDriver`], so a study written on it runs on either
//!   engine,
//! - [`plan`]: the declarative [`FaultPlan`] (+ a line-based text
//!   format that round-trips exactly),
//! - [`injector`]: [`PlanInjector`], the packet-level executor wired
//!   into `netsim`'s delivery path,
//! - [`outage`]: the root-letter outage study (the `fig_outage`
//!   scenario): resolver retry policies under a loss burst plus letter
//!   crashes,
//! - [`delayed`]: the delayed-hits caching study (the `fig_cache`
//!   scenario): a Zipf stub workload against an `ldp-cache`-backed
//!   resolver, with optional delay spikes and upstream crashes,
//! - [`recovery`]: the crash-recovery study (the `fig_recovery`
//!   scenario): eight legs of one replay-leg runner — kill-and-resume
//!   from a checkpoint, querier power-cycles via
//!   [`plan::FaultEvent::QuerierCrash`], and the crash storm.

#![warn(missing_docs)]
// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]

pub mod delayed;
pub mod injector;
pub mod outage;
pub mod plan;
pub mod recovery;
pub mod scenario;

pub use delayed::{DelayedConfig, DelayedOutcome};
pub use injector::PlanInjector;
pub use plan::{FaultEvent, FaultPlan, PlanParseError, PlannedFault};
pub use recovery::{RecoveryConfig, RecoveryOutcome, StormConfig, StormOutcome};
