//! # LDplayer
//!
//! A Rust reproduction of **LDplayer: DNS Experimentation at Scale**
//! (Liang Zhu and John Heidemann, IMC 2018): a configurable,
//! general-purpose DNS experimentation framework that replays DNS traces
//! at scale — many zones, multiple levels of the DNS hierarchy emulated
//! on a single server, high query rates and diverse query sources — and
//! supports "what-if" studies by mutating traces (all-DNSSEC, all-TCP,
//! all-TLS).
//!
//! This facade crate re-exports the workspace's crates:
//!
//! - [`wire`] — the DNS wire protocol, from scratch.
//! - [`zone`] — zone files, authoritative lookup semantics, split-horizon
//!   views, DNSSEC size simulation.
//! - [`server`] — the authoritative server engine (meta-DNS-server).
//! - [`resolver`] — a recursive resolver with cache and in-flight query
//!   aggregation (delayed hits).
//! - [`cache`] — the resolver cache subsystem: capacity-bounded store
//!   with pluggable deterministic eviction (LRU / LFU-lite /
//!   delay-aware) and RFC 2308 negative caching.
//! - [`netsim`] — the deterministic network simulator (UDP/TCP/TLS
//!   cost models) used by the resource and latency experiments.
//! - [`trace`] — pcap/text/binary trace formats, converters and the
//!   query mutator.
//! - [`zone_construct`] — rebuild zone files from traces (paper §2.3).
//! - [`proxy`] — the recursive/authoritative proxies that rewrite packet
//!   addresses for hierarchy emulation (paper §2.4).
//! - [`replay`] — the distributed query engine: controller, distributors
//!   and queriers with accurate timing (paper §2.6).
//! - [`workloads`] — synthetic and B-Root-like trace generators.
//! - [`metrics`] — quantiles, CDFs, rate series.
//! - [`core`] — orchestration: experiment configs, hierarchy-emulation
//!   assembly, replay sessions, what-if APIs.
//! - [`chaos`] — deterministic fault injection: declarative fault plans
//!   (loss bursts, delay spikes, link cuts, server crash/restart)
//!   scheduled in virtual time, plus the root-letter outage study.
//! - [`guard`] — overload and recovery for replay: retry budgets, the
//!   admission window, checkpoints and the in-flight state they carry.
//! - [`telemetry`] — virtual-time tracing into a recorder each
//!   simulator owns: compact events, per-query lifecycle marks
//!   (enqueue→send→retx→response→match), stage-latency breakdowns and
//!   folded-stack flamegraph dumps.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use ldplayer::workloads::synthetic::SyntheticTraceSpec;
//!
//! // Generate a 1-second synthetic trace at 1 ms inter-arrival.
//! let trace = SyntheticTraceSpec::fixed_interarrival(0.001, 1.0).generate(42);
//! assert_eq!(trace.len(), 1000);
//! ```

pub use dns_resolver as resolver;
pub use dns_server as server;
pub use dns_wire as wire;
pub use dns_zone as zone;
pub use ldp_cache as cache;
pub use ldp_chaos as chaos;
pub use ldp_core as core;
pub use ldp_guard as guard;
pub use ldp_metrics as metrics;
pub use ldp_proxy as proxy;
pub use ldp_replay as replay;
pub use ldp_shard as shard;
pub use ldp_telemetry as telemetry;
pub use ldp_trace as trace;
pub use netsim;
pub use workloads;
pub use zone_construct;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
