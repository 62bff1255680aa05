//! # dns-server
//!
//! The authoritative DNS server of the LDplayer reproduction — the
//! "meta-DNS-server" of paper §2.4. One [`ServerEngine`] holds
//! split-horizon views and answers by query source address; the engine
//! runs over two interchangeable transports:
//!
//! - [`SimDnsServer`] — a [`netsim`] host, used by the deterministic
//!   resource/latency experiments (§5.2);
//! - [`socket_server`] — real UDP/TCP sockets (blocking `std::net` and
//!   threads) with idle-timeout connection management, used by the
//!   replay fidelity and throughput experiments (§4).
//!
//! Both answer through [`ServerEngine::answer_into`] in an
//! [`AnswerScratch`] they own, one per receive loop.

#![warn(missing_docs)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod engine;
pub mod rrl;
pub mod scratch;
pub mod sim_server;
pub mod socket_server;

pub use engine::ServerEngine;
pub use rrl::{RateLimiter, RrlAction, RrlBank, RrlConfig, RrlStats};
pub use scratch::AnswerScratch;
pub use sim_server::SimDnsServer;
pub use socket_server::{spawn, RunningServer, ServerConfig, ServerCounters};
