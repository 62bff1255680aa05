//! # ldp-proxy
//!
//! The server proxies of paper §2.4: the address-rewriting mechanism
//! that lets a *single* authoritative server (the meta-DNS-server)
//! emulate every level of the DNS hierarchy. The recursive's iterative
//! queries, addressed to public nameserver addresses, are captured,
//! their source rewritten to the original query destination address
//! (OQDA) — the meta server's split-horizon views key on exactly that —
//! and the replies are rewritten back so the recursive never notices.
//!
//! [`SimProxy`] deploys the [`rewrite`] algebra as a netsim host owning
//! all public NS addresses.

#![warn(missing_docs)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod rewrite;
mod sim_proxy;

pub use rewrite::{rewrite_inbound, rewrite_outbound, Flow, FlowTable};
pub use sim_proxy::{ProxyStats, SimProxy};
