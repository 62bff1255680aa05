//! # workloads
//!
//! Trace generators standing in for the paper's proprietary captures
//! (Table 1), each calibrated to the published statistics:
//!
//! - [`synthetic`] — fixed inter-arrival traces syn-0..syn-4 for replay
//!   timing validation (Figures 6, 7).
//! - [`broot`] — B-Root-like root-server traffic: ~38 k q/s, ~1 M
//!   clients with Zipf per-client load, 72.3 % DO, 3 % TCP (Figures 8,
//!   9, 10, 11, 13, 14, 15).
//! - [`recursive`] — Rec-17-like department-resolver traffic across
//!   ~549 zones (hierarchy-emulation experiments).
//! - [`attack`] — DoS attack overlays (random-subdomain floods), the
//!   stress-testing application the paper motivates.
//! - [`zipf`] — the heavy-tail sampler underlying the above.

#![warn(missing_docs)]

pub mod attack;
pub mod broot;
pub mod recursive;
pub mod synthetic;
pub mod zipf;

pub use attack::AttackSpec;
pub use broot::{client_addr, BRootSpec};
pub use recursive::RecursiveSpec;
pub use synthetic::SyntheticTraceSpec;
pub use zipf::Zipf;
