//! # ldp-metrics
//!
//! Measurement utilities shared by LDplayer's evaluation harness: exact
//! quantile summaries (the medians/quartiles/5th/95th percentiles in the
//! paper's box plots), empirical CDFs (Figures 7, 8, 15c), per-second
//! rate series (Figure 8) and time-series resource samplers (Figures
//! 13/14).

#![warn(missing_docs)]

pub mod cdf;
pub mod rate;
pub mod summary;
mod timeseries;

pub use cdf::Cdf;
pub use rate::RateSeries;
pub use summary::Summary;
pub use timeseries::TimeSeries;
