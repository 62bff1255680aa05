//! Real-socket replay sessions: tie the threaded query engine to a
//! capture server on loopback and compute the paper's §4 fidelity
//! metrics (query-time error, inter-arrival distributions, per-second
//! rate differences).

use std::sync::Arc;

use dns_server::ServerEngine;
use dns_zone::Catalog;
use ldp_metrics::{Cdf, RateSeries, Summary};
use ldp_replay::{replay, Arrival, CaptureServer, ReplayConfig};
use ldp_trace::{Mutation, Mutator, TraceEntry};

/// Fidelity metrics from one replay (paper §4.2).
#[derive(Debug)]
pub struct FidelityReport {
    /// Per-query absolute-time error in milliseconds (arrival time
    /// relative to the first query, replayed minus original) — the
    /// quantity in Figure 6.
    pub time_errors_ms: Vec<f64>,
    /// Summary of the errors.
    pub error_summary: Summary,
    /// Original inter-arrival times (seconds) — dashed lines, Figure 7.
    pub original_interarrivals: Vec<f64>,
    /// Replayed inter-arrival times (seconds) — dots, Figure 7.
    pub replayed_interarrivals: Vec<f64>,
    /// Per-second rate relative differences — Figure 8's x-axis.
    pub rate_differences: Vec<f64>,
    /// Queries sent / captured.
    pub sent: u64,
    /// Queries matched between original and replay.
    pub matched: usize,
}

impl FidelityReport {
    /// KS distance between original and replayed inter-arrival CDFs.
    pub fn interarrival_ks(&self) -> f64 {
        match (
            Cdf::of(&self.original_interarrivals),
            Cdf::of(&self.replayed_interarrivals),
        ) {
            (Some(a), Some(b)) => a.ks_distance(&b),
            _ => 1.0,
        }
    }
}

/// Configuration for a fidelity session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Replay engine configuration (targets are filled in by the
    /// session).
    pub replay: ReplayConfig,
    /// Capture server worker threads.
    pub capture_workers: usize,
    /// Answer captured queries from this wildcard zone origin, or none
    /// (pure sink).
    pub answer_from: Option<String>,
    /// Skip this many seconds at the start when computing metrics (the
    /// paper ignores the first 20 s to avoid startup transients).
    pub skip_secs: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            replay: ReplayConfig::default(),
            capture_workers: 2,
            answer_from: None,
            skip_secs: 0.0,
        }
    }
}

/// Replay `trace` over UDP loopback against a capture server and
/// compare arrival timing against the original trace.
///
/// The trace gets the unique-prefix tag the paper uses for
/// query/response matching; arrivals are matched back by that tag.
pub fn run_fidelity_session(trace: &[TraceEntry], config: &SessionConfig) -> FidelityReport {
    assert!(!trace.is_empty());
    // Tag queries uniquely (paper §4.2: "prepending a unique string to
    // every query name in each trace") and replay over UDP — the §4
    // validation replays "B-Root and synthetic traces over UDP".
    let mut tagged = trace.to_vec();
    Mutator::new(vec![
        Mutation::UniquePrefix { tag: "q".into() },
        Mutation::SetTransport(dns_wire::Transport::Udp),
    ])
    .apply(&mut tagged);

    let engine = config.answer_from.as_ref().map(|origin| {
        let mut catalog = Catalog::new();
        catalog.insert(crate::experiment::wildcard_zone(origin));
        Arc::new(ServerEngine::with_catalog(catalog))
    });
    let capture = CaptureServer::start(config.capture_workers, engine).expect("bind capture");
    let addr = capture.addr;

    let mut replay_config = config.replay.clone();
    replay_config.target_udp = addr;
    replay_config.target_tcp = addr;
    let report = replay(&tagged, &replay_config);

    // Allow in-flight datagrams to land.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let arrivals = capture.finish();

    analyze(trace, &arrivals, report.total_sent, config.skip_secs)
}

/// Compare captured arrivals against the original trace timestamps.
pub fn analyze(
    original: &[TraceEntry],
    arrivals: &[Arrival],
    sent: u64,
    skip_secs: f64,
) -> FidelityReport {
    // Match by sequence tag.
    let mut matched: Vec<(u64, u64)> = Vec::new(); // (orig_us_rel, recv_us_rel)
    let t0_orig = original.first().map(|e| e.time_us).unwrap_or(0);
    let first_recv = arrivals
        .iter()
        .find(|a| a.seq == Some(0))
        .map(|a| a.recv_us)
        .or_else(|| arrivals.first().map(|a| a.recv_us))
        .unwrap_or(0);
    for a in arrivals {
        let Some(seq) = a.seq else { continue };
        let Some(orig) = original.get(seq as usize) else {
            continue;
        };
        matched.push((orig.time_us - t0_orig, a.recv_us.saturating_sub(first_recv)));
    }
    matched.sort_unstable();

    let skip_us = (skip_secs * 1e6) as u64;
    let time_errors_ms: Vec<f64> = matched
        .iter()
        .filter(|(orig_rel, _)| *orig_rel >= skip_us)
        .map(|(orig_rel, recv_rel)| (*recv_rel as f64 - *orig_rel as f64) / 1e3)
        .collect();

    let original_interarrivals: Vec<f64> = original
        .windows(2)
        .map(|w| (w[1].time_us - w[0].time_us) as f64 / 1e6)
        .collect();
    let mut recv_sorted: Vec<u64> = arrivals.iter().map(|a| a.recv_us).collect();
    recv_sorted.sort_unstable();
    let replayed_interarrivals: Vec<f64> = recv_sorted
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e6)
        .collect();

    // Per-second rates.
    let mut orig_rate = RateSeries::per_second();
    for e in original {
        orig_rate.record((e.time_us - t0_orig) as f64 / 1e6);
    }
    let mut replay_rate = RateSeries::per_second();
    for &(_, recv_rel) in &matched {
        replay_rate.record(recv_rel as f64 / 1e6);
    }
    let rate_differences = replay_rate.relative_difference(&orig_rate);

    let error_summary = Summary::of(&time_errors_ms).unwrap_or(Summary {
        count: 0,
        min: 0.0,
        p5: 0.0,
        q1: 0.0,
        median: 0.0,
        q3: 0.0,
        p95: 0.0,
        max: 0.0,
        mean: 0.0,
        stddev: 0.0,
    });

    FidelityReport {
        time_errors_ms,
        error_summary,
        original_interarrivals,
        replayed_interarrivals,
        rate_differences,
        sent,
        matched: matched.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::SyntheticTraceSpec;

    #[test]
    fn fidelity_session_small_synthetic() {
        // 2 s of 10 ms inter-arrivals (syn-2-like, shortened).
        let trace = SyntheticTraceSpec::fixed_interarrival(0.01, 2.0).generate(1);
        let config = SessionConfig {
            answer_from: Some("example.com".into()),
            ..Default::default()
        };
        let report = run_fidelity_session(&trace, &config);
        assert_eq!(report.sent, 200);
        assert!(
            report.matched >= 195,
            "captured nearly all: {}",
            report.matched
        );
        // Replay fidelity: quartiles within a few ms on loopback (the
        // paper reports ±2.5 ms; CI noise gets slack).
        let s = &report.error_summary;
        assert!(s.q1.abs() < 10.0, "q1 {}", s.q1);
        assert!(s.q3.abs() < 10.0, "q3 {}", s.q3);
        // Inter-arrival distribution matches: for a *fixed* 10 ms
        // inter-arrival the original CDF is a single step, so KS
        // distance is degenerate (any ±0.1 ms jitter costs ~0.5);
        // compare quantiles instead, as Figure 7 does visually.
        let replayed = ldp_metrics::Cdf::of(&report.replayed_interarrivals).unwrap();
        let med = replayed.value_at(0.5);
        assert!(
            (med - 0.01).abs() < 0.003,
            "replayed median inter-arrival {med}"
        );
        let spread = replayed.value_at(0.9) - replayed.value_at(0.1);
        assert!(spread < 0.01, "replayed inter-arrival spread {spread}");
    }

    #[test]
    fn analyze_perfect_replay_zero_error() {
        let trace = SyntheticTraceSpec::fixed_interarrival(0.001, 0.1).generate(1);
        let t0 = trace[0].time_us;
        let arrivals: Vec<Arrival> = trace
            .iter()
            .enumerate()
            .map(|(i, e)| Arrival {
                seq: Some(i as u64),
                recv_us: e.time_us - t0,
                bytes: 64,
            })
            .collect();
        let report = analyze(&trace, &arrivals, trace.len() as u64, 0.0);
        assert_eq!(report.matched, trace.len());
        assert!(report.error_summary.max.abs() < 1e-9);
        assert!(report.rate_differences.iter().all(|d| d.abs() < 1e-9));
        assert!(report.interarrival_ks() < 1e-9);
    }

    #[test]
    fn analyze_shifted_replay_detects_error() {
        let trace = SyntheticTraceSpec::fixed_interarrival(0.01, 1.0).generate(1);
        let t0 = trace[0].time_us;
        // Every arrival 5 ms late except the first (anchor).
        let arrivals: Vec<Arrival> = trace
            .iter()
            .enumerate()
            .map(|(i, e)| Arrival {
                seq: Some(i as u64),
                recv_us: e.time_us - t0 + if i == 0 { 0 } else { 5_000 },
                bytes: 64,
            })
            .collect();
        let report = analyze(&trace, &arrivals, trace.len() as u64, 0.0);
        assert!((report.error_summary.median - 5.0).abs() < 0.1);
    }

    #[test]
    fn skip_secs_drops_startup() {
        let trace = SyntheticTraceSpec::fixed_interarrival(0.1, 10.0).generate(1);
        let t0 = trace[0].time_us;
        let arrivals: Vec<Arrival> = trace
            .iter()
            .enumerate()
            .map(|(i, e)| Arrival {
                seq: Some(i as u64),
                recv_us: e.time_us - t0,
                bytes: 64,
            })
            .collect();
        let all = analyze(&trace, &arrivals, trace.len() as u64, 0.0);
        let skipped = analyze(&trace, &arrivals, trace.len() as u64, 5.0);
        assert!(skipped.time_errors_ms.len() < all.time_errors_ms.len());
    }
}
