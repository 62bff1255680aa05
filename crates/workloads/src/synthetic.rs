//! Synthetic traces with fixed inter-arrival times — the paper's syn-0
//! through syn-4 (Table 1), used to validate replay timing across four
//! orders of magnitude of query rate (Figures 6 and 7).

use std::net::{IpAddr, Ipv4Addr, SocketAddr};

use dns_wire::RecordType;
use ldp_rng::SplitMix64;
use ldp_trace::TraceEntry;

/// Specification for a fixed-inter-arrival synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticTraceSpec {
    /// Gap between consecutive queries, seconds.
    pub interarrival_secs: f64,
    /// Total trace duration, seconds.
    pub duration_secs: f64,
    /// Size of the client-IP pool queries rotate through (Table 1 shows
    /// ~10 k for the fast traces).
    pub client_pool: usize,
    /// Destination server address.
    pub server: SocketAddr,
}

impl SyntheticTraceSpec {
    /// A spec matching the paper's defaults: 60-minute trace, 10 k
    /// client pool, wildcard-able names under `example.com`.
    pub fn fixed_interarrival(interarrival_secs: f64, duration_secs: f64) -> Self {
        SyntheticTraceSpec {
            interarrival_secs,
            duration_secs,
            client_pool: 10_000,
            server: SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 99, 0, 1)), 53),
        }
    }

    /// The paper's five synthetic traces syn-0..syn-4 (Table 1):
    /// inter-arrivals of 1 s down to 0.1 ms over 60 minutes.
    pub fn paper_series() -> Vec<(String, SyntheticTraceSpec)> {
        [1.0, 0.1, 0.01, 0.001, 0.0001]
            .iter()
            .enumerate()
            .map(|(i, &ia)| {
                (
                    format!("syn-{i}"),
                    SyntheticTraceSpec::fixed_interarrival(ia, 3600.0),
                )
            })
            .collect()
    }

    /// Number of queries this spec will produce.
    fn query_count(&self) -> usize {
        (self.duration_secs / self.interarrival_secs).round() as usize
    }

    /// Generate the trace. Every query carries a unique name (the
    /// paper's trick "to allow us to associate queries with responses
    /// after-the-fact"), all under `example.com` so a wildcard zone
    /// answers them.
    pub fn generate(&self, seed: u64) -> Vec<TraceEntry> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = self.query_count();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let t_us = (i as f64 * self.interarrival_secs * 1e6).round() as u64;
            let client_idx = rng.gen_range(0..self.client_pool);
            // Pool of client addresses across a /16-ish space.
            let ip = Ipv4Addr::new(
                10,
                1 + (client_idx / 65536) as u8,
                ((client_idx / 256) % 256) as u8,
                (client_idx % 256) as u8,
            );
            let src = SocketAddr::new(IpAddr::V4(ip), 10_000 + (client_idx % 50_000) as u16);
            out.push(TraceEntry::query(
                t_us,
                src,
                self.server,
                i as u16,
                format!("u{i}.example.com").parse().expect("valid name"),
                RecordType::A,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_trace::TraceStats;

    #[test]
    fn count_matches_rate() {
        let spec = SyntheticTraceSpec::fixed_interarrival(0.01, 60.0);
        assert_eq!(spec.query_count(), 6000);
        let t = spec.generate(1);
        assert_eq!(t.len(), 6000);
    }

    #[test]
    fn interarrival_is_fixed() {
        let t = SyntheticTraceSpec::fixed_interarrival(0.001, 1.0).generate(1);
        let stats = TraceStats::compute(&t).unwrap();
        assert!((stats.interarrival_mean - 0.001).abs() < 1e-9);
        assert!(stats.interarrival_stddev < 1e-9);
    }

    #[test]
    fn names_are_unique() {
        let t = SyntheticTraceSpec::fixed_interarrival(0.01, 10.0).generate(1);
        let names: std::collections::HashSet<String> =
            t.iter().map(|e| e.qname().unwrap().to_string()).collect();
        assert_eq!(names.len(), t.len());
        assert!(names.iter().all(|n| n.ends_with("example.com.")));
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = SyntheticTraceSpec::fixed_interarrival(0.01, 5.0);
        assert_eq!(spec.generate(7), spec.generate(7));
        assert_ne!(spec.generate(7), spec.generate(8));
    }

    #[test]
    fn paper_series_shapes() {
        let series = SyntheticTraceSpec::paper_series();
        assert_eq!(series.len(), 5);
        assert_eq!(series[0].0, "syn-0");
        // Table 1 record counts: 3.6k, 36k, 360k, 3.6M, 36M.
        assert_eq!(series[0].1.query_count(), 3_600);
        assert_eq!(series[1].1.query_count(), 36_000);
        assert_eq!(series[2].1.query_count(), 360_000);
        assert_eq!(series[3].1.query_count(), 3_600_000);
        assert_eq!(series[4].1.query_count(), 36_000_000);
    }

    #[test]
    fn client_pool_respected() {
        let mut spec = SyntheticTraceSpec::fixed_interarrival(0.001, 30.0);
        spec.client_pool = 100;
        let t = spec.generate(3);
        let clients: std::collections::HashSet<std::net::IpAddr> =
            t.iter().map(|e| e.src.ip()).collect();
        assert!(clients.len() <= 100);
        assert!(clients.len() > 90, "pool mostly covered: {}", clients.len());
    }
}
