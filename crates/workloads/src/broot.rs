//! B-Root-like trace generation.
//!
//! The paper replays proprietary DITL captures of B-Root (Table 1:
//! B-Root-16, B-Root-17a, B-Root-17b). Those traces cannot be shipped,
//! so this generator produces traces with the same *statistical shape* —
//! the properties every experiment in the paper actually depends on:
//!
//! - mean rate ~38 k q/s with slow time-of-day style variation
//!   (Figure 8 validates per-second rate tracking),
//! - Poisson-like inter-arrivals at microsecond scale (Figures 6, 7),
//! - ~1 M distinct clients with Zipf per-client load and bursty
//!   temporal locality, jointly calibrated so that ~1 % of clients
//!   carry ~3/4 of all queries, ~80 % send <10 queries (Figure 15c),
//!   and a 20 s window sees ~55-60 k distinct sources at full scale
//!   (the driver of Figure 13's connection counts) — verify with
//!   `cargo run --release -p ldp-bench --bin calibrate_broot`,
//! - 72.3 % of queries with the EDNS DO bit (§5.1) and ~3 % over TCP
//!   (§5.2),
//! - root-server name mix: mostly junk (NXDOMAIN) plus real TLD
//!   referrals.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};

use dns_wire::{RecordType, Transport};
use ldp_rng::SplitMix64;
use ldp_trace::TraceEntry;

use crate::zipf::Zipf;

/// The TLD labels used for "valid" root queries (a representative
/// subset; the zone builder delegates each of these).
pub const TLDS: &[&str] = &[
    "com", "net", "org", "edu", "gov", "mil", "int", "arpa", "io", "uk", "de", "jp", "fr", "nl",
    "br", "au", "cn", "ru", "info", "biz", "xyz", "online", "top", "site", "club", "app", "dev",
];

/// Specification for a B-Root-like trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BRootSpec {
    /// Trace duration, seconds (paper: 3600 for -16/-17a, 1200 for -17b).
    pub duration_secs: f64,
    /// Mean query rate, q/s (paper: median 38 k).
    pub mean_rate: f64,
    /// Distinct client population (paper: ~1.07 M - 1.17 M).
    pub clients: usize,
    /// Zipf exponent of the per-client load distribution.
    pub zipf_s: f64,
    /// Fraction of queries with the DO bit set (72.3 % as of 2017).
    pub do_fraction: f64,
    /// Fraction of queries over TCP (~3 %).
    pub tcp_fraction: f64,
    /// Fraction of queries for names under real TLDs (answered with a
    /// referral); the rest are junk names (NXDOMAIN at the root).
    pub valid_fraction: f64,
    /// Amplitude of the slow sinusoidal rate modulation (0.0–1.0).
    pub rate_wave: f64,
    /// Temporal locality: the probability that a query *continues a
    /// burst* from a recently active client instead of being a fresh
    /// Zipf draw. Real resolvers query in episodes; without this, the
    /// active-client set (and thus the §5.2 concurrent-connection
    /// counts) comes out several times too large, while with a plain
    /// shared pool the per-client load CDF (Figure 15c) flattens.
    /// Burst continuation picks a *recency-biased* (geometric) entry
    /// from the recent-client stack, so light clients appear once in a
    /// tight burst and heavy Zipf ranks stay continuously active.
    pub locality: f64,
    /// Depth of the recent-client stack bursts draw from.
    pub active_pool: usize,
    /// Server (root) address queries are sent to.
    pub server: SocketAddr,
}

impl BRootSpec {
    /// Full-scale spec shaped like B-Root-17a (Table 1). ~141 M queries:
    /// generation takes minutes and several GB — intended for the real
    /// benchmark harness.
    pub fn b_root_17a() -> Self {
        BRootSpec {
            duration_secs: 3600.0,
            mean_rate: 39_000.0,
            clients: 1_170_000,
            zipf_s: 1.25,
            do_fraction: 0.723,
            tcp_fraction: 0.03,
            valid_fraction: 0.35,
            rate_wave: 0.15,
            locality: 0.45,
            active_pool: 64,
            server: SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 99, 0, 1)), 53),
        }
    }

    /// Full-scale spec shaped like B-Root-16 (Table 1): ~38 k q/s
    /// median, ~1.07 M clients, 2016 DO mix.
    pub fn b_root_16_like() -> Self {
        BRootSpec {
            mean_rate: 38_000.0,
            clients: 1_070_000,
            ..BRootSpec::b_root_17a()
        }
    }

    /// A spec shaped like the 20-minute B-Root-17b subset.
    pub fn b_root_17b() -> Self {
        BRootSpec {
            duration_secs: 1200.0,
            mean_rate: 44_000.0,
            clients: 725_000,
            ..BRootSpec::b_root_17a()
        }
    }

    /// The same distributions at a reduced scale: `scale` divides the
    /// duration-rate product and client count, keeping every ratio the
    /// paper's results depend on. Used by tests and quick experiment
    /// runs.
    pub fn scaled(self, scale: f64) -> Self {
        BRootSpec {
            mean_rate: (self.mean_rate / scale).max(1.0),
            clients: ((self.clients as f64 / scale) as usize).max(10),
            ..self
        }
    }

    /// Generate the trace (time-ordered).
    pub fn generate(&self, seed: u64) -> Vec<TraceEntry> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let zipf = Zipf::new(self.clients, self.zipf_s);
        let expected = (self.duration_secs * self.mean_rate) as usize;
        let mut out = Vec::with_capacity(expected + expected / 8);
        // Recent-client stack for the burst model.
        let stack_cap = self.active_pool.max(1);
        let mut recent: std::collections::VecDeque<usize> =
            std::collections::VecDeque::with_capacity(stack_cap);

        let mut t = 0.0f64;
        let mut i = 0u64;
        while t < self.duration_secs {
            // Inhomogeneous Poisson arrivals: rate modulated by a slow
            // sine (period = trace duration) so per-second rates vary as
            // in real traffic.
            let phase = 2.0 * std::f64::consts::PI * t / self.duration_secs;
            let rate = self.mean_rate * (1.0 + self.rate_wave * phase.sin());
            let gap = -(1.0 - rng.gen::<f64>()).ln() / rate;
            t += gap;
            if t >= self.duration_secs {
                break;
            }
            let client_rank = if !recent.is_empty() && rng.gen::<f64>() < self.locality {
                // Continue a burst: geometric recency bias (depth 0 =
                // the most recent client).
                let mut depth = 0usize;
                while depth + 1 < recent.len() && rng.gen::<f64>() < 0.5 {
                    depth += 1;
                }
                recent[depth]
            } else {
                let rank = zipf.sample(&mut rng);
                recent.push_front(rank);
                recent.truncate(stack_cap);
                rank
            };
            let src = client_addr(client_rank);
            let qname = if rng.gen::<f64>() < self.valid_fraction {
                let tld = TLDS[rng.gen_range(0..TLDS.len())];
                format!("w{}.example.{}", i % 100_000, tld)
            } else {
                // Root junk: random nonexistent TLDs.
                format!("junk{}.invalid{}", i, rng.gen_range(0..100_000))
            };
            let mut entry = TraceEntry::query(
                (t * 1e6) as u64,
                src,
                self.server,
                (i & 0xffff) as u16,
                qname.parse().expect("valid name"),
                if rng.gen::<f64>() < 0.1 {
                    RecordType::AAAA
                } else {
                    RecordType::A
                },
            );
            if rng.gen::<f64>() < self.do_fraction {
                entry.message.set_dnssec_ok(true);
            }
            if rng.gen::<f64>() < self.tcp_fraction {
                entry.transport = Transport::Tcp;
            }
            out.push(entry);
            i += 1;
        }
        out
    }
}

/// Deterministic client address for a Zipf rank: spread across
/// 100.64.0.0/10-style space, one address per rank.
pub fn client_addr(rank: usize) -> SocketAddr {
    let ip = Ipv4Addr::new(
        100,
        64 + ((rank >> 16) & 0x3f) as u8,
        ((rank >> 8) & 0xff) as u8,
        (rank & 0xff) as u8,
    );
    // Vary source port by rank too (recursives use ephemeral ports).
    SocketAddr::new(IpAddr::V4(ip), 1024 + (rank % 60_000) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_trace::TraceStats;
    use std::collections::HashMap;

    fn small() -> Vec<TraceEntry> {
        // 60 s at ~2 k q/s with 10 k clients: fast enough for tests.
        let spec = BRootSpec {
            duration_secs: 60.0,
            mean_rate: 2000.0,
            clients: 10_000,
            ..BRootSpec::b_root_17a()
        };
        spec.generate(42)
    }

    #[test]
    fn rate_close_to_spec() {
        let t = small();
        let stats = TraceStats::compute(&t).unwrap();
        assert!(
            (stats.mean_rate - 2000.0).abs() < 200.0,
            "mean rate {}",
            stats.mean_rate
        );
    }

    #[test]
    fn time_ordered() {
        let t = small();
        assert!(t.windows(2).all(|w| w[0].time_us <= w[1].time_us));
    }

    #[test]
    fn do_fraction_matches() {
        let t = small();
        let frac = t.iter().filter(|e| e.message.dnssec_ok()).count() as f64 / t.len() as f64;
        assert!((frac - 0.723).abs() < 0.03, "DO fraction {frac}");
    }

    #[test]
    fn tcp_fraction_matches() {
        let t = small();
        let frac =
            t.iter().filter(|e| e.transport == Transport::Tcp).count() as f64 / t.len() as f64;
        assert!((frac - 0.03).abs() < 0.01, "TCP fraction {frac}");
    }

    #[test]
    fn client_load_is_heavy_tailed() {
        let t = small();
        let mut per_client: HashMap<std::net::IpAddr, usize> = HashMap::new();
        for e in &t {
            *per_client.entry(e.src.ip()).or_default() += 1;
        }
        let mut loads: Vec<usize> = per_client.values().copied().collect();
        loads.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = loads.iter().sum();
        let top1pct = loads.len().div_ceil(100);
        let top_share: usize = loads.iter().take(top1pct).sum();
        let share = top_share as f64 / total as f64;
        // Figure 15c shape: a tiny fraction of clients dominates. With a
        // smaller population, the skew softens; still expect > 40 %.
        assert!(share > 0.4, "top 1% share {share}");
        // Most clients are low-volume.
        let low = loads.iter().filter(|&&l| l < 10).count() as f64 / loads.len() as f64;
        assert!(low > 0.5, "low-volume fraction {low}");
    }

    #[test]
    fn rate_varies_over_time() {
        let spec = BRootSpec {
            duration_secs: 100.0,
            mean_rate: 1000.0,
            clients: 1000,
            rate_wave: 0.3,
            ..BRootSpec::b_root_17a()
        };
        let t = spec.generate(7);
        let mut rates = ldp_metrics_rate(&t);
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let min = rates[2]; // skip edge buckets
        let max = rates[rates.len() - 3];
        assert!(max > min * 1.2, "rate varies: {min}..{max}");
    }

    fn ldp_metrics_rate(t: &[TraceEntry]) -> Vec<f64> {
        let mut counts = vec![0u64; 101];
        let t0 = t[0].time_us;
        for e in t {
            let idx = ((e.time_us - t0) / 1_000_000) as usize;
            counts[idx.min(100)] += 1;
        }
        counts.into_iter().map(|c| c as f64).collect()
    }

    #[test]
    fn deterministic() {
        let spec = BRootSpec {
            duration_secs: 5.0,
            mean_rate: 500.0,
            clients: 100,
            ..BRootSpec::b_root_17a()
        };
        assert_eq!(spec.generate(1), spec.generate(1));
        assert_ne!(spec.generate(1), spec.generate(2));
    }

    #[test]
    fn valid_and_junk_mix() {
        let t = small();
        let valid = t
            .iter()
            .filter(|e| {
                let n = e.qname().unwrap().to_string();
                TLDS.iter().any(|tld| n.ends_with(&format!(".{tld}.")))
            })
            .count() as f64
            / t.len() as f64;
        assert!((valid - 0.35).abs() < 0.05, "valid fraction {valid}");
    }

    #[test]
    fn scaled_preserves_ratios() {
        let full = BRootSpec::b_root_17a();
        let small = full.scaled(1000.0);
        assert_eq!(small.do_fraction, full.do_fraction);
        assert_eq!(small.tcp_fraction, full.tcp_fraction);
        assert!((small.mean_rate - 39.0).abs() < 0.1);
        assert_eq!(small.clients, 1170);
    }

    #[test]
    fn client_addr_injective_for_small_ranks() {
        let mut seen = std::collections::HashSet::new();
        for rank in 0..100_000 {
            assert!(seen.insert(client_addr(rank)), "collision at {rank}");
        }
    }
}
