//! Rec-17-like traces: the workload seen by a department-level
//! recursive resolver (Table 1: 91 clients, 20 k queries over an hour,
//! ~549 distinct zones). These drive the hierarchy-emulation
//! experiments: every query must be resolvable by walking root → TLD →
//! SLD through the meta-DNS-server.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};

use dns_wire::RecordType;
use ldp_rng::SplitMix64;
use ldp_trace::TraceEntry;

use crate::zipf::Zipf;

/// Specification for a recursive-resolver workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecursiveSpec {
    /// Trace duration, seconds.
    pub duration_secs: f64,
    /// Mean stub query rate, q/s (Rec-17: ~5.5 q/s).
    pub mean_rate: f64,
    /// Number of stub clients (Rec-17: 91).
    pub clients: usize,
    /// Number of distinct second-level zones queried (Rec-17: 549).
    pub zones: usize,
    /// Zipf exponent over zone popularity.
    pub zipf_s: f64,
    /// Hosts per zone (www, mail, api, ...).
    pub hosts_per_zone: usize,
    /// The recursive resolver the stubs query.
    pub resolver: SocketAddr,
}

impl RecursiveSpec {
    /// A Rec-17-shaped spec (Table 1).
    pub fn rec_17() -> Self {
        RecursiveSpec {
            duration_secs: 3600.0,
            mean_rate: 5.53, // ⇒ ~20 k queries/hour
            clients: 91,
            zones: 549,
            zipf_s: 1.0,
            hosts_per_zone: 4,
            resolver: SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 2, 0, 1)), 53),
        }
    }

    /// The set of second-level zone names this spec queries
    /// (deterministic, independent of the RNG): `z<i>.example-<tld>`.
    pub fn zone_names(&self) -> Vec<String> {
        let tlds = ["com", "net", "org"];
        (0..self.zones)
            .map(|i| format!("zone{}.ex{}.{}", i, i % 40, tlds[i % tlds.len()]))
            .collect()
    }

    /// Host labels per zone.
    pub fn host_labels() -> &'static [&'static str] {
        &["www", "mail", "api", "cdn", "ns1", "login", "static", "img"]
    }

    /// Generate the stub-to-recursive query trace.
    pub fn generate(&self, seed: u64) -> Vec<TraceEntry> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let zone_zipf = Zipf::new(self.zones, self.zipf_s);
        let zones = self.zone_names();
        let hosts = Self::host_labels();
        let n = (self.duration_secs * self.mean_rate) as usize;
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64;
        let mut i = 0u64;
        while t < self.duration_secs {
            t += -(1.0 - rng.gen::<f64>()).ln() / self.mean_rate;
            if t >= self.duration_secs {
                break;
            }
            let client = rng.gen_range(0..self.clients);
            let src = SocketAddr::new(
                IpAddr::V4(Ipv4Addr::new(10, 2, 1, 1 + (client % 250) as u8)),
                20_000 + client as u16,
            );
            let zone = &zones[zone_zipf.sample(&mut rng)];
            let host = hosts[rng.gen_range(0..self.hosts_per_zone.min(hosts.len()))];
            out.push(TraceEntry::query(
                (t * 1e6) as u64,
                src,
                self.resolver,
                (i & 0xffff) as u16,
                format!("{host}.{zone}").parse().expect("valid name"),
                RecordType::A,
            ));
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_trace::TraceStats;
    use std::collections::HashSet;

    fn quick() -> (RecursiveSpec, Vec<TraceEntry>) {
        let spec = RecursiveSpec {
            duration_secs: 600.0,
            mean_rate: 20.0,
            zones: 100,
            ..RecursiveSpec::rec_17()
        };
        let t = spec.generate(11);
        (spec, t)
    }

    #[test]
    fn table1_shape() {
        let spec = RecursiveSpec::rec_17();
        // ~20 k records over the hour.
        let expected = spec.duration_secs * spec.mean_rate;
        assert!((expected - 19_908.0).abs() < 100.0);
        assert_eq!(spec.clients, 91);
        assert_eq!(spec.zone_names().len(), 549);
    }

    #[test]
    fn clients_bounded() {
        let (spec, t) = quick();
        let clients: HashSet<std::net::IpAddr> = t.iter().map(|e| e.src.ip()).collect();
        assert!(clients.len() <= spec.clients);
    }

    #[test]
    fn zones_covered_with_zipf_popularity() {
        let (spec, t) = quick();
        let zone_of = |name: &str| -> String {
            // host.zoneN.exM.tld → drop the host label.
            name.split_once('.').unwrap().1.to_string()
        };
        let mut counts: std::collections::HashMap<String, usize> = Default::default();
        for e in &t {
            *counts
                .entry(zone_of(&e.qname().unwrap().to_string()))
                .or_default() += 1;
        }
        assert!(
            counts.len() > spec.zones / 2,
            "most zones touched: {}",
            counts.len()
        );
        let max = counts.values().max().unwrap();
        let mean = t.len() / counts.len();
        assert!(*max > 3 * mean, "popular zones dominate");
    }

    #[test]
    fn all_names_resolvable_shape() {
        let (spec, t) = quick();
        let zones: HashSet<String> = spec.zone_names().into_iter().collect();
        for e in t.iter().take(200) {
            let name = e.qname().unwrap().to_string();
            let zone = name.split_once('.').unwrap().1.trim_end_matches('.');
            assert!(zones.contains(zone), "query {name} maps to a known zone");
        }
    }

    #[test]
    fn rate_matches() {
        let (_, t) = quick();
        let stats = TraceStats::compute(&t).unwrap();
        assert!(
            (stats.mean_rate - 20.0).abs() < 3.0,
            "rate {}",
            stats.mean_rate
        );
    }

    #[test]
    fn deterministic() {
        let spec = RecursiveSpec {
            duration_secs: 60.0,
            ..RecursiveSpec::rec_17()
        };
        assert_eq!(spec.generate(5), spec.generate(5));
    }
}
