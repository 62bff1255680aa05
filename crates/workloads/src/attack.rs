//! Attack workloads: the paper motivates LDplayer with "how does the
//! current server operate under the stress of a DoS attack?" (§1, §5's
//! future applications). This module generates a random-subdomain
//! (water-torture) flood from a spoofed-source botnet, to be mixed over
//! a base trace: unique junk labels under a victim zone, defeating
//! caches and hitting the authoritative with NXDOMAINs.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};

use dns_wire::RecordType;
use ldp_rng::SplitMix64;
use ldp_trace::TraceEntry;

/// Specification of an attack trace.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// Queries per second during the attack.
    pub rate: f64,
    /// Attack duration, seconds.
    pub duration_secs: f64,
    /// When the attack starts, seconds into the trace timeline.
    pub start_secs: f64,
    /// Number of attacking sources (spoofed or real).
    pub bots: usize,
    /// The zone under attack.
    pub victim_zone: String,
    /// Target server.
    pub server: SocketAddr,
}

impl Default for AttackSpec {
    fn default() -> Self {
        AttackSpec {
            rate: 10_000.0,
            duration_secs: 60.0,
            start_secs: 0.0,
            bots: 5_000,
            victim_zone: "example.com".into(),
            server: SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 99, 0, 1)), 53),
        }
    }
}

impl AttackSpec {
    /// Generate the attack trace (time-ordered).
    pub fn generate(&self, seed: u64) -> Vec<TraceEntry> {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xa77ac4);
        let n = (self.rate * self.duration_secs) as usize;
        let mut out = Vec::with_capacity(n);
        let mut t = self.start_secs;
        let mut i = 0u64;
        while t < self.start_secs + self.duration_secs {
            t += -(1.0 - rng.gen::<f64>()).ln() / self.rate;
            if t >= self.start_secs + self.duration_secs {
                break;
            }
            let bot = rng.gen_range(0..self.bots);
            let src = SocketAddr::new(
                IpAddr::V4(Ipv4Addr::new(
                    172,
                    16 + ((bot >> 16) & 0x0f) as u8,
                    ((bot >> 8) & 0xff) as u8,
                    (bot & 0xff) as u8,
                )),
                1024 + (bot % 60_000) as u16,
            );
            // Unique label every time: no cache can help.
            let qname = format!("x{:016x}.{}", rng.gen::<u64>(), self.victim_zone);
            out.push(TraceEntry::query(
                (t * 1e6) as u64,
                src,
                self.server,
                (i & 0xffff) as u16,
                qname.parse().expect("valid name"),
                RecordType::A,
            ));
            i += 1;
        }
        out
    }

    /// Merge an attack into a base trace, keeping global time order —
    /// the "what if this trace happened under attack" mutation.
    pub fn overlay(&self, base: &[TraceEntry], seed: u64) -> Vec<TraceEntry> {
        let mut merged: Vec<TraceEntry> = base.to_vec();
        merged.extend(self.generate(seed));
        merged.sort_by_key(|e| e.time_us);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticTraceSpec;
    use std::collections::HashSet;

    #[test]
    fn random_subdomain_names_are_unique() {
        let spec = AttackSpec {
            rate: 1000.0,
            duration_secs: 2.0,
            ..Default::default()
        };
        let t = spec.generate(1);
        assert!(t.len() > 1500);
        let names: HashSet<String> = t.iter().map(|e| e.qname().unwrap().to_string()).collect();
        assert_eq!(names.len(), t.len(), "every attack name unique");
        assert!(names.iter().all(|n| n.ends_with("example.com.")));
    }

    #[test]
    fn bots_bounded() {
        let spec = AttackSpec {
            rate: 2000.0,
            duration_secs: 2.0,
            bots: 50,
            ..Default::default()
        };
        let t = spec.generate(4);
        let sources: HashSet<IpAddr> = t.iter().map(|e| e.src.ip()).collect();
        assert!(sources.len() <= 50);
    }

    #[test]
    fn overlay_interleaves_in_time_order() {
        let base = SyntheticTraceSpec::fixed_interarrival(0.01, 10.0).generate(1);
        let spec = AttackSpec {
            rate: 200.0,
            duration_secs: 4.0,
            start_secs: 3.0,
            ..Default::default()
        };
        let merged = spec.overlay(&base, 5);
        assert!(merged.len() > base.len());
        assert!(merged.windows(2).all(|w| w[0].time_us <= w[1].time_us));
        // Attack confined to its window.
        let attack_times: Vec<f64> = merged
            .iter()
            .filter(|e| e.src.ip().to_string().starts_with("172."))
            .map(|e| e.time_us as f64 / 1e6)
            .collect();
        assert!(attack_times.iter().all(|&t| (3.0..7.1).contains(&t)));
    }

    #[test]
    fn deterministic() {
        let spec = AttackSpec::default();
        let a = AttackSpec {
            duration_secs: 1.0,
            ..spec.clone()
        }
        .generate(9);
        let b = AttackSpec {
            duration_secs: 1.0,
            ..spec
        }
        .generate(9);
        assert_eq!(a, b);
    }
}
