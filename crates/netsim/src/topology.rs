//! Network topology: per-path delay, loss and transmission rate.
//!
//! The paper's testbeds (Figures 5 and 12) are stars around an IXP LAN
//! with configurable client–server RTT; this model captures exactly the
//! knobs those experiments vary.

use std::collections::BTreeMap;
use std::net::IpAddr;

use crate::time::SimDuration;

/// Properties of the path between two hosts (one direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathConfig {
    /// Round-trip propagation time for the pair; one-way delay is half.
    pub rtt: SimDuration,
    /// Link rate in bits per second used for transmission delay
    /// (serialization); `None` disables transmission delay.
    pub bandwidth_bps: Option<u64>,
    /// Per-datagram drop probability (failure injection; TCP segments
    /// are not dropped). Each datagram's draw is a hash of
    /// `SimConfig::seed` and the datagram — the instant it is sent, both
    /// endpoints and its length ([`crate::packet_draw`]) — so draws are
    /// independent of one another and of any earlier send, and datagrams
    /// identical in instant, endpoints and length share a fate.
    pub loss: f64,
}

impl Default for PathConfig {
    fn default() -> Self {
        // The paper's LAN: 1 Gb/s, <1 ms RTT.
        PathConfig {
            rtt: SimDuration::from_micros(500),
            bandwidth_bps: Some(1_000_000_000),
            loss: 0.0,
        }
    }
}

impl PathConfig {
    /// A path with the given RTT and the default 1 Gb/s rate.
    pub fn with_rtt(rtt: SimDuration) -> Self {
        PathConfig {
            rtt,
            ..Default::default()
        }
    }

    /// One-way latency for a packet of `bytes` bytes: propagation (half
    /// the RTT) plus serialization at the link rate.
    pub fn one_way(&self, bytes: usize) -> SimDuration {
        let prop = self.rtt.half();
        match self.bandwidth_bps {
            Some(bps) if bps > 0 => prop + SimDuration::from_nanos(tx_ns(bytes, bps)),
            _ => prop,
        }
    }
}

/// Nanoseconds to serialize `bytes` at `bps` bits per second, rounded
/// down: in `u64` whenever `bytes × 8e9` fits (every packet a simulated
/// link carries), else [`tx_ns_wide`].
fn tx_ns(bytes: usize, bps: u64) -> u64 {
    match (bytes as u64).checked_mul(8_000_000_000) {
        Some(bit_ns) => bit_ns / bps,
        None => tx_ns_wide(bytes, bps),
    }
}

/// [`tx_ns`] in `u128`: the fallback, and the reference the tests hold
/// the `u64` form to.
fn tx_ns_wide(bytes: usize, bps: u64) -> u64 {
    (bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64
}

/// The topology: a default path plus per-(src,dst) overrides. Lookups
/// try (src,dst), then the default, so an experiment can give each
/// client a different RTT to the server. No study in the tree
/// does yet — Figure 15's RTT sweep builds one uniform topology per
/// RTT — so the overrides are exercised by `ldp-chaos`'s scenario
/// sweep alone, which draws per-pair paths for every cell.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    default: PathConfig,
    per_pair: BTreeMap<(IpAddr, IpAddr), PathConfig>,
}

impl Topology {
    /// Topology where every path uses `default`.
    pub fn uniform(default: PathConfig) -> Self {
        Topology {
            default,
            ..Default::default()
        }
    }

    /// Override the path for a specific ordered pair.
    pub fn set_pair(&mut self, src: IpAddr, dst: IpAddr, cfg: PathConfig) {
        self.per_pair.insert((src, dst), cfg);
    }

    /// Resolve the path config for a packet from `src` to `dst`.
    pub fn path(&self, src: IpAddr, dst: IpAddr) -> PathConfig {
        self.per_pair
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default)
    }

    /// The minimum one-way propagation latency over the default path
    /// and the per-pair overrides for which `counts(src, dst)` holds —
    /// the conservative lookahead bound for sharded simulation
    /// (`ldp-shard`, which counts the pairs whose hosts sit on
    /// different shards): no packet sent at time `t` can cross before
    /// `t + min_one_way_latency(..)`, so shards may safely process
    /// `[t, t + lookahead)` in parallel.
    ///
    /// Serialization delay is excluded (zero-byte bound): the result is
    /// valid for any packet size.
    pub fn min_one_way_latency(&self, counts: impl Fn(IpAddr, IpAddr) -> bool) -> SimDuration {
        let overrides = self
            .per_pair
            .iter()
            .filter(|((src, dst), _)| counts(*src, *dst));
        overrides
            .map(|(_, cfg)| cfg.rtt.half())
            .fold(self.default.rtt.half(), SimDuration::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn one_way_includes_serialization() {
        let cfg = PathConfig {
            rtt: SimDuration::from_millis(10),
            bandwidth_bps: Some(8_000_000), // 1 MB/s
            loss: 0.0,
        };
        // 1000 bytes at 1 MB/s = 1 ms tx + 5 ms prop.
        assert_eq!(cfg.one_way(1000), SimDuration::from_millis(6));
        // Zero-size packet: pure propagation.
        assert_eq!(cfg.one_way(0), SimDuration::from_millis(5));
    }

    #[test]
    fn serialization_in_u64_equals_the_u128_form_to_the_nanosecond() {
        ldp_rng::check::check(256, |g| {
            // Sizes and rates over their whole ranges, with the small
            // ends (packets, modem to 100 Gb/s links) drawn as often
            // as the huge ones.
            let bytes = (g.u64() >> g.below(64)) as usize;
            let bps = (g.u64() >> g.below(64)).max(1);
            assert_eq!(
                tx_ns(bytes, bps),
                tx_ns_wide(bytes, bps),
                "{bytes} B at {bps} b/s"
            );
        });
    }

    #[test]
    fn no_bandwidth_means_pure_propagation() {
        let cfg = PathConfig {
            rtt: SimDuration::from_millis(10),
            bandwidth_bps: None,
            loss: 0.0,
        };
        assert_eq!(cfg.one_way(1_000_000), SimDuration::from_millis(5));
    }

    #[test]
    fn lookup_precedence() {
        let mut topo = Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(1)));
        topo.set_pair(
            ip("10.0.0.1"),
            ip("10.0.0.9"),
            PathConfig::with_rtt(SimDuration::from_millis(100)),
        );

        assert_eq!(
            topo.path(ip("10.0.0.1"), ip("10.0.0.9")).rtt,
            SimDuration::from_millis(100)
        );
        assert_eq!(
            topo.path(ip("10.0.0.9"), ip("10.0.0.1")).rtt,
            SimDuration::from_millis(1),
            "a pair is one direction"
        );
        assert_eq!(
            topo.path(ip("10.0.0.3"), ip("10.0.0.2")).rtt,
            SimDuration::from_millis(1)
        );
    }
}
