//! What-if experiment drivers (paper §5): reusable, parameterized
//! implementations of the DNSSEC-bandwidth experiment (§5.1, Figure 10)
//! and the TCP/TLS resource & latency experiments (§5.2, Figures 11,
//! 13, 14, 15). The bench binaries and integration tests call these
//! with full-scale and reduced-scale parameters respectively.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use dns_server::{ServerEngine, SimDnsServer};
use dns_wire::{Name, Transport};
use dns_zone::dnssec::{sign_zone, SignConfig};
use dns_zone::{Catalog, Zone};
use ldp_metrics::{Summary, TimeSeries};
use ldp_replay::{LatencyLog, LatencyRecord, SimReplayClient};
use ldp_trace::{Mutation, Mutator, TraceEntry};
use netsim::{
    CpuModel, HostStats, MemoryModel, PathConfig, SimConfig, SimDuration, SimTime, Simulator,
    Topology,
};

/// Result of the DNSSEC bandwidth experiment for one configuration.
#[derive(Debug, Clone)]
pub struct DnssecBandwidth {
    /// ZSK size used.
    pub zsk_bits: u32,
    /// Whether a rollover (two ZSKs) was active.
    pub rollover: bool,
    /// Fraction of queries with DO set.
    pub do_fraction: f64,
    /// Per-second response bandwidth samples (Mbit/s).
    pub mbps: Vec<f64>,
    /// Summary of the samples (median is Figure 10's bar).
    pub summary: Summary,
}

/// §5.1: replay `trace` against a root zone signed with `zsk_bits`
/// (optionally in rollover), with the DO bit set on `do_fraction` of
/// queries, and measure per-second response bandwidth.
///
/// Responses are produced by the real server engine (the same code the
/// transports use); bandwidth accounting sums the exact UDP payload
/// sizes per one-second trace window.
pub fn dnssec_bandwidth(
    root_zone: &Zone,
    trace: &[TraceEntry],
    zsk_bits: u32,
    rollover: bool,
    do_fraction: f64,
) -> DnssecBandwidth {
    let mut config = SignConfig::with_zsk_bits(zsk_bits);
    if rollover {
        config = config.rollover();
    }
    let signed = sign_zone(root_zone, config);
    let mut catalog = Catalog::new();
    catalog.insert(signed.zone);
    let engine = ServerEngine::with_catalog(catalog);

    let mut mutated = trace.to_vec();
    Mutator::new(vec![Mutation::SetDnssecFraction(do_fraction)]).apply(&mut mutated);

    let mut per_second: Vec<u64> = Vec::new();
    let t0 = mutated.first().map(|e| e.time_us).unwrap_or(0);
    for entry in &mutated {
        let (bytes, _tc) = engine.answer_udp(entry.src.ip(), &entry.message);
        let bucket = ((entry.time_us - t0) / 1_000_000) as usize;
        if bucket >= per_second.len() {
            per_second.resize(bucket + 1, 0);
        }
        per_second[bucket] += bytes.len() as u64 + 28; // + IP/UDP headers
    }
    let mbps: Vec<f64> = per_second.iter().map(|&b| b as f64 * 8.0 / 1e6).collect();
    let summary = Summary::of(&mbps).expect("non-empty trace");
    DnssecBandwidth {
        zsk_bits,
        rollover,
        do_fraction,
        mbps,
        summary,
    }
}

/// Configuration for a §5.2 connection-oriented replay experiment.
#[derive(Debug, Clone)]
pub struct TransportExperiment {
    /// Force all queries to this transport (`None` = keep trace mix,
    /// the "original trace, 3 % TCP" baseline).
    pub transport: Option<Transport>,
    /// Server idle timeout (the x-axis of Figures 11/13/14).
    pub idle_timeout: SimDuration,
    /// Client–server RTT (the x-axis of Figure 15).
    pub rtt: SimDuration,
    /// Sample resource gauges every this many sim-seconds.
    pub sample_every: f64,
    /// Server memory model.
    pub memory: MemoryModel,
    /// Server CPU model.
    pub cpu: CpuModel,
}

impl Default for TransportExperiment {
    fn default() -> Self {
        TransportExperiment {
            transport: None,
            idle_timeout: SimDuration::from_secs(20),
            rtt: SimDuration::from_millis(1),
            sample_every: 10.0,
            memory: MemoryModel::default(),
            cpu: CpuModel::default(),
        }
    }
}

/// Time series and summaries out of one transport experiment.
#[derive(Debug)]
pub struct TransportResult {
    /// Server memory over time (GiB).
    pub memory_gib: TimeSeries,
    /// Established connections over time.
    pub established: TimeSeries,
    /// TIME_WAIT connections over time.
    pub time_wait: TimeSeries,
    /// Overall CPU percent over the run.
    pub cpu_percent: f64,
    /// Per-query latency records.
    pub latency: Vec<LatencyRecord>,
    /// Final raw server stats.
    pub server_stats: HostStats,
    /// Queries sent by the replay client.
    pub queries_sent: u64,
}

impl TransportResult {
    /// Latency summary in milliseconds.
    pub fn latency_summary_ms(&self) -> Option<Summary> {
        let ms: Vec<f64> = self.latency.iter().map(|r| r.latency() * 1e3).collect();
        Summary::of(&ms)
    }

    /// Latency summary restricted to queries from sources with at most
    /// `max_queries` queries in the trace (the paper's "non-busy
    /// clients", Figure 15b).
    pub fn latency_summary_nonbusy_ms(&self, max_queries: usize) -> Option<Summary> {
        use std::collections::HashMap;
        let mut per_source: HashMap<std::net::IpAddr, usize> = HashMap::new();
        for r in &self.latency {
            *per_source.entry(r.source).or_default() += 1;
        }
        let ms: Vec<f64> = self
            .latency
            .iter()
            .filter(|r| per_source[&r.source] <= max_queries)
            .map(|r| r.latency() * 1e3)
            .collect();
        Summary::of(&ms)
    }
}

/// §5.2: replay `trace` through the simulator against the meta server
/// with the given transport override, idle timeout and RTT; sample
/// memory/connections over time and collect latencies.
pub fn transport_experiment(
    engine: Arc<ServerEngine>,
    trace: &[TraceEntry],
    config: &TransportExperiment,
) -> TransportResult {
    assert!(!trace.is_empty());
    let server_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
    let topo = Topology::uniform(PathConfig {
        rtt: config.rtt,
        bandwidth_bps: None,
        loss: 0.0,
    });
    let mut sim = Simulator::new(topo, SimConfig::default());
    let server_id = sim.add_host(
        &[server_addr.ip()],
        Box::new(SimDnsServer::new(
            engine,
            server_addr,
            Some(config.idle_timeout),
        )),
    );

    let log: LatencyLog = Arc::new(Mutex::new(Vec::new()));
    let mut client = SimReplayClient::new(trace.to_vec(), server_addr, log.clone());
    client.transport_override = config.transport;
    let sources = client.source_addrs();
    let client_id = sim.add_host(&sources, Box::new(client));
    SimReplayClient::schedule(&mut sim, client_id, trace, SimTime::ZERO);

    // Drive the sim in sampling steps.
    let t0 = trace[0].time_us;
    let duration_s = (trace.last().unwrap().time_us - t0) as f64 / 1e6;
    // Run past the end so idle timeouts and TIME_WAIT drain visibly.
    let horizon = duration_s + config.idle_timeout.as_secs_f64() + 1.0;

    let mut memory_gib = TimeSeries::new();
    let mut established = TimeSeries::new();
    let mut time_wait = TimeSeries::new();
    let is_tls = config.transport == Some(Transport::Tls);
    let mut t = 0.0;
    while t < horizon {
        t += config.sample_every;
        sim.run_until(SimTime::from_secs_f64(t));
        let stats = sim.stats(server_id);
        memory_gib.push(t, config.memory.gib(&stats, is_tls));
        established.push(t, stats.established as f64);
        time_wait.push(t, stats.time_wait as f64);
    }
    let server_stats = sim.stats(server_id);
    let cpu_percent = config.cpu.percent(&server_stats, duration_s.max(1e-9));
    let latency = log.lock().unwrap().clone();
    let queries_sent = trace.len() as u64;
    TransportResult {
        memory_gib,
        established,
        time_wait,
        cpu_percent,
        latency,
        server_stats,
        queries_sent,
    }
}

/// Build the wildcard `example.com`-style zone the synthetic replays
/// answer from (paper §4.1: "we setup the server to host names in
/// example.com with wildcards").
pub fn wildcard_zone(origin: &str) -> Zone {
    use dns_wire::{RData, Record, Soa};
    let origin: Name = origin.parse().expect("valid origin");
    let mut z = Zone::new(origin.clone());
    z.insert(Record::new(
        origin.clone(),
        3600,
        RData::Soa(Soa {
            mname: format!("ns1.{origin}").parse().unwrap(),
            rname: format!("hostmaster.{origin}").parse().unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }),
    ))
    .unwrap();
    z.insert(Record::new(
        origin.clone(),
        3600,
        RData::Ns(format!("ns1.{origin}").parse().unwrap()),
    ))
    .unwrap();
    z.insert(Record::new(
        format!("ns1.{origin}").parse().unwrap(),
        3600,
        RData::A("10.9.0.1".parse().unwrap()),
    ))
    .unwrap();
    z.insert(Record::new(
        format!("*.{origin}").parse().unwrap(),
        300,
        RData::A("203.0.113.7".parse().unwrap()),
    ))
    .unwrap();
    z
}

/// Build a root-like zone delegating every TLD in
/// [`workloads::broot::TLDS`], for B-Root-style replays.
pub fn synthetic_root_zone() -> Zone {
    use dns_wire::{RData, Record, Soa};
    let mut z = Zone::new(Name::root());
    z.insert(Record::new(
        Name::root(),
        86400,
        RData::Soa(Soa {
            mname: "a.root-servers.net.".parse().unwrap(),
            rname: "nstld.verisign-grs.com.".parse().unwrap(),
            serial: 2016040600,
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 86400,
        }),
    ))
    .unwrap();
    for i in 0..13u8 {
        let ns: Name = format!("{}.root-servers.net", (b'a' + i) as char)
            .parse()
            .unwrap();
        z.insert(Record::new(Name::root(), 518400, RData::Ns(ns.clone())))
            .unwrap();
        z.insert(Record::new(
            ns,
            518400,
            RData::A(std::net::Ipv4Addr::new(198, 41, i, 4)),
        ))
        .unwrap();
    }
    for (i, tld) in workloads::broot::TLDS.iter().enumerate() {
        let origin: Name = tld.parse().unwrap();
        for k in 0..2u8 {
            let ns: Name = format!("ns{k}.nic.{tld}").parse().unwrap();
            z.insert(Record::new(origin.clone(), 172800, RData::Ns(ns.clone())))
                .unwrap();
            z.insert(Record::new(
                ns,
                172800,
                RData::A(std::net::Ipv4Addr::new(192, 100 + (i % 100) as u8, k, 30)),
            ))
            .unwrap();
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::BRootSpec;

    fn small_trace() -> Vec<TraceEntry> {
        BRootSpec {
            duration_secs: 20.0,
            mean_rate: 300.0,
            clients: 500,
            ..BRootSpec::b_root_17a()
        }
        .generate(7)
    }

    #[test]
    fn dnssec_bandwidth_increases_with_key_size_and_do() {
        let root = synthetic_root_zone();
        let trace = small_trace();
        let b1024 = dnssec_bandwidth(&root, &trace, 1024, false, 0.723);
        let b2048 = dnssec_bandwidth(&root, &trace, 2048, false, 0.723);
        let b2048_all = dnssec_bandwidth(&root, &trace, 2048, false, 1.0);
        let b2048_roll = dnssec_bandwidth(&root, &trace, 2048, true, 0.723);

        assert!(
            b2048.summary.median > b1024.summary.median,
            "bigger ZSK → more bandwidth: {} vs {}",
            b2048.summary.median,
            b1024.summary.median
        );
        assert!(
            b2048_all.summary.median > b2048.summary.median,
            "more DO → more bandwidth"
        );
        assert!(
            b2048_roll.summary.median > b2048.summary.median,
            "rollover → more bandwidth"
        );
    }

    #[test]
    fn dnssec_do_increase_is_tens_of_percent() {
        // The paper: 72.3% → 100% DO at 2048-bit ZSK ⇒ +31%.
        let root = synthetic_root_zone();
        let trace = small_trace();
        let base = dnssec_bandwidth(&root, &trace, 2048, false, 0.723);
        let all = dnssec_bandwidth(&root, &trace, 2048, false, 1.0);
        let increase = all.summary.median / base.summary.median - 1.0;
        assert!(
            increase > 0.10 && increase < 0.60,
            "increase {increase} should be tens of percent"
        );
    }

    #[test]
    fn transport_experiment_tcp_grows_memory_and_connections() {
        let trace = small_trace();
        let mut cat = Catalog::new();
        cat.insert(synthetic_root_zone());
        let engine = Arc::new(ServerEngine::with_catalog(cat));

        let udp = transport_experiment(
            engine.clone(),
            &trace,
            &TransportExperiment {
                transport: Some(Transport::Udp),
                sample_every: 5.0,
                ..Default::default()
            },
        );
        let tcp = transport_experiment(
            engine.clone(),
            &trace,
            &TransportExperiment {
                transport: Some(Transport::Tcp),
                sample_every: 5.0,
                ..Default::default()
            },
        );
        assert!(tcp.server_stats.tcp_accepts > 0);
        assert_eq!(udp.server_stats.tcp_accepts, 0);
        assert!(
            tcp.memory_gib.max_value().unwrap() > udp.memory_gib.max_value().unwrap(),
            "TCP uses more memory"
        );
        assert!(tcp.established.max_value().unwrap() > 0.0);
        // After the run + timeout horizon, connections drained.
        assert_eq!(tcp.established.samples().last().unwrap().1, 0.0);
        // Latency collected for every query.
        assert_eq!(tcp.latency.len() as u64, tcp.queries_sent);
    }

    #[test]
    fn tls_memory_exceeds_tcp() {
        let trace = small_trace();
        let mut cat = Catalog::new();
        cat.insert(synthetic_root_zone());
        let engine = Arc::new(ServerEngine::with_catalog(cat));
        let mk = |t: Transport| TransportExperiment {
            transport: Some(t),
            sample_every: 5.0,
            ..Default::default()
        };
        let tcp = transport_experiment(engine.clone(), &trace, &mk(Transport::Tcp));
        let tls = transport_experiment(engine.clone(), &trace, &mk(Transport::Tls));
        assert!(
            tls.memory_gib.max_value().unwrap() > tcp.memory_gib.max_value().unwrap(),
            "TLS session state costs more"
        );
        assert!(tls.cpu_percent > tcp.cpu_percent, "TLS crypto costs CPU");
    }

    #[test]
    fn longer_timeout_more_connections() {
        let trace = small_trace();
        let mut cat = Catalog::new();
        cat.insert(synthetic_root_zone());
        let engine = Arc::new(ServerEngine::with_catalog(cat));
        let mk = |secs: u64| TransportExperiment {
            transport: Some(Transport::Tcp),
            idle_timeout: SimDuration::from_secs(secs),
            sample_every: 2.0,
            ..Default::default()
        };
        let short = transport_experiment(engine.clone(), &trace, &mk(5));
        let long = transport_experiment(engine.clone(), &trace, &mk(40));
        assert!(
            long.established.max_value().unwrap() > short.established.max_value().unwrap(),
            "longer timeout holds more concurrent connections: {} vs {}",
            long.established.max_value().unwrap(),
            short.established.max_value().unwrap()
        );
    }

    #[test]
    fn latency_grows_with_rtt_and_tcp_over_udp() {
        let trace = small_trace();
        let mut cat = Catalog::new();
        cat.insert(synthetic_root_zone());
        let engine = Arc::new(ServerEngine::with_catalog(cat));
        let mk = |t: Transport, rtt_ms: u64| TransportExperiment {
            transport: Some(t),
            rtt: SimDuration::from_millis(rtt_ms),
            sample_every: 5.0,
            ..Default::default()
        };
        let udp40 = transport_experiment(engine.clone(), &trace, &mk(Transport::Udp, 40));
        let tcp40 = transport_experiment(engine.clone(), &trace, &mk(Transport::Tcp, 40));
        let udp80 = transport_experiment(engine.clone(), &trace, &mk(Transport::Udp, 80));

        let m_udp40 = udp40.latency_summary_ms().unwrap().median;
        let m_tcp40 = tcp40.latency_summary_ms().unwrap().median;
        let m_udp80 = udp80.latency_summary_ms().unwrap().median;
        assert!((m_udp40 - 40.0).abs() < 3.0, "UDP ≈ 1 RTT: {m_udp40}");
        assert!(
            (m_udp80 - 80.0).abs() < 5.0,
            "UDP scales with RTT: {m_udp80}"
        );
        assert!(m_tcp40 >= m_udp40, "TCP ≥ UDP: {m_tcp40} vs {m_udp40}");
        // Non-busy clients skew higher (fresh connections).
        let nb = tcp40.latency_summary_nonbusy_ms(5).unwrap();
        assert!(nb.median >= m_tcp40, "non-busy ≥ overall");
    }

    #[test]
    fn wildcard_zone_answers_anything_below() {
        let z = wildcard_zone("example.com");
        let q = dns_wire::Question::new(
            "anything.example.com".parse().unwrap(),
            dns_wire::RecordType::A,
        );
        let ans = dns_zone::lookup(&z, &q);
        assert_eq!(ans.answers.len(), 1);
    }
}
