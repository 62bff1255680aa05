//! Integration: the what-if mutation pipelines (paper §5) across
//! crates — trace generation → mutation → signed zones / transport
//! experiments — asserting the directional results the paper reports.

use std::sync::Arc;

use ldplayer::core::{
    dnssec_bandwidth, synthetic_root_zone, transport_experiment, TransportExperiment,
};
use ldplayer::netsim::SimDuration;
use ldplayer::server::ServerEngine;
use ldplayer::trace::{parse_binary, write_binary, Mutation, Mutator};
use ldplayer::wire::Transport;
use ldplayer::workloads::BRootSpec;
use ldplayer::zone::Catalog;

fn trace() -> Vec<ldplayer::trace::TraceEntry> {
    BRootSpec {
        duration_secs: 30.0,
        mean_rate: 400.0,
        clients: 2_000,
        ..BRootSpec::b_root_17a()
    }
    .generate(5)
}

fn engine() -> Arc<ServerEngine> {
    let mut cat = Catalog::new();
    cat.insert(synthetic_root_zone());
    Arc::new(ServerEngine::with_catalog(cat))
}

/// §5.1 directional result: more DO and bigger keys cost bandwidth, and
/// the full pipeline survives a binary-format round trip in the middle
/// (pcap → binary → mutate → replay, Figure 3).
#[test]
fn dnssec_whatif_through_binary_format() {
    let original = trace();
    // Round-trip through the replay input format first.
    let bin = write_binary(&original).expect("binary write");
    let mut restored = parse_binary(&bin).expect("binary round trip");
    assert_eq!(restored, original);

    // Mutate: all queries want DNSSEC.
    Mutator::new(vec![Mutation::SetDnssecFraction(1.0)]).apply(&mut restored);
    assert!(restored.iter().all(|e| e.message.dnssec_ok()));

    let root = synthetic_root_zone();
    let base = dnssec_bandwidth(&root, &original, 2048, false, 0.723);
    let what_if = dnssec_bandwidth(&root, &restored, 2048, false, 1.0);
    let increase = what_if.summary.median / base.summary.median - 1.0;
    assert!(
        increase > 0.05,
        "all-DNSSEC increases bandwidth ({:+.1}%)",
        increase * 100.0
    );
}

/// §5.2 directional results across the transport matrix.
#[test]
fn transport_matrix_shape() {
    let trace = trace();
    let engine = engine();
    let run = |transport: Option<Transport>, timeout_s: u64| {
        transport_experiment(
            engine.clone(),
            &trace,
            &TransportExperiment {
                transport,
                idle_timeout: SimDuration::from_secs(timeout_s),
                rtt: SimDuration::from_millis(20),
                sample_every: 5.0,
                ..Default::default()
            },
        )
    };

    let udp = run(Some(Transport::Udp), 20);
    let tcp = run(Some(Transport::Tcp), 20);
    let tls = run(Some(Transport::Tls), 20);
    let mix = run(None, 20);

    // Memory ordering: UDP < TCP < TLS (Figures 13a/14a).
    let mem = |r: &ldplayer::core::TransportResult| r.memory_gib.max_value().unwrap();
    assert!(
        mem(&udp) < mem(&tcp),
        "UDP {} < TCP {}",
        mem(&udp),
        mem(&tcp)
    );
    assert!(
        mem(&tcp) < mem(&tls),
        "TCP {} < TLS {}",
        mem(&tcp),
        mem(&tls)
    );
    // Mixed trace sits between UDP and all-TCP.
    assert!(mem(&mix) <= mem(&tcp));

    // CPU: TCP cheapest (NIC offload), TLS and the UDP-heavy mix higher
    // (Figure 11's surprising ordering).
    assert!(
        tcp.cpu_percent < mix.cpu_percent,
        "all-TCP beats the UDP mix"
    );
    assert!(tcp.cpu_percent < tls.cpu_percent);

    // TIME_WAIT exceeds established at steady state (Figures 13b/13c:
    // the server is the closer, and TIME_WAIT lasts 60 s > timeout).
    assert!(
        tcp.time_wait.max_value().unwrap() >= tcp.established.max_value().unwrap(),
        "TIME_WAIT {} ≥ established {}",
        tcp.time_wait.max_value().unwrap(),
        tcp.established.max_value().unwrap()
    );

    // Latency: UDP ≈ 1 RTT; TCP between 1 and 2 RTT overall (reuse),
    // TLS above TCP (Figure 15).
    let med = |r: &ldplayer::core::TransportResult| r.latency_summary_ms().unwrap().median;
    assert!((med(&udp) - 20.0).abs() < 3.0);
    assert!(med(&tcp) >= med(&udp) * 0.95);
    assert!(med(&tcp) <= 45.0);
    assert!(med(&tls) >= med(&tcp));
}

/// Longer idle timeouts hold more concurrent connections and more
/// memory — the x-axis relationship of Figures 13/14.
#[test]
fn timeout_sweep_monotone() {
    let trace = trace();
    let engine = engine();
    let mut maxima = Vec::new();
    for timeout in [5u64, 20, 40] {
        let r = transport_experiment(
            engine.clone(),
            &trace,
            &TransportExperiment {
                transport: Some(Transport::Tcp),
                idle_timeout: SimDuration::from_secs(timeout),
                sample_every: 5.0,
                ..Default::default()
            },
        );
        maxima.push(r.established.max_value().unwrap());
    }
    assert!(
        maxima[0] <= maxima[1] && maxima[1] <= maxima[2],
        "established connections grow with timeout: {maxima:?}"
    );
}

/// Latency grows with RTT for connection-oriented transports, and the
/// non-busy-client median sits near 2 RTT for TCP (Figure 15b).
#[test]
fn rtt_sweep_latency() {
    let trace = trace();
    let engine = engine();
    let mut medians = Vec::new();
    for rtt_ms in [20u64, 80, 160] {
        let r = transport_experiment(
            engine.clone(),
            &trace,
            &TransportExperiment {
                transport: Some(Transport::Tcp),
                rtt: SimDuration::from_millis(rtt_ms),
                sample_every: 10.0,
                ..Default::default()
            },
        );
        let nonbusy = r.latency_summary_nonbusy_ms(250).unwrap();
        medians.push((rtt_ms, nonbusy.median));
    }
    for w in medians.windows(2) {
        assert!(w[1].1 > w[0].1, "latency grows with RTT: {medians:?}");
    }
    // Non-busy TCP median ≈ 2 RTT (fresh connections dominate).
    for (rtt_ms, med) in &medians {
        let rtts = med / *rtt_ms as f64;
        assert!(
            (0.9..=2.6).contains(&rtts),
            "non-busy median {med} ms at RTT {rtt_ms} ms = {rtts:.2} RTTs"
        );
    }
}
