//! Ablations of LDplayer's design choices (DESIGN.md §5): each section
//! removes one mechanism and measures what the paper's design buys.
//!
//! 1. timing catch-up (re-anchored ΔTᵢ) vs naive gap-sleeping;
//! 2. connection reuse (sticky same-source) vs fresh-per-query;
//! 3. split-horizon meta-server vs one server process per zone;
//! 4. two-level distribution vs direct controller→querier fan-out.
//!
//! `cargo run --release -p ldp-bench --bin ablations [-- --seconds 5]`

use std::net::UdpSocket;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dns_wire::Transport;
use ldp_bench::{arg_f64, reject_unknown_flags};
use ldp_metrics::Summary;
use ldp_replay::{replay, LatencyLog, ReplayConfig, SimReplayClient};
use workloads::{RecursiveSpec, SyntheticTraceSpec};

fn main() {
    reject_unknown_flags(&["--seconds"]);
    ablation_timing();
    ablation_connection_reuse();
    ablation_meta_server_memory();
    ablation_distribution_levels();
}

/// 1. The ΔTᵢ = Δt̄ᵢ − Δtᵢ re-anchoring vs a naive replayer that sleeps
///    each inter-arrival gap: per-send overhead accumulates into drift.
#[allow(
    clippy::disallowed_methods,
    reason = "D1/T2: the naive replayer sleeps each gap and sends on the wall clock"
)]
fn ablation_timing() {
    println!("══ Ablation 1: timing catch-up vs naive gap-sleeping ══\n");
    let seconds = arg_f64("--seconds", 5.0);
    let mut spec = SyntheticTraceSpec::fixed_interarrival(0.001, seconds);
    spec.client_pool = 100;
    let trace = spec.generate(1);

    // Naive: sleep(gap) then send — every microsecond of overhead
    // accumulates (this is what generic packet replayers do).
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    let target = sink.local_addr().unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    let start = Instant::now();
    let mut naive_errors_us: Vec<f64> = Vec::with_capacity(trace.len());
    let t0 = trace[0].time_us;
    for pair in trace.windows(2) {
        let gap = Duration::from_micros(pair[1].time_us - pair[0].time_us);
        std::thread::sleep(gap);
        let payload = pair[1].message.encode();
        let _ = sock.send_to(&payload, target);
        let intended = (pair[1].time_us - t0) as f64;
        let actual = start.elapsed().as_micros() as f64;
        naive_errors_us.push(actual - intended);
    }
    let naive = Summary::of(&naive_errors_us).unwrap();

    // LDplayer: re-anchored deadlines.
    let config = ReplayConfig {
        target_udp: target,
        target_tcp: target,
        distributors: 1,
        queriers_per_distributor: 2,
        warmup: Duration::from_millis(20),
        ..Default::default()
    };
    let report = replay(&trace, &config);
    let ldp_errors = report.timing_errors_us(t0, 1.0);
    let ldp = Summary::of(&ldp_errors).unwrap();

    println!(
        "naive gap-sleep : median {:>9.1} µs  q3 {:>9.1} µs  max {:>10.1} µs (drift!)",
        naive.median, naive.q3, naive.max
    );
    println!(
        "LDplayer ΔTᵢ    : median {:>9.1} µs  q3 {:>9.1} µs  max {:>10.1} µs",
        ldp.median, ldp.q3, ldp.max
    );
    println!(
        "drift at end of {seconds}s trace: naive {:+.1} ms vs LDplayer {:+.1} ms\n",
        naive_errors_us.last().unwrap_or(&0.0) / 1e3,
        ldp_errors.last().unwrap_or(&0.0) / 1e3
    );
}

/// 2. Connection reuse vs fresh-per-query over simulated TCP at 40 ms
///    RTT: reuse removes the handshake from the common case.
fn ablation_connection_reuse() {
    println!("══ Ablation 2: same-source connection reuse vs fresh per query ══\n");
    let trace = {
        let mut spec = SyntheticTraceSpec::fixed_interarrival(0.005, 20.0);
        spec.client_pool = 50;
        spec.generate(2)
    };
    for reuse in [true, false] {
        let mut sim = netsim::Simulator::new(
            netsim::Topology::uniform(netsim::PathConfig::with_rtt(
                netsim::SimDuration::from_millis(40),
            )),
            netsim::SimConfig::default(),
        );
        let server_addr: std::net::SocketAddr = "10.99.0.1:53".parse().unwrap();
        let mut catalog = dns_zone::Catalog::new();
        catalog.insert(ldp_core::wildcard_zone("example.com"));
        let engine = Arc::new(dns_server::ServerEngine::with_catalog(catalog));
        let server = sim.add_host(
            &[server_addr.ip()],
            Box::new(dns_server::SimDnsServer::new(
                engine,
                server_addr,
                Some(netsim::SimDuration::from_secs(20)),
            )),
        );
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let mut client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        client.transport_override = Some(Transport::Tcp);
        client.reuse_connections = reuse;
        let sources = client.source_addrs();
        let client_id = sim.add_host(&sources, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, netsim::SimTime::ZERO);
        sim.run_until(netsim::SimTime::from_secs_f64(120.0));
        let lat: Vec<f64> = log
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.latency() * 1e3)
            .collect();
        let s = Summary::of(&lat).unwrap();
        println!(
            "reuse={reuse:<5} median {:>7.1} ms  q3 {:>7.1} ms  (answers {}, server accepts {})",
            s.median,
            s.q3,
            lat.len(),
            sim.stats(server).tcp_accepts
        );
    }
    println!("expected: reuse ≈ 1 RTT (40 ms) steady-state; fresh ≈ 2 RTT (80 ms)\n");
}

/// 3. Hosting N zones: one split-horizon meta-server process vs one
///    server process per zone (the naive testbed the paper §2.4 rejects).
fn ablation_meta_server_memory() {
    println!("══ Ablation 3: split-horizon meta-server vs per-zone servers ══\n");
    let spec = RecursiveSpec::rec_17();
    let zone_names = spec.zone_names();
    // Per-process overhead of a real DNS server (order of BIND/NSD RSS
    // at idle) and per-zone data cost.
    let process_overhead: u64 = 50 * 1024 * 1024;
    let per_zone_data: u64 = 256 * 1024;
    let n = zone_names.len() as u64 + 2; // + root and TLD levels
    let per_zone_servers = n * (process_overhead + per_zone_data);
    let meta_server = process_overhead + n * per_zone_data;
    println!("zones to host: {n} (Rec-17 sees 549 SLD zones; paper Table 1)");
    println!(
        "per-zone servers: {n} processes ≈ {:>7.1} MiB (+ {n} (virtual) NICs, routes)",
        per_zone_servers as f64 / (1024.0 * 1024.0)
    );
    println!(
        "meta-DNS-server : 1 process   ≈ {:>7.1} MiB (+ 1 address, proxies)",
        meta_server as f64 / (1024.0 * 1024.0)
    );
    println!(
        "reduction: {:.0}× less memory, {n}× fewer processes/interfaces\n",
        per_zone_servers as f64 / meta_server as f64
    );
}

/// 4. Two-level distribution (controller→distributors→queriers) vs
///    direct fan-out, at the same total querier count, fast mode.
fn ablation_distribution_levels() {
    println!("══ Ablation 4: two-level vs one-level query distribution ══\n");
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    let target = sink.local_addr().unwrap();
    let mut spec = SyntheticTraceSpec::fixed_interarrival(0.00001, 2.0);
    spec.client_pool = 500;
    let trace = spec.generate(3);
    for (label, d, q) in [
        ("one-level (1×6)", 1usize, 6usize),
        ("two-level (2×3)", 2, 3),
        ("two-level (3×2)", 3, 2),
    ] {
        let config = ReplayConfig {
            target_udp: target,
            target_tcp: target,
            fast_mode: true,
            distributors: d,
            queriers_per_distributor: q,
            ..Default::default()
        };
        let report = replay(&trace, &config);
        println!(
            "{label:<18} {:>8.0} q/s  ({} queries in {:.2?})",
            report.sent.len() as f64 / report.elapsed.as_secs_f64(),
            report.sent.len(),
            report.elapsed
        );
    }
    println!("expected: similar rates — levels exist for connection-count limits,");
    println!("not speed (paper §2.6: 65k-connection fan-out bound per level).");
}
