//! Figure 9: single-host fast-replay throughput — a continuous query
//! stream over UDP with timers disabled, sampled every two seconds
//! (paper §4.3: 87 k q/s ≈ 2× a root letter's normal load, ~60 Mb/s,
//! with 1 distributor + 6 queriers on one 4-core host).
//!
//! `cargo run --release -p ldp-bench --bin fig09 [-- --seconds 20 --queriers 6]`

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ldp_bench::{arg_f64, arg_u64, reject_unknown_flags};
use ldp_core::wildcard_zone;
use ldp_replay::{replay, ReplayConfig};
use workloads::SyntheticTraceSpec;

fn main() {
    reject_unknown_flags(&["--seconds", "--queriers"]);
    let seconds = arg_f64("--seconds", 20.0);
    let queriers = arg_u64("--queriers", 6) as usize;

    // A real answering server on loopback, like the paper's
    // authoritative host with the example.com wildcard zone.
    let mut catalog = dns_zone::Catalog::new();
    catalog.insert(wildcard_zone("example.com"));
    let engine = Arc::new(dns_server::ServerEngine::with_catalog(catalog));
    let server =
        dns_server::spawn(engine, dns_server::ServerConfig::default()).expect("bind server");

    // Continuous stream: nominal 0.1 ms inter-arrivals, replayed in
    // fast mode (no timers) — the generator saturates, as in the paper.
    let n = (seconds * 150_000.0) as usize; // enough to keep senders busy
    let mut spec = SyntheticTraceSpec::fixed_interarrival(seconds / n as f64, seconds);
    spec.client_pool = 1000;
    let trace = spec.generate(9);
    println!(
        "fast replay of {} queries, 1 distributor × {queriers} queriers…",
        trace.len()
    );

    let config = ReplayConfig {
        target_udp: server.udp_addr,
        target_tcp: server.tcp_addr,
        fast_mode: true,
        distributors: 1,
        queriers_per_distributor: queriers,
        ..Default::default()
    };
    let report = replay(&trace, &config);

    // Per-2-second throughput samples from the send log (Figure 9's
    // sampling interval).
    let mut sorted: Vec<u64> = report.sent.iter().map(|r| r.sent_us).collect();
    sorted.sort_unstable();
    let mut bucket = 0u64;
    let mut counts = Vec::new();
    let mut cur = 0u64;
    for us in &sorted {
        while *us >= (bucket + 1) * 2_000_000 {
            counts.push(cur);
            cur = 0;
            bucket += 1;
        }
        cur += 1;
    }
    counts.push(cur);
    println!("\n time(s)   rate (q/s)   bandwidth (Mb/s, ~86B frames)");
    for (i, c) in counts.iter().enumerate() {
        let qps = *c as f64 / 2.0;
        println!(
            "{:>7}   {:>10.0}   {:>10.1}",
            (i + 1) * 2,
            qps,
            qps * 86.0 * 8.0 / 1e6
        );
    }

    let rate = report.total_sent as f64 / report.elapsed.as_secs_f64();
    let answered = server.counters.udp_queries.load(Ordering::Relaxed);
    println!(
        "\noverall: {} queries in {:.2?} → {:.0} q/s sustained; server answered {answered}",
        report.total_sent, report.elapsed, rate
    );
    println!("paper: ~87k q/s (~60 Mb/s) sustained over 5 minutes on one host");
    server.shutdown();
}
