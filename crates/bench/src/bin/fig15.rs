//! Figure 15: query latency vs client RTT with a 20 s TCP timeout
//! (paper §5.2.4) — (a) over all clients, (b) over non-busy clients
//! (<250 queries), (c) the per-client load CDF of the trace.
//!
//! Paper's shape: UDP flat at 1 RTT; TCP median close to UDP over all
//! clients (connection reuse weighted by busy clients) but ~2 RTT for
//! non-busy clients; TLS 2→4 RTT nonlinearly; long asymmetric tails.
//!
//! `cargo run --release -p ldp-bench --bin fig15 [-- --scale 80]`

use std::sync::Arc;

use dns_server::ServerEngine;
use dns_wire::Transport;
use dns_zone::Catalog;
use ldp_bench::{arg_f64, boxplot_row, cdf_rows, reject_unknown_flags};
use ldp_core::{synthetic_root_zone, transport_experiment, TransportExperiment};
use netsim::SimDuration;
use workloads::BRootSpec;

fn main() {
    reject_unknown_flags(&["--scale"]);
    let scale = arg_f64("--scale", 80.0);
    let spec = BRootSpec {
        duration_secs: 300.0,
        ..BRootSpec::b_root_17b().scaled(scale)
    };
    let trace = spec.generate(15);
    println!(
        "B-Root-17b-like: {} queries, {} distinct clients (scale {scale})\n",
        trace.len(),
        trace
            .iter()
            .map(|e| e.src.ip())
            .collect::<std::collections::HashSet<_>>()
            .len()
    );

    let mut catalog = Catalog::new();
    catalog.insert(synthetic_root_zone());
    let engine = Arc::new(ServerEngine::with_catalog(catalog));

    // ── Figure 15c: per-client load CDF ──
    let mut per_client: std::collections::HashMap<std::net::IpAddr, u64> = Default::default();
    for e in &trace {
        *per_client.entry(e.src.ip()).or_default() += 1;
    }
    let mut loads: Vec<f64> = per_client.values().map(|&c| c as f64).collect();
    loads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("── Figure 15c: per-client query count CDF ──");
    for row in cdf_rows("queries per client", &loads, "") {
        println!("{row}");
    }
    let total: f64 = loads.iter().sum();
    let top1 = loads.len().div_ceil(100);
    let top_share: f64 = loads.iter().rev().take(top1).sum::<f64>() / total;
    let low = loads.iter().filter(|&&l| l < 10.0).count() as f64 / loads.len() as f64;
    println!(
        "top 1% of clients carry {:.0}% of queries (paper: ~75%); {:.0}% of clients send <10 (paper: 81%)\n",
        top_share * 100.0,
        low * 100.0
    );

    // ── Figures 15a / 15b: latency vs RTT ──
    for (figure, filter) in [
        ("Figure 15a: all clients", None),
        (
            "Figure 15b: non-busy clients (<250 queries)",
            Some(250usize),
        ),
    ] {
        println!("── {figure} ──");
        for rtt_ms in [0u64, 20, 40, 80, 120, 160] {
            println!(" RTT {rtt_ms} ms:");
            for (label, transport) in [
                ("original (3% TCP)", None),
                ("all TCP", Some(Transport::Tcp)),
                ("all TLS", Some(Transport::Tls)),
            ] {
                let config = TransportExperiment {
                    transport,
                    idle_timeout: SimDuration::from_secs(20),
                    rtt: SimDuration::from_millis(rtt_ms.max(1)),
                    sample_every: 60.0,
                    ..Default::default()
                };
                let r = transport_experiment(engine.clone(), &trace, &config);
                let summary = match filter {
                    None => r.latency_summary_ms(),
                    Some(maxq) => r.latency_summary_nonbusy_ms(maxq),
                };
                if let Some(s) = summary {
                    println!("  {}", boxplot_row(label, &s, "ms"));
                }
            }
        }
        println!();
    }
    println!("paper's shape: UDP ≈ 1 RTT flat; all-clients TCP median ≈ UDP at 20 ms RTT,");
    println!("~15% over UDP at 160 ms; non-busy TCP median ≈ 2 RTT; TLS grows 2→4 RTT;");
    println!("75th/95th percentiles fan out (fresh connections + Nagle/delayed-ACK stalls).");
}
