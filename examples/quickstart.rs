//! Quickstart: generate a synthetic DNS trace, replay it inside the
//! deterministic network simulator against an authoritative server
//! hosting a wildcard zone, and print per-query latency statistics.
//!
//! Run: `cargo run --release --example quickstart`

use std::sync::{Arc, Mutex};

use ldplayer::core::{wildcard_zone, TransportExperiment};
use ldplayer::metrics::Summary;
use ldplayer::server::ServerEngine;
use ldplayer::trace::TraceStats;
use ldplayer::wire::Transport;
use ldplayer::workloads::SyntheticTraceSpec;
use ldplayer::zone::Catalog;

fn main() {
    // 1. A synthetic trace: 10 seconds of queries at 1 ms inter-arrival
    //    (the shape of the paper's syn-3 trace, shortened).
    let mut spec = SyntheticTraceSpec::fixed_interarrival(0.001, 10.0);
    spec.client_pool = 500;
    let trace = spec.generate(42);
    let stats = TraceStats::compute(&trace).expect("non-empty");
    println!("trace: {}", stats.render_row("quickstart"));

    // 2. An authoritative server answering everything under example.com
    //    via a wildcard (paper §4.1's server setup).
    let mut catalog = Catalog::new();
    catalog.insert(wildcard_zone("example.com"));
    let engine = Arc::new(ServerEngine::with_catalog(catalog));

    // 3. Replay over each transport and compare latency.
    let _ = Mutex::new(()); // (shared-state types re-exported for users)
    for transport in [Transport::Udp, Transport::Tcp, Transport::Tls] {
        let config = TransportExperiment {
            transport: Some(transport),
            rtt: ldplayer::netsim::SimDuration::from_millis(20),
            sample_every: 2.0,
            ..Default::default()
        };
        let result = ldplayer::core::transport_experiment(engine.clone(), &trace, &config);
        let summary: Summary = result.latency_summary_ms().expect("latencies collected");
        println!(
            "{transport}: {} queries, median latency {:.1} ms (q1 {:.1}, q3 {:.1}), \
             server cpu {:.1}%, peak established conns {}",
            result.latency.len(),
            summary.median,
            summary.q1,
            summary.q3,
            result.cpu_percent,
            result.established.max_value().unwrap_or(0.0),
        );
    }
    println!("done — see examples/hierarchy_emulation.rs for the full §2.4 pipeline");
}
