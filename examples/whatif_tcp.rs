//! What-if: all DNS over TCP/TLS at a root server (paper §5.2, scaled).
//!
//! Replays a B-Root-shaped trace three ways — original mix (3 % TCP),
//! all-TCP and all-TLS — and reports server memory, connection counts,
//! CPU and client latency, the quantities of Figures 11 and 13–15.
//!
//! Run: `cargo run --release --example whatif_tcp`

use std::sync::Arc;

use ldplayer::core::{synthetic_root_zone, transport_experiment, TransportExperiment};
use ldplayer::netsim::SimDuration;
use ldplayer::server::ServerEngine;
use ldplayer::wire::Transport;
use ldplayer::workloads::BRootSpec;
use ldplayer::zone::Catalog;

fn main() {
    // B-Root-17a shape scaled ~400×: same client-load skew, DO and TCP
    // fractions, 1/400 the rate and population.
    let spec = BRootSpec {
        duration_secs: 120.0,
        mean_rate: 1500.0,
        clients: 20_000,
        ..BRootSpec::b_root_17a()
    };
    let trace = spec.generate(17);
    println!(
        "trace: {} queries, {:.0} q/s, shaped like B-Root-17a (scaled)",
        trace.len(),
        trace.len() as f64 / spec.duration_secs
    );

    let mut catalog = Catalog::new();
    catalog.insert(synthetic_root_zone());
    let engine = Arc::new(ServerEngine::with_catalog(catalog));

    let scenarios: [(&str, Option<Transport>); 3] = [
        ("original (3% TCP)", None),
        ("all TCP", Some(Transport::Tcp)),
        ("all TLS", Some(Transport::Tls)),
    ];
    println!(
        "\n{:<20} {:>9} {:>12} {:>11} {:>8} {:>12}",
        "scenario", "mem GiB", "established", "TIME_WAIT", "cpu %", "median ms"
    );
    for (name, transport) in scenarios {
        let config = TransportExperiment {
            transport,
            idle_timeout: SimDuration::from_secs(20),
            rtt: SimDuration::from_millis(20),
            sample_every: 10.0,
            ..Default::default()
        };
        let r = transport_experiment(engine.clone(), &trace, &config);
        let med = r.latency_summary_ms().map(|s| s.median).unwrap_or(f64::NAN);
        println!(
            "{:<20} {:>9.2} {:>12.0} {:>11.0} {:>8.2} {:>12.1}",
            name,
            r.memory_gib.max_value().unwrap_or(0.0),
            r.established.max_value().unwrap_or(0.0),
            r.time_wait.max_value().unwrap_or(0.0),
            r.cpu_percent,
            med,
        );
    }
    println!("\nShape to expect (paper §5.2): TCP/TLS memory ≫ UDP baseline,");
    println!("TLS > TCP memory; CPU modest for all; TCP median latency close");
    println!("to UDP thanks to connection reuse.");
}
