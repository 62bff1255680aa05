//! Load testing with fast-mode replay (paper §4.3): stream queries over
//! UDP to a real authoritative server on loopback as fast as the engine
//! can, and report the sustained rate — the experiment behind the
//! paper's 87 k q/s single-host figure (and the "server under stress"
//! application the paper proposes).
//!
//! Run: `cargo run --release --example attack_replay`

use std::sync::Arc;
use std::time::Duration;

use ldplayer::core::wildcard_zone;
use ldplayer::replay::{replay, ReplayConfig};
use ldplayer::server::{spawn, ServerConfig, ServerEngine};
use ldplayer::workloads::SyntheticTraceSpec;
use ldplayer::zone::Catalog;

fn main() {
    // A real DNS server answering from a wildcard zone.
    let mut catalog = Catalog::new();
    catalog.insert(wildcard_zone("example.com"));
    let engine = Arc::new(ServerEngine::with_catalog(catalog));
    let server = spawn(engine, ServerConfig::default()).expect("bind server");
    println!("server on {}", server.udp_addr);

    // 200 k identical-shape queries, unique names, replayed flat out.
    let mut spec = SyntheticTraceSpec::fixed_interarrival(0.0001, 20.0);
    spec.client_pool = 1000;
    let trace = spec.generate(9);
    println!("replaying {} queries in fast mode…", trace.len());

    let config = ReplayConfig {
        target_udp: server.udp_addr,
        target_tcp: server.tcp_addr,
        fast_mode: true,
        distributors: 1,
        queriers_per_distributor: 6, // the paper's 1 distributor + 6 queriers
        ..Default::default()
    };
    let report = replay(&trace, &config);
    let rate = report.sent.len() as f64 / report.elapsed.as_secs_f64();
    println!(
        "sent {} queries in {:.2?} → {:.0} q/s sustained ({} errors)",
        report.sent.len(),
        report.elapsed,
        rate,
        report.errors
    );

    #[allow(clippy::disallowed_methods, reason = "T2: waits out the drain")]
    std::thread::sleep(Duration::from_millis(300));
    let answered = server
        .counters
        .udp_queries
        .load(std::sync::atomic::Ordering::Relaxed);
    println!(
        "server answered {answered} ({:.1}% of sent) — paper's reference point: 87k q/s on one host",
        100.0 * answered as f64 / report.sent.len() as f64
    );
    server.shutdown();
}
