//! Figure 11: server CPU usage vs TCP idle-timeout window, for the
//! original trace mix (3 % TCP), all-TCP and all-TLS (paper §5.2.3).
//! The paper's shape: flat in the timeout; all-TCP ≈ 5 % < original mix
//! ≈ 10 % (NIC offload!) and all-TLS ≈ 9–10 %, slightly higher at the
//! 5 s timeout from extra handshakes.
//!
//! `cargo run --release -p ldp-bench --bin fig11 [-- --scale 80]`

use std::sync::Arc;

use dns_server::ServerEngine;
use dns_wire::Transport;
use dns_zone::Catalog;
use ldp_bench::{arg_f64, reject_unknown_flags};
use ldp_core::{synthetic_root_zone, transport_experiment, TransportExperiment};
use netsim::SimDuration;
use workloads::BRootSpec;

fn main() {
    reject_unknown_flags(&["--scale"]);
    let scale = arg_f64("--scale", 80.0);
    let spec = BRootSpec {
        duration_secs: 300.0,
        ..BRootSpec::b_root_17a().scaled(scale)
    };
    let trace = spec.generate(17);
    println!(
        "B-Root-17a-like: {} queries over {}s (scale {scale})\n",
        trace.len(),
        spec.duration_secs
    );
    println!("CPU%% is reported at full-scale equivalence: the per-query cost model is");
    println!("linear in rate, so percent at scale N is multiplied by N to recover the");
    println!("48-core full-rate figure. The shape (flatness, ordering) is scale-free.\n");

    let mut catalog = Catalog::new();
    catalog.insert(synthetic_root_zone());
    let engine = Arc::new(ServerEngine::with_catalog(catalog));

    let cpu = netsim::CpuModel::default();

    println!(
        "{:<10} {:>18} {:>14} {:>14}",
        "timeout", "original (3% TCP)", "all TCP", "all TLS"
    );
    for timeout_s in [5u64, 10, 15, 20, 25, 30, 35, 40] {
        let mut row = format!("{:<10}", format!("{timeout_s}s"));
        for transport in [None, Some(Transport::Tcp), Some(Transport::Tls)] {
            let config = TransportExperiment {
                transport,
                idle_timeout: SimDuration::from_secs(timeout_s),
                sample_every: 30.0,
                cpu,
                ..Default::default()
            };
            let r = transport_experiment(engine.clone(), &trace, &config);
            let width = if transport.is_none() { 18 } else { 14 };
            row.push_str(&format!(
                "{:>width$.2}%",
                r.cpu_percent * scale,
                width = width - 1
            ));
        }
        println!("{row}");
    }
    println!("\npaper: original ~10%, all-TCP ~5%, all-TLS ~9-10%; flat in timeout,");
    println!("TLS ~2% higher at 5s (handshake churn). The UDP>TCP inversion comes");
    println!("from NIC TCP offload, modelled in CpuModel (see EXPERIMENTS.md).");
}
