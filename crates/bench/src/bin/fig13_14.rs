//! Figures 13 and 14: server memory, established connections and
//! TIME_WAIT over time, for TCP (Fig 13) and TLS (Fig 14) at idle
//! timeouts 5–40 s, with the original-mix baseline (paper §5.2.2).
//!
//! Paper's operating point at 20 s timeout, full scale: ~15 GB (TCP) /
//! ~18 GB (TLS), ~60 k established, ~120 k TIME_WAIT, steady state in
//! ~5 minutes; UDP baseline ~2 GB.
//!
//! `cargo run --release -p ldp-bench --bin fig13_14 [-- --scale 80 --minutes 10]`

use std::sync::Arc;

use dns_server::ServerEngine;
use dns_wire::Transport;
use dns_zone::Catalog;
use ldp_bench::{arg_f64, reject_unknown_flags};
use ldp_core::{synthetic_root_zone, transport_experiment, TransportExperiment};
use netsim::SimDuration;
use workloads::BRootSpec;

fn main() {
    reject_unknown_flags(&["--scale", "--minutes"]);
    let scale = arg_f64("--scale", 80.0);
    let minutes = arg_f64("--minutes", 10.0);
    let spec = BRootSpec {
        duration_secs: minutes * 60.0,
        ..BRootSpec::b_root_17a().scaled(scale)
    };
    let trace = spec.generate(17);
    println!(
        "B-Root-17a-like: {} queries over {} min (scale {scale}; connection counts scale ~1/{scale})\n",
        trace.len(),
        minutes
    );

    let mut catalog = Catalog::new();
    catalog.insert(synthetic_root_zone());
    let engine = Arc::new(ServerEngine::with_catalog(catalog));

    for (figure, transport) in [
        ("Figure 13 (TCP)", Transport::Tcp),
        ("Figure 14 (TLS)", Transport::Tls),
    ] {
        println!("════ {figure} ════");
        println!(
            "{:<9} {:>12} {:>16} {:>14} {:>12} {:>12}",
            "timeout", "mem GiB", "mem GiB (×1)", "established", "TIME_WAIT", "ramp-up(s)"
        );
        for timeout_s in [5u64, 10, 15, 20, 25, 30, 35, 40] {
            let config = TransportExperiment {
                transport: Some(transport),
                idle_timeout: SimDuration::from_secs(timeout_s),
                sample_every: 30.0,
                ..Default::default()
            };
            let r = transport_experiment(engine.clone(), &trace, &config);
            // Steady state: mean over the back half of the trace. The
            // "×1" column projects connection memory to full scale
            // (the 2 GiB process baseline does not scale with rate).
            let from = spec.duration_secs * 0.5;
            let mem = r.memory_gib.steady_state_mean(from).unwrap_or(0.0);
            let base = 2.0;
            let mem_full = base + (mem - base).max(0.0) * scale;
            let steady = r.established.steady_state_mean(from).unwrap_or(0.0);
            // Ramp-up time: first sample reaching 75% of steady state
            // (the paper observes ~5 minutes to steady state).
            let ramp = r
                .established
                .samples()
                .iter()
                .find(|&&(_, v)| v >= 0.75 * steady)
                .map(|&(t, _)| t)
                .unwrap_or(f64::NAN);
            println!(
                "{:<9} {:>12.2} {:>16.1} {:>14.0} {:>12.0} {:>12.0}",
                format!("{timeout_s}s"),
                mem,
                mem_full,
                steady,
                r.time_wait.steady_state_mean(from).unwrap_or(0.0),
                ramp,
            );
        }
        println!();
    }

    // Baseline: the original mix (97% UDP), 20 s timeout.
    let config = TransportExperiment {
        transport: None,
        idle_timeout: SimDuration::from_secs(20),
        sample_every: 30.0,
        ..Default::default()
    };
    let r = transport_experiment(engine.clone(), &trace, &config);
    println!(
        "baseline (original trace, 3% TCP, 20s timeout): {:.2} GiB, {:.0} established",
        r.memory_gib
            .steady_state_mean(spec.duration_secs * 0.5)
            .unwrap_or(0.0),
        r.established
            .steady_state_mean(spec.duration_secs * 0.5)
            .unwrap_or(0.0),
    );
    println!("\npaper at full scale, 20s timeout: TCP ~15 GB / TLS ~18 GB; ~60k established,");
    println!("~120k TIME_WAIT (≈2× established); UDP-dominated baseline ~2 GB; memory and");
    println!("connections rise monotonically with the timeout; steady state in ~5 min.");
}
