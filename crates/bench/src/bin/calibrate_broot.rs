//! Calibration probe for the B-Root-like workload generator: prints the
//! three statistics the paper's experiments pin down — distinct active
//! sources per 20 s window (Figure 13b's connection driver), the top-1 %
//! client share and the <10-query client fraction (Figure 15c) — so the
//! `zipf_s` / `locality` knobs can be fit against the paper's reported
//! values (~60 k, ~75 %, ~81 %).
//!
//! `cargo run --release -p ldp-bench --bin calibrate_broot`

fn main() {
    ldp_bench::reject_unknown_flags(&[]);
    use std::collections::{HashMap, HashSet};
    let scale = 40.0;
    let spec = workloads::BRootSpec {
        duration_secs: 300.0,
        ..workloads::BRootSpec::b_root_17b().scaled(scale)
    };
    let t = spec.generate(15);
    // Distinct sources per 20 s window (mid-trace).
    let t0 = t[0].time_us;
    let win: HashSet<_> = t
        .iter()
        .filter(|e| {
            let s = (e.time_us - t0) as f64 / 1e6;
            (140.0..160.0).contains(&s)
        })
        .map(|e| e.src.ip())
        .collect();
    println!(
        "distinct sources in 20s window: {} (x{} = {})",
        win.len(),
        scale,
        win.len() as f64 * scale
    );
    // Per-client load CDF stats.
    let mut per: HashMap<std::net::IpAddr, u64> = HashMap::new();
    for e in &t {
        *per.entry(e.src.ip()).or_default() += 1;
    }
    let mut loads: Vec<u64> = per.values().copied().collect();
    loads.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = loads.iter().sum();
    let top1: u64 = loads.iter().take(loads.len().div_ceil(100)).sum();
    let low = loads.iter().filter(|&&l| l < 10).count();
    println!(
        "clients {}, top1% share {:.0}%, <10 queries {:.0}%",
        loads.len(),
        100.0 * top1 as f64 / total as f64,
        100.0 * low as f64 / loads.len() as f64
    );
}
