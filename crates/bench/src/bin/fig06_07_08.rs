//! Figures 6, 7 and 8: replay fidelity over real UDP loopback.
//!
//! - **Figure 6** — per-query time error (replayed vs original arrival,
//!   relative to the first query): quartiles/min/max per trace.
//! - **Figure 7** — inter-arrival CDFs, original vs replayed.
//! - **Figure 8** — CDF of per-second query-rate relative difference
//!   across repeated B-Root-like replays.
//!
//! `cargo run --release -p ldp-bench --bin fig06_07_08 [-- --seconds 30 --trials 5 --broot-rate 2000]`

use ldp_bench::{arg_f64, arg_u64, boxplot_row, cdf_rows, reject_unknown_flags};
use ldp_core::{run_fidelity_session, SessionConfig};
use ldp_metrics::Cdf;
use workloads::{BRootSpec, SyntheticTraceSpec};

fn main() {
    reject_unknown_flags(&["--seconds", "--trials", "--broot-rate"]);
    let seconds = arg_f64("--seconds", 30.0);
    let trials = arg_u64("--trials", 5);
    let broot_rate = arg_f64("--broot-rate", 2000.0);

    println!("== Figure 6: query-time error in replay (skip first 10% as startup) ==\n");
    let mut syn_traces = Vec::new();
    for (name, ia) in [
        ("syn-4 (0.1ms)", 0.0001),
        ("syn-3 (1ms)", 0.001),
        ("syn-2 (10ms)", 0.01),
        ("syn-1 (0.1s)", 0.1),
        ("syn-0 (1s)", 1.0),
    ] {
        // Keep at least 100 queries per trace, at most `seconds` long.
        let dur = seconds
            .max(100.0 * ia)
            .min(if ia >= 1.0 { 120.0 } else { seconds * 4.0 });
        let mut spec = SyntheticTraceSpec::fixed_interarrival(ia, dur);
        spec.client_pool = 1000;
        syn_traces.push((name, spec.generate(6)));
    }
    let broot = BRootSpec {
        duration_secs: seconds,
        mean_rate: broot_rate,
        clients: 20_000,
        ..BRootSpec::b_root_16_like()
    }
    .generate(6);

    let mut fig7: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for (name, trace) in syn_traces
        .iter()
        .map(|(n, t)| (*n, t))
        .chain(std::iter::once(("B-Root", &broot)))
    {
        let config = SessionConfig {
            skip_secs: seconds * 0.1,
            ..Default::default()
        };
        let report = run_fidelity_session(trace, &config);
        println!("{}", boxplot_row(name, &report.error_summary, "ms"));
        println!(
            "{:28} min {:>9.3}ms  max {:>9.3}ms  matched {}/{}\n",
            "",
            report.error_summary.min,
            report.error_summary.max,
            report.matched,
            trace.len()
        );
        fig7.push((
            name.to_string(),
            report.original_interarrivals.clone(),
            report.replayed_interarrivals.clone(),
        ));
    }
    println!("paper: quartiles within ±2.5 ms (±8 ms at the 0.1 s inter-arrival); min/max within ±17 ms\n");

    println!("== Figure 7: inter-arrival CDFs (original vs replayed) ==\n");
    for (name, orig, replayed) in &fig7 {
        for row in cdf_rows(&format!("{name} original"), orig, "s") {
            println!("{row}");
        }
        for row in cdf_rows(&format!("{name} replayed"), replayed, "s") {
            println!("{row}");
        }
        if let (Some(a), Some(b)) = (Cdf::of(orig), Cdf::of(replayed)) {
            println!("{name:<24} KS distance = {:.4}\n", a.ks_distance(&b));
        }
    }
    println!("paper: curves overlap for inter-arrivals ≥10 ms; more jitter below 1 ms\n");

    println!("== Figure 8: per-second rate difference, {trials} B-Root replays ==\n");
    let mut all_diffs = Vec::new();
    for trial in 0..trials {
        let report = run_fidelity_session(&broot, &SessionConfig::default());
        let within: usize = report
            .rate_differences
            .iter()
            .filter(|d| d.abs() <= 0.001)
            .count();
        println!(
            "trial {trial}: {} rate buckets, {:.1}% within ±0.1%",
            report.rate_differences.len(),
            100.0 * within as f64 / report.rate_differences.len().max(1) as f64
        );
        all_diffs.extend(report.rate_differences);
    }
    println!();
    for row in cdf_rows("rate diff (fraction)", &all_diffs, "") {
        println!("{row}");
    }
    println!("\npaper: 95–99% of seconds within ±0.1% difference (median rate 38k q/s)");
}
