//! Table 1: the trace inventory — record counts, inter-arrival
//! mean/stddev, distinct client IPs — for the B-Root-like, Rec-17-like
//! and synthetic traces this reproduction generates in place of the
//! paper's proprietary captures.
//!
//! `cargo run --release -p ldp-bench --bin table1 [-- --scale 100]`

use ldp_bench::{arg_f64, reject_unknown_flags};
use ldp_trace::TraceStats;
use workloads::{BRootSpec, RecursiveSpec, SyntheticTraceSpec};

fn main() {
    reject_unknown_flags(&["--scale"]);
    let scale = arg_f64("--scale", 100.0);
    println!("Table 1 reproduction (workloads scaled {scale}× down; --scale 1 = full size)\n");
    println!(
        "{:<12} {:>10}  {:>9}  {:<28} {:>10}  {:>9}",
        "trace", "records", "duration", "inter-arrival mean±sd (s)", "client IPs", "q/s"
    );

    let print_row = |name: &str, trace: &[ldp_trace::TraceEntry]| {
        let s = TraceStats::compute(trace).expect("non-empty");
        println!(
            "{:<12} {:>10}  {:>8.0}s  {:<28} {:>10}  {:>9.0}",
            name,
            s.records,
            s.duration_secs,
            format!("{:.6} ±{:.6}", s.interarrival_mean, s.interarrival_stddev),
            s.client_ips,
            s.mean_rate
        );
    };

    for (name, spec) in [
        ("B-Root-16", BRootSpec::b_root_16_like()),
        ("B-Root-17a", BRootSpec::b_root_17a()),
        ("B-Root-17b", BRootSpec::b_root_17b()),
    ] {
        let t = spec.scaled(scale).generate(16);
        print_row(name, &t);
    }
    {
        let mut spec = RecursiveSpec::rec_17();
        spec.duration_secs = (spec.duration_secs / scale.max(1.0)).max(60.0);
        let t = spec.generate(17);
        print_row("Rec-17", &t);
    }
    for (name, mut spec) in SyntheticTraceSpec::paper_series() {
        spec.duration_secs = (spec.duration_secs / scale.max(1.0)).max(10.0);
        // syn-4 at 0.1 ms inter-arrival stays substantial even scaled.
        let t = spec.generate(18);
        print_row(&name, &t);
    }

    println!("\npaper reference (Table 1, full scale):");
    println!("  B-Root-16   137M records, 3600s, 27µs ±619µs,  1.07M clients");
    println!("  B-Root-17a  141M records, 3600s, 23µs ±1647µs, 1.17M clients");
    println!("  B-Root-17b   53M records, 1200s, 25µs ±1536µs, 725k clients");
    println!("  Rec-17       20k records, 3600s, 0.18s ±0.36s,  91 clients");
    println!("  syn-0..4    3.6k..36M records at 1s..0.1ms fixed inter-arrival");
}
