//! What-if: every query asks for DNSSEC (paper §5.1, Figure 10, scaled).
//!
//! Replays a B-Root-shaped trace against root zones signed with
//! different ZSK sizes (1024/2048, normal and rollover) at the 2016 DO
//! fraction (72.3 %) and at 100 %, reporting median response bandwidth.
//!
//! Run: `cargo run --release --example dnssec_whatif`

use ldplayer::core::{dnssec_bandwidth, synthetic_root_zone};
use ldplayer::workloads::BRootSpec;

fn main() {
    let spec = BRootSpec {
        duration_secs: 60.0,
        mean_rate: 1000.0,
        clients: 10_000,
        ..BRootSpec::b_root_16_like()
    };
    let trace = spec.generate(16);
    let root = synthetic_root_zone();
    println!(
        "trace: {} queries over {}s",
        trace.len(),
        spec.duration_secs
    );
    println!("\n{:<34} {:>12}", "configuration", "median Mb/s");

    let mut results = Vec::new();
    for (do_frac, label) in [(0.723, "72.3% DO (2016 mix)"), (1.0, "100% DO (what-if)")] {
        for (bits, rollover, klabel) in [
            (1024, false, "1024-bit ZSK"),
            (2048, false, "2048-bit ZSK"),
            (2048, true, "2048-bit ZSK rollover"),
        ] {
            let r = dnssec_bandwidth(&root, &trace, bits, rollover, do_frac);
            println!(
                "{:<34} {:>12.3}",
                format!("{label}, {klabel}"),
                r.summary.median
            );
            results.push(((do_frac, bits, rollover), r.summary.median));
        }
    }
    let get = |k: (f64, u32, bool)| results.iter().find(|(key, _)| *key == k).unwrap().1;
    let cur = get((0.723, 2048, false));
    let all = get((1.0, 2048, false));
    let roll1024 = get((0.723, 1024, false));
    println!(
        "\n72.3% → 100% DO at 2048-bit ZSK: {:+.0}% (paper: +31%)",
        (all / cur - 1.0) * 100.0
    );
    println!(
        "1024 → 2048-bit ZSK at current DO: {:+.0}% (paper: +32% for the rollover)",
        (cur / roll1024 - 1.0) * 100.0
    );
}
