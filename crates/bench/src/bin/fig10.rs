//! Figure 10: response bandwidth under different DNSSEC ZSK sizes and
//! DO fractions (paper §5.1). Six bars: {72.3 %, 100 %} DO × {1024,
//! 2048, 2048-rollover} ZSK; the headline deltas are 72.3→100 % DO at
//! 2048-bit ⇒ +31 %, and the 1024→2048 rollover ⇒ +32 %.
//!
//! `cargo run --release -p ldp-bench --bin fig10 [-- --scale 40]`

use ldp_bench::{arg_f64, boxplot_row, reject_unknown_flags};
use ldp_core::{dnssec_bandwidth, synthetic_root_zone};
use workloads::BRootSpec;

fn main() {
    reject_unknown_flags(&["--scale"]);
    let scale = arg_f64("--scale", 40.0);
    let spec = BRootSpec {
        duration_secs: 120.0,
        ..BRootSpec::b_root_16_like().scaled(scale)
    };
    let trace = spec.generate(16);
    let root = synthetic_root_zone();
    println!(
        "B-Root-16-like trace: {} queries at {:.0} q/s (scale {scale}; bandwidth scales with rate)\n",
        trace.len(),
        trace.len() as f64 / spec.duration_secs
    );

    let mut medians = std::collections::HashMap::new();
    for (do_frac, group) in [(0.723, "72.3% DO (current)"), (1.0, "100% DO (what-if)")] {
        println!("── {group} ──");
        for (bits, rollover, label) in [
            (1024, false, "ZSK 1024"),
            (2048, false, "ZSK 2048"),
            (2048, true, "ZSK 2048 rollover"),
        ] {
            let r = dnssec_bandwidth(&root, &trace, bits, rollover, do_frac);
            println!("{}", boxplot_row(label, &r.summary, " Mb/s"));
            medians.insert((do_frac.to_bits(), bits, rollover), r.summary.median);
        }
        println!();
    }

    let cur = medians[&(0.723f64.to_bits(), 2048, false)];
    let all = medians[&(1.0f64.to_bits(), 2048, false)];
    let k1024 = medians[&(0.723f64.to_bits(), 1024, false)];
    let roll = medians[&(0.723f64.to_bits(), 2048, true)];
    println!("deltas (medians):");
    println!(
        "  72.3% → 100% DO at 2048-bit ZSK: {:+.0}%   (paper: +31%, 225 → 296 Mb/s at full scale)",
        (all / cur - 1.0) * 100.0
    );
    println!(
        "  1024 → 2048-bit ZSK at 72.3% DO: {:+.0}%   (paper: +32% for the root ZSK upgrade)",
        (cur / k1024 - 1.0) * 100.0
    );
    println!(
        "  2048 normal → rollover:          {:+.0}%   (paper: rollover bars visibly higher)",
        (roll / cur - 1.0) * 100.0
    );
}
