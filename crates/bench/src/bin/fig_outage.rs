//! `fig_outage`: the root-letter outage study — §1's motivating
//! root-DDoS what-if made runnable. 13 root-letter servers behind one
//! recursive resolver; at t=5 s three letters crash and a 10 % loss
//! burst starts on every path; at t=13 s the letters restart and the
//! burst ends. 300 stub queries at 50 ms spacing flow through the
//! resolver under three retry policies, and we report answered
//! fractions and latency CDFs by phase (before / during / after the
//! outage window).
//!
//! The run doubles as a regression gate: it first proves two same-seed
//! runs are byte-identical, then asserts the failover policies answer
//! ≥ 99 % of queries through the outage, and exits nonzero if either
//! check fails.
//!
//! `cargo run --release -p ldp-bench --bin fig_outage [-- --seed 11]`

use ldp_bench::{arg_u64, cdf_rows, identical, ok_fail, reject_unknown_flags};
use ldp_chaos::outage::{run, OutageConfig, OutageOutcome, Phase, RetryPolicy};

/// Answered-fraction floor for the failover policies (ISSUE 3
/// acceptance criterion).
const OK_FLOOR: f64 = 0.99;

fn phase_cell(out: &OutageOutcome, cfg: &OutageConfig, phase: Phase) -> String {
    format!(
        "{}/{}",
        out.ok_in_phase(cfg, phase),
        out.sent_in_phase(cfg, phase)
    )
}

fn main() {
    reject_unknown_flags(&["--seed"]);
    let seed = arg_u64("--seed", 11);
    let mut failed = false;

    let shape = OutageConfig::standard(RetryPolicy::full(), seed);
    println!(
        "root-letter outage study: {} letters, {} crash over [{}s,{}s) with {:.0}% loss,",
        shape.letters,
        shape.crashed,
        shape.outage_start.as_secs_f64(),
        shape.outage_end.as_secs_f64(),
        shape.loss_rate * 100.0
    );
    println!(
        "{} stub queries at {} ms spacing, stub retries {}×{} ms, seed {seed}\n",
        shape.queries,
        shape.query_gap.as_nanos() / 1_000_000,
        shape.stub_attempts,
        shape.stub_retry_gap.as_nanos() / 1_000_000
    );

    // Determinism gate: same seed → byte-identical transcripts.
    let first = run(&shape);
    let rerun_ok = first.transcript == run(&shape).transcript;
    println!(
        "determinism: same-seed rerun {} ({} transcript bytes)",
        identical(rerun_ok),
        first.transcript.len(),
    );
    failed |= !rerun_ok;

    let policies = [
        RetryPolicy::no_failover(),
        RetryPolicy::failover(),
        RetryPolicy::full(),
    ];
    println!(
        "\n{:<26} {:>12} {:>12} {:>12} {:>10}",
        "policy (ok/sent)", "before", "during", "after", "answered"
    );
    let mut outcomes = Vec::new();
    for policy in policies {
        let cfg = OutageConfig::standard(policy, seed);
        let out = run(&cfg);
        println!(
            "{:<26} {:>12} {:>12} {:>12} {:>9.1}%",
            policy.label,
            phase_cell(&out, &cfg, Phase::Before),
            phase_cell(&out, &cfg, Phase::During),
            phase_cell(&out, &cfg, Phase::After),
            out.ok_fraction() * 100.0
        );
        outcomes.push((cfg, out));
    }

    println!("\nanswer latency CDFs (s), by phase of first send:");
    for (cfg, out) in &outcomes {
        for phase in [Phase::Before, Phase::During, Phase::After] {
            let label = format!("{}/{:?}", cfg.policy.label, phase);
            let samples = out.latencies_secs(cfg, phase);
            for row in cdf_rows(&label, &samples, "s") {
                println!("  {row}");
            }
        }
        println!();
    }

    // Resilience gate: both failover policies must clear the floor; the
    // no-failover baseline must demonstrably lose queries during the
    // window (otherwise the fault plan injected nothing).
    for (cfg, out) in &outcomes[1..] {
        let frac = out.ok_fraction();
        let ok = frac >= OK_FLOOR;
        println!(
            "gate: {:<26} answered {:>6.2}% (floor {:.0}%) — {}",
            cfg.policy.label,
            frac * 100.0,
            OK_FLOOR * 100.0,
            ok_fail(ok)
        );
        failed |= !ok;
    }
    let (base_cfg, base) = &outcomes[0];
    let degraded =
        base.ok_in_phase(base_cfg, Phase::During) < base.sent_in_phase(base_cfg, Phase::During);
    println!(
        "gate: {:<26} degrades during the outage — {}",
        base_cfg.policy.label,
        if degraded {
            "ok (faults are live)"
        } else {
            "FAIL (outage had no effect)"
        }
    );
    failed |= !degraded;

    println!("\ntakeaway: a 3-of-13-letter outage plus 10% loss is survivable with plain");
    println!("failover (next-NS on timeout/SERVFAIL); backoff+rotation additionally spreads");
    println!("retry load and keeps during-outage tail latency bounded by the retry budget.");

    if failed {
        std::process::exit(1);
    }
}
