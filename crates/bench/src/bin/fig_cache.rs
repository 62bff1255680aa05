//! `fig_cache`: the delayed-hits caching study — the resolver-caching
//! what-if of paper §5 made runnable. One recursive resolver backed by
//! `ldp-cache` (bounded store, in-flight aggregation, RFC 2308 negative
//! caching) serves a heavy-tailed Zipf stub workload, and we report the
//! hit / delayed-hit / miss split plus client-latency CDFs per class as
//! cache capacity and eviction policy vary — then repeat a leg with the
//! upstream servers crashed for a window to show aggregation riding
//! through an outage.
//!
//! The run doubles as a regression gate: it first proves same-seed runs
//! are byte-identical (rerun, telemetry on vs off), that a cold-name
//! burst coalesces onto exactly one upstream query, and that bounded
//! eviction is deterministic; it exits nonzero if any check fails.
//!
//! `cargo run --release -p ldp-bench --bin fig_cache [-- --seed 11]`

use dns_resolver::sim_resolver::AnswerClass;
use ldp_bench::{arg_u64, cdf_rows, identical, ok_fail, reject_unknown_flags};
use ldp_chaos::delayed::{self, run, DelayedConfig, DelayedOutcome, PolicyKind};
use ldp_chaos::scenario;
use netsim::{SimDuration, SimTime};

fn cap_label(capacity: usize) -> String {
    if capacity == usize::MAX {
        "inf".to_string()
    } else {
        capacity.to_string()
    }
}

fn split_row(label: &str, out: &DelayedOutcome) -> String {
    format!(
        "{:<28} {:>6} {:>12} {:>6} {:>9} {:>9} {:>9.1}%",
        label,
        out.count(AnswerClass::Hit),
        out.count(AnswerClass::DelayedHit),
        out.count(AnswerClass::Miss),
        out.count(AnswerClass::ServFail),
        out.snapshot.stats.evictions,
        out.ok_fraction() * 100.0
    )
}

fn main() {
    reject_unknown_flags(&["--seed"]);
    let seed = arg_u64("--seed", 11);
    let mut failed = false;

    let capacities: [usize; 2] = [64, 256];
    let shape = DelayedConfig::standard(capacities[0], PolicyKind::Lru, seed);
    println!(
        "delayed-hits caching study: {} names (zipf s={}), {} queries at {} ms spacing,",
        shape.names,
        shape.zipf_s,
        shape.queries,
        shape.query_gap.as_nanos() / 1_000_000
    );
    println!(
        "record TTL {}s, every {}th rank NXDOMAIN, {} upstream servers, seed {seed}\n",
        shape.record_ttl, shape.nx_every, shape.servers
    );

    // Determinism gate: same seed → byte-identical transcripts on a
    // rerun and with telemetry enabled vs disabled (telemetry must be
    // a pure observer).
    let first = run(&shape);
    let rerun_ok = first.transcript == run(&shape).transcript;
    let mut sim = scenario::simulator(scenario::wan_rtt(), shape.seed);
    sim.set_recording(true);
    let telem_on = delayed::run_on(&shape, &mut sim);
    let telem_ok = first.transcript == telem_on.transcript;
    println!(
        "determinism: same-seed rerun {} ({} transcript bytes), telemetry on/off {}",
        identical(rerun_ok),
        first.transcript.len(),
        identical(telem_ok),
    );
    failed |= !rerun_ok || !telem_ok;

    // Dedup gate: a cold-name burst of 8 concurrent stubs must reach
    // the upstream exactly once and come back as 1 miss + 7 delayed
    // hits.
    let burst = run(&DelayedConfig::burst(8, seed));
    let dedup_ok = burst.upstream_rx == 1
        && burst.count(AnswerClass::Miss) == 1
        && burst.count(AnswerClass::DelayedHit) == 7
        && burst.ok_fraction() >= 1.0;
    println!(
        "dedup: 8-stub cold burst → {} upstream query(s), {} miss + {} delayed hits — {}",
        burst.upstream_rx,
        burst.count(AnswerClass::Miss),
        burst.count(AnswerClass::DelayedHit),
        ok_fail(dedup_ok)
    );
    failed |= !dedup_ok;

    // Eviction gate: a bounded run must actually evict, stay within
    // capacity, and do so identically on a rerun (deterministic
    // rank-based eviction, no ambient state).
    let bounded = DelayedConfig::standard(capacities[0], PolicyKind::DelayAware, seed);
    let ev_a = run(&bounded);
    let ev_b = run(&bounded);
    let evict_ok = ev_a.snapshot.stats.evictions > 0
        && ev_a.snapshot.cache_len <= capacities[0]
        && ev_a.transcript == ev_b.transcript;
    println!(
        "eviction: capacity {} ({}) evicted {} entries, rerun {} — {}\n",
        capacities[0],
        bounded.policy.label(),
        ev_a.snapshot.stats.evictions,
        identical(ev_a.transcript == ev_b.transcript),
        ok_fail(evict_ok)
    );
    failed |= !evict_ok;

    // The study grid: capacity × eviction policy, plus an unbounded
    // baseline, all on the identical workload (same seed → same query
    // sequence, so the split differences are purely the cache's).
    println!(
        "{:<28} {:>6} {:>12} {:>6} {:>9} {:>9} {:>10}",
        "capacity/policy", "hits", "delayed-hits", "miss", "servfail", "evicted", "answered"
    );
    let baseline = run(&DelayedConfig::standard(usize::MAX, PolicyKind::Lru, seed));
    println!("{}", split_row("inf/any", &baseline));
    failed |= baseline.ok_fraction() < 1.0;
    let mut grid = Vec::new();
    for &cap in &capacities {
        for policy in PolicyKind::ALL {
            let cfg = DelayedConfig::standard(cap, policy, seed);
            let out = run(&cfg);
            let label = format!("{}/{}", cap_label(cap), policy.label());
            println!("{}", split_row(&label, &out));
            failed |= out.ok_fraction() < 1.0;
            grid.push((label, out));
        }
    }

    println!("\nclient latency CDFs (s), by answer class:");
    for (label, out) in &grid {
        for class in [AnswerClass::Hit, AnswerClass::DelayedHit, AnswerClass::Miss] {
            let samples = out.latencies_secs(class);
            for row in cdf_rows(&format!("{label}/{}", class.label()), &samples, "s") {
                println!("  {row}");
            }
        }
        println!();
    }

    // Outage leg: same workload, every upstream server crashed for a
    // window mid-run. In-flight aggregation holds each cold name's
    // waiters on ONE retrying resolution instead of hammering the dead
    // upstreams, and the retry budget outlasts the outage — so the
    // study still answers everything, just slower.
    let mut outage = DelayedConfig::standard(capacities[1], PolicyKind::Lru, seed);
    let span = outage.query_gap.times(outage.queries as u64).as_secs_f64();
    outage.crash = Some((
        SimTime::from_secs_f64(1.0 + span * 0.2),
        SimTime::from_secs_f64(1.0 + span * 0.8),
    ));
    outage.delay_spike = Some((
        SimTime::from_secs_f64(1.0 + span * 0.2),
        SimTime::from_secs_f64(1.0 + span * 0.8),
        SimDuration::from_millis(100),
    ));
    let out = run(&outage);
    println!("outage leg: all upstreams down over ~60% of the run (+100ms delay spike):");
    println!(
        "{:<28} {:>6} {:>12} {:>6} {:>9} {:>9} {:>10}",
        "capacity/policy", "hits", "delayed-hits", "miss", "servfail", "evicted", "answered"
    );
    println!(
        "{}",
        split_row(
            &format!(
                "{}/{} (outage)",
                cap_label(outage.capacity),
                outage.policy.label()
            ),
            &out
        )
    );
    for class in [AnswerClass::Hit, AnswerClass::DelayedHit, AnswerClass::Miss] {
        let samples = out.latencies_secs(class);
        for row in cdf_rows(&format!("outage/{}", class.label()), &samples, "s") {
            println!("  {row}");
        }
    }
    let outage_ok = out.ok_fraction() >= 1.0 && out.count(AnswerClass::DelayedHit) > 0;
    println!(
        "gate: outage leg answered {:>6.2}% with {} delayed hits — {}",
        out.ok_fraction() * 100.0,
        out.count(AnswerClass::DelayedHit),
        ok_fail(outage_ok)
    );
    failed |= !outage_ok;

    println!("\ntakeaway: under a heavy-tailed workload most queries are plain hits, but the");
    println!("head-of-line misses each drag a train of coalesced waiters (delayed hits) whose");
    println!("latency is set by the upstream fill, not the cache — so capacity and policy");
    println!("move the miss column while aggregation bounds upstream load even mid-outage.");

    if failed {
        std::process::exit(1);
    }
}
