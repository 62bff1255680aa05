//! Delayed-hit aggregation under chaos (ISSUE acceptance criterion):
//! while a fault plan stretches or severs the upstream path, N stubs
//! asking the same cold name must produce exactly one upstream query,
//! N answers, and deterministic per-waiter latencies — byte-identical
//! across same-seed reruns.

use dns_resolver::sim_resolver::AnswerClass;
use ldp_chaos::delayed::{run, DelayedConfig};
use netsim::{SimDuration, SimTime};

/// A burst of 8 same-name queries under a delay spike covering the
/// whole resolution: the spike stretches the in-flight window, so all
/// the aggregation happens while the upstream answer is crawling back.
fn spiked_burst() -> DelayedConfig {
    let mut cfg = DelayedConfig::burst(8, 21);
    cfg.delay_spike = Some((
        SimTime::from_secs_f64(0.5),
        SimTime::from_secs_f64(3.0),
        SimDuration::from_millis(400),
    ));
    cfg
}

/// The same burst under a full upstream outage: every authoritative
/// server is down when the queries arrive and restarts two seconds
/// later, so the one in-flight resolution must survive retries until
/// the restart and then fan out to every waiter.
fn crashed_burst() -> DelayedConfig {
    let mut cfg = DelayedConfig::burst(8, 22);
    cfg.crash = Some((SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(3.0)));
    cfg
}

#[test]
fn delay_spike_burst_coalesces_to_one_upstream_query() {
    let out = run(&spiked_burst());
    assert_eq!(
        out.upstream_rx, 1,
        "8 concurrent stubs, 1 upstream query:\n{}",
        out.transcript
    );
    assert_eq!(out.records.len(), 8);
    assert!(
        out.ok_fraction() >= 1.0,
        "all 8 answered:\n{}",
        out.transcript
    );
    assert_eq!(out.count(AnswerClass::Miss), 1, "exactly one lead miss");
    assert_eq!(
        out.count(AnswerClass::DelayedHit),
        7,
        "seven coalesced waiters"
    );
    assert_eq!(out.snapshot.outstanding.leads, 1);
    assert_eq!(out.snapshot.outstanding.coalesced, 7);
    // The spike makes the wait substantial: every delayed hit waited a
    // nonzero residual, and none waited longer than the lead miss took.
    let miss_latency = out
        .latencies_secs(AnswerClass::Miss)
        .first()
        .copied()
        .expect("the lead miss answered");
    assert!(
        miss_latency > 0.4,
        "spiked resolution is slow: {miss_latency}"
    );
    for rec in out
        .records
        .iter()
        .filter(|r| r.class == Some(AnswerClass::DelayedHit))
    {
        assert!(
            rec.waited_ns > 0,
            "a delayed hit waited on the in-flight fill"
        );
        assert!(
            rec.waited_ns as f64 / 1e9 <= miss_latency + 1e-9,
            "waiters never wait longer than the full resolution"
        );
    }
}

#[test]
fn server_crash_burst_survives_via_aggregation() {
    let out = run(&crashed_burst());
    assert!(
        out.ok_fraction() >= 1.0,
        "all 8 answered after the restart:\n{}",
        out.transcript
    );
    assert_eq!(out.count(AnswerClass::Miss), 1);
    assert_eq!(out.count(AnswerClass::DelayedHit), 7);
    assert_eq!(
        out.snapshot.outstanding.leads, 1,
        "one lead through the outage"
    );
    // The answer can only arrive after the restart at t=3s; queries
    // went out at t=1s, so every latency reflects the outage wait.
    for lat in out
        .latencies_secs(AnswerClass::Miss)
        .into_iter()
        .chain(out.latencies_secs(AnswerClass::DelayedHit))
    {
        assert!(lat >= 2.0, "answers gated on the restart, got {lat}s");
    }
}

#[test]
fn burst_transcripts_are_byte_identical_across_reruns() {
    for make in [spiked_burst, crashed_burst] {
        assert_eq!(run(&make()).transcript, run(&make()).transcript);
    }
}

#[test]
fn per_waiter_latencies_are_deterministic_and_monotone() {
    let out = run(&spiked_burst());
    // Stub timers all fire at t=1s but arrive at the resolver in query
    // order; each later waiter waits no longer than an earlier one.
    let mut waits: Vec<u64> = out
        .records
        .iter()
        .filter(|r| r.class == Some(AnswerClass::DelayedHit))
        .map(|r| r.waited_ns)
        .collect();
    assert_eq!(waits.len(), 7);
    let sorted = {
        let mut w = waits.clone();
        w.sort_unstable_by(|a, b| b.cmp(a));
        w
    };
    assert_eq!(waits, sorted, "earlier arrivals wait longer: {waits:?}");
    waits.dedup();
    assert!(!waits.is_empty());
}
