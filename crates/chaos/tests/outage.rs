//! Resilience regression for the outage study (ISSUE acceptance
//! criterion): with retry + failover enabled, the resolver answers
//! ≥ 99% of stub queries through a 10% loss burst plus a
//! crash-and-restart of 3 of the 13 root letters — while the
//! no-failover policy demonstrably degrades during the same outage.

use ldp_chaos::outage::{run, OutageConfig, Phase, RetryPolicy};

#[test]
fn failover_policy_survives_the_outage() {
    let cfg = OutageConfig::standard(RetryPolicy::failover(), 11);
    let out = run(&cfg);
    assert!(
        out.ok_fraction() >= 0.99,
        "failover must answer >= 99% through the outage, got {:.4}\n{}",
        out.ok_fraction(),
        out.transcript
    );
}

#[test]
fn full_policy_survives_the_outage() {
    let cfg = OutageConfig::standard(RetryPolicy::full(), 11);
    let out = run(&cfg);
    assert!(
        out.ok_fraction() >= 0.99,
        "failover+backoff+rotate must answer >= 99%, got {:.4}",
        out.ok_fraction()
    );
}

#[test]
fn no_failover_policy_degrades_during_the_outage() {
    let cfg = OutageConfig::standard(RetryPolicy::no_failover(), 11);
    let out = run(&cfg);
    let sent = out.sent_in_phase(&cfg, Phase::During);
    let ok = out.ok_in_phase(&cfg, Phase::During);
    assert!(sent > 0, "the window must contain queries");
    assert!(
        ok < sent,
        "with no failover, some during-outage queries must fail ({ok}/{sent} ok)"
    );
    // Outside the outage the same policy is fine (sanity that the
    // degradation is the fault window, not the policy per se).
    assert_eq!(
        out.ok_in_phase(&cfg, Phase::Before),
        out.sent_in_phase(&cfg, Phase::Before),
        "pre-outage queries all succeed"
    );
}
