//! Determinism regression: with a fault plan active (loss burst +
//! crashes + restarts), the same seed must produce byte-identical
//! simulator transcripts. This is the contract that makes failure
//! experiments reproducible.

use ldp_chaos::outage::{run, OutageConfig, RetryPolicy};

#[test]
fn same_seed_is_byte_identical() {
    let cfg = OutageConfig::smoke(RetryPolicy::full(), 0xfa117);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.transcript, b.transcript, "two runs, one transcript");
}

#[test]
fn different_seed_changes_the_run() {
    let a = run(&OutageConfig::smoke(RetryPolicy::full(), 1));
    let b = run(&OutageConfig::smoke(RetryPolicy::full(), 2));
    assert_ne!(
        a.transcript, b.transcript,
        "the loss draws must actually depend on the seed"
    );
}
