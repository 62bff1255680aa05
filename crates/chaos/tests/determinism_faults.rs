//! Determinism regression: with a fault plan active (loss burst +
//! crashes + restarts), the same seed must produce byte-identical
//! simulator transcripts, whichever event-queue backend runs the show.
//! This is the contract that makes failure experiments reproducible.

use ldp_chaos::outage::{run, OutageConfig, RetryPolicy};
use netsim::QueueKind;

#[test]
fn same_seed_same_backend_is_byte_identical() {
    let cfg = OutageConfig::smoke(RetryPolicy::full(), 0xfa117, QueueKind::Heap);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.transcript, b.transcript, "two runs, one transcript");
}

#[test]
fn heap_and_btree_backends_are_byte_identical() {
    let heap = run(&OutageConfig::smoke(
        RetryPolicy::full(),
        0xfa117,
        QueueKind::Heap,
    ));
    let btree = run(&OutageConfig::smoke(
        RetryPolicy::full(),
        0xfa117,
        QueueKind::BTree,
    ));
    // The queue kind is printed in the header line; everything after it
    // (every event, every timestamp) must match exactly.
    let tail = |t: &str| t.lines().skip(2).collect::<Vec<_>>().join("\n");
    assert_eq!(
        tail(&heap.transcript),
        tail(&btree.transcript),
        "fault injection must not desynchronize the two queue backends"
    );
}

#[test]
fn different_seed_changes_the_run() {
    let a = run(&OutageConfig::smoke(
        RetryPolicy::full(),
        1,
        QueueKind::Heap,
    ));
    let b = run(&OutageConfig::smoke(
        RetryPolicy::full(),
        2,
        QueueKind::Heap,
    ));
    assert_ne!(
        a.transcript, b.transcript,
        "the loss draws must actually depend on the seed"
    );
}
