//! Telemetry must be a pure observer (ISSUE 4 acceptance criteria):
//!
//! * same-seed outage transcripts are byte-identical with telemetry
//!   enabled vs disabled,
//! * the equivalence holds across both event-queue backends,
//! * two telemetry-enabled runs drain identical event logs.
//!
//! Everything lives in ONE `#[test]` because the telemetry enable flag
//! and the flushed-event store are process-global: the harness runs
//! `#[test]` fns on parallel threads, and interleaving a second test
//! that toggles the flag mid-run would race. Keeping the whole
//! enable→run→drain→disable sequence in a single fn (in its own test
//! binary) makes the sequencing explicit.

use ldp_chaos::outage::{run, OutageConfig, RetryPolicy};
use ldp_telemetry as tel;
use netsim::QueueKind;

/// Drain every flushed + thread-local event into the deterministic
/// text rendering (virtual timestamps and interned kind names only, so
/// equal runs must render equal logs).
fn drain_rendered() -> String {
    let events = tel::drain_all();
    tel::render_timeline(&events)
}

/// Everything after the config header (every event, every timestamp) —
/// the part of the transcript that must match across queue backends.
fn tail(t: &str) -> String {
    t.lines().skip(2).collect::<Vec<_>>().join("\n")
}

#[test]
fn telemetry_is_a_pure_observer_of_the_outage() {
    let heap = OutageConfig::smoke(RetryPolicy::failover(), 11, QueueKind::Heap);
    let btree = OutageConfig::smoke(RetryPolicy::failover(), 11, QueueKind::BTree);

    // Baseline: telemetry off (the compile-time default state).
    tel::set_enabled(false);
    let _ = drain_rendered();
    let off_heap = run(&heap).transcript;
    let off_btree = run(&btree).transcript;
    assert_eq!(
        tail(&off_heap),
        tail(&off_btree),
        "queue backends diverged before telemetry was involved"
    );

    // Telemetry on: transcripts must be byte-identical to the off runs.
    tel::set_enabled(true);
    let _ = drain_rendered();
    let on1 = run(&heap).transcript;
    let log1 = drain_rendered();
    let on2 = run(&heap).transcript;
    let log2 = drain_rendered();
    let on_btree = run(&btree).transcript;
    let log_btree = drain_rendered();
    tel::set_enabled(false);

    assert_eq!(
        off_heap, on1,
        "enabling telemetry changed the simulation transcript"
    );
    assert_eq!(on1, on2, "same-seed telemetry-on runs diverged");
    assert_eq!(
        off_btree, on_btree,
        "telemetry-on BTree transcript diverged"
    );
    assert_eq!(
        tail(&on1),
        tail(&on_btree),
        "queue backends diverged with telemetry on"
    );

    assert!(
        log1.lines().count() > 10,
        "an outage run should record a rich event log, got:\n{log1}"
    );
    assert_eq!(
        log1, log2,
        "two telemetry-enabled runs drained different event logs"
    );
    // The BTree backend replays the identical event sequence, so its
    // drained log matches the heap runs too.
    assert_eq!(log1, log_btree, "event log differs across queue backends");
}
