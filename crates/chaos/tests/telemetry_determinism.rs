//! Telemetry must be a pure observer (ISSUE 4 acceptance criteria):
//!
//! * same-seed outage transcripts are byte-identical with telemetry
//!   enabled vs disabled,
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

/// Drain every flushed + thread-local event into the deterministic
/// text rendering (virtual timestamps and interned kind names only, so
/// equal runs must render equal logs).
fn drain_rendered() -> String {
    let events = tel::drain_all();
    tel::render_timeline(&events)
}

#[test]
fn telemetry_is_a_pure_observer_of_the_outage() {
    let cfg = OutageConfig::smoke(RetryPolicy::failover(), 11);

    // Baseline: telemetry off (the compile-time default state).
    tel::set_enabled(false);
    let _ = drain_rendered();
    let off = run(&cfg).transcript;

    // Telemetry on: transcripts must be byte-identical to the off run.
    tel::set_enabled(true);
    let _ = drain_rendered();
    let on1 = run(&cfg).transcript;
    let log1 = drain_rendered();
    let on2 = run(&cfg).transcript;
    let log2 = drain_rendered();
    tel::set_enabled(false);

    assert_eq!(
        off, on1,
        "enabling telemetry changed the simulation transcript"
    );
    assert_eq!(on1, on2, "same-seed telemetry-on runs diverged");

    assert!(
        log1.lines().count() > 10,
        "an outage run should record a rich event log, got:\n{log1}"
    );
    assert_eq!(
        log1, log2,
        "two telemetry-enabled runs drained different event logs"
    );
}
