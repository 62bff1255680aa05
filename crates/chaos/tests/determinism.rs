//! Determinism of the three fault studies, one table: the contract
//! that makes failure experiments reproducible.
//!
//! Every row (one study leg) must rerun byte-identically for a seed.
//! Rows that draw randomness must actually depend on the seed: a
//! different one changes the transcript *body* (the header lines carry
//! `seed=` and are skipped). And telemetry must be a pure observer: on
//! rows that can run with it off, the transcript is byte-identical on
//! vs off, and two telemetry-on runs drain equal event logs.
//!
//! Everything lives in ONE `#[test]` because the telemetry enable flag
//! and the flushed-event store are process-global: the harness runs
//! `#[test]` fns on parallel threads, and a second test toggling the
//! flag mid-run would race.

use ldp_chaos::delayed::{self, DelayedConfig, PolicyKind};
use ldp_chaos::outage::{self, OutageConfig, RetryPolicy};
use ldp_chaos::recovery::{self, RecoveryConfig, StormConfig};
use ldp_telemetry as tel;

struct Row {
    name: &'static str,
    /// Run the leg for a seed; return its transcript.
    run: fn(u64) -> String,
    /// What the leg draws from its seed, if anything.
    draws: Option<&'static str>,
    /// Whether the leg honours the telemetry flag (the recovery legs
    /// force it on, so they have no off run to compare with).
    telemetry_optional: bool,
}

const ROWS: [Row; 4] = [
    Row {
        name: "outage (smoke, full policy)",
        run: |seed| outage::run(&OutageConfig::smoke(RetryPolicy::full(), seed)).transcript,
        draws: Some("the loss burst"),
        telemetry_optional: true,
    },
    Row {
        name: "delayed (smoke, capacity 24, delay-aware)",
        run: |seed| {
            delayed::run(&DelayedConfig::smoke(24, PolicyKind::DelayAware, seed)).transcript
        },
        draws: Some("the Zipf ranks"),
        telemetry_optional: true,
    },
    Row {
        name: "recovery (smoke, querier crash)",
        run: |seed| recovery::run_querier_crash(&RecoveryConfig::smoke(seed)).transcript,
        draws: None,
        telemetry_optional: false,
    },
    Row {
        name: "recovery (smoke, storm baseline)",
        run: |seed| {
            recovery::run_storm_baseline(&StormConfig::smoke(seed))
                .outcome
                .transcript
        },
        draws: Some("the storm's loss"),
        telemetry_optional: false,
    },
];

/// Every study's transcript opens with a version line and a config
/// line (the one carrying `seed=`).
fn body(transcript: &str) -> &str {
    let mut rest = transcript;
    for _ in 0..2 {
        rest = rest.split_once('\n').map_or("", |(_, tail)| tail);
    }
    rest
}

/// Drain every flushed + thread-local event into the deterministic
/// text rendering (virtual timestamps and interned kind names only, so
/// equal runs must render equal logs).
fn drain_rendered() -> String {
    tel::render_timeline(&tel::drain_all())
}

#[test]
fn every_study_leg_is_deterministic_seed_sensitive_and_unobserved() {
    for row in &ROWS {
        let name = row.name;
        tel::set_enabled(false);
        let _ = drain_rendered();

        let first = (row.run)(11);
        assert!(first.contains("seed=11"), "{name}: header names the seed");
        assert_eq!(first, (row.run)(11), "{name}: same-seed rerun diverged");

        if let Some(what) = row.draws {
            assert_ne!(
                body(&first),
                body(&(row.run)(12)),
                "{name}: {what} must depend on the seed"
            );
        }

        if row.telemetry_optional {
            assert!(drain_rendered().is_empty(), "{name}: recorded while off");
            tel::set_enabled(true);
            let on1 = (row.run)(11);
            let log1 = drain_rendered();
            let on2 = (row.run)(11);
            let log2 = drain_rendered();
            assert_eq!(first, on1, "{name}: telemetry changed the transcript");
            assert_eq!(on1, on2, "{name}: telemetry-on runs diverged");
            assert!(
                log1.lines().count() > 10,
                "{name}: a run should record a rich event log, got:\n{log1}"
            );
            assert_eq!(log1, log2, "{name}: telemetry-on runs drained unequal logs");
        }
    }
    tel::set_enabled(false);
}
