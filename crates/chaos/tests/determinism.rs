//! Determinism of the three fault studies, one table: the contract
//! that makes failure experiments reproducible.
//!
//! Every row (one study leg) must rerun byte-identically for a seed.
//! Rows that draw randomness must actually depend on the seed: a
//! different one changes the transcript *body* (the header lines carry
//! `seed=` and are skipped). And telemetry must be a pure observer: on
//! rows that can run with it off, the transcript is byte-identical on
//! vs off, and two telemetry-on runs drain equal event logs. Each
//! simulator owns its recording, so two runs on two threads record side
//! by side, each into its own log.

use ldp_chaos::delayed::{self, DelayedConfig, PolicyKind};
use ldp_chaos::outage::{self, OutageConfig, RetryPolicy};
use ldp_chaos::recovery::{self, RecoveryConfig, StormConfig};
use ldp_chaos::scenario;
use ldp_telemetry as tel;
use netsim::Simulator;

struct Row {
    name: &'static str,
    /// Run the leg for a seed; return its transcript.
    run: fn(u64) -> String,
    /// What the leg draws from its seed, if anything.
    draws: Option<&'static str>,
    /// Run the leg for a seed on a simulator that records; return its
    /// transcript and the simulator (the recovery legs switch their own
    /// recording on, so they have no off run to compare with).
    recorded: Option<fn(u64) -> (String, Simulator)>,
}

fn recording(seed: u64) -> Simulator {
    let mut sim = scenario::simulator(scenario::wan_rtt(), seed);
    sim.set_recording(true);
    sim
}

const ROWS: [Row; 4] = [
    Row {
        name: "outage (smoke, full policy)",
        run: |seed| outage::run(&OutageConfig::smoke(RetryPolicy::full(), seed)).transcript,
        draws: Some("the loss burst"),
        recorded: Some(|seed| {
            let mut sim = recording(seed);
            let cfg = OutageConfig::smoke(RetryPolicy::full(), seed);
            (outage::run_on(&cfg, &mut sim).transcript, sim)
        }),
    },
    Row {
        name: "delayed (smoke, capacity 24, delay-aware)",
        run: |seed| {
            delayed::run(&DelayedConfig::smoke(24, PolicyKind::DelayAware, seed)).transcript
        },
        draws: Some("the Zipf ranks"),
        recorded: Some(|seed| {
            let mut sim = recording(seed);
            let cfg = DelayedConfig::smoke(24, PolicyKind::DelayAware, seed);
            (delayed::run_on(&cfg, &mut sim).transcript, sim)
        }),
    },
    Row {
        name: "recovery (smoke, querier crash)",
        run: |seed| recovery::run_querier_crash(&RecoveryConfig::smoke(seed)).transcript,
        draws: None,
        recorded: None,
    },
    Row {
        name: "recovery (smoke, storm baseline)",
        run: |seed| {
            recovery::run_storm_baseline(&StormConfig::smoke(seed))
                .outcome
                .transcript
        },
        draws: Some("the storm's loss"),
        recorded: None,
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

/// A recorded run's drain in the deterministic text rendering (virtual
/// timestamps and kind names only, so equal runs render equal logs).
fn drain_rendered(sim: &mut Simulator) -> String {
    let log = sim.drain_recording();
    assert_eq!(log.lost, 0, "the ring held the whole run");
    tel::render_timeline(&log.events)
}

#[test]
fn every_study_leg_is_deterministic_seed_sensitive_and_unobserved() {
    for row in &ROWS {
        let name = row.name;
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

        if let Some(recorded) = row.recorded {
            let (on1, mut sim1) = recorded(11);
            let (on2, mut sim2) = recorded(11);
            let (log1, log2) = (drain_rendered(&mut sim1), drain_rendered(&mut sim2));
            assert_eq!(first, on1, "{name}: telemetry changed the transcript");
            assert_eq!(on1, on2, "{name}: telemetry-on runs diverged");
            assert!(
                log1.lines().count() > 10,
                "{name}: a run should record a rich event log, got:\n{log1}"
            );
            assert_eq!(log1, log2, "{name}: telemetry-on runs drained unequal logs");
        }
    }
}

/// Two different-seed outage runs on two threads at once, no lock: each
/// drains its own log, byte-identical to that seed's run alone.
#[test]
fn two_simulations_record_side_by_side() {
    let dump = |seed: u64| {
        let (_, mut sim) = (ROWS[0].recorded.expect("outage records"))(seed);
        tel::dump_binary(&sim.drain_recording().events)
    };
    let seeds = [11, 12];
    let solo = seeds.map(dump);
    assert_ne!(solo[0], solo[1], "the seeds record different runs");
    let side_by_side = std::thread::scope(|scope| {
        seeds
            .map(|seed| scope.spawn(move || dump(seed)))
            .map(|run| run.join().expect("a run thread"))
    });
    assert_eq!(side_by_side, solo);
}
