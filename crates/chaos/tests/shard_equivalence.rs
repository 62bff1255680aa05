//! Shard-equivalence for chaos experiments (ISSUE 8, satellite 3): the
//! root-letter outage study — loss burst, crashes, restarts, retrying
//! stubs — and the delayed-hits study — delay spike, upstream crash,
//! in-flight aggregation — produce **byte-identical** transcripts on a
//! [`ldp_shard::ShardedSimulator`] for any shard count. The fault plan
//! replicates cleanly because the [`ldp_chaos::PlanInjector`]'s draws
//! are stateless (a hash of packet identity, not a stream position) and
//! the per-shard agent replicas fire identical timers with crash
//! commands no-oping off-shard.

use ldp_chaos::delayed::{self, DelayedConfig, PolicyKind};
use ldp_chaos::outage::{self, run, OutageConfig, OutageOutcome, Phase, RetryPolicy};
use ldp_chaos::recovery::{self, RecoveryConfig, RecoveryOutcome, StormConfig};
use ldp_chaos::scenario;
use ldp_telemetry as tel;
use netsim::{SimDuration, SimTime};

/// The outage study on `shards` round-robin shards.
fn run_sharded(cfg: &OutageConfig, shards: u32) -> OutageOutcome {
    let mut sim = scenario::sharded_simulator(scenario::wan_rtt(), cfg.seed, shards);
    outage::run_on(cfg, &mut sim)
}

/// {1, 2, 8} shards, each against the single-shard run: full-transcript
/// equality.
#[test]
fn outage_matrix_1_2_8() {
    let cfg = OutageConfig::smoke(RetryPolicy::full(), 0xC0FFEE);
    let single = run(&cfg);
    // Sanity: this workload exercises the faults, not a quiet run.
    assert!(single.ok_fraction() < 1.0 || single.records.iter().any(|r| r.attempts > 1));
    for shards in [1u32, 2, 8] {
        let sharded = run_sharded(&cfg, shards);
        assert_eq!(
            sharded.transcript, single.transcript,
            "sharded({shards}) transcript drifted from single-shard"
        );
    }
}

/// The weaker policy still matches — exercises SERVFAIL paths and
/// give-up records rather than mostly-recovered queries.
#[test]
fn no_failover_policy_matches_under_sharding() {
    let cfg = OutageConfig::smoke(RetryPolicy::no_failover(), 0xFA117);
    let single = run(&cfg);
    let sharded = run_sharded(&cfg, 4);
    assert_eq!(sharded.transcript, single.transcript);
    // The outage must actually have hurt this policy for the
    // equivalence to mean anything.
    assert!(
        single.ok_in_phase(&cfg, Phase::During) < single.sent_in_phase(&cfg, Phase::During),
        "outage window should cost the no-failover policy answers"
    );
}

/// Chaos-plan determinism under sharding: two sharded runs of the same
/// config are byte-identical, and the seed still matters.
#[test]
fn sharded_runs_are_repeatable_and_seed_sensitive() {
    let cfg = OutageConfig::smoke(RetryPolicy::failover(), 7);
    let a = run_sharded(&cfg, 8);
    let b = run_sharded(&cfg, 8);
    assert_eq!(
        a.transcript, b.transcript,
        "two sharded runs, one transcript"
    );

    let other = OutageConfig::smoke(RetryPolicy::failover(), 8);
    assert_ne!(
        run_sharded(&other, 8).transcript,
        a.transcript,
        "the stateless draws must still depend on the plan seed"
    );
}

/// The delayed-hits study under sharding: a smoke run whose upstreams
/// crash (with a delay spike) over the middle of the run, and the
/// 8-stub cold-name burst whose timers all fire at one instant.
#[test]
fn delayed_matrix_1_2_8() {
    let mut faulty = DelayedConfig::smoke(24, PolicyKind::DelayAware, 0xC0FFEE);
    let window = (SimTime::from_secs_f64(1.3), SimTime::from_secs_f64(2.2));
    faulty.crash = Some(window);
    faulty.delay_spike = Some((window.0, window.1, SimDuration::from_millis(100)));
    for cfg in [faulty, DelayedConfig::burst(8, 7)] {
        let sim = |shards| scenario::sharded_simulator(scenario::wan_rtt(), cfg.seed, shards);
        let single = delayed::run(&cfg);
        assert!(single.ok_fraction() >= 1.0, "the workload still answers");
        for shards in [1u32, 2, 8] {
            assert_eq!(
                delayed::run_on(&cfg, &mut sim(shards)).transcript,
                single.transcript,
                "delayed sharded({shards}) transcript drifted from single-shard"
            );
        }
    }
    // The crash window must actually have bitten for the first leg to
    // mean anything: some upstream queries died at a crashed server.
    let out = delayed::run(&faulty);
    assert!(out.snapshot.stats.upstream_queries > out.upstream_rx);
}

/// A sharded kill → resume pair against the plain pair and the
/// uninterrupted run: the resumed transcript bodies are equal, and so
/// are the spliced `q.*` telemetry dumps.
fn assert_pair_matches(
    shards: u32,
    (killed, resumed): (RecoveryOutcome, RecoveryOutcome),
    plain: &RecoveryOutcome,
    uninterrupted: &RecoveryOutcome,
) {
    let body = |t: &str| t.lines().skip(2).map(str::to_owned).collect::<Vec<_>>();
    assert_eq!(
        body(&resumed.transcript),
        body(&plain.transcript),
        "{shards} shards"
    );
    assert_eq!(body(&resumed.transcript), body(&uninterrupted.transcript));
    let mut base = uninterrupted.q_events.clone();
    tel::canonical_order(&mut base);
    let spliced = recovery::spliced_q_events(&killed, &resumed);
    assert_eq!(tel::diff_logs(&spliced, &base), None, "{shards} shards");
    assert_eq!(tel::dump_binary(&spliced), tel::dump_binary(&base));
    assert_eq!(killed.lost + resumed.lost, 0);
}

/// The recovery study's calm kill → resume pair under sharding: the
/// replay client is scheduled and re-armed through the driver trait, so
/// a killed run and its resumed continuation on {1, 2, 8} shards replay
/// the transcript of the plain pair and of the uninterrupted run, and
/// their telemetry splices to the uninterrupted run's.
#[test]
fn recovery_kill_resume_matches_under_sharding() {
    let cfg = RecoveryConfig::smoke(23);
    let cp = recovery::run_killed(&cfg).checkpoint.expect("a cut");
    let plain = recovery::run_resumed(&cfg, &cp);
    assert_eq!(plain.records.len(), cfg.queries);
    let base = recovery::run_uninterrupted(&cfg);
    for shards in [1u32, 2, 8] {
        let pair = recovery::run_killed_and_resumed_sharded(&cfg, shards).expect("a cut");
        assert_eq!(pair.1.transcript, plain.transcript);
        assert_pair_matches(shards, pair, &plain, &base);
    }
}

/// The storm kill → resume pair under sharding: the fault plan
/// replicates per shard and the cut carries live queries, yet the pair
/// on {1, 2, 8} shards resumes to the transcript body and the spliced
/// telemetry of the uninterrupted storm baseline.
#[test]
fn storm_kill_resume_matches_under_sharding() {
    let cfg = StormConfig::smoke(53);
    let cp = recovery::run_storm_killed(&cfg).outcome.checkpoint;
    let cp = cp.expect("a cut");
    assert!(!cp.inflight.is_empty(), "the kill lands mid-storm");
    let plain = recovery::run_storm_resumed(&cfg, &cp).outcome;
    assert_eq!(plain.records.len(), cfg.base.queries);
    let base = recovery::run_storm_baseline(&cfg).outcome;
    for shards in [1u32, 2, 8] {
        let pair = recovery::run_storm_killed_and_resumed_sharded(&cfg, shards).expect("a cut");
        assert_pair_matches(shards, pair, &plain, &base);
    }
}
