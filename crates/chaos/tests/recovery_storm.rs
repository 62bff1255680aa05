//! The crash-storm gates for fuzzy-cut checkpoints v2.
//!
//! A sustained loss-plus-delay storm makes the replay client
//! permanently non-quiescent: at every completion a later query is
//! already on the wire, so v1's quiescent checkpointing commits
//! *nothing* for the storm's whole duration — kill the run mid-storm
//! and recovery state is stuck at the last calm-weather cut. The v2
//! fuzzy cadence keeps committing regardless, carrying per-query
//! in-flight state, and a resume from a mid-storm fuzzy cut replays a
//! transcript and telemetry stream byte-identical to an uninterrupted
//! same-seed run.

use ldp_chaos::recovery::{
    run_storm_baseline, run_storm_killed, run_storm_killed_v1, run_storm_resumed,
    spliced_q_events_fuzzy, StormConfig,
};
use ldp_telemetry as tel;

/// The storm runs share the process-wide telemetry enable flag and
/// flushed store, so the tests of this file run one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn v1_quiescent_checkpoints_starve_under_the_storm() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = StormConfig::smoke(47);
    let killed = run_storm_killed_v1(&cfg);
    let (from, to) = cfg.storm_window();
    assert!(
        !killed.stamps.is_empty(),
        "v1 must commit during the calm prefix — otherwise starvation proves nothing"
    );
    assert!(killed
        .stamps
        .iter()
        .all(|s| s.version == 1 && s.inflight == 0));
    assert!(
        killed.stamps.iter().all(|s| s.taken_ns < from),
        "every v1 commit predates the storm: {:?}",
        killed.stamps
    );
    assert_eq!(
        killed.stamps_in(from, to).len(),
        0,
        "v1 committed inside the storm window"
    );
}

#[test]
fn v2_fuzzy_cuts_commit_through_the_storm_with_live_state() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = StormConfig::smoke(47);
    let killed = run_storm_killed(&cfg);
    let (from, to) = cfg.storm_window();
    let in_storm = killed.stamps_in(from, to);
    assert!(!in_storm.is_empty(), "v2 keeps committing where v1 starves");
    assert!(in_storm.iter().all(|s| s.version == 2));
    assert!(
        in_storm.iter().any(|s| s.inflight > 0),
        "storm cuts carry live queries: {in_storm:?}"
    );
    // Grid anchoring: every commit lands on a cadence multiple.
    let cad = cfg.cadence.as_nanos();
    assert!(killed.stamps.iter().all(|s| s.taken_ns % cad == 0));
    let cp = killed.outcome.checkpoint.expect("a committed fuzzy cut");
    assert_eq!(cp.version, 2);
    assert!(
        !cp.inflight.is_empty(),
        "the last cut before the kill is mid-storm"
    );
    // The carried state is exactly round-trippable.
    let text = cp.to_text().expect("serializes");
    assert_eq!(ldp_guard::Checkpoint::from_text(&text).expect("parses"), cp);
}

#[test]
fn storm_kill_resume_is_byte_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = StormConfig::smoke(53);
    let base = run_storm_baseline(&cfg);
    assert_eq!(
        base.outcome.records.len(),
        cfg.base.queries,
        "retransmission outlasts the storm"
    );
    let killed = run_storm_killed(&cfg);
    let cp = killed
        .outcome
        .checkpoint
        .clone()
        .expect("a fuzzy cut before the kill");
    assert_eq!(cp.version, 2);
    assert!(
        !cp.inflight.is_empty(),
        "kill landed mid-storm with live queries"
    );
    let resumed = run_storm_resumed(&cfg, &cp);
    assert_eq!(
        resumed
            .outcome
            .transcript
            .lines()
            .skip(2)
            .collect::<Vec<_>>(),
        base.outcome.transcript.lines().skip(2).collect::<Vec<_>>(),
        "transcript bodies diverged"
    );
    let spliced = spliced_q_events_fuzzy(&killed.outcome, &resumed.outcome);
    let mut base_events = base.outcome.q_events.clone();
    tel::canonical_order(&mut base_events);
    assert_eq!(
        tel::diff_logs(&spliced, &base_events),
        None,
        "telemetry diverged"
    );
    assert_eq!(tel::dump_binary(&spliced), tel::dump_binary(&base_events));
}
