//! The crash-storm gates.
//!
//! A sustained loss-plus-delay storm keeps the replay client busy
//! without a break: at every completion a later query is already on
//! the wire. The checkpoint cadence keeps committing regardless,
//! carrying per-query in-flight state, and a resume from a mid-storm
//! cut replays a transcript and telemetry stream byte-identical to an
//! uninterrupted same-seed run — or refuses the checkpoint, if the
//! text it came back from was damaged.

use ldp_chaos::recovery::{
    run_storm_baseline, run_storm_killed, run_storm_resumed, spliced_q_events, StormConfig,
};
use ldp_guard::Checkpoint;
use ldp_rng::check::check;
use ldp_telemetry as tel;

#[test]
fn v2_fuzzy_cuts_commit_through_the_storm_with_live_state() {
    let cfg = StormConfig::smoke(47);
    let killed = run_storm_killed(&cfg);
    let (from, to) = cfg.storm_window();
    let in_storm = killed.stamps_in(from, to);
    assert!(
        !in_storm.is_empty(),
        "the cadence commits through the storm"
    );
    assert!(
        in_storm.iter().any(|s| s.inflight > 0),
        "storm cuts carry live queries: {in_storm:?}"
    );
    // Grid anchoring: every commit lands on a cadence multiple.
    let cad = cfg.base.cadence.as_nanos();
    assert!(killed.stamps.iter().all(|s| s.taken_ns % cad == 0));
    let cp = killed.outcome.checkpoint.expect("a committed cut");
    assert!(
        !cp.inflight.is_empty(),
        "the last cut before the kill is mid-storm"
    );
    // The carried state is exactly round-trippable.
    let text = cp.to_text().expect("serializes");
    assert_eq!(Checkpoint::from_text(&text).expect("parses"), cp);
}

#[test]
fn storm_kill_resume_is_byte_identical() {
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
        .expect("a cut before the kill");
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
    let spliced = spliced_q_events(&killed.outcome, &resumed.outcome);
    let mut base_events = base.outcome.q_events.clone();
    tel::canonical_order(&mut base_events);
    assert_eq!(
        tel::diff_logs(&spliced, &base_events),
        None,
        "telemetry diverged"
    );
    assert_eq!(tel::dump_binary(&spliced), tel::dump_binary(&base_events));
}

/// A checkpoint is text from outside the program. Whatever one damaged
/// line makes of a real mid-storm document, the parser or `resume`
/// refuses it, or the run resumed from it still answers every query of
/// the trace exactly once — never a panic, never a seq twice.
#[test]
fn a_damaged_mid_storm_checkpoint_is_refused_or_resumes_every_seq_once() {
    let cfg = StormConfig::smoke(47);
    let cp = run_storm_killed(&cfg).outcome.checkpoint.expect("a cut");
    assert!(!cp.inflight.is_empty() && !cp.records.is_empty());
    let text = cp.to_text().expect("serializes");
    let refused_or_every_seq_once = |damaged: &str| {
        let Ok(damaged) = Checkpoint::from_text(damaged) else {
            return;
        };
        let resumed = run_storm_resumed(&cfg, &damaged).outcome;
        if resumed.transcript.contains("\nresume-error ") {
            assert!(resumed.records.is_empty());
            return;
        }
        let mut seqs: Vec<u64> = resumed.records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..cfg.base.queries as u64).collect::<Vec<_>>());
    };
    // One line cut short and continued with junk: mostly the parsers'
    // business.
    check(256, |g| refused_or_every_seq_once(&g.corrupt_line(&text)));
    // One number swapped for another: a document that still parses but
    // may name a seq twice, outside the trace, or both done and live.
    check(256, |g| {
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let line = &mut lines[g.size(0..=text.lines().count() - 1)];
        let mut tokens: Vec<String> = line.split(' ').map(String::from).collect();
        let numbers: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].parse::<u64>().is_ok())
            .collect();
        if let Some(&i) = numbers.get(g.size(0..=numbers.len().saturating_sub(1))) {
            tokens[i] = g.range(0..=2 * cfg.base.queries as u64).to_string();
        }
        *line = tokens.join(" ");
        refused_or_every_seq_once(&lines.join("\n"));
    });
}
