//! `fig_recovery`: the crash-recovery study — ldp-guard's two recovery
//! paths made runnable and self-gating.
//!
//! 1. **Checkpoint/resume.** A replay checkpointing on its cadence is
//!    killed mid-run (the simulator is abandoned, as `kill -9` would)
//!    and rebuilt in a fresh simulator from the last committed
//!    checkpoint. Gates: the resumed transcript body AND the drained
//!    per-query telemetry (the killed run's events of checkpointed
//!    queries + everything the resumed run drained, in canonical order,
//!    compared via the binary dump — no string rendering) must be
//!    byte-identical to an uninterrupted same-seed run.
//! 2. **Querier crash.** A `QuerierCrash` fault power-cycles the
//!    querier host mid-replay; `on_restart` re-dispatches the dead
//!    span. Gate: ≥ 99 % of the trace still answered, and at least one
//!    query demonstrably re-dispatched after the restart (so the fault
//!    is live, not a no-op).
//! 3. **Crash storm.** A sustained loss-plus-delay storm keeps queries
//!    on the wire at every instant; the cadence keeps committing, each
//!    cut carrying the live queries. Gates: commits inside the storm
//!    window with `inflight > 0`; resume from the mid-storm cut is
//!    transcript- AND telemetry-byte-identical to the uninterrupted
//!    storm baseline.
//!
//! Exits nonzero if any gate fails.
//!
//! `cargo run --release -p ldp-bench --bin fig_recovery [-- --seed 11]`

use ldp_bench::{arg_u64, identical, ok_fail, reject_unknown_flags};
use ldp_chaos::recovery::{
    run_killed, run_querier_crash, run_resumed, run_storm_baseline, run_storm_killed,
    run_storm_resumed, run_uninterrupted, spliced_q_events, RecoveryConfig, RecoveryOutcome,
    StormConfig,
};
use ldp_guard::Checkpoint;
use ldp_telemetry as tel;

/// Answered-fraction floor for the querier-crash run (ISSUE 5
/// acceptance criterion).
const OK_FLOOR: f64 = 0.99;

/// Transcript minus its two header lines (which name the mode).
fn body(transcript: &str) -> String {
    transcript.lines().skip(2).collect::<Vec<_>>().join("\n")
}

/// A checkpoint as it comes back from its text serialization.
fn round_trip(cp: &Checkpoint) -> Result<Checkpoint, String> {
    let text = cp.to_text().map_err(|e| e.to_string())?;
    Checkpoint::from_text(&text).map_err(|e| e.to_string())
}

/// The kill/resume gate both studies share: take the killed run's last
/// committed checkpoint through its text form, `resume` from it, and
/// compare the lineage — resumed transcript body, and the killed and
/// resumed runs' telemetry spliced — with the uninterrupted baseline,
/// byte for byte. Re-execution emits old-timestamped events after
/// newer ones, so both sides compare in canonical order, not drain
/// order. Returns the checkpoint if the gate passed.
fn resume_gate(
    what: &str,
    base: &RecoveryOutcome,
    killed: &RecoveryOutcome,
    resume: impl FnOnce(&Checkpoint) -> RecoveryOutcome,
) -> Option<Checkpoint> {
    let cp = killed
        .checkpoint
        .as_ref()
        .ok_or_else(|| "no checkpoint committed before the kill".to_string())
        .and_then(|cp| round_trip(cp).map_err(|e| format!("checkpoint round-trip: {e}")));
    let cp = match cp {
        Ok(cp) => cp,
        Err(why) => {
            println!("gate: {what} — FAIL ({why})");
            return None;
        }
    };
    let resumed = resume(&cp);
    let transcript_ok = body(&resumed.transcript) == body(&base.transcript);
    let spliced = spliced_q_events(killed, &resumed);
    let mut base_events = base.q_events.clone();
    tel::canonical_order(&mut base_events);
    let tel_diff = tel::diff_logs(&spliced, &base_events);
    // A full ring overwrites events: nothing to compare then.
    let lost = base.lost + killed.lost + resumed.lost;
    let tel_ok = lost == 0
        && tel_diff.is_none()
        && tel::dump_binary(&spliced) == tel::dump_binary(&base_events);
    println!(
        "gate: {what} from epoch {} ({} records, {} inflight at the cut) — transcript {}, telemetry {} ({} events)",
        cp.epoch,
        cp.records.len(),
        cp.inflight.len(),
        identical(transcript_ok),
        identical(tel_ok),
        base_events.len(),
    );
    if let Some(d) = &tel_diff {
        println!("  telemetry divergence: {d}");
    }
    if lost != 0 {
        println!("  telemetry lost {lost} events to a full ring");
    }
    (transcript_ok && tel_ok).then_some(cp)
}

/// The storm gates: commit-through-storm plus kill/resume
/// byte-identity against the uninterrupted storm baseline. Returns
/// whether they passed.
fn storm_gate(cfg: &StormConfig) -> bool {
    let (from, to) = cfg.storm_window();
    let base = run_storm_baseline(cfg);
    let answered_ok = base.outcome.records.len() == cfg.base.queries;
    let killed = run_storm_killed(cfg);
    let in_storm = killed.stamps_in(from, to);
    let commit_ok = !in_storm.is_empty() && in_storm.iter().any(|s| s.inflight > 0);
    println!(
        "gate: storm — {} commits in window ({} with live state) {}, baseline answered {}/{} {}",
        in_storm.len(),
        in_storm.iter().filter(|s| s.inflight > 0).count(),
        ok_fail(commit_ok),
        base.outcome.records.len(),
        cfg.base.queries,
        ok_fail(answered_ok),
    );
    let resumed_mid_storm = resume_gate("storm resume", &base.outcome, &killed.outcome, |cp| {
        run_storm_resumed(cfg, cp).outcome
    })
    .is_some_and(|cp| !cp.inflight.is_empty());
    answered_ok && commit_ok && resumed_mid_storm
}

fn main() {
    reject_unknown_flags(&["--seed"]);
    let seed = arg_u64("--seed", 11);
    let mut failed = false;

    let shape = RecoveryConfig::standard(seed);
    println!(
        "recovery study: {} queries at {} ms spacing over a {} ms-RTT path,",
        shape.queries,
        shape.query_gap.as_nanos() / 1_000_000,
        shape.rtt.as_nanos() / 1_000_000
    );
    println!(
        "a checkpoint every {} ms, kill at {:.2}s, querier down {} ms from {:.1}s, seed {seed}\n",
        shape.cadence.as_nanos() / 1_000_000,
        shape.kill_at.as_secs_f64(),
        shape.down_for.as_nanos() / 1_000_000,
        shape.crash_at.as_secs_f64()
    );

    // Determinism gate: same seed → byte-identical transcripts.
    let first = run_uninterrupted(&shape);
    let rerun_ok = first.transcript == run_uninterrupted(&shape).transcript;
    println!(
        "determinism: same-seed rerun {} ({} transcript bytes)",
        identical(rerun_ok),
        first.transcript.len(),
    );
    failed |= !rerun_ok;

    let resumed = resume_gate("resume", &first, &run_killed(&shape), |cp| {
        run_resumed(&shape, cp)
    });
    failed |= resumed.is_none();

    // Querier-crash gate.
    let crashed = run_querier_crash(&shape);
    let frac = crashed.answered_fraction(&shape);
    let frac_ok = frac >= OK_FLOOR;
    // The fault must be live: some query whose deadline fell in the
    // down window was re-dispatched after the restart, i.e. sent well
    // past its trace schedule.
    let gap_s = shape.query_gap.as_nanos() as f64 / 1e9;
    let redispatched = crashed
        .records
        .iter()
        .filter(|r| r.sent_s > r.seq as f64 * gap_s + 0.001)
        .count();
    let live_ok = redispatched > 0;
    println!(
        "gate: querier crash — answered {:.2}% (floor {:.0}%) {}, {} re-dispatched after restart {}",
        frac * 100.0,
        OK_FLOOR * 100.0,
        ok_fail(frac_ok),
        redispatched,
        if live_ok { "ok" } else { "FAIL (crash was a no-op)" },
    );
    failed |= !frac_ok || !live_ok;

    let storm = StormConfig::standard(seed);
    println!(
        "\ncrash storm: {:.0}% loss + {} ms (+{} ms jitter) delay from {:.2}s to {:.2}s,",
        storm.loss_rate * 100.0,
        storm.extra_delay.as_nanos() / 1_000_000,
        storm.delay_jitter.as_nanos() / 1_000_000,
        storm.storm_from.as_secs_f64(),
        storm.storm_until.as_secs_f64(),
    );
    println!(
        "kill at {:.2}s (mid-storm), retransmit budget {} at {} ms base",
        storm.base.kill_at.as_secs_f64(),
        storm.retransmit.max_retx,
        storm.retransmit.base_us / 1_000,
    );
    failed |= !storm_gate(&storm);

    println!("\ntakeaway: a checkpoint cut on the cadence makes a killed replay resumable with");
    println!("a byte-identical virtual-time transcript — under a sustained storm too: the cut");
    println!("carries per-query in-flight state, so resume re-executes the live queries — and");
    println!("on_restart re-dispatch bounds a querier power-cycle to the queries whose");
    println!("deadlines fell inside the outage.");

    if failed {
        std::process::exit(1);
    }
}
