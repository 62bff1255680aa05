//! The recovery study: kill a checkpointed replay mid-run and resume
//! it, or power-cycle the querier mid-replay, and verify the run
//! survives — the `fig_recovery` scenario.
//!
//! Three runs share one trace, one zone, and one seeded simulator
//! shape, in calm weather and again under a loss-plus-delay storm
//! ([`StormConfig`]); every run checkpoints on the one cadence:
//!
//! 1. **Uninterrupted** — the baseline: a checkpointed replay left
//!    alone to completion.
//! 2. **Killed and resumed** — the replay is abandoned at `kill_at`
//!    (the moral equivalent of `kill -9`), then rebuilt in a *fresh*
//!    simulator from the last committed checkpoint, whose carried
//!    queries re-execute from their original deadlines. The resumed
//!    transcript — checkpointed prefix plus replayed remainder — must
//!    be byte-identical to the baseline's, and so must the drained
//!    per-query telemetry.
//! 3. **Querier crash** — a [`FaultEvent::QuerierCrash`] power-cycles
//!    the querier host mid-replay; `Host::on_restart` re-dispatches
//!    the dead span and the run still answers (almost) everything.
//!
//! Both the `fig_recovery` scenario binary and the chaos tests drive
//! this module, so the experiment that produces the figure is exactly
//! the code the suite pins down.

use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_wire::record::Record;
use dns_wire::{RData, RecordType};
use ldp_guard::{Checkpoint, RetransmitConfig};
use ldp_replay::sim_replay::{CheckpointStamp, LatencyLog, LatencyRecord, SimReplayClient};
use ldp_telemetry as tel;
use ldp_trace::TraceEntry;
use netsim::{SimDriver, SimDuration, SimTime};

use crate::plan::{FaultEvent, FaultPlan};
use crate::scenario;

/// Parameters of one recovery run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Trace length (one unique name per query).
    pub queries: usize,
    /// Spacing between consecutive queries.
    pub query_gap: SimDuration,
    /// Uniform path RTT.
    pub rtt: SimDuration,
    /// Checkpoint cadence (absolute grid, anchored at the origin).
    pub cadence: SimDuration,
    /// Where the killed run is abandoned (virtual time).
    pub kill_at: SimTime,
    /// When the querier power-cycles in the crash study.
    pub crash_at: SimTime,
    /// How long the querier stays down.
    pub down_for: SimDuration,
    /// Simulator seed.
    pub seed: u64,
}

impl RecoveryConfig {
    /// The standard study shape: 400 queries at 50 ms spacing over a
    /// 40 ms-RTT path, a checkpoint every 250 ms, killed at 8.31 s
    /// (mid-trace, between cuts), querier down for 400 ms from t = 5 s.
    pub fn standard(seed: u64) -> Self {
        RecoveryConfig {
            queries: 400,
            query_gap: SimDuration::from_millis(50),
            rtt: SimDuration::from_millis(40),
            cadence: SimDuration::from_millis(250),
            kill_at: SimTime::from_secs_f64(8.31),
            crash_at: SimTime::from_secs_f64(5.0),
            down_for: SimDuration::from_millis(400),
            seed,
        }
    }

    /// A smaller, faster variant for smoke tests and CI gates.
    pub fn smoke(seed: u64) -> Self {
        RecoveryConfig {
            queries: 160,
            kill_at: SimTime::from_secs_f64(3.11),
            crash_at: SimTime::from_secs_f64(2.0),
            down_for: SimDuration::from_millis(300),
            ..RecoveryConfig::standard(seed)
        }
    }

    /// A horizon safely past the last deadline plus recovery slack.
    fn horizon(&self) -> SimTime {
        SimTime::from_nanos(
            self.query_gap.as_nanos() * self.queries as u64
                + self.down_for.as_nanos()
                + SimDuration::from_secs(20).as_nanos(),
        )
    }
}

/// The result of one recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Completed query records, in completion (log push) order.
    pub records: Vec<LatencyRecord>,
    /// Deterministic text transcript of the whole run.
    pub transcript: String,
    /// The run's drained telemetry, filtered to per-query `q.*`
    /// lifecycle events.
    pub q_events: Vec<tel::RawEvent>,
    /// Events the run's recorder overwrote before the drain (0 unless
    /// its ring overflowed).
    pub lost: u64,
    /// The last checkpoint the run committed, if any.
    pub checkpoint: Option<Checkpoint>,
}

impl RecoveryOutcome {
    /// Fraction of the trace that ended with an answer.
    pub fn answered_fraction(&self, cfg: &RecoveryConfig) -> f64 {
        if cfg.queries == 0 {
            return 1.0;
        }
        let mut seqs: Vec<u64> = self.records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        seqs.len() as f64 / cfg.queries as f64
    }
}

const SERVER_ADDR: &str = "10.9.0.1:53";
/// First source octet base: sources are `10.1.0.{1..=4}`.
const SOURCES: u64 = 4;

/// The querier's crash-target address (its first trace source).
fn querier_addr() -> IpAddr {
    "10.1.0.1".parse().expect("valid ip")
}

fn mk_trace(cfg: &RecoveryConfig) -> Vec<TraceEntry> {
    let gap_us = cfg.query_gap.as_nanos() / 1_000;
    (0..cfg.queries as u64)
        .map(|i| {
            TraceEntry::query(
                i * gap_us,
                format!("10.1.0.{}:5000", 1 + i % SOURCES)
                    .parse()
                    .expect("valid addr"),
                SERVER_ADDR.parse().expect("valid addr"),
                (i % 65_536) as u16,
                format!("q{i}.example").parse().expect("valid name"),
                RecordType::A,
            )
        })
        .collect()
}

/// A drained recording, keeping only `q.*` lifecycle events.
/// Guard-side marks (`replay.shed` / `replay.restarted`) are
/// deliberately excluded: they describe the *recovery machinery*, not
/// the replayed workload, and must never break transcript equality.
fn q_events(recording: tel::Log) -> tel::Log {
    let mut events = recording.events;
    events.retain(|ev| ev.kind.name().starts_with("q."));
    tel::Log {
        events,
        lost: recording.lost,
    }
}

fn outcome(
    cfg: &RecoveryConfig,
    label: &str,
    log: &LatencyLog,
    recording: tel::Log,
    checkpoint: Option<Checkpoint>,
) -> RecoveryOutcome {
    let records = log.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut t = String::new();
    t.push_str("fig_recovery v1\n");
    t.push_str(&format!(
        "mode={} seed={} queries={} gap={}ns rtt={}ns\n",
        label,
        cfg.seed,
        cfg.queries,
        cfg.query_gap.as_nanos(),
        cfg.rtt.as_nanos()
    ));
    for r in &records {
        t.push_str(&r.to_line());
        t.push('\n');
    }
    RecoveryOutcome {
        records,
        transcript: t,
        q_events: recording.events,
        lost: recording.lost,
        checkpoint,
    }
}

/// One replay leg: what distinguishes the runs of this module, but for
/// the checkpoint a resumed one is rebuilt from.
struct Leg {
    /// The transcript header's `mode=`.
    label: &'static str,
    /// Faults to install (none: no agent, no injector).
    plan: FaultPlan,
    /// UDP retransmission policy and its run-level jitter seed.
    retransmit: Option<(RetransmitConfig, u64)>,
    /// The kill instant for abandoned runs, the horizon for complete
    /// ones.
    run_until: SimTime,
}

/// Run one leg in a fresh simulator, the client rebuilt from
/// `resume_from` if given: server, then client, then (iff
/// the plan has faults) the chaos agent. That host add order is part
/// of the replayed shape: a killed run and its resumed continuation
/// must match, or host ids — and with them the deterministic event
/// order — would drift.
fn run_leg(cfg: &RecoveryConfig, leg: Leg, resume_from: Option<&Checkpoint>) -> StormOutcome {
    let mut sim = scenario::simulator(cfg.rtt, cfg.seed);
    run_leg_on(cfg, leg, resume_from, &mut sim)
}

fn run_leg_on<S: SimDriver>(
    cfg: &RecoveryConfig,
    leg: Leg,
    resume_from: Option<&Checkpoint>,
    sim: &mut S,
) -> StormOutcome {
    sim.set_recording(true);
    let trace = mk_trace(cfg);
    let server: SocketAddr = SERVER_ADDR.parse().expect("valid addr");
    // An apex SOA plus a wildcard A, so every `q{i}.example` query has
    // a real answer.
    let zone = scenario::soa_zone(
        "example",
        3600,
        "ns1.example.",
        "hostmaster.example.",
        1,
        3600,
        [Record::new(
            "*.example".parse().expect("valid name"),
            3600,
            RData::A("192.0.2.53".parse().expect("valid ip")),
        )],
    );
    scenario::server_farm(sim, zone, &[server.ip()]);

    let log: LatencyLog = Arc::new(Mutex::new(Vec::new()));
    // The lineage's last committed checkpoint: a resumed run stands on
    // the one it resumed from until it commits its own.
    let cp_out = Arc::new(Mutex::new(resume_from.cloned()));
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let mut client = match resume_from {
        None => SimReplayClient::new(trace.clone(), server, log.clone()),
        Some(cp) => match SimReplayClient::resume(trace.clone(), server, log.clone(), cp) {
            Ok(c) => c,
            Err(e) => {
                // A corrupt checkpoint yields an empty outcome whose
                // gates all fail loudly rather than a panic mid-study.
                let mut out = outcome(cfg, leg.label, &log, tel::Log::default(), None);
                out.transcript.push_str(&format!("resume-error {e}\n"));
                return StormOutcome {
                    outcome: out,
                    stamps: Vec::new(),
                };
            }
        },
    };
    client.checkpoint_cadence = Some(cfg.cadence);
    if let Some((retransmit, seed)) = leg.retransmit {
        client.udp_retransmit = Some(retransmit);
        client.retx_seed = seed;
    }
    client.checkpoint_out = Some(cp_out.clone());
    client.checkpoint_stamps = Some(stamps.clone());
    let srcs = client.source_addrs();
    let client_id = sim.add_host(&srcs, Box::new(client));
    match resume_from {
        None => SimReplayClient::schedule(sim, client_id, &trace, SimTime::ZERO),
        Some(cp) => SimReplayClient::schedule_resume(sim, client_id, &trace, SimTime::ZERO, cp),
    }
    scenario::install_plan(sim, &leg.plan);
    sim.run_until(leg.run_until);
    let cp = cp_out.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let stamps = stamps.lock().unwrap_or_else(|e| e.into_inner()).clone();
    StormOutcome {
        outcome: outcome(cfg, leg.label, &log, q_events(sim.drain_recording()), cp),
        stamps,
    }
}

/// A calm-weather leg: no faults, no retransmission.
fn calm(cfg: &RecoveryConfig, label: &'static str, run_until: SimTime) -> Leg {
    Leg {
        label,
        plan: FaultPlan::new(cfg.seed),
        retransmit: None,
        run_until,
    }
}

/// The baseline: a checkpointed replay left alone to completion.
pub fn run_uninterrupted(cfg: &RecoveryConfig) -> RecoveryOutcome {
    run_leg(cfg, calm(cfg, "uninterrupted", cfg.horizon()), None).outcome
}

/// The killed run: identical to the baseline until `kill_at`, where
/// the simulator is simply abandoned. Returns the partial outcome —
/// its `checkpoint` is what a resume starts from.
pub fn run_killed(cfg: &RecoveryConfig) -> RecoveryOutcome {
    run_leg(cfg, calm(cfg, "killed", cfg.kill_at), None).outcome
}

/// The resumed run: a fresh simulator rebuilt from `cp`. The returned
/// `records`/`transcript` cover the *whole* trace (checkpointed prefix
/// plus replayed remainder); `q_events` cover only the post-resume
/// part — [`spliced_q_events`] joins them with the killed run's.
pub fn run_resumed(cfg: &RecoveryConfig, cp: &Checkpoint) -> RecoveryOutcome {
    run_leg(cfg, calm(cfg, "resumed", cfg.horizon()), Some(cp)).outcome
}

/// A kill → resume pair, each leg on a [`ldp_shard::ShardedSimulator`]
/// with `shards` round-robin worker shards: the killed outcome, then
/// the resumed one. Each leg's `q_events` are its shards' logs merged
/// in canonical order. `None` when the kill came before the first
/// checkpoint.
fn killed_and_resumed_sharded(
    cfg: &RecoveryConfig,
    shards: u32,
    killed: Leg,
    resumed: Leg,
) -> Option<(RecoveryOutcome, RecoveryOutcome)> {
    let mut sim = scenario::sharded_simulator(cfg.rtt, cfg.seed, shards);
    let killed = run_leg_on(cfg, killed, None, &mut sim).outcome;
    let cp = killed.checkpoint.clone()?;
    let mut sim = scenario::sharded_simulator(cfg.rtt, cfg.seed, shards);
    Some((
        killed,
        run_leg_on(cfg, resumed, Some(&cp), &mut sim).outcome,
    ))
}

/// [`run_killed`] then [`run_resumed`] from its last checkpoint on
/// `shards` shards: the killed and the resumed outcome. The resumed
/// transcript, and the pair's [`spliced_q_events`], are byte-identical
/// to the plain pair's.
pub fn run_killed_and_resumed_sharded(
    cfg: &RecoveryConfig,
    shards: u32,
) -> Option<(RecoveryOutcome, RecoveryOutcome)> {
    let killed = calm(cfg, "killed", cfg.kill_at);
    killed_and_resumed_sharded(cfg, shards, killed, calm(cfg, "resumed", cfg.horizon()))
}

/// The querier-crash run: a [`FaultEvent::QuerierCrash`] power-cycles
/// the querier host at `crash_at` for `down_for`; `on_restart`
/// re-dispatches the overdue span and re-arms the rest.
pub fn run_querier_crash(cfg: &RecoveryConfig) -> RecoveryOutcome {
    let leg = Leg {
        label: "querier_crash",
        plan: FaultPlan::new(cfg.seed).at(
            cfg.crash_at,
            FaultEvent::QuerierCrash {
                addr: querier_addr(),
                down_for: cfg.down_for,
            },
        ),
        retransmit: None,
        run_until: cfg.horizon(),
    };
    run_leg(cfg, leg, None).outcome
}

// ---------------------------------------------------------------------
// The crash-storm study
// ---------------------------------------------------------------------

/// Parameters of the crash-storm study: a calm prefix, then a sustained
/// loss-plus-delay storm that outlasts the kill.
///
/// The storm's `extra_delay` exceeds the query gap, so from its onset
/// every completion happens with later queries already on the wire: no
/// instant of the storm is free of live queries, and every cut the
/// cadence commits there carries some.
///
/// The study runs with admission disabled: a resumed run's admission
/// window starts emptier than the original's was at the same instant,
/// so verdicts (and thus transcripts) could diverge. Resume guarantees
/// byte-identity only for unguarded dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormConfig {
    /// The underlying trace/sim shape and checkpoint cadence.
    pub base: RecoveryConfig,
    /// Storm onset (virtual). Placed mid-gap, after the calm prefix.
    pub storm_from: SimTime,
    /// Storm end. Must exceed `base.kill_at`: the kill lands inside
    /// the storm.
    pub storm_until: SimTime,
    /// Per-packet drop probability during the storm.
    pub loss_rate: f64,
    /// Fixed extra one-way delay during the storm. Keep it above
    /// `base.query_gap` so that every storm cut carries live queries.
    pub extra_delay: SimDuration,
    /// Jitter bound on top of `extra_delay`.
    pub delay_jitter: SimDuration,
    /// UDP retransmission policy — generous enough that every query
    /// lost to the storm still has budget left when it ends.
    pub retransmit: RetransmitConfig,
    /// Run-level seed for the per-query retransmit jitter streams.
    pub retx_seed: u64,
}

impl StormConfig {
    /// The standard storm: calm until 1.52 s, then 40% loss plus a
    /// 150 ms (+30 ms jitter) delay spike until 6.5 s; killed at
    /// 4.11 s, mid-storm.
    pub fn standard(seed: u64) -> Self {
        StormConfig {
            base: RecoveryConfig {
                kill_at: SimTime::from_secs_f64(4.11),
                ..RecoveryConfig::standard(seed)
            },
            storm_from: SimTime::from_secs_f64(1.52),
            storm_until: SimTime::from_secs_f64(6.5),
            loss_rate: 0.4,
            extra_delay: SimDuration::from_millis(150),
            delay_jitter: SimDuration::from_millis(30),
            retransmit: RetransmitConfig {
                max_retx: 12,
                base_us: 200_000,
                cap_us: 1_500_000,
            },
            retx_seed: seed ^ 0x5f0f,
        }
    }

    /// A smaller, faster variant for smoke tests and CI gates.
    pub fn smoke(seed: u64) -> Self {
        StormConfig {
            base: RecoveryConfig {
                kill_at: SimTime::from_secs_f64(3.37),
                ..RecoveryConfig::smoke(seed)
            },
            storm_until: SimTime::from_secs_f64(4.5),
            ..StormConfig::standard(seed)
        }
    }

    /// The fault plan every storm run installs: one sustained loss
    /// burst plus one delay spike, both spanning `[storm_from,
    /// storm_until]`. Packet fates are pure functions of `(plan seed,
    /// virtual time, endpoints, payload)`, so a resumed run
    /// re-executing an in-flight query re-draws the identical fates.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.base.seed)
            .at(
                self.storm_from,
                FaultEvent::LossBurst {
                    rate: self.loss_rate,
                    until: self.storm_until,
                },
            )
            .at(
                self.storm_from,
                FaultEvent::DelaySpike {
                    extra: self.extra_delay,
                    jitter: self.delay_jitter,
                    until: self.storm_until,
                },
            )
    }

    /// The `[storm onset, kill]` window (ns) the commit gate counts
    /// checkpoint commits in.
    pub fn storm_window(&self) -> (u64, u64) {
        (self.storm_from.as_nanos(), self.base.kill_at.as_nanos())
    }

    /// One storm leg: the storm installed, retransmission on.
    fn leg(&self, label: &'static str, run_until: SimTime) -> Leg {
        Leg {
            label,
            plan: self.plan(),
            retransmit: Some((self.retransmit, self.retx_seed)),
            run_until,
        }
    }
}

/// A recovery outcome plus the run's checkpoint-commit history.
#[derive(Debug, Clone)]
pub struct StormOutcome {
    /// Records, transcript, telemetry, and the last checkpoint.
    pub outcome: RecoveryOutcome,
    /// Every commit the run made, in commit order.
    pub stamps: Vec<CheckpointStamp>,
}

impl StormOutcome {
    /// Commits whose virtual instant falls inside `[from, to]` ns.
    pub fn stamps_in(&self, from: u64, to: u64) -> Vec<CheckpointStamp> {
        self.stamps
            .iter()
            .filter(|s| s.taken_ns >= from && s.taken_ns <= to)
            .copied()
            .collect()
    }
}

/// The storm baseline: storm installed, left alone to completion.
/// Retransmission outlasts the storm, so the whole trace is still
/// answered.
pub fn run_storm_baseline(cfg: &StormConfig) -> StormOutcome {
    let leg = cfg.leg("storm_baseline", cfg.base.horizon());
    run_leg(&cfg.base, leg, None)
}

/// The killed storm run: abandoned mid-storm at `kill_at`. Its
/// `checkpoint` is a cut with live `inflight` state — what the resume
/// starts from.
pub fn run_storm_killed(cfg: &StormConfig) -> StormOutcome {
    run_leg(&cfg.base, cfg.leg("storm_killed", cfg.base.kill_at), None)
}

/// The resumed storm run: rebuilt from `cp` in a fresh simulator with
/// the same storm installed. Carried queries are re-armed at their
/// original deadlines and re-execute their full lifecycles under
/// identical packet fates, so the final transcript is byte-identical
/// to the baseline's.
pub fn run_storm_resumed(cfg: &StormConfig, cp: &Checkpoint) -> StormOutcome {
    let leg = cfg.leg("storm_resumed", cfg.base.horizon());
    run_leg(&cfg.base, leg, Some(cp))
}

/// [`run_storm_killed`] then [`run_storm_resumed`] from its last
/// checkpoint on `shards` shards: the killed and the resumed outcome.
/// The resumed transcript body, and the pair's [`spliced_q_events`],
/// are byte-identical to the plain pair's and the storm baseline's.
pub fn run_storm_killed_and_resumed_sharded(
    cfg: &StormConfig,
    shards: u32,
) -> Option<(RecoveryOutcome, RecoveryOutcome)> {
    let killed = cfg.leg("storm_killed", cfg.base.kill_at);
    let resumed = cfg.leg("storm_resumed", cfg.base.horizon());
    killed_and_resumed_sharded(&cfg.base, shards, killed, resumed)
}

/// Telemetry of an interrupted lineage, in canonical order.
///
/// Events before the cut are *not* all owned by completed queries: the
/// killed run's pre-cut events for queries the checkpoint carries in
/// flight will be re-emitted (at their original virtual times) by the
/// resumed run's re-execution. So the splice keeps the killed run's
/// events only for queries the cut had completed, appends everything
/// the resumed run drained, and sorts both sides' unions into
/// [`tel::canonical_order`] — re-execution emits old-timestamped
/// events after newer ones, so raw drain order is not comparable.
/// Compare against a baseline sorted the same way.
pub fn spliced_q_events(killed: &RecoveryOutcome, resumed: &RecoveryOutcome) -> Vec<tel::RawEvent> {
    let Some(cp) = &killed.checkpoint else {
        let mut events = resumed.q_events.clone();
        tel::canonical_order(&mut events);
        return events;
    };
    let done: std::collections::BTreeSet<u64> = cp
        .records
        .iter()
        .filter_map(|l| l.split_whitespace().next()?.parse().ok())
        .collect();
    let mut events: Vec<tel::RawEvent> = killed
        .q_events
        .iter()
        .filter(|ev| ev.t_ns <= cp.taken_ns && done.contains(&ev.a))
        .copied()
        .collect();
    events.extend(resumed.q_events.iter().copied());
    tel::canonical_order(&mut events);
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninterrupted_smoke_answers_everything_and_checkpoints() {
        let cfg = RecoveryConfig::smoke(11);
        let out = run_uninterrupted(&cfg);
        assert_eq!(out.records.len(), cfg.queries);
        assert!((out.answered_fraction(&cfg) - 1.0).abs() < 1e-12);
        let cp = out.checkpoint.expect("checkpoints committed");
        assert_eq!(cp.cursor as usize, cfg.queries, "cursor {}", cp.cursor);
    }

    #[test]
    fn kill_resume_matches_uninterrupted_transcript_and_telemetry() {
        let cfg = RecoveryConfig::smoke(23);
        let base = run_uninterrupted(&cfg);
        let killed = run_killed(&cfg);
        let cp = killed
            .checkpoint
            .clone()
            .expect("a checkpoint before the kill");
        assert!(
            cp.cursor > 0 && (cp.cursor as usize) < cfg.queries,
            "kill lands mid-run, cursor {}",
            cp.cursor
        );
        // One writer: the cut's `rec` lines are what the transcript
        // says of the same completions, in the same order.
        let body: Vec<&str> = killed.transcript.lines().skip(2).collect();
        assert_eq!(cp.records, body[..cp.records.len()]);
        let resumed = run_resumed(&cfg, &cp);
        assert_eq!(
            resumed.transcript.lines().skip(2).collect::<Vec<_>>(),
            base.transcript.lines().skip(2).collect::<Vec<_>>(),
            "transcript bodies diverged"
        );
        let spliced = spliced_q_events(&killed, &resumed);
        let mut base_events = base.q_events;
        tel::canonical_order(&mut base_events);
        assert_eq!(
            tel::diff_logs(&spliced, &base_events),
            None,
            "telemetry diverged"
        );
        // And the binary dumps are byte-identical.
        assert_eq!(tel::dump_binary(&spliced), tel::dump_binary(&base_events));
    }

    #[test]
    fn querier_crash_still_answers_nearly_everything() {
        let cfg = RecoveryConfig::smoke(31);
        let out = run_querier_crash(&cfg);
        assert!(
            out.answered_fraction(&cfg) >= 0.99,
            "answered {:.4} of the trace",
            out.answered_fraction(&cfg)
        );
    }
}
