//! The root-letter outage study: a self-contained simulated scenario —
//! 13 "root letter" authoritative servers, one recursive resolver, one
//! stub swarm — where a [`FaultPlan`] crashes some letters and injects
//! a loss burst for a window, and we measure how many stub queries
//! still get answered and at what latency, under different resolver
//! retry policies.
//!
//! Both the `fig_outage` scenario binary and the chaos integration
//! tests drive this module, so the experiment that produces the
//! figures is exactly the code the test suite pins down.

use netsim::{SimDriver, SimDuration, SimTime};

use crate::plan::{FaultEvent, FaultPlan};
use crate::scenario::{self, ns_or_dash, server_addr, StubSwarm};

/// Outcome of one stub query — the shared stub swarm's record.
pub use crate::scenario::StubRecord as QueryRecord;

/// How the resolver handles a failed upstream attempt — the independent
/// variable of the outage study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Short label used in transcripts and figure legends.
    pub label: &'static str,
    /// Resolver retry budget across nameservers (0 = give up after the
    /// first failed attempt).
    pub max_retries: usize,
    /// Decorrelated-jitter backoff cap; `None` keeps a fixed timeout.
    pub backoff_cap: Option<SimDuration>,
    /// Spread first-server choice across the letter list per query.
    pub rotate_servers: bool,
}

impl RetryPolicy {
    /// No failover at all: the first failed attempt SERVFAILs.
    pub fn no_failover() -> Self {
        RetryPolicy {
            label: "no-failover",
            max_retries: 0,
            backoff_cap: None,
            rotate_servers: false,
        }
    }

    /// Failover to the next listed nameserver, fixed per-attempt
    /// timeout, always starting from the first letter.
    pub fn failover() -> Self {
        RetryPolicy {
            label: "failover",
            max_retries: 6,
            backoff_cap: None,
            rotate_servers: false,
        }
    }

    /// Failover plus exponential backoff with decorrelated jitter plus
    /// per-query server rotation — the full resilience path.
    pub fn full() -> Self {
        RetryPolicy {
            label: "failover+backoff+rotate",
            max_retries: 8,
            backoff_cap: Some(SimDuration::from_secs(8)),
            rotate_servers: true,
        }
    }
}

/// Parameters of one outage run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageConfig {
    /// Number of root-letter servers (the paper's root has 13).
    pub letters: usize,
    /// How many letters (the first `crashed` of them) go down.
    pub crashed: usize,
    /// Total stub queries, one unique name each (forces cache misses).
    pub queries: usize,
    /// Spacing between consecutive stub queries.
    pub query_gap: SimDuration,
    /// Outage window start: the crash + loss burst begin here.
    pub outage_start: SimTime,
    /// Outage window end: letters restart, the loss burst stops.
    pub outage_end: SimTime,
    /// Packet loss rate applied to every path during the window.
    pub loss_rate: f64,
    /// Seed for both the simulator and the fault plan.
    pub seed: u64,
    /// The resolver retry policy under study.
    pub policy: RetryPolicy,
    /// Stub attempts per query (first send + retries).
    pub stub_attempts: u32,
    /// Gap between stub retries of the same query.
    pub stub_retry_gap: SimDuration,
}

impl OutageConfig {
    /// The standard study shape: 13 letters, 3 crashed, 300 queries at
    /// 50 ms spacing starting at t=1 s, outage over [5 s, 13 s) with a
    /// 10% loss burst. The 8 s window deliberately outlasts the stub's
    /// full retry span (4 attempts × 2.5 s), so a policy that never
    /// fails over cannot be rescued by stub persistence alone.
    pub fn standard(policy: RetryPolicy, seed: u64) -> Self {
        OutageConfig {
            letters: 13,
            crashed: 3,
            queries: 300,
            query_gap: SimDuration::from_millis(50),
            outage_start: SimTime::from_secs_f64(5.0),
            outage_end: SimTime::from_secs_f64(13.0),
            loss_rate: 0.10,
            seed,
            policy,
            stub_attempts: 4,
            stub_retry_gap: SimDuration::from_millis(2_500),
        }
    }

    /// A smaller, faster variant for smoke tests and CI gates.
    pub fn smoke(policy: RetryPolicy, seed: u64) -> Self {
        OutageConfig {
            queries: 120,
            ..OutageConfig::standard(policy, seed)
        }
    }

    /// The fault plan this config describes: a loss burst plus crash at
    /// `outage_start`, restarts at `outage_end`.
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed).at(
            self.outage_start,
            FaultEvent::LossBurst {
                rate: self.loss_rate,
                until: self.outage_end,
            },
        );
        for i in 0..self.crashed.min(self.letters) {
            let addr = server_addr(i);
            plan = plan
                .at(self.outage_start, FaultEvent::ServerCrash { addr })
                .at(self.outage_end, FaultEvent::ServerRestart { addr });
        }
        plan
    }
}

/// Which part of the run a query's send time falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Sent before the outage window.
    Before,
    /// Sent inside the outage window.
    During,
    /// Sent after the window closed.
    After,
}

/// The result of [`run`]: per-query records plus a deterministic
/// transcript (byte-identical for equal seeds and configs).
#[derive(Debug, Clone)]
pub struct OutageOutcome {
    /// Per-query outcomes, indexed by query number.
    pub records: Vec<QueryRecord>,
    /// Deterministic text transcript of the whole run.
    pub transcript: String,
}

impl OutageOutcome {
    /// Fraction of all queries that ended with a usable answer.
    pub fn ok_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        let ok = self.records.iter().filter(|r| r.ok).count();
        ok as f64 / self.records.len() as f64
    }

    /// OK-answer latencies (seconds) for queries first sent in `phase`.
    pub fn latencies_secs(&self, cfg: &OutageConfig, phase: Phase) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| phase_of(cfg, r.first_sent) == Some(phase))
            .filter_map(|r| r.latency())
            .map(|d| d.as_secs_f64())
            .collect()
    }

    /// Count of queries first sent in `phase`.
    pub fn sent_in_phase(&self, cfg: &OutageConfig, phase: Phase) -> usize {
        self.records
            .iter()
            .filter(|r| phase_of(cfg, r.first_sent) == Some(phase))
            .count()
    }

    /// Count of OK answers among queries first sent in `phase`.
    pub fn ok_in_phase(&self, cfg: &OutageConfig, phase: Phase) -> usize {
        self.records
            .iter()
            .filter(|r| r.ok && phase_of(cfg, r.first_sent) == Some(phase))
            .count()
    }
}

fn phase_of(cfg: &OutageConfig, sent: Option<SimTime>) -> Option<Phase> {
    let t = sent?;
    Some(if t < cfg.outage_start {
        Phase::Before
    } else if t < cfg.outage_end {
        Phase::During
    } else {
        Phase::After
    })
}

fn qname(i: usize) -> dns_wire::Name {
    format!("q{i}.").parse().expect("generated name is valid")
}

/// Run the outage study once and return its outcome.
///
/// Everything inside is virtual-time and plan-seeded, so two calls with
/// an equal `cfg` produce byte-identical transcripts.
pub fn run(cfg: &OutageConfig) -> OutageOutcome {
    run_on(cfg, &mut scenario::simulator(scenario::wan_rtt(), cfg.seed))
}

/// [`run`] on a simulator the caller built and owns — a
/// [`netsim::Simulator`], or a [`ldp_shard::ShardedSimulator`] whose
/// transcript is byte-identical for the same config — so the caller can
/// switch its recording on and drain it afterwards.
pub fn run_on<S: SimDriver>(cfg: &OutageConfig, sim: &mut S) -> OutageOutcome {
    // The letters all serve one root zone: an SOA at the apex plus one
    // A record per query name, so every query has a real answer.
    let root_zone = scenario::soa_zone(
        ".",
        86400,
        "a.root-servers.net.",
        "nstld.verisign-grs.com.",
        20181031, // yyyymmdd
        86400,
        (0..cfg.queries).map(|i| scenario::a_record(qname(i), 3600, i)),
    );
    let letter_addrs = scenario::server_addrs(cfg.letters);
    let letters = scenario::server_farm(sim, root_zone, &letter_addrs);

    // The recursive resolver, configured per the policy under study.
    let mut resolver = scenario::resolver(letter_addrs);
    resolver.max_retries = cfg.policy.max_retries;
    resolver.backoff_cap = cfg.policy.backoff_cap;
    resolver.rotate_servers = cfg.policy.rotate_servers;
    let resolver_id = sim.add_host(&[scenario::RESOLVER.ip()], Box::new(resolver));

    // The stub swarm, with one pre-armed timer per query.
    let (stub_id, records) = StubSwarm::spawn(
        sim,
        (0..cfg.queries).map(|i| (qname(i), false)).collect(),
        cfg.stub_attempts,
        cfg.stub_retry_gap,
        SimTime::from_secs_f64(1.0),
        cfg.query_gap,
    );

    // Wire in the fault plan (packet shaping + crash/restart agent).
    scenario::install_plan(sim, &cfg.plan());

    let events = sim.run();

    // Deterministic transcript: config, per-query outcomes, counters.
    let records = records.lock().expect("stub swarm does not panic").clone();
    let mut t = String::new();
    t.push_str("fig_outage v1\n");
    t.push_str(&format!(
        "policy={} seed={} letters={} crashed={} loss={:?}\n",
        cfg.policy.label, cfg.seed, cfg.letters, cfg.crashed, cfg.loss_rate
    ));
    t.push_str(&format!(
        "outage=[{},{})ns queries={} gap={}ns events={}\n",
        cfg.outage_start.as_nanos(),
        cfg.outage_end.as_nanos(),
        cfg.queries,
        cfg.query_gap.as_nanos(),
        events
    ));
    for (i, rec) in records.iter().enumerate() {
        let state = if rec.ok {
            "ok"
        } else if rec.done.is_some() {
            "fail"
        } else {
            "none"
        };
        t.push_str(&format!(
            "q{} sent={} done={} attempts={} servfails={} {}\n",
            i,
            ns_or_dash(rec.first_sent),
            ns_or_dash(rec.done),
            rec.attempts,
            rec.servfails,
            state
        ));
    }
    t.push_str(&format!("resolver {:?}\n", sim.stats(resolver_id)));
    t.push_str(&format!("stub {:?}\n", sim.stats(stub_id)));
    for (i, id) in letters.iter().enumerate() {
        t.push_str(&format!("letter{} {:?}\n", i, sim.stats(*id)));
    }

    OutageOutcome {
        records,
        transcript: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_answers_everything_quickly() {
        // No faults at all: shrink the config and clear the plan by
        // setting the outage after the run ends with zero loss.
        let mut cfg = OutageConfig::smoke(RetryPolicy::failover(), 42);
        cfg.queries = 40;
        cfg.loss_rate = 0.0;
        cfg.crashed = 0;
        let out = run(&cfg);
        assert_eq!(out.records.len(), 40);
        assert!(out.ok_fraction() >= 1.0, "all answered: {}", out.transcript);
        for r in &out.records {
            assert_eq!(r.attempts, 1, "no retries needed");
            let lat = r.latency().expect("answered");
            assert!(lat < SimDuration::from_millis(500), "LAN-fast: {lat:?}");
        }
    }

    #[test]
    fn phases_partition_queries() {
        let cfg = OutageConfig::smoke(RetryPolicy::full(), 7);
        let out = run(&cfg);
        let total = out.sent_in_phase(&cfg, Phase::Before)
            + out.sent_in_phase(&cfg, Phase::During)
            + out.sent_in_phase(&cfg, Phase::After);
        assert_eq!(total, cfg.queries);
        assert!(out.sent_in_phase(&cfg, Phase::During) > 0);
    }
}
