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

use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_server::engine::ServerEngine;
use dns_server::sim_server::SimDnsServer;
use dns_wire::rdata::Soa;
use dns_wire::record::Record;
use dns_wire::{Message, Name, RData, Rcode, RecordType};
use dns_zone::catalog::Catalog;
use dns_zone::zone::Zone;
use ldp_shard::{ShardPlan, ShardedSimulator};
use netsim::{
    Ctx, Host, HostStats, PacketBytes, PathConfig, SimConfig, SimDuration, SimTime, Simulator,
    TcpEvent, Topology,
};

use crate::agent;
use crate::plan::{FaultEvent, FaultPlan};

use dns_resolver::sim_resolver::SimResolver;

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
            let addr = letter_addr(i);
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

/// Outcome of one stub query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryRecord {
    /// When the first attempt went out.
    pub first_sent: Option<SimTime>,
    /// When a final answer (positive or giving-up SERVFAIL) arrived.
    pub done: Option<SimTime>,
    /// Whether the final answer was a usable positive answer.
    pub ok: bool,
    /// Stub attempts used.
    pub attempts: u32,
    /// SERVFAIL responses seen along the way.
    pub servfails: u32,
}

impl QueryRecord {
    /// Answer latency from first send, when answered OK.
    pub fn latency(&self) -> Option<SimDuration> {
        match (self.first_sent, self.done, self.ok) {
            (Some(s), Some(d), true) if d >= s => Some(d - s),
            _ => None,
        }
    }
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

/// Address of root letter `i` (0-based): `10.13.0.{i+1}`.
pub fn letter_addr(i: usize) -> IpAddr {
    IpAddr::V4(std::net::Ipv4Addr::new(
        10,
        13,
        0,
        (i as u8).wrapping_add(1),
    ))
}

const RESOLVER_ADDR: &str = "10.1.0.1";
const STUB_ADDR: &str = "10.2.0.1";
const AGENT_ADDR: &str = "10.255.0.1";

fn qname(i: usize) -> Name {
    format!("q{i}.").parse().expect("generated name is valid")
}

/// The stub swarm: sends query `i` at its scheduled time, retries
/// unanswered queries every `retry_gap` up to `max_attempts`, and
/// records outcomes.
struct StubSwarm {
    addr: SocketAddr,
    resolver: SocketAddr,
    records: Arc<Mutex<Vec<QueryRecord>>>,
    max_attempts: u32,
    retry_gap: SimDuration,
}

impl StubSwarm {
    fn send_query(&self, ctx: &mut Ctx<'_>, i: usize) {
        let q = Message::query(i as u16, qname(i), RecordType::A);
        ctx.send_udp(self.addr, self.resolver, q.encode());
    }
}

impl Host for StubSwarm {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, _from: SocketAddr, _to: SocketAddr, data: PacketBytes) {
        let Ok(msg) = Message::decode(&data) else {
            return;
        };
        let i = msg.id as usize;
        let Ok(mut records) = self.records.lock() else {
            return;
        };
        let Some(rec) = records.get_mut(i) else {
            return;
        };
        if rec.done.is_some() {
            return; // duplicate or late answer
        }
        if msg.rcode == Rcode::NoError && !msg.answers.is_empty() {
            rec.done = Some(ctx.now());
            rec.ok = true;
        } else {
            rec.servfails += 1;
            if rec.attempts >= self.max_attempts {
                // Out of retries: record the failure as final.
                rec.done = Some(ctx.now());
                rec.ok = false;
            }
            // Otherwise leave the query open — the standing retry timer
            // resends it (possibly served from the resolver's cache if
            // only the answer leg was lost).
        }
    }

    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let i = token as usize;
        let (send, rearm) = {
            let Ok(mut records) = self.records.lock() else {
                return;
            };
            let Some(rec) = records.get_mut(i) else {
                return;
            };
            if rec.done.is_some() || rec.attempts >= self.max_attempts {
                (false, false)
            } else {
                rec.attempts += 1;
                if rec.first_sent.is_none() {
                    rec.first_sent = Some(ctx.now());
                }
                (true, rec.attempts < self.max_attempts)
            }
        };
        if send {
            self.send_query(ctx, i);
        }
        if rearm {
            ctx.set_timer(self.retry_gap, token);
        }
    }
}

/// Build the root zone the letters serve: an SOA at the apex plus one
/// A record per query name, so every query has a real answer.
fn root_zone(queries: usize) -> Zone {
    let mut zone = Zone::new(Name::root());
    let soa = Record::new(
        Name::root(),
        86400,
        RData::Soa(Soa {
            mname: "a.root-servers.net.".parse().expect("valid name"),
            rname: "nstld.verisign-grs.com.".parse().expect("valid name"),
            serial: 20181031, // yyyymmdd
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 86400,
        }),
    );
    zone.insert(soa).expect("apex SOA inserts");
    for i in 0..queries {
        let ip = std::net::Ipv4Addr::new(192, 0, 2, (i % 250) as u8 + 1);
        let rec = Record::new(qname(i), 3600, RData::A(ip));
        zone.insert(rec).expect("query name is in-zone");
    }
    zone
}

/// Either simulator front-end, so [`run`] and [`run_sharded`] drive
/// one workload-construction path — same hosts, same driver-API call
/// order — and any transcript divergence is the engine's fault, not
/// the harness's.
// One short-lived value per run; boxing it would buy nothing.
#[allow(clippy::large_enum_variant)]
enum AnySim {
    Single(Simulator),
    Sharded(ShardedSimulator),
}

impl AnySim {
    fn add_host(&mut self, addrs: &[IpAddr], host: Box<dyn Host>) -> usize {
        match self {
            AnySim::Single(s) => s.add_host(addrs, host),
            AnySim::Sharded(s) => s.add_host(addrs, host),
        }
    }

    fn schedule_timer(&mut self, host: usize, at: SimTime, token: u64) {
        match self {
            AnySim::Single(s) => s.schedule_timer(host, at, token),
            AnySim::Sharded(s) => s.schedule_timer(host, at, token),
        }
    }

    fn install(&mut self, plan: &FaultPlan, agent_addr: IpAddr) {
        match self {
            AnySim::Single(s) => {
                agent::install(s, plan, agent_addr);
            }
            AnySim::Sharded(s) => {
                agent::install_sharded(s, plan, agent_addr);
            }
        }
    }

    fn run(&mut self) -> u64 {
        match self {
            AnySim::Single(s) => s.run(),
            AnySim::Sharded(s) => s.run(),
        }
    }

    fn stats(&self, host: usize) -> HostStats {
        match self {
            AnySim::Single(s) => s.stats(host),
            AnySim::Sharded(s) => s.stats(host),
        }
    }
}

/// Run the outage study once and return its outcome.
///
/// Everything inside is virtual-time and plan-seeded, so two calls with
/// an equal `cfg` produce byte-identical transcripts.
pub fn run(cfg: &OutageConfig) -> OutageOutcome {
    let mut sim = AnySim::Single(Simulator::new(outage_topology(), outage_sim_config(cfg)));
    run_on(cfg, &mut sim)
}

/// [`run`] on a [`ShardedSimulator`] with `shards` round-robin worker
/// shards. Produces a transcript byte-identical to [`run`]'s for the
/// same config — the shard-equivalence property the integration tests
/// pin down across shard counts.
pub fn run_sharded(cfg: &OutageConfig, shards: u32) -> OutageOutcome {
    let mut sim = AnySim::Sharded(ShardedSimulator::new(
        outage_topology(),
        outage_sim_config(cfg),
        ShardPlan::round_robin(shards),
    ));
    run_on(cfg, &mut sim)
}

/// A WAN-ish star: every path 40 ms RTT at the default link rate.
fn outage_topology() -> Topology {
    Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(40)))
}

fn outage_sim_config(cfg: &OutageConfig) -> SimConfig {
    SimConfig {
        seed: cfg.seed,
        ..SimConfig::default()
    }
}

fn run_on(cfg: &OutageConfig, sim: &mut AnySim) -> OutageOutcome {
    // The 13 letters all serve one shared root-zone engine.
    let mut catalog = Catalog::new();
    catalog.insert(root_zone(cfg.queries));
    let engine = Arc::new(ServerEngine::with_catalog(catalog));
    let mut letters = Vec::with_capacity(cfg.letters);
    for i in 0..cfg.letters {
        let addr = letter_addr(i);
        let server = SimDnsServer::new(engine.clone(), SocketAddr::new(addr, 53), None);
        letters.push(sim.add_host(&[addr], Box::new(server)));
    }

    // The recursive resolver, configured per the policy under study.
    let resolver_addr: SocketAddr = SocketAddr::new(RESOLVER_ADDR.parse().expect("valid ip"), 53);
    let hints: Vec<IpAddr> = (0..cfg.letters).map(letter_addr).collect();
    let mut resolver = SimResolver::new(resolver_addr, hints);
    resolver.timeout = SimDuration::from_secs(2);
    resolver.max_retries = cfg.policy.max_retries;
    resolver.backoff_cap = cfg.policy.backoff_cap;
    resolver.rotate_servers = cfg.policy.rotate_servers;
    let resolver_id = sim.add_host(&[resolver_addr.ip()], Box::new(resolver));

    // The stub swarm, with one pre-armed timer per query.
    let records = Arc::new(Mutex::new(vec![QueryRecord::default(); cfg.queries]));
    let stub_addr: SocketAddr = SocketAddr::new(STUB_ADDR.parse().expect("valid ip"), 5353);
    let stub = StubSwarm {
        addr: stub_addr,
        resolver: resolver_addr,
        records: Arc::clone(&records),
        max_attempts: cfg.stub_attempts,
        retry_gap: cfg.stub_retry_gap,
    };
    let stub_id = sim.add_host(&[stub_addr.ip()], Box::new(stub));
    let first_query_at = SimTime::from_secs_f64(1.0);
    for i in 0..cfg.queries {
        let at = first_query_at + cfg.query_gap.times(i as u64);
        sim.schedule_timer(stub_id, at, i as u64);
    }

    // Wire in the fault plan (packet shaping + crash/restart agent).
    sim.install(&cfg.plan(), AGENT_ADDR.parse().expect("valid ip"));

    let events = sim.run();

    // Deterministic transcript: config, per-query outcomes, counters.
    let records = records.lock().expect("stub swarm does not panic");
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
        let sent = rec.first_sent.map(|s| s.as_nanos().to_string());
        let done = rec.done.map(|d| d.as_nanos().to_string());
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
            sent.as_deref().unwrap_or("-"),
            done.as_deref().unwrap_or("-"),
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
        records: records.clone(),
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
