//! The delayed-hits study: a self-contained simulated scenario — a few
//! authoritative servers, one recursive resolver running the
//! [`ldp_cache`] subsystem, one stub swarm on a heavy-tailed (Zipf)
//! name popularity — measuring client-perceived latency split by how
//! each query was served (cache hit / delayed hit / miss) as cache
//! size, eviction policy and fault conditions vary.
//!
//! *Delayed hits* are queries that arrive while a miss for the same
//! (qname, qtype) is already being resolved: the resolver coalesces
//! them onto the single in-flight resolution and fans the one upstream
//! answer out to every waiter. A [`FaultPlan`] can stretch the
//! in-flight window (delay spike) or crash the upstream servers
//! entirely, which is when aggregation matters most.
//!
//! Both the `fig_cache` scenario binary and the chaos integration tests
//! drive this module, so the experiment that produces the figure is
//! exactly the code the test suite pins down.

use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_resolver::sim_resolver::{AnswerClass, AnswerEvent, ResolverSnapshot, SimResolver};
use dns_server::engine::ServerEngine;
use dns_server::sim_server::SimDnsServer;
use dns_wire::rdata::Soa;
use dns_wire::record::Record;
use dns_wire::{Message, Name, RData, RecordType};
use dns_zone::catalog::Catalog;
use dns_zone::zone::Zone;
use ldp_cache::{CacheConfig, PrefetchConfig};
use ldp_rng::SplitMix64;
use netsim::{
    Ctx, Host, PacketBytes, PathConfig, SimConfig, SimDuration, SimTime, Simulator, TcpEvent,
    Topology,
};
use workloads::Zipf;

use crate::agent;
use crate::plan::{FaultEvent, FaultPlan};

pub use ldp_cache::PolicyKind;

/// Parameters of one delayed-hits run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayedConfig {
    /// Distinct query names (Zipf ranks).
    pub names: usize,
    /// Total stub queries.
    pub queries: usize,
    /// Spacing between consecutive stub queries.
    pub query_gap: SimDuration,
    /// Zipf exponent of the name popularity (larger = more skew; the
    /// B-Root shape in paper Figure 15c is strongly skewed).
    pub zipf_s: f64,
    /// TTL of every positive record in the study zone.
    pub record_ttl: u32,
    /// Every `nx_every`-th rank has no record, so those queries
    /// exercise the RFC 2308 negative-caching path (0 disables).
    pub nx_every: usize,
    /// Cache capacity in entries (`usize::MAX` = unbounded).
    pub capacity: usize,
    /// Eviction policy under study.
    pub policy: PolicyKind,
    /// Enable prefetch-before-expiry (fixed study knobs).
    pub prefetch: bool,
    /// Authoritative servers (all serve the same zone).
    pub servers: usize,
    /// Optional delay spike `(start, until, extra one-way delay)` on
    /// every path — stretches the in-flight window so more queries
    /// coalesce.
    pub delay_spike: Option<(SimTime, SimTime, SimDuration)>,
    /// Optional upstream outage `(crash, restart)`: every authoritative
    /// server is down for the window.
    pub crash: Option<(SimTime, SimTime)>,
    /// Seed for the simulator, the fault plan and the workload.
    pub seed: u64,
}

impl DelayedConfig {
    /// The standard study shape: 400 names, 1500 queries at 5 ms
    /// spacing under a strong Zipf skew, 60 s record TTLs, every 7th
    /// rank nonexistent, 4 upstream servers, no faults.
    pub fn standard(capacity: usize, policy: PolicyKind, seed: u64) -> Self {
        DelayedConfig {
            names: 400,
            queries: 1500,
            query_gap: SimDuration::from_millis(5),
            zipf_s: 1.1,
            record_ttl: 60,
            nx_every: 7,
            capacity,
            policy,
            prefetch: false,
            servers: 4,
            delay_spike: None,
            crash: None,
            seed,
        }
    }

    /// A smaller, faster variant for smoke tests and CI gates.
    pub fn smoke(capacity: usize, policy: PolicyKind, seed: u64) -> Self {
        DelayedConfig {
            names: 120,
            queries: 300,
            ..DelayedConfig::standard(capacity, policy, seed)
        }
    }

    /// A cold-name burst: `stubs` queries for one name, all at t≈1 s,
    /// so every one of them lands while the first resolution is in
    /// flight — the pure aggregation scenario the dedup invariant and
    /// the chaos tests pin down.
    pub fn burst(stubs: usize, seed: u64) -> Self {
        DelayedConfig {
            names: 1,
            queries: stubs,
            query_gap: SimDuration::from_nanos(0),
            nx_every: 0,
            ..DelayedConfig::standard(usize::MAX, PolicyKind::Lru, seed)
        }
    }

    /// The fault plan this config describes.
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        if let Some((start, until, extra)) = self.delay_spike {
            plan = plan.at(
                start,
                FaultEvent::DelaySpike {
                    extra,
                    jitter: SimDuration::from_nanos(0),
                    until,
                },
            );
        }
        if let Some((crash, restart)) = self.crash {
            for i in 0..self.servers {
                let addr = server_addr(i);
                plan = plan
                    .at(crash, FaultEvent::ServerCrash { addr })
                    .at(restart, FaultEvent::ServerRestart { addr });
            }
        }
        plan
    }

    /// True if Zipf rank `r` has no record in the zone (NXDOMAIN).
    pub fn is_nx(&self, rank: usize) -> bool {
        self.nx_every > 0 && rank % self.nx_every == self.nx_every - 1
    }

    /// The deterministic per-query name ranks: Zipf draws from a rng
    /// seeded only by `seed`, independent of the simulator.
    pub fn ranks(&self) -> Vec<usize> {
        let zipf = Zipf::new(self.names, self.zipf_s);
        let mut rng = SplitMix64::seed_from_u64(self.seed ^ 0x5eed_cafe);
        (0..self.queries).map(|_| zipf.sample(&mut rng)).collect()
    }
}

/// Address of authoritative server `i` (0-based): `10.13.0.{i+1}`.
pub fn server_addr(i: usize) -> IpAddr {
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

fn rank_name(rank: usize) -> Name {
    format!("n{rank}.study.")
        .parse()
        .expect("generated name is valid")
}

/// Outcome of one stub query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryRecord {
    /// Zipf rank of the queried name.
    pub rank: usize,
    /// When the query went out.
    pub sent: Option<SimTime>,
    /// When its answer arrived.
    pub done: Option<SimTime>,
    /// Whether the answer was usable (positive, or the expected
    /// NXDOMAIN for a nonexistent rank).
    pub ok: bool,
    /// How the resolver served it, from the resolver's answer log.
    pub class: Option<AnswerClass>,
    /// Time spent waiting on an in-flight resolution (ns).
    pub waited_ns: u64,
}

impl QueryRecord {
    /// Client-perceived latency (seconds), when answered.
    pub fn latency_secs(&self) -> Option<f64> {
        match (self.sent, self.done) {
            (Some(s), Some(d)) if d >= s => Some((d - s).as_secs_f64()),
            _ => None,
        }
    }
}

/// The result of [`run`]: per-query records, the resolver's final
/// counters, and a deterministic transcript (byte-identical for equal
/// seeds and configs).
#[derive(Debug, Clone)]
pub struct DelayedOutcome {
    /// Per-query outcomes, indexed by query number.
    pub records: Vec<QueryRecord>,
    /// Final resolver/cache/aggregation counters.
    pub snapshot: ResolverSnapshot,
    /// Queries the authoritative servers actually received (sum over
    /// servers) — the dedup invariant gates on this.
    pub upstream_rx: u64,
    /// Deterministic text transcript of the whole run.
    pub transcript: String,
}

impl DelayedOutcome {
    /// Fraction of all queries that ended with a usable answer.
    pub fn ok_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        let ok = self.records.iter().filter(|r| r.ok).count();
        ok as f64 / self.records.len() as f64
    }

    /// Queries served as `class`.
    pub fn count(&self, class: AnswerClass) -> usize {
        self.records
            .iter()
            .filter(|r| r.class == Some(class))
            .count()
    }

    /// Client-perceived latencies (seconds) of queries served as
    /// `class`.
    pub fn latencies_secs(&self, class: AnswerClass) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.class == Some(class))
            .filter_map(|r| r.latency_secs())
            .collect()
    }
}

/// The stub swarm: sends query `i` (id `i`, name by Zipf rank) when its
/// timer fires and records when each answer lands. No retries — the
/// study measures the resolver's behavior, not stub persistence.
struct StubSwarm {
    addr: SocketAddr,
    resolver: SocketAddr,
    queries: Vec<(usize, Name, bool)>,
    records: Arc<Mutex<Vec<QueryRecord>>>,
}

impl Host for StubSwarm {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, _from: SocketAddr, _to: SocketAddr, data: PacketBytes) {
        let Ok(msg) = Message::decode(&data) else {
            return;
        };
        let i = msg.id as usize;
        let Some(&(_, _, nx)) = self.queries.get(i) else {
            return;
        };
        let Ok(mut records) = self.records.lock() else {
            return;
        };
        let Some(rec) = records.get_mut(i) else {
            return;
        };
        if rec.done.is_some() {
            return; // duplicate or late answer
        }
        rec.done = Some(ctx.now());
        rec.ok = if nx {
            msg.rcode == dns_wire::Rcode::NxDomain
        } else {
            msg.rcode == dns_wire::Rcode::NoError && !msg.answers.is_empty()
        };
    }

    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let i = token as usize;
        let Some((_, name, _)) = self.queries.get(i) else {
            return;
        };
        let q = Message::query(i as u16, name.clone(), RecordType::A);
        if let Ok(mut records) = self.records.lock() {
            if let Some(rec) = records.get_mut(i) {
                rec.sent = Some(ctx.now());
            }
        }
        ctx.send_udp(self.addr, self.resolver, q.encode());
    }
}

/// Build the study zone: an SOA at the apex (MINIMUM drives the
/// negative TTLs, RFC 2308) plus one A record per existing rank.
fn study_zone(cfg: &DelayedConfig) -> Zone {
    let mut zone = Zone::new("study.".parse().expect("valid name"));
    let soa = Record::new(
        "study.".parse().expect("valid name"),
        3600,
        RData::Soa(Soa {
            mname: "ns.study.".parse().expect("valid name"),
            rname: "ops.study.".parse().expect("valid name"),
            serial: 20181031, // yyyymmdd
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 30,
        }),
    );
    zone.insert(soa).expect("apex SOA inserts");
    for rank in 0..cfg.names {
        if cfg.is_nx(rank) {
            continue;
        }
        let ip = std::net::Ipv4Addr::new(192, 0, 2, (rank % 250) as u8 + 1);
        let rec = Record::new(rank_name(rank), cfg.record_ttl, RData::A(ip));
        zone.insert(rec).expect("rank name is in-zone");
    }
    zone
}

/// Run the delayed-hits study once and return its outcome.
///
/// Everything inside is virtual-time and plan-seeded, so two calls with
/// an equal `cfg` produce byte-identical transcripts.
pub fn run(cfg: &DelayedConfig) -> DelayedOutcome {
    let mut sim = Simulator::new(
        Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(40))),
        SimConfig {
            seed: cfg.seed,
            ..SimConfig::default()
        },
    );

    // The authoritative servers all serve one shared study-zone engine.
    let mut catalog = Catalog::new();
    catalog.insert(study_zone(cfg));
    let engine = Arc::new(ServerEngine::with_catalog(catalog));
    let mut server_ids = Vec::with_capacity(cfg.servers);
    for i in 0..cfg.servers {
        let addr = server_addr(i);
        let server = SimDnsServer::new(engine.clone(), SocketAddr::new(addr, 53), None);
        server_ids.push(sim.add_host(&[addr], Box::new(server)));
    }

    // The recursive resolver under the cache configuration being
    // studied.
    let resolver_addr: SocketAddr = SocketAddr::new(RESOLVER_ADDR.parse().expect("valid ip"), 53);
    let hints: Vec<IpAddr> = (0..cfg.servers).map(server_addr).collect();
    let mut resolver = SimResolver::new(resolver_addr, hints);
    resolver.timeout = SimDuration::from_secs(2);
    resolver.max_retries = 6;
    resolver.set_cache_config(CacheConfig {
        capacity: cfg.capacity,
        policy: cfg.policy,
        prefetch: cfg.prefetch.then(PrefetchConfig::default),
        ..CacheConfig::default()
    });
    let answers: Arc<Mutex<Vec<AnswerEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let snapshot = Arc::new(Mutex::new(ResolverSnapshot::default()));
    resolver.set_answer_log(Arc::clone(&answers));
    resolver.set_stats_out(Arc::clone(&snapshot));
    let resolver_id = sim.add_host(&[resolver_addr.ip()], Box::new(resolver));

    // The stub swarm, one pre-armed timer per query.
    let ranks = cfg.ranks();
    let queries: Vec<(usize, Name, bool)> = ranks
        .iter()
        .map(|&r| (r, rank_name(r), cfg.is_nx(r)))
        .collect();
    let records = Arc::new(Mutex::new(
        ranks
            .iter()
            .map(|&r| QueryRecord {
                rank: r,
                ..QueryRecord::default()
            })
            .collect::<Vec<_>>(),
    ));
    let stub_addr: SocketAddr = SocketAddr::new(STUB_ADDR.parse().expect("valid ip"), 5353);
    let stub = StubSwarm {
        addr: stub_addr,
        resolver: resolver_addr,
        queries,
        records: Arc::clone(&records),
    };
    let stub_id = sim.add_host(&[stub_addr.ip()], Box::new(stub));
    let first_query_at = SimTime::from_secs_f64(1.0);
    for i in 0..cfg.queries {
        let at = first_query_at + cfg.query_gap.times(i as u64);
        sim.schedule_timer(stub_id, at, i as u64);
    }

    // Wire in the fault plan (delay shaping + crash/restart agent).
    sim_install(&mut sim, cfg);

    let events = sim.run();

    // Merge the resolver's answer log (class + wait per qid) into the
    // stub-side records.
    let mut records = records.lock().expect("stub swarm does not panic").clone();
    {
        let log = answers.lock().expect("answer log lock");
        for ev in log.iter() {
            if let Some(rec) = records.get_mut(ev.qid as usize) {
                if rec.class.is_none() {
                    rec.class = Some(ev.class);
                    rec.waited_ns = ev.waited_ns;
                }
            }
        }
    }
    let snapshot = *snapshot.lock().expect("snapshot lock");
    let upstream_rx: u64 = server_ids.iter().map(|&id| sim.stats(id).udp_rx).sum();

    // Deterministic transcript: config, per-query outcomes, counters.
    let mut t = String::new();
    t.push_str("fig_cache v1\n");
    t.push_str(&format!(
        "policy={} capacity={} prefetch={} seed={} names={} queries={} ttl={}s nx_every={} spike={:?} crash={:?}\n",
        cfg.policy.label(),
        if cfg.capacity == usize::MAX { "inf".to_string() } else { cfg.capacity.to_string() },
        u8::from(cfg.prefetch),
        cfg.seed,
        cfg.names,
        cfg.queries,
        cfg.record_ttl,
        cfg.nx_every,
        cfg.delay_spike.map(|(a, b, d)| (a.as_nanos(), b.as_nanos(), d.as_nanos())),
        cfg.crash.map(|(a, b)| (a.as_nanos(), b.as_nanos())),
    ));
    for (i, rec) in records.iter().enumerate() {
        let sent = rec.sent.map(|s| s.as_nanos().to_string());
        let done = rec.done.map(|d| d.as_nanos().to_string());
        t.push_str(&format!(
            "q{} rank={} sent={} done={} class={} waited={} {}\n",
            i,
            rec.rank,
            sent.as_deref().unwrap_or("-"),
            done.as_deref().unwrap_or("-"),
            rec.class.map(AnswerClass::label).unwrap_or("-"),
            rec.waited_ns,
            if rec.ok { "ok" } else { "fail" }
        ));
    }
    t.push_str(&format!("events={} upstream_rx={}\n", events, upstream_rx));
    t.push_str(&format!("resolver {:?}\n", snapshot));
    t.push_str(&format!("stub {:?}\n", sim.stats(stub_id)));
    t.push_str(&format!("resolver_host {:?}\n", sim.stats(resolver_id)));

    DelayedOutcome {
        records,
        snapshot,
        upstream_rx,
        transcript: t,
    }
}

fn sim_install(sim: &mut Simulator, cfg: &DelayedConfig) {
    let plan = cfg.plan();
    if !plan.faults.is_empty() {
        agent::install(sim, &plan, AGENT_ADDR.parse().expect("valid ip"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_answers_everything() {
        let cfg = DelayedConfig::smoke(usize::MAX, PolicyKind::Lru, 42);
        let out = run(&cfg);
        assert_eq!(out.records.len(), cfg.queries);
        assert!(
            out.ok_fraction() >= 1.0,
            "all answered:\n{}",
            out.transcript
        );
        // Heavy-tailed workload with 60s TTLs: most queries must be
        // cache hits, and some must have coalesced.
        assert!(out.count(AnswerClass::Hit) > out.count(AnswerClass::Miss));
        let covered = out.count(AnswerClass::Hit)
            + out.count(AnswerClass::Miss)
            + out.count(AnswerClass::DelayedHit)
            + out.count(AnswerClass::ServFail);
        assert_eq!(covered, cfg.queries, "every query classified");
    }

    #[test]
    fn burst_coalesces_onto_one_upstream_query() {
        let out = run(&DelayedConfig::burst(8, 7));
        assert_eq!(out.records.len(), 8);
        assert!(out.ok_fraction() >= 1.0);
        assert_eq!(out.upstream_rx, 1, "dedup invariant:\n{}", out.transcript);
        assert_eq!(out.count(AnswerClass::Miss), 1);
        assert_eq!(out.count(AnswerClass::DelayedHit), 7);
    }

    #[test]
    fn same_seed_transcripts_are_byte_identical() {
        let cfg = DelayedConfig::smoke(64, PolicyKind::DelayAware, 11);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.transcript, b.transcript);
    }

    #[test]
    fn bounded_cache_evicts_and_still_answers() {
        let cfg = DelayedConfig::smoke(16, PolicyKind::Lru, 3);
        let out = run(&cfg);
        assert!(out.ok_fraction() >= 1.0);
        assert!(out.snapshot.stats.evictions > 0, "capacity 16 must evict");
        assert!(out.snapshot.cache_len <= 16);
    }

    #[test]
    fn nonexistent_ranks_are_negative_cached() {
        let cfg = DelayedConfig::smoke(usize::MAX, PolicyKind::Lru, 5);
        let out = run(&cfg);
        // Some queries hit nonexistent ranks and still count as ok
        // (NXDOMAIN expected); repeats within the 30s SOA MINIMUM are
        // served from the negative cache.
        let nx_queries: Vec<_> = out.records.iter().filter(|r| cfg.is_nx(r.rank)).collect();
        assert!(!nx_queries.is_empty(), "workload must include NX ranks");
        assert!(nx_queries.iter().all(|r| r.ok), "NXDOMAIN answers expected");
        assert!(
            nx_queries.iter().any(|r| r.class == Some(AnswerClass::Hit)),
            "repeat NX queries served from the negative cache"
        );
    }
}
