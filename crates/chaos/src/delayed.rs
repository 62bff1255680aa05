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

use std::sync::{Arc, Mutex};

use dns_resolver::sim_resolver::{AnswerClass, AnswerEvent, ResolverSnapshot};
use ldp_cache::{CacheConfig, PrefetchConfig};
use ldp_rng::SplitMix64;
use netsim::{SimDriver, SimDuration, SimTime};
use workloads::Zipf;

use crate::plan::{FaultEvent, FaultPlan};
use crate::scenario::{self, ns_or_dash, server_addr, StubSwarm};

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
    fn is_nx(&self, rank: usize) -> bool {
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

fn rank_name(rank: usize) -> dns_wire::Name {
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
    fn latency_secs(&self) -> Option<f64> {
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

/// Run the delayed-hits study once and return its outcome.
///
/// Everything inside is virtual-time and plan-seeded, so two calls with
/// an equal `cfg` produce byte-identical transcripts.
pub fn run(cfg: &DelayedConfig) -> DelayedOutcome {
    run_on(cfg, &mut scenario::simulator(scenario::wan_rtt(), cfg.seed))
}

/// [`run`] on a simulator the caller built and owns — a
/// [`netsim::Simulator`], or a [`ldp_shard::ShardedSimulator`] whose
/// transcript is byte-identical for the same config — so the caller can
/// switch its recording on and drain it afterwards.
pub fn run_on<S: SimDriver>(cfg: &DelayedConfig, sim: &mut S) -> DelayedOutcome {
    // The authoritative servers all serve one study zone: an SOA at the
    // apex (MINIMUM 30 s drives the negative TTLs, RFC 2308) plus one A
    // record per existing rank.
    let study_zone = scenario::soa_zone(
        "study.",
        3600,
        "ns.study.",
        "ops.study.",
        20181031, // yyyymmdd
        30,
        (0..cfg.names)
            .filter(|&rank| !cfg.is_nx(rank))
            .map(|rank| scenario::a_record(rank_name(rank), cfg.record_ttl, rank)),
    );
    let server_addrs = scenario::server_addrs(cfg.servers);
    let server_ids = scenario::server_farm(sim, study_zone, &server_addrs);

    // The recursive resolver under the cache configuration being
    // studied.
    let mut resolver = scenario::resolver(server_addrs);
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
    let resolver_id = sim.add_host(&[scenario::RESOLVER.ip()], Box::new(resolver));

    // The stub swarm, one pre-armed timer per query, no retries — the
    // study measures the resolver's behavior, not stub persistence.
    let ranks = cfg.ranks();
    let (stub_id, stub_records) = StubSwarm::spawn(
        sim,
        ranks
            .iter()
            .map(|&r| (rank_name(r), cfg.is_nx(r)))
            .collect(),
        1,
        SimDuration::ZERO,
        SimTime::from_secs_f64(1.0),
        cfg.query_gap,
    );

    // Wire in the fault plan (delay shaping + crash/restart agent).
    scenario::install_plan(sim, &cfg.plan());

    let events = sim.run();

    // Merge the resolver's answer log (class + wait per qid) into the
    // stub-side records.
    let mut records: Vec<QueryRecord> = stub_records
        .lock()
        .expect("stub swarm does not panic")
        .iter()
        .zip(&ranks)
        .map(|(stub, &rank)| QueryRecord {
            rank,
            sent: stub.first_sent,
            done: stub.done,
            ok: stub.ok,
            ..QueryRecord::default()
        })
        .collect();
    for ev in answers.lock().expect("answer log lock").iter() {
        if let Some(rec) = records.get_mut(ev.qid as usize) {
            if rec.class.is_none() {
                rec.class = Some(ev.class);
                rec.waited_ns = ev.waited_ns;
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
        t.push_str(&format!(
            "q{} rank={} sent={} done={} class={} waited={} {}\n",
            i,
            rec.rank,
            ns_or_dash(rec.sent),
            ns_or_dash(rec.done),
            rec.class.map(AnswerClass::label).unwrap_or("-"),
            rec.waited_ns,
            if rec.ok { "ok" } else { "fail" }
        ));
    }
    t.push_str(&format!("events={} upstream_rx={}\n", events, upstream_rx));
    // The resolver line field by field, as `{:?}` printed the snapshot
    // when `fig_cache v1` was committed: a counter `ResolverStats` has
    // gained since (`mismatched_responses`, which no upstream of this
    // study can move) does not reword a committed transcript.
    let s = &snapshot.stats;
    t.push_str(&format!(
        "resolver ResolverSnapshot {{ stats: ResolverStats {{ stub_queries: {}, \
         stub_answers: {}, upstream_queries: {}, cache_hits: {}, delayed_hits: {}, \
         evictions: {}, prefetches: {}, failures: {} }}, cache: {:?}, outstanding: {:?}, \
         cache_len: {} }}\n",
        s.stub_queries,
        s.stub_answers,
        s.upstream_queries,
        s.cache_hits,
        s.delayed_hits,
        s.evictions,
        s.prefetches,
        s.failures,
        snapshot.cache,
        snapshot.outstanding,
        snapshot.cache_len,
    ));
    t.push_str(&format!("stub {:?}\n", sim.stats(stub_id)));
    t.push_str(&format!("resolver_host {:?}\n", sim.stats(resolver_id)));

    DelayedOutcome {
        records,
        snapshot,
        upstream_rx,
        transcript: t,
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
