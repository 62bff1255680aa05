//! The recursive resolver as a [`netsim`] host: accepts stub queries
//! over UDP, walks the (emulated) hierarchy iteratively with cache and
//! retries, and answers the stub — the "Recursive Server" box in the
//! paper's Figure 1/2.
//!
//! The miss path runs through [`ldp_cache`]: concurrent misses for the
//! same (qname, qtype) coalesce onto one in-flight resolution via the
//! [`OutstandingTable`] and the single upstream answer fans out to
//! every waiter (*delayed hits*, with per-waiter latency accounting);
//! the store is capacity-bounded with pluggable deterministic eviction
//! ([`CacheConfig`]); negative TTLs derive from the authority-section
//! SOA per RFC 2308; and hot names can be refreshed before expiry
//! (rate-budgeted prefetch).
//!
//! Referrals must carry glue (our zone constructor always emits glue for
//! in-zone nameservers); glue-less referrals answer SERVFAIL, a
//! documented simplification of this host (the synchronous
//! [`crate::IterativeResolver`] handles glue-less chains and is what
//! zone construction uses).

use std::collections::BTreeMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_wire::{Message, Name, RData, Rcode, RecordType};
use ldp_cache::{
    negative_ttl, CacheConfig, CacheStats, CachedAnswer, FillInfo, OutstandingStats,
    OutstandingTable, ResolverCache,
};
use ldp_rng::SplitMix64;
use ldp_telemetry as tel;
use netsim::{Ctx, Host, PacketBytes, SimDuration, TcpEvent};

/// Interned per-attempt lifecycle marks for the resolver. The `a` key
/// is the task id, so a whole resolution chain (stub → upstream
/// attempts → failovers → answer/servfail) is kept or dropped together
/// under sampling, and stamped with the simulator's `ctx.now()`.
struct RsvKinds {
    stub: tel::KindId,
    cache_hit: tel::KindId,
    delayed_hit: tel::KindId,
    upstream: tel::KindId,
    timeout: tel::KindId,
    failover: tel::KindId,
    servfail: tel::KindId,
    answer: tel::KindId,
    evict: tel::KindId,
    prefetch: tel::KindId,
}

fn rsv_kinds() -> &'static RsvKinds {
    static K: std::sync::OnceLock<RsvKinds> = std::sync::OnceLock::new();
    K.get_or_init(|| RsvKinds {
        stub: tel::register_kind("rsv.stub"),
        cache_hit: tel::register_kind("rsv.cache_hit"),
        delayed_hit: tel::register_kind("rsv.delayed_hit"),
        upstream: tel::register_kind("rsv.upstream"),
        timeout: tel::register_kind("rsv.timeout"),
        failover: tel::register_kind("rsv.failover"),
        servfail: tel::register_kind("rsv.servfail"),
        answer: tel::register_kind("rsv.answer"),
        evict: tel::register_kind("rsv.evict"),
        prefetch: tel::register_kind("rsv.prefetch"),
    })
}

/// A client parked on an in-flight resolution: enough to answer it when
/// the upstream walk completes (each waiter keeps its own query so the
/// fan-out responds with the right DNS id and flags per client).
#[derive(Debug, Clone)]
struct Waiter {
    stub: SocketAddr,
    query: Message,
}

/// Per-resolution state machine.
#[derive(Debug)]
struct Task {
    /// The cache/aggregation key: the clients' original question.
    key_name: Name,
    qname: Name,
    qtype: RecordType,
    /// DO bit of the lead query, propagated upstream.
    dnssec_ok: bool,
    /// A prefetch refresh: launched with no waiting client.
    prefetch: bool,
    servers: Vec<IpAddr>,
    server_idx: usize,
    answers: Vec<dns_wire::Record>,
    cname_hops: usize,
    retries: usize,
    outstanding: Option<u16>,
    /// Timeout for the current attempt (grows under backoff).
    cur_timeout: SimDuration,
}

/// Counters for the resolver host.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolverStats {
    /// Stub queries received.
    pub stub_queries: u64,
    /// Answers returned to stubs.
    pub stub_answers: u64,
    /// Upstream (iterative) queries sent.
    pub upstream_queries: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Delayed hits: queries that coalesced onto an in-flight
    /// resolution instead of launching their own.
    pub delayed_hits: u64,
    /// Entries evicted by the cache capacity bound.
    pub evictions: u64,
    /// Prefetch refreshes launched before expiry.
    pub prefetches: u64,
    /// Resolutions that failed (SERVFAIL to the stub).
    pub failures: u64,
}

/// How a stub query was ultimately answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerClass {
    /// Served from the cache immediately.
    Hit,
    /// Lead miss: this query launched the upstream resolution.
    Miss,
    /// Coalesced onto an in-flight resolution and waited for its answer.
    DelayedHit,
    /// Resolution failed; the stub got SERVFAIL.
    ServFail,
}

impl AnswerClass {
    /// Transcript/legend label.
    pub fn label(self) -> &'static str {
        match self {
            AnswerClass::Hit => "hit",
            AnswerClass::Miss => "miss",
            AnswerClass::DelayedHit => "delayed-hit",
            AnswerClass::ServFail => "servfail",
        }
    }
}

/// One answered stub query, as recorded by the answer log.
#[derive(Debug, Clone, Copy)]
pub struct AnswerEvent {
    /// Virtual time the answer was sent (ns).
    pub at_ns: u64,
    /// DNS id of the stub query answered.
    pub qid: u16,
    /// How it was served.
    pub class: AnswerClass,
    /// Time the client waited on an in-flight resolution (ns): the full
    /// resolution for a [`AnswerClass::Miss`], the residual wait for a
    /// [`AnswerClass::DelayedHit`], 0 for a hit.
    pub waited_ns: u64,
}

/// A point-in-time copy of the resolver's counters, published through
/// [`SimResolver::set_stats_out`] so experiment drivers can read them
/// after the simulation consumed the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolverSnapshot {
    /// Host counters.
    pub stats: ResolverStats,
    /// Cache store counters.
    pub cache: CacheStats,
    /// In-flight aggregation counters.
    pub outstanding: OutstandingStats,
    /// Resident cache entries.
    pub cache_len: usize,
}

/// The simulated recursive resolver host.
pub struct SimResolver {
    addr: SocketAddr,
    root_hints: Vec<IpAddr>,
    cache: ResolverCache,
    outstanding: OutstandingTable<Waiter>,
    delegations: BTreeMap<Name, Vec<IpAddr>>,
    tasks: BTreeMap<u64, Task>,
    upstream_map: BTreeMap<u16, u64>,
    next_task: u64,
    next_id: u16,
    /// Upstream query timeout (the base timeout when backoff is on).
    pub timeout: SimDuration,
    /// Max retries across servers before SERVFAIL.
    pub max_retries: usize,
    /// Exponential backoff with decorrelated jitter: when set, each
    /// retry's timeout is drawn uniformly from `[timeout, 3 × prev]`
    /// and capped here (AWS-style decorrelated jitter — desynchronizes
    /// retry storms during an outage). `None` keeps a fixed per-attempt
    /// timeout.
    pub backoff_cap: Option<SimDuration>,
    /// Spread each query's first nameserver across the server list by
    /// task id instead of always starting at index 0 — approximates
    /// real resolvers' server selection so an outage of some servers
    /// only delays the share of queries that pick them first.
    pub rotate_servers: bool,
    /// Live counters.
    pub stats: ResolverStats,
    /// Seeded RNG for backoff jitter (rule D3: no ambient randomness).
    rng: SplitMix64,
    /// Reusable encode buffer + compression interner for all sends.
    scratch: dns_wire::EncodeScratch,
    answer_log: Option<Arc<Mutex<Vec<AnswerEvent>>>>,
    stats_out: Option<Arc<Mutex<ResolverSnapshot>>>,
}

impl SimResolver {
    /// New resolver at `addr` using `root_hints`. The cache starts in
    /// the legacy shape (unbounded LRU, no prefetch); use
    /// [`set_cache_config`](Self::set_cache_config) before traffic to
    /// bound it.
    pub fn new(addr: SocketAddr, root_hints: Vec<IpAddr>) -> Self {
        SimResolver {
            addr,
            root_hints,
            cache: ResolverCache::unbounded(),
            outstanding: OutstandingTable::new(),
            delegations: BTreeMap::new(),
            tasks: BTreeMap::new(),
            upstream_map: BTreeMap::new(),
            next_task: 0,
            next_id: 1,
            timeout: SimDuration::from_secs(2),
            max_retries: 6,
            backoff_cap: None,
            rotate_servers: false,
            stats: ResolverStats::default(),
            rng: SplitMix64::seed_from_u64(0x1d9_c0de),
            scratch: dns_wire::EncodeScratch::new(),
            answer_log: None,
            stats_out: None,
        }
    }

    /// Replace the cache with a fresh one built from `config`. Call
    /// before traffic: resident entries are dropped.
    pub fn set_cache_config(&mut self, config: CacheConfig) {
        self.cache = ResolverCache::new(config);
    }

    /// Record every answered stub query into `log` (class + wait time),
    /// for experiment drivers that need per-query accounting after the
    /// simulator consumed this host.
    pub fn set_answer_log(&mut self, log: Arc<Mutex<Vec<AnswerEvent>>>) {
        self.answer_log = Some(log);
    }

    /// Publish a [`ResolverSnapshot`] into `out` every time counters
    /// change, so drivers can read final stats after the run.
    pub fn set_stats_out(&mut self, out: Arc<Mutex<ResolverSnapshot>>) {
        self.stats_out = Some(out);
    }

    fn publish_snapshot(&self) {
        if let Some(out) = &self.stats_out {
            if let Ok(mut s) = out.lock() {
                *s = ResolverSnapshot {
                    stats: self.stats,
                    cache: self.cache.stats(),
                    outstanding: self.outstanding.stats(),
                    cache_len: self.cache.len(),
                };
            }
        }
    }

    fn log_answer(&self, at_ns: u64, qid: u16, class: AnswerClass, waited_ns: u64) {
        if let Some(log) = &self.answer_log {
            if let Ok(mut v) = log.lock() {
                v.push(AnswerEvent {
                    at_ns,
                    qid,
                    class,
                    waited_ns,
                });
            }
        }
    }

    /// First-server index for a task over an `n`-long server list.
    fn start_idx(&self, task_id: u64, n: usize) -> usize {
        if self.rotate_servers && n > 0 {
            (task_id as usize) % n
        } else {
            0
        }
    }

    /// Grow a task's timeout for its next attempt (decorrelated
    /// jitter), or keep it fixed when backoff is disabled.
    fn next_timeout(&mut self, prev: SimDuration) -> SimDuration {
        let Some(cap) = self.backoff_cap else {
            return self.timeout;
        };
        let base = self.timeout.as_nanos();
        let hi = prev.as_nanos().saturating_mul(3).max(base + 1);
        let span = (hi - base) as f64;
        let drawn = base + (self.rng.gen::<f64>() * span) as u64;
        SimDuration::from_nanos(drawn.min(cap.as_nanos()))
    }

    /// The resolver's service address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn fresh_id(&mut self) -> u16 {
        self.next_id = self.next_id.wrapping_add(1);
        if self.next_id == 0 {
            self.next_id = 1;
        }
        self.next_id
    }

    fn best_servers(&self, qname: &Name) -> Vec<IpAddr> {
        let mut cur = Some(qname.clone());
        while let Some(name) = cur {
            if let Some(addrs) = self.delegations.get(&name) {
                return addrs.clone();
            }
            cur = name.parent();
        }
        self.root_hints.clone()
    }

    /// Create the per-resolution task for `key_name`/`qtype` and launch
    /// its first upstream attempt. The caller has already registered
    /// the key in the outstanding table.
    fn start_task(
        &mut self,
        ctx: &mut Ctx<'_>,
        task_id: u64,
        key_name: Name,
        qtype: RecordType,
        dnssec_ok: bool,
        prefetch: bool,
    ) {
        let servers = self.best_servers(&key_name);
        let server_idx = self.start_idx(task_id, servers.len());
        let task = Task {
            qname: key_name.clone(),
            key_name,
            qtype,
            dnssec_ok,
            prefetch,
            servers,
            server_idx,
            answers: vec![],
            cname_hops: 0,
            retries: 0,
            outstanding: None,
            cur_timeout: self.timeout,
        };
        self.tasks.insert(task_id, task);
        self.send_upstream(ctx, task_id);
    }

    fn handle_stub_query(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, query: Message) {
        self.stats.stub_queries += 1;
        if tel::enabled() {
            // `next_task` is the id this query gets if it misses the
            // cache, tying the stub mark to the rest of its chain.
            tel::mark_at(ctx.now().as_nanos(), rsv_kinds().stub, self.next_task, 0);
        }
        let Some(q) = query.question().cloned() else {
            let mut resp = query.response_to();
            resp.rcode = Rcode::FormErr;
            ctx.send_udp(self.addr, from, resp.encode_into(&mut self.scratch));
            return;
        };
        let now = ctx.now().as_secs_f64();
        // Cache hit answers immediately.
        if let Some(hit) = self.cache.get(&q.name, q.qtype, now) {
            self.stats.cache_hits += 1;
            self.stats.stub_answers += 1;
            if tel::enabled() {
                tel::mark_at(
                    ctx.now().as_nanos(),
                    rsv_kinds().cache_hit,
                    self.next_task,
                    0,
                );
            }
            let qid = query.id;
            let dnssec_ok = query.dnssec_ok();
            let mut resp = query.response_to();
            resp.flags.recursion_available = true;
            match hit {
                CachedAnswer::Positive(records) => {
                    resp.answers = records;
                }
                CachedAnswer::Negative(rcode) => {
                    resp.rcode = rcode;
                }
            }
            ctx.send_udp(self.addr, from, resp.encode_into(&mut self.scratch));
            self.log_answer(ctx.now().as_nanos(), qid, AnswerClass::Hit, 0);
            // Hot-name refresh: if this entry is inside its prefetch
            // window and the budget allows, resolve it again in the
            // background before it expires.
            if self.cache.prefetch_due(&q.name, q.qtype, now)
                && !self.outstanding.contains(&q.name, q.qtype)
            {
                let task_id = self.next_task;
                self.next_task += 1;
                self.stats.prefetches += 1;
                if tel::enabled() {
                    tel::mark_at(ctx.now().as_nanos(), rsv_kinds().prefetch, task_id, 0);
                }
                self.outstanding
                    .begin_prefetch(&q.name, q.qtype, task_id, now);
                self.start_task(ctx, task_id, q.name, q.qtype, dnssec_ok, true);
            }
            self.publish_snapshot();
            return;
        }
        // Miss: coalesce onto an in-flight resolution for the same key,
        // or become the lead and launch one.
        let waiter = Waiter { stub: from, query };
        match self.outstanding.join(&q.name, q.qtype, waiter, now) {
            Ok(_pos) => {
                // Delayed hit: the answer fans out on completion.
                self.stats.delayed_hits += 1;
            }
            Err(waiter) => {
                let task_id = self.next_task;
                self.next_task += 1;
                let dnssec_ok = waiter.query.dnssec_ok();
                self.outstanding
                    .begin(&q.name, q.qtype, task_id, waiter, now);
                self.start_task(ctx, task_id, q.name, q.qtype, dnssec_ok, false);
            }
        }
    }

    fn send_upstream(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let id = self.fresh_id();
        let Some(task) = self.tasks.get_mut(&task_id) else {
            return;
        };
        let Some(&server) = task
            .servers
            .get(task.server_idx % task.servers.len().max(1))
        else {
            self.fail(ctx, task_id);
            return;
        };
        let mut q = Message::query(id, task.qname.clone(), task.qtype);
        q.flags.recursion_desired = false;
        if task.dnssec_ok {
            q.set_dnssec_ok(true);
        }
        task.outstanding = Some(id);
        let attempt_timeout = task.cur_timeout;
        let server_slot = (task.server_idx % task.servers.len().max(1)) as u64;
        self.upstream_map.insert(id, task_id);
        self.stats.upstream_queries += 1;
        if tel::enabled() {
            tel::mark_at(
                ctx.now().as_nanos(),
                rsv_kinds().upstream,
                task_id,
                server_slot,
            );
        }
        ctx.send_udp(
            self.addr,
            SocketAddr::new(server, 53),
            q.encode_into(&mut self.scratch),
        );
        // Timer token encodes (task, attempt) so a stale timer from an
        // attempt that already completed is ignored.
        ctx.set_timer(attempt_timeout, (task_id << 16) | id as u64);
    }

    /// A server attempt failed (timeout or error rcode): advance to the
    /// next listed nameserver with a (possibly backed-off) timeout, or
    /// give up with SERVFAIL once the retry budget is spent.
    fn failover(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let retry = match self.tasks.get_mut(&task_id) {
            Some(task) => {
                task.retries += 1;
                task.server_idx += 1;
                task.retries <= self.max_retries
            }
            None => return,
        };
        if retry {
            if tel::enabled() {
                let retries = self
                    .tasks
                    .get(&task_id)
                    .map(|t| t.retries as u64)
                    .unwrap_or(0);
                tel::mark_at(ctx.now().as_nanos(), rsv_kinds().failover, task_id, retries);
            }
            let prev = self.tasks[&task_id].cur_timeout;
            let next = self.next_timeout(prev);
            if let Some(task) = self.tasks.get_mut(&task_id) {
                task.cur_timeout = next;
            }
            self.send_upstream(ctx, task_id);
        } else {
            self.fail(ctx, task_id);
        }
    }

    /// The resolution failed: SERVFAIL everyone waiting on it.
    fn fail(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let Some(task) = self.tasks.remove(&task_id) else {
            return;
        };
        if let Some(id) = task.outstanding {
            self.upstream_map.remove(&id);
        }
        self.stats.failures += 1;
        if tel::enabled() {
            tel::mark_at(
                ctx.now().as_nanos(),
                rsv_kinds().servfail,
                task_id,
                task.retries as u64,
            );
        }
        let waiters = self
            .outstanding
            .complete(&task.key_name, task.qtype)
            .map(|c| c.waiters)
            .unwrap_or_default();
        let now = ctx.now().as_secs_f64();
        let now_ns = ctx.now().as_nanos();
        for slot in waiters {
            let mut resp = slot.waiter.query.response_to();
            resp.flags.recursion_available = true;
            resp.rcode = Rcode::ServFail;
            self.stats.stub_answers += 1;
            let waited_ns = (((now - slot.arrived).max(0.0)) * 1e9) as u64;
            self.log_answer(
                now_ns,
                slot.waiter.query.id,
                AnswerClass::ServFail,
                waited_ns,
            );
            ctx.send_udp(
                self.addr,
                slot.waiter.stub,
                resp.encode_into(&mut self.scratch),
            );
        }
        self.publish_snapshot();
    }

    /// The resolution completed: fill the cache (positive, or negative
    /// with the SOA-derived TTL) and fan the answer out to every
    /// waiter. The lead miss is charged the full resolution latency;
    /// coalesced waiters are *delayed hits*, each charged exactly the
    /// residual wait from its own arrival.
    fn finish(&mut self, ctx: &mut Ctx<'_>, task_id: u64, rcode: Rcode, neg_ttl: Option<u32>) {
        let Some(task) = self.tasks.remove(&task_id) else {
            return;
        };
        if let Some(id) = task.outstanding {
            self.upstream_map.remove(&id);
        }
        let now = ctx.now().as_secs_f64();
        let done = self.outstanding.complete(&task.key_name, task.qtype);
        let (started, waiters) = match done {
            Some(c) => (c.started, c.waiters),
            None => (now, Vec::new()),
        };
        let fill = FillInfo {
            latency: (now - started).max(0.0),
            requests: (waiters.len() as u64).max(1),
        };
        let out = if rcode == Rcode::NoError && !task.answers.is_empty() {
            self.cache
                .put_positive(&task.key_name, task.qtype, task.answers.clone(), now, fill)
        } else if rcode == Rcode::NxDomain || task.answers.is_empty() {
            self.cache
                .put_negative(&task.key_name, task.qtype, rcode, neg_ttl, now, fill)
        } else {
            Default::default()
        };
        if out.evicted > 0 {
            self.stats.evictions += out.evicted as u64;
            if tel::enabled() {
                tel::mark_at(
                    ctx.now().as_nanos(),
                    rsv_kinds().evict,
                    task_id,
                    out.evicted as u64,
                );
            }
        }
        if tel::enabled() {
            tel::mark_at(
                ctx.now().as_nanos(),
                rsv_kinds().answer,
                task_id,
                u64::from(rcode.to_u16()),
            );
        }
        let now_ns = ctx.now().as_nanos();
        for (i, slot) in waiters.into_iter().enumerate() {
            let mut resp = slot.waiter.query.response_to();
            resp.flags.recursion_available = true;
            resp.rcode = rcode;
            resp.answers = task.answers.clone();
            self.stats.stub_answers += 1;
            let waited_ns = (((now - slot.arrived).max(0.0)) * 1e9) as u64;
            // The lead of a client-launched task is the miss; everyone
            // else (including anyone who joined a prefetch refresh)
            // coalesced mid-flight and is a delayed hit.
            let class = if i == 0 && !task.prefetch {
                AnswerClass::Miss
            } else {
                AnswerClass::DelayedHit
            };
            // (delayed_hits was already counted at join time.)
            if class == AnswerClass::DelayedHit && tel::enabled() {
                tel::mark_at(now_ns, rsv_kinds().delayed_hit, task_id, waited_ns);
            }
            self.log_answer(now_ns, slot.waiter.query.id, class, waited_ns);
            ctx.send_udp(
                self.addr,
                slot.waiter.stub,
                resp.encode_into(&mut self.scratch),
            );
        }
        self.publish_snapshot();
    }

    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>, resp: Message) {
        let Some(&task_id) = self.upstream_map.get(&resp.id) else {
            return; // late or unknown response
        };
        {
            let Some(task) = self.tasks.get(&task_id) else {
                return;
            };
            if task.outstanding != Some(resp.id) {
                return;
            }
        }
        self.upstream_map.remove(&resp.id);

        // Classify: answer / referral / negative.
        if resp.rcode == Rcode::NxDomain {
            // RFC 2308: negative TTL from the authority-section SOA.
            let neg_ttl = negative_ttl(&resp.authorities);
            self.finish(ctx, task_id, Rcode::NxDomain, neg_ttl);
            return;
        }
        if resp.rcode != Rcode::NoError {
            // SERVFAIL/REFUSED/FormErr from one server says nothing
            // about the others (lame delegation, overload, partial
            // outage): fail over to the next listed nameserver rather
            // than giving up — same path as a timeout.
            if let Some(task) = self.tasks.get_mut(&task_id) {
                task.outstanding = None;
            }
            self.failover(ctx, task_id);
            return;
        }
        if !resp.answers.is_empty() {
            let task = self.tasks.get_mut(&task_id).expect("task exists");
            task.answers.extend(resp.answers.iter().cloned());
            let has_final = resp.answers.iter().any(|r| r.rtype() == task.qtype);
            let cname_target = resp.answers.iter().rev().find_map(|r| match &r.rdata {
                RData::Cname(t) => Some(t.clone()),
                _ => None,
            });
            if !has_final && task.qtype != RecordType::CNAME {
                if let Some(target) = cname_target {
                    task.cname_hops += 1;
                    if task.cname_hops > 8 {
                        self.fail(ctx, task_id);
                        return;
                    }
                    task.qname = target;
                    let servers = self.best_servers(&self.tasks[&task_id].qname);
                    let idx = self.start_idx(task_id, servers.len());
                    let task = self.tasks.get_mut(&task_id).expect("task exists");
                    task.servers = servers;
                    task.server_idx = idx;
                    self.send_upstream(ctx, task_id);
                    return;
                }
            }
            self.finish(ctx, task_id, Rcode::NoError, None);
            return;
        }
        // Referral?
        let ns_owner = resp
            .authorities
            .iter()
            .find(|r| r.rtype() == RecordType::NS)
            .map(|r| r.name.clone());
        if let Some(zone) = ns_owner {
            if !resp.flags.authoritative {
                let mut addrs: Vec<IpAddr> = Vec::new();
                for rec in &resp.additionals {
                    match &rec.rdata {
                        RData::A(ip) => addrs.push(IpAddr::V4(*ip)),
                        RData::Aaaa(ip) => addrs.push(IpAddr::V6(*ip)),
                        _ => {}
                    }
                }
                if addrs.is_empty() {
                    // Glue-less: unsupported on this host (see module doc).
                    self.fail(ctx, task_id);
                    return;
                }
                self.delegations.insert(zone, addrs.clone());
                let idx = self.start_idx(task_id, addrs.len());
                let task = self.tasks.get_mut(&task_id).expect("task exists");
                task.servers = addrs;
                task.server_idx = idx;
                self.send_upstream(ctx, task_id);
                return;
            }
        }
        // NODATA: also negatively cacheable per RFC 2308, SOA-derived.
        let neg_ttl = negative_ttl(&resp.authorities);
        self.finish(ctx, task_id, Rcode::NoError, neg_ttl);
    }
}

impl Host for SimResolver {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, _to: SocketAddr, data: PacketBytes) {
        let Ok(msg) = Message::decode(&data) else {
            return;
        };
        if msg.flags.response {
            self.handle_upstream_response(ctx, msg);
        } else {
            self.handle_stub_query(ctx, from, msg);
        }
    }

    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {
        // Stub-facing TCP is not modelled; the §5.2 experiments exercise
        // TCP on the authoritative side.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let task_id = token >> 16;
        let attempt_id = (token & 0xffff) as u16;
        match self.tasks.get_mut(&task_id) {
            Some(task) if task.outstanding == Some(attempt_id) => {
                // That exact attempt timed out.
                task.outstanding = None;
                self.upstream_map.remove(&attempt_id);
                if tel::enabled() {
                    let t = ctx.now().as_nanos();
                    tel::mark_at(t, rsv_kinds().timeout, task_id, u64::from(attempt_id));
                }
            }
            _ => return, // answered, superseded or gone
        }
        self.failover(ctx, task_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dns_server::engine::ServerEngine;
    use dns_server::sim_server::SimDnsServer;
    use dns_wire::record::Record;
    use dns_wire::Soa;
    use dns_zone::catalog::Catalog;
    use dns_zone::zone::Zone;
    use ldp_cache::{PolicyKind, PrefetchConfig};
    use netsim::{SimConfig, SimTime, Simulator, Topology};

    /// A stub that records every response it receives and can send
    /// pre-scheduled queries when its timers fire (token = index into
    /// `sends`).
    struct CaptureStub {
        addr: SocketAddr,
        resolver: SocketAddr,
        sends: Vec<Message>,
        got: Arc<Mutex<Vec<Message>>>,
    }

    impl Host for CaptureStub {
        fn on_udp(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _from: SocketAddr,
            _to: SocketAddr,
            data: PacketBytes,
        ) {
            if let Ok(msg) = Message::decode(&data) {
                self.got.lock().expect("capture lock").push(msg);
            }
        }
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if let Some(q) = self.sends.get(token as usize) {
                ctx.send_udp(self.addr, self.resolver, q.encode());
            }
        }
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn soa_rec(zone: &str, minimum: u32) -> Record {
        Record::new(
            name(zone),
            3600,
            RData::Soa(Soa {
                mname: name("ns.example."),
                rname: name("host.example."),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum,
            }),
        )
    }

    fn good_engine() -> Arc<ServerEngine> {
        let mut zone = Zone::new(name("example."));
        zone.insert(soa_rec("example.", 300)).unwrap();
        zone.insert(Record::new(
            name("www.example."),
            3600,
            RData::A("192.0.2.1".parse().unwrap()),
        ))
        .unwrap();
        zone.insert(Record::new(
            name("w2.example."),
            3600,
            RData::A("192.0.2.2".parse().unwrap()),
        ))
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.insert(zone);
        Arc::new(ServerEngine::with_catalog(catalog))
    }

    /// Empty catalog: the server answers, but never with NoError +
    /// data — the resolver must treat it as a failed attempt.
    fn lame_engine() -> Arc<ServerEngine> {
        Arc::new(ServerEngine::with_catalog(Catalog::new()))
    }

    struct Rig {
        sim: Simulator,
        got: Arc<Mutex<Vec<Message>>>,
        answers: Arc<Mutex<Vec<AnswerEvent>>>,
        snapshot: Arc<Mutex<ResolverSnapshot>>,
        stub_addr: SocketAddr,
        resolver_addr: SocketAddr,
        server_ids: Vec<netsim::HostId>,
    }

    /// Build a sim with a stub (optionally pre-loaded with queries to
    /// send at scheduled virtual times), a resolver hinted at
    /// `upstreams` in order, and one server host per `Some(engine)`
    /// entry (a `None` upstream is a dead address — queries to it
    /// vanish).
    fn scheduled_rig(
        upstreams: &[Option<Arc<ServerEngine>>],
        sends: Vec<(SimTime, Message)>,
        tune: impl FnOnce(&mut SimResolver),
    ) -> Rig {
        let mut sim = Simulator::new(Topology::default(), SimConfig::default());
        let mut hints = Vec::new();
        let mut server_ids = Vec::new();
        for (i, up) in upstreams.iter().enumerate() {
            let ip: IpAddr = format!("10.0.0.{}", i + 1).parse().unwrap();
            hints.push(ip);
            if let Some(engine) = up {
                let server = SimDnsServer::new(engine.clone(), SocketAddr::new(ip, 53), None);
                server_ids.push(sim.add_host(&[ip], Box::new(server)));
            }
        }
        let resolver_addr: SocketAddr = "10.1.0.1:53".parse().unwrap();
        let mut resolver = SimResolver::new(resolver_addr, hints);
        let answers = Arc::new(Mutex::new(Vec::new()));
        let snapshot = Arc::new(Mutex::new(ResolverSnapshot::default()));
        resolver.set_answer_log(Arc::clone(&answers));
        resolver.set_stats_out(Arc::clone(&snapshot));
        tune(&mut resolver);
        sim.add_host(&[resolver_addr.ip()], Box::new(resolver));
        let got = Arc::new(Mutex::new(Vec::new()));
        let stub_addr: SocketAddr = "10.2.0.1:5353".parse().unwrap();
        let stub = CaptureStub {
            addr: stub_addr,
            resolver: resolver_addr,
            sends: sends.iter().map(|(_, m)| m.clone()).collect(),
            got: Arc::clone(&got),
        };
        let stub_id = sim.add_host(&[stub_addr.ip()], Box::new(stub));
        for (i, (at, _)) in sends.iter().enumerate() {
            sim.schedule_timer(stub_id, *at, i as u64);
        }
        Rig {
            sim,
            got,
            answers,
            snapshot,
            stub_addr,
            resolver_addr,
            server_ids,
        }
    }

    fn rig(upstreams: &[Option<Arc<ServerEngine>>], tune: impl FnOnce(&mut SimResolver)) -> Rig {
        scheduled_rig(upstreams, Vec::new(), tune)
    }

    fn ask(rig: &mut Rig, id: u16, qname: &str) {
        let q = Message::query(id, name(qname), RecordType::A);
        rig.sim
            .inject_udp(rig.stub_addr, rig.resolver_addr, q.encode());
    }

    #[test]
    fn timeout_fails_over_to_next_nameserver() {
        // First hint is a dead address: the attempt must time out and
        // the query succeed via the second server.
        let mut rig = rig(&[None, Some(good_engine())], |r| r.max_retries = 3);
        ask(&mut rig, 1, "www.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 1, "exactly one answer to the stub");
        assert_eq!(got[0].rcode, Rcode::NoError);
        assert!(!got[0].answers.is_empty(), "positive answer after failover");
    }

    #[test]
    fn error_rcode_fails_over_to_next_nameserver() {
        // First server answers REFUSED/SERVFAIL (lame); a single bad
        // rcode must advance to the next listed server, not SERVFAIL
        // the stub.
        let mut rig = rig(&[Some(lame_engine()), Some(good_engine())], |r| {
            r.max_retries = 3;
        });
        ask(&mut rig, 2, "www.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].rcode,
            Rcode::NoError,
            "failover past the lame server"
        );
        assert!(!got[0].answers.is_empty());
    }

    #[test]
    fn exhausted_retry_budget_servfails() {
        let mut rig = rig(&[None, Some(good_engine())], |r| r.max_retries = 0);
        ask(&mut rig, 3, "www.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rcode, Rcode::ServFail, "no budget to reach server 2");
    }

    #[test]
    fn rotation_spreads_first_attempts() {
        // Two good servers, two queries: with rotation on, task 0
        // starts at server 0 and task 1 at server 1.
        let mut rig = rig(&[Some(good_engine()), Some(good_engine())], |r| {
            r.rotate_servers = true;
        });
        ask(&mut rig, 4, "www.example.");
        ask(&mut rig, 5, "w2.example.");
        rig.sim.run();
        let rx: Vec<u64> = rig
            .server_ids
            .iter()
            .map(|&id| rig.sim.stats(id).udp_rx)
            .collect();
        assert_eq!(rx, vec![1, 1], "one first attempt per server");
    }

    #[test]
    fn backoff_draws_stay_within_bounds_and_grow() {
        let mut r = SimResolver::new("10.1.0.1:53".parse().unwrap(), vec![]);
        let cap = SimDuration::from_secs(8);
        r.backoff_cap = Some(cap);
        let base = r.timeout;
        let mut prev = base;
        let mut grew = false;
        for _ in 0..64 {
            let next = r.next_timeout(prev);
            assert!(next >= base, "never below the base timeout");
            assert!(next <= cap, "never above the cap");
            if next > prev {
                grew = true;
            }
            prev = next;
        }
        assert!(grew, "decorrelated jitter must actually back off");
    }

    #[test]
    fn fixed_timeout_without_backoff() {
        let mut r = SimResolver::new("10.1.0.1:53".parse().unwrap(), vec![]);
        let base = r.timeout;
        assert_eq!(r.next_timeout(base), base);
        assert_eq!(r.next_timeout(SimDuration::from_secs(30)), base);
    }

    #[test]
    fn concurrent_misses_coalesce_to_one_upstream_query() {
        // Three stubs queries for the same cold name arrive before the
        // upstream answer: exactly one upstream query, three answers,
        // classes Miss + DelayedHit + DelayedHit.
        let mut rig = rig(&[Some(good_engine())], |_| {});
        ask(&mut rig, 10, "www.example.");
        ask(&mut rig, 11, "www.example.");
        ask(&mut rig, 12, "www.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 3, "every stub query answered");
        for m in got.iter() {
            assert_eq!(m.rcode, Rcode::NoError);
            assert!(!m.answers.is_empty());
        }
        assert_eq!(
            rig.sim.stats(rig.server_ids[0]).udp_rx,
            1,
            "dedup invariant: one upstream query for N concurrent misses"
        );
        let log = rig.answers.lock().expect("answer log");
        let classes: Vec<AnswerClass> = log.iter().map(|e| e.class).collect();
        assert_eq!(
            classes,
            vec![
                AnswerClass::Miss,
                AnswerClass::DelayedHit,
                AnswerClass::DelayedHit
            ]
        );
        // The lead waited longest; joiners arrived later so waited less
        // (or equally, with zero-latency links).
        assert!(log[1].waited_ns <= log[0].waited_ns);
        assert!(log[2].waited_ns <= log[1].waited_ns);
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!(snap.stats.delayed_hits, 2);
        assert_eq!(snap.outstanding.leads, 1);
        assert_eq!(snap.outstanding.coalesced, 2);
    }

    #[test]
    fn negative_ttl_derived_from_soa_not_hardcoded() {
        // The zone SOA has MINIMUM=300. An NXDOMAIN must be cached for
        // 300s — a re-ask at t=60s (past the old hardcoded 30s) must be
        // served from cache, not re-resolved.
        let sends = vec![
            (
                SimTime::from_secs_f64(0.0),
                Message::query(20, name("missing.example."), RecordType::A),
            ),
            (
                SimTime::from_secs_f64(60.0),
                Message::query(21, name("missing.example."), RecordType::A),
            ),
            (
                SimTime::from_secs_f64(400.0),
                Message::query(22, name("missing.example."), RecordType::A),
            ),
        ];
        let mut rig = scheduled_rig(&[Some(good_engine())], sends, |_| {});
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 3);
        for m in got.iter() {
            assert_eq!(m.rcode, Rcode::NxDomain);
        }
        assert_eq!(
            rig.sim.stats(rig.server_ids[0]).udp_rx,
            2,
            "t=60 from negative cache (SOA ttl 300); t=400 re-resolved"
        );
        let log = rig.answers.lock().expect("answer log");
        let classes: Vec<AnswerClass> = log.iter().map(|e| e.class).collect();
        assert_eq!(
            classes,
            vec![AnswerClass::Miss, AnswerClass::Hit, AnswerClass::Miss]
        );
    }

    #[test]
    fn prefetch_refreshes_hot_name_before_expiry() {
        // www.example has TTL 3600; with a 0.5 trigger fraction a hit
        // at t=2000 (remaining 1600 < 1800) must launch a background
        // refresh: 2 upstream queries total, yet both client answers
        // are {Miss, Hit} — the refresh is invisible to clients.
        let sends = vec![
            (
                SimTime::from_secs_f64(0.0),
                Message::query(30, name("www.example."), RecordType::A),
            ),
            (
                SimTime::from_secs_f64(2000.0),
                Message::query(31, name("www.example."), RecordType::A),
            ),
        ];
        let mut rig = scheduled_rig(&[Some(good_engine())], sends, |r| {
            r.set_cache_config(CacheConfig {
                prefetch: Some(PrefetchConfig {
                    trigger_fraction: 0.5,
                    rate_per_sec: 1.0,
                    burst: 2.0,
                }),
                ..CacheConfig::default()
            });
        });
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 2, "clients see only their two answers");
        assert_eq!(
            rig.sim.stats(rig.server_ids[0]).udp_rx,
            2,
            "miss + prefetch"
        );
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!(snap.stats.prefetches, 1);
        let log = rig.answers.lock().expect("answer log");
        let classes: Vec<AnswerClass> = log.iter().map(|e| e.class).collect();
        assert_eq!(classes, vec![AnswerClass::Miss, AnswerClass::Hit]);
    }

    #[test]
    fn bounded_cache_evicts_deterministically() {
        // Capacity 1 LRU: www evicted by w2, so the re-ask of www goes
        // upstream again.
        let sends = vec![
            (
                SimTime::from_secs_f64(0.0),
                Message::query(40, name("www.example."), RecordType::A),
            ),
            (
                SimTime::from_secs_f64(1.0),
                Message::query(41, name("w2.example."), RecordType::A),
            ),
            (
                SimTime::from_secs_f64(2.0),
                Message::query(42, name("www.example."), RecordType::A),
            ),
        ];
        let mut rig = scheduled_rig(&[Some(good_engine())], sends, |r| {
            r.set_cache_config(CacheConfig::bounded(1, PolicyKind::Lru));
        });
        rig.sim.run();
        assert_eq!(rig.sim.stats(rig.server_ids[0]).udp_rx, 3, "all three miss");
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!(snap.stats.evictions, 2);
        assert_eq!(snap.cache_len, 1);
    }
}
