//! The recursive resolver as a [`netsim`] host: accepts stub queries
//! over UDP, walks the (emulated) hierarchy iteratively with cache and
//! retries, and answers the stub — the "Recursive Server" box in the
//! paper's Figure 1/2.
//!
//! Concurrent misses for the same (qname, qtype) coalesce onto one
//! in-flight resolution: its task holds everyone waiting on it, the
//! lead and the joiners with their arrival times, and the single
//! upstream answer fans out to every waiter (*delayed hits*, with
//! per-waiter latency accounting). The cache is [`ldp_cache`]'s:
//! capacity-bounded with pluggable deterministic eviction
//! ([`CacheConfig`]), and negative TTLs derived from the
//! authority-section SOA per RFC 2308.
//!
//! What a response means is the resolution core's to say
//! (`core.rs`, shared with [`crate::IterativeResolver`]); this driver
//! adds what only it has: timers, server rotation, backoff, the tasks
//! and their in-flight index, the packet scratch, telemetry marks and
//! the answer log. A referral without glue parks the task on a child
//! task for the nameserver's address, found through the same index, so
//! concurrent lookups of one nameserver coalesce like stub queries do.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::BTreeMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_wire::edns::DEFAULT_UDP_PAYLOAD;
use dns_wire::{
    Edns, EncodeScratch, Flags, Message, Name, Opcode, Question, Rcode, Record, RecordClass,
    RecordType,
};
use ldp_cache::{AnswerBytes, CacheConfig, CacheStats, CachedAnswer, FillInfo, ResolverCache};
use ldp_rng::{ByHash, KeyHash};
use ldp_telemetry::Kind;
use netsim::{Ctx, Host, PacketBytes, SimDuration, TcpEvent};

use crate::core::{ResolveCore, ResolveError, Step, Walk, MAX_NS_DEPTH};

/// Who is parked on an in-flight resolution.
#[derive(Debug, Clone)]
enum Waiter {
    /// A client: where to send its answer, and what the reply copies
    /// from its query.
    Stub { stub: SocketAddr, head: StubHead },
    /// A task whose referral to `zone` came without glue: the
    /// resolution's A records are that zone's servers.
    Parent { task: u64, zone: Name },
}

/// What a stub reply copies from its query besides the question's name
/// and type: the id, RD, the opcode, the question's class and the DO bit
/// (`None` without EDNS). Taken when the client parks, because the
/// inbound message it arrived in is refilled by the next packet, so a
/// waiter never sees a later query's id or flags; the question is the
/// task's key, so a waiter holds no name and nothing on the heap.
#[derive(Debug, Clone, Copy)]
pub struct StubHead {
    id: u16,
    recursion_desired: bool,
    opcode: Opcode,
    qclass: RecordClass,
    dnssec_ok: Option<bool>,
}

impl StubHead {
    /// The head of `query`.
    pub fn of(query: &Message) -> StubHead {
        StubHead {
            id: query.id,
            recursion_desired: query.flags.recursion_desired,
            opcode: query.opcode,
            qclass: query.question().map_or(RecordClass::IN, |q| q.qclass),
            dnssec_ok: query.edns.as_ref().map(|e| e.dnssec_ok),
        }
    }

    /// [`Message::response_into`] of the query this head was taken
    /// from, with `question` as its one question (none for a query
    /// without one): every field of `resp` is set.
    fn response_into(&self, question: Option<(&Name, RecordType)>, resp: &mut Message) {
        resp.id = self.id;
        resp.flags = Flags {
            response: true,
            recursion_desired: self.recursion_desired,
            ..Flags::default()
        };
        resp.opcode = self.opcode;
        resp.rcode = Rcode::NoError;
        resp.questions.clear();
        resp.questions.reserve_exact(1);
        resp.questions
            .extend(question.map(|(name, qtype)| Question {
                name: name.clone(),
                qtype,
                qclass: self.qclass,
            }));
        resp.answers.clear();
        resp.authorities.clear();
        resp.additionals.clear();
        resp.edns = self.edns();
    }

    /// The EDNS of a reply to the query: this resolver's payload size
    /// and the query's DO bit, when the query has EDNS.
    fn edns(&self) -> Option<Edns> {
        self.dnssec_ok.map(|dnssec_ok| Edns {
            udp_payload: DEFAULT_UDP_PAYLOAD,
            dnssec_ok,
            ..Edns::default()
        })
    }

    /// The reply to a cache hit on `qname` and `qtype`, the hit's own
    /// question: [`StubHead::write_reply`] of the entry.
    pub fn write_hit<'s>(
        &self,
        qname: &Name,
        qtype: RecordType,
        hit: &CachedAnswer,
        scratch: &'s mut EncodeScratch,
    ) -> &'s [u8] {
        let (rcode, answers) = match hit {
            CachedAnswer::Positive(answers) => (Rcode::NoError, Some(answers)),
            CachedAnswer::Negative(rcode) => (*rcode, None),
        };
        self.write_reply(qname, qtype, rcode, answers, scratch)
    }

    /// The reply `ResolveScratch::stub_reply` builds for the query this
    /// head was taken from, about `qname` and `qtype`, with RA, `rcode`
    /// and `answers`, written from their wire form: the header, the
    /// question, the bytes `answers` were compiled to after a question
    /// about `qname` (so their pointers hold as they are) and the OPT
    /// record. No message is built and no compression table is kept.
    pub fn write_reply<'s>(
        &self,
        qname: &Name,
        qtype: RecordType,
        rcode: Rcode,
        answers: Option<&AnswerBytes>,
        scratch: &'s mut EncodeScratch,
    ) -> &'s [u8] {
        let (count, bytes) = answers.map_or((0, &[][..]), |a| (a.count(), a.bytes()));
        let opt = self.edns();
        let w = scratch.writer();
        w.put_u16(self.id);
        let opcode = u16::from(self.opcode.to_u8()) << 11;
        let rd = u16::from(self.recursion_desired) << 8;
        w.put_u16(0x8000 | opcode | rd | 0x0080 | u16::from(rcode.low_bits()));
        for count in [1, count, 0, u16::from(opt.is_some())] {
            w.put_u16(count);
        }
        w.put_name_uncompressed(qname);
        w.put_u16(qtype.to_u16());
        w.put_u16(self.qclass.to_u16());
        w.put_bytes(bytes);
        if let Some(edns) = opt {
            edns.encode_opt(w, rcode.high_bits());
        }
        scratch.written()
    }
}

/// One scratch per receive path (DESIGN §7), the resolver's: the packet
/// being handled and the packet being built, refilled per packet rather
/// than built and dropped. Nothing carries over from one packet to the
/// next but capacity — `decode_into`, `response_into` and `query_into`
/// each overwrite every field of their message — and the tests run
/// generated traffic through one long-lived scratch and through a
/// fresh one per packet, byte for byte.
#[derive(Debug, Default)]
struct ResolveScratch {
    /// The packet being handled: a stub query or an upstream response.
    inbound: Message,
    /// The packet being built: a stub reply or an upstream query.
    outbound: Message,
    encode: EncodeScratch,
    /// Glue addresses of the referral being handled.
    glue: Vec<IpAddr>,
}

impl ResolveScratch {
    /// The generic stub reply: the response to the query `head` was
    /// taken from, about `question` — the query's own, or the key of the
    /// task it parked on — with RA, rcode and the answer section set,
    /// encoded. A query with two questions is answered about its first.
    /// A query without a question is answered from here; every other
    /// reply is written from wire form ([`StubHead::write_reply`]) and
    /// held to this one byte for byte.
    fn stub_reply(
        &mut self,
        head: &StubHead,
        question: Option<(&Name, RecordType)>,
        recursion_available: bool,
        rcode: Rcode,
        answers: &[Record],
    ) -> &[u8] {
        let resp = &mut self.outbound;
        head.response_into(question, resp);
        resp.flags.recursion_available = recursion_available;
        resp.rcode = rcode;
        resp.answers.extend_from_slice(answers);
        resp.encode_into(&mut self.encode)
    }
}

/// One resolution in flight: the core's walk, the attempt in flight and
/// everyone owed its answer.
#[derive(Debug)]
struct Task {
    /// The cache/aggregation key: the clients' original question, a
    /// copy (or, when long, a view) of the walk's own copy of it.
    key_name: Name,
    walk: Walk,
    /// DO bit of the lead query, propagated upstream.
    dnssec_ok: bool,
    /// When the resolution launched (seconds): the lead's arrival.
    started: f64,
    /// Whoever launched it, held inline: a resolution nobody joins
    /// allocates nothing for its waiters.
    lead: Waiter,
    /// Everyone who coalesced onto it since, with their arrival
    /// (seconds), in arrival order.
    joiners: Vec<(f64, Waiter)>,
    /// The server set being asked, shared with the core's delegation
    /// table (or the root hints) it was read from.
    servers: Arc<[IpAddr]>,
    server_idx: usize,
    retries: u32,
    waiting: Waiting,
    /// Timeout for the current attempt (grows under backoff).
    cur_timeout: SimDuration,
}

/// What a task is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// Nothing: it is being advanced right now.
    Nothing,
    /// The reply to the upstream query with this id, or its timer.
    Attempt(u16),
    /// The answer of this task, a nameserver's address: no attempt of
    /// its own is outstanding meanwhile.
    Lookup(u64),
}

/// First-server index for a task over an `n`-long server list: spread
/// by task id when the resolver rotates, else the first listed.
fn start_idx(rotate: bool, task_id: u64, n: usize) -> usize {
    if rotate && n > 0 {
        (task_id as usize) % n
    } else {
        0
    }
}

/// Counters for the resolver host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Resolutions that failed (SERVFAIL to the stub).
    pub failures: u64,
    /// Upstream responses ignored because they carried the id of an
    /// outstanding attempt but not its question.
    pub mismatched_responses: u64,
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

/// Cumulative aggregation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutstandingStats {
    /// Resolutions launched, one per lead: a stub's miss or a
    /// nameserver lookup.
    pub leads: u64,
    /// Requests that coalesced onto an already-in-flight resolution
    /// instead of launching their own (the delayed-hit count).
    pub coalesced: u64,
}

/// A point-in-time copy of the resolver's counters, published through
/// [`SimResolver::set_stats_out`] so experiment drivers can read them
/// after the simulation consumed the host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
    core: ResolveCore,
    cache: ResolverCache,
    tasks: BTreeMap<u64, Task>,
    /// The task resolving each question in flight: one per task.
    index: BTreeMap<(Name, u16), u64>,
    outstanding: OutstandingStats,
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
    /// Every packet is decoded into, and every packet built in, this.
    scratch: ResolveScratch,
    answer_log: Option<Arc<Mutex<Vec<AnswerEvent>>>>,
    stats_out: Option<Arc<Mutex<ResolverSnapshot>>>,
}

/// A task's timeout for its next attempt: one
/// [`ldp_rng::backoff_step`] over `prev` when backoff is on (`cap`),
/// else the fixed `base`. `cap` is taken as set, even below `base`. The
/// draw is a hash of the attempt — the resolver, the question it asks
/// and its retry count — so no other task's retries move it (rule D6).
fn next_timeout(
    base: SimDuration,
    cap: Option<SimDuration>,
    prev: SimDuration,
    attempt: (SocketAddr, &Name, RecordType, u32),
) -> SimDuration {
    let Some(cap) = cap else {
        return base;
    };
    let (base, cap, prev) = (base.as_nanos(), cap.as_nanos(), prev.as_nanos());
    let drawn = ldp_rng::backoff_step(base, cap, prev, ByHash::hash(&attempt));
    SimDuration::from_nanos(drawn)
}

impl SimResolver {
    /// New resolver at `addr` using `root_hints`. The cache starts in
    /// the legacy shape (unbounded LRU); use
    /// [`set_cache_config`](Self::set_cache_config) before traffic to
    /// bound it.
    pub fn new(addr: SocketAddr, root_hints: Vec<IpAddr>) -> Self {
        SimResolver {
            addr,
            core: ResolveCore::new(root_hints),
            cache: ResolverCache::unbounded(),
            tasks: BTreeMap::new(),
            index: BTreeMap::new(),
            outstanding: OutstandingStats::default(),
            upstream_map: BTreeMap::new(),
            next_task: 0,
            next_id: 1,
            timeout: SimDuration::from_secs(2),
            max_retries: 6,
            backoff_cap: None,
            rotate_servers: false,
            stats: ResolverStats::default(),
            scratch: ResolveScratch::default(),
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
                    outstanding: self.outstanding,
                    cache_len: self.cache.len(),
                };
            }
        }
    }

    /// Count and log one answer sent to a stub.
    fn answered(&mut self, at_ns: u64, qid: u16, class: AnswerClass, waited_ns: u64) {
        self.stats.stub_answers += 1;
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

    /// What the resolver holds between packets, as (tasks, questions in
    /// the in-flight index, upstream attempts awaiting a reply): all
    /// three are empty once every resolution has ended.
    pub fn books(&self) -> (usize, usize, usize) {
        (self.tasks.len(), self.index.len(), self.upstream_map.len())
    }

    /// The resolver's service address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The next upstream query id after the last one handed out (0 is
    /// never used) that no attempt in flight holds; `None` when all
    /// 65,535 are held. The counter wraps at 16 bits: reissuing an id
    /// still in flight would let the older attempt's timer take the
    /// newer attempt off the books, and route the older attempt's reply
    /// to the newer task.
    fn fresh_id(&mut self) -> Option<u16> {
        for _ in 0..u16::MAX {
            self.next_id = self.next_id.checked_add(1).unwrap_or(1);
            if !self.upstream_map.contains_key(&self.next_id) {
                return Some(self.next_id);
            }
        }
        None
    }

    /// Launch the resolution of `walk`'s question as task `next_task`:
    /// indexed by its question, with `lead` waiting on it and its first
    /// upstream attempt sent. The walk's name is the one copy of the
    /// question the resolution keeps: the task key, the index key and
    /// the cache key are copies of it when it is short and views of it
    /// when it is long.
    fn start_task(&mut self, ctx: &mut Ctx<'_>, mut walk: Walk, dnssec_ok: bool, lead: Waiter) {
        let task_id = self.next_task;
        self.next_task += 1;
        let key = (walk.qname.clone(), walk.qtype.to_u16());
        self.index.insert(key, task_id);
        self.outstanding.leads += 1;
        let servers = self.core.start(&mut walk);
        let task = Task {
            key_name: walk.qname.clone(),
            walk,
            dnssec_ok,
            started: ctx.now().as_secs_f64(),
            lead,
            joiners: Vec::new(),
            server_idx: start_idx(self.rotate_servers, task_id, servers.len()),
            servers,
            retries: 0,
            waiting: Waiting::Nothing,
            cur_timeout: self.timeout,
        };
        self.tasks.insert(task_id, task);
        self.send_upstream(ctx, task_id);
    }

    /// The task in flight for (`name`, `qtype`).
    fn task_of(&self, name: &Name, qtype: RecordType) -> Option<u64> {
        self.index.get(&(name.clone(), qtype.to_u16())).copied()
    }

    /// Park `waiter`, arrived at `now`, on the resolution of (`name`,
    /// `qtype`) in flight, or hand it back if there is none: then the
    /// caller is the lead and launches one.
    fn join(
        &mut self,
        name: &Name,
        qtype: RecordType,
        waiter: Waiter,
        now: f64,
    ) -> Result<(), Waiter> {
        let task = self
            .task_of(name, qtype)
            .and_then(|id| self.tasks.get_mut(&id));
        let Some(task) = task else {
            return Err(waiter);
        };
        task.joiners.push((now, waiter));
        self.outstanding.coalesced += 1;
        Ok(())
    }

    /// The stub query in `scratch.inbound`, from `from`.
    fn handle_stub_query(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr) {
        self.stats.stub_queries += 1;
        // `next_task` is the id this query gets if it misses the
        // cache, tying the stub mark to the rest of its chain.
        ctx.mark(Kind::RsvStub, self.next_task, 0);
        let query = &self.scratch.inbound;
        let head = StubHead::of(query);
        let Some(q) = query.question() else {
            let reply = self
                .scratch
                .stub_reply(&head, None, false, Rcode::FormErr, &[]);
            ctx.send_udp(self.addr, from, reply);
            return;
        };
        // A view of the inbound message's qname, which the next packet
        // is decoded into: nothing keeps it past this call.
        let (qname, qtype) = (q.name.clone(), q.qtype);
        let dnssec_ok = head.dnssec_ok == Some(true);
        let now = ctx.now().as_secs_f64();
        // Cache hit answers immediately, from the entry where it lies.
        if let Some(hit) = self.cache.lookup(&qname, qtype, now) {
            self.stats.cache_hits += 1;
            ctx.mark(Kind::RsvCacheHit, self.next_task, 0);
            let reply = head.write_hit(&qname, qtype, hit, &mut self.scratch.encode);
            ctx.send_udp(self.addr, from, reply);
            self.answered(ctx.now().as_nanos(), head.id, AnswerClass::Hit, 0);
            self.publish_snapshot();
            return;
        }
        // Miss: coalesce onto an in-flight resolution for the same key,
        // or become the lead and launch one.
        let waiter = Waiter::Stub { stub: from, head };
        match self.join(&qname, qtype, waiter, now) {
            // Delayed hit: the answer fans out on completion.
            Ok(()) => self.stats.delayed_hits += 1,
            Err(lead) => {
                let walk = Walk::new(qname.unshared(), qtype);
                self.start_task(ctx, walk, dnssec_ok, lead);
            }
        }
    }

    fn send_upstream(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let Some(id) = self.fresh_id() else {
            return self.fail(ctx, task_id);
        };
        let Some(task) = self.tasks.get_mut(&task_id) else {
            return;
        };
        let server_slot = task.server_idx % task.servers.len().max(1);
        let Some(&server) = task.servers.get(server_slot) else {
            self.fail(ctx, task_id);
            return;
        };
        let query = &mut self.scratch.outbound;
        query.query_into(id, task.walk.qname.clone(), task.walk.qtype);
        query.flags.recursion_desired = false;
        if task.dnssec_ok {
            query.set_dnssec_ok(true);
        }
        task.waiting = Waiting::Attempt(id);
        let attempt_timeout = task.cur_timeout;
        self.upstream_map.insert(id, task_id);
        self.stats.upstream_queries += 1;
        ctx.mark(Kind::RsvUpstream, task_id, server_slot as u64);
        ctx.send_udp(
            self.addr,
            SocketAddr::new(server, 53),
            query.encode_into(&mut self.scratch.encode),
        );
        // Timer token encodes (task, attempt) so a stale timer from an
        // attempt that already completed is ignored.
        ctx.set_timer(attempt_timeout, (task_id << 16) | id as u64);
    }

    /// A server attempt failed (timeout or error rcode): advance to the
    /// next listed nameserver with a (possibly backed-off) timeout, or
    /// give up with SERVFAIL once the retry budget is spent.
    fn failover(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let Some(task) = self.tasks.get_mut(&task_id) else {
            return;
        };
        task.retries += 1;
        task.server_idx += 1;
        if task.retries as usize > self.max_retries {
            self.fail(ctx, task_id);
            return;
        }
        ctx.mark(Kind::RsvFailover, task_id, u64::from(task.retries));
        let attempt = (self.addr, &task.walk.qname, task.walk.qtype, task.retries);
        task.cur_timeout = next_timeout(self.timeout, self.backoff_cap, task.cur_timeout, attempt);
        self.send_upstream(ctx, task_id);
    }

    /// Answer everyone parked on a resolution that just ended, lead
    /// first. The lead is the miss, charged the full resolution
    /// latency; everyone else coalesced mid-flight and is a
    /// *delayed hit*, charged exactly the residual wait from its own
    /// arrival (counted in `delayed_hits` at join time). A failed
    /// resolution answers them all SERVFAIL. A parked task goes on with
    /// the addresses in `answers`, or fails with the resolution. Each
    /// reply's question is the task's key, and its answer section is
    /// `answers` compiled once after it, as a cache entry holds them:
    /// returned, for the cache.
    fn fan_out(
        &mut self,
        ctx: &mut Ctx<'_>,
        task_id: u64,
        task: &Task,
        rcode: Rcode,
        answers: &[Record],
    ) -> Option<AnswerBytes> {
        let now = ctx.now().as_secs_f64();
        let now_ns = ctx.now().as_nanos();
        let (key, qtype) = (&task.key_name, task.walk.qtype);
        let compiled = (!answers.is_empty())
            .then(|| AnswerBytes::compile(key, answers, &mut self.scratch.encode));
        let lead = (task.started, &task.lead, AnswerClass::Miss);
        let joiners = (task.joiners.iter()).map(|(at, w)| (*at, w, AnswerClass::DelayedHit));
        for (arrived, waiter, class) in std::iter::once(lead).chain(joiners) {
            let (stub, head) = match waiter {
                Waiter::Stub { stub, head } => (*stub, head),
                Waiter::Parent { task: parent, zone } => {
                    let found = self.core.ns_resolved(zone.clone(), answers);
                    self.ask(ctx, *parent, found);
                    continue;
                }
            };
            let waited_ns = (((now - arrived).max(0.0)) * 1e9) as u64;
            let class = if rcode == Rcode::ServFail {
                AnswerClass::ServFail
            } else {
                class
            };
            if class == AnswerClass::DelayedHit {
                ctx.mark(Kind::RsvDelayedHit, task_id, waited_ns);
            }
            let encode = &mut self.scratch.encode;
            let bytes = head.write_reply(key, qtype, rcode, compiled.as_ref(), encode);
            ctx.send_udp(self.addr, stub, bytes);
            self.answered(now_ns, head.id, class, waited_ns);
        }
        compiled
    }

    /// Take a task that is over, its attempt's id and its question off
    /// the books.
    fn retire(&mut self, task_id: u64) -> Option<Task> {
        let task = self.tasks.remove(&task_id)?;
        if let Waiting::Attempt(id) = task.waiting {
            self.upstream_map.remove(&id);
        }
        let key = (task.key_name.clone(), task.walk.qtype.to_u16());
        self.index.remove(&key);
        Some(task)
    }

    /// The resolution failed: SERVFAIL everyone waiting on it.
    fn fail(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let Some(task) = self.retire(task_id) else {
            return;
        };
        self.stats.failures += 1;
        ctx.mark(Kind::RsvServfail, task_id, u64::from(task.retries));
        self.fan_out(ctx, task_id, &task, Rcode::ServFail, &[]);
        self.publish_snapshot();
    }

    /// The resolution completed: fan the answer out to every waiter,
    /// then fill the cache with it — the cache takes the answer section
    /// the replies were written from.
    fn finish(&mut self, ctx: &mut Ctx<'_>, task_id: u64, rcode: Rcode, neg_ttl: Option<u32>) {
        let Some(task) = self.retire(task_id) else {
            return;
        };
        let now = ctx.now().as_secs_f64();
        let fill = FillInfo {
            latency: (now - task.started).max(0.0),
            requests: 1 + task.joiners.len() as u64,
        };
        ctx.mark(Kind::RsvAnswer, task_id, u64::from(rcode.to_u16()));
        let answers = &task.walk.answers;
        let compiled = self.fan_out(ctx, task_id, &task, rcode, answers);
        let (key, qtype) = (&task.key_name, task.walk.qtype);
        let out = match compiled.filter(|_| rcode == Rcode::NoError) {
            Some(answer) => {
                let min_ttl = answers.iter().map(|r| r.ttl).min().unwrap_or(0);
                self.cache
                    .put_answer(key, qtype, answer, min_ttl, now, fill)
            }
            None => self
                .cache
                .put_negative(key, qtype, rcode, neg_ttl, now, fill),
        };
        if out.evicted > 0 {
            self.stats.evictions += out.evicted as u64;
            ctx.mark(Kind::RsvEvict, task_id, out.evicted as u64);
        }
        self.publish_snapshot();
    }

    /// Send `task_id`'s current question to the servers found for it;
    /// SERVFAIL if none were. (A parked task gone before its lookup
    /// ended is nobody's to resume.)
    fn ask(
        &mut self,
        ctx: &mut Ctx<'_>,
        task_id: u64,
        servers: Result<Arc<[IpAddr]>, ResolveError>,
    ) {
        let (Some(task), Ok(servers)) = (self.tasks.get_mut(&task_id), servers) else {
            return self.fail(ctx, task_id);
        };
        task.server_idx = start_idx(self.rotate_servers, task_id, servers.len());
        task.servers = servers;
        self.send_upstream(ctx, task_id);
    }

    /// Whether parking `parent` on task `on` would have it wait on
    /// itself — `on` is `parent`, or parked on it however indirectly —
    /// or chain parked tasks deeper than lookups may nest.
    fn nests_too_deep(&self, mut on: u64, parent: u64) -> bool {
        for _ in 0..MAX_NS_DEPTH {
            if on == parent {
                return true;
            }
            match self.tasks.get(&on).map(|t| t.waiting) {
                Some(Waiting::Lookup(next)) => on = next,
                _ => return false,
            }
        }
        true
    }

    /// `parent`'s referral to `zone` named `ns` without glue: take the
    /// address from the cache, or park the parent on the resolution of
    /// it — the one in flight, or a child task.
    fn resolve_ns(&mut self, ctx: &mut Ctx<'_>, parent: u64, zone: Name, ns: Name) {
        let now = ctx.now().as_secs_f64();
        if let Some(hit) = self.cache.lookup(&ns, RecordType::A, now) {
            let answers = match hit {
                CachedAnswer::Positive(answers) => answers.records(&ns).unwrap_or_default(),
                CachedAnswer::Negative(_) => Vec::new(),
            };
            let found = self.core.ns_resolved(zone, &answers);
            return self.ask(ctx, parent, found);
        }
        let inflight = self.task_of(&ns, RecordType::A);
        if inflight.is_some_and(|on| self.nests_too_deep(on, parent)) {
            return self.fail(ctx, parent);
        }
        let Some(task) = self.tasks.get_mut(&parent) else {
            return;
        };
        // The one in flight, else the id `start_task` hands out next.
        let child = inflight.unwrap_or(self.next_task);
        task.waiting = Waiting::Lookup(child);
        let (walk, dnssec_ok) = (task.walk.for_nameserver(ns.clone()), task.dnssec_ok);
        let waiter = Waiter::Parent { task: parent, zone };
        if let Err(lead) = self.join(&ns, RecordType::A, waiter, now) {
            self.start_task(ctx, walk, dnssec_ok, lead);
        }
    }

    /// The upstream response in `scratch.inbound`: the core says what
    /// it means for the task whose attempt it answers.
    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>) {
        let (resp, glue) = (&mut self.scratch.inbound, &mut self.scratch.glue);
        let Some(&task_id) = self.upstream_map.get(&resp.id) else {
            return; // late or unknown response
        };
        let Some(task) = self.tasks.get_mut(&task_id) else {
            return;
        };
        if task.waiting != Waiting::Attempt(resp.id) {
            return;
        }
        let step = self.core.step(&mut task.walk, resp, glue);
        if !matches!(step, Step::Stray) {
            self.upstream_map.remove(&resp.id);
            task.waiting = Waiting::Nothing;
        }
        match step {
            // Dropped here; the attempt times out.
            Step::Stray => self.stats.mismatched_responses += 1,
            Step::Ask(servers) => self.ask(ctx, task_id, Ok(servers)),
            // Same path as a timeout.
            Step::NextServer => self.failover(ctx, task_id),
            Step::ResolveNs { zone, ns } => self.resolve_ns(ctx, task_id, zone, ns),
            Step::Done { rcode, neg_ttl } => self.finish(ctx, task_id, rcode, neg_ttl),
            Step::Fail(_) => self.fail(ctx, task_id),
        }
    }
}

impl Host for SimResolver {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, _to: SocketAddr, data: PacketBytes) {
        // The last packet built holds a clone of a qname — a hit's reply,
        // the inbound one's: let it go, so the inbound message decodes a
        // long qname into that buffer (a short one is held by value).
        // Nothing else keeps that buffer: a task keeps a copy of its own
        // (`Name::unshared`), a waiter a `StubHead`, and the core rewrites
        // what it keeps as views of the task's copy.
        self.scratch.outbound.questions.clear();
        if self.scratch.inbound.decode_into(&data).is_err() {
            return;
        }
        if self.scratch.inbound.flags.response {
            self.handle_upstream_response(ctx);
        } else {
            self.handle_stub_query(ctx, from);
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
            Some(task) if task.waiting == Waiting::Attempt(attempt_id) => {
                // That exact attempt timed out.
                task.waiting = Waiting::Nothing;
                self.upstream_map.remove(&attempt_id);
                ctx.mark(Kind::RsvTimeout, task_id, u64::from(attempt_id));
            }
            _ => return, // answered, superseded or gone
        }
        self.failover(ctx, task_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::core::testnet::{gen_case, Asked};
    use crate::{IterativeResolver, Upstream};
    use dns_server::engine::ServerEngine;
    use dns_server::sim_server::SimDnsServer;
    use dns_wire::record::Record;
    use dns_wire::{Edns, Opcode, Question, RData, Soa};
    use dns_zone::catalog::Catalog;
    use dns_zone::zone::Zone;
    use ldp_cache::PolicyKind;
    use ldp_rng::check::Gen;
    use netsim::{SimConfig, SimTime, Simulator, Topology};

    /// Every datagram the resolver sent, as (destination, bytes), in
    /// the order the destinations received them.
    type WireLog = Arc<Mutex<Vec<(SocketAddr, Vec<u8>)>>>;

    /// A stub that records every response it receives and can send
    /// pre-scheduled queries when its timers fire (token = index into
    /// `sends`).
    struct CaptureStub {
        addr: SocketAddr,
        resolver: SocketAddr,
        sends: Vec<Message>,
        got: Arc<Mutex<Vec<Message>>>,
        wire: WireLog,
    }

    impl Host for CaptureStub {
        fn on_udp(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _from: SocketAddr,
            to: SocketAddr,
            data: PacketBytes,
        ) {
            self.wire
                .lock()
                .expect("wire log")
                .push((to, data.to_vec()));
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

    /// What the resolver under test holds after its latest event, and
    /// the one thing a test does to it from outside.
    #[derive(Debug, Default, Clone, Copy, PartialEq)]
    struct Books {
        tasks: usize,
        index: usize,
        upstream_map: usize,
        /// Fail any task parked on a nameserver lookup before the next
        /// packet is handled.
        kill_parked: bool,
        /// Wind the upstream id counter to this before the next event.
        next_id: Option<u16>,
    }

    /// The resolver under test, its books published after every event;
    /// with `fresh_scratch`, the other side of the reuse property: a
    /// resolver handed a fresh scratch before every packet and timer.
    struct Probe {
        resolver: SimResolver,
        fresh_scratch: bool,
        books: Arc<Mutex<Books>>,
    }

    impl Probe {
        fn before(&mut self, ctx: &mut Ctx<'_>) {
            if self.fresh_scratch {
                self.resolver.scratch = ResolveScratch::default();
            }
            if let Some(id) = self.books.lock().expect("books").next_id.take() {
                self.resolver.next_id = id;
            }
            let parked =
                |(id, t): (&u64, &Task)| matches!(t.waiting, Waiting::Lookup(_)).then_some(*id);
            if self.books.lock().expect("books").kill_parked {
                if let Some(id) = self.resolver.tasks.iter().find_map(parked) {
                    self.resolver.fail(ctx, id);
                }
            }
        }

        fn after(&mut self) {
            let mut books = self.books.lock().expect("books");
            (books.tasks, books.index, books.upstream_map) = self.resolver.books();
        }
    }

    impl Host for Probe {
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: SocketAddr,
            to: SocketAddr,
            data: PacketBytes,
        ) {
            self.before(ctx);
            self.resolver.on_udp(ctx, from, to, data);
            self.after();
        }
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.before(ctx);
            self.resolver.on_timer(ctx, token);
            self.after();
        }
    }

    /// An upstream address answered by any [`Upstream`]: a closure, or
    /// the generated net of the differential properties.
    struct Answering<U>(U);

    impl<U: Upstream + Send> Host for Answering<U> {
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: SocketAddr,
            to: SocketAddr,
            data: PacketBytes,
        ) {
            let reply = Message::decode(&data)
                .ok()
                .and_then(|query| self.0.exchange(to.ip(), &query));
            if let Some(reply) = reply {
                ctx.send_udp(to, from, reply.encode());
            }
        }
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    }

    /// An upstream address: logs what the resolver sent it, then lets
    /// its server (if it is not a dead address) answer.
    struct Tap {
        server: Option<Box<dyn Host>>,
        wire: WireLog,
    }

    impl Host for Tap {
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: SocketAddr,
            to: SocketAddr,
            data: PacketBytes,
        ) {
            self.wire
                .lock()
                .expect("wire log")
                .push((to, data.to_vec()));
            if let Some(server) = &mut self.server {
                server.on_udp(ctx, from, to, data);
            }
        }
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
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
        wire: WireLog,
        answers: Arc<Mutex<Vec<AnswerEvent>>>,
        snapshot: Arc<Mutex<ResolverSnapshot>>,
        books: Arc<Mutex<Books>>,
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
        let hosts = upstreams.iter().enumerate().map(serve).collect();
        rig_of_hosts(hosts, sends, false, tune)
    }

    /// The host at the `i`th hinted address: a server, or nobody.
    fn serve((i, up): (usize, &Option<Arc<ServerEngine>>)) -> Option<Box<dyn Host>> {
        let engine = up.as_ref()?.clone();
        let server = SimDnsServer::new(engine, SocketAddr::new(upstream_ip(i), 53), None);
        Some(Box::new(server))
    }

    /// The `i`th hinted upstream address.
    fn upstream_ip(i: usize) -> IpAddr {
        format!("10.0.0.{}", i + 1).parse().unwrap()
    }

    /// [`scheduled_rig`] over any upstream hosts, the resolver keeping
    /// its scratch or handed a fresh one per event ([`Probe`]).
    fn rig_of_hosts(
        upstreams: Vec<Option<Box<dyn Host>>>,
        sends: Vec<(SimTime, Message)>,
        fresh_scratch: bool,
        tune: impl FnOnce(&mut SimResolver),
    ) -> Rig {
        let mut sim = Simulator::new(Topology::default(), SimConfig::default());
        let mut hints = Vec::new();
        let mut server_ids = Vec::new();
        let wire = WireLog::default();
        for (i, server) in upstreams.into_iter().enumerate() {
            let ip = upstream_ip(i);
            hints.push(ip);
            let live = server.is_some();
            let wire = Arc::clone(&wire);
            let id = sim.add_host(&[ip], Box::new(Tap { server, wire }));
            if live {
                server_ids.push(id);
            }
        }
        let resolver_addr: SocketAddr = "10.1.0.1:53".parse().unwrap();
        let mut resolver = SimResolver::new(resolver_addr, hints);
        let answers = Arc::new(Mutex::new(Vec::new()));
        let snapshot = Arc::new(Mutex::new(ResolverSnapshot::default()));
        resolver.set_answer_log(Arc::clone(&answers));
        resolver.set_stats_out(Arc::clone(&snapshot));
        tune(&mut resolver);
        let books = Arc::new(Mutex::new(Books::default()));
        let probe = Probe {
            resolver,
            fresh_scratch,
            books: Arc::clone(&books),
        };
        sim.add_host(&[resolver_addr.ip()], Box::new(probe));
        let got = Arc::new(Mutex::new(Vec::new()));
        let stub_addr: SocketAddr = "10.2.0.1:5353".parse().unwrap();
        let stub = CaptureStub {
            addr: stub_addr,
            resolver: resolver_addr,
            sends: sends.iter().map(|(_, m)| m.clone()).collect(),
            got: Arc::clone(&got),
            wire: Arc::clone(&wire),
        };
        let stub_id = sim.add_host(&[stub_addr.ip()], Box::new(stub));
        for (i, (at, _)) in sends.iter().enumerate() {
            sim.schedule_timer(stub_id, *at, i as u64);
        }
        Rig {
            sim,
            got,
            wire,
            answers,
            snapshot,
            books,
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

    /// The gaps between one task's upstream sends (every attempt to a
    /// dead server times out), in a run that asks only `www.example.`
    /// and, with `other`, `w2.example.` half a second later: a second
    /// task failing over between the first one's attempts.
    fn backoff_gaps(other: bool) -> Vec<u64> {
        let ask_at = |secs: f64, id: u16, qname: &str| {
            let at = SimTime::from_secs_f64(secs);
            (at, Message::query(id, name(qname), RecordType::A))
        };
        let mut sends = vec![ask_at(0.0, 70, "www.example.")];
        if other {
            sends.push(ask_at(0.5, 71, "w2.example."));
        }
        let mut rig = scheduled_rig(&[None, None], sends, |r| {
            r.max_retries = 5;
            r.backoff_cap = Some(SimDuration::from_secs(60));
        });
        rig.sim.set_recording(true);
        rig.sim.run();
        let log = rig.sim.drain_recording();
        let sent: Vec<u64> = log
            .events
            .iter()
            .filter(|e| e.kind == Kind::RsvUpstream && e.a == 0)
            .map(|e| e.t_ns)
            .collect();
        sent.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// A retry's timeout is drawn from that attempt alone: the same
    /// with another task failing over in between, and each the draw of
    /// its own retry count over the timeout before it.
    #[test]
    fn a_tasks_backoff_is_drawn_per_attempt() {
        let alone = backoff_gaps(false);
        assert_eq!(
            alone,
            backoff_gaps(true),
            "another task's retries moved these"
        );
        let r = SimResolver::new("10.1.0.1:53".parse().unwrap(), vec![]);
        let (cap, qname) = (Some(SimDuration::from_secs(60)), name("www.example."));
        let mut want = vec![r.timeout];
        for retries in 1..5 {
            let prev = want[want.len() - 1];
            let attempt = (r.addr, &qname, RecordType::A, retries);
            want.push(next_timeout(r.timeout, cap, prev, attempt));
        }
        let want: Vec<u64> = want.iter().map(|t| t.as_nanos()).collect();
        assert_eq!(
            alone, want,
            "the first attempt's timeout, then four retries'"
        );
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
        let r = SimResolver::new("10.1.0.1:53".parse().unwrap(), vec![]);
        let cap = SimDuration::from_secs(8);
        let (base, qname) = (r.timeout, name("www.example."));
        let mut prev = base;
        let mut grew = false;
        for retries in 1..=64 {
            let attempt = (r.addr, &qname, RecordType::A, retries);
            let next = next_timeout(base, Some(cap), prev, attempt);
            assert!(next >= base, "never below the base timeout");
            assert!(next <= cap, "never above the cap");
            if next > prev {
                grew = true;
            }
            prev = next;
        }
        assert!(grew, "decorrelated jitter must actually back off");
    }

    /// The body `next_timeout` had before the step moved to `ldp-rng`,
    /// kept verbatim as its oracle.
    fn parent_next_timeout(
        base: SimDuration,
        cap: Option<SimDuration>,
        prev: SimDuration,
        attempt: (SocketAddr, &Name, RecordType, u32),
    ) -> SimDuration {
        use ldp_rng::SampleUniform;
        let Some(cap) = cap else {
            return base;
        };
        let base = base.as_nanos();
        let hi = prev.as_nanos().saturating_mul(3).max(base + 1);
        let drawn = u64::from_range(base, hi, ByHash::hash(&attempt));
        SimDuration::from_nanos(drawn.min(cap.as_nanos()))
    }

    /// `next_timeout` through the shared step is the parent's formula
    /// over generated bases, caps (below the base too, as the outage
    /// sweep's 100 ms caps under a 2 s timeout are), previous timeouts
    /// below, at and above the base, and attempts.
    #[test]
    fn next_timeout_is_the_parents_step() {
        let qname = name("www.example.");
        ldp_rng::check::check(256, |g| {
            let ns = |g: &mut Gen| match g.range(0..=2) {
                0 => g.range(0..=2),
                1 => g.range(1_000..=10_000_000_000),
                _ => g.range(0..=1 << 62),
            };
            let base = SimDuration::from_nanos(ns(g));
            let cap = g.bool().then(|| SimDuration::from_nanos(ns(g)));
            let prev = SimDuration::from_nanos(match g.range(0..=2) {
                0 => base.as_nanos(),
                _ => ns(g),
            });
            let addr = SocketAddr::from(([10, 1, 0, g.range(0..=255) as u8], 53));
            let attempt = (addr, &qname, RecordType::A, g.range(0..=8) as u32);
            assert_eq!(
                next_timeout(base, cap, prev, attempt),
                parent_next_timeout(base, cap, prev, attempt),
                "base {base:?}, cap {cap:?}, prev {prev:?}, attempt {attempt:?}"
            );
        });
    }

    #[test]
    fn fixed_timeout_without_backoff() {
        let r = SimResolver::new("10.1.0.1:53".parse().unwrap(), vec![]);
        let (base, qname) = (r.timeout, name("www.example."));
        let attempt = (r.addr, &qname, RecordType::A, 1);
        assert_eq!(next_timeout(base, None, base, attempt), base);
        let long = SimDuration::from_secs(30);
        assert_eq!(next_timeout(base, None, long, attempt), base);
    }

    /// A stub query for `qname` and `qtype` with id `id`, sent `us`
    /// microseconds into the run.
    fn sent_at(us: u64, id: u16, qname: &str, qtype: RecordType) -> (SimTime, Message) {
        let at = SimTime::from_micros(us);
        (at, Message::query(id, name(qname), qtype))
    }

    /// Every stub answer as (id, class), and the resolver's (leads,
    /// coalesced) counters.
    fn answered(rig: &Rig) -> (Vec<(u16, AnswerClass)>, (u64, u64)) {
        let log = rig.answers.lock().expect("answer log");
        let counted = rig.snapshot.lock().expect("snapshot").outstanding;
        let answered = log.iter().map(|e| (e.qid, e.class)).collect();
        (answered, (counted.leads, counted.coalesced))
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
        books_are_empty(&rig);
    }

    /// A lead and two joiners arriving 150 µs and then 50 µs after it,
    /// both inside its 500 µs resolution, are answered together: the
    /// lead first, then the joiners in arrival order, each charged from
    /// its own arrival, so the waits step down by exactly those gaps.
    #[test]
    fn lead_then_joiners_fan_out_in_arrival_order() {
        let sends = vec![
            sent_at(0, 20, "www.example.", RecordType::A),
            sent_at(150, 21, "www.example.", RecordType::A),
            sent_at(200, 22, "www.example.", RecordType::A),
        ];
        let mut rig = scheduled_rig(&[Some(good_engine())], sends, |_| {});
        rig.sim.run();
        assert_eq!(rig.sim.stats(rig.server_ids[0]).udp_rx, 1);
        let want = vec![
            (20, AnswerClass::Miss),
            (21, AnswerClass::DelayedHit),
            (22, AnswerClass::DelayedHit),
        ];
        assert_eq!(answered(&rig), (want, (1, 2)));
        let log = rig.answers.lock().expect("answer log");
        let waits: Vec<u64> = log.iter().map(|e| e.waited_ns).collect();
        for (pair, gap) in waits.windows(2).zip([150_000, 50_000]) {
            let later = pair[0] - pair[1];
            assert!(
                later.abs_diff(gap) <= 2,
                "arrived {later} ns apart, not {gap}"
            );
        }
        books_are_empty(&rig);
    }

    /// Misses for one cold name, each 40 µs after the one before, all
    /// inside the first one's 500 µs resolution, coalesce onto it: one
    /// upstream query, and everyone answered lead first, then in arrival
    /// order — the lead a miss charged the whole resolution, each joiner
    /// a delayed hit charged from its own arrival — whether nobody, one
    /// or many joined.
    #[test]
    fn waiters_are_lead_first_then_arrival_order() {
        for joiners in [0, 1, 2, 7] {
            let ids: Vec<u16> = (10..=10 + joiners).collect();
            let sends = (ids.iter().enumerate())
                .map(|(i, &id)| sent_at(40 * i as u64, id, "www.example.", RecordType::A))
                .collect();
            let mut rig = scheduled_rig(&[Some(good_engine())], sends, |_| {});
            rig.sim.run();
            let got = rig.got.lock().expect("capture lock");
            assert_eq!(got.len(), ids.len(), "every stub query answered");
            for m in got.iter() {
                assert_eq!(m.rcode, Rcode::NoError);
                assert!(!m.answers.is_empty());
            }
            assert_eq!(
                rig.sim.stats(rig.server_ids[0]).udp_rx,
                1,
                "dedup invariant: one upstream query for N concurrent misses"
            );
            let mut want = vec![(10, AnswerClass::Miss)];
            want.extend(ids[1..].iter().map(|&id| (id, AnswerClass::DelayedHit)));
            let joined = u64::from(joiners);
            assert_eq!(answered(&rig), (want, (1, joined)), "{joiners} joiners");
            let log = rig.answers.lock().expect("answer log");
            for pair in log.windows(2) {
                let later = pair[0].waited_ns - pair[1].waited_ns;
                assert!(later.abs_diff(40_000) <= 2, "arrived {later} ns apart");
            }
            let snap = rig.snapshot.lock().expect("snapshot");
            assert_eq!(snap.stats.delayed_hits, joined);
            books_are_empty(&rig);
        }
    }

    /// One name asked for two types at once is two resolutions.
    #[test]
    fn questions_of_another_type_do_not_coalesce() {
        let sends = vec![
            sent_at(0, 10, "www.example.", RecordType::A),
            sent_at(0, 11, "www.example.", RecordType::AAAA),
        ];
        let mut rig = scheduled_rig(&[Some(good_engine())], sends, |_| {});
        rig.sim.run();
        assert_eq!(rig.sim.stats(rig.server_ids[0]).udp_rx, 2);
        let want = vec![(10, AnswerClass::Miss), (11, AnswerClass::Miss)];
        assert_eq!(answered(&rig), (want, (2, 0)));
        books_are_empty(&rig);
    }

    /// An entry's request count starts at everyone its fill answered:
    /// under LFU-lite with room for two, the name three misses coalesced
    /// on outranks a later name asked once, so a third name evicts the
    /// later one and the first is still a hit.
    #[test]
    fn coalesced_misses_count_toward_an_entrys_rank() {
        let sends = vec![
            sent_at(0, 40, "www.example.", RecordType::A),
            sent_at(40, 41, "www.example.", RecordType::A),
            sent_at(80, 42, "www.example.", RecordType::A),
            sent_at(10_000, 43, "w2.example.", RecordType::A),
            sent_at(20_000, 44, "missing.example.", RecordType::A),
            sent_at(30_000, 45, "www.example.", RecordType::A),
        ];
        let mut rig = scheduled_rig(&[Some(good_engine())], sends, |r| {
            r.set_cache_config(CacheConfig::bounded(2, PolicyKind::LfuLite));
        });
        rig.sim.run();
        let last = answered(&rig).0.pop();
        assert_eq!(
            last,
            Some((45, AnswerClass::Hit)),
            "the coalesced name went"
        );
        assert_eq!(rig.sim.stats(rig.server_ids[0]).udp_rx, 3);
        assert_eq!(rig.snapshot.lock().expect("snapshot").stats.evictions, 1);
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

    /// An upstream that answers every query at once, with the query's
    /// id, about another name.
    struct Forger {
        addr: SocketAddr,
        forged: Name,
    }

    impl Host for Forger {
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: SocketAddr,
            _to: SocketAddr,
            data: PacketBytes,
        ) {
            let Ok(query) = Message::decode(&data) else {
                return;
            };
            let mut resp = query.response_to();
            resp.flags.authoritative = true;
            resp.questions[0].name = self.forged.clone();
            let addr = RData::A("203.0.113.66".parse().unwrap());
            resp.answers
                .push(Record::new(self.forged.clone(), 3600, addr));
            ctx.send_udp(self.addr, from, resp.encode());
        }
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    }

    #[test]
    fn a_response_to_another_question_is_not_this_attempts_answer() {
        // The only upstream forges: right id, wrong qname. Nothing of
        // it may reach the stub or the cache — each attempt times out
        // as if unanswered — so a later query for the forged name
        // itself is a miss, which this upstream then answers in
        // earnest.
        let ask_at = |secs: f64, id: u16, qname: &str| {
            let at = SimTime::from_secs_f64(secs);
            (at, Message::query(id, name(qname), RecordType::A))
        };
        let sends = vec![
            ask_at(0.0, 50, "www.example."),
            ask_at(30.0, 51, "evil.example."),
        ];
        let forger = Forger {
            addr: SocketAddr::new(upstream_ip(0), 53),
            forged: name("evil.example."),
        };
        let hosts: Vec<Option<Box<dyn Host>>> = vec![Some(Box::new(forger))];
        let mut rig = rig_of_hosts(hosts, sends, false, |r| r.max_retries = 2);
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].rcode, Rcode::ServFail);
        assert!(got[0].answers.is_empty(), "forged record reached the stub");
        assert_eq!(got[1].rcode, Rcode::NoError);
        let log = rig.answers.lock().expect("answer log");
        let classes: Vec<AnswerClass> = log.iter().map(|e| e.class).collect();
        assert_eq!(classes, vec![AnswerClass::ServFail, AnswerClass::Miss]);
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!(
            snap.stats.upstream_queries,
            3 + 1,
            "three attempts, then one"
        );
        assert_eq!(snap.stats.mismatched_responses, 3);
        assert_eq!(
            snap.cache.inserts, 1,
            "only the answer to the question asked"
        );
    }

    /// The stub-facing mix: names that hit, miss, coalesce, chase a
    /// CNAME across a zone cut, do not exist, exist without the type,
    /// or hang off a glue-less delegation; with and without RD, EDNS and
    /// DO; and now and then no question, two questions, a class that is
    /// not IN, or an opcode that is not a query.
    fn gen_stub_query(g: &mut Gen) -> Message {
        let qname = *g.pick(&[
            "www.example.",
            "www.example.",
            "short.example.",
            "alias.example.",
            "www.sub.example.",
            "missing.example.",
            "x.gl.example.",
        ]);
        let qtype = *g.pick(&[RecordType::A, RecordType::A, RecordType::AAAA]);
        let mut q = Message::query(g.u16(), name(qname), qtype);
        q.flags.recursion_desired = g.bool();
        q.edns = match g.below(4) {
            0 | 1 => None,
            2 => Some(Edns::default()),
            _ => Some(Edns::with_do()),
        };
        match g.below(12) {
            0 => q.questions.clear(),
            1 => q
                .questions
                .push(Question::new(name("w2.example."), RecordType::A)),
            2 => q.opcode = Opcode::Notify,
            3 => q.questions[0].qclass = RecordClass::CH,
            _ => {}
        }
        q
    }

    /// What a reply copies from its query — id, opcode, RD, the first
    /// question, EDNS and its DO bit — as `response_to` copies it.
    fn assert_replies_to(reply: &Message, query: &Message) {
        let mut head = reply.clone();
        head.rcode = Rcode::NoError;
        head.flags.recursion_available = false;
        head.answers.clear();
        let mut want = query.response_to();
        want.questions.truncate(1);
        assert_eq!(head, want, "{reply}");
    }

    /// `example.` on one server — a short-lived name, a CNAME into the
    /// delegated `sub.example.`, a glue-less delegation — and
    /// `sub.example.` on another, at the glue address `sub_ip`.
    fn hierarchy(sub_ip: std::net::Ipv4Addr) -> [Arc<ServerEngine>; 2] {
        let a = |owner: &str, ttl: u32, ip: &str| {
            Record::new(name(owner), ttl, RData::A(ip.parse().unwrap()))
        };
        let (engine, ns) = (|apex, records| engine_of(vec![(apex, records)]), ns_rec);
        let parent = engine(
            "example.",
            vec![
                a("www.example.", 3600, "192.0.2.1"),
                a("short.example.", 5, "192.0.2.5"),
                Record::new(
                    name("alias.example."),
                    60,
                    RData::Cname(name("www.sub.example.")),
                ),
                ns("sub.example.", "ns.sub.example."),
                Record::new(name("ns.sub.example."), 3600, RData::A(sub_ip)),
                ns("gl.example.", "ns.elsewhere."),
            ],
        );
        let child = engine(
            "sub.example.",
            vec![
                ns("sub.example.", "ns.sub.example."),
                Record::new(name("ns.sub.example."), 3600, RData::A(sub_ip)),
                a("www.sub.example.", 30, "192.0.2.9"),
            ],
        );
        [parent, child]
    }

    /// The reuse property: generated stub traffic — hits, lead misses,
    /// coalesced waiters, negative answers, a CNAME chased across a
    /// referral, SERVFAIL fan-out, FORMERR — over dead, lame and good
    /// upstreams, through a resolver that keeps its scratch and through
    /// one handed a fresh scratch before every packet and timer: every
    /// datagram the resolver sends (stub replies and upstream queries)
    /// equal byte for byte, and the counters equal. Every reply, a
    /// parked client's with the rest, starts as its query's response
    /// would: its id, RD, opcode, question (class included) and DO bit.
    #[test]
    fn one_long_lived_resolver_scratch_answers_like_a_fresh_one() {
        ldp_rng::check::check(96, |g| {
            // Hints: maybe a dead and a lame address, then the parent
            // zone's server and the delegated zone's.
            let mut upstreams = Vec::new();
            if g.below(3) == 0 {
                upstreams.push(None);
            }
            if g.below(3) == 0 {
                upstreams.push(Some(lame_engine()));
            }
            let sub_ip = std::net::Ipv4Addr::new(10, 0, 0, upstreams.len() as u8 + 2);
            upstreams.extend(hierarchy(sub_ip).map(Some));
            let mut at = 0.0;
            let mut sends: Vec<(SimTime, Message)> = g.vec(1..=24, |g| {
                at += *g.pick(&[0.0, 0.0, 0.000_1, 0.3, 4.0, 70.0]);
                (SimTime::from_secs_f64(at), gen_stub_query(g))
            });
            // Ids that name the query a reply answers.
            for (id, (_, query)) in sends.iter_mut().enumerate() {
                query.id = id as u16;
            }
            let max_retries = g.size(0..=3);
            let rotate_servers = g.bool();
            let backoff = g.bool();
            let cache = CacheConfig::bounded(*g.pick(&[2, usize::MAX]), PolicyKind::Lru);
            let run = |fresh_scratch: bool| {
                let hosts = upstreams.iter().enumerate().map(serve).collect();
                let mut rig = rig_of_hosts(hosts, sends.clone(), fresh_scratch, |r| {
                    r.max_retries = max_retries;
                    r.rotate_servers = rotate_servers;
                    r.backoff_cap = backoff.then(|| SimDuration::from_secs(5));
                    r.set_cache_config(cache);
                });
                rig.sim.run();
                for reply in rig.got.lock().expect("capture lock").iter() {
                    assert_replies_to(reply, &sends[usize::from(reply.id)].1);
                }
                let wire = std::mem::take(&mut *rig.wire.lock().expect("wire log"));
                let snapshot = *rig.snapshot.lock().expect("snapshot");
                (wire, snapshot)
            };
            let (wire, snapshot) = run(false);
            let (want_wire, want_snapshot) = run(true);
            assert_eq!(wire.len(), want_wire.len());
            for (got, want) in wire.iter().zip(&want_wire) {
                assert_eq!(got, want, "{:?}", Message::decode(&want.1));
            }
            assert_eq!(snapshot, want_snapshot);
        });
    }

    /// A waiter keeps its query's `StubHead`, and the fan-out restarts
    /// the outbound message from that and the task's question: over
    /// whatever the outbound message held, the result is the response
    /// the query itself starts, about its first question.
    #[test]
    fn a_parked_reply_restarts_the_response_its_query_would() {
        ldp_rng::check::check(256, |g| {
            let query = gen_stub_query(g);
            let mut got = gen_stub_query(g);
            got.rcode = *g.pick(&[Rcode::NoError, Rcode::ServFail, Rcode::NxDomain]);
            got.answers = g.vec(0..=2, |_| soa_rec("example.", 60));
            let question = query.question().map(|q| (&q.name, q.qtype));
            StubHead::of(&query).response_into(question, &mut got);
            assert_replies_to(&got, &query);
            assert_eq!(got.rcode, Rcode::NoError);
            assert!(got.answers.is_empty());
        });
    }

    fn engine_of(zones: Vec<(&str, Vec<Record>)>) -> Arc<ServerEngine> {
        let mut catalog = Catalog::new();
        for (apex, records) in zones {
            let mut zone = Zone::new(name(apex));
            zone.insert(soa_rec(apex, 300)).unwrap();
            for record in records {
                zone.insert(record).unwrap();
            }
            catalog.insert(zone);
        }
        Arc::new(ServerEngine::with_catalog(catalog))
    }

    fn a_rec(owner: &str, ip: IpAddr) -> Record {
        let IpAddr::V4(ip) = ip else {
            panic!("{ip}");
        };
        Record::new(name(owner), 3600, RData::A(ip))
    }

    fn ns_rec(owner: &str, target: &str) -> Record {
        Record::new(name(owner), 3600, RData::Ns(name(target)))
    }

    /// At the first hint, `example.` — which delegates `gl.example.` to
    /// `ns.elsewhere.` without glue — and, when `resolvable`,
    /// `elsewhere.` with that host's address: the second hint, where
    /// `gl.example.` is served.
    fn glueless_upstreams(resolvable: bool) -> Vec<Option<Arc<ServerEngine>>> {
        let mut zones = vec![("example.", vec![ns_rec("gl.example.", "ns.elsewhere.")])];
        if resolvable {
            zones.push(("elsewhere.", vec![a_rec("ns.elsewhere.", upstream_ip(1))]));
        }
        let child = vec![
            ns_rec("gl.example.", "ns.elsewhere."),
            a_rec("x.gl.example.", "192.0.2.7".parse().unwrap()),
            a_rec("y.gl.example.", "192.0.2.8".parse().unwrap()),
        ];
        vec![
            Some(engine_of(zones)),
            Some(engine_of(vec![("gl.example.", child)])),
        ]
    }

    /// The upstream queries on the wire, as (server, qname).
    fn upstream_questions(rig: &Rig) -> Vec<(IpAddr, Name)> {
        let wire = rig.wire.lock().expect("wire log");
        let asked = wire
            .iter()
            .filter(|(to, _)| to.port() == 53)
            .map(|(to, bytes)| {
                let query = Message::decode(bytes).unwrap();
                (to.ip(), query.questions[0].name.clone())
            });
        asked.collect()
    }

    fn books_are_empty(rig: &Rig) {
        let books = *rig.books.lock().expect("books");
        let empty = Books {
            kill_parked: books.kill_parked,
            ..Books::default()
        };
        assert_eq!(books, empty, "a task, attempt or in-flight key left behind");
    }

    #[test]
    fn a_glueless_delegation_resolves_through_a_child_task() {
        let mut rig = rig(&glueless_upstreams(true), |_| {});
        ask(&mut rig, 60, "x.gl.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rcode, Rcode::NoError);
        assert_eq!(
            got[0].answers[0].rdata,
            RData::A("192.0.2.7".parse().unwrap())
        );
        let parent_then_ns_then_child = vec![
            (upstream_ip(0), name("x.gl.example.")),
            (upstream_ip(0), name("ns.elsewhere.")),
            (upstream_ip(1), name("x.gl.example.")),
        ];
        assert_eq!(upstream_questions(&rig), parent_then_ns_then_child);
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!(
            snap.cache.inserts, 2,
            "the nameserver's address, the answer"
        );
        assert_eq!(snap.stats.failures, 0);
        books_are_empty(&rig);
    }

    #[test]
    fn parents_needing_one_nameserver_share_one_lookup() {
        let mut rig = rig(&glueless_upstreams(true), |_| {});
        ask(&mut rig, 61, "x.gl.example.");
        ask(&mut rig, 62, "y.gl.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 2);
        for m in got.iter() {
            assert_eq!(m.rcode, Rcode::NoError);
            assert_eq!(m.answers.len(), 1);
        }
        let asked = upstream_questions(&rig);
        let for_ns = asked.iter().filter(|(_, q)| *q == name("ns.elsewhere."));
        assert_eq!(for_ns.count(), 1, "{asked:?}");
        assert_eq!(asked.len(), 5);
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!(snap.outstanding.coalesced, 1, "the second parent joined");
        assert_eq!(snap.stats.delayed_hits, 0, "no stub did");
        books_are_empty(&rig);
    }

    #[test]
    fn a_failed_nameserver_lookup_servfails_everyone_parked_on_it() {
        // Nobody serves `elsewhere.`: both hints refuse the lookup.
        let mut rig = rig(&glueless_upstreams(false), |r| r.max_retries = 2);
        ask(&mut rig, 63, "x.gl.example.");
        ask(&mut rig, 64, "y.gl.example.");
        ask(&mut rig, 65, "x.gl.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        let mut ids: Vec<u16> = got.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [63, 64, 65]);
        for m in got.iter() {
            assert_eq!(m.rcode, Rcode::ServFail);
        }
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!(snap.stats.failures, 3, "the lookup and both parents");
        assert_eq!(snap.cache.inserts, 0);
        books_are_empty(&rig);
    }

    #[test]
    fn a_parent_gone_before_its_lookup_returns_leaves_nothing_behind() {
        let mut rig = rig(&glueless_upstreams(true), |_| {});
        rig.books.lock().expect("books").kill_parked = true;
        ask(&mut rig, 66, "x.gl.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rcode, Rcode::ServFail, "the killed parent's stub");
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!(
            snap.stats.upstream_queries, 2,
            "nobody asked the child zone"
        );
        assert_eq!(
            snap.cache.inserts, 1,
            "the lookup still ended, in the cache"
        );
        books_are_empty(&rig);
    }

    #[test]
    fn a_referral_loop_ends_in_servfail() {
        // The only upstream refers every query to itself: as the root, to
        // `loop.example`; then, as `loop.example`, to `loop.example` — a
        // lame answer each time, until the retries are spent.
        let refer_to_self = |_server: IpAddr, query: &Message| {
            let mut resp = query.response_to();
            let ns = ns_rec("loop.example.", "ns.loop.example.");
            resp.authorities.push(ns);
            resp.additionals
                .push(a_rec("ns.loop.example.", upstream_ip(0)));
            Some(resp)
        };
        // One that refers each query a label further down the question,
        // to itself, never repeats a zone: the referral bound ends it.
        let mut asked = 0;
        let refer_deeper = move |_server: IpAddr, query: &Message| {
            asked += 1;
            let mut resp = query.response_to();
            let zone = resp.question()?.name.ancestor(asked)?;
            let ns = zone.child(b"ns").ok()?;
            resp.authorities
                .push(Record::new(zone, 3600, RData::Ns(ns.clone())));
            resp.additionals.push(Record::new(
                ns,
                3600,
                RData::A(std::net::Ipv4Addr::new(10, 0, 0, 1)),
            ));
            Some(resp)
        };
        let deep: String = (0..40).map(|i| format!("l{i}.")).collect();
        let max_retries = SimResolver::new("10.1.0.1:53".parse().unwrap(), vec![]).max_retries;
        let upstream: [(Box<dyn Host>, &str, usize, &str); 2] = [
            (
                Box::new(Answering(refer_to_self)),
                "x.loop.example.",
                2 + max_retries,
                "the hint, then the zone's server and its retries",
            ),
            (
                Box::new(Answering(refer_deeper)),
                &deep,
                33,
                "the hint, then 32 referrals",
            ),
        ];
        for (server, qname, want, why) in upstream {
            let mut rig = rig_of_hosts(vec![Some(server)], Vec::new(), false, |_| {});
            ask(&mut rig, 67, qname);
            // Not `run()`: a walk that never ends must fail this, not hang it.
            rig.sim.run_until(SimTime::from_secs_f64(10.0));
            let got = rig.got.lock().expect("capture lock");
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].rcode, Rcode::ServFail);
            let snap = rig.snapshot.lock().expect("snapshot");
            assert_eq!(snap.stats.upstream_queries, want as u64, "{why}");
            books_are_empty(&rig);
        }
    }

    #[test]
    fn only_an_ns_targets_address_is_glue() {
        // The parent's referral to `sub.example.` carries, ahead of the
        // glue, an address for a name that is nobody's nameserver: the
        // third address, where nothing may arrive.
        let [parent, child] = hierarchy("10.0.0.2".parse().unwrap());
        let stray_first = move |_server: IpAddr, query: &Message| {
            let mut resp = parent.answer(query_src(), query);
            if !resp.flags.authoritative && !resp.additionals.is_empty() {
                let stray = a_rec("evil.invalid.", upstream_ip(2));
                resp.additionals.insert(0, stray);
            }
            Some(resp)
        };
        let hosts: Vec<Option<Box<dyn Host>>> = vec![
            Some(Box::new(Answering(stray_first))),
            serve((1, &Some(child))),
            None,
        ];
        let mut rig = rig_of_hosts(hosts, Vec::new(), false, |_| {});
        ask(&mut rig, 68, "www.sub.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rcode, Rcode::NoError);
        let parent_then_child = vec![
            (upstream_ip(0), name("www.sub.example.")),
            (upstream_ip(1), name("www.sub.example.")),
        ];
        assert_eq!(upstream_questions(&rig), parent_then_child);
    }

    fn query_src() -> IpAddr {
        "10.1.0.1".parse().unwrap()
    }

    /// An id that comes round again while an attempt still holds it is
    /// skipped. Here the counter is wound back under a stalled attempt
    /// (id 2, to an upstream that never answers `slow.example.`), so the
    /// next attempt would get id 2 again, just before the stalled one
    /// times out: that timer would take the newer attempt off the books,
    /// and the answer to it would be dropped as unknown.
    #[test]
    fn an_id_still_in_flight_is_not_handed_out_again() {
        let engine = good_engine();
        let stall_slow = move |_server: IpAddr, query: &Message| {
            let stalled = query.question()?.name == name("slow.example.");
            (!stalled).then(|| engine.answer(query_src(), query))
        };
        let ask_at = |secs: f64, id: u16, qname: &str| {
            let at = SimTime::from_secs_f64(secs);
            (at, Message::query(id, name(qname), RecordType::A))
        };
        // The stalled attempt times out 2 s after it is sent; the second
        // is sent 0.1 ms before that and answered 0.5 ms after it.
        let sends = vec![
            ask_at(0.0, 70, "slow.example."),
            ask_at(1.9999, 71, "www.example."),
        ];
        let hosts: Vec<Option<Box<dyn Host>>> = vec![Some(Box::new(Answering(stall_slow)))];
        let mut rig = rig_of_hosts(hosts, sends, false, |r| r.max_retries = 0);
        rig.sim.run_until(SimTime::from_secs_f64(1.0));
        rig.books.lock().expect("books").next_id = Some(1);
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        let replies: Vec<(u16, Rcode)> = got.iter().map(|m| (m.id, m.rcode)).collect();
        assert_eq!(replies, [(70, Rcode::ServFail), (71, Rcode::NoError)]);
        books_are_empty(&rig);
    }

    /// With every id held by an attempt in flight there is none to send
    /// with: the task fails at once, and nothing goes upstream.
    #[test]
    fn a_task_finding_every_id_in_flight_servfails() {
        let mut rig = rig(&[Some(good_engine())], |r| {
            r.upstream_map = (1..=u16::MAX).map(|id| (id, u64::MAX)).collect();
        });
        ask(&mut rig, 72, "www.example.");
        rig.sim.run();
        let got = rig.got.lock().expect("capture lock");
        let replies: Vec<(u16, Rcode)> = got.iter().map(|m| (m.id, m.rcode)).collect();
        assert_eq!(replies, [(72, Rcode::ServFail)]);
        let snap = rig.snapshot.lock().expect("snapshot");
        assert_eq!((snap.stats.upstream_queries, snap.stats.failures), (0, 1));
        assert_eq!(
            rig.books.lock().expect("books").upstream_map,
            usize::from(u16::MAX)
        );
    }

    /// A stub's reply with the upstream questions it took.
    type Answered = (Message, Vec<Asked>);

    /// A stub that puts its questions one at a time, the next when the
    /// last is answered, and keeps each reply with the upstream
    /// questions the net logged for it.
    struct AskInTurn {
        addr: SocketAddr,
        resolver: SocketAddr,
        questions: Vec<(Name, RecordType)>,
        asked: Arc<Mutex<Vec<Asked>>>,
        got: Arc<Mutex<Vec<Answered>>>,
    }

    impl AskInTurn {
        fn put(&self, ctx: &mut Ctx<'_>, i: usize) {
            if let Some((qname, qtype)) = self.questions.get(i) {
                let query = Message::query(i as u16 + 1, qname.clone(), *qtype);
                ctx.send_udp(self.addr, self.resolver, query.encode());
            }
        }
    }

    impl Host for AskInTurn {
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: SocketAddr,
            _to: SocketAddr,
            data: PacketBytes,
        ) {
            let reply = Message::decode(&data).unwrap();
            let asked = std::mem::take(&mut *self.asked.lock().expect("asked"));
            let mut got = self.got.lock().expect("got");
            got.push((reply, asked));
            self.put(ctx, got.len());
        }
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.put(ctx, 0);
        }
    }

    /// Property (1), driver ≡ driver: over generated hierarchies, each
    /// with its questions put in turn to resolvers that stay warm, the
    /// blocking loop and this host on a loss-free simulator (retries
    /// enough to visit every server) reach the same rcode and answer
    /// records through the same upstream questions. A resolution that
    /// fails fails in both — SERVFAIL here, an error there — after the
    /// same questions for as long as both ask: this host then keeps
    /// cycling a server set until its retries are spent where the loop
    /// stops after one pass, and it sees that a nameserver lookup waits
    /// on itself where the loop recurses to its depth bound.
    #[test]
    fn both_drivers_walk_alike() {
        ldp_rng::check::check(256, |g| {
            let mut case = gen_case(g, false);
            let mut blocking = IterativeResolver::new(case.net.hints.clone());
            let want: Vec<_> = (case.questions.iter())
                .map(|(qname, qtype)| {
                    let res = blocking.resolve(&mut case.net, qname, *qtype, 0.0);
                    (res, std::mem::take(&mut case.net.asked))
                })
                .collect();

            // One host at every upstream address; it logs into `asked`.
            case.net.cap = usize::MAX;
            let (hints, legit, addrs) = (
                case.net.hints.clone(),
                case.net.legit.clone(),
                case.net.addrs(),
            );
            let asked = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&asked);
            let mut net = case.net;
            let logging = move |server: IpAddr, query: &Message| {
                let reply = net.exchange(server, query);
                log.lock().expect("asked").append(&mut net.asked);
                reply
            };
            let mut sim = Simulator::new(Topology::default(), SimConfig::default());
            sim.add_host(&addrs, Box::new(Answering(logging)));
            let resolver_addr: SocketAddr = "10.1.0.1:53".parse().unwrap();
            let mut resolver = SimResolver::new(resolver_addr, hints);
            resolver.timeout = SimDuration::from_millis(5);
            resolver.max_retries = 200;
            sim.add_host(&[resolver_addr.ip()], Box::new(resolver));
            let got = Arc::new(Mutex::new(Vec::new()));
            let stub = AskInTurn {
                addr: "10.2.0.1:5353".parse().unwrap(),
                resolver: resolver_addr,
                questions: case.questions.clone(),
                asked,
                got: Arc::clone(&got),
            };
            let stub = sim.add_host(&["10.2.0.1".parse().unwrap()], Box::new(stub));
            sim.schedule_timer(stub, SimTime::ZERO, 0);
            sim.run_until(SimTime::from_secs_f64(600.0));

            let got = got.lock().expect("got");
            assert_eq!(got.len(), want.len(), "a question never answered");
            for ((reply, asked), (res, want_asked)) in got.iter().zip(&want) {
                for (server, ..) in asked {
                    assert!(legit.contains(server), "asked {server}");
                }
                match res {
                    Ok(res) => {
                        assert_eq!((reply.rcode, &reply.answers), (res.rcode, &res.answers));
                        assert_eq!(asked, want_asked);
                    }
                    Err(why) => {
                        assert_eq!(reply.rcode, Rcode::ServFail, "{why}");
                        let both = asked.len().min(want_asked.len());
                        assert_eq!(asked[..both], want_asked[..both], "{why}");
                    }
                }
            }
        });
    }

    /// The branches the hit-bytes property must each reach.
    const HIT_BRANCHES: [&str; 13] = [
        "one record",
        "several records",
        "a CNAME chain",
        "an owner not the key",
        "a qname longer than 29 canonical bytes",
        "NXDOMAIN",
        "NODATA",
        "DO on",
        "DO off",
        "no EDNS",
        "a class other than IN",
        "two questions",
        "a mixed-case qname",
    ];

    /// An entry's records for `key`: an address, several, a CNAME chain
    /// to an address (its owners the key, then each target), or records
    /// whose owner is not the key; each kind named in `seen`.
    fn gen_entry_records(g: &mut Gen, key: &Name, seen: &mut Vec<&'static str>) -> Vec<Record> {
        let addr = |g: &mut Gen, owner: &Name| {
            let rdata = match g.below(3) {
                0 => RData::Aaaa(
                    [0x20, 1, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, g.u8()].into(),
                ),
                _ => RData::A([192, 0, 2, g.u8()].into()),
            };
            Record::new(owner.clone(), g.range(1..=7200) as u32, rdata)
        };
        let records = match g.below(4) {
            0 => vec![addr(g, key)],
            1 => (0..g.size(2..=4)).map(|_| addr(g, key)).collect(),
            2 => {
                seen.push("a CNAME chain");
                let targets = ["cdn.example.net.", "edge.cdn.example.net.", "www.example."];
                let hops = g.size(1..=3);
                let mut owner = key.clone();
                let mut chain = Vec::new();
                for target in &targets[..hops] {
                    let target = name(target);
                    chain.push(Record::new(owner, 300, RData::Cname(target.clone())));
                    owner = target;
                }
                chain.push(addr(g, &owner));
                chain
            }
            _ => {
                seen.push("an owner not the key");
                let owners = ["elsewhere.example.", "example.", "cdn.example.net."];
                let n = g.size(1..=4);
                (0..n)
                    .map(|_| {
                        let owner = name(g.pick::<&str>(&owners));
                        addr(g, &owner)
                    })
                    .collect()
            }
        };
        seen.push(if records.len() == 1 {
            "one record"
        } else {
            "several records"
        });
        records
    }

    /// Every reply written from an entry's wire form — a cache hit, or
    /// a resolution's fan-out — is byte for byte the generic
    /// `stub_reply` for the same head, question and records, over
    /// generated queries and entries: 1–4 records, CNAME chains, owners
    /// other than the key, qnames either side of the 29 canonical bytes
    /// a name holds by value (the long ones shared views), NXDOMAIN and
    /// NODATA entries, NXDOMAIN after a CNAME (a fan-out only), DO on,
    /// off and absent, classes other than IN, two-question queries and
    /// qnames whose case the wire mixes. One scratch writes every reply
    /// and compiles every entry, as the resolver's does. Each branch is
    /// taken at least five times.
    #[test]
    fn replies_from_wire_form_are_the_generic_replies() {
        let tally = std::cell::RefCell::new(BTreeMap::<&str, u32>::new());
        let scratch = std::cell::RefCell::new(ResolveScratch::default());
        ldp_rng::check::check(256, |g| {
            let mut seen = Vec::new();
            let qname = *g.pick(&[
                "www.example.",
                "h7.example.",
                "a-label-long-enough.to-be-shared.example.",
                "x.y.z.w.deeper-than-a-name-holds-by-value.example.",
            ]);
            if qname.len() > 32 {
                seen.push("a qname longer than 29 canonical bytes");
            }
            let qtype = *g.pick(&[RecordType::A, RecordType::AAAA, RecordType::MX]);
            let mut query = Message::query(g.u16(), name(qname), qtype);
            query.flags.recursion_desired = g.bool();
            query.edns = match g.below(3) {
                0 => None,
                1 => Some(Edns::default()),
                _ => Some(Edns::with_do()),
            };
            seen.push(match &query.edns {
                None => "no EDNS",
                Some(e) if e.dnssec_ok => "DO on",
                Some(_) => "DO off",
            });
            if g.below(4) == 0 {
                query.questions[0].qclass = *g.pick(&[RecordClass::CH, RecordClass::Unknown(7)]);
                seen.push("a class other than IN");
            }
            if g.below(4) == 0 {
                let second = Question::new(name("second.example."), RecordType::A);
                query.questions.push(second);
                seen.push("two questions");
            }
            let mut wire = query.encode();
            if g.below(3) == 0 {
                // Upper-case some of the qname's letters on the wire.
                for b in wire.iter_mut().skip(12).take(qname.len()) {
                    if b.is_ascii_lowercase() && g.bool() {
                        b.make_ascii_uppercase();
                    }
                }
                seen.push("a mixed-case qname");
            }
            let mut scratch = scratch.borrow_mut();
            scratch.inbound.decode_into(&wire).unwrap();
            let head = StubHead::of(&scratch.inbound);
            let q = scratch.inbound.questions[0].clone();
            // The entry's key is its own copy of the name, as a task's is.
            let key = name(qname);
            let (rcode, records) = match g.below(4) {
                0 => {
                    seen.push("NXDOMAIN");
                    (Rcode::NxDomain, Vec::new())
                }
                1 => {
                    seen.push("NODATA");
                    (Rcode::NoError, Vec::new())
                }
                _ => (Rcode::NoError, gen_entry_records(g, &key, &mut seen)),
            };
            let question = Some((&q.name, q.qtype));
            let want = scratch
                .stub_reply(&head, question, true, rcode, &records)
                .to_vec();
            let entry = match records.is_empty() {
                true => CachedAnswer::Negative(rcode),
                false => CachedAnswer::Positive(AnswerBytes::compile(
                    &key,
                    &records,
                    &mut scratch.encode,
                )),
            };
            let got = head.write_hit(&q.name, q.qtype, &entry, &mut scratch.encode);
            assert_eq!(got, &want[..], "{}", Message::decode(&want).unwrap());
            // A fan-out: NXDOMAIN after the CNAME chain that led to it.
            if let (CachedAnswer::Positive(answers), true) = (&entry, g.bool()) {
                let want = scratch
                    .stub_reply(&head, question, true, Rcode::NxDomain, &records)
                    .to_vec();
                let got = head.write_reply(
                    &q.name,
                    q.qtype,
                    Rcode::NxDomain,
                    Some(answers),
                    &mut scratch.encode,
                );
                assert_eq!(got, &want[..]);
            }
            let mut tally = tally.borrow_mut();
            for branch in seen {
                *tally.entry(branch).or_default() += 1;
            }
        });
        let tally = tally.into_inner();
        for branch in HIT_BRANCHES {
            let n = tally.get(branch).copied().unwrap_or(0);
            assert!(n >= 5, "{branch}: {n} cases in {tally:?}");
        }
    }
}
