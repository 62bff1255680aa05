//! Allocation budgets for the authoritative answer path, the replay
//! client's bookkeeping and the resolver's cache-hit and miss paths, as
//! exact counts: the same on every machine and at every optimisation
//! level, so a regression here is a code change, never noise.
//!
//! The counter is per thread, so the tests of this file can run side by
//! side; each warms the path it measures first (the thread-local answer
//! and encode scratches are built on first use, and a scratch sizes its
//! buffers on its first few answers).

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_resolver::{AnswerBytes, FillInfo, ResolverCache, ResolverSnapshot, SimResolver};
use dns_server::{AnswerScratch, ServerEngine, SimDnsServer};
use dns_wire::{
    Edns, EncodeScratch, Message, Name, RData, Rcode, Record, RecordType, Soa, Transport,
    WireError, WireReader,
};
use dns_zone::{Catalog, Zone};
use ldp_core::synthetic_root_zone;
use ldp_guard::RetransmitConfig;
use ldp_replay::{PendingTable, ReplayCore, SimReplayClient, TimingTracker};
use netsim::{
    Ctx, Host, PacketBytes, PathConfig, SimConfig, SimDuration, SimTime, Simulator, TcpEvent,
    Topology,
};
use workloads::broot::BRootSpec;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count_one(grown: i64) {
    // Const-initialised and without a destructor: reading them
    // allocates nothing and works for the whole life of the thread.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    add_live(grown);
}

fn add_live(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping is two thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` as above; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Bytes `f` leaves allocated on this thread.
fn bytes_kept<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get) - before, out)
}

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

/// The three EDNS shapes of a B-Root trace: none, DO clear, DO set.
fn query_shapes(qname: &str) -> [Vec<u8>; 3] {
    [None, Some(Edns::default()), Some(Edns::with_do())].map(|edns| {
        let mut query = Message::query(0x1d7a, n(qname), RecordType::A);
        query.edns = edns;
        query.encode()
    })
}

fn root_engine() -> ServerEngine {
    let mut catalog = Catalog::new();
    catalog.insert(synthetic_root_zone());
    ServerEngine::with_catalog(catalog)
}

/// Worst allocation count of one `handle_udp_bytes` over the three
/// query shapes, each checked to be the expected kind of answer.
fn answer_budget(qname: &str, check: impl Fn(&Message)) -> u64 {
    let engine = root_engine();
    let src: IpAddr = "192.0.2.7".parse().unwrap();
    query_shapes(qname)
        .iter()
        .map(|wire| {
            for _ in 0..2 {
                engine.handle_udp_bytes(src, wire).unwrap();
            }
            let (allocs, reply) = allocations(|| engine.handle_udp_bytes(src, wire));
            check(&Message::decode(&reply.unwrap()).unwrap());
            allocs
        })
        .max()
        .unwrap()
}

#[test]
fn a_referral_stays_within_its_budget() {
    let allocs = answer_budget("w7.example.com", |reply| {
        assert!(reply.answers.is_empty());
        assert_eq!(reply.authorities.len(), 2, "{reply}");
        assert_eq!(reply.additionals.len(), 2, "{reply}");
    });
    // The returned `Vec`: the qname is decoded into the last one's buffer.
    assert!(allocs <= 1, "a referral made {allocs} allocations");
}

#[test]
fn an_nxdomain_stays_within_its_budget() {
    let allocs = answer_budget("junk7.invalid77", |reply| {
        assert_eq!(reply.rcode, dns_wire::Rcode::NxDomain);
        assert_eq!(reply.authorities.len(), 1, "{reply}");
    });
    assert!(allocs <= 1, "an NXDOMAIN made {allocs} allocations");
}

/// Referrals and name errors are copied from tails compiled when the
/// catalog was loaded: 1,000 distinct qnames of each, in the three EDNS
/// shapes, through one warm scratch, allocate nothing and are each
/// served from a tail. (A tail built on first sight of a reply shape
/// would allocate for every new one.)
#[test]
fn distinct_referrals_and_name_errors_from_tails_allocate_nothing() {
    let engine = root_engine();
    let src: IpAddr = "192.0.2.7".parse().unwrap();
    let mut scratch = AnswerScratch::new();
    let qnames =
        (0..1000).flat_map(|i| [format!("w{i}.example.com"), format!("junk{i}.invalid{i}")]);
    let wires: Vec<Vec<u8>> = qnames.flat_map(|q| query_shapes(&q)).collect();
    for wire in &wires[wires.len() - 6..] {
        engine.answer_into(src, wire, Transport::Udp, &mut scratch);
    }
    let (allocs, from_tails) = allocations(|| {
        let mut from_tails = 0;
        for wire in &wires {
            engine.answer_into(src, wire, Transport::Udp, &mut scratch);
            from_tails += usize::from(scratch.served_from_tail());
        }
        from_tails
    });
    assert_eq!(from_tails, wires.len(), "every reply from a tail");
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations for {} replies",
        wires.len()
    );
}

#[test]
fn hostile_datagrams_cost_at_most_the_reply() {
    let engine = root_engine();
    let src: IpAddr = "192.0.2.7".parse().unwrap();
    // A readable header over a body that cannot be a question section.
    let mut garbage = vec![0u8; 20];
    garbage[..2].copy_from_slice(&0xabcdu16.to_be_bytes());
    garbage[4] = 0xff;
    engine.handle_udp_bytes(src, &garbage).unwrap();
    let (allocs, reply) = allocations(|| engine.handle_udp_bytes(src, &garbage));
    assert_eq!(reply.unwrap().len(), 12, "a bare FORMERR header");
    assert!(allocs <= 1, "a FORMERR made {allocs} allocations");
    // Shorter than a header: nothing to answer, nothing allocated.
    let (allocs, reply) = allocations(|| engine.handle_udp_bytes(src, &garbage[..11]));
    assert_eq!(reply, None);
    assert_eq!(allocs, 0);
}

/// The in-tree mirror of the benchmark's `allocs_per_query` on
/// `broot_auth`: a B-Root-shaped trace, 3 % of it over TCP, through
/// `SimReplayClient → Simulator → SimDnsServer`. Neither packet nor the
/// server's qname allocates: both packets are pooled and the qname is
/// decoded in place. Nor does the client's bookkeeping: the replay
/// core's seq window and the UDP pending table reach their size in the
/// warm-up and are reused from then on (723 of the 922 allocations this
/// test counted when they were three `BTreeMap`s). Nor does name
/// compression: its table is per message (210 while a cross-message
/// interner grew with the labels it had seen). Measured 184 for 1,693
/// queries: the TCP queries' connections 92 (frame buffers growing 53,
/// Nagle queues 19, the connection tables of client, server and
/// simulator 20) and the pool 92 (an `Arc` and a `Vec` for each of 16
/// new buffers, 59 reused buffers growing for a bigger packet, its free
/// list growing once).
#[test]
fn a_udp_replay_stays_within_its_whole_path_budget() {
    let (counted, allocs) = whole_path_allocations(None);
    assert_eq!(counted, 1_693);
    assert!(allocs <= 184, "{allocs} allocations for {counted} queries");
}

/// The same replay with UDP retransmit armed on every send, as the
/// benchmark's guard side runs it: a retry chain is a count in the
/// query's window slot, so arming one allocates nothing and the leg
/// costs exactly what the plain one does (1,740 allocations when each
/// armed query boxed its retry budget).
#[test]
fn a_retransmit_armed_replay_allocates_what_a_plain_one_does() {
    let (plain_counted, plain) = whole_path_allocations(None);
    let retx = Some(RetransmitConfig::default());
    let (counted, allocs) = whole_path_allocations(retx);
    assert_eq!((counted, plain_counted), (1_693, 1_693));
    assert_eq!(allocs, plain, "{allocs} allocations with retransmit armed");
}

/// The whole-path leg: counted queries and the allocations made while
/// they were answered, with `udp_retransmit` as given.
fn whole_path_allocations(udp_retransmit: Option<RetransmitConfig>) -> (u64, u64) {
    const QUERIES: usize = 2000;
    const WARM_UP: usize = 400;
    let spec = BRootSpec {
        duration_secs: 2.0,
        ..BRootSpec::b_root_17a().scaled(20.0)
    };
    let mut trace = spec.generate(11);
    assert!(trace.len() >= QUERIES, "{} queries", trace.len());
    trace.truncate(QUERIES);
    let origin_us = trace[0].time_us;
    let warm_s = (trace[WARM_UP].time_us - origin_us) as f64 / 1e6;

    let mut sim = Simulator::new(
        Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(40))),
        SimConfig::default(),
    );
    let server = SimDnsServer::new(Arc::new(root_engine()), spec.server, None);
    sim.add_host(&[spec.server.ip()], Box::new(server));
    let log = Arc::new(Mutex::new(Vec::with_capacity(QUERIES)));
    let mut client = SimReplayClient::new(trace.clone(), spec.server, log.clone());
    client.udp_retransmit = udp_retransmit;
    let sources = client.source_addrs();
    let client = sim.add_host(&sources, Box::new(client));
    SimReplayClient::schedule(&mut sim, client, &trace, SimTime::ZERO);

    sim.run_until(SimTime::from_secs_f64(warm_s));
    let answered_warm = log.lock().unwrap().len();
    let (allocs, _events) = allocations(|| sim.run_until(SimTime::from_secs_f64(10.0)));
    let answered = log.lock().unwrap().len();
    assert_eq!(answered, QUERIES, "every query answered");
    ((answered - answered_warm) as u64, allocs)
}

/// The replay core's window when seq 0 is never answered: the cursor
/// stays on it, and the window keeps a slot for each of the 100,000
/// seqs answered after it — at most 32 bytes apiece, the ring's
/// doubling included. Once seq 0 is answered the window empties, and a
/// run that pins nothing reuses it without allocating.
#[test]
fn a_pinned_replay_window_holds_at_most_32_bytes_per_later_seq() {
    const LATER: u64 = 100_000;
    let mut core = ReplayCore::new(TimingTracker::start(0, 0));
    core.note_send(0, 0, false);
    let (bytes, ()) = bytes_kept(|| {
        for seq in 1..=LATER {
            core.note_send(seq, seq, false);
            assert_eq!(core.complete(seq), Some(seq));
        }
    });
    assert!(!core.is_done(0) && core.is_done(LATER));
    assert!(
        bytes <= 32 * LATER as i64,
        "{bytes} bytes for {LATER} seqs after the pinned one"
    );
    assert_eq!(core.complete(0), Some(0));
    let (allocs, ()) = allocations(|| {
        for seq in LATER + 1..=3 * LATER {
            core.note_send(seq, seq, false);
            if seq >= LATER + 64 {
                core.complete(seq - 63);
            }
        }
    });
    assert_eq!(allocs, 0, "an unpinned window allocated");
    let cp = core.cut(0, &[], |_| 0);
    assert_eq!((cp.cursor, cp.inflight.len()), (3 * LATER + 1, 63));
}

/// 100,000 UDP queries in flight at once under distinct `(source, id)`
/// keys, all answered, and then the same again: the pending table
/// grows through the first burst and allocates nothing in the second.
#[test]
fn a_drained_udp_burst_leaves_the_pending_table_allocation_free() {
    const BURST: u64 = 100_000;
    // The key the trace entry of each seq names.
    let key_of = |seq: u64| {
        let [.., a, b, c] = seq.to_be_bytes();
        (IpAddr::from([10, a, b, c]), (seq * 7) as u16)
    };
    let mut table = PendingTable::new();
    let mut burst = || {
        for seq in 0..BURST {
            assert_eq!(table.insert(seq, key_of), None);
        }
        for seq in 0..BURST {
            assert_eq!(table.remove(&key_of(seq), key_of), Some(seq));
        }
        assert!(table.is_empty());
    };
    let (first, ()) = allocations(&mut burst);
    let (second, ()) = allocations(&mut burst);
    assert!(first > 0);
    assert_eq!(second, 0, "the second burst allocated");
    assert_eq!(
        table.capacity(),
        262_144,
        "the index grown at half load, no further"
    );
}

/// A stub that costs nothing per query: it sends pre-encoded packets
/// (a reference count each; timer token = index) and tallies the
/// replies by rcode and answer count, read from the header.
struct TallyStub {
    addr: SocketAddr,
    resolver: SocketAddr,
    queries: Vec<PacketBytes>,
    /// The rcode every reply must carry, and the fewest answers.
    want: (u8, u16),
    /// Replies (as wanted, not).
    tally: Arc<Mutex<(u64, u64)>>,
}

impl Host for TallyStub {
    fn on_udp(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _from: SocketAddr,
        _to: SocketAddr,
        data: PacketBytes,
    ) {
        let as_wanted = data.len() >= 12
            && data[3] & 0x0f == self.want.0
            && u16::from_be_bytes([data[6], data[7]]) >= self.want.1;
        let mut tally = self.tally.lock().unwrap();
        if as_wanted {
            tally.0 += 1;
        } else {
            tally.1 += 1;
        }
    }
    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(query) = self.queries.get(token as usize) {
            ctx.send_udp(self.addr, self.resolver, query.clone());
        }
    }
}

/// A trace's timers scheduled after `reserve_events` of their count
/// grow no queue: the slab is sized once, not doubled up to the trace
/// (16 allocations for 100,000 timers without the reserve).
#[test]
fn a_reserved_trace_schedules_without_growing_the_event_queue() {
    const TIMERS: usize = 100_000;
    let mut sim = Simulator::new(Topology::default(), SimConfig::default());
    let addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
    let stub = TallyStub {
        addr,
        resolver: addr,
        queries: Vec::new(),
        want: (0, 0),
        tally: Arc::new(Mutex::new((0, 0))),
    };
    let host = sim.add_host(&[addr.ip()], Box::new(stub));
    sim.reserve_events(TIMERS);
    let (allocs, ()) = allocations(|| {
        for i in 0..TIMERS {
            sim.schedule_timer(host, SimTime::from_micros(10 * i as u64), i as u64);
        }
    });
    assert_eq!(allocs, 0, "scheduling {TIMERS} reserved timers allocated");
}

/// Allocations in `run_until` under a pre-scheduled trace: 100,000
/// driver-lane timers 10 µs apart, timer `i` making stub `i % n` send
/// one datagram to its own sink over a path of `rtts_ms[i % n]`, so
/// thousands of deliveries are in flight behind the timers. The timers
/// are one of the queue's sorted runs, each path's deliveries another,
/// all in one slab: a delivery takes a slot that a popped timer freed,
/// so after the first timer (the simulator's command buffer) the run
/// allocates nothing. A run or a heap kept in storage of its own grows
/// to its in-flight peak here, which the benchmark's count repetition
/// would see.
fn pre_scheduled_trace_allocations(rtts_ms: &[u64]) -> u64 {
    const TIMERS: u64 = 100_000;
    let pairs: Vec<(SocketAddr, SocketAddr)> = (1..=rtts_ms.len())
        .map(|k| {
            let stub = format!("10.2.0.{k}:5353").parse().unwrap();
            (stub, format!("10.3.0.{k}:53").parse().unwrap())
        })
        .collect();
    let mut topology = Topology::default();
    for (&(stub, sink), &rtt) in pairs.iter().zip(rtts_ms) {
        let path = PathConfig::with_rtt(SimDuration::from_millis(rtt));
        topology.set_pair(stub.ip(), sink.ip(), path);
    }
    let mut sim = Simulator::new(topology, SimConfig::default());
    let received = Arc::new(Mutex::new((0, 0)));
    let tally_stub = |addr, to, queries| TallyStub {
        addr,
        resolver: to,
        queries,
        want: (0, 0),
        tally: received.clone(),
    };
    let header = PacketBytes::from(vec![0u8; 12]);
    let senders: Vec<_> = pairs
        .iter()
        .map(|&(stub, sink)| {
            sim.add_host(&[sink.ip()], Box::new(tally_stub(sink, stub, Vec::new())));
            let queries = vec![header.clone()];
            sim.add_host(&[stub.ip()], Box::new(tally_stub(stub, sink, queries)))
        })
        .collect();
    for i in 0..TIMERS {
        let sender = senders[i as usize % senders.len()];
        sim.schedule_timer(sender, SimTime::from_micros(10 * i), 0);
    }
    let warm = sim.run_until(SimTime::ZERO);
    let (allocs, events) = allocations(|| sim.run_until(SimTime::from_secs_f64(10.0)));
    assert_eq!(warm + events, 2 * TIMERS);
    assert_eq!(
        *received.lock().unwrap(),
        (TIMERS, 0),
        "every datagram arrived"
    );
    allocs
}

/// About 4,000 deliveries over one 80 ms path behind the trace.
#[test]
fn a_pre_scheduled_trace_runs_without_growing_the_event_queue() {
    let allocs = pre_scheduled_trace_allocations(&[80]);
    assert_eq!(allocs, 0, "the run allocated {allocs} times");
}

/// About 4,300 deliveries over three paths (20, 80 and 160 ms) behind
/// the trace: four sorted runs, none of them in storage of its own.
#[test]
fn deliveries_over_three_paths_beside_a_trace_allocate_nothing() {
    let allocs = pre_scheduled_trace_allocations(&[20, 80, 160]);
    assert_eq!(allocs, 0, "the run allocated {allocs} times");
}

/// Allocations per warmed cache hit through `stub → Simulator →
/// SimResolver`, as (allocations, hits): `NAMES` names under
/// `example.` are resolved once each against a server that has a `h<i>`
/// address for each, three addresses for each `m<i>` and an alias
/// `c<i>` of each `h<i>` (so `junk<i>` is NXDOMAIN, cached for the SOA's
/// hour), then asked `HITS` more times in rotation while the counter
/// runs. `want` is the reply every hit must be.
fn resolver_hit_budget(label: &str, want: (Rcode, u16)) -> (u64, u64) {
    const NAMES: usize = 64;
    const HITS: usize = 3200;
    let mut zone = Zone::new(n("example"));
    let soa = Soa {
        mname: n("ns.example"),
        rname: n("host.example"),
        serial: 1,
        refresh: 7200,
        retry: 900,
        expire: 1_209_600,
        minimum: 3600,
    };
    zone.insert(Record::new(n("example"), 3600, RData::Soa(soa)))
        .unwrap();
    for i in 0..NAMES {
        let addr = RData::A([192, 0, 2, i as u8].into());
        zone.insert(Record::new(n(&format!("h{i}.example")), 3600, addr))
            .unwrap();
        for j in 0..3 {
            let addr = RData::A([198, 51, j, i as u8].into());
            zone.insert(Record::new(n(&format!("m{i}.example")), 3600, addr))
                .unwrap();
        }
        let alias = RData::Cname(n(&format!("h{i}.example")));
        zone.insert(Record::new(n(&format!("c{i}.example")), 3600, alias))
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.insert(zone);
    let server: SocketAddr = "10.0.0.1:53".parse().unwrap();
    let resolver: SocketAddr = "10.1.0.1:53".parse().unwrap();
    let stub: SocketAddr = "10.2.0.1:5353".parse().unwrap();

    let mut sim = Simulator::new(Topology::default(), SimConfig::default());
    let engine = Arc::new(ServerEngine::with_catalog(catalog));
    sim.add_host(
        &[server.ip()],
        Box::new(SimDnsServer::new(engine, server, None)),
    );
    let mut host = SimResolver::new(resolver, vec![server.ip()]);
    let snapshot = Arc::new(Mutex::new(ResolverSnapshot::default()));
    host.set_stats_out(snapshot.clone());
    sim.add_host(&[resolver.ip()], Box::new(host));
    let tally = Arc::new(Mutex::new((0, 0)));
    let queries = (0..NAMES)
        .map(|i| {
            let qname = n(&format!("{label}{i}.example"));
            Message::query(i as u16, qname, RecordType::A)
                .encode()
                .into()
        })
        .collect();
    let stub = sim.add_host(
        &[stub.ip()],
        Box::new(TallyStub {
            addr: stub,
            resolver,
            queries,
            want: (want.0.low_bits(), want.1),
            tally: tally.clone(),
        }),
    );
    // One query a millisecond: the misses first, the hits from t = 1 s.
    for i in 0..NAMES + HITS {
        let at = if i < NAMES { i } else { 1000 + i } as u64;
        sim.schedule_timer(stub, SimTime::from_millis(at), (i % NAMES) as u64);
    }
    sim.run_until(SimTime::from_millis(1000));
    assert_eq!(*tally.lock().unwrap(), (NAMES as u64, 0), "warm-up replies");
    let (allocs, _events) = allocations(|| sim.run_until(SimTime::from_secs_f64(10.0)));
    assert_eq!(*tally.lock().unwrap(), ((NAMES + HITS) as u64, 0));
    let stats = snapshot.lock().unwrap().stats;
    assert_eq!(stats.cache_hits, HITS as u64);
    assert_eq!(stats.upstream_queries, NAMES as u64);
    (allocs, stats.cache_hits)
}

/// The in-tree mirror of the benchmark's `allocs_per_query` on
/// `rec_hot`, where ≈ 98 % of stub queries are cache hits: a hit
/// allocates nothing — the qname is decoded in place, the entry's
/// wire-form answer is copied into the reply, the reply packet is
/// pooled, the stub here sends shared packets, and the cache, which is
/// unbounded, never builds an eviction index to reorder (457 allocations in these
/// 3,200 hits when it kept one from the start).
#[test]
fn a_warmed_cache_hit_stays_within_its_budget() {
    let (allocs, hits) = resolver_hit_budget("h", (Rcode::NoError, 1));
    assert_eq!(hits, 3_200);
    assert_eq!(allocs, 0, "{allocs} allocations for {hits} positive hits");
}

#[test]
fn a_negative_cache_hit_stays_within_its_budget() {
    let (allocs, hits) = resolver_hit_budget("junk", (Rcode::NxDomain, 0));
    assert_eq!(hits, 3_200);
    assert_eq!(allocs, 0, "{allocs} allocations for {hits} negative hits");
}

/// A hit on an entry of three addresses, or on an alias and the address
/// it leads to, is written from the entry's wire form like a one-record
/// hit: it allocates nothing. Compiling a one- or two-record answer into
/// a warmed scratch, and putting it over the entry it refreshes, takes
/// no heap block either: the bytes sit in the entry.
#[test]
fn hits_on_multi_record_and_cname_entries_and_a_one_record_put_allocate_nothing() {
    for (label, answers) in [("m", 3), ("c", 2)] {
        let (allocs, hits) = resolver_hit_budget(label, (Rcode::NoError, answers));
        assert_eq!(hits, 3_200);
        assert_eq!(allocs, 0, "{allocs} allocations for {hits} `{label}` hits");
    }
    let key = n("h1.example");
    let address = Record::new(key.clone(), 300, RData::A([192, 0, 2, 1].into()));
    let alias = Record::new(key.clone(), 300, RData::Cname(n("h2.example")));
    let aliased = Record::new(n("h2.example"), 300, RData::A([192, 0, 2, 2].into()));
    let mut cache = ResolverCache::unbounded();
    let mut scratch = EncodeScratch::new();
    let fill = FillInfo::default();
    for records in [vec![address], vec![alias, aliased]] {
        let warm = AnswerBytes::compile(&key, &records, &mut scratch);
        cache.put_answer(&key, RecordType::A, warm, 300, 0.0, fill);
        let (allocs, out) = allocations(|| {
            let answer = AnswerBytes::compile(&key, &records, &mut scratch);
            assert!(answer.is_inline());
            cache.put_answer(&key, RecordType::A, answer, 300, 1.0, fill)
        });
        assert!(out.inserted);
        assert_eq!(allocs, 0, "a {}-record put allocated", records.len());
    }
}

/// A zone at `origin`: an SOA (negative answers cached for an hour)
/// and `records`.
fn zone_of(origin: &str, records: Vec<Record>) -> Zone {
    let soa = Soa {
        mname: n("ns.invalid"),
        rname: n("host.invalid"),
        serial: 1,
        refresh: 7200,
        retry: 900,
        expire: 1_209_600,
        minimum: 3600,
    };
    let mut zone = Zone::new(n(origin));
    zone.insert(Record::new(n(origin), 3600, RData::Soa(soa)))
        .unwrap();
    for record in records {
        zone.insert(record).unwrap();
    }
    zone
}

fn catalog_of(zones: Vec<Zone>) -> Catalog {
    let mut catalog = Catalog::new();
    for zone in zones {
        catalog.insert(zone);
    }
    catalog
}

fn ns(owner: &str, target: &str) -> Record {
    Record::new(n(owner), 3600, RData::Ns(n(target)))
}

fn a(owner: &str, ip: [u8; 4]) -> Record {
    Record::new(n(owner), 3600, RData::A(ip.into()))
}

const ZONES: usize = 64;
const HOSTS: usize = 4;

/// A three-level hierarchy, as each server's address and catalog, and
/// the questions [`resolver_miss_budget`] asks of it: the root at
/// 10.0.0.1 refers `tld.` and `net.` to 10.0.0.2, which refers each
/// `z<i>.tld.` (with glue) and `gl.tld.` (without: its nameserver is
/// `ns.host.net.`) to 10.0.0.3. The questions are `www.tld.`, then
/// `h<j>.z<i>.tld.` for `HOSTS` hosts of each of `ZONES` zones, with
/// the hosts of `gl.tld.` among them; each host label ends in `pad`.
fn miss_hierarchy(pad: &str) -> (Vec<([u8; 4], Catalog)>, Vec<String>) {
    let (tld_ip, zone_ip) = ([10, 0, 0, 2], [10, 0, 0, 3]);
    let mut tld = vec![ns("gl.tld", "ns.host.net"), a("www.tld", [192, 0, 2, 80])];
    let mut glueless = vec![ns("gl.tld", "ns.host.net")];
    let mut zones = Vec::new();
    let mut questions = vec!["www.tld".to_string()];
    for i in 0..ZONES {
        let origin = format!("z{i}.tld");
        let server = format!("ns.{origin}");
        tld.extend([ns(&origin, &server), a(&server, zone_ip)]);
        let mut records = vec![ns(&origin, &server), a(&server, zone_ip)];
        for j in 0..HOSTS {
            let host = format!("h{j}{pad}.{origin}");
            records.push(a(&host, [192, 0, 2, j as u8]));
            questions.push(host);
        }
        zones.push(zone_of(&origin, records));
        if i == ZONES / 2 {
            for j in 0..HOSTS {
                let host = format!("h{j}{pad}.gl.tld");
                glueless.push(a(&host, [198, 51, 100, j as u8]));
                questions.push(host);
            }
        }
    }
    zones.push(zone_of("gl.tld", glueless));
    let root = vec![
        ns("tld", "ns.tld"),
        a("ns.tld", tld_ip),
        ns("net", "ns.net"),
        a("ns.net", tld_ip),
    ];
    let net = vec![a("ns.host.net", zone_ip)];
    let servers = vec![
        ([10, 0, 0, 1], catalog_of(vec![zone_of(".", root)])),
        (
            tld_ip,
            catalog_of(vec![zone_of("tld", tld), zone_of("net", net)]),
        ),
        (zone_ip, catalog_of(zones)),
    ];
    (servers, questions)
}

/// A simulator running a server per `(address, catalog)`, and a
/// resolver at 10.1.0.1 hinted at the first, the root.
fn hierarchy_sim(servers: Vec<([u8; 4], Catalog)>) -> (Simulator, SimResolver) {
    let mut sim = Simulator::new(Topology::default(), SimConfig::default());
    for (ip, catalog) in servers {
        let addr = SocketAddr::new(IpAddr::from(ip), 53);
        let engine = Arc::new(ServerEngine::with_catalog(catalog));
        sim.add_host(
            &[addr.ip()],
            Box::new(SimDnsServer::new(engine, addr, None)),
        );
    }
    let hints = vec!["10.0.0.1".parse().unwrap()];
    (sim, SimResolver::new("10.1.0.1:53".parse().unwrap(), hints))
}

/// Allocations per cold miss through `stub → Simulator → SimResolver`
/// and [`miss_hierarchy`], as (allocations, misses). Every stub query
/// asks a name nobody asked before: of a zone's hosts, the first is a
/// referral from the TLD server and an answer, the others an answer,
/// and the first of `gl.tld.` parks on a lookup of `ns.host.net.`. The
/// first `WARM` zones warm the resolver, the pool and the scratches;
/// the counter runs over the rest. Referrals are copied from tails, so
/// the first `WARM` zones would leave the TLD server's generic half cold
/// until `ns.host.net.`'s answer: the first question, `www.tld.`,
/// answered by the TLD server itself, warms it.
fn resolver_miss_budget(pad: &str) -> (u64, u64) {
    const WARM: usize = 8;
    let (servers, questions) = miss_hierarchy(pad);
    let (mut sim, mut host) = hierarchy_sim(servers);
    let (resolver, stub) = (host.addr(), SocketAddr::from(([10, 2, 0, 1], 5353)));
    let snapshot = Arc::new(Mutex::new(ResolverSnapshot::default()));
    host.set_stats_out(snapshot.clone());
    sim.add_host(&[resolver.ip()], Box::new(host));
    let tally = Arc::new(Mutex::new((0, 0)));
    let queries = (questions.iter().enumerate())
        .map(|(i, qname)| {
            let query = Message::query(i as u16, n(qname), RecordType::A);
            query.encode().into()
        })
        .collect();
    let stub = sim.add_host(
        &[stub.ip()],
        Box::new(TallyStub {
            addr: stub,
            resolver,
            queries,
            want: (Rcode::NoError.low_bits(), 1),
            tally: tally.clone(),
        }),
    );
    // Four milliseconds apart, so no walk overlaps the next (a round
    // trip is 0.5 ms): the warm-up from t = 0, the counted misses from
    // t = 1 s.
    let warm = 1 + WARM * HOSTS;
    for i in 0..questions.len() {
        let at = 4 * i as u64 + if i < warm { 0 } else { 1000 };
        sim.schedule_timer(stub, SimTime::from_millis(at), i as u64);
    }
    sim.run_until(SimTime::from_millis(1000));
    assert_eq!(*tally.lock().unwrap(), (warm as u64, 0), "warm-up replies");
    let (allocs, _events) = allocations(|| sim.run_until(SimTime::from_secs_f64(10.0)));
    assert_eq!(*tally.lock().unwrap(), (questions.len() as u64, 0));
    let stats = snapshot.lock().unwrap().stats;
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.failures, 0);
    // Root and TLD for `www.tld.`; the TLD and the zone for the first
    // of each zone; the zone for every other host; and `gl.tld.`'s
    // first asks the TLD, then the root and the TLD server for its
    // nameserver, then the zone.
    let walks = 2 + 2 * ZONES + (HOSTS - 1) * (ZONES + 1) + 4;
    assert_eq!(stats.upstream_queries, walks as u64);
    (allocs, (questions.len() - warm) as u64)
}

/// The in-tree mirror of the benchmark's `allocs_per_query` on
/// `rec_wide`, whose misses walk the emulated hierarchy: 2,013
/// allocations for 228 cold misses (8.83 each) while a resolution kept
/// whatever names its messages decoded; 983 (4.31) once it kept one copy
/// of its question; 678 (2.97) once the outstanding entry held its lead
/// inline and the unbounded cache kept no eviction index; 157 (0.69) now
/// that a name of at most 29 canonical bytes is held by value (228
/// question copies, 58 NS target names and six qnames that outgrew their
/// buffer) and a one-record answer moves into its cache entry without a
/// `Vec` (229); 107 (0.47) once name compression kept a table per
/// message instead of interners learning every new label (50); 76
/// (0.33) once the cache's entries and the delegation table moved off
/// B-trees into `ldp_rng::KeyTable`s (31: their 37 and 8 tree nodes
/// became 14 chunks and index doublings); 72 (0.32) once `www.tld.` was
/// answered in the warm-up: two of the section `Vec`s that grew in the
/// counted window were the TLD server's first answer growing them, and
/// the warm-up's extra entry took one chunk and one index doubling of
/// the cache's table out of the window (the bound then read 74); 69
/// (0.30) once a cache entry held its answer in wire form (a 48-byte
/// `CachedAnswer` where a `RecordList` held a 128-byte `Record`), so a
/// chunk holds more entries: two chunks and one growth of the chunk
/// list fewer. The 128 → 112-byte entry that dropped prefetch's TTL copy
/// and armed flag still takes five chunks here. Each step was read by a
/// per-site tally of the counted window at its commit. What is left:
/// per zone, the zone's server set (59 `Arc`s); the cache table's five
/// chunks, one growth of its chunk list and three index doublings (9);
/// and one of a server's section `Vec`s growing.
#[test]
fn a_cold_miss_stays_within_its_budget() {
    let (allocs, misses) = resolver_miss_budget("");
    assert_eq!(misses, 228);
    assert!(allocs <= 69, "{allocs} allocations for {misses} misses");
}

/// The same misses with every question longer than a name holds by
/// value (39–40 canonical bytes): a resolution copies its question
/// once, into a buffer of its own, and every other name it keeps of it
/// is a view of that buffer or short. On top of the short names' count:
/// one copy per miss, and six decode targets outgrowing their buffer —
/// the resolver's three times, each of the three servers' once. (This
/// read `+ 3` while the compression interners counted here: a long
/// label's warm-up had grown their label arena three reallocations
/// further.)
#[test]
fn a_cold_miss_of_a_long_name_copies_it_once() {
    let (short, _) = resolver_miss_budget("");
    let (long, misses) = resolver_miss_budget("-with-a-label-long-enough");
    assert_eq!(misses, 228);
    assert_eq!(long, short + misses + 6, "{long} against {short}");
}

/// The resolver's books, as [`SimResolver::books`] reads them: the most
/// it held after any event, and what it holds after the latest.
type Books = ((usize, usize, usize), (usize, usize, usize));

/// A [`SimResolver`] that notes its books after every event.
struct Watched {
    resolver: SimResolver,
    books: Arc<Mutex<Books>>,
}

impl Watched {
    fn note(&self) {
        let now = self.resolver.books();
        let mut books = self.books.lock().unwrap();
        let peak = books.0;
        books.0 = (peak.0.max(now.0), peak.1.max(now.1), peak.2.max(now.2));
        books.1 = now;
    }
}

impl Host for Watched {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, data: PacketBytes) {
        self.resolver.on_udp(ctx, from, to, data);
        self.note();
    }
    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.resolver.on_timer(ctx, token);
        self.note();
    }
}

/// A cold burst of 1,000 stub queries for one name through
/// [`miss_hierarchy`] is one resolution: the resolver holds one task,
/// one in-flight key and one upstream attempt at most, and nothing once
/// everyone is answered. A second burst, for a name of another zone,
/// allocates no more than the first: the joiners' `Vec` goes with its
/// task.
#[test]
fn a_cold_burst_for_one_name_holds_one_task_and_leaves_nothing() {
    const BURST: u64 = 1_000;
    let (servers, _) = miss_hierarchy("");
    let (mut sim, mut host) = hierarchy_sim(servers);
    let (resolver, stub) = (host.addr(), SocketAddr::from(([10, 2, 0, 1], 5353)));
    let snapshot = Arc::new(Mutex::new(ResolverSnapshot::default()));
    host.set_stats_out(snapshot.clone());
    let books = Arc::new(Mutex::new(Books::default()));
    let watched = Watched {
        resolver: host,
        books: books.clone(),
    };
    sim.add_host(&[resolver.ip()], Box::new(watched));
    let tally = Arc::new(Mutex::new((0, 0)));
    let queries = ["h0.z1.tld", "h0.z2.tld"]
        .map(|qname| Message::query(7, n(qname), RecordType::A).encode().into())
        .to_vec();
    let stub = sim.add_host(
        &[stub.ip()],
        Box::new(TallyStub {
            addr: stub,
            resolver,
            queries,
            want: (Rcode::NoError.low_bits(), 1),
            tally: tally.clone(),
        }),
    );
    for (token, at) in [(0, 0), (1, 1000)] {
        for _ in 0..BURST {
            sim.schedule_timer(stub, SimTime::from_millis(at), token);
        }
    }
    let mut burst = |until_ms: u64| {
        let (allocs, _events) = allocations(|| sim.run_until(SimTime::from_millis(until_ms)));
        (allocs, std::mem::take(&mut *books.lock().unwrap()))
    };
    let (first, first_books) = burst(999);
    let (second, second_books) = burst(1999);
    for books in [first_books, second_books] {
        assert_eq!(books, ((1, 1, 1), (0, 0, 0)), "(tasks, keys, attempts)");
    }
    assert_eq!(*tally.lock().unwrap(), (2 * BURST, 0));
    let outstanding = snapshot.lock().unwrap().outstanding;
    assert_eq!(
        (outstanding.leads, outstanding.coalesced),
        (2, 2 * (BURST - 1))
    );
    assert!(second <= first, "{second} allocations against {first}");
}

/// A referral for `qname` from the zone of its last two labels: 13 NS
/// records, each target with an A and an AAAA record as glue.
fn referral(qname: &Name) -> Message {
    let zone = qname.ancestor(2).unwrap();
    let mut msg = Message::query(7, qname.clone(), RecordType::A).response_to();
    for (k, letter) in (b'a'..=b'm').enumerate() {
        let target = zone.child(b"ns").unwrap().child(&[letter]).unwrap();
        msg.authorities
            .push(Record::new(zone.clone(), 3600, RData::Ns(target.clone())));
        let ip = [192, 0, 2, k as u8];
        msg.additionals
            .push(Record::new(target.clone(), 3600, RData::A(ip.into())));
        let ip6 = std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, k as u16);
        msg.additionals
            .push(Record::new(target, 3600, RData::Aaaa(ip6)));
    }
    msg
}

/// One long-lived `EncodeScratch` keeps nothing of the names it has
/// encoded: 1 M distinct 16-octet labels, four to a query, and every
/// 1,000 queries a referral (13 NS, 26 glue) whose names are all new,
/// through one scratch. Once it has encoded one message of each shape,
/// no encode allocates and the scratch's live bytes do not grow: what it
/// holds is what its largest message needed.
#[test]
fn a_million_distinct_labels_leave_an_encode_scratch_bounded() {
    const LABELS: usize = 1 << 20;
    let mut scratch = dns_wire::EncodeScratch::new();
    let mut warm = [false; 2];
    let (mut allocs, mut grown) = (0, 0);
    let mut encode = |msg: &Message, shape: usize| {
        let (kept, (count, len)) =
            bytes_kept(|| allocations(|| msg.encode_into(&mut scratch).len()));
        if warm[shape] {
            (allocs, grown) = (allocs + count, grown + kept);
        }
        warm[shape] = true;
        len
    };
    for i in (0..LABELS).step_by(4) {
        let labels = (i..i + 4).map(|l| format!("label-{l:010}"));
        let qname = Name::from_labels(labels.map(String::into_bytes)).unwrap();
        let query = Message::query(i as u16, qname, RecordType::A);
        assert_eq!(encode(&query, 0), 12 + 4 * 17 + 1 + 4);
        if i % 4000 == 0 {
            encode(&referral(&query.questions[0].name), 1);
        }
    }
    assert_eq!(allocs, 0, "encodes after the first of each shape allocated");
    assert_eq!(grown, 0, "the scratch grew by {grown} bytes");
}

/// A warmed `decode_into` of a referral — the question, the zone's NS
/// set, its glue — takes a buffer for each long NS target's name and for
/// nothing else: a short name is held by value, the zone is an ancestor
/// of the question and a glue owner is an NS target, so both are views.
#[test]
fn decoding_a_referral_allocates_only_its_nameservers() {
    for (pad, want) in [("", 0), ("-of-a-name-too-long-to-hold", 2)] {
        let mut referral = Message::query(7, n("www.z5.tld"), RecordType::A).response_to();
        for (i, ip) in [[10, 0, 0, 3], [10, 0, 0, 4]].into_iter().enumerate() {
            let server = format!("ns{i}{pad}.z5.tld");
            referral.authorities.push(ns("z5.tld", &server));
            referral.additionals.push(a(&server, ip));
        }
        referral.edns = Some(Edns::default());
        let wire = referral.encode();
        let mut warmed = Message::default();
        warmed.decode_into(&wire).unwrap();
        let (allocs, again) = allocations(|| warmed.decode_into(&wire));
        assert_eq!(again, Ok(()));
        assert_eq!(warmed, referral);
        assert_eq!(allocs, want, "decode_into made {allocs} allocations");
    }
}

#[test]
fn clones_and_ancestors_are_views() {
    let name = n("a.b.c.example.com");
    let (allocs, kept) = allocations(|| {
        let copy = name.clone();
        let parent = copy.parent().unwrap();
        let apex = name.ancestor(2).unwrap();
        assert!(parent.is_subdomain_of(&apex));
        (copy, parent, apex)
    });
    assert_eq!(allocs, 0);
    assert_eq!(kept.2, n("example.com"));
}

#[test]
fn decoding_a_query_allocates_per_message_not_per_label() {
    let mut warmed = Message::default();
    for wire in query_shapes("a.b.c.d.e.f.example.com") {
        let (allocs, query) = allocations(|| Message::decode(&wire));
        assert_eq!(query.unwrap().question().unwrap().name.label_count(), 8);
        assert!(allocs <= 3, "decode made {allocs} allocations");
        // Into a message that has held this shape before: nothing, the
        // qname included (it is decoded into the last one's buffer).
        warmed.decode_into(&wire).unwrap();
        let (allocs, again) = allocations(|| warmed.decode_into(&wire));
        assert_eq!(again, Ok(()));
        assert_eq!(allocs, 0, "decode_into made {allocs} allocations");
    }
}

#[test]
fn hostile_names_are_rejected_before_any_allocation() {
    // 65 pointers, each to the one before it, ending on a root octet:
    // one hop more than the decoder follows.
    let mut chain = vec![0u8];
    for i in 0..65u16 {
        let target = if i == 0 { 0 } else { 1 + 2 * (i - 1) };
        chain.extend_from_slice(&(0xc000 | target).to_be_bytes());
    }
    let start = chain.len() - 2;
    // Four 63-octet labels: 257 octets on the wire.
    let mut long = Vec::new();
    for _ in 0..4 {
        long.push(63);
        long.extend_from_slice(&[b'x'; 63]);
    }
    long.push(0);
    for (buf, at, want) in [
        (&chain, start, WireError::BadPointer),
        (&long, 0, WireError::BadName),
    ] {
        let (allocs, got) = allocations(|| {
            let mut r = WireReader::new(buf);
            r.get_bytes(at).and_then(|_| r.get_name())
        });
        assert_eq!(got, Err(want));
        assert_eq!(allocs, 0);
    }
}
