//! Hot-path microbenchmarks: simulator event throughput (single and
//! sharded, on the identical workload), fast-mode replay throughput
//! against a loopback UDP sink, and dns-wire encode/decode throughput.
//! Writes `BENCH_hotpath.json` (hand-rolled JSON) so the
//! static-analysis gate can check the numbers.
//!
//! `cargo run --release -p ldp-bench --bin hotpath [-- <output.json>]`

use std::hint::black_box;
use std::net::{IpAddr, SocketAddr, UdpSocket};
use std::time::Instant;

use dns_server::ServerEngine;
use dns_wire::{Message, RData, Record, RecordType, Soa};
use dns_zone::{Catalog, Zone};
use ldp_replay::{replay, ReplayConfig};
use ldp_shard::{ShardPlan, ShardedSimulator};
use ldp_telemetry as tel;
use ldp_trace::TraceEntry;
use netsim::{
    Ctx, EventQueue, Host, PacketBytes, PathConfig, SimConfig, SimDuration, SimTime, Simulator,
    TcpEvent, Topology,
};

/// Best wall-clock seconds out of `runs` attempts of `f` (noise floor).
fn best_of<F: FnMut() -> u64>(runs: usize, mut f: F) -> (u64, f64) {
    let mut best = f64::MAX;
    let mut count = 0u64;
    for _ in 0..runs {
        let t0 = Instant::now();
        count = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (count, best)
}

/// A host that bursts shared-payload datagrams to its peers on every
/// timer tick and re-arms until its tick budget runs out — the steady
/// churn (timer pop → pushes → delivery pops) a replaying simulation
/// puts on the event queue, with a few thousand events resident.
struct Blaster {
    me: SocketAddr,
    peers: Vec<SocketAddr>,
    payload: PacketBytes,
    ticks: u64,
}

impl Host for Blaster {
    fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
    fn on_tcp_event(&mut self, _: &mut Ctx<'_>, _: TcpEvent) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        for peer in &self.peers {
            ctx.send_udp(self.me, *peer, self.payload.clone());
        }
        if self.ticks > 0 {
            self.ticks -= 1;
            ctx.set_timer(SimDuration::from_micros(20), token + 1);
        }
    }
}

fn sim_topology() -> Topology {
    Topology::uniform(PathConfig {
        rtt: SimDuration::from_millis(2),
        bandwidth_bps: None,
        loss: 0.0,
    })
}

/// The workload of both simulator benches: 8 hosts × `ticks` re-armed
/// 20 µs timers × 2-peer bursts, which over a 2 ms RTT keeps ~1.5k
/// events resident for the whole run.
fn blaster_ring(ticks: u64) -> Vec<Blaster> {
    let payload: PacketBytes = vec![0u8; 64].into();
    let n_hosts = 8usize;
    let socks: Vec<SocketAddr> = (0..n_hosts)
        .map(|i| format!("10.9.0.{}:5300", i + 1).parse().expect("addr"))
        .collect();
    (0..n_hosts)
        .map(|i| Blaster {
            me: socks[i],
            peers: vec![socks[(i + 1) % n_hosts], socks[(i + 3) % n_hosts]],
            payload: payload.clone(),
            ticks,
        })
        .collect()
}

/// One full simulator run of the ring; returns events processed.
fn sim_run(ticks: u64) -> u64 {
    let mut sim = Simulator::new(sim_topology(), SimConfig::default());
    for (i, host) in blaster_ring(ticks).into_iter().enumerate() {
        let id = sim.add_host(&[host.me.ip()], Box::new(host));
        sim.schedule_timer(id, SimTime::from_micros(i as u64), 0);
    }
    sim.run_until(SimTime::from_secs_f64(3600.0))
}

/// The identical workload on a [`ShardedSimulator`] with `shards`
/// round-robin worker shards (1 ms conservative lookahead from the
/// 2 ms RTT). Returns events processed, which must equal the
/// single-shard count — the equivalence smoke the static-analysis
/// gate relies on.
fn sharded_sim_run(shards: u32, ticks: u64) -> u64 {
    let plan = ShardPlan::round_robin(shards);
    let mut sim = ShardedSimulator::new(sim_topology(), SimConfig::default(), plan);
    for (i, host) in blaster_ring(ticks).into_iter().enumerate() {
        let id = sim.add_host(&[host.me.ip()], Box::new(host));
        sim.schedule_timer(id, SimTime::from_micros(i as u64), 0);
    }
    sim.run_until(SimTime::from_secs_f64(3600.0))
}

/// Raw queue ops/sec: push/pop cycles on the bare [`EventQueue`], the
/// isolated data-structure cost behind the sim-level numbers.
fn queue_raw(ops: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::default();
    // Keep ~4096 entries resident; interleave pushes and pops with a
    // mildly non-monotonic time pattern (like real timer re-arming).
    let mut now = 0u64;
    let mut popped = 0u64;
    for i in 0..ops {
        let jitter = (i.wrapping_mul(2654435761)) % 1000;
        q.push(SimTime::from_nanos(now + jitter), i % 64, i, i);
        if q.len() > 4096 {
            if let Some((at, item)) = q.pop() {
                now = now.max(at.as_nanos());
                popped = popped.wrapping_add(item);
            }
        }
    }
    while let Some((_, item)) = q.pop() {
        popped = popped.wrapping_add(item);
    }
    black_box(popped);
    ops * 2
}

fn replay_qps(queries: u64) -> (u64, f64, u64) {
    let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
    let addr = sink.local_addr().expect("sink addr");
    let trace: Vec<TraceEntry> = (0..queries)
        .map(|i| {
            TraceEntry::query(
                1_000_000 + i * 100,
                format!("10.0.{}.{}:999", i % 4, 1 + i % 200)
                    .parse()
                    .expect("src"),
                "127.0.0.1:53".parse().expect("dst"),
                i as u16,
                format!("q{i}.example.com").parse().expect("qname"),
                RecordType::A,
            )
        })
        .collect();
    let config = ReplayConfig {
        target_udp: addr,
        target_tcp: addr,
        fast_mode: true,
        ..Default::default()
    };
    let t0 = Instant::now();
    let report = replay(&trace, &config);
    (report.total_sent, t0.elapsed().as_secs_f64(), report.errors)
}

fn wire_throughput(iters: u64) -> (f64, f64, usize) {
    let msg = Message::query(
        4660,
        "www.example-workload.com".parse().expect("qname"),
        RecordType::A,
    );
    let encoded = msg.encode();
    let size = encoded.len();

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(black_box(&msg).encode());
    }
    let enc_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for _ in 0..iters {
        let m = Message::decode(black_box(&encoded)).expect("decodes");
        black_box(m);
    }
    let dec_s = t0.elapsed().as_secs_f64();

    (iters as f64 / enc_s, iters as f64 / dec_s, size)
}

/// `Name` on its own: ordering compares between zone-shaped names (the
/// step a `BTreeMap` probe repeats) and decodes of a compressed name.
fn name_throughput(iters: u64) -> (f64, f64) {
    let names: Vec<dns_wire::Name> = (0..1024)
        .map(|i| format!("w{i}.example{}.com", i % 37).parse().expect("name"))
        .collect();
    let t0 = Instant::now();
    let mut less = 0u64;
    for i in 0..iters as usize {
        let (a, b) = (&names[i % names.len()], &names[(i * 7 + 1) % names.len()]);
        less += u64::from(black_box(a) < black_box(b));
    }
    black_box(less);
    let cmp_s = t0.elapsed().as_secs_f64();

    let mut w = dns_wire::WireWriter::new();
    w.put_name(&names[0]);
    let second = w.len();
    w.put_name(&names[37]);
    let wire = w.into_bytes();
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut r = dns_wire::WireReader::new(black_box(&wire));
        r.seek(second);
        black_box(r.get_name().expect("decodes"));
    }
    let dec_s = t0.elapsed().as_secs_f64();
    (iters as f64 / cmp_s, iters as f64 / dec_s)
}

/// An authoritative engine over one zone of `names` A records — the
/// serve-side counterpart of [`wire_throughput`]'s message.
fn server_engine(names: usize) -> ServerEngine {
    let origin: dns_wire::Name = "bench.example".parse().expect("origin");
    let mut zone = Zone::new(origin.clone());
    zone.insert(Record::new(
        origin,
        3600,
        RData::Soa(Soa {
            mname: "ns1.bench.example".parse().expect("mname"),
            rname: "admin.bench.example".parse().expect("rname"),
            serial: 1,
            refresh: 1,
            retry: 1,
            expire: 1,
            minimum: 60,
        }),
    ))
    .expect("soa");
    for i in 0..names {
        zone.insert(Record::new(
            format!("h{i}.bench.example").parse().expect("name"),
            60,
            RData::A(format!("10.1.{}.{}", i / 256, i % 256).parse().expect("a")),
        ))
        .expect("record");
    }
    let mut cat = Catalog::new();
    cat.insert(zone);
    ServerEngine::with_catalog(cat)
}

/// UDP answers/sec through `answer_udp`, template path vs. general
/// path, on the identical query mix. Asserts the two paths agree
/// byte-for-byte before timing them.
fn server_throughput(iters: u64) -> (f64, f64) {
    let names = 64usize;
    let general = server_engine(names);
    let templated = server_engine(names).with_templates();
    let src: IpAddr = "10.2.0.1".parse().expect("src");
    let queries: Vec<Message> = (0..names)
        .map(|i| {
            let mut q = Message::query(
                i as u16,
                format!("h{i}.bench.example").parse().expect("qname"),
                RecordType::A,
            );
            q.flags.recursion_desired = true;
            q
        })
        .collect();
    for q in &queries {
        assert_eq!(
            templated.answer_udp(src, q),
            general.answer_udp(src, q),
            "template path must be byte-identical to the general path"
        );
    }
    let time = |engine: &ServerEngine| {
        let t0 = Instant::now();
        for i in 0..iters {
            let q = &queries[(i as usize) % names];
            black_box(engine.answer_udp(src, black_box(q)));
        }
        iters as f64 / t0.elapsed().as_secs_f64()
    };
    let general_aps = time(&general);
    let template_aps = time(&templated);
    (template_aps, general_aps)
}

/// NXDOMAIN answers/sec through the general `answer_udp` path over an
/// unsigned zone of `names` names. One half of a scaling pair: the
/// gate compares a small and a large zone from the same process, and a
/// per-query walk over the zone shows up as a ratio near
/// small/large, whatever the machine is doing.
fn nxdomain_throughput(names: usize, iters: u64) -> f64 {
    let engine = server_engine(names);
    let src: IpAddr = "10.2.0.1".parse().expect("src");
    let queries: Vec<Message> = (0..64)
        .map(|i| {
            let qname = format!("missing{i}.bench.example");
            Message::query(i as u16, qname.parse().expect("qname"), RecordType::A)
        })
        .collect();
    let (bytes, _) = engine.answer_udp(src, &queries[0]);
    let rcode = Message::decode(&bytes).expect("decodes").rcode;
    assert_eq!(
        rcode,
        dns_wire::Rcode::NxDomain,
        "the row measures NXDOMAIN"
    );
    let (_, secs) = best_of(3, || {
        for i in 0..iters {
            let q = &queries[(i as usize) % queries.len()];
            black_box(engine.answer_udp(src, black_box(q)));
        }
        iters
    });
    iters as f64 / secs
}

/// `ViewSet::select` calls/sec over `views` exact-address views, the
/// shape hierarchy emulation builds, probing the address of the last
/// one — the worst case for a first-match scan.
fn view_select_throughput(views: usize, iters: u64) -> f64 {
    use dns_zone::{ClientMatch, View, ViewSet};
    let addr = |i: usize| IpAddr::from([10, 8, (i / 256) as u8, (i % 256) as u8]);
    let mut set = ViewSet::new();
    for i in 0..views {
        let matchers = vec![ClientMatch::Exact(addr(i))];
        set.push(View::new(format!("v{i}"), matchers, Catalog::new()));
    }
    let probe = addr(views - 1);
    assert_eq!(set.select_index(probe), Some(views - 1));
    let (_, secs) = best_of(3, || {
        for _ in 0..iters {
            black_box(set.select(black_box(probe)));
        }
        iters
    });
    iters as f64 / secs
}

/// Queries/sec completed by a `SimReplayClient` against one
/// `SimDnsServer` on a plain `Simulator` with about `in_flight`
/// queries outstanding at any moment: a fixed 10 µs query gap under
/// an RTT of `in_flight` gaps. Work per completion that grows with the
/// pending tables shows up in the small/large pair.
fn sim_complete_throughput(in_flight: u64) -> f64 {
    use ldp_replay::{LatencyLog, SimReplayClient};
    use std::sync::{Arc, Mutex};
    let queries = 100_000u64;
    let gap_us = 10u64;
    let server_addr: SocketAddr = "10.9.0.1:53".parse().expect("server");
    let engine = Arc::new(server_engine(64));
    let trace: Vec<TraceEntry> = (0..queries)
        .map(|i| {
            TraceEntry::query(
                i * gap_us,
                format!("10.1.{}.{}:5000", i % 4, 1 + i % 200)
                    .parse()
                    .expect("src"),
                server_addr,
                i as u16,
                format!("h{}.bench.example", i % 64).parse().expect("qname"),
                RecordType::A,
            )
        })
        .collect();
    let (_, secs) = best_of(3, || {
        let topology = Topology::uniform(PathConfig {
            rtt: SimDuration::from_micros(in_flight * gap_us),
            bandwidth_bps: None,
            loss: 0.0,
        });
        let mut sim = Simulator::new(topology, SimConfig::default());
        let server = dns_server::SimDnsServer::new(engine.clone(), server_addr, None);
        sim.add_host(&[server_addr.ip()], Box::new(server));
        let log: LatencyLog = Arc::new(Mutex::new(Vec::with_capacity(trace.len())));
        let client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        let sources = client.source_addrs();
        let client_id = sim.add_host(&sources, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        sim.run();
        let answered = log.lock().expect("log").len() as u64;
        assert_eq!(answered, queries, "every query completes");
        answered
    });
    queries as f64 / secs
}

/// Resolver-cache ops/sec on the three answer paths the delayed-hits
/// study classifies: plain hits (`get` on a warm store), delayed hits
/// (joining an in-flight resolution in the outstanding table), and full
/// misses (lookup miss → lead registration → completion → insert with
/// eviction, on a store at capacity). Pure data-structure cost — no
/// simulator, no sockets — so the rates bound what the sim resolver can
/// possibly sustain per class.
fn resolver_cache_throughput(iters: u64) -> (f64, f64, f64) {
    use ldp_cache::{CacheConfig, FillInfo, OutstandingTable, PolicyKind, ResolverCache};

    let n_names = 1024usize;
    let names: Vec<dns_wire::Name> = (0..n_names)
        .map(|i| format!("c{i}.bench.example").parse().expect("name"))
        .collect();
    let answer = |i: usize| {
        vec![Record::new(
            names[i].clone(),
            60,
            RData::A(format!("10.4.{}.{}", i / 256, i % 256).parse().expect("a")),
        )]
    };

    // Hit path: a warm unbounded store, cycling reads inside the TTL.
    let mut cache = ResolverCache::unbounded();
    for (i, name) in names.iter().enumerate() {
        cache.put_positive(name, RecordType::A, answer(i), 0.0, FillInfo::default());
    }
    let t0 = Instant::now();
    for i in 0..iters {
        let name = &names[(i as usize) % n_names];
        black_box(cache.get(black_box(name), RecordType::A, 1.0));
    }
    let hit_ps = iters as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(cache.stats().misses, 0, "warm reads must all hit");

    // Delayed-hit path: join an already-in-flight resolution (the
    // coalescing push every waiter after the lead pays), 8 joins per
    // begin/complete cycle like a typical cold-name train.
    let mut table: OutstandingTable<u64> = OutstandingTable::new();
    let joins_per_cycle = 8u64;
    let cycles = iters / joins_per_cycle;
    let t0 = Instant::now();
    for c in 0..cycles {
        let name = &names[(c as usize) % n_names];
        table.begin(name, RecordType::A, c, c, 0.0);
        for w in 0..joins_per_cycle {
            let joined = table.join(black_box(name), RecordType::A, w, 0.0);
            black_box(joined.is_ok());
        }
        black_box(table.complete(name, RecordType::A));
    }
    let delayed_ps = (cycles * joins_per_cycle) as f64 / t0.elapsed().as_secs_f64();
    assert!(table.is_empty(), "every cycle completed");

    // Miss path: a store at half the name count, so every lookup
    // misses (the entry was evicted before its next visit) and every
    // insert evicts — lookup + lead registration + completion + insert
    // + eviction, the full miss bookkeeping.
    let mut cache = ResolverCache::new(CacheConfig::bounded(n_names / 2, PolicyKind::Lru));
    let mut table: OutstandingTable<u64> = OutstandingTable::new();
    let t0 = Instant::now();
    for i in 0..iters {
        let idx = (i as usize) % n_names;
        let name = &names[idx];
        black_box(cache.get(black_box(name), RecordType::A, 0.0));
        table.begin(name, RecordType::A, i, i, 0.0);
        black_box(table.complete(name, RecordType::A));
        black_box(cache.put_positive(name, RecordType::A, answer(idx), 0.0, FillInfo::default()));
    }
    let miss_ps = iters as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(
        cache.stats().hits,
        0,
        "cycling at 2× capacity must never hit"
    );

    (hit_ps, delayed_ps, miss_ps)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());

    // --- Simulator: event throughput on the Blaster ring. ---
    let ticks = 20_000u64;
    println!("sim: 8 hosts × {ticks} ticks (best of 3)…");
    let (heap_events, heap_s) = best_of(3, || sim_run(ticks));
    let heap_eps = heap_events as f64 / heap_s;
    println!("  {heap_eps:>12.0} events/s");

    // --- Telemetry: recording overhead on the identical sim workload
    // (ISSUE 4 acceptance criterion: ≤ 5% on sim events/s). Paired
    // off/on trials, minimum overhead across pairs: machine-load drift
    // between an early baseline and a late telemetry run would
    // otherwise flake the gate.
    // Machine-load drift between runs can dwarf the effect being
    // measured, so the gate interleaves enabled/disabled runs in
    // alternating order (drift and warm-up bias hit both sides
    // equally) and compares the *minimum* time per side: each side's
    // minimum approaches its noise-free cost, while means, medians and
    // totals all inherit the scheduler's tail noise and flake on a
    // busy host.
    println!("telemetry: enabled vs disabled sim run (8 interleaved runs per side)…");
    let mut base_min_s = f64::MAX;
    let mut on_min_s = f64::MAX;
    for round in 0..8 {
        for on_now in [round % 2 == 0, round % 2 != 0] {
            tel::set_enabled(on_now);
            let (events, secs) = best_of(1, || sim_run(ticks));
            tel::set_enabled(false);
            let _ = tel::drain_all(); // discard the recorded marks
            assert_eq!(
                events, heap_events,
                "telemetry must not change the event count"
            );
            if on_now {
                on_min_s = on_min_s.min(secs);
            } else {
                base_min_s = base_min_s.min(secs);
            }
        }
    }
    let tel_eps = heap_events as f64 / on_min_s;
    let telemetry_overhead_pct = ((on_min_s - base_min_s) / base_min_s * 100.0).max(0.0);
    let overhead_ok = telemetry_overhead_pct <= 5.0;
    println!(
        "  enabled {tel_eps:>12.0} events/s — overhead {telemetry_overhead_pct:.2}% (budget 5%) — {}",
        ldp_bench::ok_fail(overhead_ok)
    );

    let ops = 2_000_000u64;
    let (heap_ops, heap_raw_s) = best_of(3, || queue_raw(ops));
    let heap_raw = heap_ops as f64 / heap_raw_s;
    println!("  raw queue: {heap_raw:>12.0} ops/s");

    // --- Sharded simulator: the identical workload on 1/2/8 worker
    // shards. The event-count equality is the cheap equivalence smoke
    // (full transcript equivalence lives in crates/shard/tests); the
    // per-count rates land in the JSON so the shard-scaling study in
    // EXPERIMENTS.md has pinned, reproducible inputs.
    println!("sharded sim: 8 hosts × {ticks} ticks × shards 1/2/8 (best of 3)…");
    let mut sharded_eps = [0f64; 3];
    for (slot, shards) in [1u32, 2, 8].iter().enumerate() {
        let (events, secs) = best_of(3, || sharded_sim_run(*shards, ticks));
        assert_eq!(
            events, heap_events,
            "sharded({shards}) must process the single-shard event count"
        );
        sharded_eps[slot] = events as f64 / secs;
        println!("  shards={shards} {:>12.0} events/s", sharded_eps[slot]);
    }

    // --- Replay: fast-mode UDP throughput to a loopback sink. ---
    let queries = 40_000u64;
    println!("replay: {queries} fast-mode queries…");
    let (sent, replay_s, errors) = replay_qps(queries);
    let qps = sent as f64 / replay_s;
    println!("  {sent} sent in {replay_s:.3} s = {qps:.0} q/s ({errors} errors)");
    assert_eq!(sent, queries, "every query sent");

    // --- Wire: encode/decode round-trip throughput. ---
    let iters = 200_000u64;
    println!("wire: {iters} encode + decode iterations…");
    let (enc_mps, dec_mps, msg_size) = wire_throughput(iters);
    println!("  encode {enc_mps:>12.0} msg/s   decode {dec_mps:>12.0} msg/s   ({msg_size} B msg)");

    let (name_cmp_ps, name_dec_ps) = name_throughput(10 * iters);
    println!("  name cmp {name_cmp_ps:>10.0} /s   name decode {name_dec_ps:>10.0} /s");

    // --- Server: templated vs general answer_udp throughput. ---
    println!("server: {iters} answer_udp iterations × 2 paths…");
    let (template_aps, general_aps) = server_throughput(iters);
    println!(
        "  template {template_aps:>12.0} ans/s   general {general_aps:>12.0} ans/s   (speedup {:.2}×)",
        template_aps / general_aps
    );

    // --- Scaling pairs: the same per-query step over a small and a
    // large table. The gate checks the ratio of each pair, which is
    // taken inside this one process and so is free of the machine
    // noise the absolute rates carry.
    println!("scaling: NXDOMAIN over 100 / 20000 names, select over 16 / 4096 views, replay with 16 / 32768 in flight…");
    let nx = [100usize, 20_000].map(|names| nxdomain_throughput(names, iters));
    println!(
        "  nxdomain     {:>12.0} ans/s   {:>12.0} ans/s",
        nx[0], nx[1]
    );
    let select = [16usize, 4096].map(|views| view_select_throughput(views, 10 * iters));
    println!(
        "  view select  {:>12.0} sel/s   {:>12.0} sel/s",
        select[0], select[1]
    );
    let complete = [16u64, 32_768].map(sim_complete_throughput);
    println!(
        "  sim complete {:>12.0} q/s     {:>12.0} q/s",
        complete[0], complete[1]
    );

    // --- Resolver cache: hit / delayed-hit / miss path ops/sec. ---
    println!("resolver cache: {iters} ops × 3 answer paths…");
    let (cache_hit_ps, cache_delayed_ps, cache_miss_ps) = resolver_cache_throughput(iters);
    println!(
        "  hit {cache_hit_ps:>12.0} ops/s   delayed-hit {cache_delayed_ps:>12.0} ops/s   miss {cache_miss_ps:>12.0} ops/s"
    );

    // Hand-rolled JSON: the workspace has no serializer dependency.
    let json = format!(
        "{{\n  \"sim\": {{\n    \"events\": {heap_events},\n    \"heap_events_per_sec\": {heap_eps:.0},\n    \"raw_queue_heap_ops_per_sec\": {heap_raw:.0},\n    \"telemetry_events_per_sec\": {tel_eps:.0},\n    \"telemetry_overhead_pct\": {telemetry_overhead_pct:.2},\n    \"sharded_events_per_sec_1\": {:.0},\n    \"sharded_events_per_sec_2\": {:.0},\n    \"sharded_events_per_sec_8\": {:.0}\n  }},\n  \"replay\": {{\n    \"queries\": {sent},\n    \"queries_per_sec\": {qps:.0},\n    \"errors\": {errors},\n    \"sim_complete_per_sec_16\": {:.0},\n    \"sim_complete_per_sec_32768\": {:.0}\n  }},\n  \"wire\": {{\n    \"message_bytes\": {msg_size},\n    \"encode_msgs_per_sec\": {enc_mps:.0},\n    \"decode_msgs_per_sec\": {dec_mps:.0},\n    \"encode_mb_per_sec\": {:.1},\n    \"decode_mb_per_sec\": {:.1},\n    \"name_cmp_per_sec\": {name_cmp_ps:.0},\n    \"name_decode_per_sec\": {name_dec_ps:.0}\n  }},\n  \"server\": {{\n    \"template_answers_per_sec\": {template_aps:.0},\n    \"general_answers_per_sec\": {general_aps:.0},\n    \"template_speedup\": {:.3},\n    \"nxdomain_answers_per_sec_100\": {:.0},\n    \"nxdomain_answers_per_sec_20000\": {:.0}\n  }},\n  \"zone\": {{\n    \"view_select_per_sec_16\": {:.0},\n    \"view_select_per_sec_4096\": {:.0}\n  }},\n  \"resolver\": {{\n    \"cache_hit_per_sec\": {cache_hit_ps:.0},\n    \"cache_delayed_hit_per_sec\": {cache_delayed_ps:.0},\n    \"cache_miss_per_sec\": {cache_miss_ps:.0}\n  }}\n}}\n",
        sharded_eps[0],
        sharded_eps[1],
        sharded_eps[2],
        complete[0],
        complete[1],
        enc_mps * msg_size as f64 / 1e6,
        dec_mps * msg_size as f64 / 1e6,
        template_aps / general_aps,
        nx[0],
        nx[1],
        select[0],
        select[1],
    );
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");
    println!("wrote {out_path}");
    if !overhead_ok {
        eprintln!("hotpath: telemetry overhead {telemetry_overhead_pct:.2}% exceeds the 5% budget");
        std::process::exit(1);
    }
}
