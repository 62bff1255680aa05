//! The scan gate: no per-query step may iterate a whole table
//! (DESIGN.md §7). Six steps — an NXDOMAIN answer, a referral with
//! glue, a view selection, a sim-replay completion, a name compressed
//! into a message, a resolver-cache hit and its reply — each run over
//! a small and a large table in this one process, so machine noise
//! cancels in the ratio. A tree probe costs
//! about 3× more over the large table (log 4096 / log 16; measured
//! ratios 0.25–0.8), a scan 200× or more (the scans these steps
//! replaced read 0.002, 0.004 and 0.03), so the large-table rate must
//! stay above a tenth of the small-table one. Prints one line
//! per pair and exits 1 if any falls below; no absolute rate is judged
//! and nothing is written.
//!
//! `cargo run --release -p ldp-bench --bin scan_gate`

use std::hint::black_box;
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dns_resolver::StubHead;
use dns_server::{ServerEngine, SimDnsServer};
use dns_wire::{EncodeScratch, Message, Name, RData, Rcode, Record, RecordType, Soa};
use dns_zone::{Catalog, ClientMatch, View, ViewSet, Zone};
use ldp_cache::{FillInfo, ResolverCache};
use ldp_replay::{LatencyLog, SimReplayClient};
use ldp_trace::TraceEntry;
use netsim::{PathConfig, SimConfig, SimDuration, SimTime, Simulator, Topology};

/// Steps per second over the fastest of three passes of `steps` steps.
#[allow(
    clippy::disallowed_methods,
    reason = "D1: the gate times a step on the wall clock"
)]
fn rate(steps: u64, mut pass: impl FnMut()) -> f64 {
    let fastest = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min);
    steps as f64 / fastest
}

/// An authoritative engine over one unsigned zone of `names` A records.
fn server_engine(names: usize) -> ServerEngine {
    engine((0..names).map(|i| {
        Record::new(
            format!("h{i}.bench.example").parse().expect("name"),
            60,
            RData::A(format!("10.1.{}.{}", i / 256, i % 256).parse().expect("a")),
        )
    }))
}

/// An authoritative engine over one unsigned zone of `cuts`
/// delegations, `d<i>.bench.example`, each with one glued nameserver.
fn delegating_engine(cuts: usize) -> ServerEngine {
    engine((0..cuts).flat_map(|i| {
        let cut: Name = format!("d{i}.bench.example").parse().expect("cut");
        let ns = cut.child(b"ns").expect("ns");
        let glue = RData::A([10, 3, (i / 256) as u8, (i % 256) as u8].into());
        [
            Record::new(cut, 60, RData::Ns(ns.clone())),
            Record::new(ns, 60, glue),
        ]
    }))
}

/// An authoritative engine over one unsigned zone: an SOA and `records`.
fn engine(records: impl Iterator<Item = Record>) -> ServerEngine {
    let origin: Name = "bench.example".parse().expect("origin");
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
    for record in records {
        zone.insert(record).expect("record");
    }
    let mut cat = Catalog::new();
    cat.insert(zone);
    ServerEngine::with_catalog(cat)
}

/// NXDOMAIN answers/sec through `answer_udp` over a zone of `names`
/// names: a walk over the zone on the negative-answer path shows here.
fn nxdomain_rate(names: usize) -> f64 {
    let qname = |i| format!("missing{i}.bench.example");
    answer_rate(server_engine(names), qname, |response| {
        assert_eq!(response.rcode, Rcode::NxDomain, "the row measures NXDOMAIN");
    })
}

/// Referrals/sec through `answer_udp` from a zone of `cuts`
/// delegations, each answer an NS record and its glue: a cut search or
/// a glue search that walks the zone shows here.
fn referral_rate(cuts: usize) -> f64 {
    let qname = |i| format!("www.d{}.bench.example", i * cuts / 64);
    answer_rate(delegating_engine(cuts), qname, |response| {
        assert!(!response.flags.authoritative, "the row measures a referral");
        let glued = [response.authorities.len(), response.additionals.len()];
        assert_eq!(glued, [1, 1], "one NS record and its glue");
    })
}

/// Answers/sec through `engine.answer_udp` to 64 A queries for
/// `qname(0..64)`, once `check` has read the first response.
fn answer_rate(
    engine: ServerEngine,
    qname: impl Fn(usize) -> String,
    check: impl FnOnce(Message),
) -> f64 {
    let src: IpAddr = "10.2.0.1".parse().expect("src");
    let queries: Vec<Message> = (0..64)
        .map(|i| Message::query(i as u16, qname(i).parse().expect("qname"), RecordType::A))
        .collect();
    let (bytes, _) = engine.answer_udp(src, &queries[0]);
    check(Message::decode(&bytes).expect("decodes"));
    // A pass of ≈ 50 ms on the tree; under a zone walk, ten minutes
    // for the run, where 200 k steps made it a hundred.
    let steps = 20_000;
    rate(steps, || {
        for i in 0..steps as usize {
            let q = &queries[i % queries.len()];
            black_box(engine.answer_udp(src, black_box(q)));
        }
    })
}

/// `ViewSet::select` calls/sec over `views` exact-address views, the
/// shape hierarchy emulation builds, probing the address of the last
/// one — the worst case for a first-match scan.
fn view_select_rate(views: usize) -> f64 {
    let addr = |i: usize| IpAddr::from([10, 8, (i / 256) as u8, (i % 256) as u8]);
    let mut set = ViewSet::new();
    for i in 0..views {
        let matchers = vec![ClientMatch::Exact(addr(i))];
        set.push(View::new(format!("v{i}"), matchers, Catalog::new()));
    }
    let probe = addr(views - 1);
    assert_eq!(set.select_index(probe), Some(views - 1));
    // Under a scan of `KeyTable`'s 8,192-slot index, these steps make
    // the gate slow, not red quickly: with every table user scanning it
    // ran past 10 minutes and was killed (with only the cache scanning,
    // 5 min 35 s).
    let steps = 2_000_000;
    rate(steps, || {
        for _ in 0..steps {
            black_box(set.select(black_box(probe)));
        }
    })
}

/// Queries/sec completed by a `SimReplayClient` against one
/// `SimDnsServer` with about `in_flight` queries outstanding at any
/// moment: a fixed 10 µs query gap under an RTT of `in_flight` gaps.
/// Work per completion that grows with the pending tables shows here.
fn sim_complete_rate(in_flight: usize) -> f64 {
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
    rate(queries, || {
        let topology = Topology::uniform(PathConfig {
            rtt: SimDuration::from_micros(in_flight as u64 * gap_us),
            bandwidth_bps: None,
            loss: 0.0,
        });
        let mut sim = Simulator::new(topology, SimConfig::default());
        let server = SimDnsServer::new(engine.clone(), server_addr, None);
        sim.add_host(&[server_addr.ip()], Box::new(server));
        let log: LatencyLog = Arc::new(Mutex::new(Vec::with_capacity(trace.len())));
        let client = SimReplayClient::new(trace.clone(), server_addr, log.clone());
        let sources = client.source_addrs();
        let client_id = sim.add_host(&sources, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &trace, SimTime::ZERO);
        sim.run();
        let answered = log.lock().expect("log").len() as u64;
        assert_eq!(answered, queries, "every query completes");
    })
}

/// Names/sec encoded into one response holding `names` A records with
/// distinct owners under one zone, through one reused scratch. Each
/// owner, `a.b.c.h<i>.bench.example`, is four searches among the
/// suffixes the message has written (its four new ones miss); owners
/// past offset 0x3fff are searched but not recorded. A search that walks
/// what the message holds shows here: 1,500 names fill a 43 KB response,
/// as a TCP answer may, and about 2,300 suffixes are recorded.
fn compress_rate(names: usize) -> f64 {
    let mut msg =
        Message::query(1, "h0.bench.example".parse().expect("qname"), RecordType::A).response_to();
    for i in 0..names {
        msg.answers.push(Record::new(
            format!("a.b.c.h{i}.bench.example").parse().expect("owner"),
            60,
            RData::A([10, 1, (i / 256) as u8, (i % 256) as u8].into()),
        ));
    }
    let mut scratch = EncodeScratch::new();
    let wire = msg.encode_into(&mut scratch).to_vec();
    assert_eq!(Message::decode(&wire).expect("decodes"), msg);
    let encodes = 200_000 / names;
    rate((encodes * names) as u64, || {
        for _ in 0..encodes {
            black_box(black_box(&msg).encode_into(&mut scratch).len());
        }
    })
}

/// Cache hits/sec over a cache of `entries` resident answers, cycling
/// through 64 of them spread over the whole cache: each step is the
/// resolver's whole hit, `ResolverCache::lookup` and the reply written
/// from the entry (`StubHead::write_hit`), so a walk of the entries on
/// the lookup or on the write shows here.
fn cache_hit_rate(entries: usize) -> f64 {
    let name = |i: usize| -> Name { format!("h{i}.bench.example").parse().expect("name") };
    let mut cache = ResolverCache::unbounded();
    for i in 0..entries {
        let record = Record::new(name(i), 3600, RData::A([10, 4, 0, 1].into()));
        let out = cache.put_positive(
            &name(i),
            RecordType::A,
            vec![record],
            0.0,
            FillInfo::default(),
        );
        assert!(out.inserted, "an answer is cached");
    }
    let probes: Vec<Name> = (0..64).map(|i| name(i * entries / 64)).collect();
    let mut query = Message::query(7, name(0), RecordType::A);
    query.set_dnssec_ok(true);
    let head = StubHead::of(&query);
    let mut scratch = EncodeScratch::new();
    // A pass of ≈ 75 ms on the table; a scan of the index made the
    // whole gate take 5 min 35 s (ratio 0.001).
    let steps = 500_000;
    rate(steps, || {
        for i in 0..steps as usize {
            let q = &probes[i % probes.len()];
            let hit = cache.lookup(black_box(q), RecordType::A, 1.0);
            let reply = hit.map(|hit| head.write_hit(q, RecordType::A, hit, &mut scratch));
            black_box(reply.map_or(0, <[u8]>::len));
        }
    })
}

fn main() {
    ldp_bench::reject_unknown_flags(&[]);
    let pairs = [
        (
            "NXDOMAIN answer, 100 / 20000 names",
            [100, 20_000].map(nxdomain_rate),
        ),
        (
            "referral with glue, 100 / 20000 delegations",
            [100, 20_000].map(referral_rate),
        ),
        (
            "view selection, 16 / 4096 views",
            [16, 4096].map(view_select_rate),
        ),
        (
            "sim replay completion, 16 / 32768 in flight",
            [16, 32_768].map(sim_complete_rate),
        ),
        (
            "name compression, 16 / 1,500 distinct names in one message",
            [16, 1500].map(compress_rate),
        ),
        (
            "cache hit, 100 / 20,000 resident entries",
            [100, 20_000].map(cache_hit_rate),
        ),
    ];
    let mut all_ok = true;
    for (step, [small, large]) in pairs {
        let ok = large * 10.0 >= small;
        all_ok &= ok;
        println!(
            "gate: {step}: {small:.0} /s, {large:.0} /s, ratio {:.3} (>= 0.1: else a scan) — {}",
            large / small,
            ldp_bench::ok_fail(ok)
        );
    }
    if !all_ok {
        std::process::exit(1);
    }
}
