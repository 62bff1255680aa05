//! Integration: the complete LDplayer pipeline across crates —
//! workload generation → zone construction → hierarchy emulation on a
//! single meta-DNS-server → recursive replay — validated against the
//! ground truth of independent per-zone servers.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use ldplayer::core::{build_emulation, views_from_hierarchy, EmulationConfig};
use ldplayer::netsim::{Ctx, Host, PacketBytes, SimTime, TcpEvent};
use ldplayer::resolver::IterativeResolver;
use ldplayer::trace::TraceEntry;
use ldplayer::wire::{Message, RData, Rcode, RecordType};
use ldplayer::workloads::RecursiveSpec;
use ldplayer::zone_construct::{build_from_trace, SimulatedInternet};

fn spec() -> RecursiveSpec {
    RecursiveSpec {
        duration_secs: 60.0,
        mean_rate: 3.0,
        zones: 25,
        ..RecursiveSpec::rec_17()
    }
}

struct Stub {
    me: SocketAddr,
    resolver: SocketAddr,
    trace: Vec<TraceEntry>,
    responses: Arc<Mutex<Vec<Message>>>,
}

impl Host for Stub {
    fn on_udp(&mut self, _ctx: &mut Ctx<'_>, _f: SocketAddr, _t: SocketAddr, data: PacketBytes) {
        if let Ok(m) = Message::decode(&data) {
            self.responses.lock().unwrap().push(m);
        }
    }
    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _e: TcpEvent) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(e) = self.trace.get(token as usize) {
            ctx.send_udp(self.me, self.resolver, e.message.encode());
        }
    }
}

/// The headline claim (paper §2.4): a single server with split-horizon
/// views plus proxies answers a recursive workload *identically* to the
/// real multi-server hierarchy.
#[test]
fn emulated_hierarchy_matches_ground_truth() {
    let spec = spec();
    let trace = spec.generate(99);

    // Ground truth: resolve each unique query against the simulated
    // Internet directly (independent per-zone servers).
    let mut internet = SimulatedInternet::new(&spec.zone_names(), RecursiveSpec::host_labels());
    let hints = internet.root_addrs.clone();
    let mut truth_resolver = IterativeResolver::new(hints);
    let mut truth: std::collections::HashMap<String, Vec<RData>> = Default::default();
    for e in &trace {
        let q = e.message.question().unwrap();
        let key = format!("{} {}", q.name, q.qtype);
        if truth.contains_key(&key) {
            continue;
        }
        let res = truth_resolver
            .resolve(&mut internet, &q.name, q.qtype, 0.0)
            .expect("ground truth resolves");
        let mut rdatas: Vec<RData> = res
            .answers
            .iter()
            .filter(|r| r.rtype() == q.qtype)
            .map(|r| r.rdata.clone())
            .collect();
        rdatas.sort_by_key(|r| format!("{r}"));
        truth.insert(key, rdatas);
    }

    // Construct zones from (fresh) captures and emulate.
    let mut internet2 = SimulatedInternet::new(&spec.zone_names(), RecursiveSpec::host_labels());
    let hierarchy = build_from_trace(&trace, &mut internet2);
    assert!(hierarchy.unresolved.is_empty(), "everything constructible");
    let mut emu = build_emulation(&hierarchy, EmulationConfig::default());

    let responses = Arc::new(Mutex::new(vec![]));
    let stub = emu.sim.add_host(
        &["10.2.200.1".parse().unwrap()],
        Box::new(Stub {
            me: "10.2.200.1:6000".parse().unwrap(),
            resolver: emu.resolver_addr,
            trace: trace.clone(),
            responses: responses.clone(),
        }),
    );
    let t0 = trace[0].time_us;
    for (i, e) in trace.iter().enumerate() {
        emu.sim
            .schedule_timer(stub, SimTime::from_micros(e.time_us - t0), i as u64);
    }
    emu.sim
        .run_until(SimTime::from_secs_f64(spec.duration_secs + 30.0));

    // Compare every response against ground truth.
    let responses = responses.lock().unwrap();
    assert_eq!(responses.len(), trace.len(), "all queries answered");
    let mut compared = 0;
    for resp in responses.iter() {
        assert_eq!(resp.rcode, Rcode::NoError, "resolved through emulation");
        let q = resp.question().unwrap();
        let key = format!("{} {}", q.name, q.qtype);
        let mut got: Vec<RData> = resp
            .answers
            .iter()
            .filter(|r| r.rtype() == q.qtype)
            .map(|r| r.rdata.clone())
            .collect();
        got.sort_by_key(|r| format!("{r}"));
        assert_eq!(
            &got,
            truth.get(&key).expect("truth entry"),
            "answers for {key} match"
        );
        compared += 1;
    }
    assert!(compared > 100, "compared a meaningful number of answers");
}

/// Zone construction is a one-time cost: re-running an experiment reuses
/// the zones, and reconstructed zones round-trip through master files
/// (paper §2.3's "reusable zone files").
#[test]
fn constructed_zones_round_trip_master_files() {
    let spec = spec();
    let trace = spec.generate(7);
    let mut internet = SimulatedInternet::new(&spec.zone_names(), RecursiveSpec::host_labels());
    let hierarchy = build_from_trace(&trace, &mut internet);

    for zone in &hierarchy.zones {
        let text = ldplayer::zone::write_zone(zone);
        let parsed = ldplayer::zone::parse_zone(&text, zone.origin()).expect("parses back");
        assert_eq!(&parsed, zone, "zone {} round-trips", zone.origin());
    }
}

/// The views built from a hierarchy give *different answers to the same
/// query* depending on source address — the split-horizon property that
/// makes one server act as many.
#[test]
fn views_differ_by_source_address() {
    let spec = spec();
    let trace = spec.generate(3);
    let mut internet = SimulatedInternet::new(&spec.zone_names(), RecursiveSpec::host_labels());
    let hierarchy = build_from_trace(&trace, &mut internet);
    let views = views_from_hierarchy(&hierarchy);
    let engine = ldplayer::server::ServerEngine::with_views(views);

    let qname = trace[0].message.question().unwrap().name.clone();
    let query = Message::query(1, qname.clone(), RecordType::A);

    let root_addr = hierarchy.zone_servers[&ldplayer::wire::Name::root()][0];
    let from_root = engine.answer(root_addr, &query);
    assert!(
        from_root.answers.is_empty(),
        "root view refers, never answers"
    );
    assert!(!from_root.authorities.is_empty());

    // The SLD's own server view answers authoritatively.
    let sld_origin = qname.parent().unwrap();
    let sld_addr = hierarchy.zone_servers[&sld_origin][0];
    let from_sld = engine.answer(sld_addr, &query);
    assert!(from_sld.flags.authoritative);
    assert!(!from_sld.answers.is_empty());
}
