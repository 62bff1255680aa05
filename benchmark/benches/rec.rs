//! `rec_hot` and `rec_wide`: a Rec-17-shaped stub trace through the
//! emulated hierarchy (stub → `SimResolver` + `ldp-cache` → `SimProxy` →
//! meta `SimDnsServer` with one view per reconstructed zone).

use std::collections::BTreeSet;
use std::net::IpAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dns_resolver::{ResolverSnapshot, SimResolver};
use dns_server::{ServerEngine, SimDnsServer};
use ldp_core::emulation::{build_emulation, views_from_hierarchy, EmulationConfig};
use ldp_proxy::SimProxy;
use ldp_trace::TraceEntry;
use netsim::SimTime;
use workloads::RecursiveSpec;
use zone_construct::{build_from_trace, ConstructedHierarchy, SimulatedInternet};

use crate::rig::{
    self, stub_outcome, AnySim, Finish, Rig, RigBuilder, SimKind, Stub, StubQuery, StubRecord,
    Wrapping,
};

/// Virtual time after the last stub query (replies take milliseconds).
const DRAIN_SECS: f64 = 5.0;

pub struct Inputs {
    pub spec: RecursiveSpec,
    pub trace: Vec<TraceEntry>,
    pub hierarchy: ConstructedHierarchy,
    pub queries: Arc<Vec<StubQuery>>,
    pub stub_addrs: Vec<IpAddr>,
    pub one_time_queries: u64,
}

/// The calibrated spec of a workload (README "Calibration").
pub fn spec(wide: bool, scale_div: f64) -> RecursiveSpec {
    let (zones, hosts_per_zone, duration_secs) = if wide { (5000, 8, 7.5) } else { (549, 4, 30.0) };
    RecursiveSpec {
        zones,
        hosts_per_zone,
        clients: 91,
        mean_rate: 4000.0 / scale_div,
        duration_secs,
        ..RecursiveSpec::rec_17()
    }
}

/// Generate the stub trace (and its pre-encoded packets), then run the
/// one-time zone construction. Returns (inputs, generate_s, build_s).
pub fn setup(wide: bool, seed: u64, scale_div: f64) -> (Inputs, f64, f64) {
    let t = Instant::now();
    let spec = spec(wide, scale_div);
    let trace = spec.generate(seed);
    let queries: Vec<StubQuery> = trace
        .iter()
        .map(|e| StubQuery {
            src: e.src,
            id: e.message.id,
            payload: e.message.encode().into(),
        })
        .collect();
    let stub_addrs: BTreeSet<IpAddr> = trace.iter().map(|e| e.src.ip()).collect();
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let labels = &RecursiveSpec::host_labels()[..spec.hosts_per_zone];
    let mut internet = SimulatedInternet::new(&spec.zone_names(), labels);
    let hierarchy = build_from_trace(&trace, &mut internet);
    let build_s = t.elapsed().as_secs_f64();
    assert!(
        hierarchy.unresolved.is_empty(),
        "zone construction left names unresolved"
    );
    let inputs = Inputs {
        spec,
        trace,
        hierarchy,
        queries: Arc::new(queries),
        stub_addrs: stub_addrs.into_iter().collect(),
        one_time_queries: internet.queries_served,
    };
    (inputs, generate_s, build_s)
}

/// A rig plus, for the traced assembly, the resolver's counters.
pub struct RecRig {
    pub rig: Rig,
    pub snapshot: Option<Arc<Mutex<ResolverSnapshot>>>,
}

/// Assemble the emulation and the stub, and schedule one timer per
/// trace entry. With `wrapping` `None` the testbed is exactly
/// `ldp_core::build_emulation`; otherwise it is rebuilt from the same
/// parts in the same host order with every host wrapped, and the
/// resolver publishes its counters.
pub fn assemble(inputs: &Inputs, wrapping: Option<Wrapping>) -> RecRig {
    let t = Instant::now();
    let config = EmulationConfig::default();
    let resolver_addr = config.resolver_addr;
    let log = Arc::new(Mutex::new(vec![StubRecord::default(); inputs.trace.len()]));
    let stub = Box::new(Stub::new(
        resolver_addr,
        inputs.queries.clone(),
        log.clone(),
    ));
    let (mut b, stub_id, snapshot) = match wrapping {
        None => {
            let emu = build_emulation(&inputs.hierarchy, config);
            let mut b = RigBuilder::new(AnySim::Plain(emu.sim), Wrapping::none());
            // Ids 0..3 are build_emulation's meta server, proxy and resolver.
            let stub_id = b.sim.add_host(&inputs.stub_addrs, stub);
            (b, stub_id, None)
        }
        Some(wrapping) => {
            let h = &inputs.hierarchy;
            let engine = Arc::new(ServerEngine::with_views(views_from_hierarchy(h)));
            let sim = AnySim::new(SimKind::Plain, config.topology, config.sim_config);
            let mut b = RigBuilder::new(sim, wrapping);
            b.add_host(
                "dns-server",
                &[config.meta_addr.ip()],
                Box::new(SimDnsServer::new(
                    engine,
                    config.meta_addr,
                    config.server_idle_timeout,
                )),
            );
            b.add_host(
                "proxy",
                &h.all_server_addrs(),
                Box::new(SimProxy::new(config.meta_addr)),
            );
            let root_hints = h
                .zone_servers
                .get(&dns_wire::Name::root())
                .cloned()
                .unwrap_or_default();
            let mut resolver = SimResolver::new(resolver_addr, root_hints);
            let snapshot = Arc::new(Mutex::new(ResolverSnapshot::default()));
            resolver.set_stats_out(snapshot.clone());
            b.add_host("dns-resolver", &[resolver_addr.ip()], Box::new(resolver));
            let stub_id = b.add_host("stub", &inputs.stub_addrs, stub);
            (b, stub_id, Some(snapshot))
        }
    };
    let assemble_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let t0 = inputs.trace.first().map_or(0, |e| e.time_us);
    for (i, e) in inputs.trace.iter().enumerate() {
        b.sim
            .schedule_timer(stub_id, SimTime::from_micros(e.time_us - t0), i as u64);
    }
    let schedule_s = t.elapsed().as_secs_f64();

    let finish: Finish = Box::new(move || stub_outcome(&log.lock().expect("stub log")));
    let rig = b.finish(
        rig::SLICES,
        inputs.spec.duration_secs,
        DRAIN_SECS,
        assemble_s,
        schedule_s,
        finish,
    );
    RecRig { rig, snapshot }
}
