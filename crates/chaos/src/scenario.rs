//! The scenario harness: the one testbed the fault studies
//! ([`crate::outage`], [`crate::delayed`], [`crate::recovery`]) are
//! parameterisations of — LDplayer's "one testbed, many what-ifs"
//! (paper §2.2, §5), in the shape of the INET/OMNeT++ DNS models where
//! nodes are composed from parameters, not rebuilt per experiment.
//!
//! It owns what the studies share: the address plan (server farm
//! `10.13.0.{i+1}`, resolver, stub), the SOA-plus-records zone
//! builder, the shared-engine server farm, the uniform-RTT seeded
//! simulator, the [`StubSwarm`] host with its query schedule, and the
//! plan's wiring ([`install`], applied iff the plan has faults).
//! Everything that adds hosts, timers or faults is generic over
//! [`SimDriver`], so a study written on it runs on either engine.
//!
//! A study keeps only what is specific to it: its config and presets,
//! its [`FaultPlan`], its per-query outcome type and its transcript.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_resolver::sim_resolver::SimResolver;
use dns_server::engine::ServerEngine;
use dns_server::sim_server::SimDnsServer;
use dns_wire::rdata::Soa;
use dns_wire::record::Record;
use dns_wire::{Message, Name, RData, Rcode, RecordType};
use dns_zone::catalog::Catalog;
use dns_zone::zone::Zone;
use netsim::{
    Ctx, Host, HostFault, PacketBytes, PathConfig, SimConfig, SimDriver, SimDuration, SimTime,
    Simulator, TcpEvent, Topology,
};

use crate::injector::PlanInjector;
use crate::plan::{FaultEvent, FaultPlan};

/// The recursive resolver's address.
pub const RESOLVER: SocketAddr = SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 1)), 53);
/// The stub swarm's address.
pub const STUB: SocketAddr = SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 2, 0, 1)), 5353);

/// The farm's host octets are 1..=254.
const MAX_SERVERS: usize = 254;
/// A stub query's number is its 16-bit DNS message id.
const MAX_QUERIES: usize = 1 << 16;

/// Address of authoritative server `i` (0-based): `10.13.0.{i+1}`.
///
/// Panics past the farm's last address: a wrapped octet would alias
/// two servers (or name the network address).
pub fn server_addr(i: usize) -> IpAddr {
    assert!(
        i < MAX_SERVERS,
        "server {i} is outside the farm 10.13.0.1-10.13.0.254: servers ≤ {MAX_SERVERS}"
    );
    IpAddr::V4(Ipv4Addr::new(10, 13, 0, i as u8 + 1))
}

/// The farm's first `n` addresses — the resolver's hints and
/// [`server_farm`]'s input.
pub fn server_addrs(n: usize) -> Vec<IpAddr> {
    (0..n).map(server_addr).collect()
}

/// The WAN-ish star the resolver studies run on: every path 40 ms RTT.
pub fn wan_rtt() -> SimDuration {
    SimDuration::from_millis(40)
}

/// A seeded simulator over a uniform star: every path `rtt` at the
/// default link rate.
pub fn simulator(rtt: SimDuration, seed: u64) -> Simulator {
    let config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    Simulator::new(Topology::uniform(PathConfig::with_rtt(rtt)), config)
}

/// A zone with an apex SOA (TTL `soa_ttl`; `minimum` drives negative
/// TTLs, RFC 2308) plus `records`, which must all be in-zone.
pub fn soa_zone(
    origin: &str,
    soa_ttl: u32,
    mname: &str,
    rname: &str,
    serial: u32,
    minimum: u32,
    records: impl IntoIterator<Item = Record>,
) -> Zone {
    let name = |s: &str| s.parse::<Name>().expect("scenario names are valid");
    let mut zone = Zone::new(name(origin));
    let soa = RData::Soa(Soa {
        mname: name(mname),
        rname: name(rname),
        serial,
        refresh: 1800,
        retry: 900,
        expire: 604_800,
        minimum,
    });
    zone.insert(Record::new(name(origin), soa_ttl, soa))
        .expect("apex SOA inserts");
    for rec in records {
        zone.insert(rec).expect("scenario records are in-zone");
    }
    zone
}

/// The A record answering the `i`-th name of a study zone.
pub fn a_record(name: Name, ttl: u32, i: usize) -> Record {
    let ip = Ipv4Addr::new(192, 0, 2, (i % 250) as u8 + 1);
    Record::new(name, ttl, RData::A(ip))
}

/// One UDP/TCP authoritative server per address in `addrs` (port 53,
/// no idle timeout), all serving `zone` from one shared engine.
/// Returns their host ids, in `addrs` order.
pub fn server_farm<S: SimDriver>(sim: &mut S, zone: Zone, addrs: &[IpAddr]) -> Vec<usize> {
    let mut catalog = Catalog::new();
    catalog.insert(zone);
    let engine = Arc::new(ServerEngine::with_catalog(catalog));
    addrs
        .iter()
        .map(|&addr| {
            let server = SimDnsServer::new(engine.clone(), SocketAddr::new(addr, 53), None);
            sim.add_host(&[addr], Box::new(server))
        })
        .collect()
}

/// The recursive resolver at [`RESOLVER`], hinted at `servers`, with
/// the resolver's own 2 s per-attempt timeout. The study sets its own
/// retry and cache knobs before adding it to the simulator.
pub fn resolver(servers: Vec<IpAddr>) -> SimResolver {
    SimResolver::new(RESOLVER, servers)
}

/// Outcome of one stub query.
#[derive(Debug, Clone, Copy, Default)]
pub struct StubRecord {
    /// When the first attempt went out.
    pub first_sent: Option<SimTime>,
    /// When a final answer (usable, or a failure with the attempt
    /// budget spent) arrived.
    pub done: Option<SimTime>,
    /// Whether the final answer was usable: a positive answer, or the
    /// NXDOMAIN the query expected.
    pub ok: bool,
    /// Stub attempts used.
    pub attempts: u32,
    /// Unusable (SERVFAIL-like) responses seen along the way.
    pub servfails: u32,
}

impl StubRecord {
    /// Answer latency from first send, when answered OK.
    pub fn latency(&self) -> Option<SimDuration> {
        match (self.first_sent, self.done, self.ok) {
            (Some(s), Some(d), true) if d >= s => Some(d - s),
            _ => None,
        }
    }
}

/// The stub swarm's shared per-query record table, indexed by query
/// number.
type StubRecords = Arc<Mutex<Vec<StubRecord>>>;

/// The stub swarm: timer token `i` sends query `i` (message id `i`,
/// type A) from `STUB` to [`RESOLVER`], resends it every `retry_gap`
/// while unanswered up to `max_attempts` sends, and records the
/// outcome. An unusable reply leaves the query open for the standing
/// retry timer — possibly served from the resolver's cache if only the
/// answer leg was lost — unless the budget is spent, when it is final.
/// With `max_attempts = 1` that is a fire-once stub: the first reply,
/// whatever it is, closes the query.
pub struct StubSwarm {
    /// Per query: the name asked and whether NXDOMAIN is the expected
    /// (usable) answer.
    queries: Vec<(Name, bool)>,
    records: StubRecords,
    max_attempts: u32,
    retry_gap: SimDuration,
}

impl StubSwarm {
    /// Add a swarm asking `queries` = `(qname, expect_nxdomain)` per
    /// query to `sim` at `STUB`, with one pre-armed timer per query:
    /// query `i` first goes out at `first_at + i·gap`. Returns the
    /// swarm's host id and the record table it fills in.
    ///
    /// Panics if there are more queries than 16-bit message ids: two
    /// queries sharing an id would silently share a record.
    pub fn spawn<S: SimDriver>(
        sim: &mut S,
        queries: Vec<(Name, bool)>,
        max_attempts: u32,
        retry_gap: SimDuration,
        first_at: SimTime,
        gap: SimDuration,
    ) -> (usize, StubRecords) {
        let n = queries.len();
        assert!(
            n <= MAX_QUERIES,
            "{n} stub queries do not fit 16-bit message ids: queries ≤ {MAX_QUERIES}"
        );
        let records = Arc::new(Mutex::new(vec![StubRecord::default(); n]));
        let swarm = StubSwarm {
            queries,
            records: Arc::clone(&records),
            max_attempts,
            retry_gap,
        };
        let stub = sim.add_host(&[STUB.ip()], Box::new(swarm));
        for i in 0..n as u64 {
            sim.schedule_timer(stub, first_at + gap.times(i), i);
        }
        (stub, records)
    }
}

impl Host for StubSwarm {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, _from: SocketAddr, _to: SocketAddr, data: PacketBytes) {
        let Ok(msg) = Message::decode(&data) else {
            return;
        };
        let i = msg.id as usize;
        let Some(&(_, expect_nxdomain)) = self.queries.get(i) else {
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
        let usable = if expect_nxdomain {
            msg.rcode == Rcode::NxDomain
        } else {
            msg.rcode == Rcode::NoError && !msg.answers.is_empty()
        };
        if usable {
            rec.done = Some(ctx.now());
            rec.ok = true;
        } else {
            rec.servfails += 1;
            if rec.attempts >= self.max_attempts {
                rec.done = Some(ctx.now());
            }
        }
    }

    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let i = token as usize;
        let Some((qname, _)) = self.queries.get(i) else {
            return;
        };
        let rearm = {
            let Ok(mut records) = self.records.lock() else {
                return;
            };
            let Some(rec) = records.get_mut(i) else {
                return;
            };
            if rec.done.is_some() || rec.attempts >= self.max_attempts {
                return;
            }
            rec.attempts += 1;
            rec.first_sent.get_or_insert(ctx.now());
            rec.attempts < self.max_attempts
        };
        let query = Message::query(i as u16, qname.clone(), RecordType::A);
        ctx.send_udp(STUB, RESOLVER, query.encode());
        if rearm {
            ctx.set_timer(self.retry_gap, token);
        }
    }
}

/// Wire `plan` into `sim` — a plain [`Simulator`] or an `ldp-shard`
/// `ShardedSimulator`: a [`PlanInjector`] per shard for the
/// packet-level faults (its draws are stateless, see
/// [`crate::injector`]), and each crash or restart as one host-fault
/// event, scheduled in the plan's time order. A querier power-cycle is
/// one plan line but two events: the kill and the comeback. A plan
/// without faults installs nothing, so a fault-free run carries no
/// injector and no fault events and its event counts are those of the
/// bare workload. It adds no host, so it may come before or after the
/// workload hosts.
pub fn install<S: SimDriver>(sim: &mut S, plan: &FaultPlan) {
    if plan.faults.is_empty() {
        return;
    }
    sim.set_fault_injectors(|_shard| Box::new(PlanInjector::new(plan)));
    let mut faults = Vec::new();
    for pf in &plan.faults {
        match pf.fault {
            FaultEvent::ServerCrash { addr } => faults.push((pf.at, addr, HostFault::Crash)),
            FaultEvent::ServerRestart { addr } => faults.push((pf.at, addr, HostFault::Restart)),
            FaultEvent::QuerierCrash { addr, down_for } => {
                faults.push((pf.at, addr, HostFault::Crash));
                faults.push((pf.at + down_for, addr, HostFault::Restart));
            }
            _ => {}
        }
    }
    faults.sort_by_key(|&(at, ..)| at);
    for (at, addr, fault) in faults {
        sim.schedule_host_fault(at, addr, fault);
    }
}

/// A virtual instant as transcript text: nanoseconds, or `-` if it
/// never happened.
pub fn ns_or_dash(t: Option<SimTime>) -> String {
    t.map_or_else(|| "-".to_string(), |t| t.as_nanos().to_string())
}
