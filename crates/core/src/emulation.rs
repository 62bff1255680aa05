//! Hierarchy-emulation assembly: glue the constructed zones, the
//! split-horizon meta-DNS-server, the proxies and a recursive resolver
//! into the paper's Figure 1/2 testbed — in one call.

use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;

use dns_resolver::SimResolver;
use dns_server::{ServerEngine, SimDnsServer};
use dns_zone::{Catalog, ViewSet};
use ldp_proxy::SimProxy;
use netsim::{HostId, SimConfig, SimDuration, Simulator, Topology};
use zone_construct::ConstructedHierarchy;

/// Build the split-horizon view set from a constructed hierarchy: one
/// view per zone, matched by that zone's public nameserver addresses.
pub fn views_from_hierarchy(h: &ConstructedHierarchy) -> ViewSet {
    let levels = h.zones.iter().filter_map(|zone| {
        let origin = zone.origin().clone();
        let addrs = h.zone_servers.get(&origin)?.clone();
        if addrs.is_empty() {
            return None;
        }
        let mut catalog = Catalog::new();
        catalog.insert(zone.clone());
        Some((origin, addrs, catalog))
    });
    ViewSet::for_hierarchy(levels)
}

/// The assembled simulated testbed (paper Figure 2): stub-facing
/// recursive resolver, proxy owning every public nameserver address,
/// and a single meta-DNS-server answering all levels.
pub struct EmulatedHierarchy {
    /// The simulator holding all hosts.
    pub sim: Simulator,
    /// Host id of the meta-DNS-server.
    pub meta_server: HostId,
    /// Host id of the proxy.
    pub proxy: HostId,
    /// Host id of the recursive resolver.
    pub resolver: HostId,
    /// The resolver's service address (point stubs here).
    pub resolver_addr: SocketAddr,
    /// The meta server's address.
    pub meta_addr: SocketAddr,
}

/// Configuration for the emulated testbed.
#[derive(Debug, Clone)]
pub struct EmulationConfig {
    /// The meta server's address.
    pub meta_addr: SocketAddr,
    /// The recursive resolver's address.
    pub resolver_addr: SocketAddr,
    /// Network topology (RTTs, loss).
    pub topology: Topology,
    /// Protocol constants.
    pub sim_config: SimConfig,
    /// Idle timeout on the meta server's TCP connections.
    pub server_idle_timeout: Option<SimDuration>,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            meta_addr: "10.9.0.1:53".parse().unwrap(),
            resolver_addr: "10.2.0.1:53".parse().unwrap(),
            topology: Topology::default(),
            sim_config: SimConfig::default(),
            server_idle_timeout: Some(SimDuration::from_secs(20)),
        }
    }
}

/// Assemble the full Figure 2 testbed from a constructed hierarchy.
///
/// The returned simulator has three hosts: the meta-DNS-server (with one
/// view per reconstructed zone), the proxy (owning every public
/// nameserver address so it captures all iterative traffic), and a
/// recursive resolver rooted at the reconstructed root's addresses.
pub fn build_emulation(h: &ConstructedHierarchy, config: EmulationConfig) -> EmulatedHierarchy {
    let views = views_from_hierarchy(h);
    let engine = Arc::new(ServerEngine::with_views(views));
    let mut sim = Simulator::new(config.topology, config.sim_config);

    let meta_server = sim.add_host(
        &[config.meta_addr.ip()],
        Box::new(SimDnsServer::new(
            engine,
            config.meta_addr,
            config.server_idle_timeout,
        )),
    );

    let public_addrs = h.all_server_addrs();
    assert!(
        !public_addrs.is_empty(),
        "hierarchy has no public nameserver addresses"
    );
    let proxy = sim.add_host(&public_addrs, Box::new(SimProxy::new(config.meta_addr)));

    let root_hints: Vec<IpAddr> = h
        .zone_servers
        .get(&dns_wire::Name::root())
        .cloned()
        .unwrap_or_default();
    assert!(!root_hints.is_empty(), "no root servers reconstructed");
    let resolver = sim.add_host(
        &[config.resolver_addr.ip()],
        Box::new(SimResolver::new(config.resolver_addr, root_hints)),
    );

    EmulatedHierarchy {
        sim,
        meta_server,
        proxy,
        resolver,
        resolver_addr: config.resolver_addr,
        meta_addr: config.meta_addr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Message, RecordType};
    use ldp_trace::TraceEntry;
    use netsim::{Ctx, Host, PacketBytes, SimTime, TcpEvent};
    use std::sync::Mutex;
    use zone_construct::{build_from_trace, SimulatedInternet};

    /// Stub host that fires trace queries at the resolver and records
    /// responses.
    struct StubDriver {
        me: SocketAddr,
        resolver: SocketAddr,
        trace: Vec<TraceEntry>,
        responses: Arc<Mutex<Vec<Message>>>,
    }

    impl Host for StubDriver {
        fn on_udp(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _f: SocketAddr,
            _t: SocketAddr,
            data: PacketBytes,
        ) {
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

    /// End-to-end: generate a workload → construct zones from the
    /// simulated Internet → emulate the hierarchy on ONE server →
    /// resolve the same workload through it. (The paper's whole point.)
    #[test]
    fn constructed_hierarchy_replays_correctly() {
        let zone_names: Vec<String> = (0..6).map(|i| format!("zone{i}.ex{i}.com")).collect();
        let mut internet = SimulatedInternet::new(&zone_names, &["www", "mail"]);

        // The queries the experiment will replay.
        let trace: Vec<TraceEntry> = zone_names
            .iter()
            .enumerate()
            .map(|(i, z)| {
                TraceEntry::query(
                    (i as u64) * 200_000,
                    format!("10.2.1.{}:5000", i + 1).parse().unwrap(),
                    "10.2.0.1:53".parse().unwrap(),
                    (i + 1) as u16,
                    format!("www.{z}").parse().unwrap(),
                    RecordType::A,
                )
            })
            .collect();

        // One-time zone construction.
        let hierarchy = build_from_trace(&trace, &mut internet);
        assert!(hierarchy.unresolved.is_empty());

        // Assemble the testbed.
        let mut emu = build_emulation(&hierarchy, EmulationConfig::default());

        // Drive the stub queries.
        let responses = Arc::new(Mutex::new(vec![]));
        let stub = emu.sim.add_host(
            &["10.2.200.1".parse().unwrap()],
            Box::new(StubDriver {
                me: "10.2.200.1:6000".parse().unwrap(),
                resolver: emu.resolver_addr,
                trace: trace.clone(),
                responses: responses.clone(),
            }),
        );
        for (i, e) in trace.iter().enumerate() {
            emu.sim
                .schedule_timer(stub, SimTime::from_nanos(e.time_us * 1000), i as u64);
        }
        emu.sim.run_until(SimTime::from_secs_f64(30.0));

        let responses = responses.lock().unwrap();
        assert_eq!(responses.len(), trace.len(), "every stub query answered");
        for resp in responses.iter() {
            assert_eq!(resp.rcode, dns_wire::Rcode::NoError, "resolved: {resp}");
            assert!(!resp.answers.is_empty(), "has answers: {resp}");
        }

        // The meta server (a single host!) answered every iterative
        // query — multiple independent levels on one server. The first
        // resolution walks all three levels; later ones reuse cached
        // delegations (root/com) and take two, so the floor is 2n + 1.
        let meta_stats = emu.sim.stats(emu.meta_server);
        assert!(
            meta_stats.udp_rx > 2 * trace.len() as u64,
            "meta server saw the iterative walks: {}",
            meta_stats.udp_rx
        );
    }

    #[test]
    fn views_match_zone_count() {
        let zone_names: Vec<String> = (0..3).map(|i| format!("z{i}.example.com")).collect();
        let mut internet = SimulatedInternet::new(&zone_names, &["www"]);
        let trace: Vec<TraceEntry> = zone_names
            .iter()
            .enumerate()
            .map(|(i, z)| {
                TraceEntry::query(
                    i as u64,
                    "10.2.1.1:5000".parse().unwrap(),
                    "10.2.0.1:53".parse().unwrap(),
                    i as u16,
                    format!("www.{z}").parse().unwrap(),
                    RecordType::A,
                )
            })
            .collect();
        let h = build_from_trace(&trace, &mut internet);
        let views = views_from_hierarchy(&h);
        // root + com + example.com? The internet builds TLD "com" and
        // SLDs z0..z2.example.com; example.com exists only as an empty
        // non-terminal so origins are root, com, and the three SLDs.
        assert!(views.len() >= 5, "views: {}", views.len());
    }
}
