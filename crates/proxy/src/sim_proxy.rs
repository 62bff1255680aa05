//! The proxy pair as a [`netsim`] host.
//!
//! In the paper, a TUN interface plus iptables rules capture every
//! packet whose destination is a public nameserver address (they are
//! non-routable inside the testbed) and hand them to the recursive
//! proxy; the authoritative proxy symmetrically captures the meta
//! server's replies. In the simulator the same capture falls out of
//! address ownership: this host *owns every emulated public nameserver
//! address*, so the recursive's queries route to it naturally, and the
//! meta server's replies (addressed to the OQDA) route back to it too.
//! One host therefore performs both §2.4 rewrites, faithfully producing
//! the packet sequence of the paper's Figure 2.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]

use std::net::SocketAddr;

use netsim::{Ctx, Host, PacketBytes, TcpEvent};

use crate::rewrite::{rewrite_inbound, rewrite_outbound, FlowTable};

/// Counters for the proxy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyStats {
    /// Queries forwarded to the meta server.
    pub forwarded_queries: u64,
    /// Replies forwarded back to the recursive.
    pub forwarded_replies: u64,
    /// Replies with no matching flow (dropped).
    pub orphan_replies: u64,
}

/// The simulated hierarchy-emulation proxy.
pub struct SimProxy {
    meta: SocketAddr,
    flows: FlowTable,
    /// Live counters.
    pub stats: ProxyStats,
}

impl SimProxy {
    /// New proxy forwarding to the meta-DNS-server at `meta`.
    ///
    /// Register this host in the simulator with *all* public nameserver
    /// addresses from the reconstructed zones.
    pub fn new(meta: SocketAddr) -> Self {
        SimProxy {
            meta,
            flows: FlowTable::with_defaults(),
            stats: ProxyStats::default(),
        }
    }
}

impl Host for SimProxy {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, data: PacketBytes) {
        if from == self.meta {
            // A reply from the meta server: `to` is (oqda_ip, flow_port).
            match self.flows.remove(to.port()) {
                Some(flow) => {
                    let (src, dst) = rewrite_inbound(flow);
                    self.stats.forwarded_replies += 1;
                    ctx.send_udp(src, dst, data);
                }
                None => {
                    self.stats.orphan_replies += 1;
                }
            }
        } else if to.port() == 53 {
            // A captured query to a public NS address (the OQDA is `to`).
            let flow_port = self.flows.insert(from, to);
            let (src, dst) = rewrite_outbound(to, flow_port, self.meta);
            self.stats.forwarded_queries += 1;
            ctx.send_udp(src, dst, data);
        }
        // Anything else (e.g. stray packets) is dropped, as the paper's
        // non-routable leak handling does.
    }

    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {
        // The §2.4 proxy path is UDP (iterative resolver traffic).
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_server::{ServerEngine, SimDnsServer};
    use dns_wire::{Message, Name, RData, Rcode, Record, RecordType, Soa};
    use dns_zone::{Catalog, ViewSet, Zone};
    use netsim::{PathConfig, SimConfig, SimDuration, SimTime, Simulator, Topology};
    use std::net::IpAddr;
    use std::sync::{Arc, Mutex};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn soa(origin: &str) -> Record {
        Record::new(
            n(origin),
            60,
            RData::Soa(Soa {
                mname: n("ns1.example"),
                rname: n("a.example"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 60,
            }),
        )
    }

    /// Meta engine with root/com/google views keyed by public NS addrs.
    fn meta_engine() -> Arc<ServerEngine> {
        let mut root = Zone::new(Name::root());
        root.insert(soa(".")).unwrap();
        root.insert(Record::new(
            Name::root(),
            1,
            RData::Ns(n("a.root-servers.net")),
        ))
        .unwrap();
        root.insert(Record::new(n("com"), 1, RData::Ns(n("a.gtld-servers.net"))))
            .unwrap();
        root.insert(Record::new(
            n("a.gtld-servers.net"),
            1,
            RData::A("192.5.6.30".parse().unwrap()),
        ))
        .unwrap();
        root.insert(Record::new(
            n("a.root-servers.net"),
            1,
            RData::A("198.41.0.4".parse().unwrap()),
        ))
        .unwrap();

        let mut com = Zone::new(n("com"));
        com.insert(soa("com")).unwrap();
        com.insert(Record::new(n("com"), 1, RData::Ns(n("a.gtld-servers.net"))))
            .unwrap();
        com.insert(Record::new(
            n("google.com"),
            1,
            RData::Ns(n("ns1.google.com")),
        ))
        .unwrap();
        com.insert(Record::new(
            n("ns1.google.com"),
            1,
            RData::A("216.239.32.10".parse().unwrap()),
        ))
        .unwrap();

        let mut google = Zone::new(n("google.com"));
        google.insert(soa("google.com")).unwrap();
        google
            .insert(Record::new(
                n("google.com"),
                1,
                RData::Ns(n("ns1.google.com")),
            ))
            .unwrap();
        google
            .insert(Record::new(
                n("www.google.com"),
                300,
                RData::A("142.250.80.36".parse().unwrap()),
            ))
            .unwrap();

        let mk = |z: Zone| {
            let mut c = Catalog::new();
            c.insert(z);
            c
        };
        let views = ViewSet::for_hierarchy(vec![
            (Name::root(), vec![ip("198.41.0.4")], mk(root)),
            (n("com"), vec![ip("192.5.6.30")], mk(com)),
            (n("google.com"), vec![ip("216.239.32.10")], mk(google)),
        ]);
        Arc::new(ServerEngine::with_views(views))
    }

    /// A stub that fires one query at the resolver and records replies.
    struct Stub {
        me: SocketAddr,
        resolver: SocketAddr,
        qname: Name,
        replies: Arc<Mutex<Vec<Message>>>,
    }

    impl Host for Stub {
        fn on_udp(
            &mut self,
            _ctx: &mut Ctx<'_>,
            _f: SocketAddr,
            _t: SocketAddr,
            data: PacketBytes,
        ) {
            self.replies
                .lock()
                .unwrap()
                .push(Message::decode(&data).unwrap());
        }
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _e: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            let q = Message::query(77, self.qname.clone(), RecordType::A);
            ctx.send_udp(self.me, self.resolver, q.encode());
        }
    }

    /// The paper's Figure 2 topology, end to end: stub → recursive →
    /// proxy (owning all public NS addresses) → meta-DNS-server, and all
    /// the way back. The recursive must walk root → com → google.com
    /// through the *single* server and get the right final answer.
    #[test]
    fn full_hierarchy_emulation_resolves_through_one_server() {
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(2))),
            SimConfig::default(),
        );
        let meta_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        let resolver_addr: SocketAddr = "10.2.0.1:53".parse().unwrap();

        sim.add_host(
            &[meta_addr.ip()],
            Box::new(SimDnsServer::new(meta_engine(), meta_addr, None)),
        );
        // The proxy owns every public nameserver address.
        sim.add_host(
            &[ip("198.41.0.4"), ip("192.5.6.30"), ip("216.239.32.10")],
            Box::new(SimProxy::new(meta_addr)),
        );
        sim.add_host(
            &[resolver_addr.ip()],
            Box::new(dns_resolver::SimResolver::new(
                resolver_addr,
                vec![ip("198.41.0.4")],
            )),
        );
        let replies = Arc::new(Mutex::new(vec![]));
        let stub = sim.add_host(
            &[ip("10.2.1.1")],
            Box::new(Stub {
                me: "10.2.1.1:5000".parse().unwrap(),
                resolver: resolver_addr,
                qname: n("www.google.com"),
                replies: replies.clone(),
            }),
        );
        sim.schedule_timer(stub, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(10.0));

        let replies = replies.lock().unwrap();
        assert_eq!(replies.len(), 1, "stub got an answer");
        let resp = &replies[0];
        assert_eq!(resp.id, 77);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(
            resp.answers.last().unwrap().rdata,
            RData::A("142.250.80.36".parse().unwrap())
        );
        assert!(resp.flags.recursion_available);
    }

    #[test]
    fn proxy_counts_and_clears_flows() {
        // Same topology; inspect the proxy after the run.
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(1))),
            SimConfig::default(),
        );
        let meta_addr: SocketAddr = "10.9.0.1:53".parse().unwrap();
        let resolver_addr: SocketAddr = "10.2.0.1:53".parse().unwrap();
        sim.add_host(
            &[meta_addr.ip()],
            Box::new(SimDnsServer::new(meta_engine(), meta_addr, None)),
        );
        let proxy_id = sim.add_host(
            &[ip("198.41.0.4"), ip("192.5.6.30"), ip("216.239.32.10")],
            Box::new(SimProxy::new(meta_addr)),
        );
        sim.add_host(
            &[resolver_addr.ip()],
            Box::new(dns_resolver::SimResolver::new(
                resolver_addr,
                vec![ip("198.41.0.4")],
            )),
        );
        let replies = Arc::new(Mutex::new(vec![]));
        let stub = sim.add_host(
            &[ip("10.2.1.1")],
            Box::new(Stub {
                me: "10.2.1.1:5000".parse().unwrap(),
                resolver: resolver_addr,
                qname: n("www.google.com"),
                replies: replies.clone(),
            }),
        );
        sim.schedule_timer(stub, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(10.0));

        // Take the proxy back out of the simulator to inspect.
        let host = sim.host(proxy_id);
        // Downcasting isn't supported on dyn Host; instead assert via
        // behaviour: the stub got its reply (previous test) and we can
        // at least ensure the sim processed the three-level walk by
        // counting UDP at the proxy host.
        let _ = host;
        let stats = sim.stats(proxy_id);
        // 3 queries captured + 3 replies returned = 6 rx; 6 tx.
        assert_eq!(
            stats.udp_rx, 6,
            "3 iterative queries + 3 replies pass the proxy"
        );
        assert_eq!(stats.udp_tx, 6);
        assert_eq!(replies.lock().unwrap().len(), 1);
    }
}
