//! A synthetic "real Internet" for the zone constructor's one-time
//! fetch (paper §2.3).
//!
//! The paper builds zones by replaying unique queries once against the
//! live Internet and harvesting authoritative responses. A reproduction
//! cannot (and must not) hit the real Internet, so this module builds a
//! deterministic global hierarchy — root, TLDs, and an SLD zone for
//! every name the workload will query — and serves it the way the
//! emulation serves the rebuilt one (§2.4): one [`ServerEngine`] with
//! one view per nameserver address ([`ViewSet::for_hierarchy`]),
//! selected by the address a query is sent to. An address with no view
//! is no server and never replies. The constructor's recursive walk
//! then exercises exactly the code path the paper describes: cold-cache
//! iteration from the root with every referral and glue fetch.

use std::net::{IpAddr, Ipv4Addr};

use dns_resolver::Upstream;
use dns_server::ServerEngine;
use dns_wire::{Message, Name, RData, Record, Soa};
use dns_zone::{Catalog, ViewSet, Zone};

/// One captured exchange, tagged with the authoritative server that
/// answered — the unit the constructor reverses.
#[derive(Debug, Clone)]
pub struct CapturedExchange {
    /// The authoritative server's (public) address.
    pub server: IpAddr,
    /// The response received; its question section echoes the query's.
    pub response: Message,
}

/// The synthetic global hierarchy.
pub struct SimulatedInternet {
    engine: ServerEngine,
    /// Root server addresses (hints for the resolver).
    pub root_addrs: Vec<IpAddr>,
    /// Captured exchanges, appended by [`Upstream::exchange`].
    pub capture: Vec<CapturedExchange>,
    /// Queries answered (for load accounting: zone construction is a
    /// one-time cost, paper §2.3).
    pub queries_served: u64,
}

fn soa_for(origin: &Name) -> Record {
    Record::new(
        origin.clone(),
        86400,
        RData::Soa(Soa {
            mname: format!("ns1.{origin}")
                .parse()
                .unwrap_or_else(|_| origin.clone()),
            rname: "hostmaster.invalid.".parse().unwrap(),
            serial: 20181031,
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 86400,
        }),
    )
}

/// The view of one nameserver address: `zone`, served at `addr`.
fn level(zone: Zone, addr: IpAddr) -> (Name, Vec<IpAddr>, Catalog) {
    let origin = zone.origin().clone();
    let mut catalog = Catalog::new();
    catalog.insert(zone);
    (origin, vec![addr], catalog)
}

impl SimulatedInternet {
    /// Build a hierarchy that can answer every name in `sld_zones`
    /// (distinct names), each zone holding A records for `hosts` labels
    /// plus its apex NS/SOA. TLDs are inferred from the zone names.
    pub fn new(sld_zones: &[String], hosts: &[&str]) -> Self {
        let mut next_ip = 1u32;
        let mut alloc = || {
            let ip = Ipv4Addr::from(0xc600_0000u32 + next_ip); // 198.x pool
            next_ip += 1;
            IpAddr::V4(ip)
        };

        // Infer the TLD set.
        let mut tlds: Vec<Name> = Vec::new();
        let mut sld_names: Vec<Name> = Vec::new();
        for z in sld_zones {
            let name: Name = z.parse().expect("valid zone name");
            let mut tld = name.clone();
            while tld.label_count() > 1 {
                tld = tld.parent().unwrap();
            }
            if !tlds.contains(&tld) {
                tlds.push(tld);
            }
            sld_names.push(name);
        }
        tlds.sort();

        // Allocate nameserver addresses: root, TLDs, SLDs.
        let root_addr = alloc();
        let tlds: Vec<(Name, IpAddr)> = tlds.into_iter().map(|t| (t, alloc())).collect();
        let slds: Vec<(Name, IpAddr)> = sld_names.into_iter().map(|z| (z, alloc())).collect();
        let mut levels = Vec::with_capacity(1 + tlds.len() + slds.len());

        // Root zone: delegations for each TLD.
        let mut root = Zone::new(Name::root());
        root.insert(soa_for(&Name::root())).unwrap();
        root.insert(Record::new(
            Name::root(),
            518400,
            RData::Ns("a.root-servers.net.".parse().unwrap()),
        ))
        .unwrap();
        root.insert(Record::new(
            "a.root-servers.net.".parse().unwrap(),
            518400,
            ip_rdata(root_addr),
        ))
        .unwrap();
        for (tld, addr) in &tlds {
            let ns_name: Name = format!("ns.{tld}").parse().unwrap();
            root.insert(Record::new(tld.clone(), 172800, RData::Ns(ns_name.clone())))
                .unwrap();
            root.insert(Record::new(ns_name, 172800, ip_rdata(*addr)))
                .unwrap();
        }
        levels.push(level(root, root_addr));

        // TLD zones: delegations for each SLD under them.
        for (tld, tld_addr) in &tlds {
            let mut zone = Zone::new(tld.clone());
            zone.insert(soa_for(tld)).unwrap();
            let tld_ns: Name = format!("ns.{tld}").parse().unwrap();
            zone.insert(Record::new(tld.clone(), 172800, RData::Ns(tld_ns.clone())))
                .unwrap();
            zone.insert(Record::new(tld_ns, 172800, ip_rdata(*tld_addr)))
                .unwrap();
            for (sld, addr) in slds.iter().filter(|(s, _)| s.is_proper_subdomain_of(tld)) {
                let ns_name: Name = format!("ns1.{sld}").parse().unwrap();
                zone.insert(Record::new(sld.clone(), 172800, RData::Ns(ns_name.clone())))
                    .unwrap();
                zone.insert(Record::new(ns_name, 172800, ip_rdata(*addr)))
                    .unwrap();
            }
            levels.push(level(zone, *tld_addr));
        }

        // SLD zones: hosts with deterministic addresses.
        for (zi, (sld, addr)) in slds.iter().enumerate() {
            let mut zone = Zone::new(sld.clone());
            zone.insert(soa_for(sld)).unwrap();
            let ns_name: Name = format!("ns1.{sld}").parse().unwrap();
            zone.insert(Record::new(sld.clone(), 3600, RData::Ns(ns_name.clone())))
                .unwrap();
            zone.insert(Record::new(ns_name, 3600, ip_rdata(*addr)))
                .unwrap();
            for (hi, host) in hosts.iter().enumerate() {
                let hname: Name = format!("{host}.{sld}").parse().unwrap();
                let addr = Ipv4Addr::new(203, (zi % 250) as u8, (hi % 250) as u8, 10);
                zone.insert(Record::new(hname, 300, RData::A(addr)))
                    .unwrap();
            }
            levels.push(level(zone, *addr));
        }

        SimulatedInternet {
            engine: ServerEngine::with_views(ViewSet::for_hierarchy(levels)),
            root_addrs: vec![root_addr],
            capture: Vec::new(),
            queries_served: 0,
        }
    }

    /// Number of distinct authoritative servers.
    pub fn server_count(&self) -> usize {
        self.engine.views().len()
    }
}

fn ip_rdata(addr: IpAddr) -> RData {
    match addr {
        IpAddr::V4(v4) => RData::A(v4),
        IpAddr::V6(v6) => RData::Aaaa(v6),
    }
}

impl Upstream for SimulatedInternet {
    fn exchange(&mut self, server: IpAddr, query: &Message) -> Option<Message> {
        // The meta-server answers a query as the server it was sent to;
        // an address with no view is no server.
        self.engine.views().select_index(server)?;
        // The constructor captures at the recursive's upstream
        // interface: every response is recorded with its source.
        let response = self.engine.answer(server, query);
        self.queries_served += 1;
        self.capture.push(CapturedExchange {
            server,
            response: response.clone(),
        });
        Some(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_resolver::IterativeResolver;
    use dns_wire::{Rcode, RecordType};

    fn zones() -> Vec<String> {
        vec![
            "zone0.ex0.com".into(),
            "zone1.ex1.net".into(),
            "zone2.ex2.org".into(),
        ]
    }

    #[test]
    fn builds_expected_server_population() {
        let net = SimulatedInternet::new(&zones(), &["www", "mail"]);
        // 1 root + 3 TLDs + 3 SLDs.
        assert_eq!(net.server_count(), 7);
    }

    #[test]
    fn cold_cache_resolution_succeeds_and_captures() {
        let mut net = SimulatedInternet::new(&zones(), &["www", "mail"]);
        let hints = net.root_addrs.clone();
        let mut resolver = IterativeResolver::new(hints);
        let res = resolver
            .resolve(
                &mut net,
                &"www.zone0.ex0.com".parse().unwrap(),
                RecordType::A,
                0.0,
            )
            .unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        assert_eq!(res.upstream_queries, 3, "root → tld → sld");
        // All three exchanges captured with distinct servers.
        assert_eq!(net.capture.len(), 3);
        let servers: std::collections::HashSet<IpAddr> =
            net.capture.iter().map(|c| c.server).collect();
        assert_eq!(servers.len(), 3);
    }

    #[test]
    fn nonexistent_names_get_nxdomain() {
        let mut net = SimulatedInternet::new(&zones(), &["www"]);
        let hints = net.root_addrs.clone();
        let mut resolver = IterativeResolver::new(hints);
        let res = resolver
            .resolve(
                &mut net,
                &"nope.zone0.ex0.com".parse().unwrap(),
                RecordType::A,
                0.0,
            )
            .unwrap();
        assert_eq!(res.rcode, Rcode::NxDomain);
    }

    #[test]
    fn an_unserved_address_gets_no_reply_and_leaves_no_trace() {
        let mut net = SimulatedInternet::new(&zones(), &["www"]);
        let query = Message::query(1, "www.zone0.ex0.com".parse().unwrap(), RecordType::A);
        // The pool's next address (198.0.0.1–7 are served) and one
        // outside it.
        for server in ["198.0.0.8", "192.0.2.1"] {
            assert_eq!(net.exchange(server.parse().unwrap(), &query), None);
        }
        assert!(net.capture.is_empty());
        assert_eq!(net.queries_served, 0);
    }

    #[test]
    fn deterministic_addressing() {
        let a = SimulatedInternet::new(&zones(), &["www"]);
        let b = SimulatedInternet::new(&zones(), &["www"]);
        assert_eq!(a.root_addrs, b.root_addrs);
        assert_eq!(a.server_count(), b.server_count());
    }
}

/// The per-address-engine Internet this module replaced, kept verbatim
/// as the oracle for `construct`'s properties: one single-zone
/// [`ServerEngine`] per nameserver address, each exchange captured with
/// its query.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;
    use std::net::{IpAddr, Ipv4Addr};

    use dns_resolver::Upstream;
    use dns_server::ServerEngine;
    use dns_wire::{Message, Name, RData, Record};
    use dns_zone::{Catalog, Zone};

    use super::{ip_rdata, soa_for};

    /// One captured query/response exchange, tagged with the
    /// authoritative server that answered.
    #[derive(Debug, Clone)]
    pub struct CapturedExchange {
        pub server: IpAddr,
        pub query: Message,
        pub response: Message,
    }

    /// The synthetic global hierarchy, one engine per address.
    pub struct SimulatedInternet {
        engines: HashMap<IpAddr, ServerEngine>,
        pub root_addrs: Vec<IpAddr>,
        pub capture: Vec<CapturedExchange>,
        pub queries_served: u64,
    }

    impl SimulatedInternet {
        pub fn new(sld_zones: &[String], hosts: &[&str]) -> Self {
            let mut engines = HashMap::new();
            let mut next_ip = 1u32;
            let mut alloc = || {
                let ip = Ipv4Addr::from(0xc600_0000u32 + next_ip); // 198.x pool
                next_ip += 1;
                IpAddr::V4(ip)
            };

            // Infer the TLD set.
            let mut tlds: Vec<Name> = Vec::new();
            let mut sld_names: Vec<Name> = Vec::new();
            for z in sld_zones {
                let name: Name = z.parse().expect("valid zone name");
                let mut tld = name.clone();
                while tld.label_count() > 1 {
                    tld = tld.parent().unwrap();
                }
                if !tlds.contains(&tld) {
                    tlds.push(tld);
                }
                sld_names.push(name);
            }
            tlds.sort();

            // Allocate nameserver addresses.
            let root_addr = alloc();
            let tld_addrs: HashMap<Name, IpAddr> =
                tlds.iter().map(|t| (t.clone(), alloc())).collect();
            let sld_addrs: HashMap<Name, IpAddr> =
                sld_names.iter().map(|z| (z.clone(), alloc())).collect();

            // Root zone: delegations for each TLD.
            let mut root = Zone::new(Name::root());
            root.insert(soa_for(&Name::root())).unwrap();
            root.insert(Record::new(
                Name::root(),
                518400,
                RData::Ns("a.root-servers.net.".parse().unwrap()),
            ))
            .unwrap();
            root.insert(Record::new(
                "a.root-servers.net.".parse().unwrap(),
                518400,
                ip_rdata(root_addr),
            ))
            .unwrap();
            for tld in &tlds {
                let ns_name: Name = format!("ns.{tld}").parse().unwrap();
                root.insert(Record::new(tld.clone(), 172800, RData::Ns(ns_name.clone())))
                    .unwrap();
                root.insert(Record::new(ns_name, 172800, ip_rdata(tld_addrs[tld])))
                    .unwrap();
            }
            let mut cat = Catalog::new();
            cat.insert(root);
            engines.insert(root_addr, ServerEngine::with_catalog(cat));

            // TLD zones: delegations for each SLD under them.
            for tld in &tlds {
                let mut zone = Zone::new(tld.clone());
                zone.insert(soa_for(tld)).unwrap();
                let tld_ns: Name = format!("ns.{tld}").parse().unwrap();
                zone.insert(Record::new(tld.clone(), 172800, RData::Ns(tld_ns.clone())))
                    .unwrap();
                zone.insert(Record::new(tld_ns, 172800, ip_rdata(tld_addrs[tld])))
                    .unwrap();
                for sld in sld_names.iter().filter(|s| s.is_proper_subdomain_of(tld)) {
                    let ns_name: Name = format!("ns1.{sld}").parse().unwrap();
                    zone.insert(Record::new(sld.clone(), 172800, RData::Ns(ns_name.clone())))
                        .unwrap();
                    zone.insert(Record::new(ns_name, 172800, ip_rdata(sld_addrs[sld])))
                        .unwrap();
                }
                let mut cat = Catalog::new();
                cat.insert(zone);
                engines.insert(tld_addrs[tld], ServerEngine::with_catalog(cat));
            }

            // SLD zones: hosts with deterministic addresses.
            for (zi, sld) in sld_names.iter().enumerate() {
                let mut zone = Zone::new(sld.clone());
                zone.insert(soa_for(sld)).unwrap();
                let ns_name: Name = format!("ns1.{sld}").parse().unwrap();
                zone.insert(Record::new(sld.clone(), 3600, RData::Ns(ns_name.clone())))
                    .unwrap();
                zone.insert(Record::new(ns_name, 3600, ip_rdata(sld_addrs[sld])))
                    .unwrap();
                for (hi, host) in hosts.iter().enumerate() {
                    let hname: Name = format!("{host}.{sld}").parse().unwrap();
                    let addr = Ipv4Addr::new(203, (zi % 250) as u8, (hi % 250) as u8, 10);
                    zone.insert(Record::new(hname, 300, RData::A(addr)))
                        .unwrap();
                }
                let mut cat = Catalog::new();
                cat.insert(zone);
                engines.insert(sld_addrs[sld], ServerEngine::with_catalog(cat));
            }

            SimulatedInternet {
                engines,
                root_addrs: vec![root_addr],
                capture: Vec::new(),
                queries_served: 0,
            }
        }
    }

    impl Upstream for SimulatedInternet {
        fn exchange(&mut self, server: IpAddr, query: &Message) -> Option<Message> {
            let engine = self.engines.get(&server)?;
            let response = engine.answer("10.2.0.1".parse().unwrap(), query);
            self.queries_served += 1;
            self.capture.push(CapturedExchange {
                server,
                query: query.clone(),
                response: response.clone(),
            });
            Some(response)
        }
    }
}
