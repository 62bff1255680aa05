//! Synchronous iterative resolution: the blocking driver of the
//! resolution core (`core.rs`, which says what each response means —
//! referral, CNAME restart, glue-less nameserver, negative answer,
//! loop). It walks the hierarchy from the root hints the way a
//! cold-cache recursive does for each query (paper §2.3/§2.4).
//!
//! The transport is abstracted behind [`Upstream`], so the same logic
//! resolves against the in-process simulated Internet (zone
//! construction), a set of `ServerEngine`s, or anything else.

use std::net::IpAddr;

use dns_wire::{Message, Name, Rcode, Record, RecordType};

use ldp_cache::{CachedAnswer, FillInfo, ResolverCache};

pub use crate::core::ResolveError;
use crate::core::{ResolveCore, Step, Walk};

/// Where iterative queries go: given a target server address and a
/// query, produce its response (or `None` for timeout/unreachable).
pub trait Upstream {
    /// Perform one query/response exchange.
    fn exchange(&mut self, server: IpAddr, query: &Message) -> Option<Message>;
}

/// Blanket impl so closures can serve as upstreams in tests.
impl<F> Upstream for F
where
    F: FnMut(IpAddr, &Message) -> Option<Message>,
{
    fn exchange(&mut self, server: IpAddr, query: &Message) -> Option<Message> {
        self(server, query)
    }
}

/// Outcome of one resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// Final rcode.
    pub rcode: Rcode,
    /// Answer records (CNAME chain included).
    pub answers: Vec<Record>,
    /// Number of upstream queries it took.
    pub upstream_queries: usize,
    /// Whether any part was served from cache.
    pub from_cache: bool,
}

/// An iterative resolver with cache and root hints: the blocking driver
/// of the resolution core.
pub struct IterativeResolver {
    /// The shared answer cache: unbounded, as zone construction's
    /// one-time cold-cache walks need it.
    pub cache: ResolverCache,
    core: ResolveCore,
    next_id: u16,
}

impl IterativeResolver {
    /// New resolver with the given root hints.
    pub fn new(root_hints: Vec<IpAddr>) -> Self {
        IterativeResolver {
            cache: ResolverCache::unbounded(),
            core: ResolveCore::new(root_hints),
            next_id: 1,
        }
    }

    /// Forget every answer and delegation: the next walk starts cold,
    /// at the root hints.
    pub fn clear(&mut self) {
        self.cache.clear();
        self.core.clear();
    }

    /// Resolve `qname`/`qtype` at time `now` via `upstream`.
    pub fn resolve<U: Upstream>(
        &mut self,
        upstream: &mut U,
        qname: &Name,
        qtype: RecordType,
        now: f64,
    ) -> Result<Resolution, ResolveError> {
        self.run(upstream, Walk::new(qname.clone(), qtype), now)
    }

    /// Answer `walk`'s question from the cache, or walk it: ask each
    /// server of the set the core names, in order, until one's response
    /// moves the walk on; recurse only for a nameserver's address.
    fn run<U: Upstream>(
        &mut self,
        upstream: &mut U,
        mut walk: Walk,
        now: f64,
    ) -> Result<Resolution, ResolveError> {
        let key = walk.qname.clone();
        if let Some(hit) = self.cache.get(&key, walk.qtype, now) {
            let (rcode, answers) = match hit {
                CachedAnswer::Positive(answers) => {
                    let records = answers.records(&key);
                    let records = records.map_err(|_| ResolveError::Lame("a cached answer"))?;
                    (Rcode::NoError, records)
                }
                CachedAnswer::Negative(rcode) => (rcode, vec![]),
            };
            return Ok(Resolution {
                rcode,
                answers,
                upstream_queries: 0,
                from_cache: true,
            });
        }
        let mut glue = Vec::new();
        let mut queries = 0;
        let mut servers = self.core.start(&mut walk);
        let mut next = 0;
        loop {
            let server = *servers.get(next).ok_or(ResolveError::Unreachable)?;
            next += 1;
            queries += 1;
            self.next_id = self.next_id.wrapping_add(1);
            let mut query = Message::query(self.next_id, walk.qname.clone(), walk.qtype);
            query.flags.recursion_desired = false;
            let step = match upstream.exchange(server, &query) {
                Some(mut resp) => self.core.step(&mut walk, &mut resp, &mut glue),
                None => Step::NextServer,
            };
            match step {
                Step::Ask(set) => (servers, next) = (set, 0),
                Step::NextServer | Step::Stray => {}
                Step::ResolveNs { zone, ns } => {
                    let found = self.run(upstream, walk.for_nameserver(ns), now)?;
                    queries += found.upstream_queries;
                    servers = self.core.ns_resolved(zone, &found.answers)?;
                    next = 0;
                }
                Step::Done { rcode, neg_ttl } => {
                    let answers = walk.answers.to_vec();
                    let fill = FillInfo::default();
                    walk.into_cache(&mut self.cache, &key, rcode, neg_ttl, now, fill);
                    return Ok(Resolution {
                        rcode,
                        answers,
                        upstream_queries: queries,
                        from_cache: false,
                    });
                }
                Step::Fail(why) => return Err(why),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_server::ServerEngine;
    use dns_wire::{RData, Soa};
    use dns_zone::{Catalog, Zone};
    use std::collections::BTreeMap as Map;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn soa(origin: &str) -> Record {
        Record::new(
            n(origin),
            3600,
            RData::Soa(Soa {
                mname: n("ns1.example"),
                rname: n("admin.example"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 30,
            }),
        )
    }

    /// Build a three-level "Internet": root, com, google.com, each a
    /// separate engine at its own address.
    struct FakeInternet {
        engines: Map<IpAddr, ServerEngine>,
        pub queries: Vec<(IpAddr, String)>,
        pub dead: Vec<IpAddr>,
    }

    impl FakeInternet {
        fn new() -> Self {
            let mut engines = Map::new();
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
            // A glue-less delegation: nameserver under another TLD-ish
            // name served by the root (keeps the test self-contained).
            com.insert(Record::new(
                n("glueless.com"),
                1,
                RData::Ns(n("ns.helper.com")),
            ))
            .unwrap();
            com.insert(Record::new(
                n("helper.com"),
                1,
                RData::Ns(n("ns-helper-host.com")),
            ))
            .unwrap();
            com.insert(Record::new(
                n("ns-helper-host.com"),
                1,
                RData::A("203.0.113.5".parse().unwrap()),
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
            google
                .insert(Record::new(
                    n("alias.google.com"),
                    300,
                    RData::Cname(n("www.google.com")),
                ))
                .unwrap();

            let mut helper = Zone::new(n("helper.com"));
            helper.insert(soa("helper.com")).unwrap();
            helper
                .insert(Record::new(
                    n("helper.com"),
                    1,
                    RData::Ns(n("ns-helper-host.com")),
                ))
                .unwrap();
            helper
                .insert(Record::new(
                    n("ns.helper.com"),
                    300,
                    RData::A("203.0.113.9".parse().unwrap()),
                ))
                .unwrap();

            let mut glueless = Zone::new(n("glueless.com"));
            glueless.insert(soa("glueless.com")).unwrap();
            glueless
                .insert(Record::new(
                    n("glueless.com"),
                    1,
                    RData::Ns(n("ns.helper.com")),
                ))
                .unwrap();
            glueless
                .insert(Record::new(
                    n("www.glueless.com"),
                    300,
                    RData::A("203.0.113.80".parse().unwrap()),
                ))
                .unwrap();

            let mk = |z: Zone| {
                let mut c = Catalog::new();
                c.insert(z);
                ServerEngine::with_catalog(c)
            };
            engines.insert(ip("198.41.0.4"), mk(root));
            engines.insert(ip("192.5.6.30"), mk(com));
            engines.insert(ip("216.239.32.10"), mk(google));
            engines.insert(ip("203.0.113.5"), mk(helper));
            engines.insert(ip("203.0.113.9"), mk(glueless));
            FakeInternet {
                engines,
                queries: vec![],
                dead: vec![],
            }
        }
    }

    impl Upstream for FakeInternet {
        fn exchange(&mut self, server: IpAddr, query: &Message) -> Option<Message> {
            self.queries.push((
                server,
                query
                    .question()
                    .map(|q| q.name.to_string())
                    .unwrap_or_default(),
            ));
            if self.dead.contains(&server) {
                return None;
            }
            let engine = self.engines.get(&server)?;
            Some(engine.answer(ip("10.0.0.99"), query))
        }
    }

    #[test]
    fn cold_cache_walks_root_tld_sld() {
        let mut net = FakeInternet::new();
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        let res = r
            .resolve(&mut net, &n("www.google.com"), RecordType::A, 0.0)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        assert_eq!(res.answers.len(), 1);
        assert_eq!(res.upstream_queries, 3, "root → com → google.com");
        let path: Vec<IpAddr> = net.queries.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            path,
            vec![ip("198.41.0.4"), ip("192.5.6.30"), ip("216.239.32.10")]
        );
    }

    #[test]
    fn warm_cache_answers_locally() {
        let mut net = FakeInternet::new();
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        r.resolve(&mut net, &n("www.google.com"), RecordType::A, 0.0)
            .unwrap();
        let res = r
            .resolve(&mut net, &n("www.google.com"), RecordType::A, 1.0)
            .unwrap();
        assert!(res.from_cache);
        assert_eq!(res.upstream_queries, 0);
    }

    #[test]
    fn delegation_cache_skips_upper_levels() {
        let mut net = FakeInternet::new();
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        r.resolve(&mut net, &n("www.google.com"), RecordType::A, 0.0)
            .unwrap();
        net.queries.clear();
        // Different name, same zone: should go straight to ns1.google.com.
        let res = r
            .resolve(&mut net, &n("alias.google.com"), RecordType::A, 1.0)
            .unwrap();
        assert!(!res.from_cache);
        assert_eq!(
            net.queries[0].0,
            ip("216.239.32.10"),
            "skipped root and com"
        );
        // CNAME chased to the cached www answer.
        assert_eq!(res.answers.last().unwrap().rtype(), RecordType::A);
    }

    #[test]
    fn cname_chain_resolved() {
        let mut net = FakeInternet::new();
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        let res = r
            .resolve(&mut net, &n("alias.google.com"), RecordType::A, 0.0)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        assert!(res
            .answers
            .iter()
            .any(|rec| rec.rtype() == RecordType::CNAME));
        assert!(res.answers.iter().any(|rec| rec.rtype() == RecordType::A));
    }

    #[test]
    fn nxdomain_from_authoritative() {
        let mut net = FakeInternet::new();
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        let res = r
            .resolve(&mut net, &n("missing.google.com"), RecordType::A, 0.0)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NxDomain);
        // Negative answer is cached.
        let res2 = r
            .resolve(&mut net, &n("missing.google.com"), RecordType::A, 1.0)
            .unwrap();
        assert!(res2.from_cache);
        assert_eq!(res2.rcode, Rcode::NxDomain);
    }

    #[test]
    fn glueless_delegation_resolves_ns_first() {
        let mut net = FakeInternet::new();
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        let res = r
            .resolve(&mut net, &n("www.glueless.com"), RecordType::A, 0.0)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        assert_eq!(
            res.answers[0].rdata,
            RData::A("203.0.113.80".parse().unwrap())
        );
        // The NS name itself had to be resolved via helper.com.
        assert!(net.queries.iter().any(|(_, q)| q == "ns.helper.com."));
    }

    #[test]
    fn dead_root_unreachable() {
        let mut net = FakeInternet::new();
        net.dead.push(ip("198.41.0.4"));
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        let err = r
            .resolve(&mut net, &n("www.google.com"), RecordType::A, 0.0)
            .unwrap_err();
        assert_eq!(err, ResolveError::Unreachable);
    }

    #[test]
    fn dead_primary_falls_back_to_secondary_hint() {
        let mut net = FakeInternet::new();
        net.dead.push(ip("9.9.9.9"));
        let mut r = IterativeResolver::new(vec![ip("9.9.9.9"), ip("198.41.0.4")]);
        let res = r
            .resolve(&mut net, &n("www.google.com"), RecordType::A, 0.0)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        // One extra (failed) query against the dead hint.
        assert_eq!(res.upstream_queries, 4);
    }

    #[test]
    fn cache_expiry_forces_requery() {
        let mut net = FakeInternet::new();
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        r.resolve(&mut net, &n("www.google.com"), RecordType::A, 0.0)
            .unwrap();
        net.queries.clear();
        // TTL of the answer is 300; at t=400 it must re-resolve.
        let res = r
            .resolve(&mut net, &n("www.google.com"), RecordType::A, 400.0)
            .unwrap();
        assert!(!res.from_cache);
        assert!(!net.queries.is_empty());
    }

    #[test]
    fn a_referral_loop_is_too_deep_not_a_hang() {
        // The only upstream refers every query to itself: as the root,
        // to `loop.example`, then as `loop.example`, to `loop.example`
        // again — a lame answer, and there is no other server to ask.
        let mut asked = 0;
        let mut refer_to_self = |server: IpAddr, query: &Message| {
            asked += 1;
            // Dead after a hundred: a walk that does not stop by
            // itself fails this test instead of hanging it.
            let (IpAddr::V4(me), true) = (server, asked <= 100) else {
                return None;
            };
            let mut resp = query.response_to();
            let ns = RData::Ns(n("ns.loop.example"));
            resp.authorities
                .push(Record::new(n("loop.example"), 60, ns));
            resp.additionals
                .push(Record::new(n("ns.loop.example"), 60, RData::A(me)));
            Some(resp)
        };
        let mut r = IterativeResolver::new(vec![ip("198.41.0.4")]);
        let err = r
            .resolve(&mut refer_to_self, &n("x.loop.example"), RecordType::A, 0.0)
            .unwrap_err();
        assert_eq!(err, ResolveError::Unreachable);
        assert_eq!(asked, 2, "the hint, then the zone's server once");

        // One that refers each query a label further down the question,
        // to itself, never repeats a zone: the referral bound ends it.
        let qname: Name = (0..40)
            .map(|i| format!("l{i}."))
            .collect::<String>()
            .parse()
            .unwrap();
        let mut asked = 0;
        let mut refer_deeper = |server: IpAddr, query: &Message| {
            asked += 1;
            let (IpAddr::V4(me), true) = (server, asked <= 100) else {
                return None;
            };
            let mut resp = query.response_to();
            let zone = resp.question()?.name.ancestor(asked)?;
            let ns = zone.child(b"ns").ok()?;
            resp.authorities
                .push(Record::new(zone, 60, RData::Ns(ns.clone())));
            resp.additionals.push(Record::new(ns, 60, RData::A(me)));
            Some(resp)
        };
        let err = r
            .resolve(&mut refer_deeper, &qname, RecordType::A, 0.0)
            .unwrap_err();
        assert_eq!(err, ResolveError::TooDeep);
        assert_eq!(asked, 33, "the hint, then 32 referrals");
    }

    #[test]
    fn an_error_rcode_moves_on_to_the_next_server() {
        // A first hint that refuses everything is one bad server, not a
        // failed resolution.
        let mut net = FakeInternet::new();
        let lame = ServerEngine::with_catalog(Catalog::new());
        net.engines.insert(ip("9.9.9.9"), lame);
        let mut r = IterativeResolver::new(vec![ip("9.9.9.9"), ip("198.41.0.4")]);
        let res = r
            .resolve(&mut net, &n("www.google.com"), RecordType::A, 0.0)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        assert_eq!(res.upstream_queries, 4);
    }
}
