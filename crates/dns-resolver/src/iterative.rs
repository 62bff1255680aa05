//! Synchronous iterative resolution: walk the hierarchy from the root
//! hints, following referrals, chasing CNAMEs and resolving glue-less
//! nameservers — the algorithm a cold-cache recursive performs for each
//! query (paper §2.3/§2.4).
//!
//! The transport is abstracted behind [`Upstream`], so the same logic
//! resolves against the in-process simulated Internet (zone
//! construction), a set of `ServerEngine`s, or anything else.

use std::collections::HashMap;
use std::net::IpAddr;

use dns_wire::{Message, Name, Question, RData, Rcode, Record, RecordType};

use ldp_cache::{CachedAnswer, FillInfo, ResolverCache};

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

/// Errors during resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No upstream server answered.
    Unreachable,
    /// Referral loop / depth exceeded.
    TooDeep,
    /// A response was malformed for its context.
    Lame(&'static str),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Unreachable => write!(f, "no upstream server answered"),
            ResolveError::TooDeep => write!(f, "resolution exceeded depth limit"),
            ResolveError::Lame(what) => write!(f, "lame response: {what}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// An iterative resolver with cache and root hints.
pub struct IterativeResolver {
    /// Root server addresses (the hints file).
    pub root_hints: Vec<IpAddr>,
    /// The shared answer cache: unbounded, as zone construction's
    /// one-time cold-cache walks need it.
    pub cache: ResolverCache,
    /// Delegation cache: zone apex → nameserver addresses learned from
    /// referrals (the "infrastructure cache").
    pub delegations: HashMap<Name, Vec<IpAddr>>,
    /// Set the DO bit on upstream queries.
    pub dnssec_ok: bool,
    /// Maximum referral-chain steps per query.
    pub max_depth: usize,
    next_id: u16,
}

impl IterativeResolver {
    /// New resolver with the given root hints.
    pub fn new(root_hints: Vec<IpAddr>) -> Self {
        IterativeResolver {
            root_hints,
            cache: ResolverCache::unbounded(),
            delegations: HashMap::new(),
            dnssec_ok: false,
            max_depth: 32,
            next_id: 1,
        }
    }

    fn fresh_id(&mut self) -> u16 {
        self.next_id = self.next_id.wrapping_add(1);
        self.next_id
    }

    /// Resolve `qname`/`qtype` at time `now` via `upstream`.
    pub fn resolve<U: Upstream>(
        &mut self,
        upstream: &mut U,
        qname: &Name,
        qtype: RecordType,
        now: f64,
    ) -> Result<Resolution, ResolveError> {
        self.resolve_inner(upstream, qname, qtype, now, 0)
    }

    fn resolve_inner<U: Upstream>(
        &mut self,
        upstream: &mut U,
        qname: &Name,
        qtype: RecordType,
        now: f64,
        depth: usize,
    ) -> Result<Resolution, ResolveError> {
        if depth > 4 {
            return Err(ResolveError::TooDeep);
        }
        // Cache check.
        if let Some(hit) = self.cache.get(qname, qtype, now) {
            return Ok(match hit {
                CachedAnswer::Positive(answers) => Resolution {
                    rcode: Rcode::NoError,
                    answers,
                    upstream_queries: 0,
                    from_cache: true,
                },
                CachedAnswer::Negative(rcode) => Resolution {
                    rcode,
                    answers: vec![],
                    upstream_queries: 0,
                    from_cache: true,
                },
            });
        }

        // Start from the deepest cached delegation enclosing qname.
        let mut servers = self.best_servers(qname);
        let mut queries = 0usize;
        let mut answers: Vec<Record> = Vec::new();
        let mut current_name = qname.clone();
        let mut steps = 0usize;

        loop {
            steps += 1;
            if steps > self.max_depth {
                return Err(ResolveError::TooDeep);
            }
            let mut q = Message::query(self.fresh_id(), current_name.clone(), qtype);
            q.flags.recursion_desired = false;
            if self.dnssec_ok {
                q.set_dnssec_ok(true);
            }

            // Try servers in order until one answers.
            let mut response = None;
            for &server in &servers {
                queries += 1;
                if let Some(r) = upstream.exchange(server, &q) {
                    response = Some(r);
                    break;
                }
            }
            let Some(resp) = response else {
                return Err(ResolveError::Unreachable);
            };

            match classify(&resp, &current_name, qtype) {
                Classified::Answer(mut recs) => {
                    // Chase a trailing CNAME if the chain didn't reach
                    // the target type.
                    let last_cname_target = recs.iter().rev().find_map(|r| match &r.rdata {
                        RData::Cname(t) => Some(t.clone()),
                        _ => None,
                    });
                    let has_final = recs.iter().any(|r| r.rtype() == qtype);
                    answers.append(&mut recs);
                    if !has_final && qtype != RecordType::CNAME {
                        if let Some(target) = last_cname_target {
                            // Restart resolution at the CNAME target.
                            let sub =
                                self.resolve_inner(upstream, &target, qtype, now, depth + 1)?;
                            queries += sub.upstream_queries;
                            answers.extend(sub.answers);
                            let res = Resolution {
                                rcode: sub.rcode,
                                answers,
                                upstream_queries: queries,
                                from_cache: false,
                            };
                            self.cache_result(qname, qtype, &res, now);
                            return Ok(res);
                        }
                    }
                    let res = Resolution {
                        rcode: Rcode::NoError,
                        answers,
                        upstream_queries: queries,
                        from_cache: false,
                    };
                    self.cache_result(qname, qtype, &res, now);
                    return Ok(res);
                }
                Classified::Referral {
                    zone,
                    ns_names,
                    glue,
                } => {
                    // Remember the delegation.
                    let mut addrs: Vec<IpAddr> = Vec::new();
                    for ns in &ns_names {
                        if let Some(ips) = glue.get(ns) {
                            addrs.extend(ips.iter().copied());
                        }
                    }
                    if addrs.is_empty() {
                        // Glue-less delegation: resolve a nameserver name.
                        let ns = ns_names
                            .first()
                            .ok_or(ResolveError::Lame("referral without NS"))?;
                        let sub =
                            self.resolve_inner(upstream, ns, RecordType::A, now, depth + 1)?;
                        queries += sub.upstream_queries;
                        for r in &sub.answers {
                            if let RData::A(ip) = r.rdata {
                                addrs.push(IpAddr::V4(ip));
                            }
                        }
                        if addrs.is_empty() {
                            return Err(ResolveError::Lame("unresolvable NS"));
                        }
                    }
                    self.delegations.insert(zone, addrs.clone());
                    servers = addrs;
                }
                Classified::Negative(rcode, neg_ttl) => {
                    self.cache.put_negative(
                        qname,
                        qtype,
                        rcode,
                        Some(neg_ttl),
                        now,
                        FillInfo::default(),
                    );
                    return Ok(Resolution {
                        rcode,
                        answers,
                        upstream_queries: queries,
                        from_cache: false,
                    });
                }
                Classified::Broken(what) => return Err(ResolveError::Lame(what)),
            }
            // After a referral we re-ask the same question.
            current_name = qname.clone();
        }
    }

    /// The deepest known delegation enclosing `qname`, falling back to
    /// the root hints.
    fn best_servers(&self, qname: &Name) -> Vec<IpAddr> {
        let mut cur = Some(qname.clone());
        while let Some(name) = cur {
            if let Some(addrs) = self.delegations.get(&name) {
                return addrs.clone();
            }
            cur = name.parent();
        }
        self.root_hints.clone()
    }

    fn cache_result(&mut self, qname: &Name, qtype: RecordType, res: &Resolution, now: f64) {
        if res.rcode == Rcode::NoError && !res.answers.is_empty() {
            self.cache
                .put_positive(qname, qtype, res.answers.clone(), now, FillInfo::default());
        }
    }
}

enum Classified {
    Answer(Vec<Record>),
    Referral {
        zone: Name,
        ns_names: Vec<Name>,
        glue: HashMap<Name, Vec<IpAddr>>,
    },
    Negative(Rcode, u32),
    Broken(&'static str),
}

/// Classify an authoritative response per the iterative algorithm.
fn classify(resp: &Message, qname: &Name, qtype: RecordType) -> Classified {
    let _ = Question::new(qname.clone(), qtype);
    match resp.rcode {
        Rcode::NoError => {}
        Rcode::NxDomain => {
            let neg_ttl = soa_min_ttl(resp).unwrap_or(60);
            return Classified::Negative(Rcode::NxDomain, neg_ttl);
        }
        _ => return Classified::Broken("error rcode"),
    }
    if !resp.answers.is_empty() {
        return Classified::Answer(resp.answers.clone());
    }
    // Referral: NS in authority, not authoritative.
    let ns_names: Vec<Name> = resp
        .authorities
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Ns(n) => Some(n.clone()),
            _ => None,
        })
        .collect();
    if !ns_names.is_empty() && !resp.flags.authoritative {
        let zone = resp
            .authorities
            .iter()
            .find(|r| r.rtype() == RecordType::NS)
            .map(|r| r.name.clone())
            .expect("just found NS");
        let mut glue: HashMap<Name, Vec<IpAddr>> = HashMap::new();
        for rec in &resp.additionals {
            match &rec.rdata {
                RData::A(ip) => glue
                    .entry(rec.name.clone())
                    .or_default()
                    .push(IpAddr::V4(*ip)),
                RData::Aaaa(ip) => glue
                    .entry(rec.name.clone())
                    .or_default()
                    .push(IpAddr::V6(*ip)),
                _ => {}
            }
        }
        return Classified::Referral {
            zone,
            ns_names,
            glue,
        };
    }
    // NODATA.
    let neg_ttl = soa_min_ttl(resp).unwrap_or(60);
    Classified::Negative(Rcode::NoError, neg_ttl)
}

fn soa_min_ttl(resp: &Message) -> Option<u32> {
    resp.authorities.iter().find_map(|r| match &r.rdata {
        RData::Soa(soa) => Some(soa.minimum.min(r.ttl)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_server::ServerEngine;
    use dns_wire::Soa;
    use dns_zone::{Catalog, Zone};
    use std::collections::HashMap as Map;

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
}
