//! Reversing captured traffic into zone files (paper §2.3).
//!
//! Pipeline, following the paper:
//!
//! 1. **Harvest** — send every unique query from the input trace through
//!    a cold-cache recursive walk against the (simulated) Internet,
//!    capturing every authoritative response with its source address.
//! 2. **Scan** — identify nameservers (NS records) per domain and their
//!    host addresses (A/AAAA), and group servers serving the same zone.
//! 3. **Aggregate** — pool all response records by the server group that
//!    produced them (intermediate zone files).
//! 4. **Split at zone cuts** — a nameserver can serve several zones, so
//!    the intermediate data is split by the delegation points observed
//!    in referrals.
//! 5. **Recover missing data** — synthesize a valid SOA and apex NS when
//!    the trace never carried them.
//! 6. **Inconsistent replies** — first answer wins (CDN-style churn).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::IpAddr;

use dns_resolver::{IterativeResolver, Upstream};
use dns_wire::{Name, RData, Record, RecordType, Soa};
use dns_zone::Zone;
use ldp_trace::TraceEntry;

use crate::simulated_internet::CapturedExchange;

/// The constructor's output: zones plus the address book needed to
/// emulate them.
#[derive(Debug)]
pub struct ConstructedHierarchy {
    /// One zone per discovered delegation point (root included).
    pub zones: Vec<Zone>,
    /// Public nameserver addresses per zone origin (the view keys for
    /// the meta-DNS-server).
    pub zone_servers: BTreeMap<Name, Vec<IpAddr>>,
    /// Queries that failed to resolve during harvest (these will also
    /// fail in replay, as the paper notes).
    pub unresolved: Vec<Name>,
    /// (name, type) pairs whose later responses conflicted with the
    /// first (first answer kept).
    pub conflicts: usize,
}

impl ConstructedHierarchy {
    /// All public nameserver addresses across the hierarchy.
    pub fn all_server_addrs(&self) -> Vec<IpAddr> {
        let set: BTreeSet<IpAddr> = self
            .zone_servers
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        set.into_iter().collect()
    }

    /// The zone with the given origin.
    pub fn zone(&self, origin: &Name) -> Option<&Zone> {
        self.zones.iter().find(|z| z.origin() == origin)
    }
}

/// Harvest: resolve each unique query in `trace` once, cold-cache,
/// through `internet`, returning all captured exchanges.
///
/// `capture_of` extracts the capture buffer after the walk (the
/// [`crate::SimulatedInternet`] accumulates it internally).
pub fn harvest<U: Upstream>(
    trace: &[TraceEntry],
    internet: &mut U,
    root_hints: Vec<IpAddr>,
) -> (Vec<Name>, usize) {
    let mut resolver = IterativeResolver::new(root_hints);
    let mut seen: BTreeSet<(Name, u16)> = BTreeSet::new();
    let mut unresolved = Vec::new();
    let mut resolved = 0usize;
    for entry in trace {
        let Some(q) = entry.message.question() else {
            continue;
        };
        if !seen.insert((q.name.clone(), q.qtype.to_u16())) {
            continue; // unique queries only — one-time cost
        }
        // Cold cache per unique query: the paper resolves against a
        // recursive with cold cache so every level is exercised.
        resolver.clear();
        match resolver.resolve(internet, &q.name, q.qtype, 0.0) {
            Ok(_) => resolved += 1,
            Err(_) => unresolved.push(q.name.clone()),
        }
    }
    (unresolved, resolved)
}

/// Build the hierarchy from captured exchanges.
pub fn construct(capture: &[CapturedExchange], unresolved: Vec<Name>) -> ConstructedHierarchy {
    // ---- Scan: first-answer-wins record pool and zone-cut discovery.
    let mut pool: BTreeMap<(Name, u16), Vec<Record>> = BTreeMap::new();
    let mut conflicts = 0usize;
    let mut origins: BTreeSet<Name> = BTreeSet::new();
    origins.insert(Name::root());
    // Server that answered authoritatively for each name (for grouping).
    let mut ns_addr_hints: HashMap<Name, BTreeSet<IpAddr>> = HashMap::new();

    for ex in capture {
        // NS owners define delegation points / zone apexes.
        for rec in ex.response.answers.iter().chain(&ex.response.authorities) {
            if rec.rtype() == RecordType::NS {
                origins.insert(rec.name.clone());
            }
            if rec.rtype() == RecordType::SOA {
                origins.insert(rec.name.clone());
            }
        }
        // Pool every record from every section, first answer wins.
        for rec in ex
            .response
            .answers
            .iter()
            .chain(&ex.response.authorities)
            .chain(&ex.response.additionals)
        {
            let key = (rec.name.clone(), rec.rtype().to_u16());
            match pool.get_mut(&key) {
                None => {
                    pool.insert(key, vec![rec.clone()]);
                }
                Some(existing) => {
                    if existing.iter().any(|r| r.rdata == rec.rdata) {
                        // Same data seen again: fine.
                    } else if rec.rtype() == RecordType::NS
                        || rec.rtype() == RecordType::A
                        || rec.rtype() == RecordType::AAAA
                    {
                        // Multi-valued infrastructure sets: union.
                        existing.push(rec.clone());
                    } else {
                        // Differing answer (CDN churn, changed CNAME):
                        // first answer wins (paper §2.3).
                        conflicts += 1;
                    }
                }
            }
        }
        // Track which server answered authoritatively for which apex —
        // this groups "the set of nameservers responsible for the same
        // domain" by response source address (paper §2.3).
        if ex.response.flags.authoritative {
            if let Some(q) = ex.query.question() {
                let mut apex = q.name.clone();
                // Find the deepest origin enclosing the answer.
                loop {
                    if origins.contains(&apex) {
                        break;
                    }
                    match apex.parent() {
                        Some(p) => apex = p,
                        None => break,
                    }
                }
                ns_addr_hints.entry(apex).or_default().insert(ex.server);
            }
        } else {
            // Referrals: the *referring* server serves the parent zone.
            if let Some(ns_owner) = ex
                .response
                .authorities
                .iter()
                .find(|r| r.rtype() == RecordType::NS)
                .map(|r| r.name.clone())
            {
                if let Some(parent) = ns_owner.parent() {
                    let mut apex = parent;
                    loop {
                        if origins.contains(&apex) {
                            break;
                        }
                        match apex.parent() {
                            Some(p) => apex = p,
                            None => break,
                        }
                    }
                    ns_addr_hints.entry(apex).or_default().insert(ex.server);
                }
            }
        }
    }

    // ---- Split pooled records into zones at the discovered cuts.
    let deepest_origin = |name: &Name| -> Name {
        let mut cur = name.clone();
        loop {
            if origins.contains(&cur) {
                return cur;
            }
            match cur.parent() {
                Some(p) => cur = p,
                None => return Name::root(),
            }
        }
    };

    let mut zones: BTreeMap<Name, Zone> = origins
        .iter()
        .map(|o| (o.clone(), Zone::new(o.clone())))
        .collect();

    for ((name, _t), records) in &pool {
        let origin = deepest_origin(name);
        let is_apex = name == &origin;
        for rec in records {
            let rtype = rec.rtype();
            // Delegation NS (and glue) live in the parent; apex NS in
            // the child; we insert NS at the cut into *both*, matching
            // real zone files.
            if rtype == RecordType::NS && is_apex {
                if let Some(parent_origin) = name.parent().map(|p| deepest_origin(&p)) {
                    if let Some(parent_zone) = zones.get_mut(&parent_origin) {
                        let _ = parent_zone.insert(rec.clone());
                    }
                }
            }
            if let Some(zone) = zones.get_mut(&origin) {
                // First-wins conflicts were already filtered; remaining
                // CNAME-vs-data clashes are dropped records.
                let _ = zone.insert(rec.clone());
            }
        }
    }

    // Glue: nameserver host addresses must be present in the parent for
    // referrals to carry them.
    let mut glue_inserts: Vec<(Name, Record)> = Vec::new();
    for (origin, zone) in &zones {
        if origin.is_root() {
            continue;
        }
        if let Some(node) = zone.node(origin) {
            if let Some(ns_set) = node.get(RecordType::NS) {
                for rd in &ns_set.rdatas {
                    if let RData::Ns(ns_name) = rd {
                        for t in [RecordType::A, RecordType::AAAA] {
                            if let Some(recs) = pool.get(&(ns_name.clone(), t.to_u16())) {
                                let parent_origin = deepest_origin(&origin.parent().unwrap());
                                for r in recs {
                                    glue_inserts.push((parent_origin.clone(), r.clone()));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    for (origin, rec) in glue_inserts {
        if let Some(zone) = zones.get_mut(&origin) {
            let _ = zone.insert(rec);
        }
    }

    // ---- Recover missing data: fake-but-valid SOA, apex NS.
    for (origin, zone) in zones.iter_mut() {
        if zone.soa().is_none() {
            let _ = zone.insert(Record::new(
                origin.clone(),
                3600,
                RData::Soa(Soa {
                    mname: format!("reconstructed.{origin}")
                        .parse()
                        .unwrap_or_else(|_| origin.clone()),
                    rname: "hostmaster.reconstructed.invalid.".parse().unwrap(),
                    serial: 1,
                    refresh: 3600,
                    retry: 900,
                    expire: 604800,
                    minimum: 60,
                }),
            ));
        }
        if zone.apex_ns().is_none() {
            let _ = zone.insert(Record::new(
                origin.clone(),
                3600,
                RData::Ns(
                    format!("reconstructed-ns.{origin}")
                        .parse()
                        .unwrap_or_else(|_| origin.clone()),
                ),
            ));
        }
    }

    // ---- Nameserver addresses per zone: from observed answering
    // servers, falling back to resolving the NS names in the pool.
    let mut zone_servers: BTreeMap<Name, Vec<IpAddr>> = BTreeMap::new();
    for origin in zones.keys() {
        let mut addrs: BTreeSet<IpAddr> = ns_addr_hints.get(origin).cloned().unwrap_or_default();
        if let Some(zone) = zones.get(origin) {
            if let Some(node) = zone.node(origin) {
                if let Some(ns_set) = node.get(RecordType::NS) {
                    for rd in &ns_set.rdatas {
                        if let RData::Ns(ns_name) = rd {
                            for t in [RecordType::A, RecordType::AAAA] {
                                if let Some(recs) = pool.get(&(ns_name.clone(), t.to_u16())) {
                                    for r in recs {
                                        match &r.rdata {
                                            RData::A(ip) => {
                                                addrs.insert(IpAddr::V4(*ip));
                                            }
                                            RData::Aaaa(ip) => {
                                                addrs.insert(IpAddr::V6(*ip));
                                            }
                                            _ => {}
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        zone_servers.insert(origin.clone(), addrs.into_iter().collect());
    }

    ConstructedHierarchy {
        zones: zones.into_values().collect(),
        zone_servers,
        unresolved,
        conflicts,
    }
}

/// Convenience: harvest a trace through a [`crate::SimulatedInternet`]
/// and construct the hierarchy in one call.
pub fn build_from_trace(
    trace: &[TraceEntry],
    internet: &mut crate::SimulatedInternet,
) -> ConstructedHierarchy {
    let hints = internet.root_addrs.clone();
    let (unresolved, _resolved) = harvest(trace, internet, hints);
    let capture = std::mem::take(&mut internet.capture);
    construct(&capture, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulatedInternet;
    use dns_wire::{Message, RecordType};
    use dns_zone::{lookup, AnswerKind};
    use ldp_trace::TraceEntry;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn trace_for(names: &[&str]) -> Vec<TraceEntry> {
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                TraceEntry::query(
                    i as u64 * 1000,
                    "10.2.1.1:5000".parse().unwrap(),
                    "10.2.0.1:53".parse().unwrap(),
                    i as u16,
                    name.parse().unwrap(),
                    RecordType::A,
                )
            })
            .collect()
    }

    fn build() -> ConstructedHierarchy {
        let zones = vec!["alpha.com".to_string(), "beta.net".to_string()];
        let mut net = SimulatedInternet::new(&zones, &["www", "mail"]);
        let trace = trace_for(&[
            "www.alpha.com",
            "mail.alpha.com",
            "www.beta.net",
            "www.alpha.com", // duplicate: must not re-fetch
        ]);
        build_from_trace(&trace, &mut net)
    }

    #[test]
    fn discovers_all_levels() {
        let h = build();
        let origins: Vec<String> = h.zones.iter().map(|z| z.origin().to_string()).collect();
        assert!(origins.contains(&".".to_string()));
        assert!(origins.contains(&"com.".to_string()));
        assert!(origins.contains(&"net.".to_string()));
        assert!(origins.contains(&"alpha.com.".to_string()));
        assert!(origins.contains(&"beta.net.".to_string()));
    }

    #[test]
    fn every_zone_is_valid() {
        let h = build();
        for z in &h.zones {
            assert!(z.validate().is_ok(), "zone {} valid", z.origin());
            assert!(z.apex_ns().is_some(), "zone {} has apex NS", z.origin());
        }
    }

    #[test]
    fn reconstructed_root_refers_correctly() {
        let h = build();
        let root = h.zone(&Name::root()).unwrap();
        let q = dns_wire::Question::new(n("www.alpha.com"), RecordType::A);
        let ans = lookup(root, &q);
        match ans.kind {
            AnswerKind::Referral { cut } => assert_eq!(cut, n("com")),
            other => panic!("expected referral from root, got {other:?}"),
        }
        // Referral carries glue.
        assert!(!ans.additionals.is_empty(), "glue present");
    }

    #[test]
    fn reconstructed_sld_answers_the_query() {
        let h = build();
        let alpha = h.zone(&n("alpha.com")).unwrap();
        let q = dns_wire::Question::new(n("www.alpha.com"), RecordType::A);
        let ans = lookup(alpha, &q);
        assert_eq!(ans.kind, AnswerKind::Answer);
        assert_eq!(ans.answers.len(), 1);
    }

    #[test]
    fn zone_servers_discovered() {
        let h = build();
        for origin in ["com.", "alpha.com.", "beta.net."] {
            let addrs = &h.zone_servers[&n(origin)];
            assert!(!addrs.is_empty(), "{origin} has nameserver addresses");
        }
        // Every address is unique per level here.
        let all = h.all_server_addrs();
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(all.len(), set.len());
    }

    #[test]
    fn nxdomain_names_are_still_resolved() {
        let zones = vec!["alpha.com".to_string()];
        let mut net = SimulatedInternet::new(&zones, &["www"]);
        // beta.net does not exist (no net TLD): the root's NXDOMAIN is a
        // definitive answer, so the name is resolved, not failed.
        let trace = trace_for(&["www.alpha.com", "www.beta.net"]);
        let h = build_from_trace(&trace, &mut net);
        assert!(h.unresolved.is_empty());
    }

    #[test]
    fn unreachable_servers_reported_unresolved() {
        // An internet where every server is dead: every unique query is
        // reported as unresolved (and would fail in replay, §2.3).
        let trace = trace_for(&["www.alpha.com", "www.beta.net"]);
        let mut dead = |_server: std::net::IpAddr, _q: &Message| -> Option<Message> { None };
        let (unresolved, resolved) = harvest(&trace, &mut dead, vec!["198.0.0.1".parse().unwrap()]);
        assert_eq!(resolved, 0);
        assert_eq!(unresolved.len(), 2);
    }

    #[test]
    fn duplicate_queries_fetched_once() {
        let zones = vec!["alpha.com".to_string()];
        let mut net = SimulatedInternet::new(&zones, &["www"]);
        let trace = trace_for(&["www.alpha.com", "www.alpha.com", "www.alpha.com"]);
        let _ = build_from_trace(&trace, &mut net);
        // Cold-cache walk is 3 exchanges; duplicates add none.
        assert_eq!(net.queries_served, 3);
    }

    #[test]
    fn conflicting_answers_first_wins() {
        // Hand-build captures with conflicting TXT data.
        use crate::simulated_internet::CapturedExchange;
        let q = Message::query(1, n("x.example.com"), RecordType::TXT);
        let mut r1 = q.response_to();
        r1.flags.authoritative = true;
        r1.answers.push(Record::new(
            n("x.example.com"),
            60,
            RData::Txt(vec![b"first".to_vec()]),
        ));
        let mut r2 = q.response_to();
        r2.flags.authoritative = true;
        r2.answers.push(Record::new(
            n("x.example.com"),
            60,
            RData::Txt(vec![b"second".to_vec()]),
        ));
        let cap = vec![
            CapturedExchange {
                server: "198.0.0.1".parse().unwrap(),
                query: q.clone(),
                response: r1,
            },
            CapturedExchange {
                server: "198.0.0.1".parse().unwrap(),
                query: q,
                response: r2,
            },
        ];
        let h = construct(&cap, vec![]);
        assert_eq!(h.conflicts, 1);
        // The kept record is the first one.
        let zone = h
            .zones
            .iter()
            .find(|z| {
                z.node(&n("x.example.com"))
                    .map(|node| node.get(RecordType::TXT).is_some())
                    .unwrap_or(false)
            })
            .expect("a zone holds the TXT");
        let set = zone
            .node(&n("x.example.com"))
            .unwrap()
            .get(RecordType::TXT)
            .unwrap();
        assert_eq!(set.rdatas, vec![RData::Txt(vec![b"first".to_vec()])]);
    }
}
