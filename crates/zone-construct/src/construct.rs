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

use dns_resolver::IterativeResolver;
use dns_wire::{Name, RData, Record, RecordType, Soa};
use dns_zone::Zone;
use ldp_trace::TraceEntry;

use crate::simulated_internet::{CapturedExchange, SimulatedInternet};

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

/// Harvest: resolve each unique (name, type) query in `trace` once,
/// cold-cache, from `internet`'s root hints. Every exchange lands in
/// `internet.capture`; the names that did not resolve are returned.
pub fn harvest(trace: &[TraceEntry], internet: &mut SimulatedInternet) -> Vec<Name> {
    let mut resolver = IterativeResolver::new(internet.root_addrs.clone());
    let mut seen: BTreeSet<(Name, u16)> = BTreeSet::new();
    let mut unresolved = Vec::new();
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
        if resolver.resolve(internet, &q.name, q.qtype, 0.0).is_err() {
            unresolved.push(q.name.clone());
        }
    }
    unresolved
}

/// The deepest of `origins` enclosing `name`, or the root.
fn enclosing(origins: &BTreeSet<Name>, name: &Name) -> Name {
    let mut cur = name.clone();
    while !origins.contains(&cur) {
        match cur.parent() {
            Some(p) => cur = p,
            None => return Name::root(),
        }
    }
    cur
}

/// The pooled address records (A, then AAAA) of each of `zone`'s apex
/// NS targets, in NS order.
fn apex_ns_addrs<'a>(
    zone: &'a Zone,
    pool: &'a BTreeMap<(Name, u16), Vec<Record>>,
) -> impl Iterator<Item = &'a Record> {
    zone.apex_ns()
        .into_iter()
        .flat_map(|ns_set| &ns_set.rdatas)
        .filter_map(|rd| match rd {
            RData::Ns(ns_name) => Some(ns_name),
            _ => None,
        })
        .flat_map(move |ns_name| {
            [RecordType::A, RecordType::AAAA]
                .into_iter()
                .filter_map(move |t| pool.get(&(ns_name.clone(), t.to_u16())))
                .flatten()
        })
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
        // Track which server answered for which apex — this groups "the
        // set of nameservers responsible for the same domain" by
        // response source address (paper §2.3). An authoritative answer
        // comes from the zone enclosing its question; a referral from
        // the zone above the cut it names.
        let served = if ex.response.flags.authoritative {
            ex.response.question().map(|q| enclosing(&origins, &q.name))
        } else {
            ex.response
                .authorities
                .iter()
                .find(|r| r.rtype() == RecordType::NS)
                .and_then(|r| r.name.parent())
                .map(|parent| enclosing(&origins, &parent))
        };
        if let Some(apex) = served {
            ns_addr_hints.entry(apex).or_default().insert(ex.server);
        }
    }

    // ---- Split pooled records into zones at the discovered cuts.
    let mut zones: BTreeMap<Name, Zone> = origins
        .iter()
        .map(|o| (o.clone(), Zone::new(o.clone())))
        .collect();

    for ((name, _t), records) in &pool {
        let origin = enclosing(&origins, name);
        let is_apex = name == &origin;
        for rec in records {
            let rtype = rec.rtype();
            // Delegation NS (and glue) live in the parent; apex NS in
            // the child; we insert NS at the cut into *both*, matching
            // real zone files.
            if rtype == RecordType::NS && is_apex {
                if let Some(parent_origin) = name.parent().map(|p| enclosing(&origins, &p)) {
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
        let Some(parent) = origin.parent() else {
            continue; // the root has no parent to hold its glue
        };
        let parent_origin = enclosing(&origins, &parent);
        for r in apex_ns_addrs(zone, &pool) {
            glue_inserts.push((parent_origin.clone(), r.clone()));
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
    // servers, plus the pooled addresses of its NS names.
    let zone_servers: BTreeMap<Name, Vec<IpAddr>> = zones
        .iter()
        .map(|(origin, zone)| {
            let mut addrs = ns_addr_hints.remove(origin).unwrap_or_default();
            addrs.extend(apex_ns_addrs(zone, &pool).filter_map(|r| match r.rdata {
                RData::A(ip) => Some(IpAddr::V4(ip)),
                RData::Aaaa(ip) => Some(IpAddr::V6(ip)),
                _ => None,
            }));
            (origin.clone(), addrs.into_iter().collect())
        })
        .collect();

    ConstructedHierarchy {
        zones: zones.into_values().collect(),
        zone_servers,
        unresolved,
        conflicts,
    }
}

/// Convenience: harvest a trace through a [`SimulatedInternet`] and
/// construct the hierarchy in one call.
pub fn build_from_trace(
    trace: &[TraceEntry],
    internet: &mut SimulatedInternet,
) -> ConstructedHierarchy {
    let unresolved = harvest(trace, internet);
    construct(&std::mem::take(&mut internet.capture), unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated_internet::reference as reference_internet;
    use dns_resolver::Upstream;
    use dns_wire::{Message, RecordType};
    use dns_zone::{lookup, write_zone, AnswerKind};
    use ldp_rng::check::{check, Gen};
    use ldp_trace::TraceEntry;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// The `i`th query of a stub trace.
    fn entry(i: usize, name: Name, qtype: RecordType) -> TraceEntry {
        TraceEntry::query(
            i as u64 * 1000,
            "10.2.1.1:5000".parse().unwrap(),
            "10.2.0.1:53".parse().unwrap(),
            i as u16,
            name,
            qtype,
        )
    }

    fn trace_for(names: &[&str]) -> Vec<TraceEntry> {
        names
            .iter()
            .enumerate()
            .map(|(i, name)| entry(i, n(name), RecordType::A))
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
        // An Internet whose root hint is no server: every unique query
        // is reported as unresolved (and would fail in replay, §2.3).
        let mut net = SimulatedInternet::new(&["alpha.com".to_string()], &["www"]);
        net.root_addrs = vec!["192.0.2.1".parse().unwrap()];
        let trace = trace_for(&["www.alpha.com", "www.beta.net", "www.alpha.com"]);
        let unresolved = harvest(&trace, &mut net);
        assert_eq!(unresolved, vec![n("www.alpha.com"), n("www.beta.net")]);
        assert!(net.capture.is_empty());
        assert_eq!(net.queries_served, 0);
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
                response: r1,
            },
            CapturedExchange {
                server: "198.0.0.1".parse().unwrap(),
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

    /// Labels a generated world draws host, query and zone names from;
    /// `ns1` is also every SLD's nameserver.
    const LABELS: [&str; 6] = ["www", "mail", "ns1", "api", "cdn", "img"];
    const TLDS: [&str; 4] = ["com", "net", "org", "arpa"];

    /// A generated simulated Internet: distinct SLD zones of two or
    /// three labels under a few TLDs, and distinct host labels.
    fn world(g: &mut Gen) -> (Vec<String>, Vec<&'static str>) {
        let tlds = &TLDS[..g.size(1..=TLDS.len())];
        let mut slds: Vec<String> = Vec::new();
        for _ in 0..g.size(0..=8) {
            let tld = g.pick(tlds);
            let sld = match g.below(2) {
                0 => format!("s{}.{tld}", g.below(4)),
                _ => format!("zone{}.ex{}.{tld}", g.below(3), g.below(2)),
            };
            if !slds.contains(&sld) {
                slds.push(sld);
            }
        }
        let mut hosts: Vec<&'static str> = Vec::new();
        for _ in 0..g.size(0..=4) {
            let host = *g.pick(&LABELS);
            if !hosts.contains(&host) {
                hosts.push(host);
            }
        }
        (slds, hosts)
    }

    /// A name a trace may ask: a host (served or missing) in a zone, a
    /// zone apex, a name in a TLD with no such zone, a TLD, or a name
    /// under no TLD at all.
    fn qname(g: &mut Gen, slds: &[String]) -> Name {
        let label = g.pick(&LABELS);
        let text = match (g.below(6), slds.is_empty()) {
            (0 | 1, false) => format!("{label}.{}", g.pick(slds)),
            (2, false) => g.pick(slds).clone(),
            (3, _) => format!("{label}.nozone.{}", g.pick(&TLDS)),
            (4, _) => g.pick(&TLDS).to_string(),
            _ => format!("{label}.notld"),
        };
        n(&text)
    }

    fn qtype(g: &mut Gen) -> RecordType {
        *g.pick(&[
            RecordType::A,
            RecordType::A,
            RecordType::AAAA,
            RecordType::NS,
            RecordType::SOA,
        ])
    }

    /// A stub trace over `slds`, with duplicate queries.
    fn trace(g: &mut Gen, slds: &[String]) -> Vec<TraceEntry> {
        let mut questions: Vec<(Name, RecordType)> = Vec::new();
        for _ in 0..g.size(0..=16) {
            let q = if questions.is_empty() || g.below(4) != 0 {
                (qname(g, slds), qtype(g))
            } else {
                g.pick(&questions).clone()
            };
            questions.push(q);
        }
        questions
            .into_iter()
            .enumerate()
            .map(|(i, (name, qtype))| entry(i, name, qtype))
            .collect()
    }

    #[test]
    fn exchanges_match_the_per_address_reference() {
        check(256, |g| {
            let (slds, hosts) = world(g);
            let mut net = SimulatedInternet::new(&slds, &hosts);
            let mut reference = reference_internet::SimulatedInternet::new(&slds, &hosts);
            // Every served address of the 198.0.0.x pool, the two
            // after it, and one outside it.
            let servers = net.server_count() as u64 + 2;
            for id in 0..g.size(1..=24) {
                let server = match g.below(8) {
                    0 => "192.0.2.1".parse().unwrap(),
                    _ => IpAddr::from([198, 0, 0, g.range(1..=servers) as u8]),
                };
                let query = Message::query(id as u16, qname(g, &slds), qtype(g));
                assert_eq!(
                    net.exchange(server, &query),
                    reference.exchange(server, &query),
                    "{server} asked {:?}",
                    query.question()
                );
            }
            assert_eq!(net.queries_served, reference.queries_served);
            assert_eq!(net.capture.len(), reference.capture.len());
            for (ours, theirs) in net.capture.iter().zip(&reference.capture) {
                assert_eq!(ours.server, theirs.server);
                assert_eq!(ours.response, theirs.response);
            }
        });
    }

    #[test]
    fn builds_match_the_reference_pipeline() {
        check(256, |g| {
            let (slds, hosts) = world(g);
            let trace = trace(g, &slds);
            let mut net = SimulatedInternet::new(&slds, &hosts);
            let mut reference = reference_internet::SimulatedInternet::new(&slds, &hosts);
            if g.below(8) == 0 {
                // A root hint that is no server: everything unresolved.
                net.root_addrs = vec!["192.0.2.1".parse().unwrap()];
                reference.root_addrs = net.root_addrs.clone();
            }
            let ours = build_from_trace(&trace, &mut net);
            let theirs = reference::build_from_trace(&trace, &mut reference);
            let text = |h: &ConstructedHierarchy| -> Vec<String> {
                h.zones.iter().map(write_zone).collect()
            };
            assert_eq!(text(&ours), text(&theirs));
            assert_eq!(ours.zone_servers, theirs.zone_servers);
            assert_eq!(ours.unresolved, theirs.unresolved);
            assert_eq!(ours.conflicts, theirs.conflicts);
            assert_eq!(net.queries_served, reference.queries_served);
        });
    }
}

/// The harvest and construction this module replaced, kept verbatim
/// over [`crate::simulated_internet::reference`] as the oracle for the
/// properties above: a generic harvest with separate root hints, and a
/// construction that reads each exchange's query, with its own copies
/// of the parent walk and the NS-address scan.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet, HashMap};
    use std::net::IpAddr;

    use dns_resolver::{IterativeResolver, Upstream};
    use dns_wire::{Name, RData, Record, RecordType, Soa};
    use dns_zone::Zone;
    use ldp_trace::TraceEntry;

    use super::ConstructedHierarchy;
    use crate::simulated_internet::reference::{CapturedExchange, SimulatedInternet};

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
                continue;
            }
            resolver.clear();
            match resolver.resolve(internet, &q.name, q.qtype, 0.0) {
                Ok(_) => resolved += 1,
                Err(_) => unresolved.push(q.name.clone()),
            }
        }
        (unresolved, resolved)
    }

    pub fn construct(capture: &[CapturedExchange], unresolved: Vec<Name>) -> ConstructedHierarchy {
        let mut pool: BTreeMap<(Name, u16), Vec<Record>> = BTreeMap::new();
        let mut conflicts = 0usize;
        let mut origins: BTreeSet<Name> = BTreeSet::new();
        origins.insert(Name::root());
        let mut ns_addr_hints: HashMap<Name, BTreeSet<IpAddr>> = HashMap::new();

        for ex in capture {
            for rec in ex.response.answers.iter().chain(&ex.response.authorities) {
                if rec.rtype() == RecordType::NS {
                    origins.insert(rec.name.clone());
                }
                if rec.rtype() == RecordType::SOA {
                    origins.insert(rec.name.clone());
                }
            }
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
                        } else if rec.rtype() == RecordType::NS
                            || rec.rtype() == RecordType::A
                            || rec.rtype() == RecordType::AAAA
                        {
                            existing.push(rec.clone());
                        } else {
                            conflicts += 1;
                        }
                    }
                }
            }
            if ex.response.flags.authoritative {
                if let Some(q) = ex.query.question() {
                    let mut apex = q.name.clone();
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
            } else if let Some(ns_owner) = ex
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
                if rtype == RecordType::NS && is_apex {
                    if let Some(parent_origin) = name.parent().map(|p| deepest_origin(&p)) {
                        if let Some(parent_zone) = zones.get_mut(&parent_origin) {
                            let _ = parent_zone.insert(rec.clone());
                        }
                    }
                }
                if let Some(zone) = zones.get_mut(&origin) {
                    let _ = zone.insert(rec.clone());
                }
            }
        }

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

        let mut zone_servers: BTreeMap<Name, Vec<IpAddr>> = BTreeMap::new();
        for origin in zones.keys() {
            let mut addrs: BTreeSet<IpAddr> =
                ns_addr_hints.get(origin).cloned().unwrap_or_default();
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

    pub fn build_from_trace(
        trace: &[TraceEntry],
        internet: &mut SimulatedInternet,
    ) -> ConstructedHierarchy {
        let hints = internet.root_addrs.clone();
        let (unresolved, _resolved) = harvest(trace, internet, hints);
        let capture = std::mem::take(&mut internet.capture);
        construct(&capture, unresolved)
    }
}
