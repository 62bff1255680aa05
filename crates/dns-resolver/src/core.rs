//! The resolution core: the RFC 1034 §5.3.3 walk as one step function
//! with no network, no cache and no clock (paper §2.3/§2.4). A driver
//! owns the transport — [`crate::IterativeResolver`] blocks on an
//! [`crate::Upstream`], [`crate::SimResolver`] sends packets and arms
//! timers — and hands every decoded response to [`ResolveCore::step`],
//! which says what the walk does next. Every resolution policy is
//! decided here, once, as a constant (DESIGN §11 has the table): the
//! drivers cannot disagree on what a referral, a CNAME, a negative
//! answer or a loop is.
//!
//! What the bounds give, for any upstream behaviour: a walk ends within
//! [`MAX_REFERRALS`] referrals and [`MAX_CNAME_HOPS`] CNAME restarts
//! (a loop is a failure, not a hang); it asks only the root hints, glue
//! addresses owned by a referral's NS targets, and addresses it
//! resolved for such a target; and nameserver-address lookups nest at
//! most [`MAX_NS_DEPTH`] deep, so the upstream queries one stub query
//! can cause are bounded by a function of those three constants and the
//! driver's retry budget. A referral counts only inside the bailiwick
//! of the servers that gave it: its zone contains the walk's question
//! and lies strictly below the zone those servers were asked as (the
//! walk's `cut`), so one server cannot teach the delegation table
//! anything about a name it is not an ancestor's server for, and every
//! zone in that table is an ancestor of a question some walk asked.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::net::IpAddr;
use std::sync::Arc;

use dns_wire::{Message, Name, RData, Rcode, Record, RecordType};
use ldp_cache::{negative_ttl, FillInfo, PutOutcome, RecordList, ResolverCache};
use ldp_rng::KeyTable;

/// Referrals one walk follows; the next one is a loop.
pub(crate) const MAX_REFERRALS: u8 = 32;
/// CNAME restarts one walk makes; the next one is a loop.
pub(crate) const MAX_CNAME_HOPS: u8 = 8;
/// How deep nameserver-address lookups nest under one client question.
pub(crate) const MAX_NS_DEPTH: u8 = 4;

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

/// One resolution in progress: the question being asked upstream right
/// now (it moves along CNAMEs), the zone whose servers are being asked,
/// the answer chain so far, and how much of each bound is spent.
///
/// Every name the walk keeps of its own is a copy of `qname` or, when
/// that is long, a view of its buffer: the zone it asks, the zones it
/// learns, the owners of answers at `qname`. A driver hands it a
/// `qname` of its own ([`Name::unshared`]), never a view of a message it
/// decodes into.
#[derive(Debug)]
pub(crate) struct Walk {
    pub qname: Name,
    pub qtype: RecordType,
    /// The zone the servers being asked serve: set by
    /// [`ResolveCore::start`] and by each referral followed.
    cut: Name,
    /// Answer records, CNAME chain included, in the order received: the
    /// records a cache entry is encoded from.
    pub answers: RecordList,
    cname_hops: u8,
    referrals: u8,
    depth: u8,
}

impl Walk {
    /// A client's question.
    pub fn new(qname: Name, qtype: RecordType) -> Self {
        Walk {
            qname,
            qtype,
            cut: Name::root(),
            answers: RecordList::new(),
            cname_hops: 0,
            referrals: 0,
            depth: 0,
        }
    }

    /// The walk for the address of `ns`, which [`Step::ResolveNs`]
    /// asked this walk's driver for: one level deeper.
    pub fn for_nameserver(&self, ns: Name) -> Walk {
        Walk {
            depth: self.depth + 1,
            ..Walk::new(ns, RecordType::A)
        }
    }

    /// A finished walk's fill of `cache` under `key`, the question the
    /// client asked: the answer chain when there is one, else the
    /// negative answer for `neg_ttl` (the cache's default when `None`).
    pub fn into_cache(
        self,
        cache: &mut ResolverCache,
        key: &Name,
        rcode: Rcode,
        neg_ttl: Option<u32>,
        now: f64,
        fill: FillInfo,
    ) -> PutOutcome {
        if rcode == Rcode::NoError && !self.answers.is_empty() {
            cache.put_positive(key, self.qtype, self.answers, now, fill)
        } else {
            cache.put_negative(key, self.qtype, rcode, neg_ttl, now, fill)
        }
    }
}

/// What a walk does next.
#[derive(Debug)]
pub(crate) enum Step {
    /// Ask this server set the walk's current question, from the first
    /// server the driver picks.
    Ask(Arc<[IpAddr]>),
    /// The server answered with an error rcode, which says nothing
    /// about its siblings: ask the next one of the same set.
    NextServer,
    /// Not a response to the walk's question (ids are 16 bits and can
    /// be guessed): the attempt is still unanswered.
    Stray,
    /// The referral to `zone` came without usable glue: resolve `ns`'s
    /// address ([`Walk::for_nameserver`]) and hand the answer to
    /// [`ResolveCore::ns_resolved`] for the servers to ask.
    ResolveNs { zone: Name, ns: Name },
    /// The answer chain is complete; a negative answer is cacheable for
    /// `neg_ttl` (RFC 2308, from the SOA) or the cache's default.
    Done { rcode: Rcode, neg_ttl: Option<u32> },
    /// The resolution failed.
    Fail(ResolveError),
}

/// The delegation table — zone → its nameservers' addresses as
/// referrals taught them, over the root hints — and the step function
/// that reads and fills it.
#[derive(Debug)]
pub(crate) struct ResolveCore {
    root_hints: Arc<[IpAddr]>,
    /// One shared set per referral; a driver asking a zone's servers
    /// holds the same `Arc`. Read one zone at a time (a probe per
    /// ancestor of a question), so a hash table (`ldp_rng::table`).
    delegations: KeyTable<Name, Arc<[IpAddr]>>,
}

impl ResolveCore {
    pub fn new(root_hints: Vec<IpAddr>) -> Self {
        ResolveCore {
            root_hints: root_hints.into(),
            delegations: KeyTable::new(),
        }
    }

    /// Forget every delegation (a cold start; the hints stay).
    pub fn clear(&mut self) {
        self.delegations.clear();
    }

    /// The closest enclosing zone known for `qname` — a copy of its
    /// ancestor, or a view when that is long — and its servers; else the
    /// root and the root hints.
    fn closest(&self, qname: &Name) -> (Name, Arc<[IpAddr]>) {
        let mut cur = Some(qname.clone());
        while let Some(name) = cur {
            if let Some(addrs) = self.delegations.get(&name) {
                return (name, addrs.clone());
            }
            cur = name.parent();
        }
        (Name::root(), self.root_hints.clone())
    }

    /// The closest enclosing zone's servers known for `qname`, else the
    /// root hints: where a walk for it starts.
    #[cfg(test)]
    pub fn best_servers(&self, qname: &Name) -> Arc<[IpAddr]> {
        self.closest(qname).1
    }

    /// Start (or, after a CNAME, restart) `walk` at the closest
    /// enclosing zone known for its question: that zone becomes the
    /// walk's cut, and its servers are the set to ask.
    pub fn start(&self, walk: &mut Walk) -> Arc<[IpAddr]> {
        let (cut, servers) = self.closest(&walk.qname);
        walk.cut = cut;
        servers
    }

    /// Classify `resp`, an upstream's response to the walk's current
    /// question, and advance the walk. Answer records move out of
    /// `resp` into the walk; `glue` is scratch.
    pub fn step(&mut self, walk: &mut Walk, resp: &mut Message, glue: &mut Vec<IpAddr>) -> Step {
        if resp
            .question()
            .is_none_or(|q| q.name != walk.qname || q.qtype != walk.qtype)
        {
            return Step::Stray;
        }
        match resp.rcode {
            Rcode::NoError => {}
            Rcode::NxDomain => {
                let neg_ttl = negative_ttl(&resp.authorities);
                return Step::Done {
                    rcode: Rcode::NxDomain,
                    neg_ttl,
                };
            }
            _ => return Step::NextServer,
        }
        if !resp.answers.is_empty() {
            let has_final = resp.answers.iter().any(|r| r.rtype() == walk.qtype);
            let cname_target = resp.answers.iter().rev().find_map(|r| match &r.rdata {
                RData::Cname(t) => Some(t.clone()),
                _ => None,
            });
            // A long owner that is the question is a view of the decoded
            // message's qname, which the next decode writes over unless
            // something keeps it: it becomes a view of the walk's.
            for rec in &mut resp.answers {
                if rec.name == walk.qname {
                    rec.name = walk.qname.clone();
                }
            }
            // Moved, not cloned: a cache keeps this list for the entry's
            // lifetime, one record in place, more sized to fit.
            walk.answers.append(&mut resp.answers);
            let Some(target) =
                cname_target.filter(|_| !has_final && walk.qtype != RecordType::CNAME)
            else {
                return Step::Done {
                    rcode: Rcode::NoError,
                    neg_ttl: None,
                };
            };
            // The chain left this server's data: the same walk goes on
            // for the target, from the closest servers known for it.
            walk.cname_hops += 1;
            if walk.cname_hops > MAX_CNAME_HOPS {
                return Step::Fail(ResolveError::TooDeep);
            }
            walk.qname = target;
            return Step::Ask(self.start(walk));
        }
        let referral = resp.authorities.iter().find_map(|r| match &r.rdata {
            RData::Ns(target) if !resp.flags.authoritative => Some((&r.name, target)),
            _ => None,
        });
        let Some((zone, first_ns)) = referral else {
            // NODATA: negatively cacheable like NXDOMAIN (RFC 2308).
            let neg_ttl = negative_ttl(&resp.authorities);
            return Step::Done {
                rcode: Rcode::NoError,
                neg_ttl,
            };
        };
        // In bailiwick: the zone encloses the question and lies strictly
        // below the zone this server was asked as. Anything else — a
        // self-referral, a referral upwards or sideways — is a lame
        // answer. The zone kept is the question's ancestor, a copy or a
        // view of the walk's name, not a view of the message's.
        let below_cut =
            |ancestor: &Name| ancestor == zone && ancestor.is_proper_subdomain_of(&walk.cut);
        let Some(zone) = walk.qname.ancestor(zone.label_count()).filter(below_cut) else {
            return Step::NextServer;
        };
        walk.referrals += 1;
        if walk.referrals > MAX_REFERRALS {
            return Step::Fail(ResolveError::TooDeep);
        }
        // Glue is an address record owned by one of the referral's NS
        // targets, in section order; any other additional record steers
        // nothing.
        let is_ns_target = |owner: &Name| {
            let names_it = |r: &Record| matches!(&r.rdata, RData::Ns(target) if target == owner);
            resp.authorities.iter().any(names_it)
        };
        glue.clear();
        glue.extend(resp.additionals.iter().filter_map(|rec| match rec.rdata {
            RData::A(ip) if is_ns_target(&rec.name) => Some(IpAddr::V4(ip)),
            RData::Aaaa(ip) if is_ns_target(&rec.name) => Some(IpAddr::V6(ip)),
            _ => None,
        }));
        walk.cut = zone.clone();
        if !glue.is_empty() {
            let servers: Arc<[IpAddr]> = Arc::from(glue.as_slice());
            self.delegations.insert(zone, servers.clone());
            return Step::Ask(servers);
        }
        if walk.depth >= MAX_NS_DEPTH {
            return Step::Fail(ResolveError::TooDeep);
        }
        Step::ResolveNs {
            zone,
            ns: first_ns.clone(),
        }
    }

    /// The lookup [`Step::ResolveNs`] asked for ended with `answers`
    /// (none, if it failed): `zone`'s servers, the walk's next set, are
    /// their A records.
    pub fn ns_resolved(
        &mut self,
        zone: Name,
        answers: &[Record],
    ) -> Result<Arc<[IpAddr]>, ResolveError> {
        let addrs = answers.iter().filter_map(|r| match r.rdata {
            RData::A(ip) => Some(IpAddr::V4(ip)),
            _ => None,
        });
        let servers: Arc<[IpAddr]> = addrs.collect();
        if servers.is_empty() {
            return Err(ResolveError::Lame("unresolvable NS"));
        }
        self.delegations.insert(zone, servers.clone());
        Ok(servers)
    }
}

/// Generated hierarchies for the differential properties (here, and the
/// driver ≡ driver one next to `SimResolver`): 2–4 levels of zones,
/// each on its own in-process `ServerEngine`s; delegations with glue,
/// without (the NS host named in an earlier zone, or orphaned below
/// its own cut), or for only some NS; CNAME chains of up to 9 inside a
/// zone, across cuts, onto missing names or back onto themselves;
/// zones with and without an SOA; NS sets whose first or later address
/// is dead, lame (REFUSED), forging (another question, right id) or
/// adds a stray address record to its referrals; now and then a server
/// that refers every query back to itself. Zero draws are the plain
/// case, so a failure shrinks towards glue and good servers.
#[cfg(test)]
pub(crate) mod testnet {
    use std::collections::{BTreeMap, BTreeSet};
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Arc;

    use dns_server::ServerEngine;
    use dns_wire::{Message, Name, RData, Record, RecordType, Soa};
    use dns_zone::{Catalog, Zone};
    use ldp_rng::check::Gen;

    use super::{MAX_CNAME_HOPS, MAX_NS_DEPTH, MAX_REFERRALS};
    use crate::Upstream;

    /// One upstream question: who was asked what.
    pub(crate) type Asked = (IpAddr, Name, RecordType);

    /// The address a stray additional record points at: nobody's
    /// nameserver, so nothing may ever be sent there.
    pub(crate) const TRAP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 99);
    /// Long enough that nothing expires within a case.
    const TTL: u32 = 86_400;
    /// The largest NS set (and root-hint list) generated.
    const MAX_NS: usize = 3;

    /// The stated bound on upstream queries one stub query causes when
    /// nameserver-address lookups nest `depth` deep: a walk consumes at
    /// most one answer, `MAX_REFERRALS` referrals and `MAX_CNAME_HOPS`
    /// CNAMEs, each after at most every server of a set was tried, and
    /// each referral can start one nested walk.
    pub(crate) fn query_bound(depth: u8) -> usize {
        let walk = (1 + usize::from(MAX_REFERRALS) + usize::from(MAX_CNAME_HOPS)) * MAX_NS;
        (0..=u32::from(depth.min(MAX_NS_DEPTH)))
            .map(|level| walk * usize::from(MAX_REFERRALS).pow(level))
            .sum()
    }

    pub(crate) fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    enum Server {
        /// Answers from its zones (REFUSED from none: a lame server).
        Zones(Arc<ServerEngine>),
        /// The same, with an address record for a name that is no NS
        /// target ahead of the glue of every referral.
        Stray(Arc<ServerEngine>),
        /// Never replies.
        Dead,
        /// Replies at once, with the query's id, about another name.
        Forger,
    }

    /// The generated Internet: an [`Upstream`] that logs every question
    /// it is asked.
    pub(crate) struct Net {
        pub hints: Vec<IpAddr>,
        servers: BTreeMap<IpAddr, Server>,
        /// What a walk may ask: the hints and every NS target's address.
        pub legit: BTreeSet<IpAddr>,
        pub asked: Vec<Asked>,
        /// A walk that asks more than this does not end.
        pub cap: usize,
    }

    impl Net {
        /// Every address a host must own for the simulator to deliver
        /// (and this net to log) what is sent there.
        pub fn addrs(&self) -> Vec<IpAddr> {
            self.legit
                .iter()
                .copied()
                .chain([IpAddr::V4(TRAP)])
                .collect()
        }
    }

    impl Upstream for Net {
        fn exchange(&mut self, server: IpAddr, query: &Message) -> Option<Message> {
            let q = query.question()?;
            self.asked.push((server, q.name.clone(), q.qtype));
            assert!(
                self.asked.len() <= self.cap,
                "{} upstream queries",
                self.cap
            );
            let client = IpAddr::V4(Ipv4Addr::new(10, 1, 0, 1));
            match self.servers.get(&server)? {
                Server::Zones(engine) => Some(engine.answer(client, query)),
                Server::Stray(engine) => {
                    let mut resp = engine.answer(client, query);
                    if !resp.flags.authoritative && !resp.additionals.is_empty() {
                        let stray = Record::new(name("stray.invalid."), TTL, RData::A(TRAP));
                        resp.additionals.insert(0, stray);
                    }
                    Some(resp)
                }
                Server::Dead => None,
                Server::Forger => {
                    let mut resp = query.response_to();
                    resp.flags.authoritative = true;
                    resp.questions[0].name = name("evil.invalid.");
                    let forged = RData::A(Ipv4Addr::new(203, 0, 113, 66));
                    resp.answers
                        .push(Record::new(name("evil.invalid."), TTL, forged));
                    Some(resp)
                }
            }
        }
    }

    /// One generated hierarchy and the stub questions to put to it.
    pub(crate) struct Case {
        pub net: Net,
        pub questions: Vec<(Name, RecordType)>,
        /// How deep nameserver-address lookups can nest here.
        pub nesting: u8,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Good,
        Stray,
        Dead,
        Lame,
        Forger,
    }

    #[derive(Default)]
    struct Builder {
        /// Only what the old walk and the core treat alike.
        old_only: bool,
        /// Records per zone origin.
        zones: BTreeMap<Name, Vec<Record>>,
        /// Zone origins in creation order, with how deep a lookup of a
        /// name in it nests.
        order: Vec<(Name, u8)>,
        hosts: Vec<(IpAddr, Kind, Name)>,
        names: Vec<Name>,
        next: u32,
    }

    impl Builder {
        fn record(&mut self, zone: &Name, owner: &Name, rdata: RData) {
            let rec = Record::new(owner.clone(), TTL, rdata);
            self.zones.entry(zone.clone()).or_default().push(rec);
        }

        fn fresh(&mut self) -> u32 {
            self.next += 1;
            self.next
        }

        /// A new address serving `zone`, most often well.
        fn host(&mut self, g: &mut Gen, zone: &Name) -> Ipv4Addr {
            let n = self.fresh();
            let ip = Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8);
            let kind = match g.below(10) {
                6 => Kind::Dead,
                7 if !self.old_only => Kind::Lame,
                8 if !self.old_only => Kind::Forger,
                9 => Kind::Stray,
                _ => Kind::Good,
            };
            self.hosts.push((IpAddr::V4(ip), kind, zone.clone()));
            ip
        }

        /// Zone `origin` with its data, and the zones below it down to
        /// `levels`; `nest` is how deep a lookup of a name in it nests.
        fn zone(&mut self, g: &mut Gen, origin: &Name, levels: usize, nest: u8) {
            let soa = Soa {
                mname: name("ns.invalid."),
                rname: name("host.invalid."),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: TTL,
            };
            self.zones.entry(origin.clone()).or_default();
            if g.below(4) != 3 {
                self.record(origin, origin, RData::Soa(soa));
            }
            self.order.push((origin.clone(), nest));
            for i in 0..g.size(1..=2) {
                let host = origin.child(format!("h{i}").as_bytes()).unwrap();
                let n = self.fresh();
                self.record(origin, &host, RData::A(Ipv4Addr::new(192, 0, 2, n as u8)));
                self.names.push(host);
            }
            if levels == 0 {
                return;
            }
            let children = if origin.is_root() { 1..=2 } else { 0..=2 };
            for _ in 0..g.size(children) {
                let n = self.fresh();
                let child = origin.child(format!("z{n}").as_bytes()).unwrap();
                // 0: glue for every NS; 1: for none, the hosts named in
                // an earlier zone; 2: for all but the first; 3: none,
                // the hosts below the cut itself (unresolvable).
                let mode = [0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3][g.below(12) as usize];
                let mut child_nest = nest;
                for i in 0..g.size(1..=MAX_NS) {
                    let ip = self.host(g, &child);
                    let glueless = mode == 1 || (mode == 2 && i == 0);
                    let ns = if glueless {
                        let (home, home_nest) = g.pick(&self.order).clone();
                        let ns = home.child(format!("ns{i}-{n}").as_bytes()).unwrap();
                        self.record(&home, &ns, RData::A(ip));
                        if i == 0 {
                            child_nest = child_nest.max(home_nest + 1);
                        }
                        ns
                    } else {
                        let ns = child.child(format!("ns{i}").as_bytes()).unwrap();
                        self.record(&child, &ns, RData::A(ip));
                        if mode == 3 {
                            child_nest = MAX_NS_DEPTH;
                        } else {
                            self.record(origin, &ns, RData::A(ip));
                        }
                        ns
                    };
                    self.record(origin, &child, RData::Ns(ns.clone()));
                    self.record(&child, &child, RData::Ns(ns.clone()));
                    self.names.push(ns);
                }
                self.zone(g, &child, levels - 1, child_nest);
            }
        }
    }

    /// A case; with `old_only`, one on which the old walk's policies and
    /// the core's coincide: no error rcode, forged question or
    /// self-referring server, and no CNAME chain longer than 4.
    pub(crate) fn gen_case(g: &mut Gen, old_only: bool) -> Case {
        let mut b = Builder {
            old_only,
            ..Builder::default()
        };
        let root = Name::root();
        let hints: Vec<IpAddr> = (0..g.size(1..=2))
            .map(|_| IpAddr::V4(b.host(g, &root)))
            .collect();
        let levels = g.size(1..=3);
        b.zone(g, &root, levels, 0);
        // Names worth a question of their own: chain heads, the loop.
        let mut special = Vec::new();

        // CNAME chains: each link in a zone of its own choosing, ending
        // on a host, on a missing name, or back on its first link.
        for c in 0..g.size(0..=3) {
            let len = g.size(1..=if old_only { 4 } else { 9 });
            let owners: Vec<(Name, Name)> = (0..len)
                .map(|i| {
                    let zone = g.pick(&b.order).0.clone();
                    let owner = zone.child(format!("c{c}-{i}").as_bytes()).unwrap();
                    (zone, owner)
                })
                .collect();
            let end = match g.below(3) {
                0 => g.pick(&b.names).clone(),
                1 => g.pick(&b.order).0.child(b"missing").unwrap(),
                _ => owners[0].1.clone(),
            };
            for (i, (zone, owner)) in owners.iter().enumerate() {
                let target = owners.get(i + 1).map_or(&end, |(_, next)| next).clone();
                b.record(zone, owner, RData::Cname(target));
            }
            special.push(owners[0].1.clone());
        }

        // A server every query to which is referred back to it.
        let mut legit: BTreeSet<IpAddr> = hints.iter().copied().collect();
        let mut servers = BTreeMap::new();
        if !old_only && g.below(6) == 5 {
            let parent = g.pick(&b.order).0.clone();
            let cut = parent.child(b"loop").unwrap();
            let ns = cut.child(b"ns").unwrap();
            let ip = Ipv4Addr::new(10, 9, 9, 9);
            let mut fake = Zone::new(parent.clone());
            for (owner, rdata) in [(&cut, RData::Ns(ns.clone())), (&ns, RData::A(ip))] {
                b.record(&parent, owner, rdata.clone());
                fake.insert(Record::new(owner.clone(), TTL, rdata)).unwrap();
            }
            let mut catalog = Catalog::new();
            catalog.insert(fake);
            let engine = Arc::new(ServerEngine::with_catalog(catalog));
            servers.insert(IpAddr::V4(ip), Server::Zones(engine));
            legit.insert(IpAddr::V4(ip));
            special.push(cut.child(b"x").unwrap());
        }

        let mut engines: BTreeMap<Name, Arc<ServerEngine>> = BTreeMap::new();
        for (origin, records) in &b.zones {
            let mut zone = Zone::new(origin.clone());
            for rec in records {
                zone.insert(rec.clone()).unwrap();
            }
            let mut catalog = Catalog::new();
            catalog.insert(zone);
            engines.insert(
                origin.clone(),
                Arc::new(ServerEngine::with_catalog(catalog)),
            );
        }
        let lame = Arc::new(ServerEngine::with_catalog(Catalog::new()));
        for (ip, kind, zone) in &b.hosts {
            let server = match kind {
                Kind::Good => Server::Zones(engines[zone].clone()),
                Kind::Stray => Server::Stray(engines[zone].clone()),
                Kind::Dead => Server::Dead,
                Kind::Lame => Server::Zones(lame.clone()),
                Kind::Forger => Server::Forger,
            };
            servers.insert(*ip, server);
            legit.insert(*ip);
        }

        let nesting = b.order.iter().map(|(_, nest)| *nest).max().unwrap_or(0);
        let questions = g.vec(1..=4, |g| match g.below(8) {
            0 => (name("h0.nope."), RecordType::A),
            1 => (g.pick(&b.order).0.child(b"missing").unwrap(), RecordType::A),
            2 => (g.pick(&b.names).clone(), RecordType::AAAA),
            3..=5 if !special.is_empty() => (g.pick(&special).clone(), RecordType::A),
            _ => (g.pick(&b.names).clone(), RecordType::A),
        });
        Case {
            net: Net {
                hints,
                servers,
                legit,
                asked: Vec::new(),
                cap: query_bound(nesting),
            },
            questions,
            nesting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testnet::{gen_case, name, query_bound};
    use super::*;
    use crate::IterativeResolver;
    use dns_wire::Soa;
    use ldp_rng::check::check;

    fn rec(owner: &str, rdata: RData) -> Record {
        Record::new(name(owner), 300, rdata)
    }

    fn a(owner: &str, ip: &str) -> Record {
        rec(owner, RData::A(ip.parse().unwrap()))
    }

    /// The response of a server that is not authoritative for `qname`:
    /// `authorities` and `additionals` as given.
    fn response(qname: &str, authorities: Vec<Record>, additionals: Vec<Record>) -> Message {
        let mut resp = Message::query(7, name(qname), RecordType::A).response_to();
        resp.authorities = authorities;
        resp.additionals = additionals;
        resp
    }

    fn ips(addrs: &[&str]) -> Vec<IpAddr> {
        addrs.iter().map(|ip| ip.parse().unwrap()).collect()
    }

    #[test]
    fn glue_is_what_an_ns_target_owns_in_section_order() {
        let mut core = ResolveCore::new(ips(&["198.41.0.4"]));
        let mut walk = Walk::new(name("www.example."), RecordType::A);
        let mut resp = response(
            "www.example.",
            vec![
                rec("example.", RData::Ns(name("ns1.example."))),
                rec("example.", RData::Ns(name("ns2.elsewhere."))),
            ],
            vec![
                a("evil.invalid.", "203.0.113.66"),
                a("ns2.elsewhere.", "10.0.0.2"),
                rec("ns1.example.", RData::Aaaa("2001:db8::1".parse().unwrap())),
                a("ns1.example.", "10.0.0.1"),
            ],
        );
        let want = ips(&["10.0.0.2", "2001:db8::1", "10.0.0.1"]);
        let mut again = resp.clone();
        match core.step(&mut walk, &mut resp, &mut Vec::new()) {
            Step::Ask(servers) => assert_eq!(*servers, *want),
            other => panic!("{other:?}"),
        }
        assert_eq!(*core.best_servers(&name("mail.example.")), *want);
        assert_eq!(
            *core.best_servers(&name("example.org.")),
            *ips(&["198.41.0.4"])
        );
        // The same referral from the servers it named refers the walk to
        // where it is: lame.
        let step = core.step(&mut walk, &mut again, &mut Vec::new());
        assert!(matches!(step, Step::NextServer), "{step:?}");

        // Addresses, but none an NS target owns: resolve the first NS.
        // (A new walk, asking at the root like the first.)
        let mut walk = Walk::new(name("www.example."), RecordType::A);
        resp = response(
            "www.example.",
            vec![rec("example.", RData::Ns(name("ns1.example.")))],
            vec![a("evil.invalid.", "203.0.113.66")],
        );
        match core.step(&mut walk, &mut resp, &mut Vec::new()) {
            Step::ResolveNs { zone, ns } => {
                assert_eq!((zone, ns), (name("example."), name("ns1.example.")));
            }
            other => panic!("{other:?}"),
        }
        // Which is as deep as lookups nest, four levels down.
        let mut deep = Walk::new(name("www.example."), RecordType::A);
        for _ in 0..MAX_NS_DEPTH {
            deep = deep.for_nameserver(name("www.example."));
        }
        resp.authorities = vec![rec("example.", RData::Ns(name("ns1.example.")))];
        let step = core.step(&mut deep, &mut resp, &mut Vec::new());
        assert!(
            matches!(step, Step::Fail(ResolveError::TooDeep)),
            "{step:?}"
        );
        // The lookup's A records are the zone's servers; none is a failure.
        let found = core.ns_resolved(name("example."), &[a("ns1.example.", "10.0.0.9")]);
        assert_eq!(*found.unwrap(), *ips(&["10.0.0.9"]));
        assert_eq!(
            *core.best_servers(&name("www.example.")),
            *ips(&["10.0.0.9"])
        );
        let cname = rec("ns1.example.", RData::Cname(name("gone.example.")));
        assert!(core.ns_resolved(name("example."), &[cname]).is_err());
    }

    /// A server asked about one zone's name cannot teach the walk where
    /// a sibling zone is: the referral is lame, and the sibling's
    /// servers stay the ones its own parent names.
    #[test]
    fn a_referral_to_another_zone_poisons_nothing() {
        let hints = ips(&["198.41.0.4"]);
        let mut core = ResolveCore::new(hints.clone());
        let mut walk = Walk::new(name("www.a.example."), RecordType::A);
        let mut resp = response(
            "www.a.example.",
            vec![rec("b.example.", RData::Ns(name("ns.evil.")))],
            vec![a("ns.evil.", "203.0.113.66")],
        );
        let step = core.step(&mut walk, &mut resp, &mut Vec::new());
        assert!(matches!(step, Step::NextServer), "{step:?}");
        assert_eq!(*core.best_servers(&name("mail.b.example.")), *hints);
    }

    /// Nor can any server refer a walk to the root: that would name the
    /// servers of every later walk.
    #[test]
    fn a_referral_to_the_root_poisons_nothing() {
        let hints = ips(&["198.41.0.4"]);
        let mut core = ResolveCore::new(hints.clone());
        let mut walk = Walk::new(name("www.example."), RecordType::A);
        let mut resp = response(
            "www.example.",
            vec![rec(".", RData::Ns(name("ns.evil.")))],
            vec![a("ns.evil.", "203.0.113.66")],
        );
        let step = core.step(&mut walk, &mut resp, &mut Vec::new());
        assert!(matches!(step, Step::NextServer), "{step:?}");
        assert_eq!(*core.best_servers(&name("www.org.")), *hints);
    }

    /// A referral for `qname` to `zone`, whose one server `ns.<zone>`
    /// has glue.
    fn referral(qname: &str, zone: &Name) -> Message {
        let ns = zone.child(b"ns").unwrap().to_string();
        let authority = Record::new(zone.clone(), 300, RData::Ns(name(&ns)));
        response(qname, vec![authority], vec![a(&ns, "10.9.9.9")])
    }

    /// A question `MAX_REFERRALS + 1` labels deep, so a walk can be
    /// referred one label further down that many times.
    fn deep_qname() -> String {
        (0..=MAX_REFERRALS).map(|i| format!("l{i}.")).collect()
    }

    #[test]
    fn a_referral_loop_and_a_cname_loop_end_at_their_bounds() {
        let mut core = ResolveCore::new(ips(&["198.41.0.4"]));
        // A server that refers the walk to the zone it was asked as, or
        // above it, is lame: the walk moves on instead of going round.
        let mut walk = Walk::new(name("x.loop.example."), RecordType::A);
        let mut refer = |zone: &str| {
            let mut resp = referral("x.loop.example.", &name(zone));
            core.step(&mut walk, &mut resp, &mut Vec::new())
        };
        let step = refer("loop.example.");
        assert!(matches!(step, Step::Ask(_)), "{step:?}");
        for zone in ["loop.example.", "example.", ".", "other.example."] {
            let step = refer(zone);
            assert!(matches!(step, Step::NextServer), "{zone}: {step:?}");
        }
        // Ever deeper is no loop, but it ends, at the bound.
        let qname = deep_qname();
        let mut walk = Walk::new(name(&qname), RecordType::A);
        for labels in 1..=usize::from(MAX_REFERRALS) + 1 {
            let zone = walk.qname.ancestor(labels).unwrap();
            let step = core.step(&mut walk, &mut referral(&qname, &zone), &mut Vec::new());
            if labels <= usize::from(MAX_REFERRALS) {
                assert!(matches!(step, Step::Ask(_)), "{step:?}");
            } else {
                assert!(
                    matches!(step, Step::Fail(ResolveError::TooDeep)),
                    "{step:?}"
                );
            }
        }

        let mut walk = Walk::new(name("a.example."), RecordType::A);
        for hop in 0..=MAX_CNAME_HOPS {
            let (owner, target) =
                [("a.example.", "b.example."), ("b.example.", "a.example.")][usize::from(hop % 2)];
            let mut resp = response(owner, vec![], vec![]);
            resp.flags.authoritative = true;
            resp.answers = vec![rec(owner, RData::Cname(name(target)))];
            let step = core.step(&mut walk, &mut resp, &mut Vec::new());
            if hop < MAX_CNAME_HOPS {
                assert!(matches!(step, Step::Ask(_)), "{step:?}");
                assert_eq!(walk.qname, name(target));
            } else {
                assert!(
                    matches!(step, Step::Fail(ResolveError::TooDeep)),
                    "{step:?}"
                );
            }
        }
    }

    #[test]
    fn strays_errors_and_negative_answers() {
        let mut core = ResolveCore::new(ips(&["198.41.0.4"]));
        let mut walk = Walk::new(name("www.example."), RecordType::A);
        let glue = &mut Vec::new();
        // Another question's answer is nobody's, whatever it carries.
        let mut forged = response("evil.example.", vec![], vec![]);
        forged.answers = vec![a("evil.example.", "203.0.113.66")];
        assert!(matches!(
            core.step(&mut walk, &mut forged, glue),
            Step::Stray
        ));
        let mut no_question = response("www.example.", vec![], vec![]);
        no_question.questions.clear();
        assert!(matches!(
            core.step(&mut walk, &mut no_question, glue),
            Step::Stray
        ));
        assert!(walk.answers.is_empty());
        // An error rcode is one server's.
        for rcode in [Rcode::Refused, Rcode::ServFail, Rcode::FormErr] {
            let mut resp = response("www.example.", vec![], vec![]);
            resp.rcode = rcode;
            assert!(matches!(
                core.step(&mut walk, &mut resp, glue),
                Step::NextServer
            ));
        }
        // Negative answers: the SOA's TTL when there is one.
        let soa = Soa {
            mname: name("ns.example."),
            rname: name("host.example."),
            serial: 1,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 60,
        };
        for (rcode, authorities, want) in [
            (
                Rcode::NxDomain,
                vec![rec("example.", RData::Soa(soa.clone()))],
                Some(60),
            ),
            (Rcode::NxDomain, vec![], None),
            (
                Rcode::NoError,
                vec![rec("example.", RData::Soa(soa))],
                Some(60),
            ),
            (Rcode::NoError, vec![], None),
        ] {
            let mut resp = response("www.example.", authorities, vec![]);
            resp.flags.authoritative = true;
            resp.rcode = rcode;
            match core.step(&mut walk, &mut resp, glue) {
                Step::Done {
                    rcode: got,
                    neg_ttl,
                } => assert_eq!((got, neg_ttl), (rcode, want)),
                other => panic!("{other:?}"),
            }
        }
    }

    /// Property (2): wherever the old walk's policies were already the
    /// core's, the core walks as it did — the same rcode, answers and
    /// upstream questions, each question from a cold start.
    #[test]
    fn the_core_walks_as_the_old_walk_did() {
        check(256, |g| {
            let mut case = gen_case(g, true);
            for (qname, qtype) in &case.questions {
                let mut old = reference::IterativeResolver::new(case.net.hints.clone());
                let want = old.resolve(&mut case.net, qname, *qtype, 0.0);
                let want_asked = std::mem::take(&mut case.net.asked);
                if want == Err(ResolveError::TooDeep) {
                    // The old depth policy: CNAME hops and nameserver
                    // lookups spent one counter of four.
                    continue;
                }
                let mut new = IterativeResolver::new(case.net.hints.clone());
                let got = new.resolve(&mut case.net, qname, *qtype, 0.0);
                assert_eq!(got, want, "{qname} {qtype}");
                assert_eq!(std::mem::take(&mut case.net.asked), want_asked);
            }
        });
    }

    /// Property (3), the stated limits, on any generated hierarchy —
    /// lame, forging, looping and stray-bearing servers included — and
    /// a resolver that stays warm from question to question: a stub
    /// query costs at most `query_bound` upstream queries (the net
    /// panics at one more), every one of them to a root hint or an NS
    /// target's address, and an answer is a chain from the question
    /// asked.
    #[test]
    fn a_walk_stays_within_its_stated_limits() {
        check(256, |g| {
            let mut case = gen_case(g, false);
            let mut resolver = IterativeResolver::new(case.net.hints.clone());
            for (qname, qtype) in &case.questions {
                let res = resolver.resolve(&mut case.net, qname, *qtype, 0.0);
                let asked = std::mem::take(&mut case.net.asked);
                assert!(asked.len() <= query_bound(case.nesting));
                for (server, ..) in &asked {
                    assert!(case.net.legit.contains(server), "asked {server}");
                }
                let Ok(res) = res else {
                    continue;
                };
                assert_eq!(res.upstream_queries, asked.len());
                let mut owner = qname;
                for rec in &res.answers {
                    assert_eq!(&rec.name, owner, "{:?}", res.answers);
                    if let RData::Cname(target) = &rec.rdata {
                        owner = target;
                    }
                }
            }
        });
    }
}

/// The walk the core replaced — `iterative.rs`'s `resolve_inner`,
/// `classify` and `soa_min_ttl` as they stood, kept verbatim — as the
/// reference of the property that the core walks as it did wherever
/// the policies were already the same.
#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test-only reference kept verbatim; its maps are keyed, never iterated"
)]
mod reference {
    use std::collections::HashMap;
    use std::net::IpAddr;

    use dns_wire::{Message, Name, Question, RData, Rcode, Record, RecordType};
    use ldp_cache::{CachedAnswer, FillInfo, ResolverCache};

    use crate::{Resolution, ResolveError, Upstream};

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
                        answers: answers.records(qname).unwrap(),
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
                self.cache.put_positive(
                    qname,
                    qtype,
                    res.answers.clone(),
                    now,
                    FillInfo::default(),
                );
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
}
