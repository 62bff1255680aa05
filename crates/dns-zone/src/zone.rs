//! The zone: an origin plus a canonical-ordered tree of nodes, each
//! holding RRsets, with delegation (zone cut) awareness.
//!
//! Canonical order (RFC 4034 §6.1) is what keeps every per-query
//! question about the tree a probe, not a scan. The subdomains of a
//! name are the run of nodes directly after it, so one ordered probe
//! says whether a name holds data, is an empty non-terminal, or has
//! nothing at or below it: [`Zone::walk`] matches a query name down
//! from the apex with one such probe per label and stops at the name,
//! at the first cut or at the first label that does not match. The
//! NSEC that denies a name is owned by the last NSEC holder at or
//! before it, so the search is a reverse range walk from the name —
//! one step in a signed zone, and not taken at all in an unsigned one,
//! which the zone knows from a count of its NSEC-holding nodes.

// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::BTreeMap;

use dns_wire::{Name, RData, Record, RecordType, Soa};

use crate::rrset::RRset;
use crate::tail::Tails;

/// Errors constructing a zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneError {
    /// Record owner is outside the zone's origin.
    OutOfZone {
        /// The offending owner name.
        name: String,
    },
    /// The zone has no SOA at its apex.
    MissingSoa,
    /// A CNAME coexists with other data at the same node.
    CnameAndOther(String),
    /// Multiple CNAMEs at one node.
    MultipleCname(String),
}

impl std::fmt::Display for ZoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoneError::OutOfZone { name } => write!(f, "record {name} outside zone"),
            ZoneError::MissingSoa => write!(f, "zone has no SOA record at apex"),
            ZoneError::CnameAndOther(n) => write!(f, "CNAME and other data at {n}"),
            ZoneError::MultipleCname(n) => write!(f, "multiple CNAME records at {n}"),
        }
    }
}

impl std::error::Error for ZoneError {}

/// All RRsets at one owner name.
#[derive(Debug, Clone, Default)]
pub struct Node {
    /// RRsets keyed by type.
    pub rrsets: BTreeMap<u16, RRset>,
    /// At a zone cut, the index of its referral's tails in the zone's
    /// compiled [`Tails`]; 0 elsewhere (slot 0 is the name error's).
    pub(crate) tail: u32,
}

/// Equal RRsets: the tail index is derived from them.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.rrsets == other.rrsets
    }
}

impl Eq for Node {}

impl Node {
    /// RRset of `rtype` at this node, if present.
    pub fn get(&self, rtype: RecordType) -> Option<&RRset> {
        self.rrsets.get(&rtype.to_u16())
    }

    /// All RRsets at this node.
    pub fn iter(&self) -> impl Iterator<Item = &RRset> {
        self.rrsets.values()
    }
}

/// Where [`Zone::walk`]'s match down the zone towards a name ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk<'z> {
    /// A delegation at or above the name, below the apex: the highest
    /// one, its node and its NS RRset.
    Cut {
        /// The cut's owner name.
        cut: &'z Name,
        /// The node at the cut (its DS and RRSIG go into a referral).
        node: &'z Node,
        /// The NS RRset at the cut.
        ns: &'z RRset,
    },
    /// The name holds data.
    Node(&'z Node),
    /// The name is an empty non-terminal: it holds nothing, but names
    /// exist below it.
    Empty,
    /// Nothing exists at or below the name.
    Missing {
        /// The label count of the closest encloser, the deepest
        /// ancestor that exists (the apex in an empty zone).
        encloser: usize,
    },
}

/// An authoritative zone: origin name and the node tree.
///
/// Nodes are kept in canonical DNS order ([`Name`]'s `Ord`), which makes
/// the match down to a name and NSEC chains straightforward (module
/// docs): [`Zone::walk`] is one `BTreeMap` probe per label below the
/// apex, [`Zone::covering_nsec`] and [`Zone::wildcard_below`] one probe
/// each, never a walk of the zone.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    pub(crate) nodes: BTreeMap<Name, Node>,
    /// How many nodes hold an NSEC RRset. A function of `nodes` (kept
    /// by `insert` and `strip_dnssec`), so equality need not compare
    /// it; zero lets an unsigned zone skip the covering-NSEC search
    /// altogether.
    pub(crate) nsec_nodes: usize,
    /// Each name with a `*` child, mapped to that child's owner name.
    /// A function of `nodes` like `nsec_nodes`, kept by the same two
    /// methods: the wildcard probe is a lookup by the closest encloser,
    /// and a zone without wildcards answers it from the empty map.
    wildcards: BTreeMap<Name, Name>,
    /// The compiled reply tails ([`Zone::compile_tails`]): slot 0 the
    /// name error's, then one per zone cut, found from the cut's node.
    /// Emptied by every edit, so a tail never outlives the records it
    /// was compiled from.
    pub(crate) tails: Vec<Tails>,
}

/// Equal contents: the NSEC count, the wildcard map and the tails are
/// all derived from them.
impl PartialEq for Zone {
    fn eq(&self, other: &Self) -> bool {
        self.origin == other.origin && self.nodes == other.nodes
    }
}

impl Eq for Zone {}

impl Zone {
    /// Empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            nodes: BTreeMap::new(),
            nsec_nodes: 0,
            wildcards: BTreeMap::new(),
            tails: Vec::new(),
        }
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Insert a record. Owner must be at or below the origin.
    pub fn insert(&mut self, rec: Record) -> Result<(), ZoneError> {
        if !rec.name.is_subdomain_of(&self.origin) {
            return Err(ZoneError::OutOfZone {
                name: rec.name.to_string(),
            });
        }
        self.tails.clear();
        let rtype = rec.rdata.record_type();
        let node = self.nodes.entry(rec.name.clone()).or_default();
        // CNAME exclusivity (RFC 1034 §3.6.2); DNSSEC types may coexist.
        if rtype == RecordType::CNAME {
            if node
                .rrsets
                .keys()
                .any(|&t| !RecordType::from_u16(t).is_dnssec() && t != RecordType::CNAME.to_u16())
            {
                return Err(ZoneError::CnameAndOther(rec.name.to_string()));
            }
            if let Some(existing) = node.get(RecordType::CNAME) {
                if !existing.rdatas.contains(&rec.rdata) && !existing.rdatas.is_empty() {
                    return Err(ZoneError::MultipleCname(rec.name.to_string()));
                }
            }
        } else if !rtype.is_dnssec() && node.get(RecordType::CNAME).is_some() {
            return Err(ZoneError::CnameAndOther(rec.name.to_string()));
        }
        if rtype == RecordType::NSEC && node.get(RecordType::NSEC).is_none() {
            self.nsec_nodes += 1;
        }
        if rec.name.is_wildcard() {
            if let Some(parent) = rec.name.parent() {
                let wild = || rec.name.clone();
                self.wildcards.entry(parent).or_insert_with(wild);
            }
        }
        node.rrsets
            .entry(rtype.to_u16())
            .or_insert_with(|| RRset::new(rec.name.clone(), rtype, rec.ttl))
            .push(rec);
        Ok(())
    }

    /// Node at exactly `name`, if any.
    pub fn node(&self, name: &Name) -> Option<&Node> {
        self.nodes.get(name)
    }

    /// The SOA RRset at the apex.
    pub fn soa_rrset(&self) -> Option<&RRset> {
        self.nodes.get(&self.origin)?.get(RecordType::SOA)
    }

    /// The parsed SOA fields.
    pub fn soa(&self) -> Option<&Soa> {
        match self.soa_rrset()?.rdatas.first()? {
            RData::Soa(soa) => Some(soa),
            _ => None,
        }
    }

    /// The apex NS RRset.
    pub fn apex_ns(&self) -> Option<&RRset> {
        self.nodes.get(&self.origin)?.get(RecordType::NS)
    }

    /// Validate structural invariants: SOA present at apex.
    pub fn validate(&self) -> Result<(), ZoneError> {
        if self.soa().is_none() {
            return Err(ZoneError::MissingSoa);
        }
        Ok(())
    }

    /// Match down the zone from just below the apex to `qname`, one
    /// ordered probe per label (RFC 1034 §4.3.2 step 3), and say where
    /// the match ends; `None` when `qname` is outside the zone.
    ///
    /// Each probe reads the first node at or after an ancestor: the
    /// ancestor itself, a name below it (canonical order puts a name's
    /// subtree directly after it: an empty non-terminal), or neither,
    /// which ends the walk. The apex is taken to exist and is probed
    /// only when it is `qname`.
    pub fn walk(&self, qname: &Name) -> Option<Walk<'_>> {
        if !qname.is_subdomain_of(&self.origin) {
            return None;
        }
        let (top, last) = (self.origin.label_count(), qname.label_count());
        let mut labels = (top + 1).min(last);
        loop {
            let name = qname.ancestor(labels)?;
            let exists = match self.nodes.range::<Name, _>(&name..).next() {
                Some((cut, node)) if *cut == name => match node.get(RecordType::NS) {
                    // The highest cut shadows everything below it.
                    Some(ns) if labels > top => return Some(Walk::Cut { cut, node, ns }),
                    _ if labels == last => return Some(Walk::Node(node)),
                    _ => true,
                },
                Some((below, _)) => below.is_subdomain_of(&name),
                None => false,
            };
            match (exists, labels == last) {
                (true, false) => labels += 1,
                // No node at `qname` (that returned above), but names below it.
                (true, true) => return Some(Walk::Empty),
                (false, _) => {
                    let encloser = labels.saturating_sub(1).max(top);
                    return Some(Walk::Missing { encloser });
                }
            }
        }
    }

    /// The highest delegation point at or above `qname` and below the
    /// apex, with its NS RRset: [`Zone::walk`]'s [`Walk::Cut`]. A query
    /// at or below a cut is answered with a referral, not an
    /// authoritative answer — the behaviour that forces naive
    /// single-server hierarchies to give wrong answers (paper §2.4) and
    /// that the split-horizon emulation preserves.
    pub fn find_zone_cut(&self, qname: &Name) -> Option<(&Name, &RRset)> {
        match self.walk(qname)? {
            Walk::Cut { cut, ns, .. } => Some((cut, ns)),
            _ => None,
        }
    }

    /// The wildcard node directly below `encloser` (`*.encloser`), if
    /// the zone has one.
    pub fn wildcard_below(&self, encloser: &Name) -> Option<&Node> {
        self.nodes.get(self.wildcards.get(encloser)?)
    }

    /// The node that carries the NSEC covering `qname`, with its owner
    /// name: the last zone name canonically ≤ `qname` that holds an
    /// NSEC RRset (RFC 4034 §4). `None` in an unsigned zone, without
    /// looking at a single node; in a signed zone the reverse walk
    /// stops at the first predecessor, since every name owns an NSEC.
    pub fn covering_nsec(&self, qname: &Name) -> Option<(&Name, &Node)> {
        if self.nsec_nodes == 0 {
            return None;
        }
        self.nodes
            .range::<Name, _>(..=qname)
            .rev()
            .find(|(_, node)| node.get(RecordType::NSEC).is_some())
    }

    /// Iterate all nodes in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Node)> {
        self.nodes.iter()
    }

    /// Iterate all records in canonical order.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.nodes
            .values()
            .flat_map(|node| node.iter().flat_map(|set| set.to_records()))
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.nodes
            .values()
            .map(|n| n.iter().map(|s| s.len()).sum::<usize>())
            .sum()
    }

    /// Remove signing output (DNSKEY/RRSIG/NSEC/NSEC3). DS records are
    /// *kept*: they are delegation data owned by this zone's operator,
    /// not an artifact of signing, and re-signing must preserve them.
    pub fn strip_dnssec(&mut self) {
        self.tails.clear();
        for node in self.nodes.values_mut() {
            node.rrsets.retain(|&t, _| {
                let ty = RecordType::from_u16(t);
                !ty.is_dnssec() || ty == RecordType::DS
            });
        }
        self.nodes.retain(|_, node| !node.rrsets.is_empty());
        self.nsec_nodes = 0;
        let nodes = &self.nodes;
        self.wildcards.retain(|_, wild| nodes.contains_key(wild));
    }

    /// Names in canonical order (for NSEC chain construction).
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.nodes.keys()
    }
}

/// The linear implementations the probes above replaced, kept as the
/// oracle for the generated-zone property in `lookup.rs`.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub fn find_zone_cut<'z>(zone: &'z Zone, qname: &Name) -> Option<(&'z Name, &'z RRset)> {
        if !qname.is_subdomain_of(&zone.origin) {
            return None;
        }
        let mut ancestors: Vec<Name> = Vec::new();
        let mut cur = qname.clone();
        while cur.label_count() > zone.origin.label_count() {
            ancestors.push(cur.clone());
            cur = cur.parent()?;
        }
        for anc in ancestors.iter().rev() {
            if let Some((name, node)) = zone.nodes.get_key_value(anc) {
                if let Some(ns) = node.get(RecordType::NS) {
                    return Some((name, ns));
                }
            }
        }
        None
    }

    pub fn closest_encloser(zone: &Zone, qname: &Name) -> Option<Name> {
        let mut cur = qname.parent()?;
        loop {
            if zone.nodes.contains_key(&cur) || has_names_below(zone, &cur) {
                return Some(cur);
            }
            if cur == zone.origin {
                return None;
            }
            cur = cur.parent()?;
        }
    }

    pub fn has_names_below(zone: &Zone, name: &Name) -> bool {
        zone.nodes
            .range(name.clone()..)
            .any(|(n, _)| n != name && n.is_subdomain_of(name))
    }

    /// The wildcard probe as it was: build `*.encloser`, look it up.
    pub fn wildcard_below<'z>(zone: &'z Zone, encloser: &Name) -> Option<&'z Node> {
        zone.node(&encloser.child(b"*").ok()?)
    }

    pub fn covering_nsec<'z>(zone: &'z Zone, qname: &Name) -> Option<(&'z Name, &'z Node)> {
        zone.names()
            .filter(|name| name.canonical_cmp(qname) != std::cmp::Ordering::Greater)
            .filter(|name| {
                zone.node(name)
                    .map(|node| node.get(RecordType::NSEC).is_some())
                    .unwrap_or(false)
            })
            .last()
            .and_then(|name| zone.nodes.get_key_value(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn rec(name: &str, rd: RData) -> Record {
        Record::new(n(name), 3600, rd)
    }

    fn soa_rec(zone: &str) -> Record {
        rec(
            zone,
            RData::Soa(Soa {
                mname: n("ns1.example.com"),
                rname: n("admin.example.com"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 3600,
            }),
        )
    }

    fn example_zone() -> Zone {
        let mut z = Zone::new(n("example.com"));
        z.insert(soa_rec("example.com")).unwrap();
        z.insert(rec("example.com", RData::Ns(n("ns1.example.com"))))
            .unwrap();
        z.insert(rec(
            "ns1.example.com",
            RData::A("10.0.0.53".parse().unwrap()),
        ))
        .unwrap();
        z.insert(rec(
            "www.example.com",
            RData::A("10.0.0.1".parse().unwrap()),
        ))
        .unwrap();
        // Delegation: sub.example.com is its own zone.
        z.insert(rec("sub.example.com", RData::Ns(n("ns.sub.example.com"))))
            .unwrap();
        z.insert(rec(
            "ns.sub.example.com",
            RData::A("10.0.1.53".parse().unwrap()),
        ))
        .unwrap();
        // Deep name creating an empty non-terminal at b.example.com.
        z.insert(rec(
            "a.b.example.com",
            RData::A("10.0.0.2".parse().unwrap()),
        ))
        .unwrap();
        z
    }

    #[test]
    fn insert_and_lookup() {
        let z = example_zone();
        assert!(z.validate().is_ok());
        let www = z.node(&n("www.example.com")).unwrap();
        assert_eq!(
            www.iter().map(|set| set.rtype).collect::<Vec<_>>(),
            [RecordType::A]
        );
        assert!(z.node(&n("nothere.example.com")).is_none());
        assert!(z.soa().is_some());
        assert_eq!(z.apex_ns().unwrap().len(), 1);
    }

    #[test]
    fn out_of_zone_rejected() {
        let mut z = Zone::new(n("example.com"));
        let err = z
            .insert(rec("example.org", RData::A("1.1.1.1".parse().unwrap())))
            .unwrap_err();
        assert!(matches!(err, ZoneError::OutOfZone { .. }));
    }

    #[test]
    fn missing_soa_invalid() {
        let z = Zone::new(n("example.com"));
        assert_eq!(z.validate(), Err(ZoneError::MissingSoa));
    }

    #[test]
    fn zone_cut_found_for_names_below() {
        let z = example_zone();
        let (cut, ns) = z.find_zone_cut(&n("host.sub.example.com")).unwrap();
        assert_eq!(cut, &n("sub.example.com"));
        assert_eq!(ns.rtype, RecordType::NS);
        // Query exactly at the cut is also a referral.
        let (cut, _) = z.find_zone_cut(&n("sub.example.com")).unwrap();
        assert_eq!(cut, &n("sub.example.com"));
    }

    #[test]
    fn apex_ns_is_not_a_cut() {
        let z = example_zone();
        assert!(z.find_zone_cut(&n("www.example.com")).is_none());
        assert!(z.find_zone_cut(&n("example.com")).is_none());
    }

    #[test]
    fn closest_encloser_walks_up() {
        let z = example_zone();
        let encloser = |q: &str| match z.walk(&n(q)) {
            Some(Walk::Missing { encloser }) => n(q).ancestor(encloser),
            _ => None,
        };
        assert_eq!(encloser("x.y.www.example.com"), Some(n("www.example.com")));
        assert_eq!(encloser("zzz.example.com"), Some(n("example.com")));
        // Empty non-terminal is a valid encloser.
        assert_eq!(encloser("x.b.example.com"), Some(n("b.example.com")));
        assert_eq!(encloser("www.example.com"), None, "the name exists");
    }

    #[test]
    fn empty_non_terminal_detected() {
        let z = example_zone();
        assert!(z.node(&n("b.example.com")).is_none());
        assert_eq!(z.walk(&n("b.example.com")), Some(Walk::Empty));
        let www = z.node(&n("www.example.com")).unwrap();
        assert_eq!(z.walk(&n("www.example.com")), Some(Walk::Node(www)));
        assert_eq!(z.walk(&n("example.org")), None, "out of zone");
    }

    fn nsec_rec(name: &str, next: &str) -> Record {
        rec(
            name,
            RData::Nsec {
                next: n(next),
                types: vec![RecordType::A],
            },
        )
    }

    #[test]
    fn covering_nsec_is_the_last_holder_at_or_before_the_name() {
        let mut z = example_zone();
        assert!(z.covering_nsec(&n("zzz.example.com")).is_none(), "unsigned");
        z.insert(nsec_rec("example.com", "ns1.example.com"))
            .unwrap();
        z.insert(nsec_rec("ns1.example.com", "www.example.com"))
            .unwrap();
        let holder = |q: &str| z.covering_nsec(&n(q)).map(|(name, _)| name.clone());
        // Sparse chain: names between holders fall back to the holder
        // before them, an owner covers itself, nothing precedes the apex.
        assert_eq!(holder("example.com"), Some(n("example.com")));
        assert_eq!(holder("a.b.example.com"), Some(n("example.com")));
        assert_eq!(holder("ns1.example.com"), Some(n("ns1.example.com")));
        assert_eq!(holder("zzz.example.com"), Some(n("ns1.example.com")));
        assert_eq!(holder("com"), None);
    }

    #[test]
    fn nsec_count_follows_the_contents() {
        let mut signed = example_zone();
        signed
            .insert(nsec_rec("example.com", "www.example.com"))
            .unwrap();
        // A second NSEC record at the same owner is the same node.
        signed
            .insert(nsec_rec("example.com", "ns1.example.com"))
            .unwrap();
        signed
            .insert(nsec_rec("www.example.com", "example.com"))
            .unwrap();
        assert_eq!(signed.nsec_nodes, 2);
        assert_ne!(signed, example_zone());
        signed.strip_dnssec();
        assert_eq!(signed.nsec_nodes, 0);
        assert_eq!(signed, example_zone(), "equality is equality of contents");
        assert!(signed.covering_nsec(&n("zzz.example.com")).is_none());
    }

    #[test]
    fn cname_exclusivity() {
        let mut z = Zone::new(n("example.com"));
        z.insert(soa_rec("example.com")).unwrap();
        z.insert(rec("alias.example.com", RData::Cname(n("www.example.com"))))
            .unwrap();
        let err = z
            .insert(rec(
                "alias.example.com",
                RData::A("1.1.1.1".parse().unwrap()),
            ))
            .unwrap_err();
        assert!(matches!(err, ZoneError::CnameAndOther(_)));
        // And the reverse order.
        let mut z2 = Zone::new(n("example.com"));
        z2.insert(rec("x.example.com", RData::A("1.1.1.1".parse().unwrap())))
            .unwrap();
        let err = z2
            .insert(rec("x.example.com", RData::Cname(n("y.example.com"))))
            .unwrap_err();
        assert!(matches!(err, ZoneError::CnameAndOther(_)));
    }

    #[test]
    fn multiple_cname_rejected() {
        let mut z = Zone::new(n("example.com"));
        z.insert(rec("alias.example.com", RData::Cname(n("a.example.com"))))
            .unwrap();
        let err = z
            .insert(rec("alias.example.com", RData::Cname(n("b.example.com"))))
            .unwrap_err();
        assert!(matches!(err, ZoneError::MultipleCname(_)));
    }

    #[test]
    fn counts() {
        let z = example_zone();
        assert_eq!(z.names().count(), 6);
        assert_eq!(z.record_count(), 7);
        assert_eq!(z.records().count(), 7);
    }

    #[test]
    fn strip_dnssec_removes_only_dnssec() {
        let mut z = example_zone();
        z.insert(rec(
            "example.com",
            RData::Dnskey {
                flags: 256,
                protocol: 3,
                algorithm: 8,
                public_key: vec![1, 2, 3],
            },
        ))
        .unwrap();
        let before = z.record_count();
        z.strip_dnssec();
        assert_eq!(z.record_count(), before - 1);
        assert!(z.soa().is_some());
    }

    #[test]
    fn wildcard_index_follows_insert_and_strip() {
        let mut z = example_zone();
        assert!(z.wildcards.is_empty());
        z.insert(rec(
            "*.w.example.com",
            RData::A("10.0.0.9".parse().unwrap()),
        ))
        .unwrap();
        let unsigned = z.clone();
        // A `*` node that exists only to carry a denial.
        z.insert(rec(
            "*.signed.example.com",
            RData::Nsec {
                next: n("example.com"),
                types: vec![RecordType::NSEC],
            },
        ))
        .unwrap();
        let enclosers = ["w.example.com", "signed.example.com", "example.com"].map(n);
        let same_as_probe = |z: &Zone| {
            for name in &enclosers {
                assert_eq!(z.wildcard_below(name), reference::wildcard_below(z, name));
            }
        };
        same_as_probe(&z);
        assert!(z.wildcard_below(&enclosers[1]).is_some());
        z.strip_dnssec();
        same_as_probe(&z);
        assert!(z.wildcard_below(&enclosers[0]).is_some());
        assert!(z.wildcard_below(&enclosers[1]).is_none(), "node stripped");
        assert_eq!(z, unsigned, "the index is a function of the nodes");
    }
}
