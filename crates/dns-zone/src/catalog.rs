//! A catalog of zones served by one authoritative server, with
//! closest-enclosing-zone selection.

// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::BTreeMap;
use std::sync::Arc;

use dns_wire::Name;

use crate::zone::Zone;

/// The set of zones one server (or one split-horizon view) serves.
///
/// Lookup picks the zone with the *longest* origin that is a suffix of
/// the query name — the standard "closest enclosing zone" rule. With the
/// root, `com` and `google.com` all loaded, a query for
/// `www.google.com` must be answered from `google.com`, not from the
/// root; putting all three in one catalog is exactly the naive
/// configuration the paper shows gives wrong (short-circuited) answers,
/// which is why hierarchy emulation assigns each level its own *view*
/// instead (see [`crate::view`]).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    zones: BTreeMap<Name, Arc<Zone>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Add (or replace) a zone, loaded for serving: its reply tails are
    /// compiled here, once ([`crate::tail`]).
    pub fn insert(&mut self, mut zone: Zone) {
        zone.compile_tails();
        self.zones.insert(zone.origin().clone(), Arc::new(zone));
    }

    /// The zone with exactly this origin.
    pub fn get(&self, origin: &Name) -> Option<&Arc<Zone>> {
        self.zones.get(origin)
    }

    /// The closest enclosing zone for `qname` (longest matching origin).
    pub fn find(&self, qname: &Name) -> Option<&Arc<Zone>> {
        if let Some(z) = self.zones.get(qname) {
            return Some(z);
        }
        let mut cur = qname.parent()?;
        loop {
            if let Some(z) = self.zones.get(&cur) {
                return Some(z);
            }
            cur = cur.parent()?;
        }
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// True if no zones are loaded.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Zone origins.
    pub fn origins(&self) -> impl Iterator<Item = &Name> {
        self.zones.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{RData, Record, Soa};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn zone_with_soa(origin: &str) -> Zone {
        let mut z = Zone::new(n(origin));
        z.insert(Record::new(
            n(origin),
            3600,
            RData::Soa(Soa {
                mname: n("ns1.example"),
                rname: n("admin.example"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 1,
            }),
        ))
        .unwrap();
        z
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(zone_with_soa("."));
        c.insert(zone_with_soa("com"));
        c.insert(zone_with_soa("google.com"));
        c
    }

    #[test]
    fn longest_match_wins() {
        let c = catalog();
        assert_eq!(
            c.find(&n("www.google.com")).unwrap().origin(),
            &n("google.com")
        );
        assert_eq!(c.find(&n("google.com")).unwrap().origin(), &n("google.com"));
        assert_eq!(c.find(&n("example.com")).unwrap().origin(), &n("com"));
        assert_eq!(c.find(&n("example.org")).unwrap().origin(), &Name::root());
        assert_eq!(c.find(&Name::root()).unwrap().origin(), &Name::root());
    }

    #[test]
    fn no_root_means_no_match() {
        let mut c = Catalog::new();
        c.insert(zone_with_soa("com"));
        assert!(c.find(&n("example.org")).is_none());
        assert!(c.find(&n("a.com")).is_some());
    }

    #[test]
    fn replace_zone() {
        let mut c = catalog();
        assert_eq!(c.len(), 3);
        c.insert(zone_with_soa("com"));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn iter_in_canonical_order() {
        let c = catalog();
        let origins: Vec<String> = c.origins().map(|o| o.to_string()).collect();
        assert_eq!(origins, vec![".", "com.", "google.com."]);
    }
}
