//! Split-horizon DNS views (paper §2.4): the meta-DNS-server hosts many
//! zones and selects which one answers each query **by the query's
//! source address** — which, after the recursive proxy rewrote it to the
//! original query destination (OQDA), identifies the level of the
//! hierarchy the query was aimed at.
//!
//! This mirrors BIND's `view { match-clients { ... }; }` mechanism that
//! the paper relies on.
//!
//! Selection does not scan the views. Hierarchy emulation makes one
//! view per zone (thousands), nearly all matched by [`ClientMatch::Exact`]
//! addresses, so a [`ViewSet`] indexes, as views are pushed, the first
//! view each exact address selects, and lists apart the few views that
//! carry a prefix or match-all. A lookup is one probe of that index — a
//! [`KeyTable`], the workspace's one hash table, O(1) expected — plus a
//! walk of that short list, cut off at the exact hit; the lower index of
//! the two wins, which is first-match-wins.

// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::net::IpAddr;

use dns_wire::Name;
use ldp_rng::{ByAddr, KeyTable};

use crate::catalog::Catalog;

/// A client matcher: exact address, prefix, or match-all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMatch {
    /// Matches one exact source address.
    Exact(IpAddr),
    /// Matches a v4 prefix of the given length.
    PrefixV4 {
        /// Network address.
        net: std::net::Ipv4Addr,
        /// Prefix length (0–32).
        len: u8,
    },
    /// Matches every client (the "default" view).
    Any,
}

impl ClientMatch {
    /// Does `addr` satisfy this matcher?
    pub fn matches(&self, addr: IpAddr) -> bool {
        match self {
            ClientMatch::Exact(a) => *a == addr,
            ClientMatch::PrefixV4 { net, len } => match addr {
                IpAddr::V4(v4) => {
                    let l = u32::from(*len).min(32);
                    if l == 0 {
                        return true;
                    }
                    let mask = u32::MAX << (32 - l);
                    (u32::from(v4) & mask) == (u32::from(*net) & mask)
                }
                IpAddr::V6(_) => false,
            },
            ClientMatch::Any => true,
        }
    }
}

/// One view: a name (diagnostics), its client matchers and its catalog.
#[derive(Debug, Clone)]
pub struct View {
    /// Human-readable view name ("root", "com", ...).
    pub name: String,
    /// Match conditions, any-of.
    pub match_clients: Vec<ClientMatch>,
    /// Zones this view serves.
    pub catalog: Catalog,
}

impl View {
    /// New view serving `catalog` for clients matching any matcher.
    pub fn new(name: impl Into<String>, match_clients: Vec<ClientMatch>, catalog: Catalog) -> Self {
        View {
            name: name.into(),
            match_clients,
            catalog,
        }
    }

    /// True if a client at `addr` is served by this view.
    pub fn matches(&self, addr: IpAddr) -> bool {
        self.match_clients.iter().any(|m| m.matches(addr))
    }
}

/// An ordered list of views: first match wins (BIND semantics).
#[derive(Debug, Clone, Default)]
pub struct ViewSet {
    views: Vec<View>,
    /// The first view each [`ClientMatch::Exact`] address selects.
    exact: KeyTable<IpAddr, usize, ByAddr>,
    /// Views with at least one matcher that is not `Exact`, ascending.
    inexact: Vec<usize>,
}

impl ViewSet {
    /// Empty view set.
    pub fn new() -> Self {
        ViewSet::default()
    }

    /// Append a view (later = lower priority).
    pub fn push(&mut self, view: View) {
        let index = self.views.len();
        let mut inexact = false;
        for m in &view.match_clients {
            match m {
                ClientMatch::Exact(addr) => {
                    if !self.exact.contains_key(addr) {
                        self.exact.insert(*addr, index);
                    }
                }
                ClientMatch::PrefixV4 { .. } | ClientMatch::Any => inexact = true,
            }
        }
        if inexact {
            self.inexact.push(index);
        }
        self.views.push(view);
    }

    /// Select the view for a query from `addr`.
    pub fn select(&self, addr: IpAddr) -> Option<&View> {
        self.views.get(self.select_index(addr)?)
    }

    /// Select the *index* of the view for a query from `addr` (same
    /// first-match-wins semantics as [`ViewSet::select`]). Per-view
    /// resources held outside the set — e.g. the server's response
    /// rate limiters — are keyed by this index.
    pub fn select_index(&self, addr: IpAddr) -> Option<usize> {
        let exact = self.exact.get(&addr).copied();
        // An inexact view wins only from in front of the exact hit, so
        // the walk stops there; the lower index of the two is returned.
        let limit = exact.unwrap_or(usize::MAX);
        self.inexact
            .iter()
            .copied()
            .take_while(|&i| i < limit)
            .find(|&i| self.views[i].matches(addr))
            .or(exact)
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True if no views are configured.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Iterate views in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &View> {
        self.views.iter()
    }

    /// Convenience: build the paper's hierarchy-emulation view set. Each
    /// `(zone_origin, nameserver_addrs, zone_catalog)` becomes one view
    /// matched by that level's public nameserver addresses — queries
    /// arriving "from" `a.gtld-servers.net`'s address (after proxy
    /// rewriting) see only the `com` zone, etc.
    pub fn for_hierarchy<I>(levels: I) -> ViewSet
    where
        I: IntoIterator<Item = (Name, Vec<IpAddr>, Catalog)>,
    {
        let mut set = ViewSet::new();
        for (origin, addrs, catalog) in levels {
            set.push(View::new(
                origin.to_string(),
                addrs.into_iter().map(ClientMatch::Exact).collect(),
                catalog,
            ));
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use dns_wire::{RData, Record, Soa};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn zone(origin: &str) -> Zone {
        let mut z = Zone::new(n(origin));
        z.insert(Record::new(
            n(origin),
            60,
            RData::Soa(Soa {
                mname: n("ns.example"),
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

    fn cat(origin: &str) -> Catalog {
        let mut c = Catalog::new();
        c.insert(zone(origin));
        c
    }

    #[test]
    fn exact_match() {
        let m = ClientMatch::Exact(ip("198.41.0.4"));
        assert!(m.matches(ip("198.41.0.4")));
        assert!(!m.matches(ip("198.41.0.5")));
    }

    #[test]
    fn prefix_match() {
        let m = ClientMatch::PrefixV4 {
            net: "10.1.0.0".parse().unwrap(),
            len: 16,
        };
        assert!(m.matches(ip("10.1.2.3")));
        assert!(!m.matches(ip("10.2.0.1")));
        assert!(!m.matches(ip("2001:db8::1")));
        let all = ClientMatch::PrefixV4 {
            net: "0.0.0.0".parse().unwrap(),
            len: 0,
        };
        assert!(all.matches(ip("9.9.9.9")));
    }

    #[test]
    fn first_view_wins() {
        let mut set = ViewSet::new();
        set.push(View::new(
            "root",
            vec![ClientMatch::Exact(ip("198.41.0.4"))],
            cat("."),
        ));
        set.push(View::new(
            "com",
            vec![ClientMatch::Exact(ip("192.5.6.30"))],
            cat("com"),
        ));
        set.push(View::new(
            "default",
            vec![ClientMatch::Any],
            cat("example.com"),
        ));

        assert_eq!(set.select(ip("198.41.0.4")).unwrap().name, "root");
        assert_eq!(set.select(ip("192.5.6.30")).unwrap().name, "com");
        assert_eq!(set.select(ip("8.8.8.8")).unwrap().name, "default");
    }

    #[test]
    fn select_index_agrees_with_select() {
        let mut set = ViewSet::new();
        set.push(View::new(
            "root",
            vec![ClientMatch::Exact(ip("198.41.0.4"))],
            cat("."),
        ));
        set.push(View::new(
            "com",
            vec![ClientMatch::Exact(ip("192.5.6.30"))],
            cat("com"),
        ));
        set.push(View::new(
            "default",
            vec![ClientMatch::Any],
            cat("example.com"),
        ));

        assert_eq!(set.select_index(ip("198.41.0.4")), Some(0));
        assert_eq!(set.select_index(ip("192.5.6.30")), Some(1));
        assert_eq!(
            set.select_index(ip("8.8.8.8")),
            Some(2),
            "Any matcher wins last"
        );
        for addr in ["198.41.0.4", "192.5.6.30", "8.8.8.8"] {
            let a = addr.parse().unwrap();
            let by_ref = set.select(a).map(|v| v.name.clone());
            let by_idx = set
                .select_index(a)
                .map(|i| set.iter().nth(i).unwrap().name.clone());
            assert_eq!(by_ref, by_idx);
        }
    }

    /// The first-match scan the index replaced, kept as its oracle.
    fn linear_select_index(set: &ViewSet, addr: IpAddr) -> Option<usize> {
        set.iter().position(|v| v.matches(addr))
    }

    /// Generated view sets — exact addresses drawn from a pool small
    /// enough that views share them, v4 prefixes of every length, a
    /// match-all in the middle — select the view the linear scan does,
    /// for v4 and v6 probes.
    #[test]
    fn select_matches_the_linear_scan_on_generated_view_sets() {
        let pool: Vec<IpAddr> = [
            "10.0.0.1",
            "10.0.0.2",
            "10.0.1.1",
            "10.1.0.1",
            "128.0.0.1",
            "192.168.0.1",
            "::1",
            "2001:db8::1",
        ]
        .map(ip)
        .to_vec();
        ldp_rng::check::check(256, |g| {
            let mut set = ViewSet::new();
            for i in 0..g.size(0..=12) {
                let matchers = g.vec(0..=3, |g| match g.below(8) {
                    0 => ClientMatch::Any,
                    1 | 2 => ClientMatch::PrefixV4 {
                        net: match g.pick(&pool) {
                            IpAddr::V4(v4) => *v4,
                            IpAddr::V6(_) => g.u32().into(),
                        },
                        len: g.range(0..=32) as u8,
                    },
                    _ => ClientMatch::Exact(*g.pick(&pool)),
                });
                set.push(View::new(format!("v{i}"), matchers, Catalog::new()));
            }
            let random_v4 = IpAddr::V4(g.u32().into());
            for probe in pool.iter().copied().chain([random_v4]) {
                let want = linear_select_index(&set, probe);
                assert_eq!(set.select_index(probe), want, "{probe} in {set:?}");
                let selected = set.select(probe).map(|v| v.name.as_str());
                let wanted = want
                    .and_then(|i| set.iter().nth(i))
                    .map(|v| v.name.as_str());
                assert_eq!(selected, wanted, "{probe}");
            }
        });
    }

    #[test]
    fn no_match_none() {
        let mut set = ViewSet::new();
        set.push(View::new(
            "root",
            vec![ClientMatch::Exact(ip("198.41.0.4"))],
            cat("."),
        ));
        assert!(set.select(ip("1.1.1.1")).is_none());
    }

    #[test]
    fn hierarchy_builder() {
        let set = ViewSet::for_hierarchy(vec![
            (
                Name::root(),
                vec![ip("198.41.0.4"), ip("199.9.14.201")],
                cat("."),
            ),
            (n("com"), vec![ip("192.5.6.30")], cat("com")),
        ]);
        assert_eq!(set.len(), 2);
        // Either root nameserver address selects the root view.
        assert_eq!(set.select(ip("199.9.14.201")).unwrap().name, ".");
        assert_eq!(set.select(ip("192.5.6.30")).unwrap().name, "com.");
        // The views answer differently for the same qname — the crux of
        // split-horizon hierarchy emulation.
        let root_view = set.select(ip("198.41.0.4")).unwrap();
        let com_view = set.select(ip("192.5.6.30")).unwrap();
        assert_eq!(
            root_view.catalog.find(&n("x.com")).unwrap().origin(),
            &Name::root()
        );
        assert_eq!(
            com_view.catalog.find(&n("x.com")).unwrap().origin(),
            &n("com")
        );
    }
}
