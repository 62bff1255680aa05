//! The address-rewriting algebra of paper §2.4 and its flow table.
//!
//! Outbound (recursive → authoritative): the recursive sends a query to
//! some public nameserver address — the *original query destination
//! address* (OQDA). The proxy rewrites the packet so that
//!
//! - destination becomes the meta-DNS-server, and
//! - **source becomes the OQDA**, which is the only signal telling the
//!   meta server which zone (view) should answer, because the query
//!   *content* is identical at every level of the hierarchy.
//!
//! Inbound (meta server → recursive): the reply arrives addressed to the
//! OQDA; the proxy restores source = OQDA:53 and destination = the
//! recursive's original socket, so the recursive accepts the reply as if
//! the real nameserver had sent it ("without knowing any address
//! manipulation in the background").

use std::collections::HashMap;
use std::net::SocketAddr;

/// One tracked query flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// The recursive server's socket (reply destination).
    pub client: SocketAddr,
    /// The original query destination address (public NS address).
    pub oqda: SocketAddr,
}

/// Flow table keyed by the proxy-side port used toward the meta server.
///
/// Each in-flight query gets a distinct proxy port so the reply can be
/// matched back; ports are recycled round-robin (65 k in flight is the
/// same bound a real UDP proxy has).
#[derive(Debug)]
pub struct FlowTable {
    flows: HashMap<u16, Flow>,
    next_port: u16,
    base_port: u16,
    capacity: u16,
}

impl FlowTable {
    /// Table using ports `base_port..base_port+capacity`.
    pub fn new(base_port: u16, capacity: u16) -> Self {
        assert!(capacity > 0);
        FlowTable {
            flows: HashMap::new(),
            next_port: 0,
            base_port,
            capacity,
        }
    }

    /// Default: ports 32768..=65535.
    pub fn with_defaults() -> Self {
        FlowTable::new(32768, 32767)
    }

    /// Record a new outbound flow; returns the proxy port to use as the
    /// rewritten source port. Oldest flow on that port is overwritten.
    pub fn insert(&mut self, client: SocketAddr, oqda: SocketAddr) -> u16 {
        let port = self.base_port + (self.next_port % self.capacity);
        self.next_port = self.next_port.wrapping_add(1);
        self.flows.insert(port, Flow { client, oqda });
        port
    }

    /// Look up (and keep) the flow for a reply arriving on `port`.
    pub fn lookup(&self, port: u16) -> Option<Flow> {
        self.flows.get(&port).copied()
    }

    /// Remove a completed flow.
    pub fn remove(&mut self, port: u16) -> Option<Flow> {
        self.flows.remove(&port)
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

/// Compute the outbound rewrite: `(new_src, new_dst)` for a query the
/// recursive sent to `oqda`, to be forwarded to `meta`.
///
/// New source = OQDA's IP with the proxy's flow port; new destination =
/// the meta server.
pub fn rewrite_outbound(
    oqda: SocketAddr,
    flow_port: u16,
    meta: SocketAddr,
) -> (SocketAddr, SocketAddr) {
    (SocketAddr::new(oqda.ip(), flow_port), meta)
}

/// Compute the inbound rewrite for a reply that the meta server sent
/// back to the flow's proxy socket: restore source = OQDA (port 53) and
/// destination = the recursive's original socket.
pub fn rewrite_inbound(flow: Flow) -> (SocketAddr, SocketAddr) {
    (flow.oqda, flow.client)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    #[test]
    fn outbound_moves_oqda_into_source() {
        let (src, dst) = rewrite_outbound(sa("192.5.6.30:53"), 40000, sa("10.9.0.1:53"));
        assert_eq!(src, sa("192.5.6.30:40000"));
        assert_eq!(dst, sa("10.9.0.1:53"));
    }

    #[test]
    fn inbound_restores_original_view() {
        let flow = Flow {
            client: sa("10.2.0.1:5501"),
            oqda: sa("192.5.6.30:53"),
        };
        let (src, dst) = rewrite_inbound(flow);
        assert_eq!(
            src,
            sa("192.5.6.30:53"),
            "reply appears to come from the real NS"
        );
        assert_eq!(dst, sa("10.2.0.1:5501"));
    }

    #[test]
    fn round_trip_is_transparent_to_the_recursive() {
        // The recursive sent to oqda from client; after out+in rewriting
        // it sees a reply from exactly oqda to exactly client.
        let client = sa("10.2.0.1:5501");
        let oqda = sa("198.41.0.4:53");
        let meta = sa("10.9.0.1:53");
        let mut table = FlowTable::with_defaults();
        let port = table.insert(client, oqda);
        let (_psrc, pdst) = rewrite_outbound(oqda, port, meta);
        assert_eq!(pdst, meta);
        let flow = table.remove(port).unwrap();
        let (rsrc, rdst) = rewrite_inbound(flow);
        assert_eq!(rsrc, oqda);
        assert_eq!(rdst, client);
        assert!(table.is_empty());
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut table = FlowTable::new(1000, 100);
        let p1 = table.insert(sa("10.0.0.1:1"), sa("1.1.1.1:53"));
        let p2 = table.insert(sa("10.0.0.2:2"), sa("2.2.2.2:53"));
        assert_ne!(p1, p2);
        assert_eq!(table.lookup(p1).unwrap().client, sa("10.0.0.1:1"));
        assert_eq!(table.lookup(p2).unwrap().oqda, sa("2.2.2.2:53"));
    }

    #[test]
    fn ports_recycle_at_capacity() {
        let mut table = FlowTable::new(1000, 2);
        let p1 = table.insert(sa("10.0.0.1:1"), sa("1.1.1.1:53"));
        let _p2 = table.insert(sa("10.0.0.2:2"), sa("2.2.2.2:53"));
        let p3 = table.insert(sa("10.0.0.3:3"), sa("3.3.3.3:53"));
        assert_eq!(p1, p3, "round robin reuses the oldest port");
        // The old flow on p1 was overwritten.
        assert_eq!(table.lookup(p1).unwrap().client, sa("10.0.0.3:3"));
        assert_eq!(table.len(), 2);
    }
}
