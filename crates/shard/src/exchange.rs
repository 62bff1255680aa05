//! The deterministic cross-shard packet exchange.
//!
//! Every datagram that crosses a shard boundary carries the explicit
//! `(time, lane, seq)` event key assigned on its *sending* shard.
//! Routing is a pure function of the destination address, and the
//! receiving queue orders purely by key — so the merged event order is
//! a function of the workload alone, never of thread scheduling.
//!
//! This module is the **only** sanctioned caller of
//! [`Simulator::enqueue_remote`] (`clippy::disallowed_methods`, rule
//! S1): all cross-shard traffic flows through the exchange, where the
//! conservative-lookahead invariant (`arrival ≥ window end`) is
//! asserted on every packet.

use std::collections::BTreeMap;
use std::net::IpAddr;

use netsim::{RemoteUdp, SimTime, Simulator};

/// Per-shard mailboxes for datagrams in flight between windows.
pub struct Exchange {
    inboxes: Vec<Vec<RemoteUdp>>,
    owner: BTreeMap<IpAddr, u32>,
}

impl Exchange {
    /// An empty exchange for `shards` workers over the global
    /// address→shard ownership map.
    pub fn new(shards: u32, owner: BTreeMap<IpAddr, u32>) -> Self {
        Exchange {
            inboxes: (0..shards).map(|_| Vec::new()).collect(),
            owner,
        }
    }

    /// Route one window's outbound datagrams into the destination
    /// shards' mailboxes. `horizon` is the end of the window that
    /// produced them: conservative lookahead guarantees every arrival
    /// is at or beyond it, so no shard can ever receive a packet for a
    /// time it has already processed.
    pub fn route(&mut self, outbound: Vec<RemoteUdp>, horizon: SimTime) {
        for r in outbound {
            assert!(
                r.at >= horizon,
                "lookahead violation: cross-shard packet for t={:?} inside window ending {:?}",
                r.at,
                horizon
            );
            let Some(&dest) = self.owner.get(&r.dst.ip()) else {
                // Workers only export globally-owned destinations;
                // anything else stays local and dies unroutable there.
                continue;
            };
            self.inboxes[dest as usize].push(r);
        }
    }

    /// Earliest pending arrival across all mailboxes (a lower bound on
    /// work the owning shards have not seen yet).
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.inboxes.iter().flatten().map(|r| r.at).min()
    }

    /// Take everything pending for one shard.
    pub fn take(&mut self, shard: u32) -> Vec<RemoteUdp> {
        std::mem::take(&mut self.inboxes[shard as usize])
    }

    /// True if no datagram is in flight between shards.
    pub fn is_empty(&self) -> bool {
        self.inboxes.iter().all(|b| b.is_empty())
    }

    /// Enqueue a batch into a worker's event queue under the original
    /// keys assigned on the sending shard. The queue orders by
    /// `(time, lane, seq)`, so the batch's vector order is irrelevant —
    /// delivery order is independent of thread scheduling by
    /// construction.
    #[allow(
        clippy::disallowed_methods,
        reason = "S1: the exchange is the one sanctioned cross-shard enqueue"
    )]
    pub fn deliver(sim: &mut Simulator, batch: impl IntoIterator<Item = RemoteUdp>) {
        for r in batch {
            sim.enqueue_remote(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr, SocketAddr};

    fn addr(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    fn sock(last: u8) -> SocketAddr {
        SocketAddr::new(addr(last), 53)
    }

    fn remote(at_ns: u64, dst: u8) -> RemoteUdp {
        RemoteUdp {
            at: SimTime::from_nanos(at_ns),
            lane: 1,
            seq: 0,
            src: sock(1),
            dst: sock(dst),
            data: vec![0u8; 4].into(),
        }
    }

    #[test]
    fn routes_by_destination_owner() {
        let mut owner = BTreeMap::new();
        owner.insert(addr(2), 1u32);
        owner.insert(addr(3), 0u32);
        let mut ex = Exchange::new(2, owner);
        assert!(ex.is_empty());
        ex.route(vec![remote(100, 2), remote(50, 3)], SimTime::from_nanos(10));
        assert_eq!(ex.next_arrival(), Some(SimTime::from_nanos(50)));
        assert_eq!(ex.take(1).len(), 1);
        assert_eq!(ex.take(0).len(), 1);
        assert!(ex.is_empty());
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn arrival_inside_the_window_is_a_hard_error() {
        let mut owner = BTreeMap::new();
        owner.insert(addr(2), 0u32);
        let mut ex = Exchange::new(1, owner);
        ex.route(vec![remote(5, 2)], SimTime::from_nanos(10));
    }
}
