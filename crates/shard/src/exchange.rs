//! The deterministic cross-shard packet exchange: one post per shard.
//!
//! Every datagram that crosses a shard boundary carries the explicit
//! `(time, lane, seq)` event key assigned on its *sending* shard.
//! Routing is a pure function of the destination address, and the
//! receiving queue orders purely by key — so the merged event order is
//! a function of the workload alone, never of thread scheduling.
//!
//! A shard's [`Post`] holds what it sent in its last window, one row
//! per destination shard. The sender owns those buffers: a receiver
//! copies its column into its own queue and pool ([`deliver`]), and the
//! sender clears its rows once every receiver has copied, so a packet
//! buffer is only ever dropped on the thread that owns its pool.
//!
//! [`route`] asserts the conservative-lookahead invariant (`arrival ≥
//! window end`) on every packet, and [`deliver`] is the **only**
//! sanctioned caller of [`Simulator::enqueue_remote`]
//! (`clippy::disallowed_methods`, rule S1).

use std::any::Any;
use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::{Mutex, MutexGuard, PoisonError};

use netsim::{RemoteUdp, SimTime, Simulator};

/// What one shard tells the others at a window boundary. Only the
/// owning shard writes it; every shard reads all posts between the two
/// barrier waits of a window.
pub(crate) struct Post {
    /// The earliest event this shard holds or has sent: its queue's
    /// next event and the earliest arrival in its rows.
    pub next: Option<SimTime>,
    /// Datagrams sent in the last window, one row per destination shard.
    pub rows: Vec<Vec<RemoteUdp>>,
    /// A panic caught in the last window (e.g. the cross-shard-TCP
    /// assert).
    pub panic: Option<Box<dyn Any + Send>>,
}

impl Post {
    /// An empty post among `shards` shards.
    pub fn new(shards: usize) -> Mutex<Post> {
        Mutex::new(Post {
            next: None,
            rows: (0..shards).map(|_| Vec::new()).collect(),
            panic: None,
        })
    }
}

/// Lock a post. A shard's window runs inside `catch_unwind`, so no
/// panic unwinds through a held post; the poison flag is ignored all
/// the same.
pub(crate) fn lock(post: &Mutex<Post>) -> MutexGuard<'_, Post> {
    post.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Route datagrams sent in a window ending at `end` into the sender's
/// `rows`, by the shard that owns each destination. Conservative
/// lookahead guarantees every arrival is at or beyond `end`, so no
/// shard can ever receive a packet for a time it has already processed.
pub(crate) fn route(
    rows: &mut [Vec<RemoteUdp>],
    owner: &BTreeMap<IpAddr, u32>,
    sent: impl IntoIterator<Item = RemoteUdp>,
    end: SimTime,
) {
    for r in sent {
        assert!(
            r.at >= end,
            "lookahead violation: cross-shard packet for t={:?} inside window ending {:?}",
            r.at,
            end
        );
        // Workers only export globally-owned destinations; anything
        // else stays local and dies unroutable there.
        if let Some(&dest) = owner.get(&r.dst.ip()) {
            rows[dest as usize].push(r);
        }
    }
}

/// Copy one column of datagrams into a worker's event queue under the
/// keys assigned on the sending shard. The queue orders by `(time,
/// lane, seq)`, so the column's order is irrelevant — delivery order is
/// independent of thread scheduling by construction.
#[allow(
    clippy::disallowed_methods,
    reason = "S1: the exchange is the one sanctioned cross-shard enqueue"
)]
pub(crate) fn deliver(sim: &mut Simulator, column: &[RemoteUdp]) {
    for r in column {
        sim.enqueue_remote(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{PathConfig, SimConfig, SimDuration, Topology};
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
        let post = Post::new(2);
        let rows = &mut lock(&post).rows;
        let sent = [remote(100, 2), remote(50, 3), remote(70, 9)];
        route(rows, &owner, sent, SimTime::from_nanos(10));
        let at = |row: &[RemoteUdp]| row.iter().map(|r| r.at.as_nanos()).collect::<Vec<_>>();
        assert_eq!(at(&rows[0]), [50], "shard 0's row");
        assert_eq!(
            at(&rows[1]),
            [100],
            "shard 1's row; the unowned .9 is dropped"
        );
    }

    /// The receiver copies: the delivered datagram sits in a buffer its
    /// own pool made, and the sender's buffer stays in the sender's row.
    #[test]
    fn deliver_copies_into_the_receivers_pool() {
        let path = PathConfig::with_rtt(SimDuration::from_millis(10));
        let mut sim = Simulator::new(Topology::uniform(path), SimConfig::default());
        let row = [remote(5, 2)];
        deliver(&mut sim, &row);
        assert_eq!(sim.pool_stats().made, 1);
        assert_eq!(sim.run(), 1, "one delivery");
        assert_eq!(sim.pool_stats().free, 1, "the copy went back to its pool");
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn arrival_inside_the_window_is_a_hard_error() {
        let mut owner = BTreeMap::new();
        owner.insert(addr(2), 0u32);
        let post = Post::new(1);
        route(
            &mut lock(&post).rows,
            &owner,
            [remote(5, 2)],
            SimTime::from_nanos(10),
        );
    }
}
