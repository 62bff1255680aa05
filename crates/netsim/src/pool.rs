//! Pooled packet payloads: every [`PacketBytes`] a host sends lives in
//! a buffer its [`Simulator`](crate::Simulator)'s own [`PacketPool`]
//! hands out, and the last handle to drop gives the buffer back. A
//! query and its reply cost the heap nothing once the pool is warm — the
//! simulator owns and recycles its messages, as the INET/OMNeT++ kernel
//! does.
//!
//! The rules that keep it honest:
//! - a buffer is reused only after its *last* handle dropped
//!   (`Arc::get_mut` is the test), so a handle a host keeps never sees
//!   its bytes change;
//! - a reused buffer is cleared before it is filled;
//! - a buffer goes back to its home pool through a `Weak` reference
//!   and a lock, or is freed if that pool is gone — which memory a
//!   packet sits in never touches event order. No sharded run drops a
//!   buffer on another shard's thread (a datagram crossing shards is
//!   copied into the receiver's pool, and the sender drops its own),
//!   but a handle a host or driver keeps may outlive its simulator;
//! - the free list is bounded: at most [`POOL_BUFFERS`] buffers of at
//!   most [`POOL_BUFFER_BYTES`] bytes each; anything beyond is freed.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: every packet crosses it, so it never panics (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Most buffers a pool keeps on its free list.
pub const POOL_BUFFERS: usize = 4096;

/// Largest buffer capacity a pool keeps: a buffer that grew past it (a
/// large stream reply, a coalesced Nagle burst) is freed on its last drop.
pub const POOL_BUFFER_BYTES: usize = 4096;

/// One payload buffer and the pool it goes back to.
#[derive(Clone)]
struct Slot {
    bytes: Vec<u8>,
    /// `Weak::new()` for a packet built outside any pool.
    home: Weak<Mutex<FreeList>>,
}

#[derive(Default)]
struct FreeList {
    slots: Vec<Arc<Slot>>,
    /// Buffers this pool allocated.
    made: u64,
    /// Buffers it freed on their last drop, over a cap.
    released: u64,
}

fn lock(list: &Mutex<FreeList>) -> MutexGuard<'_, FreeList> {
    // Every update of the list is a single push, pop or increment, so a
    // panic elsewhere cannot leave it half-changed.
    list.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared, immutable packet payload.
///
/// `Clone` is a reference-count bump and `Deref` gives the bytes, so a
/// payload crosses send → queue → deliver → forward without a copy.
/// Built by the simulator from what a host hands [`Ctx::send_udp`] or
/// [`Ctx::tcp_send`] (see [`IntoPacket`]), it sits in a pooled buffer;
/// `From<Vec<u8>>` wraps a `Vec` that belongs to no pool, for payloads a
/// driver builds ahead of the run.
///
/// [`Ctx::send_udp`]: crate::Ctx::send_udp
/// [`Ctx::tcp_send`]: crate::Ctx::tcp_send
#[derive(Clone)]
pub struct PacketBytes(Option<Arc<Slot>>);

impl Deref for PacketBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.as_ref().map_or(&[], |slot| &slot.bytes)
    }
}

impl From<Vec<u8>> for PacketBytes {
    fn from(bytes: Vec<u8>) -> Self {
        PacketBytes(Some(Arc::new(Slot {
            bytes,
            home: Weak::new(),
        })))
    }
}

impl fmt::Debug for PacketBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for PacketBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PacketBytes {}

impl Drop for PacketBytes {
    fn drop(&mut self) {
        let Some(mut slot) = self.0.take() else {
            return;
        };
        // Only the last handle recycles: the bytes of a buffer another
        // handle still reads never change.
        let Some(only) = Arc::get_mut(&mut slot) else {
            return;
        };
        let Some(home) = only.home.upgrade() else {
            return;
        };
        let oversized = only.bytes.capacity() > POOL_BUFFER_BYTES;
        let mut free = lock(&home);
        if oversized || free.slots.len() >= POOL_BUFFERS {
            free.released += 1;
        } else {
            free.slots.push(slot);
        }
    }
}

/// What [`Ctx::send_udp`](crate::Ctx::send_udp) and
/// [`Ctx::tcp_send`](crate::Ctx::tcp_send) take: bytes the simulator
/// copies into a buffer from its pool, or a [`PacketBytes`] it forwards
/// as it is. New sim code hands over a `&[u8]` view of a buffer it
/// reuses (an encode scratch, a framing buffer) rather than a fresh
/// `Vec`.
pub trait IntoPacket {
    /// These bytes as a packet, copied into `pool` unless they already
    /// travel as one.
    fn into_packet(self, pool: &PacketPool) -> PacketBytes;
}

impl IntoPacket for PacketBytes {
    fn into_packet(self, _pool: &PacketPool) -> PacketBytes {
        self
    }
}

impl IntoPacket for &[u8] {
    fn into_packet(self, pool: &PacketPool) -> PacketBytes {
        pool.copy(self)
    }
}

impl IntoPacket for Vec<u8> {
    fn into_packet(self, pool: &PacketPool) -> PacketBytes {
        pool.copy(&self)
    }
}

/// What a pool holds and has done; see
/// [`Simulator::pool_stats`](crate::Simulator::pool_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers on the free list (at most [`POOL_BUFFERS`]).
    pub free: usize,
    /// The largest capacity among them (at most [`POOL_BUFFER_BYTES`]).
    pub largest_free: usize,
    /// Buffers the pool allocated.
    pub made: u64,
    /// Buffers freed on their last drop because they were over a cap.
    /// With no packet of the pool alive, `made == free + released`.
    pub released: u64,
}

/// The free list of one simulator's packet buffers. Each
/// [`Simulator`](crate::Simulator) owns one, so a sharded run has one per
/// shard.
pub struct PacketPool {
    free: Arc<Mutex<FreeList>>,
}

impl PacketPool {
    /// An empty pool; buffers are made as the first packets need them.
    pub(crate) fn new() -> Self {
        PacketPool {
            free: Arc::new(Mutex::new(FreeList::default())),
        }
    }

    /// A packet holding a copy of `bytes`.
    pub(crate) fn copy(&self, bytes: &[u8]) -> PacketBytes {
        self.fill(bytes.len(), |buf| buf.extend_from_slice(bytes))
    }

    /// A packet holding `parts` one after another.
    pub(crate) fn concat(&self, parts: &[PacketBytes]) -> PacketBytes {
        let len = parts.iter().map(|p| p.len()).sum();
        self.fill(len, |buf| {
            for part in parts {
                buf.extend_from_slice(part);
            }
        })
    }

    /// A packet whose `len` bytes `write` appends to an empty buffer: a
    /// free one, cleared, or a new one.
    fn fill(&self, len: usize, write: impl FnOnce(&mut Vec<u8>)) -> PacketBytes {
        let popped = lock(&self.free).slots.pop();
        let mut slot = popped.unwrap_or_else(|| self.make(len));
        // The free list holds only buffers no handle reads, so this
        // borrows the slot in place and never copies it.
        let bytes = &mut Arc::make_mut(&mut slot).bytes;
        bytes.clear();
        write(bytes);
        PacketBytes(Some(slot))
    }

    fn make(&self, len: usize) -> Arc<Slot> {
        lock(&self.free).made += 1;
        Arc::new(Slot {
            bytes: Vec::with_capacity(len),
            home: Arc::downgrade(&self.free),
        })
    }

    /// The free list's size and largest buffer, and the buffers made
    /// and released so far.
    pub(crate) fn stats(&self) -> PoolStats {
        let free = lock(&self.free);
        PoolStats {
            free: free.slots.len(),
            largest_free: free
                .slots
                .iter()
                .map(|s| s.bytes.capacity())
                .max()
                .unwrap_or(0),
            made: free.made,
            released: free.released,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Ctx, Host, PathConfig, SimConfig, SimDuration, SimTime, Simulator, TcpEvent, Topology,
    };
    use std::net::SocketAddr;

    const BURST: usize = 100_000;

    /// Sends `n` datagrams at its timer, so all of them are in flight at
    /// once: up to 96 bytes each, and every thousandth past the byte cap.
    struct Burst {
        me: SocketAddr,
        to: SocketAddr,
        n: usize,
    }

    impl Host for Burst {
        fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
        fn on_tcp_event(&mut self, _: &mut Ctx<'_>, _: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
            let bytes = vec![7u8; POOL_BUFFER_BYTES + 1];
            for i in 0..self.n {
                let len = if i % 1000 == 999 { bytes.len() } else { i % 97 };
                ctx.send_udp(self.me, self.to, &bytes[..len]);
            }
        }
    }

    #[test]
    fn a_drained_burst_leaves_the_pool_within_its_caps() {
        let (me, to): (SocketAddr, SocketAddr) = (
            "10.0.0.1:53".parse().unwrap(),
            "10.0.0.2:53".parse().unwrap(),
        );
        // No serialisation delay: the burst arrives in the order sent,
        // so its oversized datagrams drop while the free list has room.
        let path = PathConfig {
            rtt: SimDuration::from_millis(1),
            bandwidth_bps: None,
            loss: 0.0,
        };
        let mut sim = Simulator::new(Topology::uniform(path), SimConfig::default());
        let burst = sim.add_host(&[me.ip()], Box::new(Burst { me, to, n: BURST }));
        let other: SocketAddr = "10.0.0.3:53".parse().unwrap();
        let again = sim.add_host(
            &[other.ip()],
            Box::new(Burst {
                me: other,
                to,
                n: 500,
            }),
        );
        // The sink keeps nothing: each datagram's last handle drops on
        // delivery.
        sim.add_host(&[to.ip()], Box::new(Burst { me, to, n: 0 }));
        sim.schedule_timer(burst, SimTime::ZERO, 0);
        sim.run();
        let stats = sim.pool_stats();
        assert_eq!(stats.made, BURST as u64, "all in flight at once: {stats:?}");
        assert_eq!(stats.free, POOL_BUFFERS, "{stats:?}");
        assert!(stats.largest_free <= POOL_BUFFER_BYTES, "{stats:?}");
        assert_eq!(stats.made, stats.free as u64 + stats.released);
        // A later burst the free list can hold is served from it.
        sim.schedule_timer(again, SimTime::from_millis(10), 0);
        sim.run();
        assert_eq!(sim.pool_stats().made, BURST as u64);
    }
}
