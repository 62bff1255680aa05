//! The host trait: what a simulated endpoint (DNS server, resolver,
//! querier, proxy) implements to receive packets, connection events and
//! timers.

use std::net::SocketAddr;

use crate::pool::PacketBytes;
use crate::sim::{ConnId, Ctx};

/// Events delivered to a host about its TCP (or emulated-TLS)
/// connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// Server side: a new connection completed its handshake.
    Incoming {
        /// Connection id (shared by both endpoints).
        conn: ConnId,
        /// The client's address.
        peer: SocketAddr,
        /// The local (server) address the client connected to.
        local: SocketAddr,
        /// Whether the connection carries emulated TLS.
        tls: bool,
    },
    /// Client side: the connection (including any TLS handshake) is
    /// ready for data.
    Connected {
        /// Connection id.
        conn: ConnId,
    },
    /// Application data arrived (one TCP "message" per send; apps do
    /// their own DNS length-framing on top).
    Data {
        /// Connection id.
        conn: ConnId,
        /// The received bytes (shared with the sender, not copied).
        data: PacketBytes,
    },
    /// The connection is closed (peer close, idle timeout or local
    /// close completed).
    Closed {
        /// Connection id.
        conn: ConnId,
    },
}

/// A simulated endpoint. One `Host` may own several IP addresses.
///
/// Callbacks receive a [`Ctx`] through which all actions (sending,
/// connecting, timers) are queued; actions take effect when the callback
/// returns, keeping the event loop single-borrow and deterministic.
///
/// Hosts are `Send`: a sharded run (`ldp-shard`) moves each shard's
/// hosts onto its worker thread. Only one thread touches a host at a
/// time, so no `Sync` is required.
pub trait Host: Send {
    /// A UDP datagram arrived.
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, data: PacketBytes);

    /// A TCP/TLS connection event occurred.
    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// The host crashed (fault injection): all its connections are
    /// gone, its pending timers will never fire, and no callbacks run
    /// until [`Host::on_restart`]. No [`Ctx`] is provided — a crashed
    /// host cannot act on the world; implementations should drop
    /// whatever in-memory state a power-off would lose.
    fn on_crash(&mut self) {}

    /// The host came back up after a crash. Re-arm timers and rebuild
    /// state here; the address registrations survive the crash.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}
