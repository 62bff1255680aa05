//! Fault-injection hook points for the simulator.
//!
//! The simulator itself stays policy-free: it consults an installed
//! [`FaultInjector`] once per packet (UDP datagram or TCP segment) at
//! *send* time and applies the returned [`PacketFate`] — drop, extra
//! delay, or duplication. What faults exist, when they are active and
//! which paths they match is entirely the injector's business; the
//! `ldp-chaos` crate provides the declarative, virtual-time-scheduled
//! implementation (`FaultPlan`-driven), and tests can install ad-hoc
//! closures via [`FnInjector`].
//!
//! Determinism contract: the injector is consulted in event order (the
//! same total order the event queue guarantees across backends), so an
//! injector whose decisions depend only on its own seeded RNG and the
//! arguments it receives keeps same-seed runs byte-identical (rules
//! D2/D3, see `crates/chaos/tests/determinism_faults.rs`).

use std::net::SocketAddr;

use crate::time::{SimDuration, SimTime};

/// What kind of wire traffic a fate decision is for.
///
/// TCP segments need different treatment than UDP datagrams: this
/// simulator's connection model has no retransmission, so a *dropped*
/// segment kills the connection (an abortive close, like hitting the
/// retry limit), whereas probabilistic loss on a live TCP path is
/// better modelled as a retransmission *delay* — injectors are told the
/// kind so they can make that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// A UDP datagram.
    Udp,
    /// A TCP (or emulated-TLS) segment. Dropping one aborts the whole
    /// connection; prefer `extra_delay` for loss-as-latency models.
    Tcp,
}

/// The injector's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketFate {
    /// Drop the packet. For [`WireKind::Udp`] the datagram silently
    /// disappears; for [`WireKind::Tcp`] the connection is killed
    /// (both sides get `TcpEvent::Closed`, no TIME_WAIT — an abortive
    /// close).
    pub drop: bool,
    /// Additional one-way delay on top of the path's propagation and
    /// serialization delay (delay spikes, reordering windows, CPU
    /// throttling at the destination).
    pub extra_delay: SimDuration,
    /// Deliver a second copy of the packet this much *after* the
    /// original arrival. Only honoured for UDP — duplicating a TCP
    /// segment would double-deliver data in a model without sequence
    /// numbers — and ignored when `drop` is set.
    pub duplicate: Option<SimDuration>,
}

impl PacketFate {
    /// Deliver untouched.
    pub const DELIVER: PacketFate = PacketFate {
        drop: false,
        extra_delay: SimDuration::ZERO,
        duplicate: None,
    };

    /// Drop (or, for TCP, kill the connection).
    pub const DROP: PacketFate = PacketFate {
        drop: true,
        extra_delay: SimDuration::ZERO,
        duplicate: None,
    };

    /// Deliver after an extra delay.
    pub fn delayed(extra: SimDuration) -> PacketFate {
        PacketFate {
            drop: false,
            extra_delay: extra,
            duplicate: None,
        }
    }
}

impl Default for PacketFate {
    fn default() -> Self {
        PacketFate::DELIVER
    }
}

/// Decides the fate of every packet the simulator sends.
///
/// Consulted exactly once per UDP datagram (after the topology's base
/// loss draw) and once per TCP segment, in deterministic event order.
///
/// `Send` because sharded runs install one injector replica per worker
/// thread; replicas must make identical decisions from identical
/// arguments (stateless or per-call-derived draws — see
/// `ldp-chaos`'s `PlanInjector`).
pub trait FaultInjector: Send {
    /// Decide what happens to one packet of `bytes` payload bytes going
    /// `src` → `dst` at simulated time `now`.
    fn fate(
        &mut self,
        now: SimTime,
        src: SocketAddr,
        dst: SocketAddr,
        kind: WireKind,
        bytes: usize,
    ) -> PacketFate;
}

/// Adapter so tests can install a closure as an injector.
pub struct FnInjector<F>(pub F);

impl<F> FaultInjector for FnInjector<F>
where
    F: FnMut(SimTime, SocketAddr, SocketAddr, WireKind, usize) -> PacketFate + Send,
{
    fn fate(
        &mut self,
        now: SimTime,
        src: SocketAddr,
        dst: SocketAddr,
        kind: WireKind,
        bytes: usize,
    ) -> PacketFate {
        (self.0)(now, src, dst, kind, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_constants() {
        assert_eq!(PacketFate::default(), PacketFate::DELIVER);
        assert_ne!(PacketFate::DROP, PacketFate::DELIVER);
        assert_eq!(
            PacketFate {
                drop: false,
                ..PacketFate::DROP
            },
            PacketFate::DELIVER
        );
        let d = PacketFate::delayed(SimDuration::from_millis(5));
        assert_eq!(d.extra_delay, SimDuration::from_millis(5));
        assert!(!d.drop);
    }

    #[test]
    fn fn_injector_adapts_closures() {
        let mut inj = FnInjector(|_, _, _, kind, bytes| {
            if kind == WireKind::Udp && bytes > 100 {
                PacketFate::DROP
            } else {
                PacketFate::DELIVER
            }
        });
        let a: SocketAddr = "10.0.0.1:1".parse().expect("addr");
        let b: SocketAddr = "10.0.0.2:1".parse().expect("addr");
        assert!(inj.fate(SimTime::ZERO, a, b, WireKind::Udp, 200).drop);
        assert!(!inj.fate(SimTime::ZERO, a, b, WireKind::Tcp, 200).drop);
        assert!(!inj.fate(SimTime::ZERO, a, b, WireKind::Udp, 50).drop);
    }
}
