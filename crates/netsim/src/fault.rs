//! Fault-injection hook points for the simulator.
//!
//! The simulator itself stays policy-free: it consults an installed
//! [`FaultInjector`] once per packet (UDP datagram or TCP segment) at
//! *send* time and applies the returned [`PacketFate`] — drop, extra
//! delay, or duplication. What faults exist, when they are active and
//! which paths they match is entirely the injector's business; the
//! `ldp-chaos` crate provides the declarative, virtual-time-scheduled
//! implementation (`FaultPlan`-driven). [`packet_draw`] is the
//! stateless per-packet draw both that injector and the simulator's
//! own path loss use. Crashes and restarts act on hosts, not packets:
//! they are [`HostFault`] events in the simulator's own queue.
//!
//! Determinism contract: the injector is consulted in event order (the
//! same total order the event queue guarantees across backends), so an
//! injector whose decisions depend only on its own seed and the
//! arguments it receives keeps same-seed runs byte-identical (rules
//! D2/D3/D6; `crates/chaos/tests/sweep.rs` holds it).

use std::net::{IpAddr, SocketAddr};

use ldp_rng::mix;

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

/// A host-level fault, scheduled by a driver
/// ([`crate::SimDriver::schedule_host_fault`]) as an event of its own:
/// it acts on the host owning an address, not on a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFault {
    /// Crash the host: every connection it participates in dies
    /// abortively (peers see `Closed`, no TIME_WAIT), inbound packets
    /// and pending timers are dropped, and no callbacks run on it until
    /// a restart ([`crate::Host::on_crash`]). No-op if it is down.
    Crash,
    /// Bring a crashed host back ([`crate::Host::on_restart`]). No-op
    /// if it is not down.
    Restart,
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

/// One stateless uniform draw in `[0, 1)` for one packet: a hash of
/// `seed`, the draw `site` and the packet's identity — the instant it is
/// sent, both endpoints and its length — never a stream position. So a
/// packet's draw is independent of every other packet: a resumed run
/// re-draws the fates of the sends it re-executes, and shard replicas
/// that each see a subset of the traffic draw what one simulator
/// draws. Packets identical in all four share their draws. Path loss
/// ([`crate::PathConfig::loss`]) draws here under its own site, and so
/// does `ldp-chaos`'s `PlanInjector`, under sites 1–5.
pub fn packet_draw(
    seed: u64,
    site: u64,
    now: SimTime,
    src: SocketAddr,
    dst: SocketAddr,
    bytes: usize,
) -> f64 {
    let key = mix(now.as_nanos())
        ^ mix(mix_ip(src.ip()) ^ (u64::from(src.port()) << 32))
        ^ mix(mix_ip(dst.ip()).rotate_left(17) ^ u64::from(dst.port()))
        ^ mix(bytes as u64);
    (mix(key ^ mix(seed ^ site)) >> 11) as f64 / (1u64 << 53) as f64
}

fn mix_ip(ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(v4) => u64::from(u32::from(v4)),
        IpAddr::V6(v6) => {
            let o = v6.octets();
            let mut h = 0u64;
            for chunk in o.chunks(8) {
                let mut w = 0u64;
                for &b in chunk {
                    w = (w << 8) | u64::from(b);
                }
                h = mix(h ^ w);
            }
            h
        }
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
}
