//! The driver-side API a plain [`Simulator`] and `ldp-shard`'s
//! `ShardedSimulator` share, as one trait: a scenario written once,
//! generic over `S: SimDriver`, issues the identical call sequence to
//! either engine, so a transcript difference is the engine's, never the
//! harness's. Ids are plain `usize` on both sides; the
//! replica-building method takes the sharded `make(shard)` form, and a
//! [`Simulator`] is shard 0 of 1. A crash or restart is an event in the
//! simulator's own queue ([`SimDriver::schedule_host_fault`]), keyed
//! on the driver lane like a timer: no host is added to drive it.

use std::net::{IpAddr, SocketAddr};

use ldp_telemetry::Log;

use crate::fault::{FaultInjector, HostFault};
use crate::host::Host;
use crate::pool::IntoPacket;
use crate::sim::{HostStats, Simulator};
use crate::time::SimTime;

/// What an experiment driver does to a simulator: build it up, poke it
/// between phases, run it, read counters back.
pub trait SimDriver {
    /// Register a host owning `addrs`; returns its id (registration
    /// index, also its event lane).
    fn add_host(&mut self, addrs: &[IpAddr], host: Box<dyn Host>) -> usize;

    /// Install a fault injector, one `make(shard)` replica per shard —
    /// so its decisions must be stateless in the packet stream.
    fn set_fault_injectors(&mut self, make: impl FnMut(u32) -> Box<dyn FaultInjector>);

    /// Make room for `additional` more events, about to be scheduled
    /// (a trace's timers), so that scheduling them grows no queue. A
    /// hint: an engine may ignore it.
    fn reserve_events(&mut self, additional: usize);

    /// Schedule a host timer from outside (one driver-lane key).
    fn schedule_timer(&mut self, host: usize, at: SimTime, token: u64);

    /// Schedule a crash or restart of the host owning `addr` (one
    /// driver-lane key, used up even if no host owns it). Resolved when
    /// it fires, so the call may come before the host is added; left
    /// out of event counts.
    fn schedule_host_fault(&mut self, at: SimTime, addr: IpAddr, fault: HostFault);

    /// Inject a UDP datagram from outside.
    fn inject_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket);

    /// Run until every queue drains; returns the events processed.
    fn run(&mut self) -> u64;

    /// Run through `deadline` inclusive; returns the events processed.
    fn run_until(&mut self, deadline: SimTime) -> u64;

    /// Counters for a host.
    fn stats(&self, host: usize) -> HostStats;

    /// Switch the run's telemetry on or off (off by default; every
    /// shard's on a sharded run).
    fn set_recording(&mut self, on: bool);

    /// Take what the run recorded since the last drain: on a sharded
    /// run, the shards' logs merged in `ldp_telemetry::canonical_order`.
    fn drain_recording(&mut self) -> Log;
}

// `Simulator::name` paths resolve to the inherent methods, which take
// precedence over the trait's of the same name.
impl SimDriver for Simulator {
    fn add_host(&mut self, addrs: &[IpAddr], host: Box<dyn Host>) -> usize {
        Simulator::add_host(self, addrs, host)
    }

    fn set_fault_injectors(&mut self, mut make: impl FnMut(u32) -> Box<dyn FaultInjector>) {
        self.set_fault_injector(make(0));
    }

    fn reserve_events(&mut self, additional: usize) {
        Simulator::reserve_events(self, additional);
    }

    fn schedule_timer(&mut self, host: usize, at: SimTime, token: u64) {
        Simulator::schedule_timer(self, host, at, token);
    }

    fn schedule_host_fault(&mut self, at: SimTime, addr: IpAddr, fault: HostFault) {
        Simulator::schedule_host_fault(self, at, addr, fault);
    }

    fn inject_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket) {
        Simulator::inject_udp(self, from, to, data);
    }

    fn run(&mut self) -> u64 {
        Simulator::run(self)
    }

    fn run_until(&mut self, deadline: SimTime) -> u64 {
        Simulator::run_until(self, deadline)
    }

    fn stats(&self, host: usize) -> HostStats {
        Simulator::stats(self, host)
    }

    fn set_recording(&mut self, on: bool) {
        Simulator::set_recording(self, on);
    }

    fn drain_recording(&mut self) -> Log {
        Simulator::drain_recording(self)
    }
}
