//! The driver-side API a plain [`Simulator`] and `ldp-shard`'s
//! `ShardedSimulator` share, as one trait: a scenario written once,
//! generic over `S: SimDriver`, issues the identical call sequence to
//! either engine, so a transcript difference is the engine's, never the
//! harness's. Ids are plain `usize` on both sides; the two
//! replica-building methods take the sharded `make(shard)` form, and a
//! [`Simulator`] is shard 0 of 1.

use std::net::{IpAddr, SocketAddr};

use ldp_telemetry::Log;

use crate::fault::FaultInjector;
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

    /// Register a control host (chaos agent), one `make(shard)` replica
    /// per shard; its timer dispatches are excluded from event counts.
    fn add_control_host(
        &mut self,
        addrs: &[IpAddr],
        make: impl FnMut(u32) -> Box<dyn Host>,
    ) -> usize;

    /// Install a fault injector, one `make(shard)` replica per shard —
    /// so its decisions must be stateless in the packet stream.
    fn set_fault_injectors(&mut self, make: impl FnMut(u32) -> Box<dyn FaultInjector>);

    /// Schedule a host timer from outside (one driver-lane key).
    fn schedule_timer(&mut self, host: usize, at: SimTime, token: u64);

    /// Schedule a timer on a control host (one driver-lane key, every
    /// replica armed).
    fn schedule_control_timer(&mut self, ctrl: usize, at: SimTime, token: u64);

    /// Inject a UDP datagram from outside.
    fn inject_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket);

    /// Crash the host owning `addr` now. No-op for unknown addresses.
    fn crash_now(&mut self, addr: IpAddr);

    /// Restart a crashed host now.
    fn restart_now(&mut self, addr: IpAddr);

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

    fn add_control_host(
        &mut self,
        addrs: &[IpAddr],
        mut make: impl FnMut(u32) -> Box<dyn Host>,
    ) -> usize {
        Simulator::add_control_host(self, addrs, make(0))
    }

    fn set_fault_injectors(&mut self, mut make: impl FnMut(u32) -> Box<dyn FaultInjector>) {
        self.set_fault_injector(make(0));
    }

    fn schedule_timer(&mut self, host: usize, at: SimTime, token: u64) {
        Simulator::schedule_timer(self, host, at, token);
    }

    fn schedule_control_timer(&mut self, ctrl: usize, at: SimTime, token: u64) {
        Simulator::schedule_timer(self, ctrl, at, token);
    }

    fn inject_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket) {
        Simulator::inject_udp(self, from, to, data);
    }

    fn crash_now(&mut self, addr: IpAddr) {
        Simulator::crash_now(self, addr);
    }

    fn restart_now(&mut self, addr: IpAddr) {
        Simulator::restart_now(self, addr);
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
