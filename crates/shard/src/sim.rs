//! The sharded engine: N `netsim` workers, shard 0 on the caller's
//! thread and the rest on scoped threads, advanced in conservative
//! lookahead windows with no coordinator.
//!
//! ## How equivalence works
//!
//! A single-shard [`Simulator`] orders events by `(time, lane, seq)`,
//! where the lane is the acting host's *global* id and the seq is that
//! lane's private counter. [`ShardedSimulator`] registers each host on
//! its worker under the same global lane, so every event carries
//! exactly the key it would have carried in the single-shard run —
//! keys never mention shards or threads. Cross-shard datagrams travel
//! through the exchange (`exchange.rs`) with their keys attached and
//! are enqueued on the owning shard at the same position the
//! single-shard queue would have held them.
//!
//! Windows make that safe: with lookahead `L` = the minimum one-way
//! latency between hosts on different shards, a window
//! `[start, start + L)` can only produce cross-shard arrivals at
//! `≥ start + L`, so no shard ever needs an event another shard hasn't
//! exported yet. The exchange asserts this invariant on every routed
//! packet. A link between two hosts on one shard never crosses, so it
//! does not bound `L`: a zero-latency pair runs sharded when it is
//! co-located.
//!
//! Each shard has one post: its next event time, what it sent in its
//! last window (one row per destination shard) and a caught panic. A
//! window is two waits on one `Barrier`. After the first, every shard
//! reads all posts, so every shard plans the same window (or the same
//! stop), and copies its own column of rows into its queue and pool.
//! After the second, each shard clears its own rows — a sender's
//! buffers are dropped on the sender's thread — runs the window inside
//! `catch_unwind`, routes its outbox into its rows and posts again.
//!
//! The merged transcript (host observations) and the canonically
//! ordered telemetry drain are therefore byte-identical to the
//! single-shard run for the same seed — the property `ldp-chaos`'s
//! scenario sweep (`crates/chaos/tests/sweep.rs`) holds on every
//! generated cell, at 1–8 shards under a drawn placement.
//!
//! ## What doesn't shard
//!
//! * TCP connections must have both endpoints on one shard
//!   ([`ShardPlan::pin`]); the conservative exchange carries only UDP.
//! * A host fault ([`ShardedSimulator::schedule_host_fault`]) is queued
//!   on every shard under its one driver key, and only the shard that
//!   owns the address acts; fault events are left out of event counts
//!   and telemetry on both engines.

use std::collections::BTreeMap;
use std::net::{IpAddr, SocketAddr};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};

use ldp_telemetry::{canonical_order, Log};
use netsim::{
    FaultInjector, Host, HostFault, HostStats, IntoPacket, SimConfig, SimDriver, SimDuration,
    SimTime, Simulator, Topology,
};

use crate::exchange::{self, lock, Post};
use crate::plan::ShardPlan;

/// A host id in the sharded simulation: the host's registration index,
/// which is also its event-lane id on whichever worker holds it.
pub type GlobalHostId = usize;

/// What the shards of one drive share.
struct Lockstep<'a> {
    posts: &'a [Mutex<Post>],
    barrier: Barrier,
    owner: &'a BTreeMap<IpAddr, u32>,
    lookahead: SimDuration,
    deadline: Option<SimTime>,
}

impl Lockstep<'_> {
    /// One shard's side of a drive: windows until every shard stops on
    /// the same one. Returns the events this shard processed.
    fn shard(&self, me: usize, sim: &mut Simulator) -> u64 {
        let mut count = 0;
        loop {
            // First wait: every post is written. Every shard reads the
            // same posts, so every shard plans the same window.
            self.barrier.wait();
            let mut start: Option<SimTime> = None;
            let mut panicked = false;
            for post in self.posts {
                let post = lock(post);
                panicked |= post.panic.is_some();
                start = start.into_iter().chain(post.next).min();
                exchange::deliver(sim, &post.rows[me]);
            }
            let end = match (start, self.deadline) {
                _ if panicked => None,
                (Some(s), Some(d)) if s > d => None,
                // Events at exactly the deadline are in scope (run_until
                // semantics), so the cap is d + 1 ns.
                (Some(s), Some(d)) => {
                    Some((s + self.lookahead).min(d + SimDuration::from_nanos(1)))
                }
                (s, _) => s.map(|s| s + self.lookahead),
            };
            // Second wait: every column is copied, so each sender drops
            // its own buffers. A bounded run's packets beyond the
            // deadline are in their owners' queues for the next drive.
            self.barrier.wait();
            let mut post = lock(&self.posts[me]);
            post.rows.iter_mut().for_each(Vec::clear);
            let Some(end) = end else { return count };
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let n = sim.run_window(end);
                exchange::route(&mut post.rows, self.owner, sim.take_outbox(), end);
                n
            }));
            match ran {
                Ok(n) => count += n,
                Err(payload) => post.panic = Some(payload),
            }
            let arrivals = post.rows.iter().flatten().map(|r| r.at);
            post.next = sim.next_event_time().into_iter().chain(arrivals).min();
        }
    }
}

/// A drop-in, multi-core variant of [`netsim::Simulator`]: hosts are
/// partitioned across worker shards by a [`ShardPlan`], each worker
/// runs its own event loop on its own thread during [`run`] /
/// [`run_until`], and results are byte-identical to the single-shard
/// run for the same seed and workload.
///
/// [`run`]: ShardedSimulator::run
/// [`run_until`]: ShardedSimulator::run_until
pub struct ShardedSimulator {
    workers: Vec<Simulator>,
    plan: ShardPlan,
    /// One post per shard (see `exchange.rs`); its rows are empty
    /// between drives.
    posts: Vec<Mutex<Post>>,
    /// The workers' topology, kept to size the window from where the
    /// hosts sit.
    topology: Topology,
    /// The conservative window length: no packet can cross a shard
    /// boundary faster than the fastest inter-shard link's one-way
    /// latency. Set again whenever hosts are placed.
    lookahead: SimDuration,
    now: SimTime,
    /// The one global driver-lane seq (keys for external timers and
    /// injections), lent to workers for driver-side actions.
    driver_seq: u64,
    /// Global host id → (shard, worker-local id).
    hosts: Vec<(u32, usize)>,
    /// Global address → owning shard.
    owner: BTreeMap<IpAddr, u32>,
    /// Owner map changed since the workers' shard views were pushed.
    views_dirty: bool,
}

impl ShardedSimulator {
    /// New sharded simulator over `topology` with protocol `config`,
    /// partitioned per `plan`. A run refuses a zero-latency link between
    /// hosts on different shards (see [`ShardedSimulator::lookahead`]).
    pub fn new(topology: Topology, config: SimConfig, plan: ShardPlan) -> Self {
        // Before any host is placed every endpoint is unowned, so every
        // path counts.
        let lookahead = topology.min_one_way_latency(|_, _| true);
        let shards = plan.shards();
        let workers: Vec<Simulator> = (0..shards)
            .map(|_| Simulator::new(topology.clone(), config))
            .collect();
        ShardedSimulator {
            workers,
            plan,
            posts: (0..shards).map(|_| Post::new(shards as usize)).collect(),
            topology,
            lookahead,
            now: SimTime::ZERO,
            driver_seq: 0,
            hosts: Vec::new(),
            owner: BTreeMap::new(),
            views_dirty: false,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> u32 {
        self.plan.shards()
    }

    /// The conservative window length in use: the minimum one-way
    /// latency over the default path and the per-pair overrides whose
    /// endpoints sit on different shards (an endpoint no host owns
    /// counts as remote), as of the last placement.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Current simulated time (the max over workers after a run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a host owning `addrs` on the shard the plan assigns.
    /// Returns the global host id — which is also the host's event
    /// lane, making keys identical to the single-shard run where
    /// global id = registration index.
    #[allow(
        clippy::disallowed_methods,
        reason = "S2: the global host id is the lane"
    )]
    pub fn add_host(&mut self, addrs: &[IpAddr], host: Box<dyn Host>) -> GlobalHostId {
        let id = self.hosts.len();
        let shard = self.plan.shard_for(id);
        let local = self.workers[shard as usize].add_host_with_lane(addrs, host, id as u64);
        for addr in addrs {
            let prev = self.owner.insert(*addr, shard);
            assert!(prev.is_none(), "address {addr} already registered");
        }
        self.hosts.push((shard, local));
        self.views_dirty = true;
        id
    }

    /// Install a fault injector on every worker: `make(shard)` builds
    /// each replica. For sharded/single equivalence the injector's
    /// decisions must be stateless in the stream of packets it sees
    /// (e.g. hash-based draws over `(time, src, dst, size)`), since
    /// each replica sees only its own shard's traffic.
    pub fn set_fault_injectors(&mut self, mut make: impl FnMut(u32) -> Box<dyn FaultInjector>) {
        for (i, w) in self.workers.iter_mut().enumerate() {
            w.set_fault_injector(make(i as u32));
        }
    }

    /// Schedule a host timer externally, as [`Simulator::schedule_timer`]
    /// does: one global driver-lane key, routed to the host's shard.
    #[allow(clippy::disallowed_methods, reason = "S2: the global driver seq")]
    pub fn schedule_timer(&mut self, host: GlobalHostId, at: SimTime, token: u64) {
        let (shard, local) = self.hosts[host];
        let seq = self.driver_seq;
        self.driver_seq += 1;
        self.workers[shard as usize].schedule_timer_keyed(local, at, token, seq);
    }

    /// Schedule a crash or restart of the host owning `addr`, as
    /// [`Simulator::schedule_host_fault`] does: one global driver-lane
    /// key, used up whether or not any shard owns `addr`. Every shard
    /// queues the fault under that key and resolves `addr` when it
    /// fires, so only the owner acts, and the owner may be added after
    /// this call as on the plain engine.
    #[allow(clippy::disallowed_methods, reason = "S2: the global driver seq")]
    pub fn schedule_host_fault(&mut self, at: SimTime, addr: IpAddr, fault: HostFault) {
        let seq = self.driver_seq;
        self.driver_seq += 1;
        for w in &mut self.workers {
            w.schedule_host_fault_keyed(at, addr, fault, seq);
        }
    }

    /// Inject a UDP datagram from outside, as
    /// [`Simulator::inject_udp`] does. Executed on the source's shard
    /// (for stats credit and fault draws) under the lent global driver
    /// stream; if the destination lives elsewhere the datagram crosses
    /// through the exchange immediately.
    #[allow(
        clippy::disallowed_methods,
        reason = "S2: the global driver seq, lent for one injection"
    )]
    pub fn inject_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket) {
        self.refresh_views();
        let shard = match self
            .owner
            .get(&from.ip())
            .or_else(|| self.owner.get(&to.ip()))
        {
            Some(&s) => s,
            None => 0,
        };
        let w = &mut self.workers[shard as usize];
        w.swap_driver_seq(&mut self.driver_seq);
        w.inject_udp(from, to, data);
        w.swap_driver_seq(&mut self.driver_seq);
        let mut post = lock(&self.posts[shard as usize]);
        exchange::route(&mut post.rows, &self.owner, w.take_outbox(), self.now);
        for (sim, row) in self.workers.iter_mut().zip(&mut post.rows) {
            exchange::deliver(sim, row);
            row.clear();
        }
    }

    /// Whether the host owning `addr` is currently crashed.
    pub fn host_is_down(&self, addr: IpAddr) -> bool {
        match self.owner.get(&addr) {
            Some(&shard) => self.workers[shard as usize].host_is_down(addr),
            None => false,
        }
    }

    /// Counters for a host.
    pub fn stats(&self, host: GlobalHostId) -> HostStats {
        let (shard, local) = self.hosts[host];
        self.workers[shard as usize].stats(local)
    }

    /// Borrow a host back (e.g. to read results after the run).
    pub fn host(&self, host: GlobalHostId) -> &dyn Host {
        let (shard, local) = self.hosts[host];
        self.workers[shard as usize].host(local)
    }

    /// Mutable borrow of a host between runs.
    pub fn host_mut(&mut self, host: GlobalHostId) -> &mut (dyn Host + '_) {
        let (shard, local) = self.hosts[host];
        self.workers[shard as usize].host_mut(local)
    }

    /// Switch every shard's telemetry on or off (off by default).
    pub fn set_recording(&mut self, on: bool) {
        for w in &mut self.workers {
            w.set_recording(on);
        }
    }

    /// Take what the shards recorded since the last drain, merged in
    /// [`canonical_order`]: the single-shard run's log, sorted the same
    /// way, is byte-identical.
    pub fn drain_recording(&mut self) -> Log {
        let mut merged = Log::default();
        for w in &mut self.workers {
            let log = w.drain_recording();
            merged.events.extend(log.events);
            merged.lost += log.lost;
        }
        canonical_order(&mut merged.events);
        merged
    }

    /// Run until every queue drains. Returns the number of events
    /// processed (host faults excluded), equal to the
    /// single-shard run's count.
    pub fn run(&mut self) -> u64 {
        self.drive(None)
    }

    /// Run until `deadline` passes (events at exactly `deadline`
    /// included, as in [`Simulator::run_until`]).
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.drive(Some(deadline))
    }

    /// Push the owner map to the workers' shard views if hosts were
    /// added since last time.
    fn refresh_views(&mut self) {
        if !self.views_dirty {
            return;
        }
        self.views_dirty = false;
        for w in &mut self.workers {
            w.set_shard_view(self.owner.clone());
        }
        let owner = &self.owner;
        self.lookahead = self.topology.min_one_way_latency(|src, dst| {
            match (owner.get(&src), owner.get(&dst)) {
                (Some(a), Some(b)) => a != b,
                // An endpoint no host owns counts as remote.
                _ => true,
            }
        });
    }

    /// The windowed parallel loop: shards 1..N run on scoped threads
    /// for the length of one drive and shard 0 on the caller's. Each
    /// window is `min(next event anywhere) + lookahead`, so every
    /// cross-shard arrival lands at or beyond the end of the window
    /// that produced it — asserted per packet by the exchange. A panic
    /// on any shard stops every shard; the lowest-numbered shard's is
    /// re-raised here.
    fn drive(&mut self, deadline: Option<SimTime>) -> u64 {
        self.refresh_views();
        assert!(
            self.lookahead > SimDuration::ZERO,
            "sharded simulation needs a nonzero one-way latency between shards for lookahead \
             (a zero-RTT path between hosts on different shards admits no conservative \
             window: co-locate them)"
        );
        for (post, w) in self.posts.iter().zip(&self.workers) {
            lock(post).next = w.next_event_time();
        }
        let lockstep = Lockstep {
            posts: &self.posts,
            barrier: Barrier::new(self.workers.len()),
            owner: &self.owner,
            lookahead: self.lookahead,
            deadline,
        };
        let lockstep = &lockstep;
        let total = std::thread::scope(|scope| {
            let mut shards = self.workers.iter_mut().enumerate();
            let caller = shards.next();
            let spawned: Vec<_> = shards
                .map(|(me, sim)| scope.spawn(move || lockstep.shard(me, sim)))
                .collect();
            let mut total = caller.map_or(0, |(me, sim)| lockstep.shard(me, sim));
            for handle in spawned {
                total += handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload));
            }
            total
        });
        if let Some(payload) = self.posts.iter().find_map(|post| lock(post).panic.take()) {
            resume_unwind(payload);
        }

        match deadline {
            Some(d) => {
                for w in self.workers.iter_mut() {
                    w.advance_now_to(d);
                }
                if self.now < d {
                    self.now = d;
                }
            }
            None => {
                for w in self.workers.iter() {
                    if self.now < w.now() {
                        self.now = w.now();
                    }
                }
            }
        }
        total
    }
}

// The driver API shared with the plain `Simulator`: pure delegation to
// the inherent methods above (which `ShardedSimulator::name` paths
// resolve to), so a scenario generic over `S: SimDriver` drives both
// engines through one call sequence.
impl SimDriver for ShardedSimulator {
    fn add_host(&mut self, addrs: &[IpAddr], host: Box<dyn Host>) -> usize {
        ShardedSimulator::add_host(self, addrs, host)
    }

    fn set_fault_injectors(&mut self, make: impl FnMut(u32) -> Box<dyn FaultInjector>) {
        ShardedSimulator::set_fault_injectors(self, make);
    }

    /// Ignored: the timers go to whichever shards hold their hosts,
    /// and each shard's queue grows as it must.
    fn reserve_events(&mut self, _additional: usize) {}

    fn schedule_timer(&mut self, host: usize, at: SimTime, token: u64) {
        ShardedSimulator::schedule_timer(self, host, at, token);
    }

    fn schedule_host_fault(&mut self, at: SimTime, addr: IpAddr, fault: HostFault) {
        ShardedSimulator::schedule_host_fault(self, at, addr, fault);
    }

    fn inject_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket) {
        ShardedSimulator::inject_udp(self, from, to, data);
    }

    fn run(&mut self) -> u64 {
        ShardedSimulator::run(self)
    }

    fn run_until(&mut self, deadline: SimTime) -> u64 {
        ShardedSimulator::run_until(self, deadline)
    }

    fn stats(&self, host: usize) -> HostStats {
        ShardedSimulator::stats(self, host)
    }

    fn set_recording(&mut self, on: bool) {
        ShardedSimulator::set_recording(self, on);
    }

    fn drain_recording(&mut self) -> Log {
        ShardedSimulator::drain_recording(self)
    }
}

#[cfg(test)]
mod tests {
    use netsim::{Ctx, PacketBytes, PathConfig, TcpEvent};

    use super::*;

    /// A host that dials `(from, to)` when its timer fires, if given one.
    struct Dialer(Option<(SocketAddr, SocketAddr)>);

    impl Host for Dialer {
        fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
        fn on_tcp_event(&mut self, _: &mut Ctx<'_>, _: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
            if let Some((from, to)) = self.0 {
                ctx.tcp_connect(from, to, false);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cross-shard TCP is unsupported")]
    fn cross_shard_tcp_dial_is_rejected() {
        let topology = Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10)));
        let mut sim =
            ShardedSimulator::new(topology, SimConfig::default(), ShardPlan::round_robin(2));
        let server: SocketAddr = "10.0.0.1:53".parse().unwrap();
        let client: SocketAddr = "10.0.0.2:5300".parse().unwrap();
        sim.add_host(&[server.ip()], Box::new(Dialer(None)));
        sim.add_host(&[client.ip()], Box::new(Dialer(Some((client, server)))));
        sim.schedule_timer(1, SimTime::from_millis(1), 0);
        sim.run_until(SimTime::from_millis(100));
    }

    /// The dialer registered first sits on shard 0, which the caller's
    /// thread runs: its panic is caught there while shard 1 waits at
    /// the barrier, both shards stop, and the payload reaches the caller.
    #[test]
    #[should_panic(expected = "cross-shard TCP is unsupported")]
    fn a_panic_on_the_callers_shard_reaches_the_caller() {
        let topology = Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10)));
        let mut sim =
            ShardedSimulator::new(topology, SimConfig::default(), ShardPlan::round_robin(2));
        let server: SocketAddr = "10.0.0.1:53".parse().unwrap();
        let client: SocketAddr = "10.0.0.2:5300".parse().unwrap();
        sim.add_host(&[client.ip()], Box::new(Dialer(Some((client, server)))));
        sim.add_host(&[server.ip()], Box::new(Dialer(None)));
        sim.schedule_timer(0, SimTime::from_millis(1), 0);
        sim.run_until(SimTime::from_millis(100));
    }

    /// A fault at an address no host owns is a no-op on both engines
    /// that still uses up its driver key: the timer scheduled after it
    /// gets key 1, plain and at 1–4 shards, and neither is counted
    /// twice although every shard queues the fault.
    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "S2: reads the plain engine's driver seq and puts it back"
    )]
    fn a_fault_at_an_unowned_address_is_a_no_op_that_uses_its_key() {
        let topology = Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10)));
        let owned: IpAddr = "10.0.0.1".parse().unwrap();
        let stray: IpAddr = "10.0.0.99".parse().unwrap();
        let at = SimTime::from_millis(5);

        let mut plain = Simulator::new(topology.clone(), SimConfig::default());
        let id = plain.add_host(&[owned], Box::new(Dialer(None)));
        plain.schedule_host_fault(at, stray, HostFault::Crash);
        let mut key = 0;
        plain.swap_driver_seq(&mut key); // read the next key ...
        assert_eq!(key, 1, "the timer's key");
        plain.swap_driver_seq(&mut key); // ... and put it back
        plain.schedule_timer(id, at, 0);
        assert_eq!(plain.run(), 1, "the timer alone is counted");
        assert!(!plain.host_is_down(owned));

        for shards in 1..=4 {
            let plan = ShardPlan::round_robin(shards);
            let mut sim = ShardedSimulator::new(topology.clone(), SimConfig::default(), plan);
            let id = sim.add_host(&[owned], Box::new(Dialer(None)));
            sim.schedule_host_fault(at, stray, HostFault::Crash);
            assert_eq!(sim.driver_seq, 1, "the timer's key at {shards} shards");
            sim.schedule_timer(id, at, 0);
            assert_eq!(
                sim.run(),
                1,
                "the timer alone is counted at {shards} shards"
            );
            assert!(!sim.host_is_down(owned));
        }
    }

    /// A host that sends one datagram `(from, to)` when its timer
    /// fires, if given one.
    struct Pinger(Option<(SocketAddr, SocketAddr)>);

    impl Host for Pinger {
        fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
        fn on_tcp_event(&mut self, _: &mut Ctx<'_>, _: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
            if let Some((from, to)) = self.0 {
                ctx.send_udp(from, to, b"ping".as_slice());
            }
        }
    }

    /// Hosts at `.1`, `.2` and `.3` (shards 0, 1, 0 under a two-shard
    /// round robin); `.1` pings `.3` and `.2` pings `.1`. Returns the
    /// event count and each host's datagrams received.
    fn ping(sim: &mut impl SimDriver) -> (u64, Vec<u64>) {
        let at = |last: u8| SocketAddr::from(([10, 0, 0, last], 53));
        for (me, to) in [(1, Some(3)), (2, Some(1)), (3, None)] {
            let pinger = Pinger(to.map(|to| (at(me), at(to))));
            sim.add_host(&[at(me).ip()], Box::new(pinger));
        }
        sim.schedule_timer(0, SimTime::from_millis(1), 0);
        sim.schedule_timer(1, SimTime::from_millis(1), 0);
        let events = sim.run();
        (events, (0..3).map(|h| sim.stats(h).udp_rx).collect())
    }

    /// 10 ms paths, with a zero-RTT pair between `.1` and `.{other}`.
    fn with_zero_rtt_pair(other: u8) -> Topology {
        let mut topology = Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10)));
        let zero = PathConfig::with_rtt(SimDuration::ZERO);
        let ip = |last: u8| IpAddr::from([10, 0, 0, last]);
        topology.set_pair(ip(1), ip(other), zero);
        topology.set_pair(ip(other), ip(1), zero);
        topology
    }

    /// Only a link between shards bounds the window: a zero-RTT pair on
    /// one shard runs at two shards, as on the plain engine, and the
    /// window is the 10 ms default's one-way half.
    #[test]
    fn a_co_located_zero_rtt_pair_runs_at_two_shards() {
        let topology = with_zero_rtt_pair(3);
        let mut plain = Simulator::new(topology.clone(), SimConfig::default());
        let want = ping(&mut plain);
        assert_eq!(want, (4, vec![1, 0, 1]), "two timers, two deliveries");
        let plan = ShardPlan::round_robin(2);
        let mut sim = ShardedSimulator::new(topology, SimConfig::default(), plan);
        assert_eq!(ping(&mut sim), want);
        assert_eq!(sim.lookahead(), SimDuration::from_millis(5));
    }

    /// The same pair split across the two shards is refused before the
    /// first window.
    #[test]
    #[should_panic(expected = "nonzero one-way latency between shards")]
    fn a_zero_rtt_pair_across_shards_is_refused() {
        let plan = ShardPlan::round_robin(2);
        let mut sim = ShardedSimulator::new(with_zero_rtt_pair(2), SimConfig::default(), plan);
        ping(&mut sim);
    }

    /// A zero-RTT default path joins every pair of shards: refused when
    /// the hosts are placed and the run starts, not at construction.
    #[test]
    fn zero_latency_topology_is_rejected() {
        let topology = Topology::uniform(PathConfig::with_rtt(SimDuration::ZERO));
        let plan = ShardPlan::round_robin(2);
        let mut sim = ShardedSimulator::new(topology, SimConfig::default(), plan);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ping(&mut sim)));
        assert!(caught.is_err(), "zero lookahead must be refused");
    }
}
