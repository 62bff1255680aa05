//! The sharded coordinator: N `netsim` workers on N threads, advanced
//! in conservative lookahead windows.
//!
//! ## How equivalence works
//!
//! A single-shard [`Simulator`] orders events by `(time, lane, seq)`,
//! where the lane is the acting host's *global* id and the seq is that
//! lane's private counter. [`ShardedSimulator`] registers each host on
//! its worker under the same global lane, so every event carries
//! exactly the key it would have carried in the single-shard run —
//! keys never mention shards or threads. Cross-shard datagrams travel
//! through the [`Exchange`] with their keys attached and are enqueued
//! on the owning shard at the same position the single-shard queue
//! would have held them.
//!
//! Windows make that safe: with lookahead `L` = the topology's minimum
//! one-way latency, a window `[start, start + L)` can only produce
//! arrivals at `≥ start + L`, so no shard ever needs an event another
//! shard hasn't exported yet. The exchange asserts this invariant on
//! every routed packet.
//!
//! The merged transcript (host observations) and the canonically
//! ordered telemetry drain are therefore byte-identical to the
//! single-shard run for the same seed — the property the equivalence
//! suite locks in across `{1, 2, 8}` shards.
//!
//! ## What doesn't shard
//!
//! * TCP connections must have both endpoints on one shard
//!   ([`ShardPlan::pin`]); the conservative exchange carries only UDP.
//! * Control hosts (chaos agents) are replicated on every shard; their
//!   replicas' timer dispatches are excluded from event counts and
//!   telemetry by `netsim`'s control-lane discipline.

use std::any::Any;
use std::collections::BTreeMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::mpsc::{Receiver, Sender};

use ldp_rng::SplitMix64;
use ldp_telemetry::{canonical_order, Log};
use netsim::{
    stream_seed, FaultInjector, Host, HostStats, IntoPacket, RemoteUdp, SimConfig, SimDriver,
    SimDuration, SimTime, Simulator, Topology, DRIVER_LANE,
};

use crate::exchange::Exchange;
use crate::plan::ShardPlan;

/// A host id in the sharded simulation: the host's registration index,
/// which is also its event-lane id on whichever worker holds it.
pub type GlobalHostId = usize;

/// Handle to a control host (replicated on every shard).
pub type ControlId = usize;

/// What the coordinator asks of a worker each round.
enum WorkerCmd {
    /// Deliver `inbox`, then process every event strictly before `end`.
    Advance { inbox: Vec<RemoteUdp>, end: SimTime },
    /// Deliver `inbox` only (left-over in-flight packets at the end of
    /// a bounded run); no reply expected.
    Flush { inbox: Vec<RemoteUdp> },
}

/// One worker's answer to an `Advance`.
struct Reply {
    shard: usize,
    count: u64,
    outbox: Vec<RemoteUdp>,
    next: Option<SimTime>,
    /// A panic caught inside the worker (e.g. the cross-shard-TCP
    /// assert); the coordinator re-raises it after the scope unwinds.
    panic: Option<Box<dyn Any + Send>>,
}

fn worker_loop(shard: usize, sim: &mut Simulator, rx: &Receiver<WorkerCmd>, tx: &Sender<Reply>) {
    'cmds: while let Ok(cmd) = rx.recv() {
        match cmd {
            WorkerCmd::Advance { inbox, end } => {
                let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Exchange::deliver(sim, inbox);
                    let count = sim.run_window(end);
                    (count, sim.take_outbox(), sim.next_event_time())
                }));
                let reply = match ran {
                    Ok((count, outbox, next)) => Reply {
                        shard,
                        count,
                        outbox,
                        next,
                        panic: None,
                    },
                    Err(payload) => Reply {
                        shard,
                        count: 0,
                        outbox: Vec::new(),
                        next: None,
                        panic: Some(payload),
                    },
                };
                let dead = reply.panic.is_some();
                if tx.send(reply).is_err() || dead {
                    break 'cmds;
                }
            }
            WorkerCmd::Flush { inbox } => Exchange::deliver(sim, inbox),
        }
    }
}

fn min_time(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
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
    exchange: Exchange,
    /// The conservative window length: no packet can cross a shard
    /// boundary faster than the fastest link's one-way latency.
    lookahead: SimDuration,
    now: SimTime,
    /// The one global driver-lane stream (keys for external timers and
    /// injections), lent to workers for driver-side actions.
    driver_seq: u64,
    driver_rng: SplitMix64,
    /// Global host id → (shard, worker-local id).
    hosts: Vec<(u32, usize)>,
    /// Control id → worker-local id of the replica on each shard.
    controls: Vec<Vec<usize>>,
    /// Global address → owning shard (control addresses excluded).
    owner: BTreeMap<IpAddr, u32>,
    /// Owner map changed since the workers' shard views were pushed.
    views_dirty: bool,
}

impl ShardedSimulator {
    /// New sharded simulator over `topology` with protocol `config`,
    /// partitioned per `plan`.
    ///
    /// Panics if the topology's minimum one-way latency is zero: a
    /// zero-latency link admits no conservative lookahead window.
    pub fn new(topology: Topology, config: SimConfig, plan: ShardPlan) -> Self {
        let lookahead = topology.min_one_way_latency();
        assert!(
            lookahead > SimDuration::ZERO,
            "sharded simulation needs a nonzero minimum link latency for lookahead \
             (a zero-RTT path admits no conservative window)"
        );
        let shards = plan.shards();
        let workers: Vec<Simulator> = (0..shards)
            .map(|_| Simulator::new(topology.clone(), config))
            .collect();
        ShardedSimulator {
            workers,
            plan,
            exchange: Exchange::new(shards, BTreeMap::new()),
            lookahead,
            now: SimTime::ZERO,
            driver_seq: 0,
            driver_rng: SplitMix64::seed_from_u64(stream_seed(config.seed, DRIVER_LANE)),
            hosts: Vec::new(),
            controls: Vec::new(),
            owner: BTreeMap::new(),
            views_dirty: false,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> u32 {
        self.plan.shards()
    }

    /// The conservative window length in use.
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

    /// Register a control host (chaos agent), replicated on every
    /// shard: `make(shard)` builds the replica for each worker. The
    /// replicas all see the same timers and issue the same commands;
    /// commands that target hosts on other shards are natural no-ops
    /// there. Control addresses stay out of the global owner map, so
    /// control hosts must not receive traffic or dial connections.
    pub fn add_control_host(
        &mut self,
        addrs: &[IpAddr],
        mut make: impl FnMut(u32) -> Box<dyn Host>,
    ) -> ControlId {
        let mut locals = Vec::with_capacity(self.workers.len());
        for (i, w) in self.workers.iter_mut().enumerate() {
            locals.push(w.add_control_host(addrs, make(i as u32)));
        }
        self.controls.push(locals);
        self.controls.len() - 1
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
    pub fn schedule_timer(&mut self, host: GlobalHostId, at: SimTime, token: u64) {
        let (shard, local) = self.hosts[host];
        let seq = self.driver_seq;
        self.driver_seq += 1;
        self.workers[shard as usize].schedule_timer_keyed(local, at, token, seq);
    }

    /// Schedule a timer on a control host: consumes ONE driver-lane
    /// key (matching the single-shard run) and arms every replica with
    /// the same key.
    pub fn schedule_control_timer(&mut self, ctrl: ControlId, at: SimTime, token: u64) {
        let seq = self.driver_seq;
        self.driver_seq += 1;
        for (i, w) in self.workers.iter_mut().enumerate() {
            let local = self.controls[ctrl][i];
            w.schedule_timer_keyed(local, at, token, seq);
        }
    }

    /// Inject a UDP datagram from outside, as
    /// [`Simulator::inject_udp`] does. Executed on the source's shard
    /// (for stats credit and fault draws) under the lent global driver
    /// stream; if the destination lives elsewhere the datagram crosses
    /// through the exchange immediately.
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
        w.swap_driver_stream(&mut self.driver_seq, &mut self.driver_rng);
        w.inject_udp(from, to, data);
        w.swap_driver_stream(&mut self.driver_seq, &mut self.driver_rng);
        let out = w.take_outbox();
        if !out.is_empty() {
            self.exchange.route(out, self.now);
            self.deliver_exchange();
        }
    }

    /// Crash the host owning `addr` immediately (driver-side), as
    /// [`Simulator::crash_now`] does. No-op for unknown addresses.
    pub fn crash_now(&mut self, addr: IpAddr) {
        if let Some(&shard) = self.owner.get(&addr) {
            let w = &mut self.workers[shard as usize];
            w.swap_driver_stream(&mut self.driver_seq, &mut self.driver_rng);
            w.crash_now(addr);
            w.swap_driver_stream(&mut self.driver_seq, &mut self.driver_rng);
        }
    }

    /// Restart a crashed host (driver-side).
    pub fn restart_now(&mut self, addr: IpAddr) {
        if let Some(&shard) = self.owner.get(&addr) {
            let w = &mut self.workers[shard as usize];
            w.swap_driver_stream(&mut self.driver_seq, &mut self.driver_rng);
            w.restart_now(addr);
            w.swap_driver_stream(&mut self.driver_seq, &mut self.driver_rng);
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
    /// processed (control-replica timers excluded), equal to the
    /// single-shard run's count.
    pub fn run(&mut self) -> u64 {
        self.drive(None)
    }

    /// Run until `deadline` passes (events at exactly `deadline`
    /// included, as in [`Simulator::run_until`]).
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.drive(Some(deadline))
    }

    /// Push the owner map to the workers' shard views (and rebuild the
    /// exchange's routing table) if hosts were added since last time.
    fn refresh_views(&mut self) {
        if !self.views_dirty {
            return;
        }
        self.views_dirty = false;
        debug_assert!(
            self.exchange.is_empty(),
            "exchange drains before view changes"
        );
        for (i, w) in self.workers.iter_mut().enumerate() {
            w.set_shard_view(self.owner.clone(), i as u32);
        }
        self.exchange = Exchange::new(self.workers.len() as u32, self.owner.clone());
    }

    /// Hand every pending exchange packet to its owning worker's queue
    /// (between windows / outside the threaded scope).
    fn deliver_exchange(&mut self) {
        for i in 0..self.workers.len() {
            let batch = self.exchange.take(i as u32);
            Exchange::deliver(&mut self.workers[i], batch);
        }
    }

    /// The windowed parallel loop. Workers live for the duration of
    /// one drive; each round every worker receives its exchange inbox
    /// and a window end, processes events strictly before it, and
    /// reports its outbox and next event time. The window end is
    /// `min(next event anywhere) + lookahead`, so every cross-shard
    /// arrival lands at or beyond the end of the window that produced
    /// it — asserted per packet by the exchange.
    fn drive(&mut self, deadline: Option<SimTime>) -> u64 {
        self.refresh_views();
        let lookahead = self.lookahead;
        let mut nexts: Vec<Option<SimTime>> = self
            .workers
            .iter()
            .map(Simulator::next_event_time)
            .collect();
        let workers = &mut self.workers;
        let exchange = &mut self.exchange;
        let mut total: u64 = 0;
        let mut aborted: Option<Box<dyn Any + Send>> = None;

        std::thread::scope(|scope| {
            #[allow(
                clippy::disallowed_methods,
                reason = "A1: one reply per worker per round"
            )]
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let mut cmd_txs: Vec<Sender<WorkerCmd>> = Vec::new();
            for (i, sim) in workers.iter_mut().enumerate() {
                #[allow(clippy::disallowed_methods, reason = "A1: one command per round")]
                let (tx, rx) = std::sync::mpsc::channel::<WorkerCmd>();
                cmd_txs.push(tx);
                let reply = reply_tx.clone();
                scope.spawn(move || worker_loop(i, sim, &rx, &reply));
            }
            drop(reply_tx);

            'rounds: loop {
                let mut next = exchange.next_arrival();
                for n in &nexts {
                    next = min_time(next, *n);
                }
                let Some(start) = next else { break };
                if let Some(d) = deadline {
                    if start > d {
                        break;
                    }
                }
                let mut end = start + lookahead;
                if let Some(d) = deadline {
                    // Events at exactly the deadline are in scope
                    // (run_until semantics), so the cap is d + 1 ns.
                    let cap = d + SimDuration::from_nanos(1);
                    if end > cap {
                        end = cap;
                    }
                }
                for (i, tx) in cmd_txs.iter().enumerate() {
                    let inbox = exchange.take(i as u32);
                    if tx.send(WorkerCmd::Advance { inbox, end }).is_err() {
                        break 'rounds; // worker gone; its panic is in flight
                    }
                }
                for _ in 0..cmd_txs.len() {
                    let Ok(reply) = reply_rx.recv() else {
                        break 'rounds;
                    };
                    total += reply.count;
                    exchange.route(reply.outbox, end);
                    nexts[reply.shard] = reply.next;
                    if reply.panic.is_some() {
                        aborted = reply.panic;
                        break 'rounds;
                    }
                }
            }

            // A bounded run can leave packets in flight beyond the
            // deadline: park them in the owning workers' queues so the
            // next drive (or a longer deadline) picks them up.
            for (i, tx) in cmd_txs.iter().enumerate() {
                let inbox = exchange.take(i as u32);
                if !inbox.is_empty() {
                    let _ = tx.send(WorkerCmd::Flush { inbox });
                }
            }
            drop(cmd_txs); // workers exit; scope joins them
        });

        if let Some(payload) = aborted {
            std::panic::resume_unwind(payload);
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

    fn add_control_host(
        &mut self,
        addrs: &[IpAddr],
        make: impl FnMut(u32) -> Box<dyn Host>,
    ) -> usize {
        ShardedSimulator::add_control_host(self, addrs, make)
    }

    fn set_fault_injectors(&mut self, make: impl FnMut(u32) -> Box<dyn FaultInjector>) {
        ShardedSimulator::set_fault_injectors(self, make);
    }

    fn schedule_timer(&mut self, host: usize, at: SimTime, token: u64) {
        ShardedSimulator::schedule_timer(self, host, at, token);
    }

    fn schedule_control_timer(&mut self, ctrl: usize, at: SimTime, token: u64) {
        ShardedSimulator::schedule_control_timer(self, ctrl, at, token);
    }

    fn inject_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket) {
        ShardedSimulator::inject_udp(self, from, to, data);
    }

    fn crash_now(&mut self, addr: IpAddr) {
        ShardedSimulator::crash_now(self, addr);
    }

    fn restart_now(&mut self, addr: IpAddr) {
        ShardedSimulator::restart_now(self, addr);
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
