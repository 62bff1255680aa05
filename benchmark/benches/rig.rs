//! What every workload assembles: a simulator (plain or sharded) with
//! its hosts, optionally wrapped at the host boundary for spans,
//! capture and answer-class inspection, plus the transcript it leaves.

use std::net::{IpAddr, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ldp_shard::{ShardPlan, ShardedSimulator};
use netsim::{
    Ctx, Host, HostStats, PacketBytes, SimConfig, SimTime, Simulator, TcpEvent, Topology,
};

use crate::stats::Fnv;

/// Nanoseconds since the first call in this process (span clock).
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Plain,
    /// `ShardedSimulator` with `ShardPlan::round_robin(n)`.
    Sharded(u32),
}

pub enum AnySim {
    Plain(Simulator),
    Sharded(ShardedSimulator),
}

impl AnySim {
    pub fn new(kind: SimKind, topology: Topology, config: SimConfig) -> AnySim {
        match kind {
            SimKind::Plain => AnySim::Plain(Simulator::new(topology, config)),
            SimKind::Sharded(n) => AnySim::Sharded(ShardedSimulator::new(
                topology,
                config,
                ShardPlan::round_robin(n),
            )),
        }
    }

    pub fn add_host(&mut self, addrs: &[IpAddr], host: Box<dyn Host>) -> usize {
        match self {
            AnySim::Plain(s) => s.add_host(addrs, host),
            AnySim::Sharded(s) => s.add_host(addrs, host),
        }
    }

    pub fn schedule_timer(&mut self, host: usize, at: SimTime, token: u64) {
        match self {
            AnySim::Plain(s) => s.schedule_timer(host, at, token),
            AnySim::Sharded(s) => s.schedule_timer(host, at, token),
        }
    }

    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        match self {
            AnySim::Plain(s) => s.run_until(deadline),
            AnySim::Sharded(s) => s.run_until(deadline),
        }
    }

    pub fn stats(&self, host: usize) -> HostStats {
        match self {
            AnySim::Plain(s) => s.stats(host),
            AnySim::Sharded(s) => s.stats(host),
        }
    }

    /// The conservative window of a sharded run, in ms (0 for plain).
    pub fn lookahead_ms(&self) -> f64 {
        match self {
            AnySim::Plain(_) => 0.0,
            AnySim::Sharded(s) => s.lookahead().as_secs_f64() * 1e3,
        }
    }
}

pub const OP_UDP: u8 = 0;
pub const OP_TIMER: u8 = 1;
pub const OP_TCP: u8 = 2;
pub const OP_NAMES: [&str; 3] = ["on_udp", "on_timer", "on_tcp"];

/// One host callback, timed on the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Client-side address and DNS id of the datagram (timer: the token).
    pub req: u64,
}

/// One host callback as the host saw it, stamped in virtual time.
#[derive(Debug, Clone)]
pub enum Seen {
    Udp {
        at: SimTime,
        from: SocketAddr,
        to: SocketAddr,
        data: PacketBytes,
    },
    Timer {
        at: SimTime,
        token: u64,
    },
    Tcp {
        at: SimTime,
    },
}

impl Seen {
    pub fn at(&self) -> SimTime {
        match self {
            Seen::Udp { at, .. } | Seen::Timer { at, .. } | Seen::Tcp { at } => *at,
        }
    }
}

/// What a wrapped host recorded; shared with the harness.
pub struct Probe {
    pub layer: &'static str,
    pub host: usize,
    pub addrs: Vec<IpAddr>,
    pub spans: Mutex<Vec<Span>>,
    pub seen: Mutex<Vec<Seen>>,
    /// DNS messages delivered: datagrams plus TCP data events.
    pub messages: AtomicU64,
}

/// Inspects the DNS message bytes a host receives (length prefix of a
/// TCP message already removed).
pub type Inspect = Box<dyn FnMut(&[u8]) + Send>;

/// What the wrapper around one host does.
#[derive(Default)]
pub struct Wrap {
    pub spans: bool,
    pub capture: bool,
    pub inspect: Option<Inspect>,
}

impl Wrap {
    pub fn is_noop(&self) -> bool {
        !self.spans && !self.capture && self.inspect.is_none()
    }
}

/// A host seen from outside: every callback is forwarded unchanged.
pub struct TimedHost {
    inner: Box<dyn Host>,
    probe: Arc<Probe>,
    wrap: Wrap,
}

fn request_id(from: SocketAddr, to: SocketAddr, data: &[u8]) -> u64 {
    let (id, response) = match data {
        [hi, lo, flags, ..] => (u16::from_be_bytes([*hi, *lo]), flags & 0x80 != 0),
        _ => (0, false),
    };
    let client = if response { to } else { from };
    let ip = match client.ip() {
        IpAddr::V4(v4) => u64::from(u32::from(v4)),
        IpAddr::V6(v6) => u128::from(v6) as u64,
    };
    ip << 32 | u64::from(client.port()) << 16 | u64::from(id)
}

impl TimedHost {
    fn record(&self, op: u8, start_ns: u64, req: u64) {
        if self.wrap.spans {
            let end_ns = wall_ns();
            self.probe.spans.lock().expect("span buffer").push(Span {
                op,
                start_ns,
                end_ns,
                req,
            });
        }
    }
}

impl Host for TimedHost {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, data: PacketBytes) {
        if let Some(inspect) = &mut self.wrap.inspect {
            inspect(&data);
        }
        if self.wrap.capture {
            let seen = Seen::Udp {
                at: ctx.now(),
                from,
                to,
                data: data.clone(),
            };
            self.probe.seen.lock().expect("capture buffer").push(seen);
        }
        let req = if self.wrap.spans {
            request_id(from, to, &data)
        } else {
            0
        };
        self.probe.messages.fetch_add(1, Relaxed);
        let start = wall_ns();
        self.inner.on_udp(ctx, from, to, data);
        self.record(OP_UDP, start, req);
    }

    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        if let TcpEvent::Data { data, .. } = &event {
            self.probe.messages.fetch_add(1, Relaxed);
            if let (Some(inspect), Some(body)) = (&mut self.wrap.inspect, data.get(2..)) {
                inspect(body);
            }
        }
        if self.wrap.capture {
            self.probe
                .seen
                .lock()
                .expect("capture buffer")
                .push(Seen::Tcp { at: ctx.now() });
        }
        let start = wall_ns();
        self.inner.on_tcp_event(ctx, event);
        self.record(OP_TCP, start, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.wrap.capture {
            let seen = Seen::Timer {
                at: ctx.now(),
                token,
            };
            self.probe.seen.lock().expect("capture buffer").push(seen);
        }
        let start = wall_ns();
        self.inner.on_timer(ctx, token);
        self.record(OP_TIMER, start, token);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_restart(ctx);
    }
}

/// How a rig's hosts are wrapped: one answer per layer name.
pub struct Wrapping {
    pub spans: bool,
    pub capture: bool,
    /// Layer whose received messages `inspect` sees.
    pub inspect: Option<(&'static str, Inspect)>,
    /// Expected callbacks per host, to size the span buffers up front.
    pub span_capacity: usize,
}

impl Wrapping {
    pub fn none() -> Wrapping {
        Wrapping {
            spans: false,
            capture: false,
            inspect: None,
            span_capacity: 0,
        }
    }
}

/// The per-repetition result every workload reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the seq-sorted transcript.
    pub hash: u64,
    pub attempted: u64,
    /// Unanswered at the horizon, or answered with the wrong class.
    pub failed: u64,
}

/// Reads the transcript the hosts left behind.
pub type Finish = Box<dyn FnMut() -> Outcome>;

/// Virtual-time slices one repetition's `run_until` is timed in: about
/// a millisecond of wall time each.
pub const SLICES: usize = 512;
/// The same for a trace that also runs on a `ShardedSimulator`, whose
/// `run_until` starts and joins its worker threads: fewer, longer slices
/// keep that cost out of the figure. Every side of a comparison is
/// sliced alike.
pub const SLICES_SHARDED: usize = 64;

pub struct Rig {
    pub sim: AnySim,
    /// `run_until` deadlines: equal parts of the trace's duration, then
    /// the horizon.
    pub deadlines: Vec<SimTime>,
    pub assemble_s: f64,
    pub schedule_s: f64,
    /// One per host, in host-id order.
    pub probes: Vec<Arc<Probe>>,
    pub finish: Finish,
}

impl Rig {
    /// Run to the horizon, timing each slice's `run_until` on its own:
    /// wall seconds per slice and the events processed. Slicing changes
    /// no event and no order; it lets the floor be taken per slice, at a
    /// grain finer than the bursts of a noisy neighbour.
    pub fn run(&mut self) -> (Vec<f64>, u64) {
        let mut walls = Vec::with_capacity(self.deadlines.len());
        let mut events = 0;
        for deadline in &self.deadlines {
            let t = Instant::now();
            events += self.sim.run_until(*deadline);
            walls.push(t.elapsed().as_secs_f64());
        }
        (walls, events)
    }

    pub fn horizon(&self) -> SimTime {
        *self.deadlines.last().expect("a rig has deadlines")
    }

    pub fn outcome(&mut self) -> Outcome {
        (self.finish)()
    }

    pub fn probe(&self, layer: &str) -> Option<&Arc<Probe>> {
        self.probes.iter().find(|p| p.layer == layer)
    }
}

/// Registers hosts on a simulator, wrapping each as `wrapping` says.
pub struct RigBuilder {
    pub sim: AnySim,
    wrapping: Wrapping,
    probes: Vec<Arc<Probe>>,
}

impl RigBuilder {
    pub fn new(sim: AnySim, wrapping: Wrapping) -> RigBuilder {
        RigBuilder {
            sim,
            wrapping,
            probes: Vec::new(),
        }
    }

    pub fn add_host(
        &mut self,
        layer: &'static str,
        addrs: &[IpAddr],
        host: Box<dyn Host>,
    ) -> usize {
        let inspect = match &self.wrapping.inspect {
            Some((l, _)) if *l == layer => self.wrapping.inspect.take().map(|(_, f)| f),
            _ => None,
        };
        let wrap = Wrap {
            spans: self.wrapping.spans,
            capture: self.wrapping.capture,
            inspect,
        };
        let probe = Arc::new(Probe {
            layer,
            host: self.probes.len(),
            addrs: addrs.to_vec(),
            spans: Mutex::new(Vec::with_capacity(if wrap.spans {
                self.wrapping.span_capacity
            } else {
                0
            })),
            seen: Mutex::new(Vec::new()),
            messages: AtomicU64::new(0),
        });
        self.probes.push(probe.clone());
        let host: Box<dyn Host> = if wrap.is_noop() {
            host
        } else {
            Box::new(TimedHost {
                inner: host,
                probe,
                wrap,
            })
        };
        self.sim.add_host(addrs, host)
    }

    /// `duration_secs` is the trace's length, timed in `slices` equal
    /// parts; `drain_secs` is the virtual time run past it.
    pub fn finish(
        self,
        slices: usize,
        duration_secs: f64,
        drain_secs: f64,
        assemble_s: f64,
        schedule_s: f64,
        finish: Finish,
    ) -> Rig {
        let mut deadlines: Vec<SimTime> = (1..=slices)
            .map(|k| SimTime::from_secs_f64(duration_secs * k as f64 / slices as f64))
            .collect();
        deadlines.push(SimTime::from_secs_f64(duration_secs + drain_secs));
        Rig {
            sim: self.sim,
            deadlines,
            assemble_s,
            schedule_s,
            probes: self.probes,
            finish,
        }
    }
}

/// The stub of the `rec_*` workloads: the harness's own host. It fires
/// pre-encoded trace queries at the resolver from the trace's source
/// addresses and logs each reply's time, size, rcode and answer count.
pub struct Stub {
    resolver: SocketAddr,
    queries: Arc<Vec<StubQuery>>,
    pending: std::collections::HashMap<(SocketAddr, u16), u32>,
    log: Arc<Mutex<Vec<StubRecord>>>,
}

pub struct StubQuery {
    pub src: SocketAddr,
    pub id: u16,
    pub payload: PacketBytes,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct StubRecord {
    pub sent_ns: u64,
    pub replied_ns: u64,
    pub bytes: u32,
    pub rcode: u8,
    pub answers: u16,
    pub replied: bool,
}

impl Stub {
    pub fn new(
        resolver: SocketAddr,
        queries: Arc<Vec<StubQuery>>,
        log: Arc<Mutex<Vec<StubRecord>>>,
    ) -> Stub {
        let pending = std::collections::HashMap::with_capacity(queries.len().min(1 << 16));
        Stub {
            resolver,
            queries,
            pending,
            log,
        }
    }
}

impl Host for Stub {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, _from: SocketAddr, to: SocketAddr, data: PacketBytes) {
        let [hi, lo, _, flags, _, _, an_hi, an_lo, ..] = *data else {
            return;
        };
        let Some(seq) = self.pending.remove(&(to, u16::from_be_bytes([hi, lo]))) else {
            return;
        };
        let mut log = self.log.lock().expect("stub log");
        let rec = &mut log[seq as usize];
        rec.replied_ns = ctx.now().as_nanos();
        rec.bytes = data.len() as u32;
        rec.rcode = flags & 0x0f;
        rec.answers = u16::from_be_bytes([an_hi, an_lo]);
        rec.replied = true;
    }

    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(q) = self.queries.get(token as usize) else {
            return;
        };
        self.pending.insert((q.src, q.id), token as u32);
        self.log.lock().expect("stub log")[token as usize].sent_ns = ctx.now().as_nanos();
        ctx.send_udp(q.src, self.resolver, q.payload.clone());
    }
}

/// Transcript hash and failure count of a stub log. A query fails when
/// it is unanswered at the horizon or is not NOERROR with an answer.
pub fn stub_outcome(log: &[StubRecord]) -> Outcome {
    let mut h = Fnv::new();
    let mut failed = 0u64;
    for (seq, r) in log.iter().enumerate() {
        h.u64(seq as u64);
        h.u64(r.sent_ns);
        h.u64(r.replied_ns);
        h.u64(u64::from(r.bytes) << 32 | u64::from(r.rcode) << 16 | u64::from(r.answers));
        if !r.replied || r.rcode != 0 || r.answers == 0 {
            failed += 1;
        }
    }
    Outcome {
        hash: h.finish(),
        attempted: log.len() as u64,
        failed,
    }
}

/// One callback of a null host: the datagrams the real host emitted
/// while it handled the corresponding event.
#[derive(Debug, Clone, Default)]
pub struct NullStep {
    pub sends: Vec<(SocketAddr, SocketAddr, PacketBytes)>,
}

/// A host that does no work of its own: on its k-th callback it sends
/// what the real host sent on its k-th callback (zero-filled payloads
/// of the same sizes, shared, so the harness allocates nothing).
pub struct NullHost {
    steps: Arc<Vec<NullStep>>,
    next: usize,
}

impl NullHost {
    pub fn new(steps: Arc<Vec<NullStep>>) -> NullHost {
        NullHost { steps, next: 0 }
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(step) = self.steps.get(self.next) {
            for (from, to, data) in &step.sends {
                ctx.send_udp(*from, *to, data.clone());
            }
        }
        self.next += 1;
    }
}

impl Host for NullHost {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {
        self.step(ctx);
    }
    fn on_tcp_event(&mut self, _: &mut Ctx<'_>, _: TcpEvent) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
        self.step(ctx);
    }
}

/// The null-host replay of one captured repetition: the same timers at
/// the same virtual times and, from each callback, the same datagrams
/// (sizes and addresses) the real hosts exchanged. TCP callbacks are
/// not replayed (their segments are the simulator's own events), so the
/// result is used per event, not per query.
pub struct BareScript {
    pub hosts: Vec<(Vec<IpAddr>, Arc<Vec<NullStep>>)>,
    pub timers: Vec<(usize, SimTime, u64)>,
}

impl BareScript {
    pub fn from_probes(probes: &[Arc<Probe>], topology: &Topology) -> BareScript {
        let seen: Vec<_> = probes
            .iter()
            .map(|p| p.seen.lock().expect("capture buffer"))
            .collect();
        // Callbacks that run sends: datagrams and timers, in host order.
        let steps_at: Vec<Vec<SimTime>> = seen
            .iter()
            .map(|s| {
                s.iter()
                    .filter(|e| !matches!(e, Seen::Tcp { .. }))
                    .map(Seen::at)
                    .collect()
            })
            .collect();
        let mut steps: Vec<Vec<NullStep>> = steps_at
            .iter()
            .map(|s| vec![NullStep::default(); s.len()])
            .collect();
        let owner = |ip: IpAddr| probes.iter().position(|p| p.addrs.contains(&ip));
        let mut zero: std::collections::BTreeMap<usize, PacketBytes> = Default::default();
        let mut timers = Vec::new();
        for (host, events) in seen.iter().enumerate() {
            for e in events.iter() {
                match e {
                    Seen::Timer { at, token } => timers.push((host, *at, *token)),
                    Seen::Udp { at, from, to, data } => {
                        let Some(sender) = owner(from.ip()) else {
                            continue;
                        };
                        let latency = topology.path(from.ip(), to.ip()).one_way(data.len());
                        let sent =
                            SimTime::from_nanos(at.as_nanos().saturating_sub(latency.as_nanos()));
                        // The sender's last callback at or before the send time.
                        let k = steps_at[sender].partition_point(|t| *t <= sent);
                        let Some(k) = k.checked_sub(1) else { continue };
                        let payload = zero
                            .entry(data.len())
                            .or_insert_with(|| vec![0u8; data.len()].into())
                            .clone();
                        steps[sender][k].sends.push((*from, *to, payload));
                    }
                    Seen::Tcp { .. } => {}
                }
            }
        }
        timers.sort_by_key(|(_, at, _)| *at);
        BareScript {
            hosts: probes
                .iter()
                .zip(steps)
                .map(|(p, s)| (p.addrs.clone(), Arc::new(s)))
                .collect(),
            timers,
        }
    }

    /// Assemble the null-host simulator; time only the returned run.
    pub fn assemble(&self, kind: SimKind, topology: Topology, config: SimConfig) -> AnySim {
        let mut sim = AnySim::new(kind, topology, config);
        for (addrs, steps) in &self.hosts {
            sim.add_host(addrs, Box::new(NullHost::new(steps.clone())));
        }
        for (host, at, token) in &self.timers {
            sim.schedule_timer(*host, *at, *token);
        }
        sim
    }
}
