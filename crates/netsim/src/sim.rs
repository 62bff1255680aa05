//! The discrete-event simulator: virtual clock, event queue, UDP
//! delivery, and a connection-level TCP/TLS model with the behaviours
//! the paper's experiments depend on — handshake round trips, Nagle
//! coalescing with delayed ACKs, server idle timeouts, and TIME_WAIT
//! accounting (Figures 11, 13, 14, 15).
//!
//! Hot-path invariants (see DESIGN.md "Performance invariants"):
//! the event queue is a few sorted runs (the pre-scheduled trace, each
//! fixed-delay class of what is in flight) plus a binary heap for what
//! fits no run, in one slab, all over `(time, lane, seq)` — a strict
//! total order, so event ordering never depends on which run or the
//! heap holds an event, or on heap layout; packet payloads are
//! [`PacketBytes`] handles onto buffers from the simulator's own
//! [`PacketPool`], copied once when a host hands bytes over and never
//! again between send and delivery.
//!
//! Sharding invariants (see DESIGN.md §10 "Sharded DES"): every event
//! key and connection id is attributed to a *lane* — the global id of
//! the host whose processing produced it (or the driver lane).
//! Lanes are shard-placement-invariant, so an N-shard run (`ldp-shard`)
//! pops and names exactly what the single-shard run does. Random draws
//! need no lane: path loss is a hash of the packet
//! ([`crate::fault::packet_draw`]), so transcripts stay byte-identical
//! across shard counts and a resumed run re-draws what it re-sends.

use std::collections::BTreeMap;
use std::net::{IpAddr, SocketAddr};

use ldp_rng::{ByAddr, KeyTable};
use ldp_telemetry::{Kind, Log, Recorder};

use crate::fault::{packet_draw, FaultInjector, HostFault, WireKind};
use crate::host::{Host, TcpEvent};
use crate::pool::{IntoPacket, PacketBytes, PacketPool, PoolStats};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Lane for events scheduled from outside any host callback (driver
/// APIs: `schedule_timer`, `schedule_host_fault`, `inject_udp`).
/// Orders after everything else at equal times.
pub const DRIVER_LANE: u64 = u64::MAX;

/// [`packet_draw`]'s site for path loss: distinct from the sites
/// `ldp-chaos`'s injector draws at (1–5), so a plan seeded like the
/// simulator draws independently of it.
const SITE_PATH_LOSS: u64 = 6;

/// Delayed-ACK timer (Linux: up to 40 ms).
const DELAYED_ACK: SimDuration = SimDuration::from_millis(40);

/// Identifies a registered host.
pub type HostId = usize;

/// Identifies a TCP/TLS connection (shared by both endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Tunable protocol constants.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// TIME_WAIT residence time for the close initiator (Linux: 60 s).
    pub time_wait: SimDuration,
    /// Default server-side idle timeout for incoming connections; hosts
    /// may override per connection.
    pub default_idle_timeout: Option<SimDuration>,
    /// Whether Nagle's algorithm is enabled by default on new
    /// connections (the paper disables it on clients, §5.2.1).
    pub default_nagle: bool,
    /// Seed of the path-loss draws. A datagram's loss is a hash of this
    /// seed and the datagram ([`packet_draw`]: the instant it is sent,
    /// both endpoints and its length), so it never depends on another
    /// packet, on shard placement or on where a resumed run started.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            time_wait: SimDuration::from_secs(60),
            default_idle_timeout: Some(SimDuration::from_secs(20)),
            default_nagle: false,
            seed: 0xd15ea5e,
        }
    }
}

/// Wire/connection counters per host, powering the resource models.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostStats {
    /// UDP datagrams received.
    pub udp_rx: u64,
    /// UDP datagrams sent.
    pub udp_tx: u64,
    /// UDP bytes sent.
    pub udp_tx_bytes: u64,
    /// UDP bytes received.
    pub udp_rx_bytes: u64,
    /// TCP data messages received (plain TCP connections).
    pub tcp_rx: u64,
    /// TCP data messages sent.
    pub tcp_tx: u64,
    /// TCP payload bytes sent.
    pub tcp_tx_bytes: u64,
    /// TLS data messages received.
    pub tls_rx: u64,
    /// TLS data messages sent.
    pub tls_tx: u64,
    /// TLS payload bytes sent.
    pub tls_tx_bytes: u64,
    /// TCP handshakes completed as the server.
    pub tcp_accepts: u64,
    /// TLS handshakes completed as the server.
    pub tls_accepts: u64,
    /// Currently established connections (either role).
    pub established: u64,
    /// Connections currently in TIME_WAIT at this host.
    pub time_wait: u64,
}

#[derive(Debug, Clone)]
enum SegKind {
    Syn,
    SynAck,
    AckOfSyn,
    TlsClientHello,
    TlsServerHello,
    TlsClientFinished,
    TlsServerFinished,
    Data { bytes: PacketBytes },
    Ack,
    Fin,
    FinAck,
}

#[derive(Debug, Clone)]
enum Payload {
    Udp(PacketBytes),
    Tcp { conn: ConnId, kind: SegKind },
}

#[derive(Debug, Clone)]
struct Packet {
    src: SocketAddr,
    dst: SocketAddr,
    payload: Payload,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// SYN sent, awaiting SYN-ACK.
    Connecting,
    /// TLS handshake in progress (after TCP established).
    TlsHandshake,
    Established,
    /// FIN sent by one side, awaiting FIN-ACK.
    Closing,
    Closed,
}

/// Per-direction send state (0 = client→server, 1 = server→client).
#[derive(Debug, Default)]
struct DirState {
    /// Bytes in flight awaiting ACK.
    unacked: usize,
    /// Nagle buffer: writes deferred until the in-flight data is acked.
    pending: Vec<PacketBytes>,
    /// Receiver owes an ACK (delayed-ACK pending).
    ack_owed: bool,
}

#[derive(Debug)]
struct Conn {
    client: SocketAddr,
    server: SocketAddr,
    client_host: HostId,
    server_host: HostId,
    tls: bool,
    nagle: bool,
    state: ConnState,
    /// Who initiated close (enters TIME_WAIT): host id.
    closer: Option<HostId>,
    /// A close requested before the handshake finished: performed after
    /// establishment so queued writes are delivered first (graceful
    /// close never discards the send buffer).
    pending_close: Option<HostId>,
    last_activity: SimTime,
    idle_timeout: Option<SimDuration>,
    dirs: [DirState; 2],
    /// Earliest arrival time of the next segment per direction: TCP is
    /// in-order, so a small segment (e.g. a FIN) must never overtake a
    /// large one sent earlier just because it serializes faster.
    fifo_free: [SimTime; 2],
    /// Whether each side (0 = client, 1 = server) has seen Closed.
    side_closed: [bool; 2],
    /// Whether each side has completed its handshake (its `established`
    /// counter was incremented) — needed so an abortive kill can undo
    /// exactly the bookkeeping that happened.
    side_established: [bool; 2],
}

impl Conn {
    fn host_at(&self, addr: SocketAddr) -> HostId {
        if addr == self.client {
            self.client_host
        } else {
            self.server_host
        }
    }

    /// Direction index for data flowing *from* `src`.
    fn dir_from(&self, src: SocketAddr) -> usize {
        if src == self.client {
            0
        } else {
            1
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnTimer {
    IdleCheck,
    TimeWaitDone,
    DelayedAck { dir: usize },
}

enum Event {
    Deliver(Packet),
    /// `epoch` is the host's crash generation at arm time: a timer from
    /// before a crash never fires after the restart.
    HostTimer {
        host: HostId,
        token: u64,
        epoch: u64,
    },
    ConnTimer {
        conn: ConnId,
        kind: ConnTimer,
    },
    /// A driver-scheduled crash or restart of the host owning `addr`,
    /// resolved when it fires: a no-op where no host owns `addr` (on a
    /// sharded run, every shard but the owner's).
    HostFault {
        addr: IpAddr,
        fault: HostFault,
    },
    /// Deferred abortive kill (fault injection / crash): processed as
    /// its own event so a drop decided mid-delivery never invalidates
    /// connection state the current dispatch still holds.
    KillConn {
        conn: ConnId,
    },
    /// A dial to a dead or unlistened address failing back to the
    /// client one RTT later (the RST / ICMP-unreachable a real stack
    /// would surface), delivered as `TcpEvent::Closed` so dialers can
    /// run reconnect/backoff logic instead of waiting on a half-open
    /// connection forever. `epoch` guards against the dialer itself
    /// having crashed in the meantime.
    ConnRefused {
        conn: ConnId,
        host: HostId,
        epoch: u64,
    },
}

/// Actions queued by host callbacks, applied when the callback returns.
enum Command {
    SendUdp {
        from: SocketAddr,
        to: SocketAddr,
        data: PacketBytes,
    },
    TcpConnect {
        conn: ConnId,
        from: SocketAddr,
        to: SocketAddr,
        tls: bool,
        from_host: HostId,
    },
    TcpSend {
        conn: ConnId,
        data: PacketBytes,
        sender: HostId,
    },
    TcpClose {
        conn: ConnId,
        closer: HostId,
    },
    SetIdleTimeout {
        conn: ConnId,
        timeout: Option<SimDuration>,
    },
    SetTimer {
        host: HostId,
        delay: SimDuration,
        token: u64,
    },
}

/// The command/query interface host callbacks use to act on the world.
pub struct Ctx<'a> {
    now: SimTime,
    host: HostId,
    /// The host's global lane — the high half of every [`ConnId`] it
    /// dials, making connection ids shard-placement-invariant.
    lane: u64,
    /// The host's dial counter (low half of its next [`ConnId`]).
    dials: &'a mut u64,
    commands: &'a mut Vec<Command>,
    /// Where the bytes a host sends are copied to.
    pool: &'a PacketPool,
    /// The simulator's telemetry, lent for the callback.
    rec: &'a mut Recorder,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Record a telemetry mark at [`Ctx::now`] (a no-op while the
    /// simulator's recorder is off).
    #[inline]
    pub fn mark(&mut self, kind: Kind, a: u64, b: u64) {
        self.rec.mark(self.now.as_nanos(), kind, a, b);
    }

    /// The simulator's recorder, for a mark stamped other than
    /// [`Ctx::now`] (the replay client's `q.match` is stamped at the
    /// latency log's time).
    pub fn recorder(&mut self) -> &mut Recorder {
        self.rec
    }

    /// Send a UDP datagram: bytes (`&[u8]`, `Vec<u8>`) are copied into
    /// a pooled buffer, an existing [`PacketBytes`] is forwarded without
    /// a copy (see [`IntoPacket`]).
    pub fn send_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket) {
        self.commands.push(Command::SendUdp {
            from,
            to,
            data: data.into_packet(self.pool),
        });
    }

    /// Open a TCP (or emulated-TLS) connection; returns its id
    /// immediately. `Connected` is delivered after the handshake.
    pub fn tcp_connect(&mut self, from: SocketAddr, to: SocketAddr, tls: bool) -> ConnId {
        // The id is `(dialer lane << 32) | per-host dial counter`:
        // stable immediately, never reused, and independent of shard
        // placement (unlike a shared slab index).
        debug_assert!(self.lane < (1 << 32), "a dialer's lane fits in 32 bits");
        let id = ConnId((self.lane << 32) | *self.dials);
        *self.dials += 1;
        self.commands.push(Command::TcpConnect {
            conn: id,
            from,
            to,
            tls,
            from_host: self.host,
        });
        id
    }

    /// Send application data on a connection (queued until the
    /// connection is ready if the handshake is still in flight). Takes
    /// what [`Ctx::send_udp`] takes.
    pub fn tcp_send(&mut self, conn: ConnId, data: impl IntoPacket) {
        self.commands.push(Command::TcpSend {
            conn,
            data: data.into_packet(self.pool),
            sender: self.host,
        });
    }

    /// Close a connection from this side (this side enters TIME_WAIT).
    pub fn tcp_close(&mut self, conn: ConnId) {
        self.commands.push(Command::TcpClose {
            conn,
            closer: self.host,
        });
    }

    /// Override the idle timeout of a connection (typically the server
    /// on `Incoming`; `None` disables).
    pub fn tcp_set_idle_timeout(&mut self, conn: ConnId, timeout: Option<SimDuration>) {
        self.commands
            .push(Command::SetIdleTimeout { conn, timeout });
    }

    /// Arrange `on_timer(token)` on this host after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.commands.push(Command::SetTimer {
            host: self.host,
            delay,
            token,
        });
    }
}

/// Whose processing is currently attributing event keys.
#[derive(Debug, Clone, Copy)]
enum CurLane {
    /// Inside a host's dispatch/callback: local host index.
    Host(HostId),
    /// Outside any host (driver APIs between/before runs).
    Driver,
}

/// A UDP datagram crossing a shard boundary, carrying the explicit
/// `(time, lane, seq)` key assigned on the sending shard so the
/// receiving shard enqueues it at exactly the position the
/// single-shard run would have (see `ldp-shard`'s exchange).
#[derive(Debug, Clone)]
pub struct RemoteUdp {
    /// Arrival time (propagation + serialization + injected delay).
    pub at: SimTime,
    /// Lane component of the event key (the sender's lane).
    pub lane: u64,
    /// Seq component of the event key (the sender lane's counter).
    pub seq: u64,
    /// Source socket address.
    pub src: SocketAddr,
    /// Destination socket address.
    pub dst: SocketAddr,
    /// Shared payload buffer.
    pub data: PacketBytes,
}

/// The discrete-event network simulator.
pub struct Simulator {
    now: SimTime,
    /// The event queue, keyed by (time, lane, seq): `pop` yields
    /// events in time order with per-lane FIFO tie-breaking, and the
    /// ordering is fully deterministic — never hash- or
    /// heap-layout-dependent (rule D2). See [`crate::queue`].
    queue: EventQueue<Event>,
    hosts: Vec<Option<Box<dyn Host>>>,
    /// Address → owning host, read one address at a time (twice per
    /// datagram), so a hash table (`ldp_rng::table`) and not a tree.
    addr_map: KeyTable<IpAddr, HostId, ByAddr>,
    topology: Topology,
    config: SimConfig,
    /// Live connections keyed by raw [`ConnId`] — ids encode
    /// `(dialer lane, dial count)` so iteration order (e.g. during a
    /// crash) is shard-invariant.
    conns: BTreeMap<u64, Conn>,
    stats: Vec<HostStats>,
    /// Per-host global lanes (index = local `HostId`).
    lanes: Vec<u64>,
    /// Per-lane event-key seq counters (index = local `HostId`).
    seqs: Vec<u64>,
    /// Per-host dial counters (low half of dialed `ConnId`s).
    dials: Vec<u64>,
    /// Driver-lane seq counter.
    driver_seq: u64,
    /// Lane currently attributing keys (set per dispatch).
    current: CurLane,
    commands: Vec<Command>,
    /// Installed fault injector (None = no faults). Consulted once per
    /// packet in deterministic event order (see [`crate::fault`]).
    injector: Option<Box<dyn FaultInjector>>,
    /// Per-host crashed flag (indexed by `HostId`).
    down: Vec<bool>,
    /// Per-host crash generation; bumped on crash so timers armed
    /// before the crash are stale after a restart.
    epochs: Vec<u64>,
    /// Sharded-worker view: the global address→shard map. `None`
    /// means single-shard (plain) mode.
    shard_view: Option<BTreeMap<IpAddr, u32>>,
    /// Outbound cross-shard datagrams accumulated during a window
    /// (sharded-worker mode only); drained by the exchange.
    outbox: Vec<RemoteUdp>,
    /// This simulation's telemetry: off unless switched on
    /// ([`Simulator::set_recording`]); hosts record through [`Ctx`].
    rec: Recorder,
    /// Dispatches since the last batched counter event, per host and
    /// high-frequency kind: `[deliver, host_timer, conn_timer]` (see
    /// `DISPATCH_BATCH`); only advanced while recording.
    /// Batches are per-lane so the counter stream is shard-invariant.
    dispatch_pending: Vec<[u64; 3]>,
    /// The buffers every packet sent in this simulator lives in.
    pool: PacketPool,
}

/// Dispatches per recorded counter event for the high-frequency kinds
/// (`sim.deliver`, `sim.host_timer`, `sim.conn_timer`). Per-dispatch
/// marks for these would dominate the recording cost — together they
/// are nearly every event the simulator processes — so they are
/// batched: one event with `b = DISPATCH_BATCH` per batch (timelines
/// label these kinds `count`; `count_by_kind` sums `b`). The
/// rare, informative marks (TCP established/killed/refused, fault
/// drops) remain per-event. A partial tail batch is not flushed —
/// drained totals undercount by at most `DISPATCH_BATCH - 1` per kind.
const DISPATCH_BATCH: u64 = 64;

impl Simulator {
    /// New simulator over `topology` with protocol `config`.
    pub fn new(topology: Topology, config: SimConfig) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            hosts: Vec::new(),
            addr_map: KeyTable::new(),
            topology,
            config,
            conns: BTreeMap::new(),
            stats: Vec::new(),
            lanes: Vec::new(),
            seqs: Vec::new(),
            dials: Vec::new(),
            driver_seq: 0,
            current: CurLane::Driver,
            commands: Vec::new(),
            injector: None,
            down: Vec::new(),
            epochs: Vec::new(),
            shard_view: None,
            outbox: Vec::new(),
            rec: Recorder::from_default(),
            dispatch_pending: Vec::new(),
            pool: PacketPool::new(),
        }
    }

    /// Put this simulator into sharded-worker mode: `global` maps every
    /// address in the whole (multi-shard) simulation to its owning
    /// shard. UDP sends to
    /// addresses owned by other shards are diverted to the
    /// [`Simulator::take_outbox`] buffer instead of the local queue,
    /// carrying their already-assigned `(time, lane, seq)` key.
    pub fn set_shard_view(&mut self, global: BTreeMap<IpAddr, u32>) {
        self.shard_view = Some(global);
    }

    /// Install a fault injector consulted for every packet the
    /// simulator sends (UDP datagrams and TCP segments). Replaces any
    /// previous injector. Determinism holds as long as the injector's
    /// decisions depend only on its arguments and its own seeded state.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Whether the host owning `addr` is currently crashed.
    pub fn host_is_down(&self, addr: IpAddr) -> bool {
        self.addr_map
            .get(&addr)
            .map(|&h| self.down[h])
            .unwrap_or(false)
    }

    /// Register a host owning `addrs`. Panics if an address is taken.
    /// The host's lane is its registration index — identical to the
    /// global host id when every host lives in one simulator.
    #[allow(
        clippy::disallowed_methods,
        reason = "S2: one simulator's lanes are its host ids"
    )]
    pub fn add_host(&mut self, addrs: &[IpAddr], host: Box<dyn Host>) -> HostId {
        let lane = self.hosts.len() as u64;
        self.add_host_with_lane(addrs, host, lane)
    }

    /// Register a host under an explicit global `lane`. Only
    /// `ldp-shard` may call this (lint rule S2): a worker holds a subset
    /// of hosts, but lanes must stay the global host ids. Panics if an
    /// address is taken.
    pub fn add_host_with_lane(
        &mut self,
        addrs: &[IpAddr],
        host: Box<dyn Host>,
        lane: u64,
    ) -> HostId {
        let id = self.hosts.len();
        for addr in addrs {
            let prev = self.addr_map.insert(*addr, id);
            assert!(prev.is_none(), "address {addr} already registered");
        }
        self.hosts.push(Some(host));
        self.stats.push(HostStats::default());
        self.down.push(false);
        self.epochs.push(0);
        self.lanes.push(lane);
        self.seqs.push(0);
        self.dials.push(0);
        self.dispatch_pending.push([0; 3]);
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Switch this simulation's telemetry on or off (off by default).
    /// Recording observes and never changes event order.
    pub fn set_recording(&mut self, on: bool) {
        self.rec.set_on(on);
    }

    /// Take what this simulation recorded since the last drain.
    pub fn drain_recording(&mut self) -> Log {
        self.rec.drain()
    }

    /// Counters for a host.
    pub fn stats(&self, host: HostId) -> HostStats {
        self.stats[host]
    }

    /// The packet pool's free list and counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Mutable access to the topology: a test's mid-run RTT change.
    #[cfg(test)]
    pub(crate) fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Borrow a host back (e.g. to read results after the run).
    ///
    /// Panics if the id is invalid.
    pub fn host(&self, id: HostId) -> &dyn Host {
        self.hosts[id].as_deref().expect("host is checked in")
    }

    /// Mutable borrow of a host between events.
    pub fn host_mut(&mut self, id: HostId) -> &mut (dyn Host + '_) {
        self.hosts[id].as_deref_mut().expect("host is checked in")
    }

    /// Make room in the event queue for `additional` more events than
    /// it holds, so that scheduling them grows nothing.
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Schedule a host timer from outside any host, on the driver lane
    /// (between runs, the lane every key is attributed to).
    pub fn schedule_timer(&mut self, host: HostId, at: SimTime, token: u64) {
        let epoch = self.epochs[host];
        self.push_event(at, Event::HostTimer { host, token, epoch });
    }

    /// Schedule a crash or restart of the host owning `addr` at `at`, on
    /// the driver lane. The address is resolved when the event fires,
    /// so the host may be added later; an address no host owns makes it
    /// a no-op. Left out of event counts and telemetry, like every
    /// dispatch that belongs to no host's lane.
    pub fn schedule_host_fault(&mut self, at: SimTime, addr: IpAddr, fault: HostFault) {
        self.push_event(at, Event::HostFault { addr, fault });
    }

    /// Schedule a host timer under an explicit driver-lane `seq`. Only
    /// `ldp-shard` may call this (lint rule S2): its front-end owns the
    /// global driver counter and routes each timer to the shard holding
    /// the host.
    pub fn schedule_timer_keyed(&mut self, host: HostId, at: SimTime, token: u64, seq: u64) {
        let epoch = self.epochs[host];
        self.queue.push(
            at,
            DRIVER_LANE,
            seq,
            Event::HostTimer { host, token, epoch },
        );
    }

    /// [`Simulator::schedule_host_fault`] under an explicit driver-lane
    /// `seq`. Only `ldp-shard` may call this (lint rule S2), which
    /// queues the fault on every shard under the one global key.
    pub fn schedule_host_fault_keyed(
        &mut self,
        at: SimTime,
        addr: IpAddr,
        fault: HostFault,
        seq: u64,
    ) {
        self.queue
            .push(at, DRIVER_LANE, seq, Event::HostFault { addr, fault });
    }

    /// Inject a UDP datagram from outside (used by drivers), keyed on
    /// the driver lane.
    pub fn inject_udp(&mut self, from: SocketAddr, to: SocketAddr, data: impl IntoPacket) {
        let cmd = Command::SendUdp {
            from,
            to,
            data: data.into_packet(&self.pool),
        };
        self.apply_command(cmd);
    }

    /// Dispatch queued events in key order for as long as `within`
    /// admits the next one's time. Returns the number processed, host
    /// faults excluded: a sharded run queues each on every shard, so
    /// counting them would make its counts differ from the plain run's.
    /// The one loop under `run`, `run_until` and `run_window`, which
    /// differ only in the bound.
    fn drain(&mut self, within: impl Fn(SimTime) -> bool) -> u64 {
        let mut n = 0;
        while let Some((t, event)) = self.queue.pop_if(&within) {
            assert!(t >= self.now, "time went backwards");
            self.now = t;
            n += u64::from(!matches!(event, Event::HostFault { .. }));
            self.dispatch(event);
        }
        self.rec.hand_off();
        n
    }

    /// Run until the event queue drains or `deadline` passes. Returns
    /// the number of events processed (host faults excluded; see
    /// [`Simulator::schedule_host_fault`]).
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = self.drain(|t| t <= deadline);
        self.advance_now_to(deadline);
        n
    }

    /// Run until the queue drains completely.
    pub fn run(&mut self) -> u64 {
        self.drain(|_| true)
    }

    /// Process every event strictly before `end` (one conservative
    /// window of a sharded run). Returns the number processed, counted
    /// as in [`Simulator::run`]. Unlike `run_until`, `now` is left at
    /// the last dispatched event so in-window sends keep their exact
    /// timestamps.
    pub fn run_window(&mut self, end: SimTime) -> u64 {
        self.drain(|t| t < end)
    }

    /// The time of the earliest pending event, if any (what a shard
    /// posts to plan the next window).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Move the clock forward to `t` without processing anything (the
    /// tail of `run_until`, and the end of a bounded sharded run).
    pub fn advance_now_to(&mut self, t: SimTime) {
        if self.now < t {
            self.now = t;
        }
    }

    /// Drain the cross-shard datagrams accumulated since the last call
    /// (sharded-worker mode); the outbox keeps its room.
    pub fn take_outbox(&mut self) -> std::vec::Drain<'_, RemoteUdp> {
        self.outbox.drain(..)
    }

    /// Enqueue a datagram that crossed the shard boundary, under the
    /// explicit key assigned on the sending shard. The bytes are copied
    /// into this simulator's own pool, so the sender's buffer stays with
    /// the sender. Only `ldp-shard`'s exchange may call this (lint rule
    /// S1).
    pub fn enqueue_remote(&mut self, r: &RemoteUdp) {
        let data = self.pool.copy(&r.data);
        self.queue.push(
            r.at,
            r.lane,
            r.seq,
            Event::Deliver(Packet {
                src: r.src,
                dst: r.dst,
                payload: Payload::Udp(data),
            }),
        );
    }

    /// Swap this simulator's driver-lane key counter with the caller's.
    /// The `ldp-shard` front-end owns the *global* driver seq — there is
    /// exactly one in the whole simulation, as in a single-shard run —
    /// and lends it to whichever worker executes a driver-side action
    /// (`inject_udp`), then takes it back. This keeps
    /// driver-lane keys globally unique and in the single-shard order;
    /// no other crate may call it (rule S2, `clippy.toml`).
    pub fn swap_driver_seq(&mut self, seq: &mut u64) {
        std::mem::swap(&mut self.driver_seq, seq);
    }

    /// True if no events remain.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Consume the next `(lane, seq)` key component for the currently
    /// attributed lane.
    fn next_key(&mut self) -> (u64, u64) {
        match self.current {
            CurLane::Host(h) => {
                let seq = self.seqs[h];
                self.seqs[h] += 1;
                (self.lanes[h], seq)
            }
            CurLane::Driver => {
                let seq = self.driver_seq;
                self.driver_seq += 1;
                (DRIVER_LANE, seq)
            }
        }
    }

    fn push_event(&mut self, at: SimTime, event: Event) {
        let (lane, seq) = self.next_key();
        self.queue.push(at, lane, seq, event);
    }

    /// Advance the pending count for one high-frequency dispatch kind
    /// (`which`: 0 = deliver, 1 = host timer, 2 = conn timer) of one
    /// host's lane, and emit one counter event per full
    /// `DISPATCH_BATCH`. Batches are per-lane so the emitted counter
    /// stream is identical across shard counts.
    #[inline]
    fn batched_dispatch_counter(&mut self, t_ns: u64, host: HostId, which: usize) {
        self.dispatch_pending[host][which] += 1;
        if self.dispatch_pending[host][which] == DISPATCH_BATCH {
            self.dispatch_pending[host][which] = 0;
            let kind = [Kind::SimDeliver, Kind::SimHostTimer, Kind::SimConnTimer][which];
            self.rec.mark(t_ns, kind, self.lanes[host], DISPATCH_BATCH);
        }
    }

    /// The host whose lane owns this event's processing: the receiving
    /// endpoint for packets, the dialer for connection housekeeping,
    /// the timer's host. `None` (driver lane) when the target is
    /// already gone — those dispatches are side-effect-free.
    fn event_lane_host(&self, event: &Event) -> Option<HostId> {
        match event {
            Event::Deliver(pkt) => match &pkt.payload {
                Payload::Udp(_) => self.addr_map.get(&pkt.dst.ip()).copied(),
                Payload::Tcp { conn, .. } => self.conns.get(&conn.0).map(|c| c.host_at(pkt.dst)),
            },
            Event::HostTimer { host, .. } => Some(*host),
            Event::ConnTimer { conn, .. } | Event::KillConn { conn } => {
                self.conns.get(&conn.0).map(|c| c.client_host)
            }
            Event::ConnRefused { host, .. } => Some(*host),
            Event::HostFault { .. } => None,
        }
    }

    fn dispatch(&mut self, event: Event) {
        let lane_host = self.event_lane_host(&event);
        self.current = match lane_host {
            Some(h) => CurLane::Host(h),
            None => CurLane::Driver,
        };
        if self.rec.is_on() {
            let t = self.now.as_nanos();
            // Batched counters: see `DISPATCH_BATCH`. Lane-less
            // dispatches (target gone, host faults) are not counted —
            // they would make the counter stream depend on shard
            // placement.
            if let Some(h) = lane_host {
                match &event {
                    Event::Deliver(_) => self.batched_dispatch_counter(t, h, 0),
                    Event::HostTimer { .. } => self.batched_dispatch_counter(t, h, 1),
                    Event::ConnTimer { .. } => self.batched_dispatch_counter(t, h, 2),
                    // Kill/refused get richer marks at their sites.
                    Event::KillConn { .. }
                    | Event::ConnRefused { .. }
                    | Event::HostFault { .. } => {}
                }
            }
        }
        match event {
            Event::Deliver(pkt) => self.deliver(pkt, lane_host),
            Event::HostTimer { host, token, epoch } => {
                // A crashed host loses its timers; a timer armed before
                // the crash is stale forever (epoch mismatch).
                if !self.down[host] && self.epochs[host] == epoch {
                    self.with_host(host, |h, ctx| h.on_timer(ctx, token));
                }
            }
            Event::ConnTimer { conn, kind } => self.conn_timer(conn, kind),
            Event::KillConn { conn } => self.kill_conn(conn),
            Event::HostFault { addr, fault } => match fault {
                HostFault::Crash => self.crash(addr),
                HostFault::Restart => self.restart(addr),
            },
            Event::ConnRefused { conn, host, epoch } => {
                if !self.down[host] && self.epochs[host] == epoch {
                    let t = self.now.as_nanos();
                    self.rec
                        .mark(t, Kind::SimTcpRefused, conn.0, self.lanes[host]);
                    self.with_host(host, |h, ctx| {
                        h.on_tcp_event(ctx, TcpEvent::Closed { conn })
                    });
                }
            }
        }
        // Every dispatch ends on the driver lane: an injection, timer or
        // fault the driver issues between runs is keyed there, not on the
        // lane of whichever host's stale timer came last.
        self.current = CurLane::Driver;
    }

    /// Run a host callback with a command-collecting ctx, then apply.
    /// Keys produced by the callback (and by applying its commands) are
    /// attributed to the host's lane.
    fn with_host<F>(&mut self, host: HostId, f: F)
    where
        F: FnOnce(&mut dyn Host, &mut Ctx<'_>),
    {
        let prev = self.current;
        self.current = CurLane::Host(host);
        let mut boxed = self.hosts[host].take().expect("host re-entered");
        let mut commands = std::mem::take(&mut self.commands);
        {
            let mut ctx = Ctx {
                now: self.now,
                host,
                lane: self.lanes[host],
                dials: &mut self.dials[host],
                commands: &mut commands,
                pool: &self.pool,
                rec: &mut self.rec,
            };
            f(boxed.as_mut(), &mut ctx);
        }
        self.hosts[host] = Some(boxed);
        // Restore the scratch buffer and apply what the host queued.
        self.commands = Vec::new();
        for cmd in commands.drain(..) {
            self.apply_command(cmd);
        }
        self.commands = commands;
        self.current = prev;
    }

    fn apply_command(&mut self, cmd: Command) {
        match cmd {
            Command::SendUdp { from, to, data } => {
                let path = self.topology.path(from.ip(), to.ip());
                if path.loss > 0.0 {
                    let (seed, n) = (self.config.seed, data.len());
                    if packet_draw(seed, SITE_PATH_LOSS, self.now, from, to, n) < path.loss {
                        return; // dropped
                    }
                }
                let fate = match &mut self.injector {
                    Some(inj) => inj.fate(self.now, from, to, WireKind::Udp, data.len()),
                    None => crate::fault::PacketFate::DELIVER,
                };
                if fate.drop {
                    let t = self.now.as_nanos();
                    self.rec
                        .mark(t, Kind::SimFaultDropUdp, 0, data.len() as u64);
                    return; // injected loss / link down
                }
                if let Some(&h) = self.addr_map.get(&from.ip()) {
                    self.stats[h].udp_tx += 1;
                    self.stats[h].udp_tx_bytes += data.len() as u64;
                }
                let delay = path.one_way(data.len() + 28); // + IP/UDP headers
                let at = self.now + delay + fate.extra_delay;
                // Sharded-worker mode: a datagram to an address owned
                // by another shard leaves through the outbox with its
                // key, instead of the local queue. (An address in
                // nobody's map stays local and dies unroutable, exactly
                // as in the single-shard run.)
                let remote = match &self.shard_view {
                    Some(global) if !self.addr_map.contains_key(&to.ip()) => {
                        global.contains_key(&to.ip())
                    }
                    _ => false,
                };
                if remote {
                    if let Some(gap) = fate.duplicate {
                        let (lane, seq) = self.next_key();
                        self.outbox.push(RemoteUdp {
                            at: at + gap,
                            lane,
                            seq,
                            src: from,
                            dst: to,
                            data: data.clone(),
                        });
                    }
                    let (lane, seq) = self.next_key();
                    self.outbox.push(RemoteUdp {
                        at,
                        lane,
                        seq,
                        src: from,
                        dst: to,
                        data,
                    });
                    return;
                }
                if let Some(gap) = fate.duplicate {
                    self.push_event(
                        at + gap,
                        Event::Deliver(Packet {
                            src: from,
                            dst: to,
                            payload: Payload::Udp(data.clone()),
                        }),
                    );
                }
                self.push_event(
                    at,
                    Event::Deliver(Packet {
                        src: from,
                        dst: to,
                        payload: Payload::Udp(data),
                    }),
                );
            }
            Command::TcpConnect {
                conn,
                from,
                to,
                tls,
                from_host,
            } => {
                let listener = self.addr_map.get(&to.ip()).copied();
                if listener.is_none() {
                    if let Some(global) = &self.shard_view {
                        // The conservative exchange only carries UDP:
                        // TCP's bidirectional segment FIFO would need
                        // cross-shard state. Both endpoints of a dial
                        // must be co-located (ShardPlan::pin).
                        assert!(
                            !global.contains_key(&to.ip()),
                            "cross-shard TCP is unsupported: dial from {from} to {to} \
                             crosses a shard boundary; pin both hosts to one shard"
                        );
                    }
                }
                let server_host = match listener {
                    Some(h) if !self.down[h] => h,
                    // No listener at that address, or a crashed one: the
                    // dial fails. Surface it to the dialer one RTT later
                    // (SYN out, refusal back) instead of leaving the
                    // connection half-open and the client waiting
                    // forever.
                    _ => {
                        let path = self.topology.path(from.ip(), to.ip());
                        let at = self.now + path.one_way(40) + path.one_way(40);
                        let epoch = self.epochs[from_host];
                        self.push_event(
                            at,
                            Event::ConnRefused {
                                conn,
                                host: from_host,
                                epoch,
                            },
                        );
                        return;
                    }
                };
                self.conns.insert(
                    conn.0,
                    Conn {
                        client: from,
                        server: to,
                        client_host: from_host,
                        server_host,
                        tls,
                        nagle: self.config.default_nagle,
                        state: ConnState::Connecting,
                        closer: None,
                        pending_close: None,
                        last_activity: self.now,
                        idle_timeout: self.config.default_idle_timeout,
                        dirs: [DirState::default(), DirState::default()],
                        fifo_free: [SimTime::ZERO, SimTime::ZERO],
                        side_closed: [false, false],
                        side_established: [false, false],
                    },
                );
                self.send_segment(conn, from, to, SegKind::Syn);
            }
            Command::TcpSend { conn, data, sender } => {
                self.tcp_send_internal(conn, data, sender);
            }
            Command::TcpClose { conn, closer } => {
                self.tcp_close_internal(conn, closer);
            }
            Command::SetIdleTimeout { conn, timeout } => {
                if let Some(c) = self.conns.get_mut(&conn.0) {
                    c.idle_timeout = timeout;
                    if let Some(t) = timeout {
                        let at = self.now + t;
                        self.push_event(
                            at,
                            Event::ConnTimer {
                                conn,
                                kind: ConnTimer::IdleCheck,
                            },
                        );
                    }
                }
            }
            Command::SetTimer { host, delay, token } => {
                let at = self.now + delay;
                let epoch = self.epochs[host];
                self.push_event(at, Event::HostTimer { host, token, epoch });
            }
        }
    }

    /// Emit one TCP segment between connection endpoints. Arrival is
    /// clamped to the connection's per-direction FIFO horizon: TCP
    /// delivers in order, so a fast-serializing segment (an ACK or FIN)
    /// queued behind a large data segment arrives after it, never
    /// before.
    fn send_segment(&mut self, conn: ConnId, from: SocketAddr, to: SocketAddr, kind: SegKind) {
        let path = self.topology.path(from.ip(), to.ip());
        let size = 40
            + match &kind {
                SegKind::Data { bytes } => bytes.len(),
                _ => 0,
            };
        let fate = match &mut self.injector {
            Some(inj) => inj.fate(self.now, from, to, WireKind::Tcp, size - 40),
            None => crate::fault::PacketFate::DELIVER,
        };
        if fate.drop {
            let t = self.now.as_nanos();
            self.rec
                .mark(t, Kind::SimFaultDropSegment, conn.0, size as u64);
            // This TCP model has no retransmission, so a dropped segment
            // is fatal to the connection (the stack would hit its retry
            // limit). The kill is deferred to its own event: callers may
            // still hold expectations about this conn's state within the
            // current dispatch.
            self.push_event(self.now, Event::KillConn { conn });
            return;
        }
        let mut at = self.now + path.one_way(size) + fate.extra_delay;
        if let Some(c) = self.conns.get_mut(&conn.0) {
            let dir = c.dir_from(from);
            if at < c.fifo_free[dir] {
                at = c.fifo_free[dir];
            }
            c.fifo_free[dir] = at;
        }
        self.push_event(
            at,
            Event::Deliver(Packet {
                src: from,
                dst: to,
                payload: Payload::Tcp { conn, kind },
            }),
        );
    }

    /// `lane_host` is [`Self::event_lane_host`] of this delivery: for a
    /// datagram, the owner of its destination address.
    fn deliver(&mut self, pkt: Packet, lane_host: Option<HostId>) {
        match pkt.payload {
            Payload::Udp(data) => {
                let Some(host) = lane_host else {
                    return; // unroutable: dropped (the paper's TUN capture
                            // exists precisely because such packets die)
                };
                if self.down[host] {
                    return; // crashed host: inbound packets die on the floor
                }
                self.stats[host].udp_rx += 1;
                self.stats[host].udp_rx_bytes += data.len() as u64;
                let (src, dst) = (pkt.src, pkt.dst);
                self.with_host(host, |h, ctx| h.on_udp(ctx, src, dst, data));
            }
            Payload::Tcp { conn, kind } => self.deliver_segment(conn, pkt.src, pkt.dst, kind),
        }
    }

    fn deliver_segment(
        &mut self,
        conn_id: ConnId,
        src: SocketAddr,
        dst: SocketAddr,
        kind: SegKind,
    ) {
        let Some(conn) = self.conns.get_mut(&conn_id.0) else {
            return; // connection already gone (e.g. late segment)
        };
        conn.last_activity = self.now;
        match kind {
            SegKind::Syn => {
                // Server side: reply SYN-ACK.
                self.send_segment(conn_id, dst, src, SegKind::SynAck);
            }
            SegKind::SynAck => {
                // Client side: complete TCP handshake.
                self.send_segment(conn_id, dst, src, SegKind::AckOfSyn);
                let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
                if conn.tls {
                    conn.state = ConnState::TlsHandshake;
                    let (c, s) = (conn.client, conn.server);
                    self.send_segment(conn_id, c, s, SegKind::TlsClientHello);
                } else {
                    self.establish(conn_id, true);
                }
            }
            SegKind::AckOfSyn => {
                // Server: plain TCP is now established server-side.
                let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
                if !conn.tls {
                    self.establish(conn_id, false);
                }
            }
            SegKind::TlsClientHello => {
                self.send_segment(conn_id, dst, src, SegKind::TlsServerHello);
            }
            SegKind::TlsServerHello => {
                self.send_segment(conn_id, dst, src, SegKind::TlsClientFinished);
            }
            SegKind::TlsClientFinished => {
                self.send_segment(conn_id, dst, src, SegKind::TlsServerFinished);
                // Server side established once it sends Finished.
                self.establish(conn_id, false);
            }
            SegKind::TlsServerFinished => {
                self.establish(conn_id, true);
            }
            SegKind::Data { bytes } => {
                let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
                let dir = conn.dir_from(src);
                let host = conn.host_at(dst);
                let tls = conn.tls;
                // Receiver owes an ACK; schedule a delayed ACK unless
                // one is already pending (ACK may be piggybacked onto
                // response data before the timer fires).
                let need_ack_timer = if !conn.dirs[dir].ack_owed {
                    conn.dirs[dir].ack_owed = true;
                    true
                } else {
                    false
                };
                if need_ack_timer {
                    let at = self.now + DELAYED_ACK;
                    self.push_event(
                        at,
                        Event::ConnTimer {
                            conn: conn_id,
                            kind: ConnTimer::DelayedAck { dir },
                        },
                    );
                }
                self.stats[host].tcp_rx += u64::from(!tls);
                self.stats[host].tls_rx += u64::from(tls);
                self.with_host(host, |h, ctx| {
                    h.on_tcp_event(
                        ctx,
                        TcpEvent::Data {
                            conn: conn_id,
                            data: bytes,
                        },
                    )
                });
            }
            SegKind::Ack => {
                let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
                // ACK for data sent *by the receiver of this segment's
                // direction*: data flowing src→dst was acked by dst...
                // here, `src` acks data that `dst`... — direction of the
                // acked data is the one *towards* the ACK sender.
                let dir = 1 - conn.dir_from(src);
                conn.dirs[dir].unacked = 0;
                self.flush_pending(conn_id, dir);
            }
            SegKind::Fin => {
                // Passive close: reply FIN-ACK, deliver Closed. The
                // passive closer does not enter TIME_WAIT.
                self.send_segment(conn_id, dst, src, SegKind::FinAck);
                let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
                conn.state = ConnState::Closed;
                let side = usize::from(dst == conn.server);
                if !conn.side_closed[side] {
                    conn.side_closed[side] = true;
                    let host = conn.host_at(dst);
                    self.stats[host].established = self.stats[host].established.saturating_sub(1);
                    self.with_host(host, |h, ctx| {
                        h.on_tcp_event(ctx, TcpEvent::Closed { conn: conn_id })
                    });
                }
            }
            SegKind::FinAck => {
                // Active closer: enter TIME_WAIT for 2·MSL.
                let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
                let side = usize::from(dst == conn.server);
                if !conn.side_closed[side] {
                    conn.side_closed[side] = true;
                    conn.state = ConnState::Closed;
                    let host = conn.host_at(dst);
                    self.stats[host].established = self.stats[host].established.saturating_sub(1);
                    self.stats[host].time_wait += 1;
                    let at = self.now + self.config.time_wait;
                    self.push_event(
                        at,
                        Event::ConnTimer {
                            conn: conn_id,
                            kind: ConnTimer::TimeWaitDone,
                        },
                    );
                    self.with_host(host, |h, ctx| {
                        h.on_tcp_event(ctx, TcpEvent::Closed { conn: conn_id })
                    });
                }
            }
        }
    }

    /// Mark the connection established on one side and deliver the
    /// corresponding event; also arm the idle timer on the server side.
    fn establish(&mut self, conn_id: ConnId, client_side: bool) {
        let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
        // A close can race the tail of the handshake (the app closed
        // while the final ACK was in flight): never resurrect it.
        if matches!(conn.state, ConnState::Closing | ConnState::Closed) {
            return;
        }
        if conn.side_closed[usize::from(!client_side)] {
            return;
        }
        conn.state = ConnState::Established;
        conn.side_established[usize::from(!client_side)] = true;
        let (host, peer, local, tls) = if client_side {
            (conn.client_host, conn.server, conn.client, conn.tls)
        } else {
            (conn.server_host, conn.client, conn.server, conn.tls)
        };
        self.stats[host].established += 1;
        let t = self.now.as_nanos();
        self.rec.mark(
            t,
            Kind::SimTcpEstablished,
            conn_id.0,
            u64::from(client_side),
        );
        if !client_side {
            self.stats[host].tcp_accepts += u64::from(!tls);
            self.stats[host].tls_accepts += u64::from(tls);
            if let Some(t) = self.conns.get(&conn_id.0).and_then(|c| c.idle_timeout) {
                let at = self.now + t;
                self.push_event(
                    at,
                    Event::ConnTimer {
                        conn: conn_id,
                        kind: ConnTimer::IdleCheck,
                    },
                );
            }
        }
        // Data the client queued while the handshake was in flight goes
        // out before the Connected event (it was written first).
        if client_side {
            self.flush_pending(conn_id, 0);
        }
        let event = if client_side {
            TcpEvent::Connected { conn: conn_id }
        } else {
            TcpEvent::Incoming {
                conn: conn_id,
                peer,
                local,
                tls,
            }
        };
        self.with_host(host, |h, ctx| h.on_tcp_event(ctx, event));
        // A close requested while the handshake was in flight happens
        // now, after the queued writes above went out.
        let deferred = {
            let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
            if conn.pending_close == Some(host) {
                conn.pending_close.take()
            } else {
                None
            }
        };
        if let Some(closer) = deferred {
            self.tcp_close_internal(conn_id, closer);
        }
    }

    fn tcp_send_internal(&mut self, conn_id: ConnId, data: PacketBytes, sender: HostId) {
        let Some(conn) = self.conns.get_mut(&conn_id.0) else {
            return;
        };
        if conn.state == ConnState::Closed
            || conn.state == ConnState::Closing
            || conn.pending_close.is_some()
        {
            return;
        }
        let src = if sender == conn.client_host && sender == conn.server_host {
            // Loopback host talking to itself: infer by unmatched state;
            // treat as client.
            conn.client
        } else if sender == conn.client_host {
            conn.client
        } else {
            conn.server
        };
        let dir = conn.dir_from(src);
        let established = matches!(conn.state, ConnState::Established);
        let must_buffer = !established || (conn.nagle && conn.dirs[dir].unacked > 0);
        if must_buffer {
            conn.dirs[dir].pending.push(data);
            return;
        }
        self.transmit_data(conn_id, dir, data);
    }

    /// Send one data message, consuming any owed ACK (piggyback).
    fn transmit_data(&mut self, conn_id: ConnId, dir: usize, data: PacketBytes) {
        let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
        let (src, dst) = if dir == 0 {
            (conn.client, conn.server)
        } else {
            (conn.server, conn.client)
        };
        conn.dirs[dir].unacked += data.len();
        // Data implies an ACK of the opposite direction (piggyback).
        let opposite = 1 - dir;
        let acked = conn.dirs[opposite].ack_owed;
        if acked {
            conn.dirs[opposite].ack_owed = false;
            conn.dirs[opposite].unacked = 0;
        }
        let host = conn.host_at(src);
        let tls = conn.tls;
        self.stats[host].tcp_tx += u64::from(!tls);
        self.stats[host].tls_tx += u64::from(tls);
        if tls {
            self.stats[host].tls_tx_bytes += data.len() as u64;
        } else {
            self.stats[host].tcp_tx_bytes += data.len() as u64;
        }
        self.send_segment(conn_id, src, dst, SegKind::Data { bytes: data });
        if acked {
            // Piggybacked ACK unblocks the peer's Nagle buffer when the
            // data arrives; emulate by flushing on delivery of the ACK:
            // the Data segment above carries it, so flush at the peer
            // happens when that segment is delivered. To keep the model
            // simple, flush the opposite direction now (the timing
            // difference is one in-flight serialization).
            self.flush_pending(conn_id, opposite);
        }
    }

    /// Flush the Nagle buffer of a direction, coalescing all pending
    /// writes into one segment (the "many replies reassembled into a
    /// large TCP message" effect the paper observed) in a pooled buffer.
    /// A single pending write is forwarded as-is, without a copy.
    fn flush_pending(&mut self, conn_id: ConnId, dir: usize) {
        let Some(conn) = self.conns.get_mut(&conn_id.0) else {
            return;
        };
        if !matches!(conn.state, ConnState::Established) {
            return;
        }
        let pending = &mut conn.dirs[dir].pending;
        let coalesced = match pending.len() {
            0 => return,
            1 => pending.pop().expect("len checked"),
            _ => {
                let buf = self.pool.concat(pending);
                pending.clear();
                buf
            }
        };
        self.transmit_data(conn_id, dir, coalesced);
    }

    fn tcp_close_internal(&mut self, conn_id: ConnId, closer: HostId) {
        let Some(conn) = self.conns.get_mut(&conn_id.0) else {
            return;
        };
        if matches!(conn.state, ConnState::Closing | ConnState::Closed)
            || conn.pending_close.is_some()
        {
            return;
        }
        if !matches!(conn.state, ConnState::Established) {
            // Handshake still in flight: defer the close until the
            // connection establishes, so writes queued before the close
            // are delivered first (graceful-close semantics).
            conn.pending_close = Some(closer);
            return;
        }
        let (from, to) = if closer == conn.server_host && conn.client_host != conn.server_host {
            (conn.server, conn.client)
        } else {
            (conn.client, conn.server)
        };
        // Flush buffered writes before the FIN: close never discards
        // the send buffer, and the FIFO clamp in `send_segment` keeps
        // the FIN behind the flushed data on the wire.
        let dir = conn.dir_from(from);
        self.flush_pending(conn_id, dir);
        let conn = self.conns.get_mut(&conn_id.0).expect("conn exists");
        conn.state = ConnState::Closing;
        conn.closer = Some(closer);
        self.send_segment(conn_id, from, to, SegKind::Fin);
    }

    fn conn_timer(&mut self, conn_id: ConnId, kind: ConnTimer) {
        match kind {
            ConnTimer::IdleCheck => {
                let Some(conn) = self.conns.get(&conn_id.0) else {
                    return;
                };
                let Some(timeout) = conn.idle_timeout else {
                    return;
                };
                if matches!(conn.state, ConnState::Closing | ConnState::Closed)
                    || conn.pending_close.is_some()
                {
                    return;
                }
                let idle = self.now.saturating_sub(conn.last_activity);
                if idle >= timeout {
                    // Idle too long — in whatever phase: an established
                    // connection idle-closes, and a handshake stalled
                    // past the timeout is torn down rather than left to
                    // re-arm forever.
                    let server = conn.server_host;
                    self.tcp_close_internal(conn_id, server);
                } else {
                    // Re-arm relative to the most recent activity. This
                    // also covers Connecting/TlsHandshake: a timeout
                    // armed before establishment used to be dropped
                    // here, silently disabling the idle timeout.
                    let at = conn.last_activity + timeout;
                    self.push_event(
                        at,
                        Event::ConnTimer {
                            conn: conn_id,
                            kind,
                        },
                    );
                }
            }
            ConnTimer::TimeWaitDone => {
                if let Some(conn) = self.conns.remove(&conn_id.0) {
                    let host = conn.closer.unwrap_or(conn.server_host);
                    self.stats[host].time_wait = self.stats[host].time_wait.saturating_sub(1);
                }
            }
            ConnTimer::DelayedAck { dir } => {
                let Some(conn) = self.conns.get_mut(&conn_id.0) else {
                    return;
                };
                if !conn.dirs[dir].ack_owed {
                    return;
                }
                conn.dirs[dir].ack_owed = false;
                // The ACK travels from the data receiver back to the
                // sender: data flowed in `dir`, so the ACK goes opposite.
                let (from, to) = if dir == 0 {
                    (conn.server, conn.client)
                } else {
                    (conn.client, conn.server)
                };
                self.send_segment(conn_id, from, to, SegKind::Ack);
            }
        }
    }

    /// Abortively kill a connection: remove it, undo its stats
    /// contributions, and deliver `Closed` to every side that has not
    /// already seen it (skipping crashed hosts — they get nothing).
    /// No TIME_WAIT: this models a reset/crash, not a graceful close.
    fn kill_conn(&mut self, conn_id: ConnId) {
        let Some(conn) = self.conns.remove(&conn_id.0) else {
            return; // already gone (duplicate kill, late event)
        };
        let t = self.now.as_nanos();
        self.rec.mark(t, Kind::SimTcpKilled, conn_id.0, 0);
        // If the active closer already entered TIME_WAIT, its pending
        // TimeWaitDone event will find the conn gone and never decrement
        // the counter — do it here.
        if let Some(closer) = conn.closer {
            let closer_side =
                usize::from(closer == conn.server_host && conn.client_host != conn.server_host);
            if conn.state == ConnState::Closed && conn.side_closed[closer_side] {
                self.stats[closer].time_wait = self.stats[closer].time_wait.saturating_sub(1);
            }
        }
        let sides = [conn.client_host, conn.server_host];
        for (side, &host) in sides.iter().enumerate() {
            if conn.side_closed[side] {
                continue;
            }
            if conn.side_established[side] {
                self.stats[host].established = self.stats[host].established.saturating_sub(1);
            }
            if self.down[host] {
                continue; // a crashed host hears nothing
            }
            self.with_host(host, |h, ctx| {
                h.on_tcp_event(ctx, TcpEvent::Closed { conn: conn_id })
            });
        }
    }

    /// [`HostFault::Crash`] of the host owning `addr`.
    fn crash(&mut self, addr: IpAddr) {
        let Some(&id) = self.addr_map.get(&addr) else {
            return;
        };
        if self.down[id] {
            return;
        }
        self.down[id] = true;
        // Invalidate every timer armed before the crash: they must not
        // fire after a restart.
        self.epochs[id] += 1;
        // The host learns it crashed with no Ctx — a dead host cannot
        // act on the world; it drops its in-memory state here.
        if let Some(h) = self.hosts[id].as_deref_mut() {
            h.on_crash();
        }
        // Kill every connection the host participates in. The map is
        // keyed by ConnId = (dialer lane, dial count), so the kill
        // order is reproducible (rule D2) and shard-invariant.
        let doomed: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| c.client_host == id || c.server_host == id)
            .map(|(&cid, _)| ConnId(cid))
            .collect();
        for cid in doomed {
            self.kill_conn(cid);
        }
    }

    /// [`HostFault::Restart`] of the host owning `addr`.
    fn restart(&mut self, addr: IpAddr) {
        let Some(&id) = self.addr_map.get(&addr) else {
            return;
        };
        if !self.down[id] {
            return;
        }
        self.down[id] = false;
        self.with_host(id, |h, ctx| h.on_restart(ctx));
    }
}
