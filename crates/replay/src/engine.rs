//! The distributed query engine over real sockets (paper §2.6 and §3,
//! Figure 4): a Controller (Reader + Postman) feeds Distributors over
//! bounded channels (the pre-load window), which feed Queriers; each
//! querier owns the emulated sockets of the original sources assigned
//! to it and sends queries at their trace deadlines.
//!
//! In-process threads play the roles the paper implements as processes;
//! the channel topology, sticky source routing, timing algebra and
//! per-source socket ownership are the same. Queriers share nothing but
//! the clock: each keeps its own log of what it sent and shed and hands
//! it back when it is joined, and the report is built from those logs.
//! Delivery is at most once. A query is not sent again when its socket
//! fails or its querier dies; the report counts it as an error.

// Hot path: a socket that fails costs its query, never the run (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::hash_map::{Entry, HashMap};
use std::io::{ErrorKind, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::mpsc::{sync_channel as bounded, Receiver, SyncSender as Sender};
use std::sync::Arc;
use std::time::Duration;

use dns_wire::framing::frame_into;
use dns_wire::{EncodeScratch, Transport};
use ldp_guard::{RetransmitConfig, MAX_LATENESS_US};
use ldp_trace::TraceEntry;

use crate::clock::{ReplayClock, WallClock};
use crate::sticky::StickyRouter;
use crate::timing::TimingTracker;

/// Replay configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Number of distributor threads ("client instances").
    pub distributors: usize,
    /// Queriers per distributor.
    pub queriers_per_distributor: usize,
    /// Where to send every query (UDP and TCP reach the same host).
    pub target_udp: SocketAddr,
    /// TCP target (may differ in port).
    pub target_tcp: SocketAddr,
    /// Replay speed factor (1.0 = real time).
    pub speed: f64,
    /// Fast mode: no timers, send as fast as possible (paper §4.3).
    pub fast_mode: bool,
    /// Warm-up offset before the first query is due.
    pub warmup: Duration,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        let loopback = SocketAddr::from(([127, 0, 0, 1], 53));
        ReplayConfig {
            distributors: 2,
            queriers_per_distributor: 3,
            target_udp: loopback,
            target_tcp: loopback,
            speed: 1.0,
            fast_mode: false,
            warmup: Duration::from_millis(50),
        }
    }
}

/// Capacity of every bounded channel in the tree: the Reader's
/// pre-load window.
const CHANNEL_CAPACITY: usize = 4096;

/// One query handed down the distribution tree: pre-encoded, so the
/// querier's work at the deadline is just a socket write.
#[derive(Debug)]
struct QueryJob {
    seq: u64,
    trace_us: u64,
    source: IpAddr,
    transport: Transport,
    payload: Box<[u8]>,
}

/// What a querier recorded about one sent query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentRecord {
    /// Sequence number in the input trace.
    pub seq: u64,
    /// The query's trace timestamp (µs).
    pub trace_us: u64,
    /// When it was actually sent, µs since the replay origin.
    pub sent_us: u64,
    /// Which querier sent it.
    pub querier: usize,
    /// Transport used.
    pub transport: Transport,
}

/// The outcome of a replay run. Every query of the trace is sent, shed
/// or an error, exactly one of the three:
/// `sent.len() + shed.len() + errors` is the trace's length.
#[derive(Debug)]
pub struct ReplayReport {
    /// Per-query send records, querier by querier, each querier's in
    /// send order (sort by `seq` or `sent_us` as needed).
    pub sent: Vec<SentRecord>,
    /// Queries neither sent nor shed: a socket that could not be
    /// opened or written, or a querier that died.
    pub errors: u64,
    /// Distinct original sources seen by the controller.
    pub distinct_sources: usize,
    /// Wall-clock duration of the replay.
    pub elapsed: Duration,
    /// Trace seqs dropped by deadline-aware shedding, ascending.
    pub shed: Vec<u64>,
    /// Querier slots whose thread died mid-run (its join failed),
    /// ascending. Everything routed to such a slot counts as an error.
    pub dead_queriers: Vec<usize>,
}

impl ReplayReport {
    /// Send-time error (sent − intended) in microseconds for every
    /// query, the quantity behind the paper's Figure 6.
    pub fn timing_errors_us(&self, trace_start_us: u64, speed: f64) -> Vec<f64> {
        self.sent
            .iter()
            .map(|r| {
                let intended = (r.trace_us.saturating_sub(trace_start_us)) as f64 / speed;
                r.sent_us as f64 - intended
            })
            .collect()
    }
}

/// Run a replay of `trace` per `config` against the wall clock. Blocks
/// until every query has been sent and all threads joined.
pub fn replay(trace: &[TraceEntry], config: &ReplayConfig) -> ReplayReport {
    replay_with_clock(trace, config, Arc::new(WallClock::start()))
}

/// Run a replay against an explicit [`ReplayClock`]: the wall clock for
/// live runs ([`replay`]), or a test clock such as
/// [`crate::VirtualClock`], on which every send instant is exact.
/// Simulator-mode replay is [`crate::SimReplayClient`] on netsim, not
/// this engine. The clock's origin is the start of the run; the first
/// query is due at `config.warmup` past it.
pub fn replay_with_clock(
    trace: &[TraceEntry],
    config: &ReplayConfig,
    clock: Arc<dyn ReplayClock>,
) -> ReplayReport {
    assert!(!trace.is_empty(), "cannot replay an empty trace");
    let tracker = TimingTracker::start(trace[0].time_us, config.warmup.as_micros() as u64)
        .with_speed(config.speed);

    // The tree: each distributor owns the sending ends of its queriers'
    // channels, so its return closes them and ends those queriers.
    let n_d = config.distributors.max(1);
    let n_q = config.queriers_per_distributor.max(1);
    let mut queriers = Vec::with_capacity(n_d * n_q);
    let mut distributors = Vec::with_capacity(n_d);
    let mut dist_txs: Vec<Sender<QueryJob>> = Vec::with_capacity(n_d);
    for _ in 0..n_d {
        let mut txs = Vec::with_capacity(n_q);
        for _ in 0..n_q {
            let (tx, rx) = bounded(CHANNEL_CAPACITY);
            let slot = queriers.len();
            let (cfg, clock) = (*config, clock.clone());
            queriers.push(std::thread::spawn(move || {
                querier_loop(slot, &rx, &cfg, tracker, &*clock)
            }));
            txs.push(tx);
        }
        let (tx, rx) = bounded(CHANNEL_CAPACITY);
        distributors.push(std::thread::spawn(move || distribute(&rx, &txs)));
        dist_txs.push(tx);
    }

    // Controller: Reader (pre-encode) + Postman (sticky distribution).
    let mut controller_router = StickyRouter::new(n_d);
    // One scratch for the whole pre-encode pass: the output buffer and
    // the compression table keep their capacity across every entry, so
    // the only per-query allocation is the payload itself.
    let mut scratch = EncodeScratch::new();
    for (seq, entry) in trace.iter().enumerate() {
        let d = controller_router.route(entry.src.ip());
        let job = QueryJob {
            seq: seq as u64,
            trace_us: entry.time_us,
            source: entry.src.ip(),
            transport: entry.transport,
            payload: entry.message.encode_into(&mut scratch).into(),
        };
        let _ = dist_txs[d].send(job);
    }
    let distinct_sources = controller_router.sources();
    drop(dist_txs);

    for d in distributors {
        let _ = d.join();
    }
    let (mut sent, mut shed, mut dead_queriers) = (Vec::new(), Vec::new(), Vec::new());
    for (slot, q) in queriers.into_iter().enumerate() {
        match q.join() {
            Ok(log) => {
                sent.extend(log.sent);
                shed.extend(log.shed);
            }
            Err(_) => dead_queriers.push(slot),
        }
    }
    shed.sort_unstable();
    ReplayReport {
        errors: (trace.len() - sent.len() - shed.len()) as u64,
        sent,
        distinct_sources,
        elapsed: Duration::from_micros(clock.now_us()),
        shed,
        dead_queriers,
    }
}

/// One distributor: sticky-route each job from the controller to the
/// querier that owns its source. A job for a querier that died is
/// dropped, as the controller drops one for a distributor that died.
fn distribute(rx: &Receiver<QueryJob>, txs: &[Sender<QueryJob>]) {
    let mut router = StickyRouter::new(txs.len());
    for job in rx.iter() {
        let _ = txs[router.route(job.source)].send(job);
    }
}

/// How a non-blocking framed send ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendOutcome {
    /// Whole frame written.
    Sent,
    /// The socket buffer stayed full for the whole retry budget and
    /// *nothing* was written: the stream is still frame-aligned, so the
    /// connection stays usable; only this query is dropped.
    Stalled,
    /// Real I/O error, EOF, or a stall after a partial write (which
    /// desyncs the length-framed stream): the connection is unusable.
    Dead,
}

/// Write budget before a `WouldBlock` send gives up: spin-yields first,
/// then short sleeps. Counted in iterations, never wall-clock reads —
/// the engine must work under a virtual clock (rule D1).
const STALL_YIELDS: u32 = 32;
const STALL_LIMIT: u32 = 512;

/// The querier's TCP reconnect policy: backoff sleeps before it gives
/// up (`max_retx`; connect attempts are one more: an eager dial, then
/// one per sleep), and the base and cap of the jittered backoff (µs).
const RECONNECT: RetransmitConfig = RetransmitConfig {
    max_retx: 3,
    base_us: 200,
    cap_us: 5_000,
};
/// Seed of the reconnect jitter; each querier adds its slot.
const RECONNECT_JITTER_SEED: u64 = 0x6a2d_5eed;

/// Dial `target` under the querier's reconnect chain: `policy`, `seed`
/// and `attempts`, the backoff sleeps spent. A dead TCP path (server
/// restarting, listen queue overflowing under load) often heals within
/// a millisecond; giving up on the first refused connect drops every
/// queued query for that source. But the count is kept across the
/// querier's whole run, so a target that is *permanently* down costs at
/// most `policy.max_retx` backoff sleeps total — after that each call
/// makes one eager probe and returns `None` immediately instead of
/// re-spinning the backoff for every queued job. A successful connect
/// resets the count (the path healed). The stream it returns is
/// non-blocking, so draining replies never waits.
#[allow(clippy::disallowed_methods, reason = "T2: the backoff is the wait")]
fn reconnect_with_backoff(
    target: SocketAddr,
    policy: &RetransmitConfig,
    seed: u64,
    attempts: &mut u32,
) -> Option<TcpStream> {
    loop {
        // Loop bound: `attempts` (lint R1) — `delay_us` returns `None`
        // from `max_retx` on.
        let dialed = TcpStream::connect(target).and_then(|s| s.set_nonblocking(true).map(|()| s));
        if let Ok(s) = dialed {
            s.set_nodelay(true).ok();
            *attempts = 0;
            return Some(s);
        }
        let delay_us = policy.delay_us(seed, *attempts)?;
        *attempts += 1;
        std::thread::sleep(Duration::from_micros(delay_us));
    }
}

/// Write one length-framed message to a (possibly non-blocking) stream.
///
/// `WouldBlock` is backpressure, not death: the querier used to treat
/// it like a broken pipe and reconnect, tearing down a healthy
/// connection under load. Here it retries the *remaining* bytes with a
/// bounded yield/sleep backoff and only reports [`SendOutcome::Dead`]
/// on genuine errors or a desynced partial write.
fn send_framed<W: std::io::Write>(w: &mut W, framed: &[u8]) -> SendOutcome {
    let mut written = 0usize;
    let mut stalls = 0u32;
    while written < framed.len() {
        match w.write(&framed[written..]) {
            Ok(0) => return SendOutcome::Dead,
            Ok(n) => {
                written += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                stalls += 1;
                if stalls > STALL_LIMIT {
                    return if written == 0 {
                        SendOutcome::Stalled
                    } else {
                        SendOutcome::Dead
                    };
                }
                if stalls <= STALL_YIELDS {
                    std::thread::yield_now();
                } else {
                    #[allow(clippy::disallowed_methods, reason = "T2: a full buffer has no event")]
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            Err(_) => return SendOutcome::Dead,
        }
    }
    SendOutcome::Sent
}

/// Read and discard what the server sent back on `s`, then write
/// `framed`. End of stream means the server has closed the connection:
/// a write into it would still succeed and the query would be lost, so
/// the connection is reported dead instead.
fn drain_then_send(s: &mut TcpStream, framed: &[u8], scrap: &mut [u8]) -> SendOutcome {
    loop {
        match s.read(scrap) {
            Ok(0) => return SendOutcome::Dead,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return send_framed(s, framed),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return SendOutcome::Dead,
        }
    }
}

/// What one querier did with the jobs routed to it, handed back when
/// its thread is joined.
#[derive(Debug, Default)]
struct QuerierLog {
    sent: Vec<SentRecord>,
    shed: Vec<u64>,
}

/// One querier, slot `slot` of the tree: send each job from `rx` at its
/// deadline on its source's socket, until the distributor closes the
/// channel.
fn querier_loop(
    slot: usize,
    rx: &Receiver<QueryJob>,
    cfg: &ReplayConfig,
    tracker: TimingTracker,
    clock: &dyn ReplayClock,
) -> QuerierLog {
    let origin_us = cfg.warmup.as_micros() as u64;
    // Per-source sockets: same original source → same socket, so the
    // server sees a stable set of (addr, port) pairs per source.
    let mut udp_socks: HashMap<IpAddr, UdpSocket> = HashMap::new();
    let mut tcp_conns: HashMap<IpAddr, TcpStream> = HashMap::new();
    // The unspecified address of the target's family: a socket bound to
    // loopback cannot send to a routable address, nor v4 to v6.
    let udp_bind: SocketAddr = match cfg.target_udp {
        SocketAddr::V4(_) => (Ipv4Addr::UNSPECIFIED, 0).into(),
        SocketAddr::V6(_) => (Ipv6Addr::UNSPECIFIED, 0).into(),
    };
    // One reconnect chain for the querier's whole run, jittered
    // per-slot so a thundering herd of reconnects decorrelates.
    let reconnect_seed = RECONNECT_JITTER_SEED.wrapping_add(slot as u64);
    let mut reconnects = 0;
    let mut scrap = vec![0u8; 65536];
    // Reused across jobs: one framing buffer per querier, not one
    // allocation per query.
    let mut frame_buf: Vec<u8> = Vec::with_capacity(4096);
    let mut log = QuerierLog::default();

    // Fast mode drains bursts: one blocking recv, then opportunistic
    // try_recv up to the batch cap, so a hot querier pays the channel's
    // wakeup synchronization once per batch instead of once per job.
    // Timed mode keeps per-job recv — between deadlines the querier
    // should be parked in recv, not holding jobs it cannot send yet.
    const RECV_BATCH: usize = 64;
    let mut batch: Vec<QueryJob> = Vec::with_capacity(RECV_BATCH);

    // recv fails once the channel is closed and drained: done.
    while let Ok(job) = rx.recv() {
        batch.push(job);
        if cfg.fast_mode {
            while batch.len() < RECV_BATCH {
                match rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
        }
        for job in batch.drain(..) {
            if !cfg.fast_mode {
                let deadline_us = tracker.deadline_us(job.trace_us);
                // Deadline-aware shedding: a query already hopelessly
                // late would only push every later query later still;
                // record the seq and move on instead of stalling the
                // schedule behind it. Lateness is read on the replay
                // clock, so on a virtual clock shared by several
                // queriers (each sleeper drags it forward) it can be
                // only thread interleaving. Fast mode never sheds.
                if clock.now_us() > deadline_us.saturating_add(MAX_LATENESS_US) {
                    log.shed.push(job.seq);
                    continue;
                }
                // Behind schedule (a past deadline) returns immediately —
                // the paper's "send immediately" rule falls out of the
                // clock's sleep contract.
                clock.sleep_until_us(deadline_us);
            }
            let sent = match job.transport {
                Transport::Udp => {
                    // A socket that cannot be opened costs this query;
                    // the source's next query tries again.
                    let sock = match udp_socks.entry(job.source) {
                        Entry::Occupied(e) => Some(e.into_mut()),
                        Entry::Vacant(e) => UdpSocket::bind(udp_bind)
                            .and_then(|s| s.set_nonblocking(true).map(|()| s))
                            .ok()
                            .map(|s| e.insert(s)),
                    };
                    sock.is_some_and(|s| {
                        // Drain any buffered responses so the kernel
                        // buffer never fills (responses are measured at
                        // the server for the fidelity experiments).
                        while s.recv(&mut scrap).is_ok() {}
                        s.send_to(&job.payload, cfg.target_udp).is_ok()
                    })
                }
                Transport::Tcp | Transport::Tls => {
                    frame_into(&job.payload, &mut frame_buf);
                    // The source's connection, or one dialled when it
                    // has none; a dead one (idle-closed by the server,
                    // or the server restarted) is dropped and dialled
                    // again, once.
                    let mut sent = false;
                    for _ in 0..2 {
                        let stream = match tcp_conns.entry(job.source) {
                            Entry::Occupied(e) => e.into_mut(),
                            Entry::Vacant(e) => match reconnect_with_backoff(
                                cfg.target_tcp,
                                &RECONNECT,
                                reconnect_seed,
                                &mut reconnects,
                            ) {
                                Some(s) => e.insert(s),
                                None => break,
                            },
                        };
                        match drain_then_send(stream, &frame_buf, &mut scrap) {
                            SendOutcome::Sent => {
                                sent = true;
                                break;
                            }
                            // Backpressure spent the budget, but the
                            // connection is intact: keep it.
                            SendOutcome::Stalled => break,
                            SendOutcome::Dead => {
                                tcp_conns.remove(&job.source);
                            }
                        }
                    }
                    sent
                }
            };
            if sent {
                log.sent.push(SentRecord {
                    seq: job.seq,
                    trace_us: job.trace_us,
                    sent_us: clock.now_us().saturating_sub(origin_us),
                    querier: slot,
                    transport: job.transport,
                });
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use dns_wire::framing::FrameBuffer;
    use dns_wire::RecordType;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn mk_trace(n: u64, gap_us: u64) -> Vec<TraceEntry> {
        (0..n)
            .map(|i| {
                TraceEntry::query(
                    1_000_000 + i * gap_us,
                    format!("10.0.0.{}:999", 1 + i % 50).parse().unwrap(),
                    "127.0.0.1:53".parse().unwrap(),
                    i as u16,
                    format!("q{i}.example.com").parse().unwrap(),
                    RecordType::A,
                )
            })
            .collect()
    }

    fn sink_socket() -> (UdpSocket, SocketAddr) {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        let a = s.local_addr().unwrap();
        (s, a)
    }

    /// How long a loopback test waits for an event before calling it a
    /// hang: long enough that no load on the box reaches it.
    const HANG_GUARD: Duration = Duration::from_secs(30);

    /// One distributor with one querier: on a virtual clock that
    /// querier is the only sleeper, so only it moves time and every
    /// send instant is exact.
    fn one_querier(addr: SocketAddr) -> ReplayConfig {
        ReplayConfig {
            distributors: 1,
            queriers_per_distributor: 1,
            target_udp: addr,
            target_tcp: addr,
            ..Default::default()
        }
    }

    /// The report's books: every query of a trace of `queries` is sent,
    /// shed or counted as an error, and no seq is both sent and shed or
    /// sent twice.
    fn accounted(report: ReplayReport, queries: usize) -> ReplayReport {
        assert_eq!(
            report.sent.len() + report.shed.len() + report.errors as usize,
            queries,
            "sent + shed + errors is the trace"
        );
        let mut seqs: Vec<u64> = report.sent.iter().map(|r| r.seq).collect();
        seqs.extend(&report.shed);
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len(),
            report.sent.len() + report.shed.len(),
            "at most once"
        );
        assert!(
            seqs.iter().all(|&s| s < queries as u64),
            "seqs of the trace"
        );
        report
    }

    /// `(seq, sent_us)` of every send, in seq order.
    fn sends(report: &ReplayReport) -> Vec<(u64, u64)> {
        let mut sent: Vec<(u64, u64)> = report.sent.iter().map(|r| (r.seq, r.sent_us)).collect();
        sent.sort_unstable();
        sent
    }

    /// A virtual clock on which each send costs `cost_us`: a sleeper
    /// wakes that long after its deadline (or after now, when behind).
    struct CostlyClock {
        inner: VirtualClock,
        cost_us: u64,
    }

    impl ReplayClock for CostlyClock {
        fn now_us(&self) -> u64 {
            self.inner.now_us()
        }
        fn sleep_until_us(&self, deadline_us: u64) {
            let woke = deadline_us.max(self.inner.now_us());
            self.inner.advance_to(woke + self.cost_us);
        }
    }

    /// A clock nobody may sleep on.
    struct NoSleepClock(VirtualClock);

    impl ReplayClock for NoSleepClock {
        fn now_us(&self) -> u64 {
            self.0.now_us()
        }
        fn sleep_until_us(&self, deadline_us: u64) {
            panic!("slept until {deadline_us} µs");
        }
    }

    #[test]
    fn replays_every_query() {
        let (_sink, addr) = sink_socket();
        let trace = mk_trace(200, 1000); // 1 ms apart
        let config = ReplayConfig {
            target_udp: addr,
            target_tcp: addr,
            fast_mode: true,
            ..Default::default()
        };
        let report = accounted(replay(&trace, &config), trace.len());
        assert_eq!(report.sent.len(), 200);
        assert_eq!(report.errors, 0);
        assert_eq!(report.distinct_sources, 50);
        // Every seq present exactly once.
        let mut seqs: Vec<u64> = report.sent.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn replays_to_an_ipv6_target() {
        let sink = UdpSocket::bind("[::1]:0").unwrap();
        sink.set_read_timeout(Some(HANG_GUARD)).unwrap();
        let addr = sink.local_addr().unwrap();
        let config = ReplayConfig {
            target_udp: addr,
            target_tcp: addr,
            fast_mode: true,
            ..Default::default()
        };
        let report = accounted(replay(&mk_trace(20, 1000), &config), 20);
        assert_eq!((report.sent.len(), report.errors), (20, 0));
        let mut buf = [0u8; 512];
        let arrived = (0..20).filter(|_| sink.recv(&mut buf).is_ok()).count();
        assert_eq!(arrived, 20, "every query reached [::1]");
    }

    #[test]
    fn timed_replay_respects_deadlines() {
        // ΔTᵢ = Δt̄ᵢ − Δtᵢ: each deadline is measured from the origin,
        // so a send that costs 300 µs makes every query 300 µs late
        // and no later — the cost never accumulates.
        let (_sink, addr) = sink_socket();
        let trace = mk_trace(50, 5_000);
        let clock = CostlyClock {
            inner: VirtualClock::new(),
            cost_us: 300,
        };
        let report = replay_with_clock(&trace, &one_querier(addr), Arc::new(clock));
        let report = accounted(report, trace.len());
        let want: Vec<(u64, u64)> = (0..50).map(|i| (i, i * 5_000 + 300)).collect();
        assert_eq!(sends(&report), want);
        assert_eq!(report.elapsed, Duration::from_micros(50_000 + 245_300));
    }

    #[test]
    fn fast_mode_is_fast() {
        // Fast mode has no timers: a clock that panics when slept on
        // never notices it, and no virtual time passes.
        let (_sink, addr) = sink_socket();
        let trace = mk_trace(1000, 10_000); // nominally 10 s
        let config = ReplayConfig {
            target_udp: addr,
            target_tcp: addr,
            fast_mode: true,
            ..Default::default()
        };
        let clock = NoSleepClock(VirtualClock::new());
        let report = accounted(replay_with_clock(&trace, &config, Arc::new(clock)), 1000);
        assert_eq!(
            report.dead_queriers,
            Vec::<usize>::new(),
            "no querier slept"
        );
        let want: Vec<(u64, u64)> = (0..1000).map(|i| (i, 0)).collect();
        assert_eq!(sends(&report), want);
        assert_eq!(report.elapsed, Duration::ZERO);
    }

    #[test]
    fn speedup_halves_duration() {
        let (_sink, addr) = sink_socket();
        let trace = mk_trace(20, 10_000); // 190 ms at 1x
        let config = ReplayConfig {
            speed: 2.0,
            warmup: Duration::from_millis(10),
            ..one_querier(addr)
        };
        let report = replay_with_clock(&trace, &config, Arc::new(VirtualClock::new()));
        let report = accounted(report, trace.len());
        let want: Vec<(u64, u64)> = (0..20).map(|i| (i, i * 5_000)).collect();
        assert_eq!(sends(&report), want);
        assert_eq!(report.elapsed, Duration::from_millis(10 + 95));
    }

    #[test]
    fn same_source_seen_from_same_port() {
        // Replay over UDP to a recording sink: all packets from the same
        // original source must arrive from one (addr, port) — the
        // same-socket emulation property.
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        sink.set_read_timeout(Some(HANG_GUARD)).unwrap();
        let addr = sink.local_addr().unwrap();
        let mut trace = mk_trace(40, 100);
        // Two sources only.
        for (i, e) in trace.iter_mut().enumerate() {
            e.src = format!("10.0.0.{}:999", 1 + i % 2).parse().unwrap();
        }
        let config = ReplayConfig {
            target_udp: addr,
            target_tcp: addr,
            fast_mode: true,
            distributors: 2,
            queriers_per_distributor: 2,
            ..Default::default()
        };
        let handle = {
            let trace = trace.clone();
            std::thread::spawn(move || replay(&trace, &config))
        };
        let mut seen: HashMap<u64, std::collections::HashSet<SocketAddr>> = HashMap::new();
        let mut buf = [0u8; 2048];
        let mut got = 0;
        while got < 40 {
            let Ok((len, from)) = sink.recv_from(&mut buf) else {
                break;
            };
            let msg = dns_wire::Message::decode(&buf[..len]).unwrap();
            // q<i>. names: even i ↔ source .1, odd ↔ .2.
            let name = msg.question().unwrap().name.to_string();
            let i: u64 = name[1..name.find('.').unwrap()].parse().unwrap();
            seen.entry(i % 2).or_default().insert(from);
            got += 1;
        }
        let report = accounted(handle.join().unwrap(), 40);
        assert_eq!(report.sent.len(), 40);
        assert_eq!(got, 40, "sink saw everything");
        for (src, ports) in &seen {
            assert_eq!(ports.len(), 1, "source {src} used one socket: {ports:?}");
        }
        // And the two sources used different sockets.
        assert_ne!(
            seen[&0].iter().next().unwrap(),
            seen[&1].iter().next().unwrap()
        );
    }

    #[test]
    fn tcp_replay_reuses_connections() {
        // A tiny TCP sink that counts connections and reports each
        // message it reads.
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conns = Arc::new(AtomicU64::new(0));
        let (msg_tx, msg_rx) = bounded::<()>(64);
        {
            let conns = conns.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { break };
                    conns.fetch_add(1, Ordering::Relaxed);
                    let msg_tx = msg_tx.clone();
                    std::thread::spawn(move || {
                        let mut fb = dns_wire::framing::FrameBuffer::new();
                        let mut buf = [0u8; 4096];
                        while let Ok(n) = stream.read(&mut buf) {
                            if n == 0 {
                                break;
                            }
                            fb.extend(&buf[..n]);
                            while fb.next_frame().is_some() {
                                let _ = msg_tx.send(());
                            }
                        }
                    });
                }
            });
        }
        let mut trace = mk_trace(30, 100);
        for e in trace.iter_mut() {
            e.transport = Transport::Tcp;
            e.src = "10.0.0.7:999".parse().unwrap(); // single source
        }
        let config = ReplayConfig {
            target_udp: addr,
            target_tcp: addr,
            fast_mode: true,
            distributors: 1,
            queriers_per_distributor: 1,
            ..Default::default()
        };
        let report = accounted(replay(&trace, &config), trace.len());
        assert_eq!(report.sent.len(), 30);
        for i in 0..30 {
            msg_rx
                .recv_timeout(HANG_GUARD)
                .unwrap_or_else(|e| panic!("message {i} never arrived: {e}"));
        }
        // A connection is counted when accepted, before its first read.
        assert_eq!(conns.load(Ordering::Relaxed), 1, "one reused connection");
    }

    #[test]
    fn large_trace_exceeding_channel_capacity_completes() {
        // More queries than every channel of the tree holds: the tree
        // drains as it fills, and each querier's log grows with it.
        let (_sink, addr) = sink_socket();
        let trace = mk_trace(120_000, 10);
        let config = ReplayConfig {
            target_udp: addr,
            target_tcp: addr,
            fast_mode: true,
            ..Default::default()
        };
        let report = accounted(replay(&trace, &config), trace.len());
        assert_eq!(report.sent.len(), 120_000);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let config = ReplayConfig::default();
        replay(&[], &config);
    }

    #[test]
    fn virtual_clock_replay_never_waits_on_wall_time() {
        // A timed replay nominally lasting 100 s runs at once on a
        // virtual clock: the querier reads time only through the
        // abstraction, and each sleep jumps the clock to the deadline.
        let (_sink, addr) = sink_socket();
        let trace = mk_trace(100, 1_000_000); // 1 s apart
        let report = replay_with_clock(&trace, &one_querier(addr), Arc::new(VirtualClock::new()));
        let report = accounted(report, trace.len());
        let want: Vec<(u64, u64)> = (0..100).map(|i| (i, i * 1_000_000)).collect();
        assert_eq!(sends(&report), want);
        assert_eq!(report.elapsed, Duration::from_micros(50_000 + 99_000_000));
    }

    /// Mock writer scripted with per-call results, for send_framed.
    struct MockWriter {
        script: Vec<std::io::Result<usize>>,
        calls: usize,
        written: Vec<u8>,
    }

    impl MockWriter {
        /// `script` is in call order; once exhausted, writes succeed.
        fn new(mut script: Vec<std::io::Result<usize>>) -> Self {
            script.reverse();
            MockWriter {
                script,
                calls: 0,
                written: Vec::new(),
            }
        }
    }

    impl std::io::Write for MockWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            match self.script.pop() {
                Some(Ok(n)) => {
                    let n = n.min(buf.len());
                    self.written.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                // Script exhausted: accept everything.
                None => {
                    self.written.extend_from_slice(buf);
                    Ok(buf.len())
                }
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn would_block() -> std::io::Error {
        std::io::Error::from(std::io::ErrorKind::WouldBlock)
    }

    #[test]
    fn send_framed_retries_would_block_without_reconnect() {
        // Three WouldBlocks before the kernel buffer drains: the old
        // write_all-based path declared the connection dead here.
        let mut w = MockWriter::new(vec![
            Err(would_block()),
            Err(would_block()),
            Err(would_block()),
        ]);
        assert_eq!(send_framed(&mut w, b"\x00\x03abc"), SendOutcome::Sent);
        assert_eq!(w.written, b"\x00\x03abc", "whole frame eventually written");
        assert!(w.calls >= 4, "retried past the WouldBlocks");
    }

    #[test]
    fn send_framed_resumes_partial_writes() {
        // 2 bytes, stall, 1 byte, stall, rest: the remaining-bytes loop
        // must pick up exactly where it left off.
        let mut w = MockWriter::new(vec![
            Ok(2usize),
            Err(would_block()),
            Ok(1),
            Err(would_block()),
        ]);
        assert_eq!(send_framed(&mut w, b"\x00\x03abc"), SendOutcome::Sent);
        assert_eq!(w.written, b"\x00\x03abc", "no bytes duplicated or skipped");
    }

    #[test]
    fn send_framed_interrupted_is_retried() {
        let mut w = MockWriter::new(vec![Err(std::io::Error::from(
            std::io::ErrorKind::Interrupted,
        ))]);
        assert_eq!(send_framed(&mut w, b"\x00\x01x"), SendOutcome::Sent);
        assert_eq!(w.written, b"\x00\x01x");
    }

    #[test]
    fn send_framed_eof_is_dead() {
        let mut w = MockWriter::new(vec![Ok(0)]);
        assert_eq!(send_framed(&mut w, b"\x00\x01x"), SendOutcome::Dead);
    }

    #[test]
    fn send_framed_real_error_is_dead() {
        let mut w = MockWriter::new(vec![Err(std::io::Error::from(
            std::io::ErrorKind::ConnectionReset,
        ))]);
        assert_eq!(send_framed(&mut w, b"\x00\x01x"), SendOutcome::Dead);
    }

    #[test]
    fn send_framed_permanent_stall_is_bounded() {
        // Every write blocks forever: the retry budget must expire (the
        // loop terminates) and, since nothing was written, the stream
        // is still usable → Stalled, not Dead.
        struct AlwaysBlock;
        impl std::io::Write for AlwaysBlock {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(would_block())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert_eq!(
            send_framed(&mut AlwaysBlock, b"\x00\x01x"),
            SendOutcome::Stalled
        );
    }

    #[test]
    fn send_framed_partial_then_permanent_stall_is_dead() {
        // A frame half-written then wedged desyncs the length-framed
        // stream; the connection must be declared dead.
        struct HalfThenBlock(bool);
        impl std::io::Write for HalfThenBlock {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if !self.0 {
                    self.0 = true;
                    Ok(buf.len() / 2)
                } else {
                    Err(would_block())
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert_eq!(
            send_framed(&mut HalfThenBlock(false), b"\x00\x02ab"),
            SendOutcome::Dead
        );
    }

    #[test]
    fn reconnect_budget_exhaustion_is_bounded_not_a_spin_loop() {
        // A port that refuses connections: bind, learn the port, drop
        // the listener.
        let refused = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = RetransmitConfig {
            max_retx: 2,
            base_us: 10,
            cap_us: 50,
        };
        let mut attempts = 0;
        assert!(reconnect_with_backoff(refused, &policy, 7, &mut attempts).is_none());
        assert_eq!(attempts, 2, "exactly max_retx backoff draws");
        // Subsequent calls are one eager probe each: a backoff sleep
        // only follows a draw, and the spent chain draws nothing.
        for _ in 0..20 {
            assert!(reconnect_with_backoff(refused, &policy, 7, &mut attempts).is_none());
        }
        assert_eq!(attempts, 2, "no draw, so no sleep");
        // A healed path restarts the chain.
        let live = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let healed = reconnect_with_backoff(live.local_addr().unwrap(), &policy, 7, &mut attempts);
        assert!(healed.is_some());
        assert_eq!(attempts, 0, "successful connect resets the count");
    }

    #[test]
    fn hopelessly_late_queries_are_shed_not_stalled_behind() {
        // Deadlines fall 1 ms apart from the 50 ms warm-up on; the run
        // starts with the clock at 450 ms, 400 ms behind the first.
        // A query more than 250 ms late is shed; one late by less (or
        // by exactly 250 ms) is sent at once, at the clock's instant;
        // from 450 ms on each query goes at its deadline.
        let (_sink, addr) = sink_socket();
        let trace = mk_trace(600, 1_000);
        let clock = Arc::new(VirtualClock::new());
        clock.advance_to(450_000);
        let report = accounted(replay_with_clock(&trace, &one_querier(addr), clock), 600);
        assert_eq!(report.errors, 0, "shed is not an error");
        assert_eq!(report.shed, (0..150).collect::<Vec<_>>());
        let want: Vec<(u64, u64)> = (150..600).map(|i| (i, (i * 1_000).max(400_000))).collect();
        assert_eq!(sends(&report), want);
    }

    /// A clock whose first sleeper for one deadline dies: the querier
    /// thread that owns that query panics mid-run.
    struct PoisonedClock {
        inner: VirtualClock,
        poison_us: u64,
        spent: AtomicBool,
    }

    impl ReplayClock for PoisonedClock {
        fn now_us(&self) -> u64 {
            self.inner.now_us()
        }
        fn sleep_until_us(&self, deadline_us: u64) {
            if deadline_us == self.poison_us && !self.spent.swap(true, Ordering::SeqCst) {
                panic!("querier killed by the test");
            }
            self.inner.sleep_until_us(deadline_us);
        }
    }

    #[test]
    fn replay_reports_the_querier_that_died() {
        let (_sink, addr) = sink_socket();
        // Two sources, so the one distributor's two queriers each own
        // one: slot 0 gets the even seqs, and dies on seq 0. The trace
        // spans 100 ms: however far slot 1 has pushed the shared clock,
        // slot 0 finds seq 0 less than 250 ms late, so it sleeps on it
        // and dies, and slot 1 is never late.
        let n = 200;
        let mut trace = mk_trace(n, 500);
        for (i, e) in trace.iter_mut().enumerate() {
            e.src = format!("10.0.0.{}:999", 1 + i % 2).parse().unwrap();
        }
        let config = ReplayConfig {
            queriers_per_distributor: 2,
            ..one_querier(addr)
        };
        let clock = PoisonedClock {
            inner: VirtualClock::new(),
            poison_us: config.warmup.as_micros() as u64,
            spent: false.into(),
        };
        let report = accounted(
            replay_with_clock(&trace, &config, Arc::new(clock)),
            trace.len(),
        );
        assert_eq!(report.dead_queriers, vec![0], "slot 0 died, slot 1 did not");
        // Slot 0's queries went with it: at most once, nothing moves
        // to slot 1, and each counts as an error.
        let mut seqs: Vec<u64> = report.sent.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..n).step_by(2).collect::<Vec<_>>());
        assert!(report.sent.iter().all(|r| r.querier == 1));
        assert_eq!(report.errors, n / 2);
        assert!(report.shed.is_empty());
    }

    /// A virtual clock that holds the sleeper for one deadline until the
    /// server takes a token from `gate`, a rendezvous channel.
    struct GatedClock {
        inner: VirtualClock,
        gate_us: u64,
        gate: Sender<()>,
    }

    impl ReplayClock for GatedClock {
        fn now_us(&self) -> u64 {
            self.inner.now_us()
        }
        fn sleep_until_us(&self, deadline_us: u64) {
            if deadline_us == self.gate_us {
                // Fails at once if the server has gone.
                let _ = self.gate.send(());
            }
            self.inner.sleep_until_us(deadline_us);
        }
    }

    #[test]
    fn a_query_after_the_server_closed_its_connection_goes_on_a_new_one() {
        // The server reads one frame per connection and closes it, and
        // only then lets the clock reach the second query's deadline.
        // The querier's connection is at end of stream by then: a write
        // into it would succeed and be lost.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (frame_tx, frame_rx) = bounded::<usize>(4);
        let (gate_tx, gate_rx) = bounded::<()>(0);
        let server = std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().take(2).enumerate() {
                let mut stream = stream.unwrap();
                stream.set_read_timeout(Some(HANG_GUARD)).unwrap();
                let mut fb = FrameBuffer::new();
                let mut buf = [0u8; 4096];
                while fb.next_frame().is_none() {
                    let n = stream.read(&mut buf).unwrap();
                    assert!(n > 0, "connection {conn} closed before its frame");
                    fb.extend(&buf[..n]);
                }
                drop(stream);
                frame_tx.send(conn).unwrap();
                if conn == 0 {
                    gate_rx.recv_timeout(HANG_GUARD).unwrap();
                }
            }
        });
        let mut trace = mk_trace(2, 1_000);
        for e in trace.iter_mut() {
            e.transport = Transport::Tcp;
            e.src = "10.0.0.7:999".parse().unwrap();
        }
        let config = one_querier(addr);
        let clock = GatedClock {
            inner: VirtualClock::new(),
            gate_us: config.warmup.as_micros() as u64 + 1_000,
            gate: gate_tx,
        };
        let report = accounted(replay_with_clock(&trace, &config, Arc::new(clock)), 2);
        assert_eq!((report.sent.len(), report.errors), (2, 0));
        for want in 0..2 {
            let conn = frame_rx
                .recv_timeout(HANG_GUARD)
                .unwrap_or_else(|e| panic!("query {want} never arrived: {e}"));
            assert_eq!(conn, want, "query {want} on connection {want}");
        }
        server.join().unwrap();
    }
}
