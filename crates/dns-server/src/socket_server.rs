//! The authoritative server over real sockets: UDP worker threads on
//! one shared socket plus a TCP accept thread with one small-stack
//! thread per connection and idle timeouts — plain blocking `std::net`,
//! the same shape as `ldp-replay`'s querier engine (and, per ZDNS, how
//! a DNS tool reaches its throughput: many blocking workers over reused
//! sockets, no async runtime).
//!
//! This path backs the replay-fidelity and throughput experiments
//! (paper §4): queries arrive over loopback at up to ~100 k q/s, and
//! each UDP worker and TCP connection thread answers in an
//! [`AnswerScratch`] of its own, so a query costs its qname and nothing
//! else. Asked to ([`ServerConfig::record_arrivals`]), the UDP workers
//! also stamp every datagram's arrival with the sequence of its unique
//! query-name tag, which is what the fidelity experiments compare with
//! the trace (§4.2, Figures 6–8).
//!
//! Limit, stated once: a thread per TCP connection serves loopback
//! testbeds — hundreds to low thousands of concurrent connections. The
//! all-TCP-at-scale study (paper §5.2, millions of connections) runs on
//! [`crate::SimDnsServer`] over netsim, as it always has.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dns_wire::framing::{frame_into, FrameBuffer};
use dns_wire::Transport;

use crate::engine::ServerEngine;
use crate::scratch::AnswerScratch;

/// How often a blocked UDP worker wakes to look at the stop flag (and
/// to publish the arrivals it holds).
const STOP_POLL: Duration = Duration::from_millis(20);

/// A recording UDP worker publishes its arrivals once it holds this
/// many, or when its socket has been idle for [`STOP_POLL`].
const FLUSH_AT: usize = 4096;

/// The same for a TCP connection thread: coarser, because a testbed
/// holds many mostly-idle connections open.
const CONN_STOP_POLL: Duration = Duration::from_millis(200);

/// Stack of a per-connection TCP thread: it holds a 16 KiB read buffer
/// on the heap and shallow call chains, so the 2 MiB default would only
/// cap how many connections a testbed can hold open.
const TCP_CONN_STACK: usize = 128 * 1024;

/// Configuration for the socket server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// UDP bind address (port 0 = ephemeral).
    pub udp_addr: SocketAddr,
    /// TCP bind address.
    pub tcp_addr: SocketAddr,
    /// Number of UDP worker threads sharing the socket (the paper runs
    /// NSD with 16 processes).
    pub udp_workers: usize,
    /// Idle timeout after which the server closes a TCP connection.
    pub tcp_idle_timeout: Duration,
    /// Stamp every UDP datagram's arrival for [`RunningServer::arrivals`]
    /// (the fidelity sessions). Off for a server that runs unbounded
    /// (`ldplayer serve`), whose log would only grow.
    pub record_arrivals: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            udp_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            tcp_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            udp_workers: 4,
            tcp_idle_timeout: Duration::from_secs(20),
            record_arrivals: false,
        }
    }
}

/// Counters exposed by a running server.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// UDP queries answered.
    pub udp_queries: AtomicU64,
    /// TCP queries answered.
    pub tcp_queries: AtomicU64,
    /// TCP connections accepted.
    pub tcp_accepts: AtomicU64,
    /// TCP connections closed by idle timeout.
    pub idle_closes: AtomicU64,
}

/// One datagram's arrival at a recording server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Sequence parsed from the unique query-name tag, if present.
    pub seq: Option<u64>,
    /// Arrival time, µs since the server was spawned.
    pub recv_us: u64,
    /// Datagram size in bytes.
    pub bytes: usize,
}

/// Extract the sequence from a first label like `q123` / `ldp42`: the
/// first run of digits in it.
pub fn parse_tag_seq(label: &[u8]) -> Option<u64> {
    let start = label.iter().position(u8::is_ascii_digit)?;
    let run = &label[start..];
    let end = run.iter().position(|b| !b.is_ascii_digit());
    std::str::from_utf8(&run[..end.unwrap_or(run.len())])
        .ok()?
        .parse()
        .ok()
}

/// The arrivals the UDP workers have published.
struct ArrivalLog {
    /// The instant every `recv_us` counts from: the server's spawn.
    epoch: Instant,
    published: Mutex<Vec<Arrival>>,
    /// Notified at every publish, for [`RunningServer::wait_for`].
    grew: Condvar,
}

impl ArrivalLog {
    #[allow(
        clippy::disallowed_methods,
        reason = "D1: arrivals are stamped in wall time (paper §4.2)"
    )]
    fn new() -> ArrivalLog {
        ArrivalLog {
            epoch: Instant::now(),
            published: Mutex::new(Vec::new()),
            grew: Condvar::new(),
        }
    }

    /// µs since the epoch: an arrival's stamp.
    fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The published arrivals. Every update is one `append` of plain
    /// values, so a lock poisoned by a panicking worker still guards a
    /// whole log.
    fn lock(&self) -> MutexGuard<'_, Vec<Arrival>> {
        self.published.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Move a worker's batch into the log and wake the waiters.
    fn publish(&self, batch: &mut Vec<Arrival>) {
        if !batch.is_empty() {
            self.lock().append(batch);
            self.grew.notify_all();
        }
    }
}

/// Handle to a running server; dropping it does *not* stop the server —
/// call [`RunningServer::shutdown`].
pub struct RunningServer {
    /// The bound UDP address (with the real port).
    pub udp_addr: SocketAddr,
    /// The bound TCP address.
    pub tcp_addr: SocketAddr,
    /// Live counters.
    pub counters: Arc<ServerCounters>,
    stop: Arc<AtomicBool>,
    /// The UDP workers and the accept thread, until `shutdown` joins them.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// What the UDP workers recorded; empty unless
    /// [`ServerConfig::record_arrivals`] was set.
    arrivals: Arc<ArrivalLog>,
}

impl RunningServer {
    /// Stop the server: returns once the UDP workers and the accept
    /// thread have exited (≤ 20 ms); open TCP connections close within
    /// 200 ms on their own threads.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept thread blocks in accept(); a throwaway connection
        // wakes it so it can see the flag.
        let _ = TcpStream::connect(self.tcp_addr);
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        for t in threads {
            // A worker that panicked has already stopped serving.
            let _ = t.join();
        }
    }

    /// Wait until `n` arrivals are recorded or `guard` has passed, and
    /// say whether all `n` came. A worker publishes what it received
    /// once its socket has been idle for 20 ms (or 4,096 have piled
    /// up), so this returns about that long after the last arrival.
    pub fn wait_for(&self, n: usize, guard: Duration) -> bool {
        let log = self.arrivals.lock();
        let waited = self
            .arrivals
            .grew
            .wait_timeout_while(log, guard, |a| a.len() < n);
        waited.is_ok_and(|(log, _)| log.len() >= n)
    }

    /// The arrivals published so far, sorted by time; after
    /// [`RunningServer::shutdown`], every arrival.
    pub fn arrivals(&self) -> Vec<Arrival> {
        let mut arrivals = self.arrivals.lock().clone();
        arrivals.sort_by_key(|a| a.recv_us);
        arrivals
    }
}

/// True for the error a timed-out blocking read returns (`WouldBlock`
/// on Unix, `TimedOut` on Windows).
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Bind sockets and start the server threads.
pub fn spawn(engine: Arc<ServerEngine>, config: ServerConfig) -> std::io::Result<RunningServer> {
    let udp = UdpSocket::bind(config.udp_addr)?;
    let tcp = TcpListener::bind(config.tcp_addr)?;
    let udp_addr = udp.local_addr()?;
    let tcp_addr = tcp.local_addr()?;
    udp.set_read_timeout(Some(STOP_POLL))?;
    let counters = Arc::new(ServerCounters::default());
    let stop = Arc::new(AtomicBool::new(false));
    let arrivals = Arc::new(ArrivalLog::new());

    // Every fallible step comes before the first thread starts, so an
    // error never leaves half a server running.
    let worker_socks = (0..config.udp_workers.max(1))
        .map(|_| udp.try_clone())
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut threads = Vec::new();

    for sock in worker_socks {
        let worker = UdpWorker {
            sock,
            engine: engine.clone(),
            counters: counters.clone(),
            stop: stop.clone(),
            arrivals: config.record_arrivals.then(|| arrivals.clone()),
        };
        threads.push(std::thread::spawn(move || worker.run()));
    }

    {
        let engine = engine.clone();
        let counters = counters.clone();
        let stop = stop.clone();
        let idle = config.tcp_idle_timeout;
        threads.push(std::thread::spawn(move || {
            while let Ok((stream, peer)) = tcp.accept() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                counters.tcp_accepts.fetch_add(1, Ordering::Relaxed);
                let engine = engine.clone();
                let counters = counters.clone();
                let stop = stop.clone();
                // A failed thread spawn (resource exhaustion) drops the
                // stream, which closes the connection: the client sees
                // a refused query, the server keeps accepting.
                let _ = std::thread::Builder::new()
                    .stack_size(TCP_CONN_STACK)
                    .spawn(move || {
                        let _ = serve_tcp_conn(stream, peer, &engine, &counters, idle, &stop);
                    });
            }
        }));
    }

    Ok(RunningServer {
        udp_addr,
        tcp_addr,
        counters,
        stop,
        threads: Mutex::new(threads),
        arrivals,
    })
}

/// One UDP worker's share of the server state.
struct UdpWorker {
    sock: UdpSocket,
    engine: Arc<ServerEngine>,
    counters: Arc<ServerCounters>,
    stop: Arc<AtomicBool>,
    /// Where this worker records arrivals, if the server records them.
    arrivals: Option<Arc<ArrivalLog>>,
}

impl UdpWorker {
    fn run(self) {
        let mut buf = vec![0u8; 65535];
        let mut scratch = AnswerScratch::new();
        let mut batch = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            let (len, peer) = match self.sock.recv_from(&mut buf) {
                Ok(got) => got,
                Err(e) if timed_out(&e) => {
                    self.publish(&mut batch);
                    continue;
                }
                Err(_) => break,
            };
            let recv_us = self.arrivals.as_ref().map(|log| log.stamp());
            let (engine, query) = (&self.engine, &buf[..len]);
            if let Some(reply) = engine.answer_into(peer.ip(), query, Transport::Udp, &mut scratch)
            {
                self.counters.udp_queries.fetch_add(1, Ordering::Relaxed);
                let _ = self.sock.send_to(reply, peer);
            }
            if let Some(recv_us) = recv_us {
                batch.push(Arrival {
                    seq: tag_seq(&scratch),
                    recv_us,
                    bytes: len,
                });
                if batch.len() >= FLUSH_AT {
                    self.publish(&mut batch);
                }
            }
        }
        self.publish(&mut batch);
    }

    fn publish(&self, batch: &mut Vec<Arrival>) {
        if let Some(log) = &self.arrivals {
            log.publish(batch);
        }
    }
}

/// The tag's sequence of the query last answered in `scratch`, read
/// from the decode the answer already made; `None` if it did not decode.
fn tag_seq(scratch: &AnswerScratch) -> Option<u64> {
    let question = scratch.query.question().filter(|_| scratch.parsed)?;
    parse_tag_seq(question.name.leftmost()?)
}

#[allow(
    clippy::disallowed_methods,
    reason = "D1: the idle timeout is wall time here"
)]
fn serve_tcp_conn(
    mut stream: TcpStream,
    peer: SocketAddr,
    engine: &ServerEngine,
    counters: &ServerCounters,
    idle: Duration,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // Wake at least every CONN_STOP_POLL to notice shutdown; the idle
    // timeout is the time since the last byte arrived, checked at each
    // wake-up (so a close is at most one poll period late).
    stream.set_read_timeout(Some(idle.min(CONN_STOP_POLL).max(Duration::from_millis(1))))?;
    let mut fb = FrameBuffer::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut scratch = AnswerScratch::new();
    let mut framed = Vec::new();
    let mut last_activity = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let n = match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => n,
            Err(e) if timed_out(&e) => {
                if last_activity.elapsed() >= idle {
                    // Idle timeout: server-initiated close (the
                    // behaviour whose cost §5.2 quantifies).
                    counters.idle_closes.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        last_activity = Instant::now();
        fb.extend(&buf[..n]);
        while let Some(msg) = fb.next_frame() {
            if let Some(reply) = engine.answer_into(peer.ip(), msg, Transport::Tcp, &mut scratch) {
                counters.tcp_queries.fetch_add(1, Ordering::Relaxed);
                frame_into(reply, &mut framed);
                stream.write_all(&framed)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::framing::frame;
    use dns_wire::{Message, Name, RData, Rcode, Record, RecordType, Soa};
    use dns_zone::{Catalog, Zone};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn engine() -> Arc<ServerEngine> {
        let mut z = Zone::new(n("example"));
        z.insert(Record::new(
            n("example"),
            60,
            RData::Soa(Soa {
                mname: n("ns1.example"),
                rname: n("a.example"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 60,
            }),
        ))
        .unwrap();
        z.insert(Record::new(
            n("www.example"),
            60,
            RData::A("5.6.7.8".parse().unwrap()),
        ))
        .unwrap();
        // Wildcard so synthetic unique names resolve.
        z.insert(Record::new(
            n("*.example"),
            60,
            RData::A("9.9.9.9".parse().unwrap()),
        ))
        .unwrap();
        let mut cat = Catalog::new();
        cat.insert(z);
        Arc::new(ServerEngine::with_catalog(cat))
    }

    /// How long a test waits for a reply or a close before calling it
    /// a hang: long enough that no load on the box reaches it.
    const HANG_GUARD: Duration = Duration::from_secs(30);

    /// A client socket that gives up after [`HANG_GUARD`] instead of
    /// hanging the suite.
    fn client() -> UdpSocket {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(HANG_GUARD)).unwrap();
        sock
    }

    #[test]
    fn udp_round_trip_over_loopback() {
        let server = spawn(engine(), ServerConfig::default()).unwrap();
        let sock = client();
        let q = Message::query(42, n("www.example"), RecordType::A);
        sock.send_to(&q.encode(), server.udp_addr).unwrap();
        let mut buf = [0u8; 4096];
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        let resp = Message::decode(&buf[..len]).unwrap();
        assert_eq!(resp.id, 42);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(server.counters.udp_queries.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip_with_connection_reuse() {
        let server = spawn(engine(), ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.tcp_addr).unwrap();
        stream.set_read_timeout(Some(HANG_GUARD)).unwrap();
        // Two framed queries on one connection.
        for (id, name) in [(1u16, "www.example"), (2, "missing.other")] {
            let q = Message::query(id, n(name), RecordType::A);
            stream.write_all(&frame(&q.encode())).unwrap();
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        while got.len() < 2 {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            fb.extend(&buf[..n]);
            while let Some(msg) = fb.next_frame() {
                got.push(Message::decode(msg).unwrap());
            }
        }
        assert_eq!(got[0].id, 1);
        assert_eq!(got[0].answers.len(), 1);
        assert_eq!(got[1].id, 2);
        assert_eq!(got[1].rcode, Rcode::Refused, "out-of-zone → REFUSED");
        assert_eq!(server.counters.tcp_accepts.load(Ordering::Relaxed), 1);
        assert_eq!(server.counters.tcp_queries.load(Ordering::Relaxed), 2);
        server.shutdown();
    }

    #[test]
    fn tcp_idle_timeout_closes() {
        let config = ServerConfig {
            tcp_idle_timeout: Duration::from_millis(100),
            ..Default::default()
        };
        let server = spawn(engine(), config).unwrap();
        let mut stream = TcpStream::connect(server.tcp_addr).unwrap();
        stream.set_read_timeout(Some(HANG_GUARD)).unwrap();
        // Say nothing; the server should close us.
        let mut buf = [0u8; 16];
        let n = stream.read(&mut buf).expect("server closed within timeout");
        assert_eq!(n, 0, "clean close");
        assert_eq!(server.counters.idle_closes.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn wildcard_answers_synthetic_names() {
        let server = spawn(engine(), ServerConfig::default()).unwrap();
        let sock = client();
        for i in 0..5 {
            let q = Message::query(i, n(&format!("unique{i}.example")), RecordType::A);
            sock.send_to(&q.encode(), server.udp_addr).unwrap();
            let mut buf = [0u8; 4096];
            let (len, _) = sock.recv_from(&mut buf).unwrap();
            let resp = Message::decode(&buf[..len]).unwrap();
            assert_eq!(resp.answers.len(), 1, "wildcard answered query {i}");
            assert_eq!(resp.answers[0].name, n(&format!("unique{i}.example")));
        }
        server.shutdown();
    }

    #[test]
    fn parse_tag_variants() {
        assert_eq!(parse_tag_seq(b"q123"), Some(123));
        assert_eq!(parse_tag_seq(b"ldp42"), Some(42));
        assert_eq!(parse_tag_seq(b"u0"), Some(0));
        assert_eq!(parse_tag_seq(b"www"), None);
        assert_eq!(parse_tag_seq(b"abc12x99"), Some(12), "first run wins");
    }

    /// A server on `workers` UDP workers that records arrivals.
    fn recording(workers: usize) -> RunningServer {
        let config = ServerConfig {
            udp_workers: workers,
            record_arrivals: true,
            ..Default::default()
        };
        spawn(engine(), config).unwrap()
    }

    fn tagged(i: u16) -> Vec<u8> {
        Message::query(i, n(&format!("q{i}.example")), RecordType::A).encode()
    }

    #[test]
    fn records_arrivals_in_order() {
        let server = recording(2);
        let sock = client();
        let mut buf = [0u8; 512];
        for i in 0..20 {
            sock.send_to(&tagged(i), server.udp_addr).unwrap();
            sock.recv(&mut buf).expect("the reply came back");
        }
        assert!(server.wait_for(20, HANG_GUARD));
        let arrivals = server.arrivals();
        server.shutdown();
        assert_eq!(arrivals.len(), 20);
        // Sorted by time; seqs decoded.
        let seqs: Vec<u64> = arrivals.iter().filter_map(|a| a.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        assert!(arrivals.windows(2).all(|w| w[0].recv_us <= w[1].recv_us));
    }

    #[test]
    fn non_dns_noise_recorded_without_seq() {
        // One worker takes the noise, then the query.
        let server = recording(1);
        let sock = client();
        sock.send_to(b"not dns at all", server.udp_addr).unwrap();
        sock.send_to(&tagged(7), server.udp_addr).unwrap();
        // The noise is answered too (FORMERR): wait for id 7's reply.
        let mut buf = [0u8; 512];
        loop {
            let len = sock.recv(&mut buf).expect("the reply came back");
            if Message::decode(&buf[..len]).is_ok_and(|m| m.id == 7) {
                break;
            }
        }
        assert!(server.wait_for(2, HANG_GUARD));
        let arrivals = server.arrivals();
        server.shutdown();
        let seqs: Vec<Option<u64>> = arrivals.iter().map(|a| a.seq).collect();
        assert_eq!(seqs, [None, Some(7)]);
        assert_eq!(arrivals[0].bytes, 14);
    }

    /// `ldplayer serve` runs unbounded, so a server spawned without the
    /// log must keep nothing per query.
    #[test]
    fn a_server_without_the_log_records_nothing() {
        let server = spawn(engine(), ServerConfig::default()).unwrap();
        let sock = client();
        let mut buf = [0u8; 512];
        for i in 0..50 {
            sock.send_to(&tagged(i), server.udp_addr).unwrap();
            sock.recv(&mut buf).expect("the reply came back");
        }
        // Joining the workers publishes whatever they held.
        server.shutdown();
        assert_eq!(server.counters.udp_queries.load(Ordering::Relaxed), 50);
        assert_eq!(server.arrivals(), []);
    }

    #[test]
    fn shutdown_stops_accepting() {
        let server = spawn(engine(), ServerConfig::default()).unwrap();
        server.shutdown();
        // UDP workers have exited; queries go unanswered.
        let sock = client();
        sock.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let q = Message::query(1, n("www.example"), RecordType::A);
        sock.send_to(&q.encode(), server.udp_addr).unwrap();
        let mut buf = [0u8; 512];
        assert!(sock.recv_from(&mut buf).is_err(), "no reply after shutdown");
        // And the accept thread is gone: the listener is closed, so a
        // new connection is refused (or, at worst, never served).
        if let Ok(mut stream) = TcpStream::connect(server.tcp_addr) {
            stream
                .set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let q = Message::query(2, n("www.example"), RecordType::A);
            let _ = stream.write_all(&frame(&q.encode()));
            assert!(
                !matches!(stream.read(&mut buf), Ok(n) if n > 0),
                "no TCP reply after shutdown"
            );
        }
        assert_eq!(server.counters.tcp_accepts.load(Ordering::Relaxed), 0);
    }
}
