//! The authoritative server over real sockets: UDP worker threads on
//! one shared socket plus a TCP accept thread with one small-stack
//! thread per connection and idle timeouts — plain blocking `std::net`,
//! the same shape as `ldp-replay`'s capture server and querier engine
//! (and, per ZDNS, how a DNS tool reaches its throughput: many blocking
//! workers over reused sockets, no async runtime).
//!
//! This path backs the replay-fidelity and throughput experiments
//! (paper §4): queries arrive over loopback at up to ~100 k q/s, and
//! each UDP worker and TCP connection thread answers in an
//! [`AnswerScratch`] of its own, so a query costs its qname and nothing
//! else.
//!
//! Limit, stated once: a thread per TCP connection serves loopback
//! testbeds — hundreds to low thousands of concurrent connections. The
//! all-TCP-at-scale study (paper §5.2, millions of connections) runs on
//! [`crate::SimDnsServer`] over netsim, as it always has.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dns_wire::framing::{frame_into, FrameBuffer};
use dns_wire::Transport;

use crate::engine::ServerEngine;
use crate::scratch::AnswerScratch;

/// How often a blocked UDP worker wakes to look at the stop flag.
const STOP_POLL: Duration = Duration::from_millis(20);

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
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            udp_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            tcp_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            udp_workers: 4,
            tcp_idle_timeout: Duration::from_secs(20),
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
    })
}

/// One UDP worker's share of the server state.
struct UdpWorker {
    sock: UdpSocket,
    engine: Arc<ServerEngine>,
    counters: Arc<ServerCounters>,
    stop: Arc<AtomicBool>,
}

impl UdpWorker {
    fn run(self) {
        let mut buf = vec![0u8; 65535];
        let mut scratch = AnswerScratch::new();
        while !self.stop.load(Ordering::Relaxed) {
            let (len, peer) = match self.sock.recv_from(&mut buf) {
                Ok(got) => got,
                Err(e) if timed_out(&e) => continue,
                Err(_) => break,
            };
            let (engine, query) = (&self.engine, &buf[..len]);
            let Some(reply) = engine.answer_into(peer.ip(), query, Transport::Udp, &mut scratch)
            else {
                continue;
            };
            self.counters.udp_queries.fetch_add(1, Ordering::Relaxed);
            let _ = self.sock.send_to(reply, peer);
        }
    }
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
