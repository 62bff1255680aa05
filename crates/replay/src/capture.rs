//! Arrival capture at the server side: the fidelity experiments (paper
//! §4.2) compare *arrival* timing at the server against the original
//! trace, so this sink records a microsecond timestamp and the unique
//! query tag for every datagram, optionally answering from an engine.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dns_server::ServerEngine;
use dns_wire::Message;

/// One captured arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Sequence parsed from the unique query-name tag, if present.
    pub seq: Option<u64>,
    /// Arrival time, µs since the capture server started.
    pub recv_us: u64,
    /// Datagram size in bytes.
    pub bytes: usize,
}

/// Extract the sequence from a first label like `q123` / `ldp42`.
pub fn parse_tag_seq(label: &[u8]) -> Option<u64> {
    let digits: Vec<u8> = label
        .iter()
        .copied()
        .skip_while(|b| !b.is_ascii_digit())
        .take_while(|b| b.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        return None;
    }
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// A UDP capture server on real sockets.
pub struct CaptureServer {
    /// Where it listens.
    pub addr: SocketAddr,
    /// The recorded arrivals, shared with the receiver threads, which
    /// notify the condvar at each flush.
    arrivals: Arc<(Mutex<Vec<Arrival>>, Condvar)>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl CaptureServer {
    /// Bind and start receiving on `workers` threads. If `engine` is
    /// given, every parsed query is answered (so replays against a real
    /// responding server can be captured too).
    #[allow(
        clippy::disallowed_methods,
        reason = "D1: arrivals are stamped in wall time (paper §4.2)"
    )]
    pub fn start(
        workers: usize,
        engine: Option<Arc<ServerEngine>>,
    ) -> std::io::Result<CaptureServer> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        let addr = sock.local_addr()?;
        let arrivals = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        sock.set_read_timeout(Some(Duration::from_millis(50)))?;

        let mut threads = Vec::new();
        for _ in 0..workers.max(1) {
            let sock = sock.try_clone()?;
            let arrivals = arrivals.clone();
            let stop = stop.clone();
            let engine = engine.clone();
            let flush = move |local: &mut Vec<Arrival>| {
                let log = arrivals.0.lock();
                log.expect("no worker panics holding the log").append(local);
                arrivals.1.notify_all();
            };
            threads.push(std::thread::spawn(move || {
                let mut buf = vec![0u8; 65535];
                let mut local: Vec<Arrival> = Vec::with_capacity(4096);
                while !stop.load(Ordering::Relaxed) {
                    match sock.recv_from(&mut buf) {
                        Ok((len, peer)) => {
                            let recv_us = start.elapsed().as_micros() as u64;
                            let seq = Message::decode(&buf[..len]).ok().and_then(|m| {
                                let q = m.question()?;
                                let label = q.name.leftmost()?;
                                parse_tag_seq(label)
                            });
                            local.push(Arrival {
                                seq,
                                recv_us,
                                bytes: len,
                            });
                            if let Some(engine) = &engine {
                                if let Some(reply) = engine.handle_udp_bytes(peer.ip(), &buf[..len])
                                {
                                    let _ = sock.send_to(&reply, peer);
                                }
                            }
                            // Batch-flush to the shared log to keep the
                            // hot path allocation-free.
                            if local.len() >= 4096 {
                                flush(&mut local);
                            }
                        }
                        // Idle for the read timeout: publish what came.
                        Err(_) => flush(&mut local),
                    }
                }
                flush(&mut local);
            }));
        }
        Ok(CaptureServer {
            addr,
            arrivals,
            stop,
            threads,
        })
    }

    /// Wait until `n` arrivals are recorded or `guard` has passed, and
    /// say whether all `n` came. A worker records what it received once
    /// its socket has been idle for 50 ms (or 4096 have piled up), so
    /// this returns about that long after the last arrival.
    pub fn wait_for(&self, n: usize, guard: Duration) -> bool {
        let (log, flushed) = &*self.arrivals;
        let log = log.lock().expect("no worker panics holding the log");
        let waited = flushed.wait_timeout_while(log, guard, |a| a.len() < n);
        waited.is_ok_and(|(log, _)| log.len() >= n)
    }

    /// Stop receiving and return all arrivals sorted by time.
    pub fn finish(self) -> Vec<Arrival> {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            let _ = t.join();
        }
        let mut arrivals = Arc::try_unwrap(self.arrivals)
            .map(|(m, _)| m.into_inner().unwrap())
            .unwrap_or_else(|arc| arc.0.lock().unwrap().clone());
        arrivals.sort_by_key(|a| a.recv_us);
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Name, RecordType};
    use std::time::Duration;

    #[test]
    fn parse_tag_variants() {
        assert_eq!(parse_tag_seq(b"q123"), Some(123));
        assert_eq!(parse_tag_seq(b"ldp42"), Some(42));
        assert_eq!(parse_tag_seq(b"u0"), Some(0));
        assert_eq!(parse_tag_seq(b"www"), None);
        assert_eq!(parse_tag_seq(b"abc12x99"), Some(12), "first run wins");
    }

    /// A capture server that answers (REFUSED, from an empty catalog):
    /// a worker records an arrival before it replies, so a client
    /// holding the reply knows its query was captured.
    fn answering(workers: usize) -> CaptureServer {
        let engine = ServerEngine::with_catalog(dns_zone::Catalog::new());
        CaptureServer::start(workers, Some(Arc::new(engine))).unwrap()
    }

    /// A client that calls a reply missing for 30 s a hang.
    fn client() -> UdpSocket {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        sock
    }

    fn query(i: u64) -> Vec<u8> {
        let name = format!("q{i}.example.com").parse::<Name>().unwrap();
        Message::query(i as u16, name, RecordType::A).encode()
    }

    #[test]
    fn captures_arrivals_in_order() {
        let server = answering(2);
        let sock = client();
        let mut buf = [0u8; 512];
        for i in 0..20u64 {
            sock.send_to(&query(i), server.addr).unwrap();
            sock.recv(&mut buf).expect("the reply came back");
        }
        assert!(server.wait_for(20, Duration::from_secs(30)));
        let arrivals = server.finish();
        assert_eq!(arrivals.len(), 20);
        // Sorted by time; seqs decoded.
        let seqs: Vec<u64> = arrivals.iter().filter_map(|a| a.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        assert!(arrivals.windows(2).all(|w| w[0].recv_us <= w[1].recv_us));
    }

    #[test]
    fn non_dns_noise_recorded_without_seq() {
        // One worker takes the noise, then the query.
        let server = answering(1);
        let sock = client();
        sock.send_to(b"not dns at all", server.addr).unwrap();
        sock.send_to(&query(7), server.addr).unwrap();
        // The noise is answered too (FORMERR): wait for id 7's reply.
        let mut buf = [0u8; 512];
        loop {
            let len = sock.recv(&mut buf).expect("the reply came back");
            if Message::decode(&buf[..len]).is_ok_and(|m| m.id == 7) {
                break;
            }
        }
        let arrivals = server.finish();
        let seqs: Vec<Option<u64>> = arrivals.iter().map(|a| a.seq).collect();
        assert_eq!(seqs, [None, Some(7)]);
        assert_eq!(arrivals[0].bytes, 14);
    }
}
