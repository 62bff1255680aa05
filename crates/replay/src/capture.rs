//! Arrival capture at the server side: the fidelity experiments (paper
//! §4.2) compare *arrival* timing at the server against the original
//! trace, so this sink records a microsecond timestamp and the unique
//! query tag for every datagram, optionally answering from an engine.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
    /// The recorded arrivals (shared with receiver threads).
    pub arrivals: Arc<Mutex<Vec<Arrival>>>,
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
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        sock.set_read_timeout(Some(std::time::Duration::from_millis(50)))?;

        let mut threads = Vec::new();
        for _ in 0..workers.max(1) {
            let sock = sock.try_clone()?;
            let arrivals = arrivals.clone();
            let stop = stop.clone();
            let engine = engine.clone();
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
                                arrivals.lock().unwrap().append(&mut local);
                            }
                        }
                        Err(_) => {
                            if !local.is_empty() {
                                arrivals.lock().unwrap().append(&mut local);
                            }
                        }
                    }
                }
                if !local.is_empty() {
                    arrivals.lock().unwrap().append(&mut local);
                }
            }));
        }
        Ok(CaptureServer {
            addr,
            arrivals,
            stop,
            threads,
        })
    }

    /// Stop receiving and return all arrivals sorted by time.
    pub fn finish(self) -> Vec<Arrival> {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            let _ = t.join();
        }
        let mut arrivals = Arc::try_unwrap(self.arrivals)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_else(|arc| arc.lock().unwrap().clone());
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

    #[test]
    fn captures_arrivals_in_order() {
        let _serial = crate::wall_clock_test();
        let server = CaptureServer::start(2, None).unwrap();
        let addr = server.addr;
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        for i in 0..20u64 {
            let q = Message::query(
                i as u16,
                format!("q{i}.example.com").parse::<Name>().unwrap(),
                RecordType::A,
            );
            sock.send_to(&q.encode(), addr).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(100));
        let arrivals = server.finish();
        assert_eq!(arrivals.len(), 20);
        // Sorted by time; seqs decoded.
        let seqs: Vec<u64> = arrivals.iter().filter_map(|a| a.seq).collect();
        assert_eq!(seqs.len(), 20);
        assert!(arrivals.windows(2).all(|w| w[0].recv_us <= w[1].recv_us));
    }

    #[test]
    fn non_dns_noise_recorded_without_seq() {
        let _serial = crate::wall_clock_test();
        let server = CaptureServer::start(1, None).unwrap();
        let addr = server.addr;
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(b"not dns at all", addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let arrivals = server.finish();
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].seq, None);
        assert_eq!(arrivals[0].bytes, 14);
    }
}
