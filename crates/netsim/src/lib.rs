//! # netsim
//!
//! A deterministic discrete-event network simulator purpose-built for
//! the LDplayer reproduction's resource and latency experiments (paper
//! §5.2): virtual time, a topology with per-path RTT/bandwidth/loss,
//! UDP datagram delivery, and a connection-level TCP model with
//! three-way handshakes, Nagle coalescing + delayed ACKs, server idle
//! timeouts, TIME_WAIT accounting and an emulated TLS session layer
//! (+2 RTT handshake). Per-host counters feed calibrated memory and CPU
//! models ([`resources`]). Hosts crash and restart by [`HostFault`]
//! events a driver schedules into the same queue
//! ([`SimDriver::schedule_host_fault`]); no host is added to drive them.
//!
//! Determinism: same inputs → byte-identical event order (the queue
//! breaks time ties by `(lane, seq)`), which is what makes replay
//! experiments repeatable — design requirement "repeatability" in
//! paper §2.1. The simulator holds no RNG state: its one random
//! decision, path loss, is a hash of the seed and the packet
//! ([`fault::packet_draw`]), so it depends on no earlier send, on no
//! shard placement and on no resume point.

#![warn(missing_docs)]
// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]

pub mod driver;
pub mod fault;
pub mod host;
pub mod pool;
pub mod queue;
pub mod resources;
pub mod sim;
pub mod time;
pub mod topology;

pub use driver::SimDriver;
pub use fault::{packet_draw, FaultInjector, HostFault, PacketFate, WireKind};
pub use host::{Host, TcpEvent};
pub use pool::{IntoPacket, PacketBytes, PoolStats, POOL_BUFFERS, POOL_BUFFER_BYTES};
pub use queue::{EventQueue, QueueKind};
pub use resources::{CpuModel, MemoryModel};
pub use sim::{ConnId, Ctx, HostId, HostStats, RemoteUdp, SimConfig, Simulator, DRIVER_LANE};
pub use time::{SimDuration, SimTime};
pub use topology::{PathConfig, Topology};

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;
    use std::sync::{Arc, Mutex};

    fn sa(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    /// Log of everything a test host observed: (time_s, description).
    type Log = Arc<Mutex<Vec<(f64, String)>>>;

    /// An echo server: answers UDP with the same bytes; answers TCP data
    /// with the same bytes; records events.
    struct Echo {
        log: Log,
        idle_override: Option<Option<SimDuration>>,
    }

    impl Host for Echo {
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: SocketAddr,
            to: SocketAddr,
            data: PacketBytes,
        ) {
            self.log
                .lock()
                .unwrap()
                .push((ctx.now().as_secs_f64(), format!("udp {} bytes", data.len())));
            ctx.send_udp(to, from, data);
        }

        fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Incoming { conn, .. } => {
                    self.log
                        .lock()
                        .unwrap()
                        .push((ctx.now().as_secs_f64(), "incoming".into()));
                    if let Some(t) = self.idle_override {
                        ctx.tcp_set_idle_timeout(conn, t);
                    }
                }
                TcpEvent::Data { conn, data } => {
                    self.log.lock().unwrap().push((
                        ctx.now().as_secs_f64(),
                        format!("data {} bytes", data.len()),
                    ));
                    ctx.tcp_send(conn, data);
                }
                TcpEvent::Closed { .. } => {
                    self.log
                        .lock()
                        .unwrap()
                        .push((ctx.now().as_secs_f64(), "closed".into()));
                }
                TcpEvent::Connected { .. } => {}
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    }

    /// A client that fires one UDP query or one TCP exchange at t=0.
    struct Client {
        log: Log,
        me: SocketAddr,
        server: SocketAddr,
        mode: &'static str, // "udp" | "tcp" | "tls"
        conn: Option<ConnId>,
        close_after_reply: bool,
    }

    impl Host for Client {
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: SocketAddr,
            _to: SocketAddr,
            data: PacketBytes,
        ) {
            self.log.lock().unwrap().push((
                ctx.now().as_secs_f64(),
                format!("reply {} bytes", data.len()),
            ));
        }

        fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Connected { conn } => {
                    self.log
                        .lock()
                        .unwrap()
                        .push((ctx.now().as_secs_f64(), "connected".into()));
                    ctx.tcp_send(conn, vec![1; 30]);
                }
                TcpEvent::Data { conn, data } => {
                    self.log.lock().unwrap().push((
                        ctx.now().as_secs_f64(),
                        format!("reply {} bytes", data.len()),
                    ));
                    if self.close_after_reply {
                        ctx.tcp_close(conn);
                    }
                }
                TcpEvent::Closed { .. } => {
                    self.log
                        .lock()
                        .unwrap()
                        .push((ctx.now().as_secs_f64(), "closed".into()));
                }
                TcpEvent::Incoming { .. } => unreachable!("client never accepts"),
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            match self.mode {
                "udp" => ctx.send_udp(self.me, self.server, vec![0; 30]),
                "tcp" => {
                    self.conn = Some(ctx.tcp_connect(self.me, self.server, false));
                }
                "tls" => {
                    self.conn = Some(ctx.tcp_connect(self.me, self.server, true));
                }
                _ => unreachable!(),
            }
        }
    }

    fn build(
        mode: &'static str,
        rtt_ms: u64,
        close_after_reply: bool,
    ) -> (Simulator, Log, Log, HostId, HostId) {
        let topo = Topology::uniform(PathConfig {
            rtt: SimDuration::from_millis(rtt_ms),
            bandwidth_bps: None,
            loss: 0.0,
        });
        let mut sim = Simulator::new(topo, SimConfig::default());
        let slog: Log = Arc::new(Mutex::new(vec![]));
        let clog: Log = Arc::new(Mutex::new(vec![]));
        let server = sim.add_host(
            &["10.0.0.1".parse().unwrap()],
            Box::new(Echo {
                log: slog.clone(),
                idle_override: None,
            }),
        );
        let client = sim.add_host(
            &["10.0.0.2".parse().unwrap()],
            Box::new(Client {
                log: clog.clone(),
                me: sa("10.0.0.2:4000"),
                server: sa("10.0.0.1:53"),
                mode,
                conn: None,
                close_after_reply,
            }),
        );
        sim.schedule_timer(client, SimTime::ZERO, 0);
        (sim, slog, clog, server, client)
    }

    #[test]
    fn udp_round_trip_takes_one_rtt() {
        let (mut sim, slog, clog, server, _) = build("udp", 20, false);
        sim.run();
        let s = slog.lock().unwrap();
        let c = clog.lock().unwrap();
        // Server sees the query at 10 ms, client the reply at 20 ms.
        assert_eq!(s.len(), 1);
        assert!((s[0].0 - 0.010).abs() < 1e-9, "server at {}", s[0].0);
        assert_eq!(c.len(), 1);
        assert!((c[0].0 - 0.020).abs() < 1e-9, "client at {}", c[0].0);
        assert_eq!(sim.stats(server).udp_rx, 1);
        assert_eq!(sim.stats(server).udp_tx, 1);
    }

    #[test]
    fn tcp_query_takes_two_rtt() {
        // 1 RTT handshake + 1 RTT query/response (paper §5.2.4: "a
        // single TCP query would only require 2 RTTs").
        let (mut sim, _slog, clog, server, _) = build("tcp", 20, false);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let c = clog.lock().unwrap();
        let reply = c
            .iter()
            .find(|(_, m)| m.starts_with("reply"))
            .expect("got reply");
        assert!(
            (reply.0 - 0.040).abs() < 1e-6,
            "TCP reply at {} (expected 2 RTT = 40 ms)",
            reply.0
        );
        assert_eq!(sim.stats(server).tcp_accepts, 1);
        assert_eq!(sim.stats(server).tcp_rx, 1);
    }

    #[test]
    fn tls_query_takes_four_rtt() {
        // 1 RTT TCP + 2 RTT TLS + 1 RTT query/response (paper: "a TLS
        // query needs 4 RTTs").
        let (mut sim, _slog, clog, server, _) = build("tls", 20, false);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let c = clog.lock().unwrap();
        let reply = c
            .iter()
            .find(|(_, m)| m.starts_with("reply"))
            .expect("got reply");
        assert!(
            (reply.0 - 0.080).abs() < 1e-6,
            "TLS reply at {} (expected 4 RTT = 80 ms)",
            reply.0
        );
        assert_eq!(sim.stats(server).tls_accepts, 1);
        assert_eq!(sim.stats(server).tls_rx, 1);
    }

    #[test]
    fn second_query_on_open_connection_takes_one_rtt() {
        // Connection reuse is the whole point of DNS-over-TCP with idle
        // timeouts (paper §5.2.4).
        struct Reuser {
            log: Log,
            me: SocketAddr,
            server: SocketAddr,
            conn: Option<ConnId>,
            sent_second: bool,
        }
        impl Host for Reuser {
            fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
            fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
                match event {
                    TcpEvent::Connected { conn } => ctx.tcp_send(conn, vec![1; 30]),
                    TcpEvent::Data { conn, .. } => {
                        self.log
                            .lock()
                            .unwrap()
                            .push((ctx.now().as_secs_f64(), "reply".into()));
                        if !self.sent_second {
                            self.sent_second = true;
                            ctx.tcp_send(conn, vec![2; 30]);
                        }
                    }
                    _ => {}
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                self.conn = Some(ctx.tcp_connect(self.me, self.server, false));
            }
        }
        let topo = Topology::uniform(PathConfig {
            rtt: SimDuration::from_millis(20),
            bandwidth_bps: None,
            loss: 0.0,
        });
        let mut sim = Simulator::new(topo, SimConfig::default());
        let slog: Log = Arc::new(Mutex::new(vec![]));
        let clog: Log = Arc::new(Mutex::new(vec![]));
        sim.add_host(
            &["10.0.0.1".parse().unwrap()],
            Box::new(Echo {
                log: slog,
                idle_override: None,
            }),
        );
        let client = sim.add_host(
            &["10.0.0.2".parse().unwrap()],
            Box::new(Reuser {
                log: clog.clone(),
                me: sa("10.0.0.2:4000"),
                server: sa("10.0.0.1:53"),
                conn: None,
                sent_second: false,
            }),
        );
        sim.schedule_timer(client, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let c = clog.lock().unwrap();
        assert_eq!(c.len(), 2);
        // First reply at 2 RTT = 40 ms, second at 3 RTT = 60 ms: the
        // reused connection needs only 1 more RTT.
        assert!((c[0].0 - 0.040).abs() < 1e-6, "first at {}", c[0].0);
        assert!((c[1].0 - 0.060).abs() < 1e-6, "second at {}", c[1].0);
    }

    #[test]
    fn idle_timeout_closes_and_time_wait_counts() {
        let (mut sim, _slog, clog, server, client) = build("tcp", 2, false);
        sim.run_until(SimTime::from_secs_f64(10.0));
        assert_eq!(sim.stats(server).established, 1);
        assert_eq!(sim.stats(client).established, 1);
        assert_eq!(sim.stats(server).time_wait, 0);

        sim.run_until(SimTime::from_secs_f64(30.0));
        assert_eq!(
            sim.stats(server).established,
            0,
            "server closed the idle conn"
        );
        assert_eq!(sim.stats(client).established, 0);
        assert_eq!(
            sim.stats(server).time_wait,
            1,
            "server (closer) in TIME_WAIT"
        );
        assert_eq!(
            sim.stats(client).time_wait,
            0,
            "passive side has no TIME_WAIT"
        );

        // TIME_WAIT expires after 60 s.
        sim.run_until(SimTime::from_secs_f64(100.0));
        assert_eq!(sim.stats(server).time_wait, 0);
        let c = clog.lock().unwrap();
        assert!(c.iter().any(|(_, m)| m == "closed"));
    }

    #[test]
    fn client_close_puts_client_in_time_wait() {
        let (mut sim, _slog, _clog, server, client) = build("tcp", 2, true);
        sim.run_until(SimTime::from_secs_f64(5.0));
        assert_eq!(sim.stats(client).time_wait, 1);
        assert_eq!(sim.stats(server).time_wait, 0);
        assert_eq!(sim.stats(server).established, 0);
    }

    #[test]
    fn udp_loss_drops_packets() {
        let topo = Topology::uniform(PathConfig {
            rtt: SimDuration::from_millis(1),
            bandwidth_bps: None,
            loss: 1.0,
        });
        let mut sim = Simulator::new(topo, SimConfig::default());
        let log: Log = Arc::new(Mutex::new(vec![]));
        sim.add_host(
            &["10.0.0.1".parse().unwrap()],
            Box::new(Echo {
                log: log.clone(),
                idle_override: None,
            }),
        );
        sim.inject_udp(sa("10.0.0.9:1000"), sa("10.0.0.1:53"), vec![0; 10]);
        sim.run();
        assert!(log.lock().unwrap().is_empty(), "lossy path must drop");
    }

    #[test]
    fn unroutable_udp_is_dropped() {
        let mut sim = Simulator::new(Topology::default(), SimConfig::default());
        sim.inject_udp(sa("1.1.1.1:1"), sa("9.9.9.9:53"), vec![1]);
        assert_eq!(sim.run(), 1); // the delivery event fires, into the void
    }

    #[test]
    fn determinism_same_seed_same_behaviour() {
        let run = || {
            let (mut sim, slog, _clog, server, _) = build("tcp", 7, false);
            sim.run_until(SimTime::from_secs_f64(120.0));
            let events = slog.lock().unwrap().clone();
            (format!("{:?}", sim.stats(server)), events)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn time_monotonic_under_many_events() {
        let (mut sim, _s, _c, _, client) = build("udp", 3, false);
        for i in 1..200u64 {
            sim.schedule_timer(client, SimTime::from_millis(i * 7 % 50), i);
        }
        // run() asserts internally that time never goes backwards.
        sim.run();
        assert!(sim.idle());
    }

    /// `run` makes the check `run_until` and `run_window` make: a timer
    /// scheduled behind the clock is a driver bug, not an event.
    #[test]
    #[should_panic(expected = "time went backwards")]
    fn run_refuses_an_event_behind_the_clock() {
        let (mut sim, _s, _c, _, client) = build("udp", 3, false);
        sim.run_until(SimTime::from_millis(500));
        sim.schedule_timer(client, SimTime::from_millis(100), 1);
        sim.run();
    }

    #[test]
    fn rtt_override_per_pair() {
        let (mut sim, _s, clog, _, _) = build("udp", 10, false);
        let (client, server) = ("10.0.0.2".parse().unwrap(), "10.0.0.1".parse().unwrap());
        let path = PathConfig {
            rtt: SimDuration::from_millis(100),
            bandwidth_bps: None,
            loss: 0.0,
        };
        sim.topology_mut().set_pair(client, server, path);
        sim.topology_mut().set_pair(server, client, path);
        sim.run();
        let c = clog.lock().unwrap();
        assert!(
            (c[0].0 - 0.100).abs() < 1e-9,
            "overridden RTT, reply at {}",
            c[0].0
        );
    }

    #[test]
    fn nagle_coalesces_consecutive_writes() {
        // Server pushes two messages back-to-back with Nagle enabled:
        // the second waits for the ACK of the first and they arrive as
        // a single coalesced segment if a third is queued meanwhile.
        struct Pusher {
            n: usize,
        }
        impl Host for Pusher {
            fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
            fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
                if let TcpEvent::Incoming { conn, .. } = event {
                    for _ in 0..self.n {
                        ctx.tcp_send(conn, vec![7; 100]);
                    }
                }
            }
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        }
        struct Collector {
            log: Log,
            me: SocketAddr,
            server: SocketAddr,
        }
        impl Host for Collector {
            fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
            fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
                if let TcpEvent::Data { data, .. } = event {
                    self.log
                        .lock()
                        .unwrap()
                        .push((ctx.now().as_secs_f64(), format!("chunk {}", data.len())));
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                ctx.tcp_connect(self.me, self.server, false);
            }
        }
        let topo = Topology::uniform(PathConfig {
            rtt: SimDuration::from_millis(20),
            bandwidth_bps: None,
            loss: 0.0,
        });
        let config = SimConfig {
            default_nagle: true,
            ..Default::default()
        };
        let mut sim = Simulator::new(topo, config);
        let log: Log = Arc::new(Mutex::new(vec![]));
        sim.add_host(&["10.0.0.1".parse().unwrap()], Box::new(Pusher { n: 3 }));
        let client = sim.add_host(
            &["10.0.0.2".parse().unwrap()],
            Box::new(Collector {
                log: log.clone(),
                me: sa("10.0.0.2:5000"),
                server: sa("10.0.0.1:53"),
            }),
        );
        sim.schedule_timer(client, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(2.0));
        let chunks = log.lock().unwrap();
        // First write goes out alone; writes 2 and 3 coalesce into one
        // 200-byte chunk after the (delayed) ACK — 2 deliveries total.
        assert_eq!(chunks.len(), 2, "chunks: {chunks:?}");
        assert!(chunks[0].1 == "chunk 100");
        assert!(chunks[1].1 == "chunk 200", "coalesced: {chunks:?}");
        // And the coalesced chunk is delayed by the delayed-ACK timer.
        assert!(chunks[1].0 > chunks[0].0 + 0.039, "delayed: {chunks:?}");
    }

    #[test]
    fn no_nagle_sends_immediately() {
        struct Pusher;
        impl Host for Pusher {
            fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
            fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
                if let TcpEvent::Incoming { conn, .. } = event {
                    ctx.tcp_send(conn, vec![7; 100]);
                    ctx.tcp_send(conn, vec![8; 100]);
                }
            }
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        }
        struct Collector {
            log: Log,
            me: SocketAddr,
            server: SocketAddr,
        }
        impl Host for Collector {
            fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
            fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
                if let TcpEvent::Data { data, .. } = event {
                    self.log
                        .lock()
                        .unwrap()
                        .push((ctx.now().as_secs_f64(), format!("chunk {}", data.len())));
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                ctx.tcp_connect(self.me, self.server, false);
            }
        }
        let topo = Topology::uniform(PathConfig {
            rtt: SimDuration::from_millis(20),
            bandwidth_bps: None,
            loss: 0.0,
        });
        let mut sim = Simulator::new(topo, SimConfig::default()); // nagle off
        let log: Log = Arc::new(Mutex::new(vec![]));
        sim.add_host(&["10.0.0.1".parse().unwrap()], Box::new(Pusher));
        let client = sim.add_host(
            &["10.0.0.2".parse().unwrap()],
            Box::new(Collector {
                log: log.clone(),
                me: sa("10.0.0.2:5000"),
                server: sa("10.0.0.1:53"),
            }),
        );
        sim.schedule_timer(client, SimTime::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(2.0));
        let chunks = log.lock().unwrap();
        assert_eq!(chunks.len(), 2);
        // Both arrive ~together (same dispatch), no delayed-ACK stall.
        assert!((chunks[1].0 - chunks[0].0).abs() < 0.001, "{chunks:?}");
    }
}
