//! Regression tests for the TCP connection model's close/timeout
//! semantics: an idle timeout armed while the handshake is still in
//! flight must survive to fire after establishment, and close must
//! never discard data sitting in the send buffer (graceful close).

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use netsim::{
    ConnId, Ctx, Host, HostFault, PacketBytes, PathConfig, SimConfig, SimDuration, SimTime,
    Simulator, TcpEvent, Topology,
};

type Log = Arc<Mutex<Vec<String>>>;

fn sa(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

/// A passive server that records data sizes and close events.
struct Recorder {
    log: Log,
}

impl Host for Recorder {
    fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Incoming { .. } => self.log.lock().unwrap().push("incoming".into()),
            TcpEvent::Data { data, .. } => {
                self.log
                    .lock()
                    .unwrap()
                    .push(format!("data {}", data.len()));
            }
            TcpEvent::Closed { .. } => self.log.lock().unwrap().push("closed".into()),
            TcpEvent::Connected { .. } => {}
        }
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
}

/// Idle timeout armed in the same callback as `tcp_connect` — while the
/// connection is still mid-handshake. It used to fire once during
/// `Connecting`/`TlsHandshake`, bail without re-arming, and silently
/// disable the timeout; now it re-arms and must eventually close the
/// idle connection.
#[test]
fn idle_timeout_set_during_handshake_still_fires() {
    struct Opener {
        log: Log,
        me: SocketAddr,
        server: SocketAddr,
    }
    impl Host for Opener {
        fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
        fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Connected { .. } => self.log.lock().unwrap().push("connected".into()),
                TcpEvent::Closed { .. } => self.log.lock().unwrap().push("closed".into()),
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
            // TLS over a slow path: the handshake takes 3 RTT = 300 ms,
            // well past the 120 ms idle timeout armed right here.
            let conn = ctx.tcp_connect(self.me, self.server, true);
            ctx.tcp_set_idle_timeout(conn, Some(SimDuration::from_millis(120)));
        }
    }

    let topo = Topology::uniform(PathConfig {
        rtt: SimDuration::from_millis(100),
        bandwidth_bps: None,
        loss: 0.0,
    });
    let config = SimConfig {
        // No server-arm at establishment: the only arming is the one in
        // the client callback above, so the regression is isolated.
        default_idle_timeout: None,
        ..Default::default()
    };
    let mut sim = Simulator::new(topo, config);
    let slog: Log = Arc::new(Mutex::new(vec![]));
    let clog: Log = Arc::new(Mutex::new(vec![]));
    let server = sim.add_host(
        &["10.0.0.1".parse().unwrap()],
        Box::new(Recorder { log: slog.clone() }),
    );
    let client = sim.add_host(
        &["10.0.0.2".parse().unwrap()],
        Box::new(Opener {
            log: clog.clone(),
            me: sa("10.0.0.2:4000"),
            server: sa("10.0.0.1:853"),
        }),
    );
    sim.schedule_timer(client, SimTime::ZERO, 0);
    // Far past the idle close (~0.5 s) but before the 60 s TIME_WAIT
    // expires, so the closer is still visible in the stats.
    sim.run_until(SimTime::from_secs_f64(10.0));

    let c = clog.lock().unwrap();
    assert!(
        c.contains(&"connected".into()),
        "handshake completed: {c:?}"
    );
    assert!(
        c.contains(&"closed".into()),
        "idle timeout armed mid-handshake never fired: {c:?}"
    );
    assert_eq!(sim.stats(server).established, 0, "server side closed");
    assert_eq!(sim.stats(client).established, 0, "client side closed");
    assert_eq!(
        sim.stats(server).time_wait,
        1,
        "idle close initiated by the server"
    );
}

/// Close immediately after a Nagle-buffered write: the buffered write
/// must be flushed (and delivered) before the FIN, not discarded.
#[test]
fn close_after_send_delivers_nagle_buffered_data() {
    struct Burster {
        conn: Option<ConnId>,
        me: SocketAddr,
        server: SocketAddr,
    }
    impl Host for Burster {
        fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
        fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            if let TcpEvent::Connected { conn } = event {
                // First write transmits; the second hits the Nagle
                // buffer (unacked bytes in flight); close right away.
                ctx.tcp_send(conn, vec![1u8; 100]);
                ctx.tcp_send(conn, vec![2u8; 50]);
                ctx.tcp_close(conn);
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
    let config = SimConfig {
        default_nagle: true,
        ..Default::default()
    };
    let mut sim = Simulator::new(topo, config);
    let slog: Log = Arc::new(Mutex::new(vec![]));
    sim.add_host(
        &["10.0.0.1".parse().unwrap()],
        Box::new(Recorder { log: slog.clone() }),
    );
    let client = sim.add_host(
        &["10.0.0.2".parse().unwrap()],
        Box::new(Burster {
            conn: None,
            me: sa("10.0.0.2:4000"),
            server: sa("10.0.0.1:53"),
        }),
    );
    sim.schedule_timer(client, SimTime::ZERO, 0);
    sim.run_until(SimTime::from_secs_f64(5.0));

    let s = slog.lock().unwrap();
    let datas: Vec<&String> = s.iter().filter(|m| m.starts_with("data")).collect();
    assert_eq!(
        datas,
        vec!["data 100", "data 50"],
        "buffered write lost or reordered: {s:?}"
    );
    // The data arrived before the close, not after.
    let close_at = s
        .iter()
        .position(|m| m == "closed")
        .expect("server saw close");
    let last_data = s.iter().rposition(|m| m.starts_with("data")).unwrap();
    assert!(last_data < close_at, "FIN overtook buffered data: {s:?}");
}

/// Write-then-close issued while the handshake is still in flight: the
/// close is deferred until establishment so the queued write goes out
/// first (what closing a connecting socket does on a real stack).
#[test]
fn close_while_connecting_delivers_queued_write() {
    struct FireAndForget {
        me: SocketAddr,
        server: SocketAddr,
    }
    impl Host for FireAndForget {
        fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
        fn on_tcp_event(&mut self, _: &mut Ctx<'_>, _: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
            let conn = ctx.tcp_connect(self.me, self.server, false);
            ctx.tcp_send(conn, vec![9u8; 80]);
            ctx.tcp_close(conn);
        }
    }

    let topo = Topology::uniform(PathConfig {
        rtt: SimDuration::from_millis(10),
        bandwidth_bps: None,
        loss: 0.0,
    });
    let mut sim = Simulator::new(topo, SimConfig::default());
    let slog: Log = Arc::new(Mutex::new(vec![]));
    let server = sim.add_host(
        &["10.0.0.1".parse().unwrap()],
        Box::new(Recorder { log: slog.clone() }),
    );
    let client = sim.add_host(
        &["10.0.0.2".parse().unwrap()],
        Box::new(FireAndForget {
            me: sa("10.0.0.2:4000"),
            server: sa("10.0.0.1:53"),
        }),
    );
    sim.schedule_timer(client, SimTime::ZERO, 0);
    sim.run_until(SimTime::from_secs_f64(5.0));

    let s = slog.lock().unwrap();
    assert!(
        s.contains(&"data 80".into()),
        "write queued before close was discarded: {s:?}"
    );
    assert!(
        s.contains(&"closed".into()),
        "connection never closed: {s:?}"
    );
    assert_eq!(sim.stats(server).established, 0);
    assert_eq!(sim.stats(client).time_wait, 1, "client initiated the close");
}

/// Dialing a crashed listener (or an address nobody listens on) is not
/// a silent black hole: the dialer hears `Closed` one RTT later — the
/// refusal a real stack surfaces — so reconnect/backoff logic has an
/// event to react to.
#[test]
fn dial_to_dead_address_is_refused() {
    struct Dialer {
        log: Log,
        me: SocketAddr,
        server: SocketAddr,
    }
    impl Host for Dialer {
        fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
        fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Closed { .. } => {
                    let t = ctx.now().as_secs_f64();
                    self.log.lock().unwrap().push(format!("closed@{t:.3}"));
                }
                TcpEvent::Connected { .. } => self.log.lock().unwrap().push("connected".into()),
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            // Token 0: dial the (crashed) server. Token 1: dial an
            // address with no listener at all.
            let to = if token == 0 {
                self.server
            } else {
                sa("10.0.0.99:53")
            };
            ctx.tcp_connect(self.me, to, false);
        }
    }

    let topo = Topology::uniform(PathConfig {
        rtt: SimDuration::from_millis(100),
        bandwidth_bps: None,
        loss: 0.0,
    });
    let mut sim = Simulator::new(topo, SimConfig::default());
    let slog: Log = Arc::new(Mutex::new(vec![]));
    let clog: Log = Arc::new(Mutex::new(vec![]));
    sim.add_host(
        &["10.0.0.1".parse().unwrap()],
        Box::new(Recorder { log: slog.clone() }),
    );
    let client = sim.add_host(
        &["10.0.0.2".parse().unwrap()],
        Box::new(Dialer {
            log: clog.clone(),
            me: sa("10.0.0.2:4000"),
            server: sa("10.0.0.1:53"),
        }),
    );
    sim.schedule_host_fault(SimTime::ZERO, "10.0.0.1".parse().unwrap(), HostFault::Crash);
    sim.schedule_timer(client, SimTime::ZERO, 0);
    sim.schedule_timer(client, SimTime::ZERO, 1);
    sim.run_until(SimTime::from_secs_f64(2.0));

    let c = clog.lock().unwrap();
    assert_eq!(
        *c,
        vec!["closed@0.100".to_string(), "closed@0.100".to_string()],
        "both dials must be refused after exactly one RTT"
    );
    assert!(
        slog.lock().unwrap().is_empty(),
        "the dead server heard nothing"
    );
}
