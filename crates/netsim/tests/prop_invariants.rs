//! Property tests for the simulator's global invariants under random
//! workloads: virtual time is monotonic, packet/connection accounting
//! conserves, connection state always drains, and identical seeds give
//! identical worlds.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use ldp_rng::check::{check, Gen};
use netsim::{
    Ctx, Host, HostId, PacketBytes, PathConfig, SimConfig, SimDuration, SimTime, Simulator,
    TcpEvent, Topology,
};

/// A scripted client: at each timer token i, performs action[i].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    Udp(u16),               // send a datagram of this size
    TcpQuery { tls: bool }, // open (or reuse) a connection, send 30 bytes
    Close,                  // close the current connection if any
}

struct ScriptClient {
    me: SocketAddr,
    server: SocketAddr,
    actions: Vec<Action>,
    conn: Option<netsim::ConnId>,
    events: Arc<Mutex<Vec<String>>>,
}

impl Host for ScriptClient {
    fn on_udp(&mut self, _ctx: &mut Ctx<'_>, _f: SocketAddr, _t: SocketAddr, d: PacketBytes) {
        self.events
            .lock()
            .unwrap()
            .push(format!("udp_reply {}", d.len()));
    }
    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Data { .. } => self.events.lock().unwrap().push("tcp_reply".into()),
            TcpEvent::Closed { conn } => {
                if self.conn == Some(conn) {
                    self.conn = None;
                }
                self.events.lock().unwrap().push("closed".into());
            }
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match self.actions.get(token as usize).copied() {
            Some(Action::Udp(size)) => {
                ctx.send_udp(self.me, self.server, vec![0; size as usize]);
            }
            Some(Action::TcpQuery { tls }) => {
                let conn = match self.conn {
                    Some(c) => c,
                    None => {
                        let c = ctx.tcp_connect(self.me, self.server, tls);
                        self.conn = Some(c);
                        c
                    }
                };
                ctx.tcp_send(conn, vec![1; 30]);
            }
            Some(Action::Close) => {
                if let Some(c) = self.conn.take() {
                    ctx.tcp_close(c);
                }
            }
            None => {}
        }
    }
}

/// Echo server host.
struct Echo;
impl Host for Echo {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, d: PacketBytes) {
        ctx.send_udp(to, from, d);
    }
    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        if let TcpEvent::Data { conn, data } = event {
            ctx.tcp_send(conn, data);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
}

fn arb_action(g: &mut Gen) -> Action {
    match g.below(3) {
        0 => Action::Udp(g.range(10..=499) as u16),
        1 => Action::TcpQuery { tls: g.bool() },
        _ => Action::Close,
    }
}

fn arb_scripts(g: &mut Gen, clients: usize, actions: usize) -> Vec<Vec<Action>> {
    g.vec(1..=clients, |g| g.vec(1..=actions, arb_action))
}

fn run_world(
    seed: u64,
    scripts: &[Vec<Action>],
    rtt_ms: u64,
    horizon_s: f64,
) -> (Vec<netsim::HostStats>, Vec<String>) {
    let mut sim = Simulator::new(
        Topology::uniform(PathConfig {
            rtt: SimDuration::from_millis(rtt_ms.max(1)),
            bandwidth_bps: None,
            loss: 0.0,
        }),
        SimConfig {
            default_idle_timeout: Some(SimDuration::from_secs(5)),
            seed,
            ..Default::default()
        },
    );
    let server_addr: SocketAddr = "10.0.0.1:53".parse().unwrap();
    let server = sim.add_host(&[server_addr.ip()], Box::new(Echo));
    let events = Arc::new(Mutex::new(vec![]));
    let mut ids: Vec<HostId> = vec![server];
    for (i, script) in scripts.iter().enumerate() {
        let me: SocketAddr = format!("10.0.1.{}:4000", i + 1).parse().unwrap();
        let id = sim.add_host(
            &[me.ip()],
            Box::new(ScriptClient {
                me,
                server: server_addr,
                actions: script.clone(),
                conn: None,
                events: events.clone(),
            }),
        );
        for (k, _) in script.iter().enumerate() {
            sim.schedule_timer(id, SimTime::from_millis(10 * (k as u64 + 1)), k as u64);
        }
        ids.push(id);
    }
    sim.run_until(SimTime::from_secs_f64(horizon_s));
    let stats: Vec<netsim::HostStats> = ids.iter().map(|&i| sim.stats(i)).collect();
    let evs = events.lock().unwrap().clone();
    (stats, evs)
}

#[test]
fn conservation_and_drain() {
    check(256, |g| {
        let scripts = arb_scripts(g, 3, 7);
        let rtt_ms = g.range(1..=49);
        // Long horizon: all idle timeouts (5 s) and TIME_WAITs (60 s)
        // expire before we look.
        let (stats, _) = run_world(1, &scripts, rtt_ms, 300.0);
        let server = stats[0];
        // Conservation: everything clients sent, the server received,
        // and vice versa (no loss configured).
        let client_udp_tx: u64 = stats[1..].iter().map(|s| s.udp_tx).sum();
        let client_udp_rx: u64 = stats[1..].iter().map(|s| s.udp_rx).sum();
        assert_eq!(server.udp_rx, client_udp_tx);
        assert_eq!(server.udp_tx, client_udp_rx);
        assert_eq!(server.udp_tx, server.udp_rx, "echo answers everything");
        let client_tcp_tx: u64 = stats[1..].iter().map(|s| s.tcp_tx + s.tls_tx).sum();
        assert_eq!(server.tcp_rx + server.tls_rx, client_tcp_tx);
        // Drain: no connection state survives the horizon.
        for s in &stats {
            assert_eq!(s.established, 0, "all connections closed");
            assert_eq!(s.time_wait, 0, "all TIME_WAITs expired");
        }
    });
}

#[test]
fn determinism() {
    check(256, |g| {
        let scripts = arb_scripts(g, 2, 5);
        let a = run_world(7, &scripts, 10, 200.0);
        let b = run_world(7, &scripts, 10, 200.0);
        assert_eq!(format!("{:?}", a.0), format!("{:?}", b.0));
        assert_eq!(a.1, b.1);
    });
}

#[test]
fn replies_scale_with_queries() {
    check(256, |g| {
        let n_udp = g.range(1..=19);
        let rtt_ms = g.range(1..=39);
        let script = vec![Action::Udp(100); n_udp as usize];
        let (stats, events) = run_world(3, &[script], rtt_ms, 100.0);
        assert_eq!(stats[0].udp_rx, n_udp);
        let replies = events.iter().filter(|e| e.starts_with("udp_reply")).count();
        assert_eq!(replies, n_udp as usize);
    });
}

#[test]
fn time_wait_only_on_closer_side() {
    for tls in [false, true] {
        // One query then idle: the server (idle timeout 5 s) closes and
        // must be the only side holding TIME_WAIT.
        let script = vec![Action::TcpQuery { tls }];
        let (stats, _) = run_world(4, std::slice::from_ref(&script), 5, 8.0);
        assert_eq!(stats[0].time_wait, 1, "server closed → server TIME_WAITs");
        assert_eq!(stats[1].time_wait, 0);
        assert_eq!(stats[0].established, 0);
        assert_eq!(stats[1].established, 0);
    }
}
