//! Regression: the simulator is bit-for-bit deterministic (rule D2).
//!
//! Two runs with the same seed must produce *byte-identical* event
//! orderings — the property every experiment in the paper leans on for
//! reproducibility, and the one a hash-ordered event queue silently
//! breaks. The scenario exercises the pieces determinism could leak
//! from: many hosts (address-map order), lossy paths (RNG draws), TCP
//! handshakes and timers (event-queue tie-breaking).

use std::fmt::Write as _;
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use netsim::{
    Ctx, Host, PacketBytes, PathConfig, SimConfig, SimDuration, SimTime, Simulator, TcpEvent,
    Topology,
};

type Log = Arc<Mutex<String>>;

/// A host that logs every event it sees (with the sim clock) and keeps
/// traffic flowing: echoes UDP, answers TCP data, re-arms a timer.
struct Chatter {
    name: &'static str,
    me: SocketAddr,
    peers: Vec<SocketAddr>,
    rounds: u32,
    log: Log,
}

impl Chatter {
    fn note(&self, ctx: &Ctx<'_>, what: &str) {
        let mut log = self.log.lock().expect("log");
        writeln!(log, "{} {} {}", ctx.now().as_nanos(), self.name, what).expect("write log");
    }
}

impl Host for Chatter {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, _to: SocketAddr, data: PacketBytes) {
        self.note(ctx, &format!("udp from={from} len={}", data.len()));
        // Echo once (queries have even length, echoes odd).
        if data.len().is_multiple_of(2) {
            let mut reply = data.to_vec();
            reply.push(0xAA);
            ctx.send_udp(self.me, from, reply);
        }
    }

    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn } => {
                self.note(ctx, &format!("connected {conn:?}"));
                ctx.tcp_send(conn, vec![1, 2, 3, 4]);
            }
            TcpEvent::Incoming { conn, peer, .. } => {
                self.note(ctx, &format!("incoming {conn:?} peer={peer}"));
            }
            TcpEvent::Data { conn, data } => {
                self.note(ctx, &format!("data {conn:?} len={}", data.len()));
                if data.len() < 16 {
                    let mut more = data.to_vec();
                    more.push(0xBB);
                    ctx.tcp_send(conn, more);
                } else {
                    ctx.tcp_close(conn);
                }
            }
            TcpEvent::Closed { conn } => self.note(ctx, &format!("closed {conn:?}")),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.note(ctx, &format!("timer {token}"));
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        // Fan out UDP to every peer and open one TCP connection.
        for (i, peer) in self.peers.iter().enumerate() {
            ctx.send_udp(self.me, *peer, vec![0u8; 2 + 2 * i]);
        }
        if let Some(peer) = self.peers.first() {
            let _ = ctx.tcp_connect(self.me, *peer, false);
        }
        ctx.set_timer(SimDuration::from_millis(7), token + 1);
    }
}

/// Run the scenario once and return the full event transcript.
fn run_once(seed: u64) -> String {
    let mut topo = Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(2)));
    let log: Log = Arc::new(Mutex::new(String::new()));

    let addrs: Vec<IpAddr> = (1..=4u8)
        .map(|i| format!("10.0.0.{i}").parse().expect("addr"))
        .collect();
    let socks: Vec<SocketAddr> = addrs.iter().map(|ip| SocketAddr::new(*ip, 5300)).collect();

    // Lossy asymmetric paths so RNG draws shape the run.
    let mut lossy = PathConfig::with_rtt(SimDuration::from_millis(5));
    lossy.loss = 0.3;
    topo.set_pair(addrs[0], addrs[2], lossy);
    topo.set_from(addrs[3], lossy);

    let config = SimConfig {
        seed,
        time_wait: SimDuration::from_millis(50),
        ..Default::default()
    };
    let mut sim = Simulator::new(topo, config);

    let names = ["alpha", "bravo", "charlie", "delta"];
    for (i, name) in names.iter().enumerate() {
        let peers = socks
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, s)| *s)
            .collect();
        let id = sim.add_host(
            &[addrs[i]],
            Box::new(Chatter {
                name,
                me: socks[i],
                peers,
                rounds: 3,
                log: log.clone(),
            }),
        );
        sim.schedule_timer(id, SimTime::ZERO, 0);
    }

    let events = sim.run_until(SimTime::from_secs_f64(1.0));
    let transcript = log.lock().expect("log").clone();
    assert!(events > 50, "scenario is non-trivial ({events} events)");
    transcript
}

/// Each seed in the sweep shapes a different loss/timer history.
#[test]
fn same_seed_runs_are_byte_identical() {
    for seed in [1u64, 7, 42, 1337, 0xdead_beef] {
        let a = run_once(seed);
        let b = run_once(seed);
        assert!(!a.is_empty());
        assert_eq!(
            a.as_bytes(),
            b.as_bytes(),
            "same-seed runs diverged at seed {seed}"
        );
    }
}

#[test]
fn seed_reaches_the_loss_model() {
    // Different seeds must be able to produce different histories —
    // otherwise the "determinism" above would be vacuous (e.g. the RNG
    // never consulted). With 30% loss on two paths across three rounds,
    // identical transcripts for all of these seeds would be astronomical.
    let base = run_once(1);
    let diverged = (2..=8u64).any(|seed| run_once(seed) != base);
    assert!(diverged, "loss draws ignore the seed");
}
