//! Pool hygiene: a packet whose bytes sit in a buffer from a
//! simulator's pool delivers exactly what a packet built fresh at the
//! same send delivers. Generated send scripts — lengths from 0 to 8 KiB
//! (some past the pool's byte cap), UDP and Nagle-coalesced TCP, bytes
//! handed over as a slice, as a `Vec` or as a received packet forwarded,
//! received handles kept across callbacks — run three ways: with
//! `PacketBytes::from(Vec)` at every send (no pool involved), pooled on
//! one `Simulator`, and pooled on a 2-shard `ShardedSimulator`, where a
//! datagram that crosses shards is copied into the receiver's pool and
//! its original dropped on the sender's thread. All three must log the
//! same deliveries, byte for byte.
//!
//! A reused buffer that was not cleared changes what is delivered. A
//! buffer recycled while another handle still reads it cannot be written
//! in safe Rust, so that mistake shows as the pool's books not
//! balancing: once no packet is alive, every buffer the pool made is on
//! its free list or was let go over a cap, each once.

use std::collections::BTreeMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use ldp_rng::check::{check, Gen};
use ldp_shard::{ShardPlan, ShardedSimulator};
use netsim::{
    ConnId, Ctx, Host, IntoPacket, PacketBytes, PathConfig, SimConfig, SimDriver, SimDuration,
    SimTime, Simulator, TcpEvent, Topology, POOL_BUFFERS, POOL_BUFFER_BYTES,
};

/// Hosts 0 and 2 land on shard 0 of a round-robin plan, 1 and 3 on
/// shard 1; a TCP dial goes to the host two along, on the same shard.
const HOSTS: usize = 4;

/// Timer token of every host's last step: drop what it kept.
const RELEASE: u64 = u64::MAX;

fn sock(host: usize) -> SocketAddr {
    SocketAddr::new(IpAddr::from([10, 7, 0, host as u8 + 1]), 53)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum How {
    Slice,
    Vec,
    /// A packet this host kept, or bytes if it keeps none.
    Forward,
}

#[derive(Debug, Clone)]
struct Send {
    to: usize,
    tcp: bool,
    len: usize,
    seed: u8,
    how: How,
}

impl Send {
    /// Every byte differs from its neighbour, so stale bytes left in a
    /// buffer show.
    fn bytes(&self) -> Vec<u8> {
        (0..self.len)
            .map(|i| self.seed.wrapping_add(i as u8))
            .collect()
    }
}

/// Per host: the times of its steps (ms) and what each step sends.
type Script = Vec<Vec<(u64, Vec<Send>)>>;

fn gen_script(g: &mut Gen) -> Script {
    (0..HOSTS)
        .map(|me| {
            g.vec(1..=5, |g| {
                let at = g.range(0..=30);
                let sends = g.vec(0..=4, |g| {
                    let tcp = g.below(3) == 0;
                    let to = if tcp {
                        (me + 2) % HOSTS
                    } else {
                        (me + 1 + g.size(0..=HOSTS - 2)) % HOSTS
                    };
                    let len = match g.below(6) {
                        0 => 0,
                        1 => g.size(POOL_BUFFER_BYTES + 1..=8192),
                        2 => g.size(1..=64),
                        _ => g.size(0..=POOL_BUFFER_BYTES),
                    };
                    let how = *g.pick(&[How::Slice, How::Vec, How::Forward]);
                    let seed = g.u8();
                    Send {
                        to,
                        tcp,
                        len,
                        seed,
                        how,
                    }
                });
                (at, sends)
            })
        })
        .collect()
}

/// One delivery: virtual time, the sender (a host for a datagram, a
/// connection for a stream) and the bytes.
type Seen = (u64, u64, Vec<u8>);

struct Scripted {
    me: usize,
    steps: Vec<Vec<Send>>,
    /// Whether bytes are handed to the simulator to pool, or wrapped in
    /// a fresh `PacketBytes` first.
    pooled: bool,
    kept: Vec<PacketBytes>,
    conns: BTreeMap<usize, ConnId>,
    log: Arc<Mutex<Vec<Seen>>>,
}

enum Dest {
    Udp(SocketAddr, SocketAddr),
    Tcp(ConnId),
}

fn emit(ctx: &mut Ctx<'_>, dest: Dest, data: impl IntoPacket) {
    match dest {
        Dest::Udp(from, to) => ctx.send_udp(from, to, data),
        Dest::Tcp(conn) => ctx.tcp_send(conn, data),
    }
}

impl Scripted {
    /// Log a delivery, and keep the handle when its first byte is odd.
    fn seen(&mut self, at: SimTime, from: u64, data: PacketBytes) {
        self.log
            .lock()
            .unwrap()
            .push((at.as_nanos(), from, data.to_vec()));
        if data.first().is_some_and(|b| b & 1 == 1) {
            self.kept.push(data);
        }
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, send: &Send, nth: usize) {
        let (from, to) = (sock(self.me), sock(send.to));
        let dest = if send.tcp {
            let conn = *self
                .conns
                .entry(send.to)
                .or_insert_with(|| ctx.tcp_connect(from, to, false));
            Dest::Tcp(conn)
        } else {
            Dest::Udp(from, to)
        };
        let forward = match send.how {
            How::Forward if !self.kept.is_empty() => Some(self.kept[nth % self.kept.len()].clone()),
            _ => None,
        };
        match (self.pooled, forward) {
            (false, Some(p)) => emit(ctx, dest, PacketBytes::from(p.to_vec())),
            (false, None) => emit(ctx, dest, PacketBytes::from(send.bytes())),
            (true, Some(p)) => emit(ctx, dest, p),
            (true, None) if send.how == How::Vec => emit(ctx, dest, send.bytes()),
            (true, None) => emit(ctx, dest, send.bytes().as_slice()),
        }
    }
}

impl Host for Scripted {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, _: SocketAddr, data: PacketBytes) {
        let sender = (0..HOSTS).position(|h| sock(h).ip() == from.ip());
        self.seen(ctx.now(), sender.map_or(u64::MAX, |h| h as u64), data);
    }

    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Data { conn, data } => self.seen(ctx.now(), conn.0, data),
            TcpEvent::Closed { conn } => self.conns.retain(|_, c| *c != conn),
            TcpEvent::Incoming { .. } | TcpEvent::Connected { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == RELEASE {
            self.kept.clear();
            return;
        }
        let step = std::mem::take(&mut self.steps[token as usize]);
        for (nth, send) in step.iter().enumerate() {
            self.send(ctx, send, nth);
        }
    }
}

fn topology() -> Topology {
    Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(2)))
}

fn config() -> SimConfig {
    SimConfig {
        default_nagle: true,
        default_idle_timeout: Some(SimDuration::from_secs(1)),
        time_wait: SimDuration::from_secs(2),
        ..SimConfig::default()
    }
}

/// Run `script` to the end on `sim`; every host's deliveries.
fn run(sim: &mut impl SimDriver, script: &Script, pooled: bool) -> Vec<Vec<Seen>> {
    let logs: Vec<Arc<Mutex<Vec<Seen>>>> = (0..HOSTS).map(|_| Arc::default()).collect();
    for (me, steps) in script.iter().enumerate() {
        let host = Scripted {
            me,
            steps: steps.iter().map(|(_, sends)| sends.clone()).collect(),
            pooled,
            kept: Vec::new(),
            conns: BTreeMap::new(),
            log: logs[me].clone(),
        };
        assert_eq!(sim.add_host(&[sock(me).ip()], Box::new(host)), me);
    }
    for (me, steps) in script.iter().enumerate() {
        for (k, (at, _)) in steps.iter().enumerate() {
            sim.schedule_timer(me, SimTime::from_millis(*at), k as u64);
        }
        // Well after the last delivery and connection close.
        sim.schedule_timer(me, SimTime::from_millis(5_000), RELEASE);
    }
    sim.run();
    logs.iter().map(|l| l.lock().unwrap().clone()).collect()
}

/// The first delivery two runs disagree on, for a readable failure.
fn first_difference(got: &[Vec<Seen>], want: &[Vec<Seen>]) -> String {
    for (host, (g, w)) in got.iter().zip(want).enumerate() {
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            if a != b {
                let show = |s: &Seen| format!("t={} from={} {} bytes", s.0, s.1, s.2.len());
                return format!("host {host} delivery {i}: {} vs {}", show(a), show(b));
            }
        }
        if g.len() != w.len() {
            return format!("host {host}: {} deliveries vs {}", g.len(), w.len());
        }
    }
    "no difference".into()
}

#[test]
fn pooled_packets_deliver_what_fresh_ones_do() {
    check(128, |g| {
        let script = gen_script(g);
        let want = run(&mut Simulator::new(topology(), config()), &script, false);

        let mut plain = Simulator::new(topology(), config());
        let got = run(&mut plain, &script, true);
        assert!(
            got == want,
            "one simulator: {}",
            first_difference(&got, &want)
        );
        let stats = plain.pool_stats();
        assert_eq!(
            stats.made,
            stats.free as u64 + stats.released,
            "with no packet alive, every buffer is free or let go, once: {stats:?}"
        );
        assert!(stats.free <= POOL_BUFFERS, "{stats:?}");
        assert!(stats.largest_free <= POOL_BUFFER_BYTES, "{stats:?}");

        let mut sharded = ShardedSimulator::new(topology(), config(), ShardPlan::round_robin(2));
        let got = run(&mut sharded, &script, true);
        assert!(got == want, "two shards: {}", first_difference(&got, &want));
    });
}
