//! The sharded/single equivalence matrix (ISSUE 8 acceptance): for the
//! same seed and workload, a [`ShardedSimulator`] over 1, 2 or 8
//! shards produces a **byte-identical** merged transcript — per-host
//! observation logs, per-host stats and the global event count — to a
//! plain single-shard [`Simulator`].
//!
//! The workload is a UDP relay ring with staggered and colliding
//! timers (exercising time-tie lane ordering), base path loss
//! (per-lane RNG streams), a stateless hash-driven fault injector
//! (drops, delay spikes, duplicates), driver injections between run
//! phases, and a crash/restart — everything the conservative exchange
//! and the lane-key discipline must preserve.

use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use ldp_shard::{ShardPlan, ShardedSimulator};
use netsim::{
    Ctx, FaultInjector, FnInjector, Host, PacketBytes, PacketFate, PathConfig, SimConfig,
    SimDriver, SimDuration, SimTime, Simulator, TcpEvent, Topology, WireKind,
};

type Log = Arc<Mutex<String>>;

/// A host that relays UDP around a ring: each receipt is logged and
/// forwarded to the next host with one less payload byte (a TTL), so a
/// single seed timer produces a chain of cross-host hops.
struct Relay {
    me: SocketAddr,
    next: SocketAddr,
    log: Log,
}

impl Host for Relay {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, data: PacketBytes) {
        if let Ok(mut log) = self.log.lock() {
            log.push_str(&format!(
                "{} rx {}->{} {}B\n",
                ctx.now().as_nanos(),
                from,
                to,
                data.len()
            ));
        }
        if data.len() > 1 {
            ctx.send_udp(self.me, self.next, vec![0u8; data.len() - 1]);
        }
    }

    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Ok(mut log) = self.log.lock() {
            log.push_str(&format!("{} timer {}\n", ctx.now().as_nanos(), token));
        }
        ctx.send_udp(self.me, self.next, vec![0u8; 4 + token as usize]);
    }
}

const N: usize = 8;

fn addr(i: usize) -> IpAddr {
    format!("10.0.0.{}", i + 1).parse().expect("valid test ip")
}

fn sock(i: usize) -> SocketAddr {
    SocketAddr::new(addr(i), 5300)
}

fn topology(loss: f64) -> Topology {
    let mut topo = Topology::uniform(PathConfig {
        rtt: SimDuration::from_millis(10),
        bandwidth_bps: Some(10_000_000),
        loss,
    });
    // A couple of faster pairs so windows are bounded by a genuinely
    // minimal link, not the uniform default.
    topo.set_symmetric(
        addr(0),
        addr(1),
        PathConfig {
            rtt: SimDuration::from_millis(4),
            bandwidth_bps: Some(10_000_000),
            loss,
        },
    );
    topo.set_symmetric(
        addr(3),
        addr(4),
        PathConfig {
            rtt: SimDuration::from_millis(6),
            bandwidth_bps: None,
            loss,
        },
    );
    topo
}

fn config() -> SimConfig {
    SimConfig {
        seed: 0xBADC0FFEE,
        ..SimConfig::default()
    }
}

/// SplitMix-style stateless mixer for injector draws: every replica
/// computes the same fate from the same packet, no shared state.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_injector() -> Box<dyn FaultInjector> {
    Box::new(FnInjector(
        |now: SimTime, src: SocketAddr, dst: SocketAddr, _kind: WireKind, bytes: usize| {
            let h = mix(now.as_nanos() ^ mix(u64::from(src.port())) ^ bytes as u64)
                ^ mix(u64::from(dst.port()));
            let mut fate = PacketFate::DELIVER;
            match h % 11 {
                0 => fate.drop = true,
                1 => fate.extra_delay = SimDuration::from_micros(h % 900),
                2 => fate.duplicate = Some(SimDuration::from_micros(100 + h % 500)),
                _ => {}
            }
            fate
        },
    ))
}

/// Run the full scenario on either simulator — one driver call
/// sequence through [`SimDriver`] — and return the merged transcript:
/// per-host logs in global host order, then per-host stats, then the
/// per-phase event counts.
fn scenario(mut sim: impl SimDriver, faults: bool) -> String {
    let logs: Vec<Log> = (0..N)
        .map(|_| Arc::new(Mutex::new(String::new())))
        .collect();
    for (i, log) in logs.iter().enumerate() {
        let host = sim.add_host(
            &[addr(i)],
            Box::new(Relay {
                me: sock(i),
                next: sock((i + 1) % N),
                log: log.clone(),
            }),
        );
        assert_eq!(host, i);
    }
    if faults {
        sim.set_fault_injectors(|_shard| hash_injector());
    }

    // Staggered seeds plus deliberate collisions: every host fires at
    // 5 ms (same instant, different lanes) and a few fire again at
    // 7 ms, so time ties are broken purely by lane.
    sim.schedule_timer(0, SimTime::ZERO, 24);
    for i in 0..N {
        sim.schedule_timer(i, SimTime::from_millis(5), 12);
    }
    for i in 0..4 {
        sim.schedule_timer(i, SimTime::from_millis(7), 6);
    }
    sim.inject_udp(sock(5), sock(2), vec![7u8; 16]);
    // From an unregistered source straight into the ring, and into the
    // void (the unroutable delivery must still count, once, somewhere).
    sim.inject_udp("192.0.2.1:9999".parse().expect("ip"), sock(6), vec![1u8; 9]);
    sim.inject_udp(
        sock(1),
        "198.51.100.7:53".parse().expect("ip"),
        vec![2u8; 5],
    );

    let c1 = sim.run_until(SimTime::from_millis(40));

    // Mid-run driver actions between bounded phases.
    sim.crash_now(addr(3));
    sim.inject_udp(sock(0), sock(3), vec![3u8; 12]); // into the crashed host
    let c2 = sim.run_until(SimTime::from_millis(80));
    sim.restart_now(addr(3));
    for i in 0..N {
        sim.schedule_timer(i, SimTime::from_millis(85), 10);
    }
    let c3 = sim.run_until(SimTime::from_millis(400));

    let mut out = String::new();
    for (i, log) in logs.iter().enumerate() {
        out.push_str(&format!("== host {i}\n"));
        if let Ok(log) = log.lock() {
            out.push_str(&log);
        }
    }
    for i in 0..N {
        out.push_str(&format!("stats {i}: {:?}\n", sim.stats(i)));
    }
    out.push_str(&format!("counts: {c1} {c2} {c3}\n"));
    out
}

fn single(faults: bool) -> String {
    let sim = Simulator::new(topology(if faults { 0.2 } else { 0.0 }), config());
    scenario(sim, faults)
}

fn sharded(shards: u32, faults: bool) -> String {
    let sim = ShardedSimulator::new(
        topology(if faults { 0.2 } else { 0.0 }),
        config(),
        ShardPlan::round_robin(shards),
    );
    scenario(sim, faults)
}

#[test]
fn lossless_matrix_1_2_8() {
    let reference = single(false);
    assert!(
        reference.contains("rx"),
        "workload produced traffic:\n{reference}"
    );
    for shards in [1, 2, 8] {
        let got = sharded(shards, false);
        assert_eq!(
            got, reference,
            "sharded({shards}) transcript differs from single-shard"
        );
    }
}

#[test]
fn faulty_lossy_matrix_1_2_8() {
    // Base loss (per-lane RNG streams) + hash-injector drops, delay
    // spikes and duplicates — all draws must be placement-invariant.
    let reference = single(true);
    assert!(
        reference.contains("rx"),
        "lossy workload still delivers:\n{reference}"
    );
    assert_ne!(
        reference,
        single(false),
        "faults visibly change the transcript"
    );
    for shards in [1, 2, 8] {
        let got = sharded(shards, true);
        assert_eq!(
            got, reference,
            "sharded({shards}) transcript differs under faults"
        );
    }
}

#[test]
fn sharded_runs_are_repeatable() {
    let a = sharded(8, true);
    let b = sharded(8, true);
    assert_eq!(a, b, "same seed, same shard count => identical bytes");
}

/// An echo pair doing one TCP exchange, pinned to one shard, while the
/// UDP ring churns across shards around them.
struct TcpEcho {
    log: Log,
}

impl Host for TcpEcho {
    fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Incoming { .. } => {}
            TcpEvent::Data { conn, data } => {
                if let Ok(mut log) = self.log.lock() {
                    log.push_str(&format!("{} echo {}B\n", ctx.now().as_nanos(), data.len()));
                }
                ctx.tcp_send(conn, data);
            }
            TcpEvent::Closed { .. } | TcpEvent::Connected { .. } => {}
        }
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
}

struct TcpDialer {
    me: SocketAddr,
    server: SocketAddr,
    log: Log,
}

impl Host for TcpDialer {
    fn on_udp(&mut self, _: &mut Ctx<'_>, _: SocketAddr, _: SocketAddr, _: PacketBytes) {}
    fn on_tcp_event(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn } => ctx.tcp_send(conn, vec![9u8; 33]),
            TcpEvent::Data { conn, data } => {
                if let Ok(mut log) = self.log.lock() {
                    log.push_str(&format!("{} reply {}B\n", ctx.now().as_nanos(), data.len()));
                }
                ctx.tcp_close(conn);
            }
            TcpEvent::Closed { .. } | TcpEvent::Incoming { .. } => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
        ctx.tcp_connect(self.me, self.server, false);
    }
}

fn tcp_scenario(mut sim: impl SimDriver) -> String {
    let log: Log = Arc::new(Mutex::new(String::new()));
    let ring: Vec<Log> = (0..2)
        .map(|_| Arc::new(Mutex::new(String::new())))
        .collect();
    // Hosts 0 and 1: the TCP pair (round-robin lands both on distinct
    // shards at >1 shards, hence the pins in `tcp_sharded`).
    sim.add_host(&[addr(0)], Box::new(TcpEcho { log: log.clone() }));
    sim.add_host(
        &[addr(1)],
        Box::new(TcpDialer {
            me: sock(1),
            server: SocketAddr::new(addr(0), 53),
            log: log.clone(),
        }),
    );
    // Hosts 2 and 3: a two-node UDP ring crossing shards.
    for i in 2..4 {
        sim.add_host(
            &[addr(i)],
            Box::new(Relay {
                me: sock(i),
                next: sock(if i == 3 { 2 } else { 3 }),
                log: ring[i - 2].clone(),
            }),
        );
    }
    sim.schedule_timer(1, SimTime::from_millis(1), 0);
    sim.schedule_timer(2, SimTime::from_millis(1), 9);
    let count = sim.run_until(SimTime::from_millis(300));
    let mut out = String::new();
    if let Ok(log) = log.lock() {
        out.push_str(&log);
    }
    for r in &ring {
        if let Ok(r) = r.lock() {
            out.push_str(&r);
        }
    }
    for i in 0..4 {
        out.push_str(&format!("stats {i}: {:?}\n", sim.stats(i)));
    }
    out.push_str(&format!("count: {count}\n"));
    out
}

#[test]
fn pinned_tcp_pair_matches_single_shard() {
    let reference = tcp_scenario(Simulator::new(topology(0.0), config()));
    assert!(
        reference.contains("reply"),
        "TCP exchange happened:\n{reference}"
    );
    for shards in [2u32, 8] {
        let mut plan = ShardPlan::round_robin(shards);
        plan.pin(1, 0); // co-locate the dialer with the echo server
        let sim = ShardedSimulator::new(topology(0.0), config(), plan);
        assert_eq!(
            tcp_scenario(sim),
            reference,
            "pinned TCP + cross-shard UDP differs at {shards} shards"
        );
    }
}

#[test]
#[should_panic(expected = "cross-shard TCP is unsupported")]
fn cross_shard_tcp_dial_is_rejected() {
    let log: Log = Arc::new(Mutex::new(String::new()));
    let mut sim = ShardedSimulator::new(topology(0.0), config(), ShardPlan::round_robin(2));
    sim.add_host(&[addr(0)], Box::new(TcpEcho { log: log.clone() }));
    sim.add_host(
        &[addr(1)],
        Box::new(TcpDialer {
            me: sock(1),
            server: SocketAddr::new(addr(0), 53),
            log,
        }),
    );
    sim.schedule_timer(1, SimTime::from_millis(1), 0);
    sim.run_until(SimTime::from_millis(100));
}

#[test]
fn zero_latency_topology_is_rejected() {
    let caught = std::panic::catch_unwind(|| {
        ShardedSimulator::new(
            Topology::uniform(PathConfig::with_rtt(SimDuration::ZERO)),
            config(),
            ShardPlan::round_robin(2),
        )
    });
    assert!(caught.is_err(), "zero lookahead must be refused");
}
