//! Satellite 2 of ISSUE 8: the telemetry stream is deterministic under
//! sharding. For the same seed and workload, the canonically ordered
//! drain ([`ldp_telemetry::canonical_order`]) is **identical** across
//! shard counts 1/2/8 and to the single-shard run — worker threads
//! record into their own rings, rings are parked at scope exit, and
//! the content sort erases the nondeterministic thread interleaving.
//! And recording itself never perturbs results: the merged transcript
//! is byte-identical with telemetry on and off.
//!
//! One test function on purpose: the telemetry enable flag and flushed
//! store are process-wide, so the phases must run serially.

use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use ldp_shard::{ShardPlan, ShardedSimulator};
use ldp_telemetry as tel;
use netsim::{
    Ctx, FnInjector, Host, PacketBytes, PacketFate, PathConfig, SimConfig, SimDriver, SimDuration,
    SimTime, Simulator, TcpEvent, Topology,
};

type Log = Arc<Mutex<String>>;

struct Relay {
    me: SocketAddr,
    next: SocketAddr,
    log: Log,
}

impl Host for Relay {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, _to: SocketAddr, data: PacketBytes) {
        if let Ok(mut log) = self.log.lock() {
            log.push_str(&format!(
                "{} rx {} {}B\n",
                ctx.now().as_nanos(),
                from,
                data.len()
            ));
        }
        if data.len() > 1 {
            ctx.send_udp(self.me, self.next, vec![0u8; data.len() - 1]);
        }
    }
    fn on_tcp_event(&mut self, _: &mut Ctx<'_>, _: TcpEvent) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        ctx.send_udp(self.me, self.next, vec![0u8; 4 + token as usize]);
    }
}

const N: usize = 6;

fn addr(i: usize) -> IpAddr {
    format!("10.9.0.{}", i + 1).parse().expect("valid test ip")
}

fn sock(i: usize) -> SocketAddr {
    SocketAddr::new(addr(i), 53)
}

fn topology() -> Topology {
    Topology::uniform(PathConfig {
        rtt: SimDuration::from_millis(8),
        bandwidth_bps: Some(50_000_000),
        loss: 0.1,
    })
}

fn config() -> SimConfig {
    SimConfig {
        seed: 0x5EED5,
        ..SimConfig::default()
    }
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// Drive the workload on either simulator; return the host
/// transcript. Telemetry events accumulate in the process-wide rings
/// for the caller to drain.
fn run(mut sim: impl SimDriver) -> String {
    let logs: Vec<Log> = (0..N)
        .map(|_| Arc::new(Mutex::new(String::new())))
        .collect();
    for (i, log) in logs.iter().enumerate() {
        let relay = Box::new(Relay {
            me: sock(i),
            next: sock((i + 1) % N),
            log: log.clone(),
        });
        sim.add_host(&[addr(i)], relay);
    }
    sim.set_fault_injectors(|_shard| {
        Box::new(FnInjector(
            |now: SimTime, src: SocketAddr, _d: SocketAddr, _k: netsim::WireKind, n: usize| {
                let mut fate = PacketFate::DELIVER;
                if mix(now.as_nanos() ^ u64::from(src.port()) ^ n as u64).is_multiple_of(9) {
                    fate.drop = true;
                }
                fate
            },
        ))
    });
    for i in 0..N {
        sim.schedule_timer(i, SimTime::from_millis(2), 40);
    }
    sim.schedule_timer(0, SimTime::from_millis(3), 90);
    sim.run_until(SimTime::from_millis(600));
    let mut out = String::new();
    for log in &logs {
        if let Ok(log) = log.lock() {
            out.push_str(&log);
        }
    }
    out
}

fn drain_canonical() -> Vec<tel::RawEvent> {
    let mut events = tel::drain_all();
    tel::canonical_order(&mut events);
    events
}

#[test]
fn canonical_drain_identical_across_shard_counts_and_on_off() {
    // Phase 0: telemetry off — the reference transcript.
    let _ = tel::drain_all(); // clear leftovers from other tests
    tel::set_enabled(false);
    let quiet = run(Simulator::new(topology(), config()));
    assert!(quiet.contains("rx"), "workload delivered traffic");
    assert!(
        tel::drain_all().is_empty(),
        "disabled recording stays silent"
    );

    // Phase 1: single-shard with telemetry on.
    tel::set_enabled(true);
    let single = run(Simulator::new(topology(), config()));
    tel::set_enabled(false);
    let reference = drain_canonical();
    assert_eq!(single, quiet, "recording must not perturb the transcript");
    assert!(!reference.is_empty(), "simulator emitted telemetry");

    // Phase 2: sharded runs, every shard count.
    for shards in [1u32, 2, 8] {
        tel::set_enabled(true);
        let got = run(ShardedSimulator::new(
            topology(),
            config(),
            ShardPlan::round_robin(shards),
        ));
        tel::set_enabled(false);
        let events = drain_canonical();
        assert_eq!(
            got, quiet,
            "sharded({shards}) transcript drifted under telemetry"
        );
        assert_eq!(
            events.len(),
            reference.len(),
            "sharded({shards}) drained a different event count"
        );
        assert_eq!(
            events, reference,
            "sharded({shards}) canonical telemetry differs from single-shard"
        );
    }
}
