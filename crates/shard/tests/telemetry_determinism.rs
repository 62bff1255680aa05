//! The telemetry stream is deterministic under sharding. For the same
//! seed and workload, a sharded run's drain — its shards' own logs,
//! merged in [`ldp_telemetry::canonical_order`] — is **identical**
//! across shard counts 1/2/8 and to the single-shard run's, sorted the
//! same way. Recording itself never perturbs results: the merged
//! transcript is byte-identical with telemetry on and off.

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
        // A host's own record, through its ctx on whichever shard.
        ctx.mark(tel::Kind::QResponse, data.len() as u64, 0);
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

/// Drive the workload on either simulator, recording if `record`;
/// return the host transcript and the simulator's drain.
fn run(mut sim: impl SimDriver, record: bool) -> (String, Vec<tel::RawEvent>) {
    sim.set_recording(record);
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
    let recording = sim.drain_recording();
    assert_eq!(recording.lost, 0, "the ring held the whole run");
    (out, recording.events)
}

fn plain() -> Simulator {
    Simulator::new(topology(), config())
}

#[test]
fn a_run_with_recording_off_records_nothing() {
    let (quiet, events) = run(plain(), false);
    assert!(quiet.contains("rx"), "workload delivered traffic");
    assert!(events.is_empty(), "disabled recording stays silent");
}

#[test]
fn recording_does_not_perturb_the_transcript() {
    let (quiet, _) = run(plain(), false);
    let (single, events) = run(plain(), true);
    assert_eq!(single, quiet, "recording must not perturb the transcript");
    assert!(!events.is_empty(), "simulator emitted telemetry");
}

#[test]
fn canonical_drain_identical_across_shard_counts() {
    let (quiet, mut reference) = run(plain(), true);
    tel::canonical_order(&mut reference);
    for shards in [1u32, 2, 8] {
        let plan = ShardPlan::round_robin(shards);
        let (got, events) = run(ShardedSimulator::new(topology(), config(), plan), true);
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
