//! The scenario sweep: one seeded property over whole experiment cells
//! (DESIGN.md §12). LDplayer's value is controlled experimentation —
//! the same trace replayed under varied conditions, reproducibly (paper
//! §2.2, §5) — and that rests on byte-determinism per seed. Each case
//! draws a cell from the scenario harness's parts and a
//! [`SimReplayClient`]: a farm of 1–13 servers; a [`StubSwarm`] through
//! a `SimResolver`, or a trace from 1–4 sources with a UDP/TCP mix and
//! optional retransmission, replayed by 1–4 queriers on one server
//! (the others from sources of their own), half the time through rate
//! limiting whose buckets they share; a topology whose fastest link
//! sets the lookahead; a [`FaultPlan`] over the cell's addresses using
//! all ten [`FaultEvent`] kinds, installed before or after the workload
//! hosts; driver injections between two run phases, one
//! from an unregistered source and one to an unrouted address; 1–8
//! shards with every host pinned; a kill instant or an admission
//! window. Paths, query times, retransmit delays and half the faults
//! sit on a millisecond grid, so events from different hosts tie; queriers
//! replaying one trace tie on `(time, seq)` as well, in different lanes,
//! and shared buckets make the order the server takes them in visible. It
//! holds (1) a same-seed rerun, (2) the placed run, on a second thread
//! at once, and (3) a run with recording off to the plain run's
//! transcript, per-host stats, per-phase event counts, checkpoint
//! commits and telemetry; (4) a kill → resume to the uninterrupted transcript and
//! spliced `q.*` telemetry, plain and placed; (5) query conservation:
//! no seq answered twice, and the last checkpoint accounts for each
//! seq once, with no `inflight` line unless the cell can lose a query
//! for good (no retransmit left after a loss, a crash, admission, rate
//! limiting).
//!
//! **Left out of the draw, and why.** Kill cells have no admission
//! window (a resumed window starts emptier than the original was at
//! the cut: [`ldp_chaos::StormConfig`]'s doc), no TCP connection reuse
//! (a resumed client has no connection a completed query opened, so a
//! later query pays a handshake the original did not), and only one
//! querier (a resume restores one client). They do draw path loss:
//! netsim hashes each datagram for it, so a resumed client re-draws
//! the fates of what it re-sends. The replay
//! client crashes only by [`FaultEvent::QuerierCrash`], which restarts
//! it: one that never restarts never finishes its trace. Query ids are
//! the seq, so no two queries share a (source, id) slot.
//!
//! The case count is fixed. A run prints one coverage line whose counts
//! must all be non-zero: one shows that the simulator seed reaches the
//! loss model, another that kill cells resume on lossy paths. A failure
//! prints its shrunk choice sequence and the cell's fault plan: check
//! both in below as a [`rerun`].

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::{Arc, Mutex};

use dns_server::{RrlConfig, ServerEngine, SimDnsServer};
use dns_wire::{Message, Name, RecordType, Transport};
use dns_zone::Catalog;
use ldp_chaos::recovery::{self, RecoveryOutcome};
use ldp_chaos::scenario::{self, StubSwarm, RESOLVER, STUB};
use ldp_chaos::{FaultEvent, FaultPlan, PlannedFault};
use ldp_guard::{AdmissionConfig, AdmissionController, Checkpoint, RetransmitConfig};
use ldp_replay::sim_replay::{LatencyLog, SimReplayClient};
use ldp_rng::check::{check, rerun, Gen};
use ldp_shard::{ShardPlan, ShardedSimulator};
use ldp_telemetry::{self as tel, Kind};
use ldp_trace::TraceEntry;
use netsim::{PathConfig, SimConfig, SimDriver, SimDuration, SimTime, Simulator, Topology};

const CASES: u64 = 256;

fn ms(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

/// `q{i}.` has an A record in the farm's zone; `nx{i}.` does not exist.
fn name(i: usize, nx: bool) -> Name {
    let label = if nx { "nx" } else { "q" };
    format!("{label}{i}.").parse().unwrap()
}

fn source(i: usize) -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 3, 0, i as u8 + 1)), 5000)
}

struct Stub {
    queries: Vec<(Name, bool)>,
    attempts: u32,
    retry_gap: SimDuration,
    first_at: SimTime,
    gap: SimDuration,
    max_retries: usize,
    rotate: bool,
    backoff_cap: Option<SimDuration>,
}

struct Replay {
    trace: Vec<TraceEntry>,
    /// Queriers (hosts) replaying the trace, in the order their traces
    /// are scheduled: last first, so at a tied instant the driver
    /// dispatches a later lane's send first, against the key's order.
    queriers: Vec<u8>,
    target: usize,
    reuse: bool,
    retransmit: Option<(RetransmitConfig, u64)>,
    cadence: SimDuration,
    admission: Option<AdmissionConfig>,
    /// Response rate limiting on the farm, in buckets the queriers
    /// share: which querier's answer a bucket drops depends on the order
    /// the server takes their tied queries in.
    rrl: Option<RrlConfig>,
    /// Kill here and resume from the last checkpoint.
    kill: Option<SimTime>,
}

enum Work {
    Stub(Stub),
    Replay(Replay),
}

struct Cell {
    servers: usize,
    work: Work,
    /// Every host's addresses, in host-id order: the farm, then the
    /// resolver and the swarm, or the replay client.
    hosts: Vec<Vec<IpAddr>>,
    topology: Topology,
    /// Whether some path loses packets.
    lossy_path: bool,
    plan: FaultPlan,
    /// Install the plan before the workload hosts are added, not after.
    plan_first: bool,
    /// Between the two run phases; the stranger's query goes to host
    /// `stray_to`, and host `void_from` sends into the void.
    mid: SimTime,
    stray_to: usize,
    void_from: usize,
    shards: u32,
    placement: Vec<u32>,
    seed: u64,
    horizon: SimTime,
}

/// A path; `lossy` lets it drop packets.
fn path(g: &mut Gen, fast: bool, lossy: bool) -> PathConfig {
    // On a 0.5 ms grid, as are the workload's instants: ties are drawn.
    let rtt_us = if fast {
        g.range(1..=8) * 500
    } else {
        g.range(1..=30) * 2_000
    };
    let rtt = SimDuration::from_micros(rtt_us);
    let bandwidth_bps = g.option(|g| g.range(1_000_000..=1_000_000_000));
    PathConfig {
        rtt,
        bandwidth_bps,
        loss: if lossy { loss(g) } else { 0.0 },
    }
}

/// A path's loss: none three times in four.
fn loss(g: &mut Gen) -> f64 {
    if g.below(4) == 1 {
        g.f64(0.0, 0.3)
    } else {
        0.0
    }
}

fn draw_stub(g: &mut Gen) -> Stub {
    let nx = g.vec(1..=32, |g| g.below(4) == 1).into_iter().enumerate();
    Stub {
        queries: nx.map(|(i, nx)| (name(i, nx), nx)).collect(),
        attempts: g.range(1..=3) as u32,
        retry_gap: ms(g.range(300..=3_000)),
        first_at: SimTime::ZERO + ms(g.range(0..=500)),
        gap: ms(g.range(0..=80)),
        max_retries: g.size(0..=6),
        rotate: g.bool(),
        backoff_cap: g.option(|g| ms(g.range(100..=4_000))),
    }
}

fn draw_replay(g: &mut Gen, servers: usize) -> Replay {
    let sources = g.size(1..=4);
    let tcp_share = g.below(3);
    let mut time_us = 0;
    let entries = g.vec(1..=32, |g| {
        time_us += g.range(0..=60) * 1_000;
        let src = g.size(0..=sources - 1);
        let tcp = tcp_share == 2 || tcp_share == 1 && g.bool();
        (time_us, src, tcp, g.below(4) == 1)
    });
    let target = g.size(0..=servers - 1);
    let server = SocketAddr::new(scenario::server_addr(target), 53);
    let trace: Vec<TraceEntry> = (entries.into_iter().enumerate())
        .map(|(i, (time_us, src, tcp, nx))| TraceEntry {
            time_us,
            src: source(src),
            dst: server,
            transport: if tcp { Transport::Tcp } else { Transport::Udp },
            message: Message::query(i as u16, name(i, nx), RecordType::A),
        })
        .collect();
    let retransmit = g.option(|g| {
        let base_us = g.range(1..=100) * 2_000;
        let max_retx = g.range(1..=6) as u32;
        let cap_us = base_us + g.range(0..=8) * 100_000;
        (
            RetransmitConfig {
                max_retx,
                base_us,
                cap_us,
            },
            g.u64(),
        )
    });
    let cadence = ms(g.range(20..=800));
    let span = trace.last().map_or(0, |e| e.time_us);
    let (mut admission, mut kill) = (None, None);
    if g.bool() {
        admission = g.option(|g| AdmissionConfig {
            max_in_flight: g.size(1..=8),
            max_lateness_us: g.range(0..=400_000),
        });
    } else {
        // Anywhere in the run, or just after a query's send: in its
        // handshake, or early in its retransmit chain.
        let kill_us = match g.below(2) {
            0 => g.range(0..=span + 3_000_000),
            _ => g.pick(&trace).time_us + g.range(0..=60) * 1_000,
        };
        kill = Some(SimTime::from_micros(kill_us));
    }
    let reuse = g.bool() && kill.is_none();
    Replay {
        trace,
        queriers: vec![0],
        target,
        reuse,
        retransmit,
        cadence,
        admission,
        rrl: None,
        kill,
    }
}

/// Querier `q`'s copy of querier 0's trace, from `10.3.q.*`.
fn trace_of(trace: &[TraceEntry], q: u8) -> Vec<TraceEntry> {
    let mut trace = trace.to_vec();
    for e in &mut trace {
        if let IpAddr::V4(a) = e.src.ip() {
            e.src.set_ip(Ipv4Addr::new(10, 3, q, a.octets()[3]).into());
        }
    }
    trace
}

/// A trace's distinct source addresses, in order: its client's host.
fn addrs(trace: &[TraceEntry]) -> Vec<IpAddr> {
    let sources: BTreeSet<IpAddr> = trace.iter().map(|e| e.src.ip()).collect();
    sources.into_iter().collect()
}

/// One line of a fault plan's text, over the cell's addresses.
/// Half the faults start at an instant a workload query is due.
fn draw_fault(
    g: &mut Gen,
    instants: &[u64],
    crashable: &[IpAddr],
    querier: IpAddr,
    cell: &[IpAddr],
) -> String {
    let span_ms = instants.last().map_or(0, |ns| ns / 1_000_000);
    let at = match g.below(2) {
        1 => *g.pick(instants),
        _ => g.range(0..=span_ms + 2_000) * 1_000_000,
    };
    let until = |g: &mut Gen| at + g.range(0..=4_000) * 1_000_000;
    let fault = match g.below(10) {
        0 => format!(
            "cpu_throttle {} {:?} until {}",
            g.pick(cell),
            g.f64(0.0, 20.0),
            until(g)
        ),
        1 => {
            // Now and then any u64, or one within a second of the top.
            let extra = match g.below(8) {
                1 => g.u64(),
                2 => u64::MAX - g.below(1 << 30),
                _ => g.range(0..=300) * 1_000_000,
            };
            let jitter = g.range(0..=50_000) * 1_000;
            format!("delay_spike {extra} jitter {jitter} until {}", until(g))
        }
        2 => {
            let (rate, window) = (g.f64(0.0, 1.0), g.range(0..=100_000) * 1_000);
            format!("reorder {rate:?} window {window} until {}", until(g))
        }
        3 => format!("duplicate {:?} until {}", g.f64(0.0, 1.0), until(g)),
        4 => format!("loss_burst {:?} until {}", g.f64(0.0, 1.0), until(g)),
        5 => format!("link_down {} {}", g.pick(cell), g.pick(cell)),
        6 => format!("link_up {} {}", g.pick(cell), g.pick(cell)),
        7 => format!("server_crash {}", g.pick(crashable)),
        8 => format!("server_restart {}", g.pick(crashable)),
        _ => format!(
            "querier_crash {querier} down {}",
            g.range(0..=2_000) * 1_000_000
        ),
    };
    format!("at {at} {fault}\n")
}

impl Cell {
    fn draw(g: &mut Gen) -> Cell {
        let servers = g.size(1..=13);
        let mut work = if g.bool() {
            Work::Replay(draw_replay(g, servers))
        } else {
            Work::Stub(draw_stub(g))
        };
        let mut hosts: Vec<Vec<IpAddr>> = scenario::server_addrs(servers)
            .into_iter()
            .map(|a| vec![a])
            .collect();
        // Kill cells draw their paths' loss last (below).
        let (instants, loss_now): (Vec<u64>, _) = match &work {
            Work::Stub(s) => {
                hosts.extend([vec![RESOLVER.ip()], vec![STUB.ip()]]);
                let due =
                    (0..s.queries.len()).map(|i| (s.first_at + s.gap.times(i as u64)).as_nanos());
                (due.collect(), true)
            }
            Work::Replay(r) => {
                hosts.push(addrs(&r.trace));
                let first = r.trace[0].time_us;
                let due = r.trace.iter().map(|e| (e.time_us - first) * 1_000);
                (due.collect(), r.kill.is_none())
            }
        };
        let span = SimTime::from_nanos(*instants.last().unwrap());
        let cell: Vec<IpAddr> = hosts.iter().flatten().copied().collect();
        // The farm (and the resolver) crash; the querier, the swarm or
        // the client's first source, power-cycles.
        let (crashable, querier) = match &work {
            Work::Stub(_) => (cell[..=servers].to_vec(), STUB.ip()),
            Work::Replay(_) => (cell[..servers].to_vec(), cell[servers]),
        };
        let mut default_path = path(g, false, loss_now);
        let mut links = g.vec(0..=3, |g| {
            (*g.pick(&cell), *g.pick(&cell), path(g, true, loss_now))
        });
        let seed = g.u64();
        let faults = g.vec(0..=6, |g| {
            draw_fault(g, &instants, &crashable, querier, &cell)
        });
        let plan = FaultPlan::from_text(&format!("faultplan v1\nseed {seed}\n{}", faults.concat()));
        let plan = plan.unwrap();
        // Anywhere, or just after a planned fault: a driver action
        // straight after a crash meets the crashed host's stale timers.
        let mid = match g.below(2) {
            1 if !plan.faults.is_empty() => g.pick(&plan.faults).at + ms(g.range(0..=200)),
            _ => SimTime::ZERO + ms(g.range(0..=span.as_nanos() / 1_000_000 + 1_000)),
        };
        let stray_to = g.size(0..=hosts.len() - 1);
        let void_from = g.size(0..=hosts.len() - 1);
        let shards = g.range(1..=8) as u32;
        let mut placement: Vec<u32> = hosts
            .iter()
            .map(|_| g.below(u64::from(shards)) as u32)
            .collect();
        if let Work::Replay(r) = &work {
            if r.trace.iter().any(|e| e.transport == Transport::Tcp) {
                placement[servers] = placement[r.target];
            }
        }
        let seed = g.u64();
        // Fan-in, drawn last so that checked-in choice sequences keep
        // their cells (a spent sequence draws one querier): 1–4 queriers
        // on the target, each extra one on a shard of its own draw.
        if let Work::Replay(r) = &mut work {
            if r.kill.is_none() {
                r.queriers = (0..=g.range(0..=3) as u8).rev().collect();
                let tcp = r.trace.iter().any(|e| e.transport == Transport::Tcp);
                for q in 1..r.queriers.len() as u8 {
                    hosts.push(addrs(&trace_of(&r.trace, q)));
                    let shard = g.below(u64::from(shards)) as u32;
                    placement.push(if tcp { placement[r.target] } else { shard });
                }
                if r.queriers.len() > 1 {
                    r.rrl = g.option(|g| RrlConfig {
                        responses_per_second: g.range(1..=20) as u32,
                        window_secs: 1,
                        slip: g.range(0..=2) as u32,
                        ipv4_prefix_len: 16,
                    });
                }
            }
        }
        // A kill cell's path loss, drawn last for the same reason.
        if !loss_now {
            default_path.loss = loss(g);
            for (_, _, link) in &mut links {
                link.loss = loss(g);
            }
        }
        let mut topology = Topology::uniform(default_path);
        let mut lossy_path = default_path.loss > 0.0;
        for (src, dst, link) in links {
            topology.set_pair(src, dst, link);
            lossy_path |= link.loss > 0.0;
        }
        // Past every fault's end (≤ 4 s after it starts) and every
        // phase, with room for retransmit chains, retries and resends.
        let ends = plan.faults.iter().map(|pf| pf.at + ms(4_000));
        let horizon = ends.chain([span, mid]).max().unwrap_or(span) + ms(20_000);
        // Drawn last for the same reason: a spent sequence installs after.
        let plan_first = g.bool();
        Cell {
            servers,
            work,
            hosts,
            topology,
            lossy_path,
            plan,
            plan_first,
            mid,
            stray_to,
            void_from,
            shards,
            placement,
            seed,
            horizon,
        }
    }

    fn config(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    fn plain(&self, seed: u64) -> Simulator {
        Simulator::new(self.topology.clone(), Cell::config(seed))
    }

    fn placed(&self) -> ShardedSimulator {
        let mut plan = ShardPlan::round_robin(self.shards);
        for (host, &shard) in self.placement.iter().enumerate() {
            plan.pin(host, shard);
        }
        ShardedSimulator::new(self.topology.clone(), Cell::config(self.seed), plan)
    }

    /// Whether anything in the cell can lose a query for good.
    fn can_lose(&self) -> bool {
        let lossy_fault = self.plan.faults.iter().any(|pf| match pf.fault {
            FaultEvent::DelaySpike { extra, .. } => extra > SimDuration::from_secs(1),
            FaultEvent::LossBurst { .. }
            | FaultEvent::LinkDown { .. }
            | FaultEvent::ServerCrash { .. }
            | FaultEvent::QuerierCrash { .. } => true,
            _ => false,
        });
        let guarded =
            matches!(&self.work, Work::Replay(r) if r.admission.is_some() || r.rrl.is_some());
        self.lossy_path || lossy_fault || guarded
    }
}

/// What one run of a cell left behind.
struct Run {
    /// One line per stub query, or per replay completion.
    transcript: String,
    /// Per-host stats, per-phase event counts and checkpoint commits.
    stats: String,
    log: tel::Log,
    checkpoint: Option<Checkpoint>,
    /// Whether the datagram into the void left its sender.
    void_left: bool,
}

impl Run {
    fn outcome(&self) -> RecoveryOutcome {
        let mut q_events = self.log.events.clone();
        q_events.retain(|ev| ev.kind.name().starts_with("q."));
        RecoveryOutcome {
            records: Vec::new(),
            transcript: self.transcript.clone(),
            q_events,
            lost: self.log.lost,
            checkpoint: self.checkpoint.clone(),
        }
    }
}

/// Run `cell` on `sim` through `until` (a kill, or the horizon),
/// recording if `record`; the replay client resumes from `resume`.
fn run<S: SimDriver>(
    cell: &Cell,
    mut sim: S,
    record: bool,
    until: SimTime,
    resume: Option<&Checkpoint>,
) -> Run {
    sim.set_recording(record);
    if cell.plan_first {
        scenario::install(&mut sim, &cell.plan);
    }
    let servers = scenario::server_addrs(cell.servers);
    let records = (0..32).map(|i| scenario::a_record(name(i, false), 300, i));
    let zone = scenario::soa_zone(".", 3600, "ns.", "hostmaster.", 1, 60, records);
    match &cell.work {
        // `scenario::server_farm`, each server rate-limiting.
        Work::Replay(Replay { rrl: Some(rrl), .. }) => {
            let mut catalog = Catalog::new();
            catalog.insert(zone);
            let engine = Arc::new(ServerEngine::with_catalog(catalog));
            for &addr in &servers {
                let server = SimDnsServer::new(engine.clone(), SocketAddr::new(addr, 53), None);
                sim.add_host(&[addr], Box::new(server.with_rrl(*rrl)));
            }
        }
        _ => {
            scenario::server_farm(&mut sim, zone, &servers);
        }
    }
    let log: LatencyLog = Arc::new(Mutex::new(Vec::new()));
    let checkpoint = Arc::new(Mutex::new(resume.cloned()));
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let mut stub = None;
    match &cell.work {
        Work::Stub(s) => {
            let mut resolver = scenario::resolver(servers);
            resolver.max_retries = s.max_retries;
            resolver.rotate_servers = s.rotate;
            resolver.backoff_cap = s.backoff_cap;
            sim.add_host(&[RESOLVER.ip()], Box::new(resolver));
            let (queries, n, gap) = (s.queries.clone(), s.attempts, s.retry_gap);
            stub = Some(StubSwarm::spawn(&mut sim, queries, n, gap, s.first_at, s.gap).1);
        }
        Work::Replay(r) => {
            // Querier 0 reports; the others keep logs and commits of
            // their own, configured alike so that their lanes keep step
            // (each is a host whose stats the properties compare).
            let server = SocketAddr::new(servers[r.target], 53);
            let mut ids = Vec::new();
            for q in 0..r.queriers.len() as u8 {
                let (log, checkpoint, stamps) = match q {
                    0 => (log.clone(), checkpoint.clone(), stamps.clone()),
                    _ => Default::default(),
                };
                let trace = trace_of(&r.trace, q);
                let mut client = match resume {
                    None => SimReplayClient::new(trace, server, log),
                    Some(cp) => SimReplayClient::resume(trace, server, log, cp).unwrap(),
                };
                client.reuse_connections = r.reuse;
                client.checkpoint_cadence = Some(r.cadence);
                client.checkpoint_out = Some(checkpoint);
                client.checkpoint_stamps = Some(stamps);
                if let Some((cfg, seed)) = r.retransmit {
                    client.udp_retransmit = Some(cfg);
                    client.retx_seed = seed;
                }
                client.admission = r.admission.map(AdmissionController::new);
                ids.push(sim.add_host(&client.source_addrs(), Box::new(client)));
            }
            for &q in &r.queriers {
                let (id, trace) = (ids[usize::from(q)], &trace_of(&r.trace, q));
                match resume {
                    None => SimReplayClient::schedule(&mut sim, id, trace, SimTime::ZERO),
                    Some(cp) => {
                        SimReplayClient::schedule_resume(&mut sim, id, trace, SimTime::ZERO, cp)
                    }
                }
            }
        }
    }
    if !cell.plan_first {
        scenario::install(&mut sim, &cell.plan);
    }

    let mut counts = Vec::new();
    let mut void_left = false;
    if until > cell.mid {
        counts.push(sim.run_until(cell.mid));
        let query = Message::query(0, name(0, false), RecordType::A).encode();
        let to = SocketAddr::new(cell.hosts[cell.stray_to][0], 53);
        sim.inject_udp("192.0.2.77:9999".parse().unwrap(), to, query);
        let from = SocketAddr::new(cell.hosts[cell.void_from][0], 53);
        let sent = sim.stats(cell.void_from).udp_tx;
        sim.inject_udp(from, "198.51.100.7:53".parse().unwrap(), vec![0u8; 12]);
        void_left = sim.stats(cell.void_from).udp_tx > sent;
    }
    counts.push(sim.run_until(until));

    let transcript = match stub {
        Some(stub) => format!("{:#?}", stub.lock().unwrap()),
        None => log
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.to_line() + "\n")
            .collect(),
    };
    let mut stats: String = (0..cell.hosts.len())
        .map(|h| format!("{h}: {:?}\n", sim.stats(h)))
        .collect();
    stats.push_str(&format!("counts {counts:?}\n"));
    stats.push_str(&format!("commits {:?}\n", stamps.lock().unwrap()));
    let log = sim.drain_recording();
    let checkpoint = checkpoint.lock().unwrap().clone();
    Run {
        transcript,
        stats,
        log,
        checkpoint,
        void_left,
    }
}

/// `b` gave `a`'s transcript, stats and counts, and drained `a`'s
/// telemetry — in canonical order if `b` ran on shards, whose drain
/// merges in that order.
fn same(what: &str, a: &Run, b: &Run, sharded: bool) {
    assert_eq!(a.transcript, b.transcript, "{what}: transcripts differ");
    assert_eq!(a.stats, b.stats, "{what}: stats or event counts differ");
    let mut events = a.log.events.clone();
    if sharded {
        tel::canonical_order(&mut events);
    }
    let same_log = tel::dump_binary(&events) == tel::dump_binary(&b.log.events);
    assert!(same_log, "{what}: telemetry differs");
}

/// Whether the kill falls inside a retransmit chain (a query sent at or
/// before it and resent after it) or a TCP handshake (a dial at or
/// before it, established after it). Kill cells dial once per TCP send,
/// so the client's `k`-th TCP send is its connection `k`.
fn kill_inside(r: &Replay, client: usize, kill: SimTime, events: &[tel::RawEvent]) -> bool {
    let kill = kill.as_nanos();
    let is_send = |e: &&tel::RawEvent| matches!(e.kind, Kind::QSend | Kind::QRetx);
    let sends = || events.iter().filter(is_send);
    let sent: BTreeSet<u64> = sends().filter(|e| e.t_ns <= kill).map(|e| e.a).collect();
    let chain = sends().any(|e| e.kind == Kind::QRetx && e.t_ns > kill && sent.contains(&e.a));
    let tcp = sends().filter(|e| r.trace[e.a as usize].transport == Transport::Tcp);
    let handshake = tcp.enumerate().any(|(k, dial)| {
        let conn = ((client as u64) << 32) | k as u64;
        let up = events.iter().find(|e| {
            e.a == conn
                && (e.kind == Kind::SimTcpEstablished && e.b == 1
                    || matches!(e.kind, Kind::SimTcpRefused | Kind::SimTcpKilled))
        });
        dial.t_ns <= kill && up.is_none_or(|e| e.t_ns > kill)
    });
    chain || handshake
}

fn killed_and_resumed(cell: &Cell, kill: SimTime, placed: bool) -> (Run, Run) {
    let leg = |until, cp: Option<&Checkpoint>| match placed {
        true => run(cell, cell.placed(), true, until, cp),
        false => run(cell, cell.plain(cell.seed), true, until, cp),
    };
    let killed = leg(kill, None);
    let resumed = leg(cell.horizon, killed.checkpoint.as_ref());
    (killed, resumed)
}

/// Properties 4 and 5 on a replay cell.
fn check_replay(cell: &Cell, r: &Replay, whole: &Run, cov: &mut Coverage) {
    let seq = |line: &str| line.split(' ').next().unwrap().parse().unwrap();
    let answered: BTreeSet<u64> = whole.transcript.lines().map(seq).collect();
    let n = whole.transcript.lines().count();
    assert_eq!(answered.len(), n, "a seq was answered twice");
    let cp = whole.checkpoint.as_ref().unwrap();
    assert_eq!(cp.records.len(), n, "the last cut holds every answer");
    let carried: BTreeSet<u64> = cp.inflight.iter().map(|e| e.seq).collect();
    let shed: BTreeSet<u64> = (whole.log.events.iter())
        .filter(|e| e.kind == Kind::ReplayShed)
        .map(|e| e.a)
        .collect();
    for seq in 0..r.trace.len() as u64 {
        let fates = [answered.contains(&seq), carried.contains(&seq)];
        let once = fates != [true, true] && (fates.contains(&true) || shed.contains(&seq));
        assert!(once, "seq {seq}: {fates:?}, shed {shed:?}");
    }
    let cursor_ok = !shed.is_empty() || cp.cursor == r.trace.len() as u64;
    assert!(cursor_ok, "the last cut's cursor is {}", cp.cursor);
    let carried_ok = cell.can_lose() || cp.inflight.is_empty();
    assert!(carried_ok, "a lossless cell carries {:?}", cp.inflight);

    let Some(kill) = r.kill else {
        return;
    };
    cov[2] += u64::from(kill_inside(r, cell.servers, kill, &whole.log.events));
    let (plain, placed) = std::thread::scope(|scope| {
        let plain = scope.spawn(|| killed_and_resumed(cell, kill, false));
        let placed = killed_and_resumed(cell, kill, true);
        (plain.join().expect("the plain pair"), placed)
    });
    cov[3] += u64::from(plain.0.checkpoint.is_some());
    cov[8] += u64::from(cell.lossy_path);
    let mut base = whole.outcome().q_events;
    tel::canonical_order(&mut base);
    for (what, (killed, resumed)) in [("plain", plain), ("placed", placed)] {
        assert_eq!(resumed.transcript, whole.transcript, "{what}: resumed");
        let spliced = recovery::spliced_q_events(&killed.outcome(), &resumed.outcome());
        assert_eq!(tel::diff_logs(&spliced, &base), None, "{what}: spliced");
        let dumps_equal = tel::dump_binary(&spliced) == tel::dump_binary(&base);
        assert!(dumps_equal, "{what}: spliced dumps");
    }
}

/// Cells counted per entry of [`COVERED`].
type Coverage = [u64; 11];

const COVERED: [&str; 11] = [
    "with TCP",
    "with a crash",
    "killed inside a retransmit chain or a handshake",
    "resumed from a cut",
    "on more than one shard",
    "injecting into the void",
    "whose re-drawn seed changed a lossy transcript",
    "with 2-4 queriers on one server",
    "killed on a lossy path",
    "whose queriers share rate-limit buckets",
    "with faults installed before the workload hosts",
];

/// The five properties on one drawn cell.
fn sweep(cell: &Cell, coverage: &RefCell<Coverage>) {
    let _plan = ShowPlanOnFailure(&cell.plan);
    let (whole, placed) = std::thread::scope(|scope| {
        let plain = scope.spawn(|| run(cell, cell.plain(cell.seed), true, cell.horizon, None));
        let placed = run(cell, cell.placed(), true, cell.horizon, None);
        (plain.join().expect("the plain run"), placed)
    });
    assert_eq!(whole.log.lost, 0, "the ring held the whole run");
    same("placement", &whole, &placed, true);
    let rerun = run(cell, cell.plain(cell.seed), true, cell.horizon, None);
    same("rerun", &whole, &rerun, false);
    let quiet = run(cell, cell.plain(cell.seed), false, cell.horizon, None);
    assert_eq!(quiet.transcript, whole.transcript, "recording off");
    assert_eq!(quiet.stats, whole.stats, "recording off");
    assert!(quiet.log.events.is_empty(), "recording off drains nothing");

    let mut cov = coverage.borrow_mut();
    if let Work::Replay(r) = &cell.work {
        check_replay(cell, r, &whole, &mut cov);
    }
    // The seed must reach the loss model.
    if cell.lossy_path {
        let reseeded = run(cell, cell.plain(cell.seed ^ 1), false, cell.horizon, None);
        cov[6] += u64::from(reseeded.transcript != whole.transcript);
    }
    let tcp = |r: &Replay| r.trace.iter().any(|e| e.transport == Transport::Tcp);
    let crash = |pf: &PlannedFault| {
        matches!(
            pf.fault,
            FaultEvent::ServerCrash { .. } | FaultEvent::QuerierCrash { .. }
        )
    };
    let shards: BTreeSet<u32> = cell.placement.iter().copied().collect();
    cov[0] += u64::from(matches!(&cell.work, Work::Replay(r) if tcp(r)));
    cov[1] += u64::from(cell.plan.faults.iter().any(crash));
    cov[4] += u64::from(shards.len() > 1);
    cov[5] += u64::from(whole.void_left);
    cov[7] += u64::from(matches!(&cell.work, Work::Replay(r) if r.queriers.len() > 1));
    cov[9] += u64::from(matches!(&cell.work, Work::Replay(r) if r.rrl.is_some()));
    cov[10] += u64::from(cell.plan_first && !cell.plan.faults.is_empty());
}

/// Prints the cell's fault plan when a property fails.
struct ShowPlanOnFailure<'a>(&'a FaultPlan);

impl Drop for ShowPlanOnFailure<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("the cell's fault plan:\n{}", self.0.to_text());
        }
    }
}

#[test]
fn drawn_cells_are_deterministic_placement_free_resumable_and_conserving() {
    let coverage = RefCell::default();
    check(CASES, |g| sweep(&Cell::draw(g), &coverage));
    let c: Coverage = coverage.into_inner();
    let counts: [String; 11] = std::array::from_fn(|i| format!("{} {}", c[i], COVERED[i]));
    println!("sweep coverage, of {CASES} cases: {}", counts.join(", "));
    for (what, n) in COVERED.iter().zip(c) {
        assert!(n > 0, "no case {what}: {c:?}");
    }
}

/// Rerun the sweep on a checked-in choice sequence, as the harness
/// prints it, whose cell has the fault plan `plan`.
fn regression(choices: &str, plan: &str) {
    let choices = choices.trim_matches(['[', ']']).split(", ");
    let choices: Vec<u64> = choices.map(|c| c.parse().unwrap()).collect();
    rerun(&choices, |g| {
        let cell = Cell::draw(g);
        assert_eq!(
            cell.plan.to_text(),
            plan,
            "the draw moved: re-derive the case"
        );
        sweep(&cell, &RefCell::default());
    });
}

/// A delay spike within a second of `u64::MAX` overflowed the packet's
/// arrival instant; the injector now drops a packet it would delay past
/// `u64::MAX / 2` ns.
#[test]
fn a_spike_near_the_last_instant_drops_instead_of_overflowing() {
    let choices = "[0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, \
                   0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, \
                   0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, \
                   0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, \
                   0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, \
                   0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 2, 0, 0, 48, 0, 0, 0, 0, 0, 0, \
                   0, 0, 0, 0]";
    let plan = "faultplan v1\nseed 0\n\
                at 0 delay_spike 18446744073709551615 jitter 0 until 48000000\n";
    regression(choices, plan);
}

/// A driver injection right after a crashed host's stale timer was
/// keyed and loss-drawn on that host's lane, not the driver's: which
/// host that was depends on placement.
#[test]
fn a_driver_injection_after_a_stale_timer_draws_on_the_driver_lane() {
    let choices = "[0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, \
                   1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, \
                   0, 1, 825300305420865, 0, 0, 0, 1, 0, 0, 3, 0, 0, 1, 1, 18, 9, 0, 1, 0, 0, \
                   3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 4, 0, 0, 1, 0, 0, 1, 0, 0]";
    let plan = "faultplan v1\nseed 0\nat 0 duplicate 0.0 until 0\n\
                at 72000000 querier_crash 10.2.0.1 down 0\nat 0 duplicate 0.0 until 0\n\
                at 0 cpu_throttle 10.13.0.1 0.0 until 0\n";
    regression(choices, plan);
}

/// A plan installed before the workload hosts moved every plain-engine
/// lane by one (the host that once delivered crashes took host id 0
/// there, and no id on shards): the placed run's stats and lane-valued
/// telemetry differed from the plain run's. A plan adds no host now.
#[test]
fn a_plan_installed_before_the_workload_hosts_moves_no_lane() {
    let choices = "[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 3, 0, \
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]";
    let plan = "faultplan v1\nseed 0\nat 0 duplicate 0.0 until 0\n";
    regression(choices, plan);
}
