//! `broot_auth` and `broot_udp_x2`: a B-Root-shaped trace replayed by
//! `SimReplayClient` against one authoritative `SimDnsServer`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dns_server::{ServerEngine, SimDnsServer};
use dns_wire::{Message, Rcode, RecordType, Transport};
use dns_zone::Catalog;
use ldp_guard::{AdmissionConfig, AdmissionController, RetransmitConfig};
use ldp_replay::{CheckpointStamp, LatencyLog, SimReplayClient};
use ldp_trace::TraceEntry;
use netsim::{PathConfig, SimConfig, SimDuration, SimTime, Topology};
use workloads::broot::{BRootSpec, TLDS};

use crate::rig::{self, AnySim, Finish, Inspect, Outcome, Rig, RigBuilder, SimKind, Wrapping};
use crate::stats::Fnv;

/// Calibrated size (README "Calibration"): B-Root-17a ÷ 4 for this many
/// virtual seconds, about 73 k queries and one second per repetition.
pub const DURATION_SECS: f64 = 7.5;
/// Virtual time after the last query: every reply and every idle-timeout
/// close (20 s) is inside the horizon.
const DRAIN_SECS: f64 = 25.0;
pub const RTT_MS: u64 = 40;

pub struct Inputs {
    pub spec: BRootSpec,
    pub trace: Vec<TraceEntry>,
    pub engine: Arc<ServerEngine>,
    /// Slices a repetition is timed in (see `rig::SLICES`).
    pub slices: usize,
}

/// Generate the trace and build the root zone (all `TLDS` delegated
/// with NS and glue). Returns (inputs, generate_s, build_s).
pub fn setup(udp_only: bool, seed: u64, scale_div: f64) -> (Inputs, f64, f64) {
    let t = Instant::now();
    let mut spec = BRootSpec {
        duration_secs: DURATION_SECS,
        ..BRootSpec::b_root_17a().scaled(4.0 * scale_div)
    };
    let mut slices = rig::SLICES;
    if udp_only {
        // The trace for sharded simulators: TCP cannot cross a shard boundary.
        spec.tcp_fraction = 0.0;
        slices = rig::SLICES_SHARDED;
    }
    let trace = spec.generate(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut catalog = Catalog::new();
    catalog.insert(ldp_core::experiment::synthetic_root_zone());
    let engine = Arc::new(ServerEngine::with_catalog(catalog));
    (
        Inputs {
            spec,
            trace,
            engine,
            slices,
        },
        generate_s,
        t.elapsed().as_secs_f64(),
    )
}

pub fn topology() -> Topology {
    Topology::uniform(PathConfig {
        rtt: SimDuration::from_millis(RTT_MS),
        bandwidth_bps: None,
        loss: 0.0,
    })
}

/// Answer classes the client received, checked against the question.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClassTally {
    pub referral: u64,
    pub nxdomain: u64,
    pub wrong: u64,
}

/// An inspector for the replay client's received messages: a name under
/// a delegated TLD must get a referral (NOERROR, no answer, NS in the
/// authority section), any other name NXDOMAIN.
fn class_inspector(tally: Arc<Mutex<ClassTally>>) -> Inspect {
    Box::new(move |bytes: &[u8]| {
        let mut t = tally.lock().expect("class tally");
        let Ok(m) = Message::decode(bytes) else {
            t.wrong += 1;
            return;
        };
        let delegated = m
            .question()
            .and_then(|q| q.name.labels().next_back())
            .is_some_and(|tld| TLDS.iter().any(|t| t.as_bytes().eq_ignore_ascii_case(tld)));
        let referral = m.rcode == Rcode::NoError
            && m.answers.is_empty()
            && m.authorities.iter().any(|r| r.rtype() == RecordType::NS);
        match (delegated, referral, m.rcode == Rcode::NxDomain) {
            (true, true, _) => t.referral += 1,
            (false, _, true) => t.nxdomain += 1,
            _ => t.wrong += 1,
        }
    })
}

pub struct Opts {
    pub kind: SimKind,
    /// Admission window, 1 s fuzzy-checkpoint cadence and UDP
    /// retransmit on the replay client (all off by default).
    pub guard: bool,
    /// Class-check every message the client receives.
    pub verify: bool,
    pub wrapping: Wrapping,
}

/// A rig plus the checkpoint stamps of a guarded client and the class
/// tally of a verified one.
pub struct BrootRig {
    pub rig: Rig,
    pub stamps: Arc<Mutex<Vec<CheckpointStamp>>>,
    pub tally: Option<Arc<Mutex<ClassTally>>>,
}

/// Assemble server (host 0) and replay client (host 1) on a fresh
/// simulator and schedule one timer per trace entry.
pub fn assemble(inputs: &Inputs, opts: Opts) -> BrootRig {
    let t = Instant::now();
    let server_addr = inputs.spec.server;
    let sim = AnySim::new(opts.kind, topology(), SimConfig::default());
    let tally = opts
        .verify
        .then(|| Arc::new(Mutex::new(ClassTally::default())));
    let mut wrapping = opts.wrapping;
    if let Some(t) = &tally {
        wrapping.inspect = Some(("replay", class_inspector(t.clone())));
    }
    let mut b = RigBuilder::new(sim, wrapping);
    b.add_host(
        "dns-server",
        &[server_addr.ip()],
        Box::new(SimDnsServer::new(
            inputs.engine.clone(),
            server_addr,
            Some(SimDuration::from_secs(20)),
        )),
    );
    let log: LatencyLog = Arc::new(Mutex::new(Vec::with_capacity(inputs.trace.len())));
    let mut client = SimReplayClient::new(inputs.trace.clone(), server_addr, log.clone());
    let stamps = Arc::new(Mutex::new(Vec::new()));
    if opts.guard {
        client.admission = Some(AdmissionController::new(AdmissionConfig::default()));
        client.checkpoint_cadence = Some(SimDuration::from_secs(1));
        client.checkpoint_out = Some(Arc::new(Mutex::new(None)));
        client.checkpoint_stamps = Some(stamps.clone());
        client.udp_retransmit = Some(RetransmitConfig::default());
    }
    let sources = client.source_addrs();
    let client_id = b.add_host("replay", &sources, Box::new(client));
    let assemble_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    match &mut b.sim {
        AnySim::Plain(sim) => {
            SimReplayClient::schedule(sim, client_id, &inputs.trace, SimTime::ZERO)
        }
        AnySim::Sharded(sim) => {
            // `SimReplayClient::schedule` takes a plain `Simulator`; same rule.
            let t0 = inputs.trace.first().map_or(0, |e| e.time_us);
            for (i, e) in inputs.trace.iter().enumerate() {
                sim.schedule_timer(client_id, SimTime::from_micros(e.time_us - t0), i as u64);
            }
        }
    }
    let schedule_s = t.elapsed().as_secs_f64();

    let attempted = inputs.trace.len() as u64;
    let wrong_classes = tally.clone();
    let finish: Finish = Box::new(move || {
        let mut records = log.lock().expect("latency log");
        records.sort_by_key(|r| r.seq);
        let mut h = Fnv::new();
        let mut answered = 0u64;
        let mut last_seq = None;
        for r in records.iter() {
            h.u64(r.seq);
            h.u64(r.sent_s.to_bits());
            h.u64(r.replied_s.to_bits());
            h.u64((r.response_bytes as u64) << 2 | transport_code(r.transport));
            if last_seq != Some(r.seq) {
                answered += 1;
            }
            last_seq = Some(r.seq);
        }
        let wrong = wrong_classes
            .as_ref()
            .map_or(0, |t| t.lock().expect("class tally").wrong);
        Outcome {
            hash: h.finish(),
            attempted,
            failed: attempted - answered + wrong,
        }
    });
    let rig = b.finish(
        inputs.slices,
        inputs.spec.duration_secs,
        DRAIN_SECS,
        assemble_s,
        schedule_s,
        finish,
    );
    BrootRig { rig, stamps, tally }
}

fn transport_code(t: Transport) -> u64 {
    match t {
        Transport::Udp => 0,
        Transport::Tcp => 1,
        Transport::Tls => 2,
    }
}
