//! `fig_trace`: per-stage latency breakdown of a B-Root replay, from
//! the ldp-telemetry event stream (ISSUE 4 tentpole demonstration).
//!
//! A scaled B-Root-17a trace is replayed by [`SimReplayClient`] against
//! a [`SimDnsServer`] root zone inside the deterministic simulator,
//! with telemetry enabled. The drained event log yields:
//!
//! * the per-query lifecycle breakdown (enqueue → send → response →
//!   match) with five-number summaries and CDFs per stage,
//! * event counts by kind (including server parse/lookup/encode spans
//!   and the simulator's batched dispatch counters and fault marks),
//! * a folded-stacks flamegraph dump of the server stages, and
//! * a timeline excerpt.
//!
//! The run doubles as the ISSUE's determinism gate: two telemetry-on
//! runs must drain byte-identical event logs, and the latency log must
//! be byte-identical with telemetry on vs off. Exits nonzero if any
//! gate fails. The full run's standard output is
//! `results/fig_trace.txt` (the gate compares them).
//!
//! `cargo run --release -p ldp-bench --bin fig_trace [-- --seed 11] > results/fig_trace.txt`

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use dns_server::{ServerEngine, SimDnsServer};
use dns_wire::{Name, RData, Record, Soa};
use dns_zone::{Catalog, Zone};
use ldp_bench::{arg_f64, arg_u64, cdf_rows, identical, ok_fail, reject_unknown_flags};
use ldp_replay::{LatencyLog, SimReplayClient};
use ldp_telemetry::{self as tel, Kind};
use ldp_trace::TraceEntry;
use netsim::{PathConfig, SimConfig, SimDuration, SimTime, Simulator, Topology};
use workloads::broot::BRootSpec;

fn n(s: &str) -> Name {
    s.parse().expect("static name is valid")
}

/// A minimal root zone: SOA plus a few TLD delegations, enough for the
/// server to answer every B-Root query (referral or NXDOMAIN) without
/// pretending to hold real root data.
fn root_engine() -> Arc<ServerEngine> {
    let mut z = Zone::new(Name::root());
    z.insert(Record::new(
        Name::root(),
        86400,
        RData::Soa(Soa {
            mname: n("a.root-servers.net"),
            rname: n("nstld.verisign-grs.com"),
            serial: 20180101, // yyyymmdd
            refresh: 1800,
            retry: 900,
            expire: 604_800,
            minimum: 86400,
        }),
    ))
    .expect("SOA inserts into fresh zone");
    for (tld, ns) in [
        ("com", "a.gtld-servers.net"),
        ("net", "a.gtld-servers.net"),
        ("org", "a0.org.afilias-nst.info"),
    ] {
        z.insert(Record::new(n(tld), 172_800, RData::Ns(n(ns))))
            .expect("NS inserts into fresh zone");
    }
    let mut cat = Catalog::new();
    cat.insert(z);
    Arc::new(ServerEngine::with_catalog(cat))
}

/// One replay of `trace` through the simulator. Returns the latency
/// log rendered as deterministic text (the transcript the gates
/// compare) and what the simulator recorded (nothing unless
/// `telemetry`).
fn run_once(
    trace: &[TraceEntry],
    server_addr: SocketAddr,
    horizon_s: f64,
    telemetry: bool,
) -> (String, tel::Log) {
    let mut sim = Simulator::new(
        Topology::uniform(PathConfig {
            rtt: SimDuration::from_millis(40),
            bandwidth_bps: None,
            loss: 0.0,
        }),
        SimConfig::default(),
    );
    sim.set_recording(telemetry);
    sim.add_host(
        &[server_addr.ip()],
        Box::new(SimDnsServer::new(
            root_engine(),
            server_addr,
            Some(SimDuration::from_secs(20)),
        )),
    );
    let log: LatencyLog = Arc::new(Mutex::new(vec![]));
    let client = SimReplayClient::new(trace.to_vec(), server_addr, log.clone());
    let srcs = client.source_addrs();
    let client_id = sim.add_host(&srcs, Box::new(client));
    SimReplayClient::schedule(&mut sim, client_id, trace, SimTime::ZERO);
    sim.run_until(SimTime::from_secs_f64(horizon_s));

    let mut records = log.lock().expect("latency log lock").clone();
    records.sort_by_key(|r| r.seq);
    let mut transcript = String::new();
    for r in &records {
        let _ = writeln!(
            transcript,
            "q{} sent={:.6} replied={:.6} bytes={}",
            r.seq, r.sent_s, r.replied_s, r.response_bytes
        );
    }
    (transcript, sim.drain_recording())
}

fn main() {
    reject_unknown_flags(&["--seed", "--scale", "--secs"]);
    let seed = arg_u64("--seed", 11);
    // Scale keeps the full event stream inside one ring buffer
    // (~3 k queries × ~14 events ≈ 41 k of 64 Ki slots).
    let scale = arg_f64("--scale", 800.0);
    let secs = arg_f64("--secs", 60.0);
    let mut failed = false;

    let spec = BRootSpec {
        duration_secs: secs,
        ..BRootSpec::b_root_17a().scaled(scale)
    };
    let server_addr = spec.server;
    let trace = spec.generate(seed);
    let horizon = secs + 10.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fig_trace: B-Root-17a/{scale:.0} replay, {} queries over {secs:.0}s, seed {seed}",
        trace.len()
    );

    // Determinism gates: every event carries the simulator's virtual
    // time, so reruns drain identical logs.
    let (lat_on_a, log) = run_once(&trace, server_addr, horizon, true);
    let (lat_on_b, log_b) = run_once(&trace, server_addr, horizon, true);
    let (lat_off, log_off) = run_once(&trace, server_addr, horizon, false);
    let events = log.events;

    let log_a = tel::render_timeline(&events);
    let rerun_ok = log_a == tel::render_timeline(&log_b.events);
    let onoff_ok = lat_on_a == lat_off && lat_on_a == lat_on_b && log_off.events.is_empty();
    let _ = writeln!(
        out,
        "determinism: event logs rerun {} ({} events), latency on/off {}",
        identical(rerun_ok),
        events.len(),
        identical(onoff_ok),
    );
    failed |= !rerun_ok || !onoff_ok;
    if events.is_empty() {
        let _ = writeln!(out, "gate: FAIL — telemetry-enabled run drained no events");
        failed = true;
    }
    // A full ring would have overwritten the oldest events: every
    // count below would be short.
    if log.lost != 0 {
        let _ = writeln!(out, "gate: FAIL — the ring lost {} events", log.lost);
        failed = true;
    }
    // The telemetry budget, as a count: a UDP query records 11 events
    // (four lifecycle marks, three server spans, one transport mark).
    // What recording them costs in time is `telemetry.on_overhead_pct`
    // in `benchmark/`, reported and not gated.
    const EVENTS_PER_QUERY_CEILING: usize = 12;
    let budget_ok = events.len() <= EVENTS_PER_QUERY_CEILING * trace.len();
    let _ = writeln!(
        out,
        "gate: {:.2} recorded events per replayed query (ceiling {EVENTS_PER_QUERY_CEILING}) — {}",
        events.len() as f64 / trace.len() as f64,
        ok_fail(budget_ok)
    );
    failed |= !budget_ok;

    // Per-query lifecycle breakdown.
    let chain = [Kind::QEnqueue, Kind::QSend, Kind::QResponse, Kind::QMatch];
    let breakdown = tel::stage_breakdown(&events, &chain);
    let _ = writeln!(out, "\nper-stage latency (s), first-send lifecycles:");
    for stage in &breakdown.stages {
        let label = stage.label();
        match stage.summary() {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "  {label:<24} n={:<6} min={:.6} p50={:.6} p95={:.6} max={:.6} unfinished={}",
                    s.count, s.min, s.median, s.p95, s.max, stage.unfinished
                );
                for row in cdf_rows(&label, &stage.samples_secs, "s") {
                    let _ = writeln!(out, "    {row}");
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {label:<24} (no samples, unfinished={})",
                    stage.unfinished
                );
            }
        }
    }

    // Σb is the payload total per kind — for the simulator's batched
    // dispatch counters (sim.deliver, sim.host_timer) it is the real
    // dispatch count; for marks it sums bytes/id payloads.
    let _ = writeln!(out, "\nevent counts by kind (n events, Σb payload):");
    for (name, count, b_sum) in tel::count_by_kind(&events) {
        let _ = writeln!(out, "  {name:<24} n={count:<8} Σb={b_sum}");
    }

    let _ = writeln!(out, "\nfolded stacks (flamegraph input, self-time ns):");
    for line in tel::folded_stacks(&events).lines().take(16) {
        let _ = writeln!(out, "  {line}");
    }

    let _ = writeln!(out, "\ntimeline excerpt (first 24 events):");
    for line in log_a.lines().take(24) {
        let _ = writeln!(out, "  {line}");
    }

    print!("{out}");
    if failed {
        std::process::exit(1);
    }
}
