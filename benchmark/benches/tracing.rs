//! The traced run (`--trace 1`): host-boundary spans, isolated layer
//! replays and the comparisons that put a layer on or off the path.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use dns_server::ServerEngine;
use ldp_core::emulation::{views_from_hierarchy, EmulationConfig};
use ldp_telemetry as tel;
use netsim::{SimConfig, Topology};

use crate::layers::{self, Datagram};
use crate::report::{self, Metrics, RunResult, PER_LAYER};
use crate::rig::{BareScript, Probe, Rig, SimKind, Span, OP_NAMES};
use crate::stats::{piecewise_floor, resolved, Series};
use crate::{run_rep, setup, Args, Checker, Inputs, SetUp, SetupSamples, Variant, Workload};

/// Wall time one host spent in its callbacks during one repetition.
#[derive(Debug, Clone)]
struct HostBusy {
    layer: &'static str,
    host: usize,
    busy_ns: [u64; 3],
    calls: [u64; 3],
    messages: u64,
}

impl HostBusy {
    fn busy(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
    fn calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

fn host_busy(rig: &Rig) -> Vec<HostBusy> {
    rig.probes
        .iter()
        .map(|p| {
            let mut h = HostBusy {
                layer: p.layer,
                host: p.host,
                busy_ns: [0; 3],
                calls: [0; 3],
                messages: p.messages.load(std::sync::atomic::Ordering::Relaxed),
            };
            for s in p.spans.lock().expect("span buffer").iter() {
                h.busy_ns[s.op as usize] += s.end_ns - s.start_ns;
                h.calls[s.op as usize] += 1;
            }
            h
        })
        .collect()
}

struct TracedRep {
    wall: f64,
    events: u64,
    hosts: Vec<HostBusy>,
}

/// Mean of `f` over the repetitions in `reps`.
fn mean_of(reps: &[&TracedRep], f: impl Fn(&TracedRep) -> f64) -> f64 {
    reps.iter().map(|r| f(r)).sum::<f64>() / reps.len().max(1) as f64
}

/// Busy time on the critical shard: all hosts on a plain simulator, the
/// busier shard's hosts on a sharded one (round-robin placement).
fn critical_busy_ns(rep: &TracedRep, kind: SimKind) -> f64 {
    let shards = match kind {
        SimKind::Plain => 1,
        SimKind::Sharded(n) => n as usize,
    };
    (0..shards)
        .map(|s| {
            rep.hosts
                .iter()
                .filter(|h| h.host % shards == s)
                .map(HostBusy::busy)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0) as f64
}

fn write_trace_files(
    wl: Workload,
    rep_index: usize,
    wall: f64,
    spans: &[(&'static str, Vec<Span>)],
) {
    let dir = report::out_dir();
    let mut text = String::from("# name start_ns end_ns cause request\n");
    let mut folded: Vec<(String, u64)> = Vec::new();
    let mut covered = 0u64;
    for (layer, list) in spans {
        for s in list {
            let name = format!("{layer}.{}", OP_NAMES[s.op as usize]);
            let _ = writeln!(
                text,
                "{name} {} {} sim.run#{rep_index} {:016x}",
                s.start_ns, s.end_ns, s.req
            );
            let d = s.end_ns - s.start_ns;
            covered += d;
            match folded.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += d,
                None => folded.push((name, d)),
            }
        }
    }
    let mut out = format!(
        "sim.run {}\n",
        ((wall * 1e9) as u64).saturating_sub(covered)
    );
    for (name, total) in &folded {
        let _ = writeln!(out, "sim.run;{name} {total}");
    }
    for (ext, body) in [("spans", &text), ("folded", &out)] {
        let path = dir.join(format!("trace-{}.{ext}", wl.name()));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
}

fn topology(inputs: &Inputs) -> Topology {
    match inputs {
        Inputs::Broot(_) => crate::broot::topology(),
        Inputs::Rec(_) => EmulationConfig::default().topology,
    }
}

/// One side of the traced run's interleaved repetitions.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    /// Every host wrapped, spans recorded.
    Traced,
    /// The workload as the end-to-end run measures it.
    Untraced,
    Telemetry,
    Guard,
}

impl Side {
    fn name(self) -> &'static str {
        match self {
            Side::Traced => "traced",
            Side::Untraced => "untraced",
            Side::Telemetry => "telemetry",
            Side::Guard => "guard",
        }
    }

    fn variant(self) -> Variant {
        match self {
            Side::Traced => Variant {
                spans: true,
                ..Variant::default()
            },
            Side::Untraced | Side::Telemetry => Variant::default(),
            Side::Guard => Variant {
                guard: true,
                ..Variant::default()
            },
        }
    }
}

/// The repetitions of one side: slice walls for the per-slice floor,
/// whole walls for the fastest-3 ranges.
#[derive(Default)]
struct SideReps {
    slices: Vec<Vec<f64>>,
}

impl SideReps {
    fn floor(&self) -> f64 {
        piecewise_floor(&self.slices)
    }
    fn whole(&self) -> Series {
        Series::new(
            &self
                .slices
                .iter()
                .map(|r| r.iter().sum())
                .collect::<Vec<f64>>(),
        )
    }
}

/// Percentage by which `with` is slower than `base` (per-slice floors),
/// and whether the whole repetitions' fastest-3 ranges are disjoint.
fn overhead_pct(base: &SideReps, with: &SideReps) -> (f64, bool) {
    (
        (with.floor() - base.floor()) / base.floor() * 100.0,
        resolved(&base.whole(), &with.whole()),
    )
}

/// A ratio is printed as resolved only when the fastest-3 ranges are disjoint.
fn verdict(ok: bool) -> &'static str {
    if ok {
        "resolved"
    } else {
        "unresolved (fastest-3 ranges overlap)"
    }
}

/// `crates/shard` on and off the path: a UDP-only B-Root trace (TCP
/// cannot cross a shard boundary) on a plain `Simulator`, on one shard
/// and on two, taking turns. Sets the `shard.*` metrics and returns the
/// violations: all three must leave the same transcript and event count.
fn shard_comparison(inputs: &Inputs, rounds: usize, m: &mut Metrics) -> Vec<String> {
    const KINDS: [SimKind; 3] = [SimKind::Plain, SimKind::Sharded(1), SimKind::Sharded(2)];
    let queries = inputs.trace().len() as f64;
    let mut checker = Checker::default();
    let mut series = KINDS.map(|_| SideReps::default());
    for round in 0..rounds {
        for (k, kind) in KINDS.into_iter().enumerate() {
            let variant = Variant {
                kind: Some(kind),
                ..Variant::default()
            };
            let (rep, a) = run_rep(Workload::BrootUdpX2, inputs, variant);
            checker.check(
                &format!("shard comparison {kind:?} round {round}"),
                &rep,
                true,
            );
            if kind == SimKind::Sharded(2) {
                // Host 0 is the server, host 1 the replay client: on two
                // shards every datagram either receives crossed the boundary.
                let (server, client) = (a.rig.sim.stats(0), a.rig.sim.stats(1));
                m.set(
                    "shard.cross_packets_per_query",
                    (server.udp_rx + client.udp_rx) as f64 / queries,
                );
                m.set("shard.lookahead_ms", a.rig.sim.lookahead_ms());
            }
            series[k].slices.push(rep.slices);
        }
    }
    let [plain, one, two] = &series;
    let speedup = plain.floor() / two.floor();
    m.set("shard.x2_speedup", speedup);
    println!(
        "shard.x2_speedup {speedup:.3} {} ({} UDP queries: plain floor {:.4} s, two shards {:.4} s)",
        verdict(resolved(&plain.whole(), &two.whole())),
        queries,
        plain.floor(),
        two.floor()
    );
    let (pct, ok) = overhead_pct(plain, one);
    m.set("shard.x1_overhead_pct", pct);
    println!("shard.x1_overhead_pct {pct:.2} {}", verdict(ok));
    checker.violations
}

pub fn per_layer(args: &Args) -> RunResult {
    let wl = args.workload;
    let kind = wl.sim_kind();
    let mut checker = Checker::default();
    let mut m = Metrics::new(PER_LAYER);

    // Set-up split: floor over the set-ups (and, below, over every assembly).
    let mut samples = SetupSamples::default();
    let mut last: Option<SetUp> = None;
    for _ in 0..if args.quick { 1 } else { 2 } {
        let s = setup(wl, args.seed, args.scale_div());
        samples.note_setup(&s);
        last = Some(s);
    }
    let SetUp {
        inputs,
        one_time_queries,
        ..
    } = last.expect("at least one set-up");
    let queries = inputs.trace().len() as f64;
    println!("inputs: {} queries, seed {}", queries, args.seed);

    // Warm-up 1 captures what every host received.
    let traced = Side::Traced.variant();
    let (rep, cap) = run_rep(
        wl,
        &inputs,
        Variant {
            capture: true,
            ..traced
        },
    );
    checker.check("capture", &rep, true);
    let topo = topology(&inputs);
    let script = BareScript::from_probes(&cap.rig.probes, &topo);
    let received = |layer: &str| -> Vec<Datagram> {
        cap.rig
            .probe(layer)
            .map(|p| layers::datagrams(p))
            .unwrap_or_default()
    };
    let at_server = received("dns-server");
    let at_proxy = received("proxy");
    let at_stub = received("stub");
    let mut everywhere = at_server.clone();
    for layer in ["replay", "dns-resolver", "proxy", "stub"] {
        everywhere.extend(received(layer));
    }
    let horizon = cap.rig.horizon();
    drop(cap);
    let (rep, _) = run_rep(wl, &inputs, traced);
    checker.check("traced warm-up", &rep, true);

    // Traced and untraced repetitions, and the comparisons that put a
    // layer on or off the path, interleaved so that drift hits every
    // side alike. The fastest traced repetition's spans are written out.
    let mut sides = vec![Side::Traced, Side::Untraced];
    if wl == Workload::BrootAuth {
        sides.extend([Side::Telemetry, Side::Guard]);
    }
    let rounds = if args.quick { 2 } else { 5 };
    let mut series: Vec<SideReps> = sides.iter().map(|_| SideReps::default()).collect();
    let mut reps: Vec<TracedRep> = Vec::new();
    let mut best: Option<(usize, f64, Vec<(&'static str, Vec<Span>)>)> = None;
    let mut snapshot = None;
    let mut tcp_conns = 0.0;
    let mut drained = 0usize;
    let mut checkpoints = 0usize;
    for round in 0..rounds {
        for (k, side) in sides.iter().enumerate() {
            if *side == Side::Telemetry {
                tel::clock::use_virtual_clock();
                tel::set_enabled(true);
            }
            let (rep, a) = run_rep(wl, &inputs, side.variant());
            if *side == Side::Telemetry {
                tel::set_enabled(false);
                tel::clock::use_zero_clock();
                drained = tel::drain_all().len();
            }
            // Guard adds retransmit and cadence timers: same transcript, more events.
            checker.check(
                &format!("{} round {round}", side.name()),
                &rep,
                *side != Side::Guard,
            );
            match side {
                Side::Traced => {
                    let hosts = host_busy(&a.rig);
                    if best.as_ref().map_or(true, |(_, w, _)| rep.wall < *w) {
                        let take = |p: &Arc<Probe>| {
                            std::mem::take(&mut *p.spans.lock().expect("span buffer"))
                        };
                        best = Some((
                            round,
                            rep.wall,
                            a.rig.probes.iter().map(|p| (p.layer, take(p))).collect(),
                        ));
                    }
                    if let Some(s) = &a.snapshot {
                        snapshot = Some(*s.lock().expect("resolver snapshot"));
                    }
                    if wl.is_broot() {
                        // Host 0 is the server.
                        tcp_conns = a.rig.sim.stats(0).tcp_accepts as f64;
                    }
                    reps.push(TracedRep {
                        wall: rep.wall,
                        events: rep.events,
                        hosts,
                    });
                }
                Side::Untraced => samples.note_assembly(&rep),
                Side::Guard => {
                    if let Some(stamps) = &a.stamps {
                        checkpoints = stamps.lock().expect("checkpoint stamps").len();
                    }
                }
                _ => {}
            }
            series[k].slices.push(rep.slices);
        }
    }
    if let Some((round, wall, spans)) = &best {
        write_trace_files(wl, *round, *wall, spans);
    }
    drop(best);
    let side = |s: Side| sides.iter().position(|x| *x == s).map(|k| &series[k]);
    let untraced = side(Side::Untraced).expect("untraced side runs on every workload");

    // Null-host replay of the captured schedule on the same kind of simulator.
    let mut bare_walls = Vec::new();
    let mut bare_events = 0u64;
    for _ in 0..if args.quick { 2 } else { layers::PASSES } {
        let mut sim = script.assemble(kind, topo.clone(), SimConfig::default());
        let t = Instant::now();
        bare_events = sim.run_until(horizon);
        bare_walls.push(t.elapsed().as_secs_f64());
    }
    let bare_ns_per_event = Series::new(&bare_walls).floor() * 1e9 / bare_events.max(1) as f64;

    // Per-layer figures from the three fastest traced repetitions.
    let mut order: Vec<&TracedRep> = reps.iter().collect();
    order.sort_by(|a, b| a.wall.total_cmp(&b.wall));
    order.truncate(3);
    let traced_floor = mean_of(&order, |r| r.wall);
    let events = mean_of(&order, |r| r.events as f64);
    let layer = |name: &str, f: &dyn Fn(&HostBusy) -> f64| {
        mean_of(&order, |r| {
            r.hosts
                .iter()
                .filter(|h| h.layer == name)
                .map(f)
                .sum::<f64>()
        })
    };
    let busy = |name: &str| layer(name, &|h| h.busy() as f64);
    for name in ["replay", "dns-server", "dns-resolver", "proxy", "stub"] {
        m.set(&format!("{name}.busy_ns_per_query"), busy(name) / queries);
    }
    m.set(
        "replay.callbacks_per_query",
        layer("replay", &|h| h.calls() as f64) / queries,
    );
    let handled = layer("dns-server", &|h| h.messages as f64);
    m.set("dns-server.handled_per_query", handled / queries);
    m.set(
        "proxy.packets_per_query",
        layer("proxy", &|h| h.messages as f64) / queries,
    );
    let critical = mean_of(&order, |r| critical_busy_ns(r, kind));
    let self_ns = traced_floor * 1e9 - critical;
    m.set("netsim.self_ns_per_query", self_ns / queries);
    m.set("netsim.self_ns_per_event", self_ns / events);
    m.set("netsim.events_per_query", events / queries);
    m.set("netsim.tcp_conns_per_query", tcp_conns / queries);
    m.set("netsim.bare_ns_per_event", bare_ns_per_event);
    let accounted = (critical + events * bare_ns_per_event) / (traced_floor * 1e9) * 100.0;
    m.set("trace.accounted_pct", accounted);
    let (span_overhead, _) = overhead_pct(untraced, side(Side::Traced).expect("traced side"));
    m.set("trace.span_overhead_pct", span_overhead);
    println!(
        "traced floor {:.4} s, untraced floor {:.4} s, host spans {:.4} s, null-host replay {:.4} s for {} events",
        traced_floor, untraced.floor(), critical / 1e9, Series::new(&bare_walls).floor(), bare_events
    );

    let [generate, build, assemble, schedule] = samples.floors();
    m.set("workloads.generate_s", generate);
    m.set(
        "zone-construct.build_s",
        if wl.is_broot() { 0.0 } else { build },
    );
    m.set("zone-construct.one_time_queries", one_time_queries as f64);
    m.set("core.assemble_s", assemble);
    m.set("replay.schedule_s", schedule);

    // Isolated layer replays over the captured inputs.
    let wire = layers::wire(&everywhere);
    m.set("dns-wire.decode_query_ns", wire.decode_query_ns);
    m.set("dns-wire.decode_response_ns", wire.decode_response_ns);
    m.set("dns-wire.encode_query_ns", wire.encode_query_ns);
    m.set("dns-wire.encode_response_ns", wire.encode_response_ns);
    m.set("dns-wire.query_bytes_mean", wire.query_bytes_mean);
    m.set("dns-wire.response_bytes_mean", wire.response_bytes_mean);
    let engine: Arc<ServerEngine> = match &inputs {
        Inputs::Broot(i) => i.engine.clone(),
        Inputs::Rec(i) => Arc::new(ServerEngine::with_views(views_from_hierarchy(&i.hierarchy))),
    };
    let server = layers::server(&engine, &at_server);
    m.set("dns-server.handle_ns", server.handle_ns);
    m.set("dns-server.answer_ns", server.answer_ns);
    m.set(
        "dns-server.glue_ns",
        busy("dns-server") / handled.max(1.0) - server.handle_ns,
    );
    m.set("dns-zone.lookup_ns", server.lookup_ns);
    m.set("dns-zone.view_select_ns", server.view_select_ns);
    m.set("dns-zone.views", server.views as f64);
    m.set("netsim.queue_ns_per_op", {
        let t0 = inputs.trace().first().map_or(0, |e| e.time_us);
        let times: Vec<u64> = inputs.trace().iter().map(|e| e.time_us - t0).collect();
        layers::queue(&times)
    });
    if let Inputs::Rec(i) = &inputs {
        let (get_ns, put_ns) = layers::cache(&i.trace, &at_stub);
        m.set("cache.get_ns", get_ns);
        m.set("cache.put_ns", put_ns);
        m.set(
            "proxy.rewrite_ns",
            layers::proxy(&at_proxy, EmulationConfig::default().meta_addr),
        );
    }
    if let Some(s) = snapshot {
        let stubs = s.stats.stub_queries.max(1) as f64;
        m.set(
            "dns-resolver.upstream_per_query",
            s.stats.upstream_queries as f64 / stubs,
        );
        m.set("cache.hit_share", s.stats.cache_hits as f64 / stubs);
        m.set(
            "cache.delayed_hit_share",
            s.stats.delayed_hits as f64 / stubs,
        );
        m.set(
            "cache.miss_share",
            1.0 - (s.stats.cache_hits + s.stats.delayed_hits) as f64 / stubs,
        );
        m.set("cache.evictions", s.stats.evictions as f64);
        m.set("cache.resident_entries", s.cache_len as f64);
    }

    // The shard comparison: on `broot_auth` over the same spec and seed
    // without TCP, on `broot_udp_x2` over its own trace.
    let udp_only;
    let shard_inputs = match wl {
        Workload::BrootAuth => {
            udp_only = setup(Workload::BrootUdpX2, args.seed, args.scale_div()).inputs;
            Some(&udp_only)
        }
        Workload::BrootUdpX2 => Some(&inputs),
        _ => None,
    };
    if let Some(shard_inputs) = shard_inputs {
        let violations = shard_comparison(shard_inputs, rounds, &mut m);
        checker.violations.extend(violations);
    }
    if let Some(on) = side(Side::Telemetry) {
        let (pct, ok) = overhead_pct(untraced, on);
        m.set("telemetry.on_overhead_pct", pct);
        println!("telemetry.on_overhead_pct {pct:.2} {}", verdict(ok));
        m.set(
            "telemetry.drained_events_per_query",
            drained as f64 / queries,
        );
    }
    if let Some(on) = side(Side::Guard) {
        let (pct, ok) = overhead_pct(untraced, on);
        m.set("guard.on_overhead_pct", pct);
        println!("guard.on_overhead_pct {pct:.2} {}", verdict(ok));
        m.set("guard.checkpoints", checkpoints as f64);
    }

    let (outcome, events) = checker.reference().clone();
    println!(
        "transcript hash {:016x}, {} netsim events per repetition",
        outcome.hash, events
    );
    if accounted < 90.0 {
        println!("NOTE trace.accounted_pct {accounted:.1} is below 90");
    }
    let correct = checker.report() && outcome.failed == 0;
    RunResult {
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: m,
    }
}
