//! End-to-end sim-stack benchmark of the LDplayer reproduction.
//!
//! `ldp-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]`
//!
//! A batch benchmark: virtual-time traces run as fast as the host
//! allows, so throughput is work completed per wall second at a stated
//! input size. Only inputs generated from `--seed` reach the measured
//! crates, and every layer is driven through its public API. The last
//! line of standard output is the result object; README.md has the
//! glossary, the timing rule and the calibration record.

mod alloc;
mod broot;
mod layers;
mod rec;
mod report;
mod rig;
mod stats;
mod tracing;

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dns_resolver::ResolverSnapshot;
use ldp_replay::CheckpointStamp;
use ldp_trace::TraceEntry;

use crate::broot::ClassTally;
use crate::report::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::rig::{Outcome, Rig, SimKind, Wrapping};
use crate::stats::Series;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrootAuth,
    BrootUdpX2,
    RecHot,
    RecWide,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BrootAuth,
        Workload::BrootUdpX2,
        Workload::RecHot,
        Workload::RecWide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrootAuth => "broot_auth",
            Workload::BrootUdpX2 => "broot_udp_x2",
            Workload::RecHot => "rec_hot",
            Workload::RecWide => "rec_wide",
        }
    }

    pub fn is_broot(self) -> bool {
        matches!(self, Workload::BrootAuth | Workload::BrootUdpX2)
    }

    /// The simulator the workload's measured repetitions run on.
    pub fn sim_kind(self) -> SimKind {
        match self {
            Workload::BrootUdpX2 => SimKind::Sharded(2),
            _ => SimKind::Plain,
        }
    }
}

pub enum Inputs {
    Broot(broot::Inputs),
    Rec(rec::Inputs),
}

impl Inputs {
    pub fn trace(&self) -> &[TraceEntry] {
        match self {
            Inputs::Broot(i) => &i.trace,
            Inputs::Rec(i) => &i.trace,
        }
    }
}

/// Inputs plus the two set-up phases that produced them.
pub struct SetUp {
    pub inputs: Inputs,
    pub generate_s: f64,
    pub build_s: f64,
    pub one_time_queries: u64,
}

pub fn setup(wl: Workload, seed: u64, scale_div: f64) -> SetUp {
    match wl {
        Workload::BrootAuth | Workload::BrootUdpX2 => {
            let (i, generate_s, build_s) =
                broot::setup(wl == Workload::BrootUdpX2, seed, scale_div);
            SetUp {
                inputs: Inputs::Broot(i),
                generate_s,
                build_s,
                one_time_queries: 0,
            }
        }
        Workload::RecHot | Workload::RecWide => {
            let (i, generate_s, build_s) = rec::setup(wl == Workload::RecWide, seed, scale_div);
            let one_time_queries = i.one_time_queries;
            SetUp {
                inputs: Inputs::Rec(i),
                generate_s,
                build_s,
                one_time_queries,
            }
        }
    }
}

/// How one repetition's simulator is assembled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    /// `None`: the workload's own simulator kind.
    pub kind: Option<SimKind>,
    /// Replay-client guard features on (`broot_*` only).
    pub guard: bool,
    /// Check the answer class of every message the client receives
    /// (`broot_*`; the `rec_*` stub checks in every repetition).
    pub verify: bool,
    /// Record host-boundary spans.
    pub spans: bool,
    /// Keep what every host received.
    pub capture: bool,
}

pub struct Assembled {
    pub rig: Rig,
    pub tally: Option<Arc<Mutex<ClassTally>>>,
    pub stamps: Option<Arc<Mutex<Vec<CheckpointStamp>>>>,
    pub snapshot: Option<Arc<Mutex<ResolverSnapshot>>>,
}

pub fn assemble(wl: Workload, inputs: &Inputs, v: Variant) -> Assembled {
    let span_capacity = inputs.trace().len() * 3;
    let wrapping = Wrapping {
        spans: v.spans,
        capture: v.capture,
        inspect: None,
        span_capacity,
    };
    match inputs {
        Inputs::Broot(i) => {
            let kind = v.kind.unwrap_or(wl.sim_kind());
            let b = broot::assemble(
                i,
                broot::Opts {
                    kind,
                    guard: v.guard,
                    verify: v.verify,
                    wrapping,
                },
            );
            Assembled {
                rig: b.rig,
                tally: b.tally,
                stamps: Some(b.stamps),
                snapshot: None,
            }
        }
        Inputs::Rec(i) => {
            let traced = v.spans || v.capture;
            let r = rec::assemble(i, traced.then_some(wrapping));
            Assembled {
                rig: r.rig,
                tally: None,
                stamps: None,
                snapshot: r.snapshot,
            }
        }
    }
}

/// One repetition: a freshly assembled simulator, `run_until` timed.
pub struct Rep {
    /// Wall seconds of each virtual-time slice (see `Rig::run`).
    pub slices: Vec<f64>,
    /// Their sum.
    pub wall: f64,
    pub events: u64,
    pub outcome: Outcome,
    pub assemble_s: f64,
    pub schedule_s: f64,
}

/// Run an assembled rig to its horizon, then (after `between`, which
/// the count repetition uses to stop counting) read its transcript.
fn finish_rep(a: &mut Assembled, between: impl FnOnce()) -> Rep {
    let (slices, events) = a.rig.run();
    between();
    let outcome = a.rig.outcome();
    let wall = slices.iter().sum();
    Rep {
        slices,
        wall,
        events,
        outcome,
        assemble_s: a.rig.assemble_s,
        schedule_s: a.rig.schedule_s,
    }
}

pub fn run_rep(wl: Workload, inputs: &Inputs, v: Variant) -> (Rep, Assembled) {
    let mut a = assemble(wl, inputs, v);
    let rep = finish_rep(&mut a, || ());
    (rep, a)
}

/// Output verification: every repetition must reproduce the first one.
#[derive(Default)]
pub struct Checker {
    reference: Option<(Outcome, u64)>,
    pub violations: Vec<String>,
}

impl Checker {
    /// Compare `rep` with the reference (the first repetition checked).
    /// `same_events` is false for variants that legitimately add events
    /// (guard timers): their transcript must still be identical.
    pub fn check(&mut self, label: &str, rep: &Rep, same_events: bool) {
        let Some((outcome, events)) = &self.reference else {
            self.reference = Some((rep.outcome.clone(), rep.events));
            return;
        };
        if rep.outcome != *outcome {
            self.violations.push(format!(
                "{label}: transcript {:016x} attempted {} failed {} differs from reference {:016x} {} {}",
                rep.outcome.hash, rep.outcome.attempted, rep.outcome.failed,
                outcome.hash, outcome.attempted, outcome.failed
            ));
        }
        if same_events && rep.events != *events {
            self.violations.push(format!(
                "{label}: {} netsim events, reference has {events}",
                rep.events
            ));
        }
    }

    pub fn reference(&self) -> &(Outcome, u64) {
        self.reference.as_ref().expect("a repetition was checked")
    }

    pub fn report(&self) -> bool {
        for v in &self.violations {
            println!("VIOLATION {v}");
        }
        self.violations.is_empty()
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scale ÷ 16, three repetitions, for a smoke run.
    pub quick: bool,
}

impl Args {
    pub fn scale_div(&self) -> f64 {
        if self.quick {
            16.0
        } else {
            1.0
        }
    }
}

/// Wall times of the four set-up phases, one sample per occurrence.
#[derive(Default)]
pub struct SetupSamples {
    pub generate: Vec<f64>,
    pub build: Vec<f64>,
    pub assemble: Vec<f64>,
    pub schedule: Vec<f64>,
}

impl SetupSamples {
    pub fn note_setup(&mut self, s: &SetUp) {
        self.generate.push(s.generate_s);
        self.build.push(s.build_s);
    }

    pub fn note_assembly(&mut self, rep: &Rep) {
        self.assemble.push(rep.assemble_s);
        self.schedule.push(rep.schedule_s);
    }

    /// Floor of each phase: (generate, build, assemble, schedule).
    pub fn floors(&self) -> [f64; 4] {
        [&self.generate, &self.build, &self.assemble, &self.schedule]
            .map(|v| Series::new(v).floor())
    }
}

fn end_to_end(args: &Args) -> RunResult {
    let wl = args.workload;
    let mut checker = Checker::default();
    let mut samples = SetupSamples::default();
    let started = Instant::now();
    let mut current = setup(wl, args.seed, args.scale_div());
    samples.note_setup(&current);
    let first_setup_s = started.elapsed().as_secs_f64();
    let queries = current.inputs.trace().len() as f64;
    println!("inputs: {} queries, seed {}", queries, args.seed);

    // Warm-up 1 doubles as the verification repetition: plain simulator
    // (so broot_udp_x2 is compared with the unsharded run of its trace),
    // every message the broot client receives class-checked.
    let verify = Variant {
        kind: Some(SimKind::Plain),
        verify: true,
        ..Variant::default()
    };
    let (rep, a) = run_rep(wl, &current.inputs, verify);
    checker.check("verification", &rep, true);
    if let Some(t) = &a.tally {
        let t = t.lock().expect("class tally");
        println!(
            "answer classes: referral {} nxdomain {} wrong {}",
            t.referral, t.nxdomain, t.wrong
        );
    }
    drop(a);
    let (rep, _) = run_rep(wl, &current.inputs, Variant::default());
    checker.check("warm-up", &rep, true);

    // Timed repetitions for --seconds, set-ups repeated in between: the
    // cheaper a set-up, the more samples of it (10 to 30, about 6 s worth).
    let setups_wanted = if args.quick {
        2
    } else {
        ((6.0 / first_setup_s) as usize).clamp(10, 30)
    };
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let started = Instant::now();
    loop {
        if samples.generate.len() < setups_wanted {
            current = setup(wl, args.seed, args.scale_div());
            samples.note_setup(&current);
        }
        let (rep, _) = run_rep(wl, &current.inputs, Variant::default());
        samples.note_assembly(&rep);
        checker.check(&format!("rep {}", reps.len()), &rep, true);
        reps.push(rep.slices);
        let enough = if args.quick {
            true
        } else {
            started.elapsed().as_secs_f64() >= args.seconds
        };
        if reps.len() >= 3 && enough {
            break;
        }
    }

    // The count repetition: live bytes from the start of assembly,
    // allocations and bytes during run_until only.
    alloc::start(alloc::Mode::Live);
    let mut a = assemble(wl, &current.inputs, Variant::default());
    alloc::set_mode(alloc::Mode::Full);
    let mut counts = None;
    let rep = finish_rep(&mut a, || counts = Some(alloc::stop()));
    let counts = counts.expect("counting stopped after the run");
    checker.check("count repetition", &rep, true);
    drop(a);

    let whole = Series::new(&reps.iter().map(|r| r.iter().sum()).collect::<Vec<f64>>());
    let floor = stats::piecewise_floor(&reps);
    let [generate, build, assemble, schedule] = samples.floors();
    let (outcome, events) = checker.reference().clone();
    println!(
        "transcript hash {:016x}, {} netsim events per repetition",
        outcome.hash, events
    );
    println!(
        "run_until: reps_run {} per-slice floor {:.4} s; whole repetitions: floor {:.4} s median {:.4} s quartile spread {:.1} %",
        reps.len(), floor, whole.floor(), whole.median(), whole.spread() * 100.0
    );
    println!(
        "set-up: {} set-ups, {} assemblies; floors: generate {generate:.4} build {build:.4} assemble {assemble:.4} schedule {schedule:.4} s",
        samples.generate.len(), samples.assemble.len()
    );
    println!(
        "count repetition: {} allocations, {} bytes, peak live {} bytes",
        counts.allocs, counts.bytes, counts.peak_live
    );

    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", generate + build + assemble + schedule);
    m.set("qps", queries / floor);
    m.set("allocs_per_query", counts.allocs as f64 / queries);
    m.set("alloc_bytes_per_query", counts.bytes as f64 / queries);
    m.set(
        "peak_heap_mb",
        counts.peak_live as f64 / (1u64 << 20) as f64,
    );
    let correct = checker.report() && outcome.failed == 0;
    RunResult {
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: m,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ldp-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--quick]\n       ldp-benchmark --catalogue",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::BrootAuth,
        seed: 11,
        seconds: 12.0,
        trace: false,
        quick: false,
    };
    let mut have_workload = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                match Workload::ALL.into_iter().find(|w| w.name() == name) {
                    Some(w) => args.workload = w,
                    None => usage(),
                }
                have_workload = true;
            }
            "--seed" => args.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value("a number").parse().unwrap_or_else(|_| usage()),
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .map_or(true, |v| v == "1")
            }
            "--quick" => args.quick = true,
            "--catalogue" => {
                for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
                    for (name, unit, better) in defs {
                        println!("{kind} {name} {unit} {better}");
                    }
                }
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if !have_workload {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let name = args.workload.name();
    println!(
        "benchmark {name}: seed {} seconds {} trace {}{}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { " (quick)" } else { "" }
    );
    let result = if args.trace {
        tracing::per_layer(&args)
    } else {
        end_to_end(&args)
    };
    println!(
        "attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
    result.metrics.print();
    report::stamp(name, args.seed, args.seconds, args.trace, &result);
    println!("{}", result.result_line());
    if !result.correct {
        std::process::exit(1);
    }
}
