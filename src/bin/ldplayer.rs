//! The `ldplayer` command-line tool: the trace toolchain and replay
//! engine as an operator-facing binary (the role the paper's released
//! scripts play).
//!
//! ```text
//! ldplayer stats   <trace>                      Table-1 statistics
//! ldplayer convert <in> <out>                   between .pcap/.txt/.bin
//! ldplayer mutate  <in> <out> [--all-tcp|--all-tls|--all-udp]
//!                  [--do-fraction F] [--scale-time F] [--tag PREFIX]
//! ldplayer replay  <trace> --target IP:PORT [--fast] [--speed F]
//!                  [--queriers N] [--distributors N]
//! ldplayer serve   --zone <file> --origin <name> [--udp IP:PORT]
//! ldplayer generate --kind broot|rec|syn [--seconds S] [--rate R] [--out F]
//! ```
//!
//! Formats are chosen by extension: `.pcap`, `.txt`, `.bin`.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use ldplayer::replay::{replay, ReplayConfig};
use ldplayer::trace::{
    parse_binary, parse_pcap, parse_text, write_binary, write_pcap, write_text, Mutation, Mutator,
    TraceEntry, TraceStats,
};
use ldplayer::wire::Transport;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let run: fn(&[String]) -> Result<(), String> = match cmd.as_str() {
        "stats" => cmd_stats,
        "convert" => cmd_convert,
        "mutate" => cmd_mutate,
        "replay" => cmd_replay,
        "serve" => cmd_serve,
        "generate" => cmd_generate,
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("ldplayer: unknown command {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // A subcommand knows the flags its usage lines name.
    let usage = usage_of(cmd);
    let known = |a: &str| usage.split(['[', ']', '|', ' ', '\n']).any(|w| w == a);
    let result = match rest.iter().find(|a| a.starts_with("--") && !known(a)) {
        Some(flag) => Err(format!("unknown flag {flag:?}\nusage:\n{usage}")),
        None => run(rest),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ldplayer: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ldplayer stats    <trace.{pcap|txt|bin}>
  ldplayer convert  <in> <out>
  ldplayer mutate   <in> <out> [--all-tcp|--all-tls|--all-udp]
                    [--do-fraction F] [--scale-time F] [--tag PREFIX] [--queries-only]
  ldplayer replay   <trace> --target IP:PORT [--fast] [--speed F]
                    [--queriers N] [--distributors N]
  ldplayer serve    --zone <master-file> --origin <name> [--udp IP:PORT] [--timeout SECS]
  ldplayer generate --kind broot|rec|syn [--seconds S] [--rate R]
                    [--interarrival S] [--clients N] [--seed N] --out <file>";

/// `cmd`'s lines of [`USAGE`]: its own and the continuation lines under
/// it.
fn usage_of(cmd: &str) -> String {
    let head = format!("ldplayer {cmd} ");
    let mut lines = USAGE
        .lines()
        .skip_while(|l| !l.trim_start().starts_with(&head));
    let first = lines.next().into_iter();
    let rest = lines.take_while(|l| !l.contains("ldplayer "));
    first.chain(rest).collect::<Vec<_>>().join("\n")
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `name`'s value when the flag is given: a number `ok` accepts (a NaN
/// fails every comparison, so no check admits it), or why not.
fn flag_f64(
    args: &[String],
    name: &str,
    ok: fn(f64) -> bool,
    want: &str,
) -> Result<Option<f64>, String> {
    let Some(v) = flag_value(args, name) else {
        return Ok(None);
    };
    match v.parse::<f64>() {
        Ok(x) if ok(x) => Ok(Some(x)),
        _ => Err(format!("bad {name} {v:?}: want {want}")),
    }
}

fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Load a trace, dispatching on the file extension.
fn load_trace(path: &str) -> Result<Vec<TraceEntry>, String> {
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    match extension(path) {
        "pcap" => {
            let (entries, skipped) = parse_pcap(&data).map_err(|e| format!("parse {path}: {e}"))?;
            if skipped > 0 {
                eprintln!("note: skipped {skipped} non-DNS packets");
            }
            Ok(entries)
        }
        "txt" | "text" => {
            let text = String::from_utf8(data).map_err(|e| format!("{path}: {e}"))?;
            parse_text(&text).map_err(|e| format!("parse {path}: {e}"))
        }
        "bin" => parse_binary(&data).map_err(|e| format!("parse {path}: {e}")),
        other => Err(format!(
            "unknown trace extension .{other} (want .pcap/.txt/.bin)"
        )),
    }
}

/// Save a trace, dispatching on the file extension.
fn save_trace(path: &str, trace: &[TraceEntry]) -> Result<(), String> {
    let bytes = match extension(path) {
        "pcap" => {
            let (data, skipped) = write_pcap(trace);
            if skipped > 0 {
                eprintln!("note: {skipped} IPv6 entries not representable in pcap output");
            }
            data
        }
        "txt" | "text" => write_text(trace).into_bytes(),
        "bin" => write_binary(trace).map_err(|e| format!("write {path}: {e}"))?,
        other => return Err(format!("unknown output extension .{other}")),
    };
    std::fs::write(path, bytes).map_err(|e| format!("write {path}: {e}"))
}

fn extension(path: &str) -> &str {
    Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats needs a trace file")?;
    let trace = load_trace(path)?;
    let stats = TraceStats::compute(&trace).ok_or("empty trace")?;
    println!("{}", stats.render_row(path));
    let tcp = trace
        .iter()
        .filter(|e| e.transport == Transport::Tcp)
        .count();
    let tls = trace
        .iter()
        .filter(|e| e.transport == Transport::Tls)
        .count();
    let do_bit = trace.iter().filter(|e| e.message.dnssec_ok()).count();
    let queries = trace.iter().filter(|e| e.is_query()).count();
    println!(
        "queries {} / responses {}; transport: {:.1}% TCP, {:.1}% TLS; DO bit on {:.1}%",
        queries,
        trace.len() - queries,
        100.0 * tcp as f64 / trace.len() as f64,
        100.0 * tls as f64 / trace.len() as f64,
        100.0 * do_bit as f64 / trace.len() as f64,
    );
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("convert needs <in> <out>".into());
    };
    let trace = load_trace(input)?;
    save_trace(output, &trace)?;
    println!("{} records: {input} → {output}", trace.len());
    Ok(())
}

fn cmd_mutate(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("mutate needs <in> <out>")?;
    let output = args.get(1).ok_or("mutate needs <in> <out>")?;
    let mut mutations = Vec::new();
    if has_flag(args, "--all-tcp") {
        mutations.push(Mutation::SetTransport(Transport::Tcp));
    }
    if has_flag(args, "--all-tls") {
        mutations.push(Mutation::SetTransport(Transport::Tls));
    }
    if has_flag(args, "--all-udp") {
        mutations.push(Mutation::SetTransport(Transport::Udp));
    }
    let fraction = |x| (0.0..=1.0).contains(&x);
    if let Some(f) = flag_f64(args, "--do-fraction", fraction, "0 to 1")? {
        mutations.push(Mutation::SetDnssecFraction(f));
    }
    let factor = |x: f64| x.is_finite() && x >= 0.0;
    if let Some(f) = flag_f64(args, "--scale-time", factor, "a finite factor >= 0")? {
        mutations.push(Mutation::ScaleTime(f));
    }
    if let Some(tag) = flag_value(args, "--tag") {
        mutations.push(Mutation::UniquePrefix {
            tag: tag.to_string(),
        });
    }
    if has_flag(args, "--queries-only") {
        mutations.push(Mutation::QueriesOnly);
    }
    if mutations.is_empty() {
        return Err("no mutations given (see --help)".into());
    }
    let mut trace = load_trace(input)?;
    Mutator::new(mutations).apply(&mut trace);
    save_trace(output, &trace)?;
    println!("{} records mutated: {input} → {output}", trace.len());
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("replay needs a trace file")?;
    let target = flag_value(args, "--target")
        .ok_or("replay needs --target IP:PORT")?
        .parse()
        .map_err(|e| format!("bad --target: {e}"))?;
    let speed = flag_f64(args, "--speed", positive, "a finite speed > 0")?.unwrap_or(1.0);
    let trace = load_trace(input)?;
    if trace.is_empty() {
        return Err("empty trace".into());
    }
    let config = ReplayConfig {
        target_udp: target,
        target_tcp: target,
        fast_mode: has_flag(args, "--fast"),
        speed,
        distributors: flag_value(args, "--distributors")
            .map(|s| s.parse().map_err(|_| "bad --distributors"))
            .transpose()?
            .unwrap_or(2),
        queriers_per_distributor: flag_value(args, "--queriers")
            .map(|s| s.parse().map_err(|_| "bad --queriers"))
            .transpose()?
            .unwrap_or(3),
        ..Default::default()
    };
    eprintln!(
        "replaying {} queries to {target} ({} mode)…",
        trace.len(),
        if config.fast_mode { "fast" } else { "timed" }
    );
    let report = replay(&trace, &config);
    let rate = report.total_sent as f64 / report.elapsed.as_secs_f64();
    println!(
        "sent {} ({} errors) in {:.2?} → {rate:.0} q/s from {} sources",
        report.total_sent, report.errors, report.elapsed, report.distinct_sources
    );
    let errs = report.timing_errors_us(trace[0].time_us, config.speed);
    if !config.fast_mode {
        if let Some(s) = ldplayer::metrics::Summary::of(&errs) {
            println!(
                "send-time error: median {:.3} ms (q1 {:.3}, q3 {:.3}, max {:.3})",
                s.median / 1e3,
                s.q1 / 1e3,
                s.q3 / 1e3,
                s.max / 1e3
            );
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let zone_path = flag_value(args, "--zone").ok_or("serve needs --zone <master-file>")?;
    let origin: ldplayer::wire::Name = flag_value(args, "--origin")
        .ok_or("serve needs --origin <name>")?
        .parse()
        .map_err(|e| format!("bad --origin: {e}"))?;
    let text = std::fs::read_to_string(zone_path).map_err(|e| format!("read {zone_path}: {e}"))?;
    let zone =
        ldplayer::zone::parse_zone(&text, &origin).map_err(|e| format!("{zone_path}: {e}"))?;
    zone.validate().map_err(|e| format!("{zone_path}: {e}"))?;
    println!(
        "loaded zone {} ({} records)",
        zone.origin(),
        zone.record_count()
    );
    let mut catalog = ldplayer::zone::Catalog::new();
    catalog.insert(zone);
    let engine = Arc::new(ldplayer::server::ServerEngine::with_catalog(catalog));

    let udp_addr = flag_value(args, "--udp").unwrap_or("127.0.0.1:5300");
    let timeout: u64 = flag_value(args, "--timeout")
        .map(|s| s.parse().map_err(|_| "bad --timeout"))
        .transpose()?
        .unwrap_or(20);
    let config = ldplayer::server::ServerConfig {
        udp_addr: udp_addr.parse().map_err(|e| format!("bad --udp: {e}"))?,
        tcp_addr: udp_addr.parse().map_err(|e| format!("bad --udp: {e}"))?,
        tcp_idle_timeout: std::time::Duration::from_secs(timeout),
        ..Default::default()
    };
    let server = ldplayer::server::spawn(engine, config).map_err(|e| format!("bind: {e}"))?;
    println!("serving on udp/tcp {} (kill to stop)", server.udp_addr);
    // The server runs on its own threads; this one has nothing left to
    // do until the process is killed (park may wake spuriously).
    loop {
        std::thread::park();
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    use ldplayer::workloads::{BRootSpec, RecursiveSpec, SyntheticTraceSpec};
    let kind = flag_value(args, "--kind").ok_or("generate needs --kind broot|rec|syn")?;
    let out = flag_value(args, "--out").ok_or("generate needs --out <file>")?;
    let seconds = flag_f64(args, "--seconds", positive, "seconds > 0")?.unwrap_or(60.0);
    let seed: u64 = flag_value(args, "--seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(1);
    let trace = match kind {
        "broot" => {
            let rate = flag_f64(args, "--rate", positive, "queries/s > 0")?.unwrap_or(2000.0);
            let clients: usize = flag_value(args, "--clients")
                .map(|s| s.parse().map_err(|_| "bad --clients"))
                .transpose()?
                .unwrap_or(20_000);
            BRootSpec {
                duration_secs: seconds,
                mean_rate: rate,
                clients,
                ..BRootSpec::b_root_17a()
            }
            .generate(seed)
        }
        "rec" => RecursiveSpec {
            duration_secs: seconds,
            ..RecursiveSpec::rec_17()
        }
        .generate(seed),
        "syn" => {
            let ia = flag_f64(args, "--interarrival", positive, "seconds > 0")?.unwrap_or(0.001);
            SyntheticTraceSpec::fixed_interarrival(ia, seconds).generate(seed)
        }
        other => return Err(format!("unknown --kind {other}")),
    };
    save_trace(out, &trace)?;
    let stats = TraceStats::compute(&trace).ok_or("empty trace generated")?;
    println!("{}", stats.render_row(out));
    Ok(())
}
