//! `ldp-lint` — LDplayer's own static-analysis pass.
//!
//! Enforces the determinism and panic-safety invariants the simulator's
//! correctness claims rest on (see DESIGN.md "Correctness invariants"):
//!
//! * **D1** no wall-clock reads outside real-clock modules
//! * **D2** no `HashMap`/`HashSet` in simulator paths
//! * **D3** no ambient randomness — all RNG flows from a seed
//! * **D4** simulator paths name no wall-clock type and no real-clock
//!   module (direct reads are D1/T1)
//! * **P1** no panics in packet-decode / server hot paths
//! * **A1** no unbounded channels in server/replay/proxy crates
//! * **T1** no raw clock reads in crates/telemetry — use ClockSource
//! * **R1** no unbounded retry loops in server/replay/proxy crates
//! * **S1** no cross-shard sends outside the shard crate's exchange
//!
//! Usage:
//!
//! ```text
//! ldp-lint check [--root DIR] [--allowlist FILE]
//! ldp-lint rules
//! ldp-lint explain <RULE>
//! ```
//!
//! `check` walks every `.rs` file under `--root` (default: the nearest
//! ancestor containing `Cargo.toml`, i.e. the workspace root), applies
//! the rules to each file's tokens, filters through the allowlist
//! (default: `ldp-lint.allow` next to that `Cargo.toml`, if present),
//! prints `path:line` diagnostics and exits 1 on any diagnostic the
//! allowlist does not cover and on any allowlist entry that covers
//! nothing.
//!
//! The crate is dependency-free like the rest of the workspace: a
//! hand-rolled lexer rather than `syn`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod allowlist;
mod driver;
mod lexer;
mod rules;

use allowlist::Allowlist;

fn usage() -> &'static str {
    "usage: ldp-lint <check [--root DIR] [--allowlist FILE] | rules | explain <RULE>>"
}

/// Nearest ancestor of the current directory containing a `Cargo.toml`
/// with a `[workspace]` table (falls back to plain `Cargo.toml`, then `.`).
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut fallback: Option<PathBuf> = None;
    let mut dir: Option<&Path> = Some(&cwd);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return d.to_path_buf();
            }
            fallback.get_or_insert_with(|| d.to_path_buf());
        }
        dir = d.parent();
    }
    fallback.unwrap_or(cwd)
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut allow_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => {
                    eprintln!("ldp-lint: --root needs a value\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--allowlist" => match it.next() {
                Some(v) => allow_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("ldp-lint: --allowlist needs a value\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("ldp-lint: unknown argument {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(find_workspace_root);
    if !root.is_dir() {
        eprintln!("ldp-lint: root {} is not a directory", root.display());
        return ExitCode::from(2);
    }

    // Default allowlist: `ldp-lint.allow` at the root, when it exists.
    let allow_path = allow_path.or_else(|| {
        let p = root.join("ldp-lint.allow");
        p.is_file().then_some(p)
    });
    let allow = match &allow_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => match Allowlist::parse_named(&text, &p.display().to_string()) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("ldp-lint: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("ldp-lint: cannot read {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => Allowlist::default(),
    };

    match driver::check(&root, allow) {
        Ok(report) => ExitCode::from(driver::print_report(&report) as u8),
        Err(e) => {
            eprintln!("ldp-lint: walk failed under {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn cmd_rules() -> ExitCode {
    for r in rules::CATALOG {
        println!("{:<3} {}", r.id, r.summary);
    }
    println!();
    println!(
        "Test code (#[cfg(test)], #[test]), tests/, benches/, examples/ and\n\
         fixtures/ are exempt. Intentional exceptions go in ldp-lint.allow as\n\
         `RULE path-suffix -- reason`. `ldp-lint explain <RULE>` prints the\n\
         rationale for one rule."
    );
    ExitCode::SUCCESS
}

fn cmd_explain(args: &[String]) -> ExitCode {
    let Some(id) = args.first() else {
        eprintln!("ldp-lint: explain needs a rule id\n{}", usage());
        return ExitCode::from(2);
    };
    let id = id.to_uppercase();
    match rules::rule_info(&id) {
        Some(r) => {
            println!("{}", r.id);
            println!("  {}", r.summary);
            println!();
            for line in r.rationale.lines() {
                println!("  {line}");
            }
            ExitCode::SUCCESS
        }
        None => {
            let known: Vec<&str> = rules::CATALOG.iter().map(|r| r.id).collect();
            eprintln!(
                "ldp-lint: unknown rule {id:?} (known: {})",
                known.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("rules") => cmd_rules(),
        Some("explain") => cmd_explain(&args[1..]),
        Some(other) => {
            eprintln!("ldp-lint: unknown command {other:?}\n{}", usage());
            ExitCode::from(2)
        }
        None => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
