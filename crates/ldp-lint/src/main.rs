//! `ldp-lint` — LDplayer's own static-analysis pass.
//!
//! Enforces the determinism and panic-safety invariants the simulator's
//! correctness claims rest on (see DESIGN.md "Correctness invariants"):
//!
//! * **D1** no wall-clock reads outside real-clock modules
//! * **D2** no order-dependent hash-map iteration in simulator paths —
//!   resolved across files through the workspace symbol index (type
//!   aliases, struct fields, `use` renames)
//! * **D3** no ambient randomness — all RNG flows from a seed
//! * **D4** no sim-path fn may *transitively* reach a wall-clock read
//!   (call-graph taint; direct reads are D1/T1)
//! * **P1** no panics in packet-decode / server hot paths
//! * **A1** no unbounded channels in server/replay/proxy crates
//! * **T1** no raw clock reads in crates/telemetry — use ClockSource
//! * **R1** no unbounded retry loops in server/replay/proxy crates
//! * **S1** no cross-shard sends outside the shard crate's exchange
//!
//! Usage:
//!
//! ```text
//! ldp-lint check [--root DIR] [--allowlist FILE] [--deny-unused-allows] [--format json]
//! ldp-lint rules
//! ldp-lint explain <RULE>
//! ldp-lint report <FILE.json>
//! ```
//!
//! `check` walks every `.rs` file under `--root` (default: the nearest
//! ancestor containing `Cargo.toml`, i.e. the workspace root), lexes the
//! whole workspace into a symbol index + call graph, applies the rules,
//! filters through the allowlist (default: `ldp-lint.allow` next to that
//! `Cargo.toml`, if present), prints `path:line` diagnostics and exits 1
//! on any non-allowlisted error. `--format json` swaps the human output
//! for one machine-readable document. `report` re-reads such a document,
//! validates it and prints per-rule counts (exit 2 on malformed input) —
//! the CI gate uses it to prove the JSON side stays parseable.
//!
//! The crate is dependency-free like the rest of the workspace: a
//! hand-rolled lexer rather than `syn`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod allowlist;
mod callgraph;
mod driver;
mod index;
mod json;
mod lexer;
mod rules;

use allowlist::Allowlist;

fn usage() -> &'static str {
    "usage: ldp-lint <check [--root DIR] [--allowlist FILE] [--deny-unused-allows] \
     [--format json] | rules | explain <RULE> | report <FILE.json>>"
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
    let mut deny_unused = false;
    let mut json_out = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-unused-allows" => deny_unused = true,
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
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json_out = true,
                Some("text") => json_out = false,
                _ => {
                    eprintln!("ldp-lint: --format takes `json` or `text`\n{}", usage());
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
        // With --deny-unused-allows, allowlist rot (an entry that no
        // longer suppresses anything) fails the run instead of warning,
        // so CI keeps ldp-lint.allow minimal.
        Ok(report) => {
            let mut code = if json_out {
                print!("{}", driver::render_json(&report));
                report.exit_code()
            } else {
                driver::print_report(&report)
            };
            if deny_unused && !report.unused_allows.is_empty() {
                if !json_out {
                    println!(
                        "ldp-lint: FAIL — {} unused allowlist entr{} (--deny-unused-allows)",
                        report.unused_allows.len(),
                        if report.unused_allows.len() == 1 {
                            "y"
                        } else {
                            "ies"
                        }
                    );
                }
                code = 1;
            }
            ExitCode::from(code as u8)
        }
        Err(e) => {
            eprintln!("ldp-lint: walk failed under {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn cmd_rules() -> ExitCode {
    for r in rules::CATALOG {
        println!("{:<3} {:<8} {}", r.id, r.severity, r.summary);
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
            println!("{} ({})", r.id, r.severity);
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

/// Validate a `--format json` report and print per-rule counts. Exit 2
/// on unreadable/malformed input, 1 when the report itself records
/// errors, 0 otherwise — so the CI gate can chain it after `check`.
fn cmd_report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("ldp-lint: report needs a JSON file\n{}", usage());
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ldp-lint: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let v = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ldp-lint: malformed JSON in {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let num = |key: &str| v.get(key).and_then(|x| x.as_num());
    let arr_len = |key: &str| v.get(key).and_then(|x| x.as_arr()).map(|a| a.len());
    let (Some(files), Some(errors), Some(warnings)) =
        (num("files"), arr_len("errors"), arr_len("warnings"))
    else {
        eprintln!("ldp-lint: {path} is valid JSON but not an ldp-lint report");
        return ExitCode::from(2);
    };
    println!(
        "ldp-lint report: {} files, {} error(s), {} warning(s), {} suppressed",
        files,
        errors,
        warnings,
        num("suppressed").unwrap_or(0.0)
    );
    if let Some(counts) = v.get("rule_counts").and_then(|x| x.as_obj()) {
        for (rule, c) in counts {
            let e = c.get("errors").and_then(|x| x.as_num()).unwrap_or(0.0);
            let w = c.get("warnings").and_then(|x| x.as_num()).unwrap_or(0.0);
            if e > 0.0 || w > 0.0 {
                println!("  {rule:<3} {e} error(s), {w} warning(s)");
            }
        }
    }
    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("rules") => cmd_rules(),
        Some("explain") => cmd_explain(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
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
