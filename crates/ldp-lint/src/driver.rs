//! Workspace walk, diagnostic rendering, and exit-code policy.

use std::fs;
use std::path::{Path, PathBuf};

use crate::allowlist::Allowlist;
use crate::rules::{analyze_source, Diagnostic};

/// Outcome of a full `check` run.
#[derive(Debug, Default)]
pub(crate) struct CheckReport {
    /// Diagnostics that survived the allowlist.
    pub errors: Vec<Diagnostic>,
    /// Diagnostics suppressed by the allowlist.
    pub suppressed: usize,
    /// Allowlist entries that suppressed nothing (`RULE path` strings).
    pub unused_allows: Vec<String>,
    /// Number of `.rs` files analyzed.
    pub files: usize,
}

impl CheckReport {
    /// Process exit code for this report: 1 on any diagnostic, and on
    /// any unused allowlist entry, so `ldp-lint.allow` cannot rot.
    fn exit_code(&self) -> i32 {
        if self.errors.is_empty() && self.unused_allows.is_empty() {
            0
        } else {
            1
        }
    }
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "node_modules"];

/// Recursively collect `.rs` files under `root`, sorted for stable output.
fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.filter_map(|e| e.ok()).collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Run every rule over every `.rs` file under `root`, one file at a
/// time, filtering through `allowlist`. `files` counts every `.rs` file
/// read, including exempt test/fixture files.
pub fn check(root: &Path, mut allowlist: Allowlist) -> std::io::Result<CheckReport> {
    let mut report = CheckReport::default();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = match fs::read_to_string(&path) {
            Ok(s) => s,
            Err(_) => continue, // non-UTF8 (shouldn't happen in this tree)
        };
        report.files += 1;
        for diag in analyze_source(&rel, &src) {
            if allowlist.allows(&diag) {
                report.suppressed += 1;
            } else {
                report.errors.push(diag);
            }
        }
    }
    report.unused_allows = allowlist
        .unused()
        .iter()
        .map(|e| {
            format!(
                "{} {} ({}:{})",
                e.rule,
                e.path_suffix,
                allowlist.name(),
                e.line
            )
        })
        .collect();
    Ok(report)
}

/// Render one diagnostic in the conventional `path:line` form.
pub fn render(diag: &Diagnostic) -> String {
    format!(
        "{}:{}: error[{}]: {}",
        diag.path, diag.line, diag.rule, diag.message
    )
}

/// Print the full report to stdout; returns the exit code.
pub fn print_report(report: &CheckReport) -> i32 {
    for e in &report.errors {
        println!("{}", render(e));
    }
    for u in &report.unused_allows {
        println!("error[allowlist]: unused entry {u}");
    }
    let code = report.exit_code();
    println!(
        "ldp-lint: {} — {} files, {} error(s), {} unused allow(s), {} suppressed",
        if code == 0 { "ok" } else { "FAIL" },
        report.files,
        report.errors.len(),
        report.unused_allows.len(),
        report.suppressed
    );
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed fixture tree, resolved both under cargo and under a
    /// bare `rustc --test` invoked from the repo root.
    fn fixture_root() -> PathBuf {
        if let Some(dir) = option_env!("CARGO_MANIFEST_DIR") {
            return Path::new(dir).join("fixtures");
        }
        for cand in ["crates/ldp-lint/fixtures", "fixtures"] {
            let p = Path::new(cand);
            if p.is_dir() {
                return p.to_path_buf();
            }
        }
        panic!("fixture tree not found; run from the repo root");
    }

    fn fixture_report() -> CheckReport {
        check(&fixture_root(), Allowlist::default()).expect("fixture walk")
    }

    #[test]
    fn fixtures_fail_with_nonzero_exit() {
        let report = fixture_report();
        assert!(!report.errors.is_empty());
        assert_eq!(report.exit_code(), 1);
    }

    /// Lines of every `rule` diagnostic in the fixture file ending in
    /// `path_suffix`.
    fn lines(report: &CheckReport, rule: &str, path_suffix: &str) -> Vec<u32> {
        report
            .errors
            .iter()
            .filter(|d| d.rule == rule && d.path.ends_with(path_suffix))
            .map(|d| d.line)
            .collect()
    }

    #[test]
    fn fixtures_trip_every_rule_with_correct_locations() {
        let report = fixture_report();
        let at = |rule: &str, path_suffix: &str| lines(&report, rule, path_suffix);
        assert_eq!(at("D1", "replay/src/d1_wall_clock.rs"), [5]);
        assert_eq!(at("D3", "workloads/src/d3_thread_rng.rs"), [4]);
        assert_eq!(at("P1", "dns-wire/src/p1_unwrap.rs"), [5]);
        assert_eq!(at("A1", "dns-server/src/a1_unbounded.rs"), [4]);
        assert_eq!(at("T1", "telemetry/src/t1_wall_clock.rs"), [5]);
        assert_eq!(at("R1", "replay/src/r1_unbounded_retry.rs"), [4]);
        assert_eq!(at("S1", "shard/src/s1_enqueue_remote.rs"), [5]);
        // D2 reports where the type is named — the `use` and the field —
        // not where it is iterated (line 10).
        assert_eq!(at("D2", "netsim/src/d2_hash_iter.rs"), [2, 5]);
        // D4: a path into a real-clock module, an import out of one, a
        // stored wall-clock type.
        assert_eq!(at("D4", "netsim/src/d4_taint.rs"), [7]);
        assert_eq!(at("D4", "netsim/src/d4_import.rs"), [5, 8]);
    }

    /// The D2 cross-file pair: the hash collection lives in `table.rs`
    /// (behind a type alias), the hash-order iteration in
    /// `d2_cross_file_gap.rs`, which has no hash token of its own. The
    /// pair is caught at the declaration.
    #[test]
    fn d2_cross_file_gap_fixture_is_detected() {
        let report = fixture_report();
        assert_eq!(lines(&report, "D2", "netsim/src/table.rs"), [8, 10]);
        assert!(
            !report
                .errors
                .iter()
                .any(|d| d.path.ends_with("netsim/src/d2_cross_file_gap.rs")),
            "{:#?}",
            report.errors
        );
    }

    /// Clean sim-path code, the real-clock modules themselves and the
    /// sanctioned `enqueue_remote` call site draw nothing.
    #[test]
    fn clean_fixture_produces_no_errors() {
        let report = fixture_report();
        for clean in [
            "netsim/src/clean.rs",
            "replay/src/capture.rs",
            "dns-server/src/socket_server.rs",
            "shard/src/exchange.rs",
        ] {
            assert!(
                !report.errors.iter().any(|d| d.path.ends_with(clean)),
                "{clean} must not be flagged: {:#?}",
                report.errors
            );
        }
    }

    /// One entry per fixture file that trips a rule.
    const FIXTURE_ALLOWS: &str = "D1 replay/src/d1_wall_clock.rs -- fixture\n\
         D2 netsim/src/d2_hash_iter.rs\n\
         D2 netsim/src/table.rs\n\
         D3 workloads/src/d3_thread_rng.rs\n\
         D4 netsim/src/d4_taint.rs\n\
         D4 netsim/src/d4_import.rs\n\
         P1 dns-wire/src/p1_unwrap.rs\n\
         A1 dns-server/src/a1_unbounded.rs\n\
         T1 telemetry/src/t1_wall_clock.rs\n\
         R1 replay/src/r1_unbounded_retry.rs\n\
         S1 shard/src/s1_enqueue_remote.rs\n";

    #[test]
    fn allowlist_suppresses_fixture_errors() {
        let al = Allowlist::parse(FIXTURE_ALLOWS).unwrap();
        let report = check(&fixture_root(), al).expect("fixture walk");
        assert!(report.errors.is_empty(), "{:#?}", report.errors);
        assert!(report.suppressed >= 11);
        assert!(
            report.unused_allows.is_empty(),
            "{:?}",
            report.unused_allows
        );
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn unused_allowlist_entries_are_reported() {
        // Nothing survives the allowlist, yet the stale entry alone
        // fails the run.
        let al = Allowlist::parse(&format!("{FIXTURE_ALLOWS}P1 no/such/file.rs")).unwrap();
        let report = check(&fixture_root(), al).expect("fixture walk");
        assert!(report.errors.is_empty(), "{:#?}", report.errors);
        assert_eq!(report.unused_allows.len(), 1);
        assert!(report.unused_allows[0].contains("no/such/file.rs"));
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn render_is_path_line_rule_message() {
        let d = Diagnostic {
            rule: "D1",
            path: "crates/replay/src/engine.rs".into(),
            line: 121,
            message: "wall clock".into(),
        };
        assert_eq!(
            render(&d),
            "crates/replay/src/engine.rs:121: error[D1]: wall clock"
        );
    }
}
