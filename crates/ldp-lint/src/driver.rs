//! Workspace walk, diagnostic rendering, and exit-code policy.

use std::fs;
use std::path::{Path, PathBuf};

use crate::allowlist::Allowlist;
use crate::rules::{analyze_files, file_data, Diagnostic, Severity};

/// Outcome of a full `check` run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Errors that survived the allowlist (non-empty → exit 1).
    pub errors: Vec<Diagnostic>,
    /// Warnings (never fail the run).
    pub warnings: Vec<Diagnostic>,
    /// Diagnostics suppressed by the allowlist.
    pub suppressed: usize,
    /// Stale allowlist entries (`RULE path` strings).
    pub unused_allows: Vec<String>,
    /// Number of `.rs` files analyzed.
    pub files: usize,
}

impl CheckReport {
    /// Process exit code for this report.
    pub fn exit_code(&self) -> i32 {
        if self.errors.is_empty() {
            0
        } else {
            1
        }
    }
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "node_modules"];

/// Recursively collect `.rs` files under `root`, sorted for stable output.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
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

/// Run every rule over every `.rs` file under `root`, filtering through
/// `allowlist`.
///
/// Two-phase: the walk lexes every file once into [`crate::index::FileData`],
/// then a single [`analyze_files`] pass builds the workspace symbol
/// index and call graph and runs all rules — per-file and cross-file —
/// over the whole set. `files` counts every `.rs` file read (including
/// exempt test/fixture files that contribute no tokens to the index).
pub fn check(root: &Path, mut allowlist: Allowlist) -> std::io::Result<CheckReport> {
    let mut report = CheckReport::default();
    let mut fds = Vec::new();
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
        if let Some(fd) = file_data(&rel, &src) {
            fds.push(fd);
        }
    }
    for diag in analyze_files(&fds) {
        if allowlist.allows(&diag) {
            report.suppressed += 1;
        } else if diag.severity == Severity::Error {
            report.errors.push(diag);
        } else {
            report.warnings.push(diag);
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
    let sev = match diag.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
    };
    format!(
        "{}:{}: {sev}[{}]: {}",
        diag.path, diag.line, diag.rule, diag.message
    )
}

/// Render the full report as one machine-readable JSON document
/// (`--format json`). `rule_counts` always carries every catalog rule,
/// so downstream tooling can diff counts across runs without key churn.
pub fn render_json(report: &CheckReport) -> String {
    fn diag_json(d: &Diagnostic) -> String {
        let sev = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{sev}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            d.rule,
            crate::json::escape(&d.path),
            d.line,
            crate::json::escape(&d.message),
        )
    }
    let errors: Vec<String> = report.errors.iter().map(diag_json).collect();
    let warnings: Vec<String> = report.warnings.iter().map(diag_json).collect();
    let unused: Vec<String> = report
        .unused_allows
        .iter()
        .map(|u| format!("\"{}\"", crate::json::escape(u)))
        .collect();
    let counts: Vec<String> = crate::rules::CATALOG
        .iter()
        .map(|r| {
            let e = report.errors.iter().filter(|d| d.rule == r.id).count();
            let w = report.warnings.iter().filter(|d| d.rule == r.id).count();
            format!("\"{}\":{{\"errors\":{e},\"warnings\":{w}}}", r.id)
        })
        .collect();
    format!(
        "{{\"version\":2,\"files\":{},\"errors\":[{}],\"warnings\":[{}],\
         \"suppressed\":{},\"unused_allows\":[{}],\"rule_counts\":{{{}}}}}\n",
        report.files,
        errors.join(","),
        warnings.join(","),
        report.suppressed,
        unused.join(","),
        counts.join(",")
    )
}

/// Print the full report to stdout/stderr; returns the exit code.
pub fn print_report(report: &CheckReport) -> i32 {
    for w in &report.warnings {
        println!("{}", render(w));
    }
    for e in &report.errors {
        println!("{}", render(e));
    }
    for u in &report.unused_allows {
        println!("warning[allowlist]: unused entry {u}");
    }
    let verdict = if report.errors.is_empty() {
        "ok"
    } else {
        "FAIL"
    };
    println!(
        "ldp-lint: {} — {} files, {} error(s), {} warning(s), {} suppressed",
        verdict,
        report.files,
        report.errors.len(),
        report.warnings.len(),
        report.suppressed
    );
    report.exit_code()
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

    #[test]
    fn fixtures_trip_every_rule_with_correct_locations() {
        let report = fixture_report();
        let hit = |rule: &str, path_suffix: &str| {
            report
                .errors
                .iter()
                .find(|d| d.rule == rule && d.path.ends_with(path_suffix))
                .unwrap_or_else(|| panic!("expected {rule} in {path_suffix}: {:#?}", report.errors))
        };
        assert_eq!(hit("D1", "replay/src/d1_wall_clock.rs").line, 5);
        assert_eq!(hit("D2", "netsim/src/d2_hash_iter.rs").line, 10);
        assert_eq!(hit("D3", "workloads/src/d3_thread_rng.rs").line, 4);
        assert_eq!(hit("P1", "dns-wire/src/p1_unwrap.rs").line, 5);
        assert_eq!(hit("A1", "dns-server/src/a1_unbounded.rs").line, 4);
        assert_eq!(hit("T1", "telemetry/src/t1_wall_clock.rs").line, 5);
        assert_eq!(hit("R1", "replay/src/r1_unbounded_retry.rs").line, 4);
        // v2 cross-file rules.
        assert_eq!(hit("D4", "netsim/src/d4_taint.rs").line, 6);
        assert_eq!(hit("D4", "netsim/src/d4_ambiguous.rs").line, 7);
        assert_eq!(hit("S1", "shard/src/s1_enqueue_remote.rs").line, 5);
        // exchange.rs is the sanctioned enqueue_remote call site.
        assert!(
            !report
                .errors
                .iter()
                .any(|d| d.rule == "S1" && d.path.ends_with("shard/src/exchange.rs")),
            "{:#?}",
            report.errors
        );
    }

    /// The once-pinned D2 cross-file gap is now closed: the hash
    /// collection lives in `table.rs` (behind a type alias), the
    /// iteration in `d2_cross_file_gap.rs`, and phase-1 indexing
    /// resolves the field across the file boundary.
    #[test]
    fn d2_cross_file_gap_fixture_is_detected() {
        let report = fixture_report();
        let hit = report
            .errors
            .iter()
            .find(|d| d.path.ends_with("netsim/src/d2_cross_file_gap.rs"))
            .unwrap_or_else(|| panic!("cross-file D2 not detected: {:#?}", report.errors));
        assert_eq!(hit.rule, "D2");
        assert_eq!(hit.line, 13);
        assert!(hit.message.contains("another file"), "{}", hit.message);
    }

    /// D4's taint chain names every hop so the report is actionable.
    #[test]
    fn d4_fixture_report_carries_the_call_path() {
        let report = fixture_report();
        let hit = report
            .errors
            .iter()
            .find(|d| d.rule == "D4" && d.path.ends_with("d4_taint.rs"))
            .expect("D4 fixture");
        assert!(hit.message.contains("stamp_now"), "{}", hit.message);
        assert!(hit.message.contains("sim_step"), "{}", hit.message);
    }

    #[test]
    fn clean_fixture_produces_no_errors() {
        let report = fixture_report();
        assert!(
            !report.errors.iter().any(|d| d.path.ends_with("clean.rs")),
            "clean fixture must not be flagged: {:#?}",
            report.errors
        );
    }

    #[test]
    fn allowlist_suppresses_fixture_errors() {
        let al = Allowlist::parse(
            "D1 replay/src/d1_wall_clock.rs -- fixture\n\
             D2 netsim/src/d2_hash_iter.rs\n\
             D2 netsim/src/d2_cross_file_gap.rs\n\
             D3 workloads/src/d3_thread_rng.rs\n\
             D4 netsim/src/d4_taint.rs\n\
             D4 netsim/src/d4_ambiguous.rs\n\
             P1 dns-wire/src/p1_unwrap.rs\n\
             A1 dns-server/src/a1_unbounded.rs\n\
             T1 telemetry/src/t1_wall_clock.rs\n\
             R1 replay/src/r1_unbounded_retry.rs\n\
             S1 shard/src/s1_enqueue_remote.rs\n",
        )
        .unwrap();
        let report = check(&fixture_root(), al).expect("fixture walk");
        assert!(report.errors.is_empty(), "{:#?}", report.errors);
        assert!(report.suppressed >= 11);
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn unused_allowlist_entries_are_reported() {
        let al = Allowlist::parse("P1 no/such/file.rs").unwrap();
        let report = check(&fixture_root(), al).expect("fixture walk");
        assert_eq!(report.unused_allows.len(), 1);
        assert!(report.unused_allows[0].contains("no/such/file.rs"));
    }

    #[test]
    fn json_report_round_trips_through_the_parser() {
        let report = fixture_report();
        let doc = render_json(&report);
        let v = crate::json::parse(&doc).expect("render_json must emit valid JSON");
        assert_eq!(v.get("version").and_then(|x| x.as_num()), Some(2.0));
        assert_eq!(
            v.get("files").and_then(|x| x.as_num()),
            Some(report.files as f64)
        );
        assert_eq!(
            v.get("errors").and_then(|x| x.as_arr()).map(|a| a.len()),
            Some(report.errors.len())
        );
        assert_eq!(
            v.get("warnings").and_then(|x| x.as_arr()).map(|a| a.len()),
            Some(report.warnings.len())
        );
        // Every catalog rule appears in rule_counts, and the fixture
        // tree trips D2 cross-file + D4 at least once each.
        let counts = v.get("rule_counts").expect("rule_counts");
        for r in crate::rules::CATALOG {
            assert!(counts.get(r.id).is_some(), "missing {}", r.id);
        }
        let d4 = counts
            .get("D4")
            .and_then(|x| x.get("errors"))
            .and_then(|x| x.as_num());
        assert!(d4.unwrap_or(0.0) >= 2.0, "{doc}");
        // Error objects carry the full diagnostic shape.
        let first = &v.get("errors").unwrap().as_arr().unwrap()[0];
        for key in ["rule", "severity", "path", "line", "message"] {
            assert!(first.get(key).is_some(), "missing {key} in {doc}");
        }
    }

    #[test]
    fn render_is_path_line_rule_message() {
        let d = Diagnostic {
            rule: "D1",
            severity: Severity::Error,
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
