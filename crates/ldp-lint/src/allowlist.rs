//! The committed allowlist for intentional rule exceptions.
//!
//! Format (one entry per line in `ldp-lint.allow` at the repo root):
//!
//! ```text
//! # comment
//! D1 crates/replay/src/clock.rs -- WallClock is the real-clock impl
//! D2 crates/netsim/src/sim.rs
//! ```
//!
//! An entry is `RULE path-suffix [-- reason]`. The path matches when the
//! diagnostic's workspace-relative path *ends with* the suffix, so both
//! `crates/foo/src/bar.rs` and `foo/src/bar.rs` work. An entry that
//! matches nothing fails the run, so the allowlist can never silently
//! rot.

use crate::rules::Diagnostic;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AllowEntry {
    /// Rule id this entry suppresses (any id in `crate::rules::CATALOG`).
    pub rule: String,
    /// Path suffix the entry applies to.
    pub path_suffix: String,
    /// Optional free-form justification (after `--`).
    pub reason: Option<String>,
    /// 1-based line in the allowlist file (for "unused entry" reports).
    pub line: u32,
}

/// Parsed allowlist plus usage tracking.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    used: Vec<bool>,
    name: String,
}

impl Allowlist {
    /// Parse allowlist text under the conventional file name.
    #[cfg(test)]
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::parse_named(text, "ldp-lint.allow")
    }

    /// Parse allowlist text; `name` is the display path used in
    /// diagnostics (the actual file when `--allowlist` overrides the
    /// default).
    pub fn parse_named(text: &str, name: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (spec, reason) = match line.split_once("--") {
                Some((s, r)) => (s.trim(), Some(r.trim().to_string())),
                None => (line, None),
            };
            let mut parts = spec.split_whitespace();
            let rule = parts.next().unwrap_or_default().to_string();
            let path_suffix = parts.next().unwrap_or_default().to_string();
            if rule.is_empty() || path_suffix.is_empty() || parts.next().is_some() {
                return Err(format!(
                    "{name}:{line_no}: malformed entry {line:?} \
                     (expected `RULE path-suffix [-- reason]`)"
                ));
            }
            if crate::rules::rule_info(&rule).is_none() {
                let known: Vec<&str> = crate::rules::CATALOG.iter().map(|r| r.id).collect();
                return Err(format!(
                    "{name}:{line_no}: unknown rule {rule:?} \
                     (expected one of {})",
                    known.join(", ")
                ));
            }
            entries.push(AllowEntry {
                rule,
                path_suffix,
                reason,
                line: line_no,
            });
        }
        let used = vec![false; entries.len()];
        Ok(Allowlist {
            entries,
            used,
            name: name.to_string(),
        })
    }

    /// Display path of the file this allowlist was parsed from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether `diag` is suppressed; marks the matching entry used.
    pub fn allows(&mut self, diag: &Diagnostic) -> bool {
        let path = diag.path.replace('\\', "/");
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == diag.rule && path.ends_with(&e.path_suffix) {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Entries that never matched a diagnostic (stale suppressions).
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| e)
            .collect()
    }

    /// Number of entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn diag(rule: &'static str, path: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line: 1,
            message: String::new(),
        }
    }

    #[test]
    fn parses_entries_comments_and_reasons() {
        let text = "\
# header comment
D1 crates/replay/src/clock.rs -- real-clock impl lives here

D2 sim.rs
";
        let al = Allowlist::parse(text).unwrap();
        assert_eq!(al.len(), 2);
        assert_eq!(al.entries[0].rule, "D1");
        assert_eq!(
            al.entries[0].reason.as_deref(),
            Some("real-clock impl lives here")
        );
        assert_eq!(al.entries[1].path_suffix, "sim.rs");
    }

    #[test]
    fn rejects_malformed_and_unknown_rules() {
        assert!(Allowlist::parse("D1").is_err());
        assert!(Allowlist::parse("D9 some/path.rs").is_err());
        assert!(Allowlist::parse("D1 a.rs extra-token").is_err());
        // Every catalog id is a valid entry; retired ids are not.
        assert!(Allowlist::parse("D4 a.rs\nS1 b.rs").is_ok());
        assert!(Allowlist::parse("P2 a.rs").is_err());
    }

    #[test]
    fn suffix_match_and_usage_tracking() {
        let mut al = Allowlist::parse("D1 replay/src/clock.rs\nP1 never/matches.rs").unwrap();
        assert!(al.allows(&diag("D1", "crates/replay/src/clock.rs")));
        // Wrong rule for the same path: not suppressed.
        assert!(!al.allows(&diag("D2", "crates/replay/src/clock.rs")));
        // Wrong path: not suppressed.
        assert!(!al.allows(&diag("D1", "crates/replay/src/engine.rs")));
        let unused = al.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].path_suffix, "never/matches.rs");
    }
}
