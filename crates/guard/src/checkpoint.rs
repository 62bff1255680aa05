//! The replay checkpoint: progress a killed run can resume from.
//!
//! A checkpoint commits at *any* virtual instant, on a fixed cadence,
//! whatever is in flight (a "fuzzy cut"): besides the completed
//! records it carries one [`InflightEntry`] per outstanding query (see
//! [`crate::inflight`]) — its seq, original virtual send deadline,
//! elapsed send/retransmit counts and its admission status. Counters are *committed* values — completed work only — and
//! the in-flight contributions ride on the `inflight` lines, so a
//! resumed run that re-executes the outstanding queries from their
//! original deadlines reconstructs the uninterrupted run's totals,
//! transcript, and telemetry exactly.
//!
//! Like `ldp-chaos`'s fault plans, checkpoints are data, not code: a
//! line-based text format with an exact round-trip, safe to store next
//! to results and diff in CI. LF line endings only — CRLF is rejected
//! at parse time because records are carried verbatim and a stripped
//! `\r` would silently break the exact round-trip.
//!
//! ```text
//! ldpguard checkpoint v3
//! epoch 2
//! taken_ns 1500000000
//! cursor 42
//! counter sent 40
//! rec q7 sent=1200 done=1240 ok
//! inflight 41 deadline 1450000000 sends 2 retx 1 status inflight
//! ```
//!
//! The sections are strictly ordered (`counter*`, `rec*`, `inflight*`).
//! `v3` is the only format: any other header is a parse error at its
//! line.

use std::fmt;

use crate::inflight::InflightEntry;

/// The first line of every document.
const HEADER: &str = "ldpguard checkpoint v3";

/// One resumable snapshot of replay progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Checkpoint ordinal within the run (1 = first cut).
    pub epoch: u32,
    /// Virtual time of the cut, nanoseconds since simulation start.
    /// In-flight deadlines may be earlier (the query was already
    /// dispatched when the cut committed).
    pub taken_ns: u64,
    /// Next trace sequence number to dispatch: seqs `< cursor` are
    /// accounted for (completed, recorded as shed, or carried on an
    /// `inflight` line).
    pub cursor: u64,
    /// Named monotonic counters (sent, connects, retries, shed, ...)
    /// in serialization order. Names must be whitespace-free and
    /// unique. These are *committed* values: work belonging to
    /// completed queries only.
    pub counters: Vec<(String, u64)>,
    /// Completed per-query transcript lines, carried verbatim (they
    /// must not contain newlines). On resume these seed the output so
    /// the final transcript equals an uninterrupted run's.
    pub records: Vec<String>,
    /// Outstanding queries at the cut. Sorted by seq at serialization
    /// time by convention, but the parser preserves whatever order the
    /// document carries.
    pub inflight: Vec<InflightEntry>,
}

impl Checkpoint {
    /// Look up a counter by name. Counter names are unique in any
    /// document [`Checkpoint::from_text`] accepts (duplicates are a
    /// parse error), so this is unambiguous.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Serialize to the line-based text format (see module docs).
    ///
    /// Returns `Err` (rather than emitting a corrupt document) if a
    /// counter name contains whitespace or is duplicated, or a record
    /// contains a newline.
    pub fn to_text(&self) -> Result<String, CheckpointParseError> {
        let err = |msg: &str| CheckpointParseError {
            line: 0,
            msg: msg.to_string(),
        };
        let mut out = format!("{HEADER}\n");
        out.push_str(&format!("epoch {}\n", self.epoch));
        out.push_str(&format!("taken_ns {}\n", self.taken_ns));
        out.push_str(&format!("cursor {}\n", self.cursor));
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if name.is_empty() || name.chars().any(char::is_whitespace) {
                return Err(err("counter name must be non-empty and whitespace-free"));
            }
            if self.counters[..i].iter().any(|(n, _)| n == name) {
                return Err(err("duplicate counter name"));
            }
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for rec in &self.records {
            if rec.contains('\n') || rec.contains('\r') {
                return Err(err("record lines must not contain newlines"));
            }
            out.push_str(&format!("rec {rec}\n"));
        }
        for entry in &self.inflight {
            out.push_str(&entry.to_line());
            out.push('\n');
        }
        Ok(out)
    }

    /// Parse the text format back. Blank lines and `#` comments are
    /// ignored (record payloads are taken verbatim after `rec `, so a
    /// record can itself start with `#` only via the keyword line).
    /// CRLF input is rejected, and the sections must keep their order
    /// (`counter*`, `rec*`, `inflight*`).
    pub fn from_text(text: &str) -> Result<Checkpoint, CheckpointParseError> {
        let err = |line: usize, msg: &str| CheckpointParseError {
            line,
            msg: msg.to_string(),
        };
        if let Some(pos) = text.find('\r') {
            let ln = text[..pos].matches('\n').count() + 1;
            return Err(err(ln, "CRLF line endings are not supported (LF only)"));
        }
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('#')
            });

        let (ln, header) = lines.next().ok_or_else(|| err(0, "empty checkpoint"))?;
        if header.trim() != HEADER {
            return Err(err(ln, &format!("expected header `{HEADER}`")));
        }
        // Track the last line number consumed so "ran out of input"
        // errors point at the end of the document instead of line 0.
        let mut last_ln = ln;
        let mut field = |name: &str| -> Result<(usize, u64), CheckpointParseError> {
            let (ln, line) = lines
                .next()
                .ok_or_else(|| err(last_ln, &format!("missing `{name}`")))?;
            last_ln = ln;
            line.trim()
                .strip_prefix(name)
                .and_then(|rest| rest.trim().parse::<u64>().ok())
                .map(|v| (ln, v))
                .ok_or_else(|| err(ln, &format!("expected `{name} <u64>`")))
        };
        let (epoch_ln, epoch) = field("epoch")?;
        let epoch = u32::try_from(epoch).map_err(|_| err(epoch_ln, "epoch exceeds u32"))?;
        let (_, taken_ns) = field("taken_ns")?;
        let (_, cursor) = field("cursor")?;

        let mut cp = Checkpoint {
            epoch,
            taken_ns,
            cursor,
            counters: Vec::new(),
            records: Vec::new(),
            inflight: Vec::new(),
        };
        // Section progression: counter(0) -> rec(1) -> inflight(2).
        let mut section = 0u8;
        for (ln, line) in lines {
            if let Some(rest) = line.strip_prefix("rec ") {
                if section > 1 {
                    return Err(err(ln, "`rec` lines must precede `inflight` lines"));
                }
                section = 1;
                cp.records.push(rest.to_string());
            } else if let Some(rest) = line.trim().strip_prefix("counter ") {
                if section > 0 {
                    return Err(err(
                        ln,
                        "`counter` lines must precede `rec` and `inflight` lines",
                    ));
                }
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or_else(|| err(ln, "counter needs a name"))?;
                let v = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err(ln, "expected `counter <name> <u64>`"))?;
                if it.next().is_some() {
                    return Err(err(ln, "trailing tokens after counter value"));
                }
                if cp.counters.iter().any(|(n, _)| n == name) {
                    return Err(err(ln, &format!("duplicate counter `{name}`")));
                }
                cp.counters.push((name.to_string(), v));
            } else if line.trim().starts_with("inflight ") || line.trim() == "inflight" {
                section = 2;
                cp.inflight.push(InflightEntry::from_line(line.trim(), ln)?);
            } else {
                return Err(err(
                    ln,
                    "expected `counter ...`, `rec ...`, or `inflight ...`",
                ));
            }
        }
        Ok(cp)
    }
}

/// A parse (or serialize-validation) failure with its 1-based line
/// number (0 = whole document).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointParseError {
    /// 1-based line of the offending input (0 = whole document).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for CheckpointParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for CheckpointParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflight::InflightStatus;

    fn empty() -> Checkpoint {
        Checkpoint {
            epoch: 0,
            taken_ns: 0,
            cursor: 0,
            counters: Vec::new(),
            records: Vec::new(),
            inflight: Vec::new(),
        }
    }

    /// A cut with nothing in flight.
    fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 2,
            taken_ns: 1_500_000_000,
            cursor: 42,
            counters: vec![
                ("sent".to_string(), 42),
                ("connects".to_string(), 3),
                ("retries".to_string(), 1),
            ],
            records: vec![
                "q0 sent=1000 done=1040 ok".to_string(),
                "q1 sent=1100 done=- shed".to_string(),
            ],
            inflight: Vec::new(),
        }
    }

    fn sample_inflight() -> Checkpoint {
        Checkpoint {
            inflight: vec![
                InflightEntry {
                    seq: 40,
                    deadline_ns: 1_450_000_000,
                    sends: 2,
                    retx: 1,
                    status: InflightStatus::InFlight,
                },
                InflightEntry {
                    seq: 41,
                    deadline_ns: 1_490_000_000,
                    sends: 0,
                    retx: 0,
                    status: InflightStatus::Parked,
                },
            ],
            ..sample()
        }
    }

    #[test]
    fn text_round_trips_exactly() {
        for cp in [sample(), sample_inflight()] {
            let text = cp.to_text().expect("serializes");
            let back = Checkpoint::from_text(&text).expect("parses");
            assert_eq!(cp, back);
            assert_eq!(text, back.to_text().expect("re-serializes"));
        }
    }

    #[test]
    fn counter_lookup() {
        let cp = sample();
        assert_eq!(cp.counter("connects"), Some(3));
        assert_eq!(cp.counter("missing"), None);
    }

    #[test]
    fn records_survive_verbatim_including_spaces() {
        let cp = Checkpoint {
            records: vec!["  leading and   internal spaces # not a comment".to_string()],
            ..empty()
        };
        let back = Checkpoint::from_text(&cp.to_text().expect("ok")).expect("parses");
        assert_eq!(back.records, cp.records);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "ldpguard checkpoint v3\n# note\nepoch 1\n\ntaken_ns 5\ncursor 0\n";
        let cp = Checkpoint::from_text(text).expect("parses");
        assert_eq!(cp.epoch, 1);
        assert_eq!(cp.taken_ns, 5);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(Checkpoint::from_text("").is_err());
        assert!(Checkpoint::from_text("ldpguard checkpoint v3\n").is_err());
        let e = Checkpoint::from_text(&doc("bogus line\n")).expect_err("unknown keyword");
        assert_eq!(e.line, 5);
        let e = Checkpoint::from_text("ldpguard checkpoint v3\nepoch x\n").expect_err("bad epoch");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn epoch_overflow_error_names_the_epoch_line() {
        let e = Checkpoint::from_text("ldpguard checkpoint v3\n# pad\nepoch 5000000000\n")
            .expect_err("epoch exceeds u32");
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("epoch exceeds u32"), "{}", e.msg);
    }

    #[test]
    fn missing_field_error_points_at_end_of_input() {
        let e = Checkpoint::from_text("ldpguard checkpoint v3\nepoch 1\ntaken_ns 5\n")
            .expect_err("missing cursor");
        assert_eq!(e.line, 3, "points at the last line seen, not 0");
        assert!(e.msg.contains("cursor"), "{}", e.msg);
        let e = Checkpoint::from_text("ldpguard checkpoint v3\n").expect_err("missing epoch");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn duplicate_counters_rejected_with_line_number() {
        let text = doc("counter sent 3\ncounter connects 1\ncounter sent 9\n");
        let e = Checkpoint::from_text(&text).expect_err("duplicate counter");
        assert_eq!(e.line, 7);
        assert!(e.msg.contains("duplicate counter `sent`"), "{}", e.msg);
        // Serialization refuses to create such a document in the
        // first place.
        let cp = Checkpoint {
            counters: vec![("sent".to_string(), 1), ("sent".to_string(), 2)],
            ..empty()
        };
        assert!(cp.to_text().is_err());
    }

    #[test]
    fn serialization_rejects_malformed_fields() {
        let cp = Checkpoint {
            counters: vec![("two words".to_string(), 1)],
            ..empty()
        };
        assert!(cp.to_text().is_err());
        let cp = Checkpoint {
            records: vec!["line\nbreak".to_string()],
            ..empty()
        };
        assert!(cp.to_text().is_err());
    }

    // -- malformed-document corpus (hand-written) ---------------------

    fn doc(body: &str) -> String {
        format!("ldpguard checkpoint v3\nepoch 1\ntaken_ns 5\ncursor 4\n{body}")
    }

    #[test]
    fn corpus_truncated_inflight_lines() {
        let full = "inflight 3 deadline 100 sends 1 retx 0 status inflight";
        let tokens: Vec<&str> = full.split_whitespace().collect();
        for n in 1..tokens.len() {
            let doc = doc(&format!("{}\n", tokens[..n].join(" ")));
            let e = Checkpoint::from_text(&doc).expect_err("truncated inflight");
            assert_eq!(e.line, 5, "prefix {:?}", tokens[..n].join(" "));
        }
    }

    #[test]
    fn corpus_interleaved_sections() {
        for (doc, bad_line) in [
            // counter after rec
            (doc("rec q0 ok\ncounter sent 1\n"), 6),
            // counter after inflight
            (
                doc("inflight 3 deadline 1 sends 0 retx 0 status parked\ncounter sent 1\n"),
                6,
            ),
            // rec after inflight
            (
                doc("inflight 3 deadline 1 sends 0 retx 0 status parked\nrec q0 ok\n"),
                6,
            ),
        ] {
            let e = Checkpoint::from_text(&doc).expect_err("interleaved sections");
            assert_eq!(e.line, bad_line, "doc:\n{doc}");
        }
    }

    #[test]
    fn corpus_crlf_rejected_with_line_number() {
        let doc = "ldpguard checkpoint v3\r\nepoch 1\r\n";
        let e = Checkpoint::from_text(doc).expect_err("CRLF");
        assert_eq!(e.line, 1);
        let doc = "ldpguard checkpoint v3\nepoch 1\ntaken_ns 5\r\ncursor 0\n";
        let e = Checkpoint::from_text(doc).expect_err("CRLF mid-document");
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("CRLF"), "{}", e.msg);
    }

    /// `v3` is the only format there is: an older header — `v1`'s, or
    /// `v2`'s with a retry budget on its `inflight` lines — is refused
    /// where it stands, whatever lines follow it.
    #[test]
    fn corpus_v1_rejects_inflight_lines() {
        for (older, body) in [
            ("v1", ""),
            ("v1", "inflight 3 deadline 1 sends 0 retx 0 status parked\n"),
            (
                "v2",
                "inflight 3 deadline 1 sends 1 retx 0 status inflight budget 1 450 99\n",
            ),
        ] {
            let header = HEADER.replace("v3", older);
            let doc = format!("{header}\nepoch 1\ntaken_ns 5\ncursor 4\n{body}");
            let e = Checkpoint::from_text(&doc).expect_err("an older header");
            assert_eq!(e.line, 1);
            assert!(e.msg.contains("ldpguard checkpoint v3"), "{}", e.msg);
        }
    }
}
