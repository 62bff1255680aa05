//! Per-query in-flight state for checkpoints.
//!
//! A checkpoint commits at *any* virtual instant — storms included —
//! by carrying one [`InflightEntry`] per query that has been
//! dispatched (or parked by admission) but not yet completed. Each
//! entry pins everything a resumed run needs to re-execute that query
//! deterministically:
//!
//! - `seq` and the query's *original* virtual send deadline, so the
//!   resumed simulator re-arms it at the exact instant the first run
//!   dispatched it;
//! - elapsed send/retransmit counts, so committed counters plus the
//!   carried in-flight contributions reconstruct the uninterrupted
//!   run's totals;
//! - the admission status (in flight / parked / retrying), so parked
//!   queries re-enter admission instead of being silently dropped.
//!
//! The line grammar (one line per entry):
//!
//! ```text
//! inflight <seq> deadline <ns> sends <n> retx <n> status <s>
//! ```
//!
//! where `<s>` is `inflight`, `parked`, or `retrying`. No retry budget
//! rides on the line: a resumed run re-executes a carried query from
//! its first send, and a budget's delays are a function of its seed
//! and attempt, so there is no stream position to carry.
//! Serialization is exact: parse ∘ serialize is the identity on
//! well-formed lines.

use std::fmt::Write as _;

use crate::checkpoint::CheckpointParseError;

/// Where an uncompleted query stood at the instant of the cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InflightStatus {
    /// Dispatched; awaiting a response (or the next retransmit).
    InFlight,
    /// Held by the admission controller; never dispatched.
    Parked,
    /// In a connection-death retry chain (TCP) awaiting re-dispatch.
    Retrying,
}

impl InflightStatus {
    /// The grammar keyword for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            InflightStatus::InFlight => "inflight",
            InflightStatus::Parked => "parked",
            InflightStatus::Retrying => "retrying",
        }
    }

    /// Parse a grammar keyword.
    fn from_str_opt(s: &str) -> Option<InflightStatus> {
        match s {
            "inflight" => Some(InflightStatus::InFlight),
            "parked" => Some(InflightStatus::Parked),
            "retrying" => Some(InflightStatus::Retrying),
            _ => None,
        }
    }
}

/// One outstanding query carried by a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightEntry {
    /// Trace sequence number of the query.
    pub seq: u64,
    /// The query's *original* virtual send deadline (ns since
    /// simulation start). Re-arming at this instant — not at the cut —
    /// is what keeps the resumed transcript byte-identical.
    pub deadline_ns: u64,
    /// Sends so far (initial dispatch + retransmits + restart
    /// re-dispatches). Zero for a parked query.
    pub sends: u32,
    /// Retransmits / retries so far (a subset of `sends`).
    pub retx: u32,
    /// Admission status at the cut.
    pub status: InflightStatus,
}

impl InflightEntry {
    /// Serialize to the one-line grammar (without the trailing
    /// newline).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "inflight {} deadline {} sends {} retx {} status {}",
            self.seq,
            self.deadline_ns,
            self.sends,
            self.retx,
            self.status.as_str(),
        );
        out
    }

    /// Parse one `inflight ...` line (the full line, keyword
    /// included). `ln` is the 1-based line number used in errors.
    pub fn from_line(line: &str, ln: usize) -> Result<InflightEntry, CheckpointParseError> {
        fn err(ln: usize, msg: &str) -> CheckpointParseError {
            CheckpointParseError {
                line: ln,
                msg: msg.to_string(),
            }
        }
        fn num(
            it: &mut std::str::SplitWhitespace<'_>,
            ln: usize,
            what: &str,
        ) -> Result<u64, CheckpointParseError> {
            it.next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| err(ln, &format!("inflight line truncated: expected {what}")))
        }
        fn kw(
            it: &mut std::str::SplitWhitespace<'_>,
            ln: usize,
            expected: &str,
        ) -> Result<(), CheckpointParseError> {
            if it.next() == Some(expected) {
                Ok(())
            } else {
                Err(err(
                    ln,
                    &format!("inflight line truncated: expected `{expected}`"),
                ))
            }
        }
        let mut it = line.split_whitespace();
        if it.next() != Some("inflight") {
            return Err(err(ln, "expected `inflight ...`"));
        }
        let seq = num(&mut it, ln, "<seq>")?;
        kw(&mut it, ln, "deadline")?;
        let deadline_ns = num(&mut it, ln, "deadline <ns>")?;
        kw(&mut it, ln, "sends")?;
        let sends = num(&mut it, ln, "sends <n>")?;
        kw(&mut it, ln, "retx")?;
        let retx = num(&mut it, ln, "retx <n>")?;
        let sends = u32::try_from(sends).map_err(|_| err(ln, "sends exceeds u32"))?;
        let retx = u32::try_from(retx).map_err(|_| err(ln, "retx exceeds u32"))?;
        kw(&mut it, ln, "status")?;
        let status = it
            .next()
            .and_then(InflightStatus::from_str_opt)
            .ok_or_else(|| err(ln, "expected status `inflight`, `parked`, or `retrying`"))?;
        if it.next().is_some() {
            return Err(err(ln, "trailing tokens after inflight entry"));
        }
        Ok(InflightEntry {
            seq,
            deadline_ns,
            sends,
            retx,
            status,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InflightEntry {
        InflightEntry {
            seq: 41,
            deadline_ns: 2_050_000_000,
            sends: 3,
            retx: 2,
            status: InflightStatus::InFlight,
        }
    }

    #[test]
    fn line_round_trips_exactly() {
        for entry in [
            sample(),
            InflightEntry {
                seq: 7,
                deadline_ns: 350_000_000,
                sends: 0,
                retx: 0,
                status: InflightStatus::Parked,
            },
            InflightEntry {
                status: InflightStatus::Retrying,
                ..sample()
            },
        ] {
            let line = entry.to_line();
            let back = InflightEntry::from_line(&line, 1).expect("parses");
            assert_eq!(entry, back);
            assert_eq!(line, back.to_line());
        }
    }

    #[test]
    fn truncations_are_line_numbered_errors() {
        let full = sample().to_line();
        // Every proper prefix ending at a token boundary must fail —
        // and carry the caller's line number.
        let tokens: Vec<&str> = full.split_whitespace().collect();
        for n in 0..tokens.len() {
            let cut = tokens[..n].join(" ");
            let e = InflightEntry::from_line(&cut, 9).expect_err("truncated");
            assert_eq!(e.line, 9, "prefix {cut:?}");
        }
    }

    #[test]
    fn malformed_fields_rejected() {
        for line in [
            "inflight x deadline 1 sends 0 retx 0 status parked",
            "inflight 1 deadline 1 sends 0 retx 0 status lost",
            "inflight 1 deadline 1 sends 0 retx 0 status parked extra",
            "inflight 1 deadline 1 sends 99999999999 retx 0 status parked",
            // A `v2` line: the retry budget's fields are trailing tokens.
            "inflight 1 deadline 1 sends 1 retx 0 status inflight budget 1 450 99",
        ] {
            assert!(InflightEntry::from_line(line, 1).is_err(), "{line}");
        }
    }
}
