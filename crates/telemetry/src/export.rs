//! Drain-time exporters: text timelines, per-stage latency breakdowns
//! (feeding [`ldp_metrics`]), per-kind counts and binary dumps.
//!
//! Everything here operates on already-drained `&[RawEvent]` slices —
//! nothing in this module is hot-path code.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ldp_metrics::Summary;

use crate::event::{Kind, RawEvent};

/// Magic prefix of the binary event-log dump format (version 1).
const DUMP_MAGIC: &[u8; 8] = b"LDPTEL1\n";

/// A record's op byte in that format: 2 for a batched counter kind, 3
/// for a mark, the values version 1 has always given them, so a log
/// dumps to the same bytes it always did.
fn op_byte(kind: Kind) -> u8 {
    if kind.is_counter() {
        2
    } else {
        3
    }
}

/// A timeline line's fixed-width op label.
fn op_label(kind: Kind) -> &'static str {
    if kind.is_counter() {
        "count"
    } else {
        "mark "
    }
}

/// Serialize a drained event log into the compact binary dump format:
/// an 8-byte magic, the kind-name table (so the dump is
/// self-describing across builds), then one fixed-width 27-byte
/// little-endian record per event. Two same-seed runs that drain
/// identical logs produce byte-identical dumps — the checkpoint-resume
/// equivalence tests compare these directly, with no string rendering
/// in the loop.
///
/// The table is the prefix of [`Kind::ALL`] up to the highest kind the
/// events use (ids stay table positions), not the whole list.
pub fn dump_binary(events: &[RawEvent]) -> Vec<u8> {
    let used = events
        .iter()
        .map(|ev| ev.kind as usize + 1)
        .max()
        .unwrap_or(0);
    let kinds = &Kind::ALL[..used];
    let mut out = Vec::with_capacity(8 + 2 + kinds.len() * 16 + 8 + events.len() * 27);
    out.extend_from_slice(DUMP_MAGIC);
    out.extend_from_slice(&(kinds.len() as u16).to_le_bytes());
    for kind in kinds {
        let name = kind.name();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for ev in events {
        out.extend_from_slice(&ev.t_ns.to_le_bytes());
        out.extend_from_slice(&ev.a.to_le_bytes());
        out.extend_from_slice(&ev.b.to_le_bytes());
        out.extend_from_slice(&(ev.kind as u16).to_le_bytes());
        out.push(op_byte(ev.kind));
    }
    out
}

/// Compare two drained logs event-by-event. Returns `None` when they
/// are identical, otherwise a one-line human description of the first
/// divergence — the assertion message for checkpoint-resume
/// equivalence tests.
pub fn diff_logs(a: &[RawEvent], b: &[RawEvent]) -> Option<String> {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return Some(format!(
                "event {i} differs: \
                 left t={} kind={} a={} b={} / \
                 right t={} kind={} a={} b={}",
                x.t_ns,
                x.kind.name(),
                x.a,
                x.b,
                y.t_ns,
                y.kind.name(),
                y.a,
                y.b
            ));
        }
    }
    if a.len() != b.len() {
        return Some(format!(
            "length mismatch: {} vs {} events",
            a.len(),
            b.len()
        ));
    }
    None
}

/// Sort a drained log into its canonical order: by
/// `(virtual time, kind, a, b)` — content only.
///
/// A sharded run's shards each drain their own recorder, and the
/// shards' logs concatenate in no meaningful order. The run produces
/// the *same multiset* of events as the single-shard run (every record
/// is attributed to shard-invariant lanes), so sorting by content alone
/// yields one canonical log that is byte-identical across shard counts.
/// The sort is stable; exact duplicates (e.g. two identical batched
/// counters at one instant) stay adjacent and compare equal, so their
/// relative order cannot matter.
pub fn canonical_order(events: &mut [RawEvent]) {
    events.sort_by_key(|e| (e.t_ns, e.kind, e.a, e.b));
}

/// Render events as a human-readable timeline, one line per event:
/// `[      0.001234s] mark  q.send  a=42 b=512`.
pub fn render_timeline(events: &[RawEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = writeln!(
            out,
            "[{:>14.6}s] {} {:<24} a={} b={}",
            ev.t_ns as f64 / 1e9,
            op_label(ev.kind),
            ev.kind.name(),
            ev.a,
            ev.b
        );
    }
    out
}

/// Event totals per kind, in kind-id order: `(name, events, sum_of_b)`.
/// For the batched counter kinds the `b` sum is the counter total.
pub fn count_by_kind(events: &[RawEvent]) -> Vec<(&'static str, u64, u64)> {
    let mut agg: BTreeMap<Kind, (u64, u64)> = BTreeMap::new();
    for ev in events {
        let slot = agg.entry(ev.kind).or_insert((0, 0));
        slot.0 += 1;
        slot.1 = slot.1.wrapping_add(ev.b);
    }
    agg.into_iter()
        .map(|(k, (n, b))| (k.name(), n, b))
        .collect()
}

/// Latency samples for one lifecycle stage (`from` → `to`).
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage start kind.
    pub from: Kind,
    /// Stage end kind.
    pub to: Kind,
    /// Per-lifecycle deltas between the first `from` and first `to`
    /// timestamp sharing a key, in seconds.
    pub samples_secs: Vec<f64>,
    /// Lifecycles that reached `from` but never reached `to`.
    pub unfinished: u64,
}

impl StageStat {
    /// `from→to` label for tables.
    pub fn label(&self) -> String {
        format!("{}→{}", self.from.name(), self.to.name())
    }

    /// Five-number summary of the stage latency (None when empty).
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.samples_secs)
    }
}

/// Per-stage latency breakdown over a lifecycle chain.
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    /// One entry per consecutive pair of `chain` kinds.
    pub stages: Vec<StageStat>,
}

/// Break lifecycles down into per-stage latencies.
///
/// `chain` names the lifecycle marks in order (e.g. enqueue → send →
/// response → match). Events are grouped by their `a` key (the query
/// seq); for every consecutive pair of chain kinds both present in a
/// lifecycle, the delta between their *first* occurrences becomes one
/// sample.
pub fn stage_breakdown(events: &[RawEvent], chain: &[Kind]) -> StageBreakdown {
    let mut per_key: BTreeMap<u64, Vec<Option<u64>>> = BTreeMap::new();
    for ev in events {
        if let Some(pos) = chain.iter().position(|k| *k == ev.kind) {
            let slots = per_key
                .entry(ev.a)
                .or_insert_with(|| vec![None; chain.len()]);
            if slots[pos].is_none() {
                slots[pos] = Some(ev.t_ns);
            }
        }
    }
    let mut stages: Vec<StageStat> = chain
        .windows(2)
        .map(|w| StageStat {
            from: w[0],
            to: w[1],
            samples_secs: Vec::new(),
            unfinished: 0,
        })
        .collect();
    for slots in per_key.values() {
        for (i, stage) in stages.iter_mut().enumerate() {
            match (slots[i], slots[i + 1]) {
                (Some(t0), Some(t1)) => {
                    stage.samples_secs.push(t1.saturating_sub(t0) as f64 / 1e9);
                }
                (Some(_), None) => stage.unfinished += 1,
                _ => {}
            }
        }
    }
    StageBreakdown { stages }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, kind: Kind, a: u64, b: u64) -> RawEvent {
        RawEvent { t_ns, a, b, kind }
    }

    #[test]
    fn timeline_resolves_names_and_orders_lines() {
        let text = render_timeline(&[
            ev(1_234_000, Kind::QSend, 42, 512),
            ev(2_000_000, Kind::SimDeliver, 7, 64),
        ]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("mark  q.send"), "{text}");
        assert!(lines[1].contains("count sim.deliver"), "{text}");
        assert!(text.contains("a=42 b=512"), "{text}");
        assert!(text.contains("0.001234s"), "{text}");
    }

    #[test]
    fn count_by_kind_totals_events_and_payload() {
        let events = [
            ev(0, Kind::SimDeliver, 0, 2),
            ev(1, Kind::SimDeliver, 0, 3),
            ev(2, Kind::QMatch, 0, 9),
        ];
        let counts = count_by_kind(&events);
        assert_eq!(counts, vec![("sim.deliver", 2, 5), ("q.match", 1, 9)]);
    }

    #[test]
    fn stage_breakdown_pairs_marks_by_lifecycle_key() {
        let (send, resp, done) = (Kind::QSend, Kind::QResponse, Kind::QMatch);
        let events = [
            // Lifecycle 1: full chain, 2 ms then 1 ms.
            ev(1_000_000, send, 1, 0),
            ev(3_000_000, resp, 1, 0),
            ev(4_000_000, done, 1, 0),
            // Lifecycle 2: never answered.
            ev(10_000_000, send, 2, 0),
            // A retransmit of lifecycle 1 must not re-open the stage.
            ev(50_000_000, send, 1, 0),
        ];
        let bd = stage_breakdown(&events, &[send, resp, done]);
        assert_eq!(bd.stages.len(), 2);
        assert_eq!(bd.stages[0].samples_secs, vec![0.002]);
        assert_eq!(bd.stages[0].unfinished, 1);
        assert_eq!(bd.stages[1].samples_secs, vec![0.001]);
        assert_eq!(bd.stages[0].label(), "q.send→q.response");
        let s = bd.stages[0].summary().expect("one sample");
        assert!((s.median - 0.002).abs() < 1e-12);
    }

    /// The kind-table length a dump declares after its magic.
    fn kinds_in(dump: &[u8]) -> u16 {
        u16::from_le_bytes([dump[8], dump[9]])
    }

    #[test]
    fn binary_dump_is_self_describing_and_stable() {
        let (k1, k2) = (Kind::SimDeliver, Kind::SrvQueryUdp);
        let events = vec![
            ev(0, k2, 1, 2),
            ev(1_000, k2, 3, 0),
            ev(u64::MAX, k1, u64::MAX, u64::MAX),
        ];
        let dump = dump_binary(&events);
        assert_eq!(&dump[..8], DUMP_MAGIC);
        // Self-describing: the kind table carries the names, so ids
        // resolve without this build's `Kind`.
        assert_eq!(kinds_in(&dump), k2 as u16 + 1);
        for name in ["sim.deliver", "srv.query.udp"] {
            let named = dump.windows(name.len()).any(|w| w == name.as_bytes());
            assert!(named, "{name} is in the table");
        }
        // Fixed-width records: the last 27 bytes are the last event.
        let last = &dump[dump.len() - 27..];
        assert_eq!(last[..24], [0xff; 24], "t_ns, a, b");
        assert_eq!(last[24..26], (k1 as u16).to_le_bytes());
        assert_eq!(last[26], 2, "a counter kind's op byte");
        assert_eq!(dump[dump.len() - 28], 3, "a mark kind's op byte");
        // Equal logs dump to byte-identical buffers.
        assert_eq!(dump, dump_binary(&events));
    }

    #[test]
    fn binary_dump_table_ends_at_the_highest_kind_used() {
        let events = vec![ev(1, Kind::QEnqueue, 0, 0)];
        assert_eq!(kinds_in(&dump_binary(&events)), Kind::QEnqueue as u16 + 1);
        assert_eq!(kinds_in(&dump_binary(&[])), 0);
    }

    #[test]
    fn diff_logs_reports_first_divergence() {
        let k = Kind::QMatch;
        let a = vec![ev(0, k, 1, 0), ev(5, k, 2, 0)];
        assert_eq!(diff_logs(&a, &a), None);
        let mut b = a.clone();
        b[1].b = 99;
        let msg = diff_logs(&a, &b).expect("divergence detected");
        assert!(msg.contains("event 1"), "{msg}");
        assert!(msg.contains("q.match"), "{msg}");
        let msg = diff_logs(&a, &a[..1]).expect("length mismatch detected");
        assert!(msg.contains("2 vs 1"), "{msg}");
    }
}
