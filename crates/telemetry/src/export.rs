//! Drain-time exporters: text timelines, per-stage latency breakdowns
//! (feeding [`ldp_metrics`]) and folded-stacks flamegraph dumps.
//!
//! Everything here operates on already-drained `&[RawEvent]` slices —
//! nothing in this module is hot-path code.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ldp_metrics::{Cdf, LogHistogram, Summary};

use crate::event::{kind_name, registered_kinds, KindId, Op, RawEvent};

/// Magic prefix of the binary event-log dump format (version 1).
const DUMP_MAGIC: &[u8; 8] = b"LDPTEL1\n";

/// Serialize a drained event log into the compact binary dump format:
/// an 8-byte magic, the kind-name table (so the dump is
/// self-describing across processes), then one fixed-width 27-byte
/// little-endian record per event. Two same-seed runs that drain
/// identical logs produce byte-identical dumps — the checkpoint-resume
/// equivalence tests compare these directly, with no string rendering
/// in the loop.
///
/// The table is the registry prefix up to the highest kind id the
/// events reference (ids stay table positions), not the whole
/// process-wide registry: a kind some other thread registers between
/// two dumps of equal logs must not change the bytes.
pub fn dump_binary(events: &[RawEvent]) -> Vec<u8> {
    let mut kinds = registered_kinds();
    kinds.truncate(
        events
            .iter()
            .map(|ev| ev.kind.0 as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let mut out = Vec::with_capacity(8 + 2 + kinds.len() * 16 + 8 + events.len() * 27);
    out.extend_from_slice(DUMP_MAGIC);
    out.extend_from_slice(&(kinds.len() as u16).to_le_bytes());
    for name in kinds {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for ev in events {
        out.extend_from_slice(&ev.t_ns.to_le_bytes());
        out.extend_from_slice(&ev.a.to_le_bytes());
        out.extend_from_slice(&ev.b.to_le_bytes());
        out.extend_from_slice(&ev.kind.0.to_le_bytes());
        out.push(ev.op as u8);
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
                 left t={} kind={} op={} a={} b={} / \
                 right t={} kind={} op={} a={} b={}",
                x.t_ns,
                kind_name(x.kind),
                x.op.label().trim_end(),
                x.a,
                x.b,
                y.t_ns,
                kind_name(y.kind),
                y.op.label().trim_end(),
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

/// Sort a drained log into its canonical cross-thread order: by
/// `(virtual time, kind, op, a, b)` — content only, no thread ids.
///
/// `drain_all` concatenates per-thread rings in thread-registration
/// order, which is first-record-wins and therefore scheduler-dependent
/// once shard workers record concurrently. A sharded run produces the
/// *same multiset* of events as the single-shard run (every record is
/// attributed to shard-invariant lanes), so sorting by content alone
/// yields one canonical log that is byte-identical across shard counts
/// and thread schedules. The sort is stable; exact duplicates (e.g.
/// two identical batched counters at one instant) stay adjacent and
/// compare equal, so their relative order cannot matter.
pub fn canonical_order(events: &mut [RawEvent]) {
    events.sort_by_key(|e| (e.t_ns, e.kind, e.op, e.a, e.b));
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
            ev.op.label(),
            kind_name(ev.kind),
            ev.a,
            ev.b
        );
    }
    out
}

/// Event totals per kind, in kind-id order: `(name, events, sum_of_b)`.
/// For `Counter` events the `b` sum is the counter total.
pub fn count_by_kind(events: &[RawEvent]) -> Vec<(&'static str, u64, u64)> {
    let mut agg: BTreeMap<KindId, (u64, u64)> = BTreeMap::new();
    for ev in events {
        let slot = agg.entry(ev.kind).or_insert((0, 0));
        slot.0 += 1;
        slot.1 = slot.1.wrapping_add(ev.b);
    }
    agg.into_iter()
        .map(|(k, (n, b))| (kind_name(k), n, b))
        .collect()
}

/// Latency samples for one lifecycle stage (`from` → `to`).
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage start kind.
    pub from: KindId,
    /// Stage end kind.
    pub to: KindId,
    /// Per-lifecycle deltas between the first `from` and first `to`
    /// timestamp sharing a key, in seconds.
    pub samples_secs: Vec<f64>,
    /// Lifecycles that reached `from` but never reached `to`.
    pub unfinished: u64,
}

impl StageStat {
    /// `from→to` label for tables.
    pub fn label(&self) -> String {
        format!("{}→{}", kind_name(self.from), kind_name(self.to))
    }

    /// Five-number summary of the stage latency (None when empty).
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.samples_secs)
    }

    /// Full CDF of the stage latency (None when empty).
    pub fn cdf(&self) -> Option<Cdf> {
        Cdf::of(&self.samples_secs)
    }

    /// Log-scale histogram of the stage latency: 1 ns … 100 s,
    /// 10 bins per decade.
    pub fn histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new(-9, 2, 10);
        for &s in &self.samples_secs {
            h.record(s);
        }
        h
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
/// sample. Marks and span-enters both qualify as stage timestamps.
pub fn stage_breakdown(events: &[RawEvent], chain: &[KindId]) -> StageBreakdown {
    let mut per_key: BTreeMap<u64, Vec<Option<u64>>> = BTreeMap::new();
    for ev in events {
        if !matches!(ev.op, Op::Mark | Op::SpanEnter) {
            continue;
        }
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

/// Render span enter/exit pairs as folded stacks (flamegraph format):
/// one `root;child;leaf <self-nanoseconds>` line per unique stack, in
/// lexicographic order. Events must come from one thread's drain (span
/// nesting is per-thread); mismatched exits are tolerated by popping
/// until the matching kind.
pub fn folded_stacks(events: &[RawEvent]) -> String {
    // (kind, enter_t, child_ns)
    let mut stack: Vec<(KindId, u64, u64)> = Vec::new();
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        match ev.op {
            Op::SpanEnter => stack.push((ev.kind, ev.t_ns, 0)),
            Op::SpanExit => {
                while let Some((kind, t0, child_ns)) = stack.pop() {
                    let total = ev.t_ns.saturating_sub(t0);
                    let mut path = String::new();
                    for (anc, _, _) in &stack {
                        path.push_str(kind_name(*anc));
                        path.push(';');
                    }
                    path.push_str(kind_name(kind));
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += total;
                    }
                    *agg.entry(path).or_insert(0) += total.saturating_sub(child_ns);
                    if kind == ev.kind {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for (path, self_ns) in agg {
        let _ = writeln!(out, "{path} {self_ns}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::register_kind;

    fn ev(t_ns: u64, kind: KindId, op: Op, a: u64, b: u64) -> RawEvent {
        RawEvent {
            t_ns,
            a,
            b,
            kind,
            op,
        }
    }

    #[test]
    fn timeline_resolves_names_and_orders_lines() {
        let k = register_kind("test.exp.mark");
        let text = render_timeline(&[ev(1_234_000, k, Op::Mark, 42, 512)]);
        assert!(text.contains("test.exp.mark"), "{text}");
        assert!(text.contains("a=42 b=512"), "{text}");
        assert!(text.contains("0.001234s"), "{text}");
    }

    #[test]
    fn count_by_kind_totals_events_and_payload() {
        let k1 = register_kind("test.exp.c1");
        let k2 = register_kind("test.exp.c2");
        let events = [
            ev(0, k1, Op::Counter, 0, 2),
            ev(1, k1, Op::Counter, 0, 3),
            ev(2, k2, Op::Mark, 0, 9),
        ];
        let counts = count_by_kind(&events);
        assert!(counts.contains(&("test.exp.c1", 2, 5)));
        assert!(counts.contains(&("test.exp.c2", 1, 9)));
    }

    #[test]
    fn stage_breakdown_pairs_marks_by_lifecycle_key() {
        let send = register_kind("test.exp.send");
        let resp = register_kind("test.exp.resp");
        let done = register_kind("test.exp.done");
        let events = [
            // Lifecycle 1: full chain, 2 ms then 1 ms.
            ev(1_000_000, send, Op::Mark, 1, 0),
            ev(3_000_000, resp, Op::Mark, 1, 0),
            ev(4_000_000, done, Op::Mark, 1, 0),
            // Lifecycle 2: never answered.
            ev(10_000_000, send, Op::Mark, 2, 0),
            // A retransmit of lifecycle 1 must not re-open the stage.
            ev(50_000_000, send, Op::Mark, 1, 0),
        ];
        let bd = stage_breakdown(&events, &[send, resp, done]);
        assert_eq!(bd.stages.len(), 2);
        assert_eq!(bd.stages[0].samples_secs, vec![0.002]);
        assert_eq!(bd.stages[0].unfinished, 1);
        assert_eq!(bd.stages[1].samples_secs, vec![0.001]);
        assert_eq!(bd.stages[0].label(), "test.exp.send→test.exp.resp");
        let s = bd.stages[0].summary().expect("one sample");
        assert!((s.median - 0.002).abs() < 1e-12);
        assert_eq!(bd.stages[0].histogram().total(), 1);
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let outer = register_kind("test.exp.outer");
        let inner = register_kind("test.exp.inner");
        let events = [
            ev(0, outer, Op::SpanEnter, 0, 0),
            ev(10, inner, Op::SpanEnter, 0, 0),
            ev(40, inner, Op::SpanExit, 0, 0),
            ev(100, outer, Op::SpanExit, 0, 0),
        ];
        let folded = folded_stacks(&events);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec!["test.exp.outer 70", "test.exp.outer;test.exp.inner 30"],
            "{folded}"
        );
    }

    /// The kind-table length a dump declares after its magic.
    fn kinds_in(dump: &[u8]) -> u16 {
        u16::from_le_bytes([dump[8], dump[9]])
    }

    #[test]
    fn binary_dump_is_self_describing_and_stable() {
        let k1 = register_kind("test.exp.bin1");
        let k2 = register_kind("test.exp.bin2");
        let events = vec![
            ev(0, k1, Op::Mark, 1, 2),
            ev(1_000, k2, Op::SpanEnter, 3, 0),
            ev(2_000, k2, Op::SpanExit, 3, 0),
            ev(u64::MAX, k1, Op::Counter, u64::MAX, u64::MAX),
        ];
        let dump = dump_binary(&events);
        assert_eq!(&dump[..8], DUMP_MAGIC);
        // Self-describing: the kind table carries the names, so ids
        // resolve without the producer's process-local registry.
        assert_eq!(kinds_in(&dump), k1.0.max(k2.0) + 1);
        for name in ["test.exp.bin1", "test.exp.bin2"] {
            let named = dump.windows(name.len()).any(|w| w == name.as_bytes());
            assert!(named, "{name} is in the table");
        }
        // Fixed-width records: the last 27 bytes are the last event.
        let last = &dump[dump.len() - 27..];
        assert_eq!(last[..24], [0xff; 24], "t_ns, a, b");
        assert_eq!(last[24..26], k1.0.to_le_bytes());
        assert_eq!(last[26], Op::Counter as u8);
        // Equal logs dump to byte-identical buffers.
        assert_eq!(dump, dump_binary(&events));
    }

    #[test]
    fn binary_dump_ignores_kinds_registered_between_dumps() {
        // Regression: the dump used to embed the whole process-wide
        // registry as of the call, so equal logs dumped differently
        // whenever any thread registered a kind in between.
        let k = register_kind("test.exp.stable");
        let events = vec![ev(1, k, Op::Mark, 0, 0)];
        let before = dump_binary(&events);
        register_kind("test.exp.registered-between-dumps");
        assert_eq!(before, dump_binary(&events));
        assert_eq!(kinds_in(&before), k.0 + 1);
        assert_eq!(kinds_in(&dump_binary(&[])), 0);
    }

    #[test]
    fn diff_logs_reports_first_divergence() {
        let k = register_kind("test.exp.diff");
        let a = vec![ev(0, k, Op::Mark, 1, 0), ev(5, k, Op::Mark, 2, 0)];
        assert_eq!(diff_logs(&a, &a), None);
        let mut b = a.clone();
        b[1].b = 99;
        let msg = diff_logs(&a, &b).expect("divergence detected");
        assert!(msg.contains("event 1"), "{msg}");
        assert!(msg.contains("test.exp.diff"), "{msg}");
        let msg = diff_logs(&a, &a[..1]).expect("length mismatch detected");
        assert!(msg.contains("2 vs 1"), "{msg}");
    }

    #[test]
    fn folded_stacks_tolerate_mismatched_exits() {
        let a = register_kind("test.exp.ma");
        let b = register_kind("test.exp.mb");
        let events = [
            ev(0, a, Op::SpanEnter, 0, 0),
            ev(5, b, Op::SpanEnter, 0, 0),
            // Exit of `a` while `b` is still open: b is closed first.
            ev(20, a, Op::SpanExit, 0, 0),
        ];
        let folded = folded_stacks(&events);
        assert!(folded.contains("test.exp.ma;test.exp.mb 15"), "{folded}");
        assert!(folded.contains("test.exp.ma 5"), "{folded}");
    }
}
