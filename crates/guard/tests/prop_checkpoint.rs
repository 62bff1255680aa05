//! Property tests: any well-formed `Checkpoint` survives a text
//! round-trip exactly — `from_text(to_text(cp)) == cp` — for both the
//! v1 quiescent format and the v2 fuzzy-cut format with arbitrary
//! in-flight entries, and the serializer is a fixed point (re-encoding
//! the parse changes nothing).

use ldp_guard::{BudgetSnapshot, Checkpoint, InflightEntry, InflightStatus};
use ldp_rng::check::{check, Gen};

/// Counter names: non-empty, whitespace-free (the serializer rejects
/// anything else), drawn from the tokens real callers use:
/// `[a-z][a-z0-9_.:-]{0,15}`.
fn arb_counter_name(g: &mut Gen) -> String {
    let head = g.string(&['a'..='z'], 1..=1);
    head + &g.string(
        &[
            'a'..='z',
            '0'..='9',
            '_'..='_',
            '.'..='.',
            ':'..=':',
            '-'..='-',
        ],
        0..=15,
    )
}

/// Unique-named counter list (duplicate names are a serialize error
/// and a parse error, so they can never round-trip).
fn arb_counters(g: &mut Gen) -> Vec<(String, u64)> {
    let mut v = g.vec(0..=7, |g| (arb_counter_name(g), g.u64()));
    let mut seen = std::collections::HashSet::new();
    v.retain(|(n, _)| seen.insert(n.clone()));
    v
}

/// Record payloads: any single line (no LF/CR — the serializer refuses
/// to emit them), including control characters, leading/trailing
/// whitespace, `#`, and strings that look like other keywords
/// (`counter x 1`, `inflight 3`).
fn arb_record(g: &mut Gen) -> String {
    match g.below(8) {
        0 => String::new(),
        1 => "  padded  ".to_string(),
        2 => "# not a comment once prefixed".to_string(),
        3 => "counter smuggled 1".to_string(),
        4 => "inflight 3 deadline 4".to_string(),
        // [^\r\n]{0,40}
        _ => g.string(
            &[
                '\0'..='\t',
                '\u{b}'..='\u{c}',
                '\u{e}'..='~',
                '\u{80}'..='\u{24f}',
                '\u{1f600}'..='\u{1f64f}',
            ],
            0..=40,
        ),
    }
}

fn arb_budget(g: &mut Gen) -> Option<BudgetSnapshot> {
    g.option(|g| BudgetSnapshot {
        used: g.u32(),
        prev_us: g.u64(),
        rng_state: g.u64(),
    })
}

fn arb_inflight_entry(g: &mut Gen) -> InflightEntry {
    InflightEntry {
        seq: g.u64(),
        deadline_ns: g.u64(),
        sends: g.u32(),
        retx: g.u32(),
        status: *g.pick(&[
            InflightStatus::InFlight,
            InflightStatus::Parked,
            InflightStatus::Retrying,
        ]),
        budget: arb_budget(g),
    }
}

/// A v2 fuzzy-cut checkpoint: counters, records, and in-flight entries
/// all populated with arbitrary (but serializable) values.
fn arb_v2_checkpoint(g: &mut Gen) -> Checkpoint {
    Checkpoint {
        version: 2,
        epoch: g.u32(),
        taken_ns: g.u64(),
        cursor: g.u64(),
        counters: arb_counters(g),
        records: g.vec(0..=15, arb_record),
        inflight: g.vec(0..=15, arb_inflight_entry),
    }
}

/// A v1 quiescent checkpoint: same shape, no in-flight section (v1
/// cannot represent one — `to_text` refuses).
fn arb_v1_checkpoint(g: &mut Gen) -> Checkpoint {
    let mut cp = arb_v2_checkpoint(g);
    cp.version = 1;
    cp.inflight.clear();
    cp
}

#[test]
fn v2_text_round_trip_is_exact() {
    check(256, |g| {
        let cp = arb_v2_checkpoint(g);
        let text = cp.to_text().expect("well-formed v2 serializes");
        let back = Checkpoint::from_text(&text).expect("own output parses");
        assert_eq!(cp, back);
        // Serialization is a fixed point: re-encoding changes nothing.
        assert_eq!(text, back.to_text().expect("re-serializes"));
    });
}

#[test]
fn v1_text_round_trip_is_exact() {
    check(256, |g| {
        let cp = arb_v1_checkpoint(g);
        let text = cp.to_text().expect("well-formed v1 serializes");
        let back = Checkpoint::from_text(&text).expect("own output parses");
        assert_eq!(cp, back);
        assert_eq!(text, back.to_text().expect("re-serializes"));
    });
}

/// Upgrade read: a v2-aware parser reading any v1 document yields
/// `version == 1` and an empty in-flight section — old checkpoints
/// stay readable and are never misread as carrying live state.
#[test]
fn v1_documents_upgrade_read_with_empty_inflight() {
    check(256, |g| {
        let cp = arb_v1_checkpoint(g);
        let text = cp.to_text().expect("well-formed v1 serializes");
        let back = Checkpoint::from_text(&text).expect("v1 parses under the v2 parser");
        assert_eq!(back.version, 1);
        assert!(back.inflight.is_empty());
        assert_eq!(back.epoch, cp.epoch);
        assert_eq!(back.cursor, cp.cursor);
        assert_eq!(back.records, cp.records);
    });
}

/// An in-flight line on its own round-trips through the line grammar
/// exactly.
#[test]
fn inflight_line_round_trip_is_exact() {
    check(256, |g| {
        let entry = arb_inflight_entry(g);
        let line = entry.to_line();
        let back = InflightEntry::from_line(&line, 1).expect("own output parses");
        assert_eq!(entry, back);
        assert_eq!(line, back.to_line());
    });
}

/// The parser returns `Err`, never panics, on arbitrary input — nor on
/// its own output with one line mangled, which reaches the section
/// parsers that free text never gets past the header to.
#[test]
fn parser_never_panics() {
    check(256, |g| {
        let _ = Checkpoint::from_text(&g.printable(0..=120));
    });
    check(256, |g| {
        let text = arb_v2_checkpoint(g).to_text().expect("serializes");
        let _ = Checkpoint::from_text(&g.corrupt_line(&text));
    });
}
