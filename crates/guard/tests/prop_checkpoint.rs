//! Property tests: any well-formed `Checkpoint` survives a text
//! round-trip exactly — `from_text(to_text(cp)) == cp` — with
//! arbitrary in-flight entries, and the serializer is a fixed point
//! (re-encoding the parse changes nothing).

use ldp_guard::{Checkpoint, InflightEntry, InflightStatus};
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
    }
}

/// A checkpoint with counters, records, and in-flight entries all
/// populated with arbitrary (but serializable) values.
fn arb_checkpoint(g: &mut Gen) -> Checkpoint {
    Checkpoint {
        epoch: g.u32(),
        taken_ns: g.u64(),
        cursor: g.u64(),
        counters: arb_counters(g),
        records: g.vec(0..=15, arb_record),
        inflight: g.vec(0..=15, arb_inflight_entry),
    }
}

#[test]
fn text_round_trip_is_exact() {
    check(256, |g| {
        let cp = arb_checkpoint(g);
        let text = cp.to_text().expect("well-formed checkpoint serializes");
        let back = Checkpoint::from_text(&text).expect("own output parses");
        assert_eq!(cp, back);
        // Serialization is a fixed point: re-encoding changes nothing.
        assert_eq!(text, back.to_text().expect("re-serializes"));
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
        let text = arb_checkpoint(g).to_text().expect("serializes");
        let _ = Checkpoint::from_text(&g.corrupt_line(&text));
    });
}
