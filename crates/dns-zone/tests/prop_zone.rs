//! Property tests for the zone layer: master-file round trips for
//! arbitrary zones, lookup total-ness (never panics, always classifies),
//! and signing invariants.

use dns_wire::{Name, Question, RData, Record, RecordType, Soa};
use dns_zone::dnssec::{sign_zone, SignConfig};
use dns_zone::{lookup, parse_zone, write_zone, AnswerKind, Zone};
use ldp_rng::check::{check, Gen};

/// `[a-z][a-z0-9-]{0,8}[a-z0-9]`
fn arb_label(g: &mut Gen) -> String {
    g.string(&['a'..='z'], 1..=1)
        + &g.string(&['a'..='z', '0'..='9', '-'..='-'], 0..=8)
        + &g.string(&['a'..='z', '0'..='9'], 1..=1)
}

fn arb_rel_name(g: &mut Gen) -> Vec<String> {
    g.vec(1..=2, arb_label)
}

#[derive(Debug, Clone)]
enum GenRecord {
    A(Vec<String>, [u8; 4]),
    Txt(Vec<String>, String),
    Mx(Vec<String>, u16),
    Cname(Vec<String>, Vec<String>),
    Delegation(Vec<String>),
}

fn arb_record(g: &mut Gen) -> GenRecord {
    let name = arb_rel_name(g);
    match g.below(5) {
        0 => GenRecord::A(name, g.array()),
        // [a-z ]{0,20}
        1 => GenRecord::Txt(name, g.string(&['a'..='z', ' '..=' '], 0..=20)),
        2 => GenRecord::Mx(name, g.u16()),
        3 => GenRecord::Cname(name, arb_rel_name(g)),
        _ => GenRecord::Delegation(name),
    }
}

/// Build a valid zone from generated records (skipping CNAME conflicts,
/// as a zone file loader would reject them).
fn build_zone(records: Vec<GenRecord>) -> Zone {
    let origin: Name = "prop.example".parse().unwrap();
    let mut zone = Zone::new(origin.clone());
    zone.insert(Record::new(
        origin.clone(),
        3600,
        RData::Soa(Soa {
            mname: "ns1.prop.example".parse().unwrap(),
            rname: "host.prop.example".parse().unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 86400,
            minimum: 300,
        }),
    ))
    .unwrap();
    zone.insert(Record::new(
        origin.clone(),
        3600,
        RData::Ns("ns1.prop.example".parse().unwrap()),
    ))
    .unwrap();
    zone.insert(Record::new(
        "ns1.prop.example".parse().unwrap(),
        3600,
        RData::A("10.0.0.1".parse().unwrap()),
    ))
    .unwrap();

    let full = |labels: &[String]| -> Name {
        format!("{}.prop.example", labels.join("."))
            .parse()
            .unwrap()
    };
    for r in records {
        let _ = match r {
            GenRecord::A(n, ip) => zone.insert(Record::new(full(&n), 300, RData::A(ip.into()))),
            GenRecord::Txt(n, t) => {
                zone.insert(Record::new(full(&n), 300, RData::Txt(vec![t.into_bytes()])))
            }
            GenRecord::Mx(n, p) => zone.insert(Record::new(
                full(&n),
                300,
                RData::Mx {
                    preference: p,
                    exchange: "mx.prop.example".parse().unwrap(),
                },
            )),
            GenRecord::Cname(n, t) => {
                zone.insert(Record::new(full(&n), 300, RData::Cname(full(&t))))
            }
            GenRecord::Delegation(n) => zone.insert(Record::new(
                full(&n),
                300,
                RData::Ns("ns.child.invalid.".parse().unwrap()),
            )),
        };
    }
    zone
}

#[test]
fn master_file_round_trip() {
    check(256, |g| {
        let zone = build_zone(g.vec(0..=19, arb_record));
        let text = write_zone(&zone);
        let parsed = parse_zone(&text, zone.origin()).expect("writer output parses");
        assert_eq!(parsed, zone);
    });
}

#[test]
fn lookup_total_and_classified() {
    check(256, |g| {
        let zone = build_zone(g.vec(0..=19, arb_record));
        let name: Name = format!("{}.prop.example", arb_rel_name(g).join("."))
            .parse()
            .unwrap();
        let q = Question::new(name, RecordType::from_u16(g.range(1..=59) as u16));
        let ans = lookup(&zone, &q);
        // Total: every query is classified, and the invariants of each
        // class hold.
        match ans.kind {
            AnswerKind::Answer | AnswerKind::CnameChain => {
                assert!(ans.authoritative);
            }
            AnswerKind::Referral { .. } => {
                assert!(!ans.authoritative);
                assert!(ans.answers.is_empty());
                assert!(ans.authorities.iter().any(|r| r.rtype() == RecordType::NS));
            }
            AnswerKind::NoData | AnswerKind::NxDomain => {
                assert!(
                    ans.authorities.iter().any(|r| r.rtype() == RecordType::SOA),
                    "negative answers carry SOA"
                );
            }
        }
    });
}

#[test]
fn out_of_zone_is_refused() {
    check(256, |g| {
        let zone = build_zone(vec![]);
        let name: Name = format!("{}.other.example", arb_rel_name(g).join("."))
            .parse()
            .unwrap();
        let ans = lookup(&zone, &Question::new(name, RecordType::A));
        assert_eq!(ans.rcode, dns_wire::Rcode::Refused);
    });
}

#[test]
fn signing_preserves_unsigned_data() {
    check(256, |g| {
        let zone = build_zone(g.vec(0..=11, arb_record));
        let signed = sign_zone(&zone, SignConfig::with_zsk_bits(1024));
        // Every original record is still present in the signed zone.
        for rec in zone.records() {
            let node = signed.zone.node(&rec.name);
            assert!(node.is_some(), "name {} survives signing", rec.name);
            let set = node.unwrap().get(rec.rtype());
            assert!(set.is_some(), "rrset {}/{} survives", rec.name, rec.rtype());
            assert!(set.unwrap().rdatas.contains(&rec.rdata));
        }
        // And the signed zone is strictly bigger.
        assert!(signed.zone.record_count() > zone.record_count());
    });
}

#[test]
fn signed_zone_round_trips_master_file() {
    check(256, |g| {
        let zone = build_zone(g.vec(0..=7, arb_record));
        let signed = sign_zone(&zone, SignConfig::with_zsk_bits(1024));
        let text = write_zone(&signed.zone);
        let parsed = parse_zone(&text, signed.zone.origin()).expect("signed zone parses");
        assert_eq!(parsed, signed.zone);
    });
}
