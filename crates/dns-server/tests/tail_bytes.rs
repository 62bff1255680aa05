//! Replies copied from a zone's precompiled tails are the generic path's
//! bytes, and a tail serves exactly the queries the selection rule gives
//! it (DESIGN.md §7, "Two ways to write a reply").
//!
//! Over generated zones — the root or a TLD-like `z.`, with delegations
//! with and without glue, in-bailiwick NS targets one and two labels
//! below the cut, DS and RRSIG at cuts, signed (NSEC) and unsigned
//! apexes, wildcards, and delegations too big for 512 bytes — and
//! generated queries (qnames at, below and beside the cuts, DS at the
//! cut, DO on and off, EDNS payloads that force truncation, a class
//! other than IN, two questions, UDP and TCP), each reply
//! `ServerEngine::answer_into` writes is compared with
//! `ServerEngine::answer`'s message encoded under the same limit, and
//! `AnswerScratch::served_from_tail` with the rule worked out from that
//! message.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::IpAddr;

use dns_server::{AnswerScratch, ServerEngine};
use dns_wire::{
    Edns, Message, Name, Question, RData, Rcode, Record, RecordClass, RecordType, Rrsig, Soa,
    Transport,
};
use dns_zone::{Catalog, Zone};
use ldp_rng::check::{check, Gen};

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

/// Labels of cuts, of NS targets and of qnames, shared so that qnames
/// land on cuts, on glue owners and next to them.
const LABELS: [&str; 6] = ["a", "b", "nic", "ns0", "ns1", "x"];

fn label(g: &mut Gen) -> &'static str {
    LABELS[g.below(LABELS.len() as u64) as usize]
}

fn below(name: &Name, label: &str) -> Name {
    name.child(label.as_bytes()).unwrap()
}

fn rrsig(covered: RecordType, signer: &Name) -> RData {
    RData::Rrsig(Rrsig {
        type_covered: covered,
        algorithm: 8,
        labels: 1,
        original_ttl: 60,
        expiration: 0,
        inception: 0,
        key_tag: 7,
        signer_name: signer.clone(),
        signature: vec![9; 32],
    })
}

/// A generated zone and whether it is signed (holds NSEC records).
fn gen_zone(g: &mut Gen) -> (Zone, bool) {
    let origin = if g.bool() { Name::root() } else { n("z") };
    let mut zone = Zone::new(origin.clone());
    let soa = Soa {
        mname: below(&origin, "ns"),
        rname: below(&origin, "admin"),
        serial: 1,
        refresh: 1,
        retry: 1,
        expire: 1,
        minimum: g.range(30..=7200) as u32,
    };
    let mut records = vec![
        Record::new(origin.clone(), 3600, RData::Soa(soa)),
        Record::new(origin.clone(), 3600, RData::Ns(below(&origin, "ns"))),
        Record::new(below(&origin, "ns"), 3600, RData::A([10, 0, 0, 1].into())),
    ];
    let signed = g.below(3) == 0;
    if signed || g.bool() {
        records.push(Record::new(
            origin.clone(),
            3600,
            rrsig(RecordType::SOA, &origin),
        ));
    }
    for _ in 0..g.size(0..=4) {
        let cut = below(&origin, label(g));
        let targets = g.size(1..=13);
        for i in 0..targets {
            let target = match g.below(5) {
                0 => n("ns.elsewhere.example"),
                1 => below(&below(&cut, "nic"), &format!("ns{i}")),
                2 => below(&below(&origin, label(g)), "ns"),
                _ => below(&cut, &format!("ns{}", i % 3)),
            };
            if g.below(4) != 0 && target.is_subdomain_of(&origin) {
                records.push(Record::new(
                    target.clone(),
                    60,
                    RData::A([10, 0, 1, i as u8].into()),
                ));
                if g.bool() {
                    let v6 = format!("2001:db8::{i}").parse().unwrap();
                    records.push(Record::new(target.clone(), 60, RData::Aaaa(v6)));
                }
            }
            records.push(Record::new(cut.clone(), 60, RData::Ns(target)));
        }
        if g.bool() {
            let ds = RData::Ds {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![3; 32],
            };
            records.push(Record::new(cut.clone(), 60, ds));
        }
        if g.bool() {
            records.push(Record::new(cut.clone(), 60, rrsig(RecordType::DS, &origin)));
        }
    }
    if g.bool() {
        let wild = below(&below(&origin, g.pick::<&str>(&["x", "b"])), "*");
        let wild = if g.bool() { below(&origin, "*") } else { wild };
        records.push(Record::new(wild, 60, RData::A([10, 0, 2, 1].into())));
    }
    for _ in 0..g.size(0..=3) {
        let name = below(&origin, g.pick::<&str>(&["www", "x", "ns1"]));
        records.push(Record::new(name, 60, RData::A([10, 0, 3, 1].into())));
    }
    if signed {
        for name in [origin.clone(), below(&origin, "ns")] {
            let types = vec![RecordType::A, RecordType::NSEC];
            let nsec = RData::Nsec {
                next: below(&origin, "www"),
                types,
            };
            records.push(Record::new(name.clone(), 60, nsec));
            records.push(Record::new(name, 60, rrsig(RecordType::NSEC, &origin)));
        }
    }
    for record in records {
        // A CNAME-exclusivity refusal cannot happen here: no CNAMEs.
        zone.insert(record).unwrap();
    }
    (zone, signed)
}

/// A generated query: a qname at, below or beside the cuts, a qtype, a
/// class, EDNS with or without DO and an advertised payload, sometimes
/// a second question.
fn gen_query(g: &mut Gen, origin: &Name) -> Message {
    let base = if g.below(8) == 0 {
        n("elsewhere.example")
    } else {
        origin.clone()
    };
    let qname = (0..g.size(0..=3)).fold(base, |name, _| below(&name, label(g)));
    let qtype = *g.pick(&[
        RecordType::A,
        RecordType::A,
        RecordType::NS,
        RecordType::DS,
        RecordType::AAAA,
        RecordType::RRSIG,
        RecordType::TXT,
    ]);
    let mut query = Message::query(g.u16(), qname, qtype);
    query.flags.recursion_desired = g.bool();
    query.edns = match g.below(4) {
        0 => None,
        1 => Some(Edns::default()),
        2 => Some(Edns::with_do()),
        _ => Some(Edns {
            udp_payload: *g.pick(&[0, 512, 600, 1232, 65535]),
            dnssec_ok: g.bool(),
            ..Default::default()
        }),
    };
    match g.below(16) {
        0 => query.questions[0].qclass = RecordClass::CH,
        1 => query.questions.push(Question::new(n("b.z"), RecordType::A)),
        _ => {}
    }
    query
}

/// The payload limit the engine must honour: RFC 6891's advertised
/// size, at least 512, at most the server's own; a stream's two-byte
/// length prefix.
fn limit(engine: &ServerEngine, query: &Message, transport: Transport) -> usize {
    if transport == Transport::Tcp {
        return usize::from(u16::MAX);
    }
    let advertised = query
        .edns
        .as_ref()
        .map_or(512, |e| usize::from(e.udp_payload).max(512));
    advertised.min(usize::from(engine.max_udp_payload))
}

/// The selection rule, worked out from the generic reply `response`: a
/// referral, or a first-hop name error, to one IN question, that fits
/// the limit untruncated and that the guard admits — except a DS query
/// at the cut and a signed zone's name error with DO set. `Ok` names
/// the tail, `Err` why the generic path writes the reply.
fn selection(
    query: &Message,
    response: &Message,
    zone: (&Name, bool),
    limit: usize,
) -> Result<&'static str, &'static str> {
    let (origin, signed) = zone;
    let [question] = query.questions.as_slice() else {
        return Err("not one question");
    };
    let no_answers = response.answers.is_empty();
    let first = response.authorities.first();
    let (reference, tail) = match response.rcode {
        Rcode::NoError if no_answers && !response.flags.authoritative => match first {
            Some(ns) if ns.rtype() == RecordType::NS => {
                if question.qtype == RecordType::DS && question.name == ns.name {
                    return Err("DS at the cut");
                }
                (&ns.name, "referral")
            }
            _ => return Err("another outcome"),
        },
        Rcode::NxDomain if no_answers => {
            if signed && query.dnssec_ok() {
                return Err("signed name error with DO");
            }
            (origin, "name error")
        }
        _ => return Err("another outcome"),
    };
    if question.qclass != RecordClass::IN {
        return Err("class");
    }
    let bytes = response.encode();
    let opt = if response.edns.is_some() { 11 } else { 0 };
    if bytes.len() > limit || bytes.len() - opt > 0x4000 {
        return Err("over the limit");
    }
    // The guard. Owner names are a record's only compressed names (RDATA
    // names are written whole, RFC 3597 §4), so only an owner below the
    // reference whose label above it is the qname's would point into
    // the question past the reference.
    let depth = reference.label_count();
    let above = |name: &Name| name.labels().rev().nth(depth).map(<[u8]>::to_vec);
    let Some(qlabel) = above(&question.name) else {
        return Ok(tail);
    };
    let mut owners = response.authorities.iter().chain(&response.additionals);
    if owners.any(|r| r.name.is_subdomain_of(reference) && above(&r.name) == Some(qlabel.clone())) {
        return Err("guard");
    }
    Ok(tail)
}

fn src() -> IpAddr {
    "192.0.2.1".parse().unwrap()
}

#[test]
fn tail_replies_are_the_generic_bytes() {
    let seen = RefCell::new(BTreeMap::<String, u64>::new());
    check(256, |g| {
        let (zone, signed) = gen_zone(g);
        let origin = zone.origin().clone();
        let mut catalog = Catalog::new();
        catalog.insert(zone);
        let engine = ServerEngine::with_catalog(catalog);
        let mut scratch = AnswerScratch::new();
        for _ in 0..g.size(4..=24) {
            let query = gen_query(g, &origin);
            let wire = query.encode();
            let transport = *g.pick(&[Transport::Udp, Transport::Udp, Transport::Tcp]);
            let limit = limit(&engine, &query, transport);
            let got = engine
                .answer_into(src(), &wire, transport, &mut scratch)
                .map(<[u8]>::to_vec);
            let decoded = Message::decode(&wire).unwrap();
            let response = engine.answer(src(), &decoded);
            let want = response.encode_udp(limit).0;
            assert_eq!(
                got.as_deref(),
                Some(&want[..]),
                "{transport} {query}\n{response}"
            );
            let rule = selection(&decoded, &response, (&origin, signed), limit);
            assert_eq!(
                scratch.served_from_tail(),
                rule.is_ok(),
                "{rule:?}: {transport} {query}\n{response}"
            );
            let outcome = match rule {
                Ok(tail) => format!("{tail} over {transport}"),
                Err(why) => why.to_string(),
            };
            *seen.borrow_mut().entry(outcome).or_default() += 1;
        }
    });
    // Every branch of the rule was taken, and each tail served over both
    // transports.
    let seen = seen.into_inner();
    println!("tail coverage: {seen:?}");
    for outcome in [
        "referral over UDP",
        "referral over TCP",
        "name error over UDP",
        "name error over TCP",
        "not one question",
        "DS at the cut",
        "signed name error with DO",
        "class",
        "over the limit",
        "guard",
        "another outcome",
    ] {
        assert!(
            seen.get(outcome).is_some_and(|&n| n >= 5),
            "{outcome}: {seen:?}"
        );
    }
}
