//! Property tests: arbitrary trace entries survive every format round
//! trip the Figure 3 pipeline performs, and the decoders never panic on
//! arbitrary bytes.

use dns_wire::{Name, RecordType, Transport};
use ldp_rng::check::{check, Gen};
use ldp_trace::{
    parse_binary, parse_pcap, parse_text, write_binary, write_pcap, write_text, Mutation, Mutator,
    TraceEntry,
};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};

/// One to three labels of `[a-z0-9]{1,12}`.
fn arb_name(g: &mut Gen) -> Name {
    let labels = g.vec(1..=3, |g| g.string(&['a'..='z', '0'..='9'], 1..=12));
    Name::from_labels(labels.iter().map(|l| l.as_bytes())).expect("valid")
}

fn arb_v4_addr(g: &mut Gen) -> SocketAddr {
    SocketAddr::V4(SocketAddrV4::new(
        Ipv4Addr::from(g.u32()),
        g.range(1024..=65534) as u16,
    ))
}

fn arb_entry(g: &mut Gen) -> TraceEntry {
    let time_us = g.range(0..=9_999_999_999);
    let (src, dst, id) = (arb_v4_addr(g), arb_v4_addr(g), g.u16());
    let qtype = RecordType::from_u16(g.range(1..=259) as u16);
    let mut e = TraceEntry::query(time_us, src, dst, id, arb_name(g), qtype);
    e.transport = *g.pick(&[Transport::Udp, Transport::Tcp, Transport::Tls]);
    e.message.set_dnssec_ok(g.bool());
    e.message.flags.recursion_desired = g.bool();
    e
}

#[test]
fn binary_round_trip() {
    check(256, |g| {
        let entries = g.vec(0..=19, arb_entry);
        let bin = write_binary(&entries).unwrap();
        assert_eq!(parse_binary(&bin).unwrap(), entries);
    });
}

#[test]
fn text_round_trip_preserves_query_fields() {
    check(256, |g| {
        let entries = g.vec(1..=19, arb_entry);
        let text = write_text(&entries);
        let back = parse_text(&text).unwrap();
        assert_eq!(back.len(), entries.len());
        for (a, b) in entries.iter().zip(&back) {
            assert_eq!(a.time_us, b.time_us);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.transport, b.transport);
            assert_eq!(a.message.id, b.message.id);
            assert_eq!(a.message.question(), b.message.question());
            assert_eq!(a.message.dnssec_ok(), b.message.dnssec_ok());
            assert_eq!(
                a.message.flags.recursion_desired,
                b.message.flags.recursion_desired
            );
        }
    });
}

#[test]
fn pcap_round_trip_v4() {
    check(256, |g| {
        let entries = g.vec(0..=19, arb_entry);
        let (pcap, skipped) = write_pcap(&entries);
        assert_eq!(skipped, 0, "all-v4 entries all written");
        let (back, bad) = parse_pcap(&pcap).unwrap();
        assert_eq!(bad, 0);
        // pcap is lossy about TLS (it is just TCP on the wire unless a
        // port is 853): normalize the expectation accordingly.
        let expected: Vec<TraceEntry> = entries
            .into_iter()
            .map(|mut e| {
                if e.transport == Transport::Tls && e.src.port() != 853 && e.dst.port() != 853 {
                    e.transport = Transport::Tcp;
                }
                e
            })
            .collect();
        assert_eq!(back, expected);
    });
}

#[test]
fn binary_parser_never_panics() {
    check(256, |g| {
        let _ = parse_binary(&g.bytes(0..=255));
    });
    check(256, |g| {
        let valid = write_binary(&g.vec(1..=5, arb_entry)).unwrap();
        let _ = parse_binary(&g.corrupt(valid));
    });
}

#[test]
fn pcap_parser_never_panics() {
    check(256, |g| {
        let _ = parse_pcap(&g.bytes(0..=255));
    });
    check(256, |g| {
        let valid = write_pcap(&g.vec(1..=5, arb_entry)).0;
        let _ = parse_pcap(&g.corrupt(valid));
    });
}

#[test]
fn text_parser_never_panics() {
    check(256, |g| {
        // [ -~\n]{0,300}
        let _ = parse_text(&g.string(&[' '..='~', '\n'..='\n'], 0..=300));
    });
}

#[test]
fn mutator_preserves_count_and_order() {
    check(256, |g| {
        let entries = g.vec(1..=29, arb_entry);
        let scale = g.f64(0.1, 5.0);
        let mut sorted = entries.clone();
        sorted.sort_by_key(|e| e.time_us);
        let mut mutated = sorted.clone();
        Mutator::new(vec![
            Mutation::SetTransport(Transport::Tcp),
            Mutation::ScaleTime(scale),
            Mutation::UniquePrefix { tag: "p".into() },
        ])
        .apply(&mut mutated);
        assert_eq!(mutated.len(), sorted.len());
        // Time order preserved under positive scaling.
        assert!(mutated.windows(2).all(|w| w[0].time_us <= w[1].time_us));
        // First timestamp anchored.
        assert_eq!(mutated[0].time_us, sorted[0].time_us);
        // Unique names.
        let names: std::collections::HashSet<String> = mutated
            .iter()
            .map(|e| e.qname().unwrap().to_string())
            .collect();
        assert_eq!(names.len(), mutated.len());
    });
}

#[test]
fn message_embedding_is_lossless_for_responses() {
    check(256, |g| {
        // Responses with answer bodies only survive the binary format.
        let mut e = arb_entry(g);
        let answers = g.size(0..=3);
        let mut resp = e.message.response_to();
        for i in 0..answers {
            resp.answers.push(dns_wire::Record::new(
                e.message.question().unwrap().name.clone(),
                60 + i as u32,
                dns_wire::RData::A(Ipv4Addr::from(i as u32 + 1)),
            ));
        }
        e.message = resp;
        let bin = write_binary(std::slice::from_ref(&e)).unwrap();
        let back = parse_binary(&bin).unwrap();
        assert_eq!(back[0], e);
        assert_eq!(back[0].message.answers.len(), answers);
    });
}

/// Text round trip must also survive a full re-serialization cycle
/// (text → entries → text): fixed point after one pass.
#[test]
fn text_fixed_point() {
    let entries: Vec<TraceEntry> = (0..10)
        .map(|i| {
            TraceEntry::query(
                i * 1000,
                "10.0.0.1:53".parse().unwrap(),
                "10.0.0.2:53".parse().unwrap(),
                i as u16,
                format!("n{i}.example.com").parse().unwrap(),
                RecordType::A,
            )
        })
        .collect();
    let t1 = write_text(&entries);
    let t2 = write_text(&parse_text(&t1).unwrap());
    assert_eq!(t1, t2);
}
