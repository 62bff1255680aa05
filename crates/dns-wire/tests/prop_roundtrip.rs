//! Property-based round-trip tests for the DNS wire format: arbitrary
//! names, records and messages must survive encode → decode and
//! presentation print → parse unchanged, and the decoder must never
//! panic on arbitrary bytes.

// Test helpers sit outside #[test] fns, where clippy.toml's test
// exemption does not reach; the crate-wide panic denies are for
// production code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dns_wire::message::{Flags, Message, Question};
use dns_wire::name::Name;
use dns_wire::rdata::{RData, Rrsig, Soa};
use dns_wire::record::Record;
use dns_wire::types::{Opcode, Rcode, RecordType};
use dns_wire::wire::{WireReader, WireWriter};
use dns_wire::Edns;
use ldp_rng::check::{check, Gen};

/// Up to six labels of 1–16 arbitrary bytes (255 octets at most, so
/// every draw is a valid name).
fn arb_name(g: &mut Gen) -> Name {
    let labels = g.vec(0..=6, |g| g.bytes(1..=16));
    Name::from_labels(labels).expect("6 x 17 octets fit a name")
}

fn arb_rdata(g: &mut Gen) -> RData {
    match g.below(13) {
        0 => RData::A(g.array::<4>().into()),
        1 => RData::Aaaa(g.array::<16>().into()),
        2 => RData::Ns(arb_name(g)),
        3 => RData::Cname(arb_name(g)),
        4 => RData::Ptr(arb_name(g)),
        5 => RData::Soa(Soa {
            mname: arb_name(g),
            rname: arb_name(g),
            serial: g.u32(),
            refresh: g.u32(),
            retry: g.u32(),
            expire: g.u32(),
            minimum: g.u32(),
        }),
        6 => RData::Mx {
            preference: g.u16(),
            exchange: arb_name(g),
        },
        7 => RData::Txt(g.vec(1..=4, |g| g.bytes(0..=32))),
        8 => RData::Srv {
            priority: g.u16(),
            weight: g.u16(),
            port: g.u16(),
            target: arb_name(g),
        },
        9 => RData::Ds {
            key_tag: g.u16(),
            algorithm: g.u8(),
            digest_type: g.u8(),
            digest: g.bytes(1..=40),
        },
        10 => RData::Dnskey {
            flags: g.u16(),
            protocol: 3,
            algorithm: g.u8(),
            public_key: g.bytes(1..=64),
        },
        11 => {
            let next = arb_name(g);
            let mut types = g.vec(0..=8, |g| RecordType::from_u16(g.range(0..=1023) as u16));
            types.sort_by_key(|t| t.to_u16());
            types.dedup();
            RData::Nsec { next, types }
        }
        // Type codes that are not structurally decoded.
        _ => RData::Unknown {
            rtype: 20000 + g.range(0..=20) as u16,
            data: g.bytes(0..=32),
        },
    }
}

fn arb_rrsig(g: &mut Gen) -> RData {
    RData::Rrsig(Rrsig {
        type_covered: RecordType::from_u16(g.range(0..=299) as u16),
        algorithm: g.u8(),
        labels: g.range(0..=9) as u8,
        original_ttl: g.u32(),
        expiration: g.u32(),
        inception: g.u32(),
        key_tag: g.u16(),
        signer_name: arb_name(g),
        signature: g.bytes(1..=64),
    })
}

fn arb_any_rdata(g: &mut Gen) -> RData {
    if g.bool() {
        arb_rrsig(g)
    } else {
        arb_rdata(g)
    }
}

fn arb_record(g: &mut Gen) -> Record {
    Record::new(arb_name(g), g.u32(), arb_any_rdata(g))
}

fn arb_message(g: &mut Gen) -> Message {
    Message {
        id: g.u16(),
        flags: Flags {
            response: g.bool(),
            authoritative: g.bool(),
            recursion_desired: g.bool(),
            ..Default::default()
        },
        opcode: Opcode::Query,
        rcode: Rcode::from_u16(g.range(0..=11) as u16),
        questions: vec![Question::new(
            arb_name(g),
            RecordType::from_u16(g.range(0..=299) as u16),
        )],
        answers: g.vec(0..=4, arb_record),
        authorities: g.vec(0..=3, arb_record),
        additionals: g.vec(0..=3, arb_record),
        edns: g.option(|g| Edns {
            dnssec_ok: g.bool(),
            ..Default::default()
        }),
    }
}

/// The 12-byte header of `m` with `an`/`ns`/`ar` records (and OPT) kept
/// and TC set when `tc`.
fn ref_header(m: &Message, an: usize, ns: usize, ar: usize, tc: bool) -> Vec<u8> {
    let mut f: u16 = 0;
    if m.flags.response {
        f |= 0x8000;
    }
    f |= (m.opcode.to_u8() as u16) << 11;
    if m.flags.authoritative {
        f |= 0x0400;
    }
    if m.flags.truncated || tc {
        f |= 0x0200;
    }
    if m.flags.recursion_desired {
        f |= 0x0100;
    }
    if m.flags.recursion_available {
        f |= 0x0080;
    }
    if m.flags.authentic_data {
        f |= 0x0020;
    }
    if m.flags.checking_disabled {
        f |= 0x0010;
    }
    f |= m.rcode.low_bits() as u16;
    let opt_count = usize::from(m.edns.is_some());
    let counts = [m.questions.len(), an, ns, ar + opt_count];
    [m.id, f]
        .into_iter()
        .chain(counts.map(|c| c as u16))
        .flat_map(u16::to_be_bytes)
        .collect()
}

/// Reference implementation of the pre-rewrite encoder: encode with
/// explicit section counts, cloning the EDNS block to patch the extended
/// RCODE. Kept so the offset-slicing truncation can be proven
/// byte-identical to the old drop-and-reencode loop; its header is
/// [`ref_header`], shared with [`ref_compressed`].
fn ref_encode_with_counts(m: &Message, an: usize, ns: usize, ar: usize, tc: bool) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(&ref_header(m, an, ns, ar, tc));
    for q in &m.questions {
        w.put_name(&q.name);
        w.put_u16(q.qtype.to_u16());
        w.put_u16(q.qclass.to_u16());
    }
    for rec in m.answers.iter().take(an) {
        rec.encode(&mut w);
    }
    for rec in m.authorities.iter().take(ns) {
        rec.encode(&mut w);
    }
    for rec in m.additionals.iter().take(ar) {
        rec.encode(&mut w);
    }
    if let Some(edns) = &m.edns {
        let mut e = edns.clone();
        e.ext_rcode_high = m.rcode.high_bits();
        e.to_record().encode(&mut w);
    }
    w.into_bytes()
}

/// A message encoder with `an`/`ns`/`ar` records kept and TC as given.
type EncodeWithCounts = fn(&Message, usize, usize, usize, bool) -> Vec<u8>;

/// The old drop-and-reencode UDP truncation loop, verbatim, over
/// `encode_with_counts`.
fn ref_encode_udp(
    m: &Message,
    limit: usize,
    encode_with_counts: EncodeWithCounts,
) -> (Vec<u8>, bool) {
    let full = encode_with_counts(
        m,
        m.answers.len(),
        m.authorities.len(),
        m.additionals.len(),
        false,
    );
    if full.len() <= limit {
        return (full, false);
    }
    let mut an = m.answers.len();
    let mut ns = m.authorities.len();
    let mut ar = m.additionals.len();
    loop {
        if ar > 0 {
            ar -= 1;
        } else if ns > 0 {
            ns -= 1;
        } else if an > 0 {
            an -= 1;
        } else {
            return (encode_with_counts(m, 0, 0, 0, true), true);
        }
        let buf = encode_with_counts(m, an, ns, ar, true);
        if buf.len() <= limit {
            return (buf, true);
        }
    }
}

#[test]
fn name_wire_round_trip() {
    check(256, |g| {
        let name = arb_name(g);
        let mut w = WireWriter::new();
        w.put_name(&name);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name().unwrap(), name);
    });
}

#[test]
fn name_presentation_round_trip() {
    check(256, |g| {
        let name = arb_name(g);
        let parsed: Name = name.to_string().parse().unwrap();
        assert_eq!(parsed, name);
    });
}

#[test]
fn rdata_wire_round_trip() {
    check(256, |g| {
        let rd = arb_any_rdata(g);
        let mut w = WireWriter::new_uncompressed();
        rd.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        let decoded = RData::decode(rd.record_type(), buf.len(), &mut r).unwrap();
        assert_eq!(decoded, rd);
    });
}

#[test]
fn record_presentation_round_trip() {
    check(256, |g| {
        let rec = arb_record(g);
        let owned = dns_wire::text::tokenize(&rec.rdata.to_string());
        let tokens: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
        let parsed = RData::parse_presentation(rec.rtype(), &tokens, &Name::root()).unwrap();
        assert_eq!(parsed, rec.rdata);
    });
}

#[test]
fn message_round_trip() {
    check(256, |g| {
        let msg = arb_message(g);
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    });
}

#[test]
fn message_udp_truncation_always_fits() {
    check(256, |g| {
        let msg = arb_message(g);
        let limit = g.size(64..=1499);
        let (buf, tc) = msg.encode_udp(limit);
        let decoded = Message::decode(&buf).unwrap();
        // The clamp is unconditional: no header+question+OPT floor, the
        // result never exceeds the caller's limit (RFC 2181 §9).
        assert!(buf.len() <= limit);
        if tc {
            assert!(decoded.flags.truncated);
        }
    });
}

#[test]
fn truncation_byte_identical_to_reference() {
    check(256, |g| {
        let msg = arb_message(g);
        let limit = g.size(12..=1499);
        // Wherever the old drop-and-reencode loop produced a fitting
        // result, the offset-slicing rewrite must reproduce it exactly;
        // where the old loop overshot (its header+question+OPT fallback),
        // the rewrite must clamp instead.
        let (old, old_tc) = ref_encode_udp(&msg, limit, ref_encode_with_counts);
        let (new, new_tc) = msg.encode_udp(limit);
        assert!(new.len() <= limit);
        if old.len() <= limit {
            assert_eq!(new_tc, old_tc);
            assert_eq!(new, old);
        }
    });
}

#[test]
fn scratch_encode_matches_wrapper() {
    check(256, |g| {
        let msg = arb_message(g);
        let limit = g.size(12..=1499);
        let mut scratch = dns_wire::EncodeScratch::new();
        // Same scratch reused across both calls: interner state from the
        // first encode must not perturb the second.
        let a = msg.encode_into(&mut scratch).to_vec();
        assert_eq!(a, msg.encode());
        let (b, tc) = msg.encode_udp_into(limit, &mut scratch);
        let b = b.to_vec();
        let (wrapper, wrapper_tc) = msg.encode_udp(limit);
        assert_eq!(b, wrapper);
        assert_eq!(tc, wrapper_tc);
    });
}

/// RFC 1035 §4.1.4 compression, written plainly: the suffixes this
/// message wrote as labels at an offset a pointer can hold, in order; a
/// name points at the first one it ends with.
#[derive(Default)]
struct RefCompressor {
    out: Vec<u8>,
    written: Vec<(Name, u16)>,
}

impl RefCompressor {
    fn put_name(&mut self, name: &Name) {
        let mut suffix = name.clone();
        while let Some(label) = suffix.leftmost() {
            if let Some(&(_, at)) = self.written.iter().find(|(n, _)| *n == suffix) {
                self.out.extend_from_slice(&(0xc000 | at).to_be_bytes());
                return;
            }
            if self.out.len() <= 0x3fff {
                self.written.push((suffix.clone(), self.out.len() as u16));
            }
            self.out.push(label.len() as u8);
            self.out.extend_from_slice(label);
            suffix = suffix.parent().unwrap();
        }
        self.out.push(0);
    }
}

/// `m` with `an`/`ns`/`ar` records kept, its questions and owners
/// compressed by [`RefCompressor`] and everything after an owner as an
/// uncompressing writer puts it (RDATA names are never compressed).
fn ref_compressed(m: &Message, an: usize, ns: usize, ar: usize, tc: bool) -> Vec<u8> {
    let mut c = RefCompressor {
        out: ref_header(m, an, ns, ar, tc),
        ..Default::default()
    };
    for q in &m.questions {
        c.put_name(&q.name);
        c.out.extend(q.qtype.to_u16().to_be_bytes());
        c.out.extend(q.qclass.to_u16().to_be_bytes());
    }
    let opt = m.edns.as_ref().map(|edns| {
        let mut e = edns.clone();
        e.ext_rcode_high = m.rcode.high_bits();
        e.to_record()
    });
    let kept = (m.answers.iter().take(an))
        .chain(m.authorities.iter().take(ns))
        .chain(m.additionals.iter().take(ar));
    for rec in kept.chain(&opt) {
        c.put_name(&rec.name);
        let mut w = WireWriter::new_uncompressed();
        rec.encode(&mut w);
        c.out.extend_from_slice(&w.bytes()[rec.name.wire_len()..]);
    }
    c.out
}

/// A name from a small tree: up to four labels, two choices at each
/// depth, so names share suffixes at every depth and often have the
/// same length (which lines one message's offsets up with the next's).
/// A label is sometimes upper-cased, and one in eight is long enough to
/// take the name past 29 canonical bytes.
fn tree_name(g: &mut Gen) -> Name {
    let mut labels: Vec<Vec<u8>> = (0..g.size(0..=4))
        .map(|depth| match g.below(8) {
            0 => b"a-label-long-enough-to-share".to_vec(),
            k => {
                let label = [b'a' + (k % 2) as u8, b'0' + depth as u8];
                match g.bool() {
                    true => label.to_ascii_uppercase(),
                    false => label.to_vec(),
                }
            }
        })
        .collect();
    labels.reverse();
    Name::from_labels(labels).unwrap()
}

/// A message of [`tree_name`]s: owners and questions (compressed), NS,
/// RRSIG and NSEC names in RDATA (written whole), and now and then one
/// opaque record of 15.5–16 KiB that pushes the names after it past
/// 0x3fff, or to either side of it.
fn arb_compressible(g: &mut Gen) -> Message {
    let mut record = |g: &mut Gen| {
        let rdata = match g.below(12) {
            0..=2 => RData::Ns(tree_name(g)),
            3..=5 => RData::A(g.array::<4>().into()),
            6 | 7 => {
                let RData::Rrsig(sig) = arb_rrsig(g) else {
                    panic!("arb_rrsig draws an RRSIG")
                };
                let signer_name = tree_name(g);
                RData::Rrsig(Rrsig { signer_name, ..sig })
            }
            8 | 9 => RData::Nsec {
                next: tree_name(g),
                types: vec![RecordType::A, RecordType::NS],
            },
            10 => RData::Unknown {
                rtype: 65_280,
                data: vec![0; g.size(0x3e00..=0x4000)],
            },
            _ => RData::Cname(tree_name(g)),
        };
        Record::new(tree_name(g), 60, rdata)
    };
    Message {
        id: g.u16(),
        questions: g.vec(0..=2, |g| Question::new(tree_name(g), RecordType::A)),
        answers: g.vec(0..=5, &mut record),
        authorities: g.vec(0..=4, &mut record),
        additionals: g.vec(0..=4, &mut record),
        edns: g.option(|_| Edns::default()),
        ..Message::default()
    }
}

/// One long-lived scratch compresses every message as the plain RFC
/// reference does, with no limit and under UDP limits that truncate: a
/// pointer goes to the first place in this message a suffix was written
/// as labels at an offset ≤ 0x3fff, and to nothing an earlier message
/// wrote.
#[test]
fn compression_matches_the_rfc_reference_across_messages() {
    check(256, |g| {
        let mut scratch = dns_wire::EncodeScratch::new();
        for _ in 0..g.size(1..=6) {
            let msg = arb_compressible(g);
            let full = msg.encode_into(&mut scratch).to_vec();
            let (an, ns, ar) = (
                msg.answers.len(),
                msg.authorities.len(),
                msg.additionals.len(),
            );
            assert_eq!(full, ref_compressed(&msg, an, ns, ar, false));
            assert_eq!(Message::decode(&full).unwrap(), msg);
            let limit = g.size(12..=full.len() + 16);
            let (udp, tc) = msg.encode_udp_into(limit, &mut scratch);
            let (want, want_tc) = ref_encode_udp(&msg, limit, ref_compressed);
            if want.len() <= limit {
                assert_eq!((udp, tc), (&want[..], want_tc));
            }
        }
    });
}

/// What `Eq` on a name does not read: its text, label count and wire
/// length.
fn name_view(name: &Name) -> (String, usize, usize) {
    (name.to_string(), name.label_count(), name.wire_len())
}

fn qname_views(m: &Message) -> Vec<(String, usize, usize)> {
    m.questions.iter().map(|q| name_view(&q.name)).collect()
}

/// `decode_into` over a message that already holds another decode —
/// whole, or cut off wherever a hostile packet stopped it — gives what
/// `decode` gives on a fresh one, `Ok` and `Err` alike: nothing of the
/// earlier packets survives (not an `edns`, not an additional record,
/// not an extended `rcode`, not the length or label count of a qname).
/// The qname is decoded into the last one's buffer when nothing else
/// holds it — names grow and shrink from step to step, the root among
/// them — and some steps keep a clone of it, which must never change.
#[test]
fn decode_into_a_dirty_message_matches_a_fresh_decode() {
    check(256, |g| {
        let mut reused = Message::default();
        let mut kept: Vec<(Name, (String, usize, usize))> = Vec::new();
        for _ in 0..g.size(2..=8) {
            let mut msg = arb_message(g);
            if msg.edns.is_some() && g.bool() {
                msg.rcode = Rcode::BadVers; // extended bits live in the OPT
            }
            let wire = match g.below(3) {
                0 => g.corrupt(msg.encode()),
                _ => msg.encode(),
            };
            match g.below(3) {
                0 => kept.extend(
                    reused
                        .questions
                        .first()
                        .map(|q| (q.name.clone(), name_view(&q.name))),
                ),
                1 => kept.clear(),
                _ => {}
            }
            let again = reused.decode_into(&wire).map(|()| reused.clone());
            let fresh = Message::decode(&wire);
            assert_eq!(again, fresh);
            if let (Ok(again), Ok(fresh)) = (&again, &fresh) {
                assert_eq!(qname_views(again), qname_views(fresh));
            }
            for (name, view) in &kept {
                assert_eq!(&name_view(name), view, "a kept qname changed");
            }
        }
    });
}

/// `query_into` over a message that holds anything at all is
/// `Message::query`: no section, `edns`, flag or `rcode` survives.
#[test]
fn query_into_a_dirty_message_matches_a_fresh_query() {
    check(256, |g| {
        let mut reused = arb_message(g);
        let (id, name) = (g.u16(), arb_name(g));
        reused.query_into(id, name.clone(), RecordType::AAAA);
        assert_eq!(reused, Message::query(id, name, RecordType::AAAA));
    });
}

#[test]
fn decoder_never_panics() {
    check(256, |g| {
        let _ = Message::decode(&g.bytes(0..=255));
    });
    // A valid message with a few bytes overwritten and the tail cut
    // reaches the record and rdata decoders, which random bytes rarely do.
    check(256, |g| {
        let valid = arb_message(g).encode();
        let _ = Message::decode(&g.corrupt(valid));
    });
}

#[test]
fn decoder_never_panics_with_pointers() {
    check(256, |g| {
        // Salt buffers with plausible compression pointers to stress the
        // pointer-following paths.
        let mut bytes = g.bytes(12..=127);
        let len = bytes.len();
        bytes[len - 2] = 0xc0 | (g.u8() & 0x3f);
        let _ = Message::decode(&bytes);
    });
}

#[test]
fn canonical_order_total() {
    use std::cmp::Ordering;
    check(256, |g| {
        let (a, b, c) = (arb_name(g), arb_name(g), arb_name(g));
        // Antisymmetry.
        assert_eq!(a.canonical_cmp(&b), b.canonical_cmp(&a).reverse());
        // Transitivity (spot form).
        if a.canonical_cmp(&b) == Ordering::Less && b.canonical_cmp(&c) == Ordering::Less {
            assert_eq!(a.canonical_cmp(&c), Ordering::Less);
        }
        // Reflexivity.
        assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
    });
}

/// A name for a response about `pool[0]` (its qname): the qname, one of
/// its ancestors or of another name drawn before (an NS target, then its
/// glue's owner), such a name itself, a child of one, or an unrelated
/// name. Whatever is drawn joins the pool.
fn related_name(g: &mut Gen, pool: &mut Vec<Name>) -> Name {
    let base = g.pick(pool).clone();
    let name = match g.below(6) {
        0 => pool[0].clone(),
        1 => base.ancestor(g.size(0..=base.label_count())).unwrap(),
        2 => base,
        3 => base.child(&g.bytes(1..=8)).unwrap_or_else(|_| arb_name(g)),
        _ => arb_name(g),
    };
    pool.push(name.clone());
    name
}

/// A response whose names are [`related_name`]s of its qname: answers,
/// a referral's NS set with glue, an SOA, in any mix.
fn arb_response(g: &mut Gen) -> Message {
    let mut pool = vec![arb_name(g)];
    let mut msg = Message::query(g.u16(), pool[0].clone(), RecordType::A).response_to();
    let mut record = |g: &mut Gen| {
        let owner = related_name(g, &mut pool);
        let rdata = match g.below(6) {
            0 => RData::Ns(related_name(g, &mut pool)),
            1 => RData::Cname(related_name(g, &mut pool)),
            2 => RData::Mx {
                preference: g.u16(),
                exchange: related_name(g, &mut pool),
            },
            3 => RData::Soa(Soa {
                mname: related_name(g, &mut pool),
                rname: related_name(g, &mut pool),
                serial: g.u32(),
                refresh: g.u32(),
                retry: g.u32(),
                expire: g.u32(),
                minimum: g.u32(),
            }),
            _ => RData::A(g.array::<4>().into()),
        };
        Record::new(owner, g.u32(), rdata)
    };
    msg.answers = g.vec(0..=4, &mut record);
    msg.authorities = g.vec(0..=4, &mut record);
    msg.additionals = g.vec(0..=4, &mut record);
    if msg.answers.is_empty() && msg.authorities.is_empty() {
        msg.authorities.push(record(g));
    }
    msg
}

/// Every name a message holds: questions, owners, names in RDATA.
fn names_of(m: &Message) -> Vec<Name> {
    let mut names: Vec<Name> = m.questions.iter().map(|q| q.name.clone()).collect();
    for rec in m.answers.iter().chain(&m.authorities).chain(&m.additionals) {
        names.push(rec.name.clone());
        match &rec.rdata {
            RData::Ns(n) | RData::Cname(n) => names.push(n.clone()),
            RData::Mx { exchange, .. } => names.push(exchange.clone()),
            RData::Soa(soa) => names.extend([soa.mname.clone(), soa.rname.clone()]),
            _ => {}
        }
    }
    names
}

fn hash_of(name: &Name) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// A decoded name and the same name parsed from its text agree on every
/// observation.
fn assert_rebuilt(name: &Name, rebuilt: &Name) {
    assert_eq!(name_view(name), name_view(rebuilt));
    assert_eq!(name, rebuilt);
    assert_eq!(name.cmp(rebuilt), std::cmp::Ordering::Equal, "{name}");
    assert_eq!(hash_of(name), hash_of(rebuilt), "{name}");
}

/// A response decodes its names as views of the qname, of its ancestors
/// and of each other where it can; each is the name its text parses to —
/// text, label count, wire length, `Eq`, `Ord` and `Hash` — and keeps
/// being that name while later responses are decoded into the same
/// message and clones of it are kept.
#[test]
fn shared_names_are_the_names_rebuilt_from_text() {
    check(256, |g| {
        let mut reused = Message::default();
        let mut kept: Vec<(Name, Name)> = Vec::new();
        for _ in 0..g.size(1..=6) {
            let msg = arb_response(g);
            reused.decode_into(&msg.encode()).unwrap();
            assert_eq!(reused, msg);
            let names = names_of(&reused);
            let rebuilt: Vec<Name> = names
                .iter()
                .map(|n| n.to_string().parse().unwrap())
                .collect();
            for (name, fresh) in names.iter().zip(&rebuilt) {
                assert_rebuilt(name, fresh);
                for (other, other_fresh) in names.iter().zip(&rebuilt) {
                    assert_eq!(name.cmp(other), fresh.cmp(other_fresh), "{name} {other}");
                }
            }
            if g.bool() {
                kept.extend(names.into_iter().zip(rebuilt));
            }
            for (name, fresh) in &kept {
                assert_rebuilt(name, fresh);
            }
        }
    });
}
