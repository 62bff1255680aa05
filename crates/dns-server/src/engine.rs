//! The transport-independent server engine: query in, response out.
//!
//! One engine instance is the paper's "meta-DNS-server": it holds a
//! split-horizon [`ViewSet`] and selects the zone catalog by the query's
//! *source address* — which, after proxy rewriting, is the original
//! query destination (the public address of the nameserver the
//! recursive was really trying to reach). See paper §2.4.

use std::cell::Cell;
use std::net::IpAddr;

use dns_wire::edns::{CLASSIC_UDP_LIMIT, DEFAULT_UDP_PAYLOAD};
use dns_wire::{peek_id, Message, Opcode, Question, Rcode, Transport};
use dns_zone::{lookup_walk_into, pick_tail, Catalog, ClientMatch, View, ViewSet, Walk, Zone};

use crate::scratch::{AnswerScratch, Assembly};

/// The authoritative answering engine.
#[derive(Debug, Clone)]
pub struct ServerEngine {
    views: ViewSet,
    /// Maximum UDP payload this server is willing to send with EDNS.
    pub max_udp_payload: u16,
}

impl ServerEngine {
    /// Engine over an explicit view set (hierarchy emulation).
    pub fn with_views(views: ViewSet) -> Self {
        ServerEngine {
            views,
            max_udp_payload: DEFAULT_UDP_PAYLOAD,
        }
    }

    /// Engine serving one catalog to every client (single-zone
    /// authoritative replay, e.g. the root-only experiments).
    pub fn with_catalog(catalog: Catalog) -> Self {
        let mut views = ViewSet::new();
        views.push(View::new("default", vec![ClientMatch::Any], catalog));
        ServerEngine::with_views(views)
    }

    /// The configured views.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// Answer one raw query — a datagram, or one stream-framed message
    /// body without its length prefix — in `scratch`: parse, answer,
    /// serialize. The reply is a view of the scratch, good until its
    /// next use; nothing else of the query outlives the call. Every
    /// other entry point of the engine is an adaptor over this one.
    /// The engine records nothing: the simulated server marks each
    /// reply it sends (`srv.query.*`) in its own telemetry.
    ///
    /// Over UDP the reply honours the advertised payload limit with
    /// TC-bit truncation (RFC 6891 / RFC 2181), and a datagram that
    /// does not parse is answered FORMERR if at least its header is
    /// readable. Over a stream the limit is what a two-byte length
    /// prefix can frame (RFC 7766 §8), truncated the same way past it,
    /// and an unparseable body yields `None` either way (drop — real
    /// servers cannot reply without a readable header).
    pub fn answer_into<'s>(
        &self,
        src: IpAddr,
        data: &[u8],
        transport: Transport,
        scratch: &'s mut AnswerScratch,
    ) -> Option<&'s [u8]> {
        let AnswerScratch {
            query,
            parsed,
            assembly,
        } = scratch;
        // The last reply's question is a clone of the last query's name,
        // and so is the owner of every record answered at it: let them
        // go, so the query decodes its name into that buffer.
        let response = &mut assembly.response;
        response.questions.clear();
        response.answers.clear();
        response.authorities.clear();
        response.additionals.clear();
        *parsed = query.decode_into(data).is_ok();
        if *parsed {
            return Some(self.respond(src, query, transport, assembly).0);
        }
        if transport.is_connection_oriented() {
            return None;
        }
        // If at least the header parsed, send FORMERR: the id, then
        // QR, RD and the rcode over four zero counts.
        let id = peek_id(data)?;
        let raw = &mut assembly.raw;
        raw.clear();
        raw.extend_from_slice(&id.to_be_bytes());
        raw.extend_from_slice(&[0x81, Rcode::FormErr.low_bits(), 0, 0, 0, 0, 0, 0, 0, 0]);
        Some(raw)
    }

    /// The reply to a decoded `query` and whether it was truncated: a
    /// referral or name error from the zone's precompiled tail when one
    /// writes it byte for byte ([`pick_tail`], [`dns_wire::Tail::reply_into`]),
    /// anything else — and every reply the tail declines — rendered and
    /// encoded from the same walk.
    fn respond<'a>(
        &self,
        src: IpAddr,
        query: &Message,
        transport: Transport,
        assembly: &'a mut Assembly,
    ) -> (&'a [u8], bool) {
        let limit = if transport.is_connection_oriented() {
            usize::from(u16::MAX)
        } else {
            self.udp_limit(query)
        };
        let selected = self.select(src, query);
        assembly.from_tail = false;
        if let Ok((zone, question, Some(walk))) = selected {
            if let Some(tail) = pick_tail(zone, walk, question, query.dnssec_ok()) {
                if tail.reply_into(query, limit, &mut assembly.encode) {
                    assembly.from_tail = true;
                    return (assembly.encode.written(), false);
                }
            }
        }
        Self::render(query, selected, assembly);
        let Assembly {
            response, encode, ..
        } = assembly;
        response.encode_udp_into(limit, encode)
    }

    /// The zone that answers `query` from `src`, its question and where
    /// the zone's one walk towards the qname ends; or the rcode that
    /// refuses the query.
    fn select<'s, 'q>(
        &'s self,
        src: IpAddr,
        query: &'q Message,
    ) -> Result<(&'s Zone, &'q Question, Option<Walk<'s>>), Rcode> {
        if query.opcode != Opcode::Query {
            return Err(Rcode::NotImp);
        }
        let question = query.question().ok_or(Rcode::FormErr)?;
        if query.edns.as_ref().is_some_and(|e| e.version != 0) {
            return Err(Rcode::BadVers);
        }
        let view = self.views.select(src).ok_or(Rcode::Refused)?;
        let zone = view.catalog.find(&question.name).ok_or(Rcode::Refused)?;
        Ok((zone, question, zone.walk(&question.name)))
    }

    /// Render the generic response to `query` from what
    /// [`ServerEngine::select`] found into `assembly.response`. There is
    /// always one (servers never stay silent in our model; real servers
    /// may drop, which the transport layer can emulate).
    fn render(
        query: &Message,
        selected: Result<(&Zone, &Question, Option<Walk<'_>>), Rcode>,
        assembly: &mut Assembly,
    ) {
        let Assembly {
            answer, response, ..
        } = assembly;
        match selected {
            Ok((zone, question, walk)) => {
                lookup_walk_into(zone, walk, question, answer);
                answer.render_into(query, response);
            }
            Err(rcode) => {
                query.response_into(response);
                response.rcode = rcode;
            }
        }
    }

    /// The effective UDP payload limit for `query` (RFC 6891
    /// negotiation clamped to this server's own maximum).
    fn udp_limit(&self, query: &Message) -> usize {
        query
            .edns
            .as_ref()
            .map(|e| (e.udp_payload as usize).max(CLASSIC_UDP_LIMIT))
            .unwrap_or(CLASSIC_UDP_LIMIT)
            .min(self.max_udp_payload as usize)
    }

    /// The response message to `query` as asked by a client at `src`.
    pub fn answer(&self, src: IpAddr, query: &Message) -> Message {
        with_thread_scratch(|scratch| {
            Self::render(query, self.select(src, query), &mut scratch.assembly);
            scratch.assembly.response.clone()
        })
    }

    /// Answer and serialize for UDP: the bytes and whether the reply
    /// was truncated.
    pub fn answer_udp(&self, src: IpAddr, query: &Message) -> (Vec<u8>, bool) {
        with_thread_scratch(|scratch| {
            let (bytes, tc) = self.respond(src, query, Transport::Udp, &mut scratch.assembly);
            (bytes.to_vec(), tc)
        })
    }

    /// Handle raw UDP bytes: [`ServerEngine::answer_into`] for callers
    /// that hold no scratch.
    pub fn handle_udp_bytes(&self, src: IpAddr, data: &[u8]) -> Option<Vec<u8>> {
        with_thread_scratch(|scratch| {
            self.answer_into(src, data, Transport::Udp, scratch)
                .map(<[u8]>::to_vec)
        })
    }
}

/// Run `f` on this thread's scratch, for the entry points whose callers
/// hold none (`benchmark/`, `scan_gate`, the capture server). The scratch
/// is taken out for the call and put back after it, so a re-entrant
/// call or a thread being torn down finds nothing and works on a fresh
/// one instead of panicking.
fn with_thread_scratch<R>(f: impl FnOnce(&mut AnswerScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: Cell<Option<Box<AnswerScratch>>> = const { Cell::new(None) };
    }
    let mut scratch = SCRATCH
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_default();
    let out = f(&mut scratch);
    let _ = SCRATCH.try_with(|cell| cell.set(Some(scratch)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Name, Question, RData, Record, RecordType, Soa};
    use dns_zone::Zone;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn zone(origin: &str, extra: Vec<Record>) -> Zone {
        let mut z = Zone::new(n(origin));
        z.insert(Record::new(
            n(origin),
            3600,
            RData::Soa(Soa {
                mname: n("ns1.example"),
                rname: n("admin.example"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 60,
            }),
        ))
        .unwrap();
        for r in extra {
            z.insert(r).unwrap();
        }
        z
    }

    /// Root + com + google.com, each in its own view keyed by that
    /// level's nameserver address — the paper's §2.4 configuration.
    fn hierarchy_engine() -> ServerEngine {
        let root = zone(
            ".",
            vec![
                Record::new(Name::root(), 518400, RData::Ns(n("a.root-servers.net"))),
                Record::new(n("com"), 172800, RData::Ns(n("a.gtld-servers.net"))),
                Record::new(
                    n("a.gtld-servers.net"),
                    172800,
                    RData::A("192.5.6.30".parse().unwrap()),
                ),
                Record::new(
                    n("a.root-servers.net"),
                    518400,
                    RData::A("198.41.0.4".parse().unwrap()),
                ),
            ],
        );
        let com = zone(
            "com",
            vec![
                Record::new(n("com"), 172800, RData::Ns(n("a.gtld-servers.net"))),
                Record::new(n("google.com"), 172800, RData::Ns(n("ns1.google.com"))),
                Record::new(
                    n("ns1.google.com"),
                    172800,
                    RData::A("216.239.32.10".parse().unwrap()),
                ),
            ],
        );
        let google = zone(
            "google.com",
            vec![
                Record::new(n("google.com"), 300, RData::Ns(n("ns1.google.com"))),
                Record::new(
                    n("www.google.com"),
                    300,
                    RData::A("142.250.80.36".parse().unwrap()),
                ),
            ],
        );
        let mk_cat = |z: Zone| {
            let mut c = Catalog::new();
            c.insert(z);
            c
        };
        let views = ViewSet::for_hierarchy(vec![
            (Name::root(), vec![ip("198.41.0.4")], mk_cat(root)),
            (n("com"), vec![ip("192.5.6.30")], mk_cat(com)),
            (n("google.com"), vec![ip("216.239.32.10")], mk_cat(google)),
        ]);
        ServerEngine::with_views(views)
    }

    #[test]
    fn same_query_different_views_different_answers() {
        // THE core property of hierarchy emulation: identical query
        // content, three different source addresses, three different
        // answers (root referral → com referral → final A).
        let engine = hierarchy_engine();
        let q = Message::query(1, n("www.google.com"), RecordType::A);

        let from_root = engine.answer(ip("198.41.0.4"), &q);
        assert_eq!(from_root.rcode, Rcode::NoError);
        assert!(from_root.answers.is_empty(), "root gives a referral");
        assert_eq!(from_root.authorities[0].name, n("com"));
        assert!(!from_root.flags.authoritative);

        let from_com = engine.answer(ip("192.5.6.30"), &q);
        assert!(from_com.answers.is_empty(), "com gives a referral");
        assert_eq!(from_com.authorities[0].name, n("google.com"));
        // Glue for ns1.google.com included.
        assert!(!from_com.additionals.is_empty());

        let from_google = engine.answer(ip("216.239.32.10"), &q);
        assert!(from_google.flags.authoritative);
        assert_eq!(from_google.answers.len(), 1);
        assert_eq!(from_google.answers[0].rtype(), RecordType::A);
    }

    #[test]
    fn unknown_source_refused() {
        let engine = hierarchy_engine();
        let q = Message::query(1, n("www.google.com"), RecordType::A);
        let resp = engine.answer(ip("8.8.8.8"), &q);
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    #[test]
    fn non_query_opcode_notimp() {
        let engine = hierarchy_engine();
        let mut q = Message::query(1, n("x.com"), RecordType::A);
        q.opcode = Opcode::Update;
        assert_eq!(engine.answer(ip("198.41.0.4"), &q).rcode, Rcode::NotImp);
    }

    #[test]
    fn bad_edns_version_badvers() {
        let engine = hierarchy_engine();
        let mut q = Message::query(1, n("x.com"), RecordType::A);
        q.edns = Some(dns_wire::Edns {
            version: 1,
            ..Default::default()
        });
        assert_eq!(engine.answer(ip("198.41.0.4"), &q).rcode, Rcode::BadVers);
    }

    #[test]
    fn udp_truncation_respects_advertised_size() {
        // A zone with many records at one name to blow past 512 bytes.
        let mut recs = vec![Record::new(n("example"), 60, RData::Ns(n("ns1.example")))];
        for i in 0..40 {
            recs.push(Record::new(
                n("big.example"),
                60,
                RData::Txt(vec![format!("padding padding padding {i}").into_bytes()]),
            ));
        }
        let mut cat = Catalog::new();
        cat.insert(zone("example", recs));
        let engine = ServerEngine::with_catalog(cat);

        // Without EDNS: classic 512-byte limit → truncated.
        let q = Message::query(9, n("big.example"), RecordType::TXT);
        let (bytes, tc) = engine.answer_udp(ip("1.1.1.1"), &q);
        assert!(tc, "must truncate at 512");
        assert!(bytes.len() <= 512);
        assert!(Message::decode(&bytes).unwrap().flags.truncated);

        // With EDNS 4096: fits, no truncation.
        let mut q = Message::query(9, n("big.example"), RecordType::TXT);
        q.edns = Some(Default::default());
        let (bytes, tc) = engine.answer_udp(ip("1.1.1.1"), &q);
        assert!(!tc);
        assert!(bytes.len() > 512);

        // A stream truncates only past what its length prefix frames.
        let mut scratch = AnswerScratch::new();
        let body = engine.answer_into(ip("1.1.1.1"), &q.encode(), Transport::Tcp, &mut scratch);
        assert!(!Message::decode(body.unwrap()).unwrap().flags.truncated);
    }

    /// Twenty bytes with a readable header (id 0xabcd) and a QDCOUNT no
    /// body can satisfy.
    fn garbage_with_header() -> Vec<u8> {
        let mut garbage = vec![0u8; 20];
        garbage[0] = 0xab;
        garbage[1] = 0xcd;
        garbage[4] = 0xff;
        garbage
    }

    #[test]
    fn handle_udp_bytes_formerr_on_garbage_with_header() {
        let engine = hierarchy_engine();
        let garbage = garbage_with_header();
        let resp = engine.handle_udp_bytes(ip("198.41.0.4"), &garbage).unwrap();
        let msg = Message::decode(&resp).unwrap();
        assert_eq!(msg.id, 0xabcd);
        assert_eq!(msg.rcode, Rcode::FormErr);
        // The header is written straight into the scratch; it is the
        // twelve bytes the old path got by encoding a question-less
        // response to a root query.
        let mut old = Message::query(0xabcd, Name::root(), RecordType::A);
        old.questions.clear();
        old.flags.response = true;
        old.rcode = Rcode::FormErr;
        assert_eq!(resp, old.encode());
        // A stream peer gets nothing for the same bytes.
        let mut scratch = AnswerScratch::new();
        let body = engine.answer_into(ip("198.41.0.4"), &garbage, Transport::Tcp, &mut scratch);
        assert_eq!(body, None);
    }

    #[test]
    fn handle_udp_bytes_drops_short_garbage() {
        let engine = hierarchy_engine();
        assert!(engine
            .handle_udp_bytes(ip("198.41.0.4"), &[1, 2, 3])
            .is_none());
    }

    #[test]
    fn single_catalog_engine_answers_everyone() {
        let mut cat = Catalog::new();
        cat.insert(zone(
            "example",
            vec![Record::new(
                n("www.example"),
                60,
                RData::A("1.2.3.4".parse().unwrap()),
            )],
        ));
        let engine = ServerEngine::with_catalog(cat);
        for src in ["1.1.1.1", "9.9.9.9", "2001:db8::1"] {
            let q = Message::query(1, n("www.example"), RecordType::A);
            let resp = engine.answer(ip(src), &q);
            assert_eq!(resp.answers.len(), 1, "answered for {src}");
        }
    }

    /// The slip reply as the servers built it before the scratch held
    /// the query: decode the datagram again, echo it with TC=1.
    fn old_slip_reply(data: &[u8]) -> Option<Vec<u8>> {
        let mut tc = Message::decode(data).ok()?.response_to();
        tc.flags.truncated = true;
        Some(tc.encode())
    }

    #[test]
    fn slip_reply_bytes_are_what_they_were() {
        let engine = hierarchy_engine();
        let mut scratch = AnswerScratch::new();
        let mut plain = Message::query(7, n("nonexistent.google.com"), RecordType::A);
        plain.flags.recursion_desired = false;
        let mut with_do = Message::query(8, n("www.google.com"), RecordType::A);
        with_do.edns = Some(dns_wire::Edns {
            udp_payload: 1232,
            dnssec_ok: true,
            ..Default::default()
        });
        // An NXDOMAIN, then an answer: either way the query is in the
        // scratch.
        for query in [plain, with_do] {
            let wire = query.encode();
            let src = ip("216.239.32.10");
            assert!(engine
                .answer_into(src, &wire, Transport::Udp, &mut scratch,)
                .is_some());
            let slip = scratch.slip_reply().map(<[u8]>::to_vec);
            assert_eq!(slip, old_slip_reply(&wire));
            let slip = Message::decode(&slip.unwrap()).unwrap();
            assert!(slip.flags.truncated && slip.rcode == Rcode::NoError);
            assert_eq!(slip.questions, query.questions);
        }
        // A datagram answered FORMERR has no slip reply, as before.
        let garbage = garbage_with_header();
        let src = ip("216.239.32.10");
        assert!(engine
            .answer_into(src, &garbage, Transport::Udp, &mut scratch,)
            .is_some());
        assert_eq!(scratch.slip_reply(), None);
        assert_eq!(old_slip_reply(&garbage), None);
    }

    use ldp_rng::check::Gen;

    const VIEW_A: &str = "10.0.0.1";
    const VIEW_B: &str = "10.0.0.2";

    /// Zone `z` for the interleaving property: a wildcard, a glued and
    /// a glueless delegation, a CNAME, an MX, an RRSIG (so DO matters),
    /// NSEC on some names, and a TXT RRset too big for 512 bytes.
    fn gen_view_zone(g: &mut Gen) -> Zone {
        let mut recs = vec![
            Record::new(n("z"), 60, RData::Ns(n("ns.z"))),
            Record::new(n("ns.z"), 60, RData::A("10.0.0.53".parse().unwrap())),
        ];
        let labels = ["a", "b", "c", "*"];
        let owner = |g: &mut Gen| {
            let depth = g.size(1..=2);
            (0..depth).fold(n("z"), |name, _| {
                name.child(g.pick(&labels).as_bytes()).unwrap()
            })
        };
        for _ in 0..g.size(2..=8) {
            let name = owner(g);
            let rdata = match g.below(7) {
                0 => {
                    let target = name.child(b"ns").unwrap();
                    if g.bool() {
                        let glue = RData::A("10.0.1.53".parse().unwrap());
                        recs.push(Record::new(target.clone(), 60, glue));
                    }
                    RData::Ns(target)
                }
                1 => RData::Cname(owner(g)),
                2 => RData::Mx {
                    preference: 10,
                    exchange: owner(g),
                },
                3 => RData::Rrsig(dns_wire::Rrsig {
                    type_covered: RecordType::A,
                    algorithm: 8,
                    labels: 2,
                    original_ttl: 60,
                    expiration: 0,
                    inception: 0,
                    key_tag: 1,
                    signer_name: n("z"),
                    signature: vec![7; 64],
                }),
                4 => RData::Nsec {
                    next: n("z"),
                    types: vec![RecordType::A, RecordType::NSEC],
                },
                _ => RData::A("10.0.0.7".parse().unwrap()),
            };
            recs.push(Record::new(name, 60, rdata));
        }
        let big = owner(g);
        for i in 0..g.size(0..=14) {
            let text = format!("padding padding padding padding padding {i}");
            recs.push(Record::new(
                big.clone(),
                60,
                RData::Txt(vec![text.into_bytes()]),
            ));
        }
        let mut z = Zone::new(n("z"));
        z.insert(Record::new(
            n("z"),
            60,
            RData::Soa(Soa {
                mname: n("ns.z"),
                rname: n("admin.z"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 30,
            }),
        ))
        .unwrap();
        for r in recs {
            // CNAME-exclusivity refusals: the zone goes without.
            let _ = z.insert(r);
        }
        z
    }

    /// Two generated views by exact source, no catch-all: a third
    /// source matches none and is REFUSED.
    fn gen_engine(g: &mut Gen) -> ServerEngine {
        let mut views = ViewSet::new();
        for (name, addr) in [("a", VIEW_A), ("b", VIEW_B)] {
            let mut cat = Catalog::new();
            cat.insert(gen_view_zone(g));
            views.push(View::new(name, vec![ClientMatch::Exact(ip(addr))], cat));
        }
        ServerEngine::with_views(views)
    }

    /// One datagram of the mix: plain, EDNS with and without DO, a
    /// small or huge advertised payload, BADVERS, two questions, a
    /// non-IN class, a non-Query opcode — or any of them corrupted.
    fn gen_query_wire(g: &mut Gen) -> Vec<u8> {
        let labels = ["a", "b", "c", "*", "ns", "q"];
        let depth = g.size(0..=3);
        let base = n(g.pick::<&str>(&["z", "z", "z", "other"]));
        let qname = (0..depth).fold(base, |name, _| {
            name.child(g.pick(&labels).as_bytes()).unwrap()
        });
        let qtype = *g.pick(&[
            RecordType::A,
            RecordType::NS,
            RecordType::MX,
            RecordType::TXT,
            RecordType::ANY,
        ]);
        let mut q = Message::query(g.u16(), qname, qtype);
        q.flags.recursion_desired = g.bool();
        q.edns = match g.below(6) {
            0 | 1 => None,
            2 => Some(dns_wire::Edns::default()),
            3 => Some(dns_wire::Edns::with_do()),
            4 => Some(dns_wire::Edns {
                udp_payload: *g.pick(&[0, 512, 700, 65535]),
                dnssec_ok: g.bool(),
                ..Default::default()
            }),
            _ => Some(dns_wire::Edns {
                version: 1,
                ..Default::default()
            }),
        };
        match g.below(10) {
            0 => q.questions.push(Question::new(n("b.z"), RecordType::A)),
            1 => q.questions[0].qclass = dns_wire::RecordClass::CH,
            2 => q.opcode = Opcode::Update,
            3 => q.questions.clear(),
            _ => {}
        }
        let wire = q.encode();
        if g.below(8) == 0 {
            g.corrupt(wire)
        } else {
            wire
        }
    }

    /// The reuse property: a random interleaving of queries answered
    /// through one long-lived scratch gives, byte for byte, what a
    /// fresh scratch gives for each — reply, truncation and slip reply,
    /// over UDP and over a stream.
    #[test]
    fn one_long_lived_scratch_answers_like_a_fresh_one() {
        ldp_rng::check::check(192, |g| {
            let engine = gen_engine(g);
            let mut reused = AnswerScratch::new();
            for _ in 0..g.size(2..=16) {
                let wire = gen_query_wire(g);
                let src = ip(g.pick::<&str>(&[VIEW_A, VIEW_A, VIEW_B, "10.9.9.9"]));
                let transport = *g.pick(&[Transport::Udp, Transport::Udp, Transport::Tcp]);
                let mut fresh = AnswerScratch::new();
                let want = engine.answer_into(src, &wire, transport, &mut fresh);
                let got = engine.answer_into(src, &wire, transport, &mut reused);
                assert_eq!(got, want, "{transport} from {src}: {wire:02x?}");
                assert_eq!(reused.slip_reply(), old_slip_reply(&wire).as_deref());
                // The adaptors run on the thread's own long-lived
                // scratch and must agree too.
                let Ok(query) = Message::decode(&wire) else {
                    continue;
                };
                let mut one_shot = AnswerScratch::new();
                let udp = engine.respond(src, &query, Transport::Udp, &mut one_shot.assembly);
                let udp = (udp.0.to_vec(), udp.1);
                assert_eq!(engine.answer_udp(src, &query), udp);
                let response = engine.answer(src, &query);
                let stream = engine.respond(src, &query, Transport::Tcp, &mut one_shot.assembly);
                assert_eq!(stream.0, response.encode());
            }
        });
    }
}
