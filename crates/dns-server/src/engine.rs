//! The transport-independent server engine: query in, response out.
//!
//! One engine instance is the paper's "meta-DNS-server": it holds a
//! split-horizon [`ViewSet`] and selects the zone catalog by the query's
//! *source address* — which, after proxy rewriting, is the original
//! query destination (the public address of the nameserver the
//! recursive was really trying to reach). See paper §2.4.

use std::net::IpAddr;
use std::sync::Arc;

use dns_wire::edns::{CLASSIC_UDP_LIMIT, DEFAULT_UDP_PAYLOAD};
use dns_wire::{peek_id, Message, Opcode, Rcode};
use dns_zone::{Catalog, ClientMatch, View, ViewSet};
use ldp_telemetry as tel;

use crate::template::{error_response, view_answer, TemplateTable};

/// Interned span kinds for the engine's processing stages
/// (parse → lookup → encode), shared by every transport front-end.
/// Registered once; span recording costs one relaxed load when
/// telemetry is disabled. Timestamps come from the process-wide
/// telemetry clock: zero by default, virtual time under the simulator.
struct Stages {
    parse: tel::KindId,
    lookup: tel::KindId,
    encode: tel::KindId,
}

fn stages() -> &'static Stages {
    static S: std::sync::OnceLock<Stages> = std::sync::OnceLock::new();
    S.get_or_init(|| Stages {
        parse: tel::register_kind("srv.parse"),
        lookup: tel::register_kind("srv.lookup"),
        encode: tel::register_kind("srv.encode"),
    })
}

/// The authoritative answering engine.
#[derive(Debug, Clone)]
pub struct ServerEngine {
    views: ViewSet,
    /// Maximum UDP payload this server is willing to send with EDNS.
    pub max_udp_payload: u16,
    /// Precompiled wire answers (see [`TemplateTable`]); `None` until
    /// [`ServerEngine::with_templates`] opts in.
    templates: Option<Arc<TemplateTable>>,
}

impl ServerEngine {
    /// Engine over an explicit view set (hierarchy emulation).
    pub fn with_views(views: ViewSet) -> Self {
        ServerEngine {
            views,
            max_udp_payload: DEFAULT_UDP_PAYLOAD,
            templates: None,
        }
    }

    /// Precompile response templates for every (view, qname, qtype) in
    /// the loaded zones. `answer_udp` then serves template hits as a
    /// memcpy plus header patching, falling back to the general path
    /// for everything a template cannot express (unknown names, non-IN
    /// classes, BADVERS, answers that need truncation, REFUSED views).
    pub fn with_templates(mut self) -> Self {
        self.templates = Some(Arc::new(TemplateTable::build(&self.views)));
        self
    }

    /// The precompiled template table, if enabled.
    pub fn templates(&self) -> Option<&TemplateTable> {
        self.templates.as_deref()
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

    /// Answer `query` as asked by a client at `src`. Always produces a
    /// response message (servers never stay silent in our model; real
    /// servers may drop, which the transport layer can emulate).
    pub fn answer(&self, src: IpAddr, query: &Message) -> Message {
        let _lookup_span = tel::span(stages().lookup, u64::from(query.id));
        if query.opcode != Opcode::Query {
            return error_response(query, Rcode::NotImp);
        }
        if query.question().is_none() {
            return error_response(query, Rcode::FormErr);
        }
        if query.edns.as_ref().is_some_and(|e| e.version != 0) {
            return error_response(query, Rcode::BadVers);
        }
        match self.views.select(src) {
            Some(view) => view_answer(view, query),
            None => error_response(query, Rcode::Refused),
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

    /// Answer and serialize for UDP, applying the advertised payload
    /// limit and TC-bit truncation (RFC 6891 / RFC 2181).
    ///
    /// With [`ServerEngine::with_templates`] enabled, a template hit
    /// skips response assembly and encoding entirely; the lookup and
    /// encode telemetry spans still bracket the table probe and the
    /// copy+patch so `stage_breakdown` keeps attributing the time.
    pub fn answer_udp(&self, src: IpAddr, query: &Message) -> (Vec<u8>, bool) {
        if let Some(templates) = &self.templates {
            let hit = {
                let _lookup_span = tel::span(stages().lookup, u64::from(query.id));
                let view = self.views.select_index(src);
                templates.find(view, query, self.udp_limit(query))
            };
            if let Some(bytes) = hit {
                let _encode_span = tel::span(stages().encode, u64::from(query.id));
                return (TemplateTable::patch(bytes, query), false);
            }
        }
        let resp = self.answer(src, query);
        let limit = self.udp_limit(query);
        let _encode_span = tel::span(stages().encode, u64::from(query.id));
        resp.encode_udp(limit)
    }

    /// Answer and serialize for a stream transport (no size limit).
    pub fn answer_stream(&self, src: IpAddr, query: &Message) -> Vec<u8> {
        let resp = self.answer(src, query);
        let _encode_span = tel::span(stages().encode, u64::from(query.id));
        resp.encode()
    }

    /// Handle raw UDP bytes: parse, answer, serialize. Unparseable
    /// queries yield `None` (drop — real servers cannot reply without a
    /// readable header).
    pub fn handle_udp_bytes(&self, src: IpAddr, data: &[u8]) -> Option<Vec<u8>> {
        let parsed = {
            let _parse_span = tel::span(stages().parse, parse_span_key(data));
            Message::decode(data)
        };
        match parsed {
            Ok(query) => Some(self.answer_udp(src, &query).0),
            Err(_) => {
                // If at least the header parsed, send FORMERR.
                let id = peek_id(data)?;
                let mut resp = Message::query(id, dns_wire::Name::root(), dns_wire::RecordType::A);
                resp.questions.clear();
                resp.flags.response = true;
                resp.rcode = Rcode::FormErr;
                Some(resp.encode())
            }
        }
    }

    /// Handle one raw stream-framed message body (without the 2-byte
    /// prefix), returning the response body.
    pub fn handle_stream_bytes(&self, src: IpAddr, data: &[u8]) -> Option<Vec<u8>> {
        let query = {
            let _parse_span = tel::span(stages().parse, parse_span_key(data));
            Message::decode(data).ok()?
        };
        Some(self.answer_stream(src, &query))
    }
}

/// The parse span's key: the message id straight from the wire header
/// (0 if the packet is too short to carry one). Read before decoding so
/// the parse span shares the lifecycle key the lookup/encode spans use —
/// that is what lets `ldp_telemetry::stage_breakdown` pair the three
/// stages per query.
fn parse_span_key(data: &[u8]) -> u64 {
    peek_id(data).map_or(0, u64::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Name, RData, Record, RecordType, Soa};
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

        // Stream transport never truncates.
        let body = engine.answer_stream(ip("1.1.1.1"), &q);
        assert!(!Message::decode(&body).unwrap().flags.truncated);
    }

    #[test]
    fn handle_udp_bytes_formerr_on_garbage_with_header() {
        let engine = hierarchy_engine();
        let mut garbage = vec![0u8; 20];
        garbage[0] = 0xab;
        garbage[1] = 0xcd;
        garbage[4] = 0xff; // QDCOUNT huge → decode fails
        let resp = engine.handle_udp_bytes(ip("198.41.0.4"), &garbage).unwrap();
        let msg = Message::decode(&resp).unwrap();
        assert_eq!(msg.id, 0xabcd);
        assert_eq!(msg.rcode, Rcode::FormErr);
    }

    #[test]
    fn handle_udp_bytes_drops_short_garbage() {
        let engine = hierarchy_engine();
        assert!(engine
            .handle_udp_bytes(ip("198.41.0.4"), &[1, 2, 3])
            .is_none());
    }

    #[test]
    fn template_answers_byte_identical_to_general_path() {
        // The acceptance property: for every query shape a template can
        // serve, the precompiled bytes must equal the general
        // lookup+encode path exactly — including misses, which must
        // fall back and therefore trivially agree.
        let general = hierarchy_engine();
        let templated = hierarchy_engine().with_templates();
        assert!(templated.templates().is_some_and(|t| !t.is_empty()));
        let sources = ["198.41.0.4", "192.5.6.30", "216.239.32.10", "8.8.8.8"];
        let qnames = [
            "www.google.com",
            "google.com",
            "com",
            "ns1.google.com",
            "a.gtld-servers.net",
            "nonexistent.google.com",
            ".",
        ];
        let qtypes = [
            RecordType::A,
            RecordType::NS,
            RecordType::SOA,
            RecordType::TXT,
        ];
        for src in sources {
            for qn in qnames {
                for qt in qtypes {
                    for (edns, do_bit, rd) in [
                        (false, false, true),
                        (true, false, false),
                        (true, true, true),
                    ] {
                        let mut q = Message::query(0x4242, n(qn), qt);
                        q.flags.recursion_desired = rd;
                        if edns {
                            q.edns = Some(dns_wire::Edns {
                                dnssec_ok: do_bit,
                                ..Default::default()
                            });
                        }
                        assert_eq!(
                            templated.answer_udp(ip(src), &q),
                            general.answer_udp(ip(src), &q),
                            "src={src} qn={qn} qt={qt:?} edns={edns} do={do_bit} rd={rd}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn template_fallback_conditions() {
        let engine = hierarchy_engine().with_templates();
        let t = engine.templates().unwrap();
        let view = engine.views().select_index(ip("216.239.32.10"));
        let q = Message::query(7, n("www.google.com"), RecordType::A);
        assert!(t.find(view, &q, 4096).is_some(), "known name must hit");
        // Unknown name: general path answers NXDOMAIN.
        let missing = Message::query(7, n("zzz.google.com"), RecordType::A);
        assert!(t.find(view, &missing, 4096).is_none());
        // Limit below the template: truncation belongs to the general path.
        assert!(t.find(view, &q, 20).is_none());
        // Non-IN class, non-Query opcode, BADVERS, no view: all general.
        let mut chaos = q.clone();
        chaos.questions[0].qclass = dns_wire::RecordClass::CH;
        assert!(t.find(view, &chaos, 4096).is_none());
        let mut upd = q.clone();
        upd.opcode = Opcode::Update;
        assert!(t.find(view, &upd, 4096).is_none());
        let mut badvers = q.clone();
        badvers.edns = Some(dns_wire::Edns {
            version: 1,
            ..Default::default()
        });
        assert!(t.find(view, &badvers, 4096).is_none());
        assert!(t.find(None, &q, 4096).is_none());
    }

    #[test]
    fn template_truncation_falls_back_to_general_path() {
        // Oversized answers must leave the template path and come back
        // truncated with TC, byte-identical to a template-less engine.
        let mut recs = vec![Record::new(n("example"), 60, RData::Ns(n("ns1.example")))];
        for i in 0..40 {
            recs.push(Record::new(
                n("big.example"),
                60,
                RData::Txt(vec![format!("padding padding padding {i}").into_bytes()]),
            ));
        }
        let mk = |recs: Vec<Record>| {
            let mut cat = Catalog::new();
            cat.insert(zone("example", recs));
            ServerEngine::with_catalog(cat)
        };
        let general = mk(recs.clone());
        let templated = mk(recs).with_templates();
        let q = Message::query(9, n("big.example"), RecordType::TXT);
        let (bytes_t, tc_t) = templated.answer_udp(ip("1.1.1.1"), &q);
        let (bytes_g, tc_g) = general.answer_udp(ip("1.1.1.1"), &q);
        assert!(tc_t && tc_g);
        assert!(bytes_t.len() <= 512);
        assert_eq!(bytes_t, bytes_g);
        assert!(Message::decode(&bytes_t).unwrap().flags.truncated);
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
}
