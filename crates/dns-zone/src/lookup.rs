//! Authoritative query answering over a [`Zone`] (RFC 1034 §4.3.2).
//!
//! This is where hierarchy emulation gets its correctness: a query at or
//! below a delegation point yields a *referral* (NS in authority + glue),
//! never a final answer — the round trip the paper's meta-DNS-server must
//! preserve so a recursive resolver walks root → TLD → SLD exactly as it
//! would against independent servers (paper §2.4).

// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use dns_wire::{Message, Name, Question, RData, Rcode, Record, RecordType};

use crate::rrset::RRset;
use crate::zone::{Node, Walk, Zone};

/// The semantic category of an authoritative answer, before rendering
/// into a message. Exposed so tests and the resolver can assert on
/// answer *kinds*, not just message bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerKind {
    /// Authoritative data for the query.
    Answer,
    /// Delegation to a child zone.
    Referral {
        /// The zone-cut name.
        cut: Name,
    },
    /// Name exists, no data of the queried type.
    NoData,
    /// Name does not exist.
    NxDomain,
    /// Answer involved CNAME chasing (terminating in-zone or leaving it).
    CnameChain,
}

/// A rendered authoritative answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// What kind of response this is.
    pub kind: AnswerKind,
    /// Response code.
    pub rcode: Rcode,
    /// Whether AA should be set.
    pub authoritative: bool,
    /// Answer-section records.
    pub answers: Vec<Record>,
    /// Authority-section records.
    pub authorities: Vec<Record>,
    /// Additional-section records (glue).
    pub additionals: Vec<Record>,
}

impl Default for Answer {
    /// An empty answer for [`lookup_into`] to fill.
    fn default() -> Self {
        Answer {
            kind: AnswerKind::Answer,
            rcode: Rcode::NoError,
            authoritative: false,
            answers: vec![],
            authorities: vec![],
            additionals: vec![],
        }
    }
}

impl Answer {
    /// Render as the response to `query` over `resp`, whatever it held,
    /// including DNSSEC records only when the query set the DO bit.
    /// The sections change hands by swap, so this answer is left
    /// holding `resp`'s old storage for the next [`lookup_into`] and
    /// neither side allocates once both are warm.
    pub fn render_into(&mut self, query: &Message, resp: &mut Message) {
        query.response_into(resp);
        resp.rcode = self.rcode;
        resp.flags.authoritative = self.authoritative;
        std::mem::swap(&mut resp.answers, &mut self.answers);
        std::mem::swap(&mut resp.authorities, &mut self.authorities);
        std::mem::swap(&mut resp.additionals, &mut self.additionals);
        if !query.dnssec_ok() {
            for section in [
                &mut resp.answers,
                &mut resp.authorities,
                &mut resp.additionals,
            ] {
                section.retain(|r| !r.rtype().is_dnssec());
            }
        }
    }

    fn head(&mut self, kind: AnswerKind, rcode: Rcode, authoritative: bool) {
        self.kind = kind;
        self.rcode = rcode;
        self.authoritative = authoritative;
    }
}

/// Maximum in-zone CNAME chain hops (loop protection).
const MAX_CNAME_HOPS: usize = 8;

/// Answer `question` from `zone` authoritatively.
///
/// `zone` must be the closest enclosing zone for the qname (the
/// [`crate::catalog::Catalog`] picks it); qnames outside the zone yield
/// REFUSED.
pub fn lookup(zone: &Zone, question: &Question) -> Answer {
    let mut answer = Answer::default();
    lookup_into(zone, question, &mut answer);
    answer
}

/// [`lookup`] written over `out`, whatever it held: every field is set
/// and the three sections are refilled in place, so an `Answer` that is
/// looked up into again and again stops allocating for them.
pub fn lookup_into(zone: &Zone, question: &Question, out: &mut Answer) {
    lookup_walk_into(zone, zone.walk(&question.name), question, out);
}

/// [`lookup_into`] from `walk`, what [`Zone::walk`] returned for the
/// question's name: a caller that has walked already (the server, to
/// pick a precompiled tail) does not walk again.
pub fn lookup_walk_into(
    zone: &Zone,
    walk: Option<Walk<'_>>,
    question: &Question,
    out: &mut Answer,
) {
    out.answers.clear();
    out.authorities.clear();
    out.additionals.clear();
    // One walk per name asked about: it finds a cut that shadows the
    // name, the name's node, or where the match stops.
    let mut walk = match walk {
        None => return out.head(AnswerKind::NxDomain, Rcode::Refused, false),
        Some(Walk::Cut { cut, node, ns }) => {
            referral(zone, node, ns, &mut out.authorities, &mut out.additionals);
            let cut = cut.clone();
            return out.head(AnswerKind::Referral { cut }, Rcode::NoError, false);
        }
        Some(walk) => walk,
    };

    let mut current = question.name.clone();
    let mut chased = false;

    for _ in 0..MAX_CNAME_HOPS {
        let answers = &mut out.answers;
        match answer_at_name(zone, walk, &current, question, answers) {
            NodeResult::Found => {
                glue_for(zone, &out.answers, &mut out.additionals);
                let kind = if chased {
                    AnswerKind::CnameChain
                } else {
                    AnswerKind::Answer
                };
                return out.head(kind, Rcode::NoError, true);
            }
            NodeResult::Cname(target) => {
                chased = true;
                match zone.walk(&target) {
                    // Chain leaves our authority: return what we have.
                    None | Some(Walk::Cut { .. }) => break,
                    Some(next) => walk = next,
                }
                current = target;
            }
            NodeResult::NoData => {
                negative(zone, &current, &mut out.authorities);
                return out.head(AnswerKind::NoData, Rcode::NoError, true);
            }
            NodeResult::NxDomain => {
                // RFC 2308: NXDOMAIN for the final name in a CNAME chain
                // still reports NXDOMAIN alongside the partial answers.
                negative(zone, &current, &mut out.authorities);
                return out.head(AnswerKind::NxDomain, Rcode::NxDomain, true);
            }
        }
    }
    // Left the zone, or a CNAME loop: serve what was accumulated.
    out.head(AnswerKind::CnameChain, Rcode::NoError, true)
}

enum NodeResult {
    /// Records appended; done.
    Found,
    /// Followed a CNAME to this target.
    Cname(Name),
    NoData,
    NxDomain,
}

/// Try to answer `question`'s type at `name`, where `walk` ended,
/// appending to `answers`. The question's name is the owner of records
/// synthesized from a wildcard on the first hop.
fn answer_at_name(
    zone: &Zone,
    walk: Walk<'_>,
    name: &Name,
    question: &Question,
    answers: &mut Vec<Record>,
) -> NodeResult {
    let (qtype, original_qname) = (question.qtype, &question.name);
    let encloser = match walk {
        Walk::Node(node) => return answer_at_node(node, qtype, name, answers),
        Walk::Missing { encloser } => encloser,
        // An empty non-terminal: the name "exists" but holds no data
        // (a cut never gets here: it is a referral or ends the chain).
        Walk::Empty | Walk::Cut { .. } => return NodeResult::NoData,
    };
    // Wildcard: *.closest-encloser, with the original qname as owner.
    if let Some(node) = name
        .ancestor(encloser)
        .and_then(|encloser| zone.wildcard_below(&encloser))
    {
        // Only the first hop synthesizes at the original qname;
        // chained hops synthesize at the chased name.
        let owner = if name == original_qname {
            original_qname
        } else {
            name
        };
        return answer_at_node(node, qtype, owner, answers);
    }
    NodeResult::NxDomain
}

fn answer_at_node(
    node: &Node,
    qtype: RecordType,
    owner: &Name,
    answers: &mut Vec<Record>,
) -> NodeResult {
    if qtype == RecordType::ANY {
        let mut any = false;
        for set in node.iter() {
            if set.rtype == RecordType::RRSIG {
                continue; // covered below per-set
            }
            answers.extend(set.records_as(owner));
            any = true;
        }
        if let Some(sigs) = node.get(RecordType::RRSIG) {
            answers.extend(sigs.records_as(owner));
        }
        return if any {
            NodeResult::Found
        } else {
            NodeResult::NoData
        };
    }
    if let Some(set) = node.get(qtype) {
        answers.extend(set.records_as(owner));
        append_covering_rrsig(node, qtype, owner, answers);
        return NodeResult::Found;
    }
    if qtype != RecordType::CNAME {
        if let Some(cname) = node.get(RecordType::CNAME) {
            answers.extend(cname.records_as(owner));
            append_covering_rrsig(node, RecordType::CNAME, owner, answers);
            if let Some(RData::Cname(target)) = cname.rdatas.first() {
                return NodeResult::Cname(target.clone());
            }
        }
    }
    NodeResult::NoData
}

/// Attach the RRSIG covering `covered` at this node, if present.
fn append_covering_rrsig(
    node: &Node,
    covered: RecordType,
    owner: &Name,
    answers: &mut Vec<Record>,
) {
    if let Some(sigs) = node.get(RecordType::RRSIG) {
        // Chosen before they are copied: a signature is the one RDATA
        // whose clone allocates.
        answers.extend(
            sigs.rdatas
                .iter()
                .filter(|rd| matches!(rd, RData::Rrsig(s) if s.type_covered == covered))
                .map(|rd| Record::new(owner.clone(), sigs.ttl, rd.clone())),
        );
    }
}

/// The sections of a referral to the cut at `node`: its NS RRset, then
/// DS and RRSIG when present (DS proves a signed delegation), and the
/// glue for in-zone NS targets.
pub(crate) fn referral(
    zone: &Zone,
    node: &Node,
    ns: &RRset,
    authorities: &mut Vec<Record>,
    additionals: &mut Vec<Record>,
) {
    authorities.extend(ns.records());
    for ty in [RecordType::DS, RecordType::RRSIG] {
        if let Some(set) = node.get(ty) {
            authorities.extend(set.records());
        }
    }
    glue_for(zone, authorities, additionals);
}

/// The authority section of a negative (NoData/NXDOMAIN) answer about
/// `qname`: SOA, plus NSEC when present.
pub(crate) fn negative(zone: &Zone, qname: &Name, authorities: &mut Vec<Record>) {
    // The SOA, its TTL and its signature all come from one apex probe.
    if let Some(apex) = zone.node(zone.origin()) {
        if let Some(soa) = apex.get(RecordType::SOA) {
            // Negative TTL is min(SOA TTL, SOA.minimum) per RFC 2308.
            let neg_ttl = match soa.rdatas.first() {
                Some(RData::Soa(fields)) => fields.minimum.min(soa.ttl),
                _ => soa.ttl,
            };
            authorities.extend(soa.records().map(|rec| Record {
                ttl: neg_ttl,
                ..rec
            }));
            append_covering_rrsig(apex, RecordType::SOA, zone.origin(), authorities);
        }
    }
    // NSEC denial of existence (skipped outright by an unsigned zone).
    if let Some((owner, node)) = zone.covering_nsec(qname) {
        if let Some(nsec) = node.get(RecordType::NSEC) {
            authorities.extend(nsec.records());
            append_covering_rrsig(node, RecordType::NSEC, owner, authorities);
        }
    }
}

/// The name an NS, MX or SRV record points at.
fn glue_target(rec: &Record) -> Option<&Name> {
    match &rec.rdata {
        RData::Ns(t) => Some(t),
        RData::Mx { exchange, .. } => Some(exchange),
        RData::Srv { target, .. } => Some(target),
        _ => None,
    }
}

/// Glue: A/AAAA records for every NS/MX/SRV target that lives in-zone,
/// appended to `glue`.
fn glue_for(zone: &Zone, records: &[Record], glue: &mut Vec<Record>) {
    for (i, rec) in records.iter().enumerate() {
        let Some(target) = glue_target(rec) else {
            continue;
        };
        // A target named twice contributes its addresses once: the
        // records before this one are the list of targets seen.
        let mut earlier = records.iter().take(i);
        if earlier.any(|r| glue_target(r) == Some(target)) {
            continue;
        }
        if let Some(node) = zone.node(target) {
            for ty in [RecordType::A, RecordType::AAAA] {
                if let Some(set) = node.get(ty) {
                    glue.extend(set.records());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::Soa;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn rec(name: &str, rd: RData) -> Record {
        Record::new(n(name), 3600, rd)
    }

    fn q(name: &str, t: RecordType) -> Question {
        Question::new(n(name), t)
    }

    fn test_zone() -> Zone {
        let mut z = Zone::new(n("example.com"));
        z.insert(rec(
            "example.com",
            RData::Soa(Soa {
                mname: n("ns1.example.com"),
                rname: n("admin.example.com"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ))
        .unwrap();
        z.insert(rec("example.com", RData::Ns(n("ns1.example.com"))))
            .unwrap();
        z.insert(rec(
            "ns1.example.com",
            RData::A("10.0.0.53".parse().unwrap()),
        ))
        .unwrap();
        z.insert(rec(
            "www.example.com",
            RData::A("10.0.0.1".parse().unwrap()),
        ))
        .unwrap();
        z.insert(rec(
            "www.example.com",
            RData::Aaaa("2001:db8::1".parse().unwrap()),
        ))
        .unwrap();
        z.insert(rec("alias.example.com", RData::Cname(n("www.example.com"))))
            .unwrap();
        z.insert(rec(
            "extalias.example.com",
            RData::Cname(n("cdn.example.net")),
        ))
        .unwrap();
        z.insert(rec(
            "chain1.example.com",
            RData::Cname(n("chain2.example.com")),
        ))
        .unwrap();
        z.insert(rec(
            "chain2.example.com",
            RData::Cname(n("www.example.com")),
        ))
        .unwrap();
        z.insert(rec(
            "loop1.example.com",
            RData::Cname(n("loop2.example.com")),
        ))
        .unwrap();
        z.insert(rec(
            "loop2.example.com",
            RData::Cname(n("loop1.example.com")),
        ))
        .unwrap();
        z.insert(rec(
            "*.wild.example.com",
            RData::A("10.9.9.9".parse().unwrap()),
        ))
        .unwrap();
        z.insert(rec("sub.example.com", RData::Ns(n("ns.sub.example.com"))))
            .unwrap();
        z.insert(rec(
            "ns.sub.example.com",
            RData::A("10.0.1.53".parse().unwrap()),
        ))
        .unwrap();
        z.insert(rec(
            "deep.under.example.com",
            RData::A("10.0.0.7".parse().unwrap()),
        ))
        .unwrap();
        z
    }

    #[test]
    fn positive_answer() {
        let z = test_zone();
        let a = lookup(&z, &q("www.example.com", RecordType::A));
        assert_eq!(a.kind, AnswerKind::Answer);
        assert_eq!(a.rcode, Rcode::NoError);
        assert!(a.authoritative);
        assert_eq!(a.answers.len(), 1);
        assert_eq!(a.answers[0].rdata, RData::A("10.0.0.1".parse().unwrap()));
    }

    #[test]
    fn nodata_for_missing_type() {
        let z = test_zone();
        let a = lookup(&z, &q("www.example.com", RecordType::MX));
        assert_eq!(a.kind, AnswerKind::NoData);
        assert_eq!(a.rcode, Rcode::NoError);
        assert!(a.answers.is_empty());
        // SOA in authority with negative TTL = SOA.minimum (300 < 3600).
        assert_eq!(a.authorities[0].rtype(), RecordType::SOA);
        assert_eq!(a.authorities[0].ttl, 300);
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let z = test_zone();
        let a = lookup(&z, &q("missing.example.com", RecordType::A));
        assert_eq!(a.kind, AnswerKind::NxDomain);
        assert_eq!(a.rcode, Rcode::NxDomain);
        assert_eq!(a.authorities[0].rtype(), RecordType::SOA);
    }

    #[test]
    fn referral_below_cut() {
        let z = test_zone();
        let a = lookup(&z, &q("host.sub.example.com", RecordType::A));
        assert_eq!(
            a.kind,
            AnswerKind::Referral {
                cut: n("sub.example.com")
            }
        );
        assert_eq!(a.rcode, Rcode::NoError);
        assert!(!a.authoritative, "referrals are not authoritative");
        assert!(a.answers.is_empty());
        assert_eq!(a.authorities[0].rtype(), RecordType::NS);
        // Glue for in-zone NS target.
        assert_eq!(a.additionals.len(), 1);
        assert_eq!(a.additionals[0].name, n("ns.sub.example.com"));
    }

    #[test]
    fn referral_at_cut_itself() {
        let z = test_zone();
        let a = lookup(&z, &q("sub.example.com", RecordType::A));
        assert!(matches!(a.kind, AnswerKind::Referral { .. }));
    }

    #[test]
    fn cname_followed_in_zone() {
        let z = test_zone();
        let a = lookup(&z, &q("alias.example.com", RecordType::A));
        assert_eq!(a.kind, AnswerKind::CnameChain);
        assert_eq!(a.answers.len(), 2);
        assert_eq!(a.answers[0].rtype(), RecordType::CNAME);
        assert_eq!(a.answers[1].rtype(), RecordType::A);
        assert_eq!(a.answers[1].name, n("www.example.com"));
    }

    #[test]
    fn cname_chain_two_hops() {
        let z = test_zone();
        let a = lookup(&z, &q("chain1.example.com", RecordType::A));
        assert_eq!(a.answers.len(), 3);
        assert_eq!(a.answers[2].rtype(), RecordType::A);
    }

    #[test]
    fn cname_out_of_zone_stops() {
        let z = test_zone();
        let a = lookup(&z, &q("extalias.example.com", RecordType::A));
        assert_eq!(a.kind, AnswerKind::CnameChain);
        assert_eq!(a.answers.len(), 1);
        assert_eq!(a.answers[0].rtype(), RecordType::CNAME);
        assert_eq!(a.rcode, Rcode::NoError);
    }

    #[test]
    fn cname_loop_terminates() {
        let z = test_zone();
        let a = lookup(&z, &q("loop1.example.com", RecordType::A));
        assert_eq!(a.kind, AnswerKind::CnameChain);
        // Loop protection: bounded answer count.
        assert!(a.answers.len() <= 2 * MAX_CNAME_HOPS);
    }

    #[test]
    fn cname_query_returns_cname_itself() {
        let z = test_zone();
        let a = lookup(&z, &q("alias.example.com", RecordType::CNAME));
        assert_eq!(a.kind, AnswerKind::Answer);
        assert_eq!(a.answers.len(), 1);
        assert_eq!(a.answers[0].rtype(), RecordType::CNAME);
    }

    #[test]
    fn wildcard_synthesis() {
        let z = test_zone();
        let a = lookup(&z, &q("anything.wild.example.com", RecordType::A));
        assert_eq!(a.kind, AnswerKind::Answer);
        assert_eq!(a.answers.len(), 1);
        // Owner is the query name, not the wildcard.
        assert_eq!(a.answers[0].name, n("anything.wild.example.com"));
        assert_eq!(a.answers[0].rdata, RData::A("10.9.9.9".parse().unwrap()));
    }

    #[test]
    fn wildcard_does_not_match_other_branches() {
        let z = test_zone();
        // missing.example.com has closest encloser example.com which has
        // no *.example.com wildcard.
        let a = lookup(&z, &q("missing.example.com", RecordType::A));
        assert_eq!(a.kind, AnswerKind::NxDomain);
    }

    #[test]
    fn wildcard_nodata_for_missing_type() {
        let z = test_zone();
        let a = lookup(&z, &q("x.wild.example.com", RecordType::MX));
        assert_eq!(a.kind, AnswerKind::NoData);
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let z = test_zone();
        // under.example.com exists only as part of deep.under.example.com.
        let a = lookup(&z, &q("under.example.com", RecordType::A));
        assert_eq!(
            a.kind,
            AnswerKind::NoData,
            "ENT must be NODATA, not NXDOMAIN"
        );
        assert_eq!(a.rcode, Rcode::NoError);
    }

    #[test]
    fn any_query_returns_all_types() {
        let z = test_zone();
        let a = lookup(&z, &q("www.example.com", RecordType::ANY));
        assert_eq!(a.kind, AnswerKind::Answer);
        assert_eq!(a.answers.len(), 2); // A + AAAA
    }

    #[test]
    fn out_of_zone_refused() {
        let z = test_zone();
        let a = lookup(&z, &q("www.example.org", RecordType::A));
        assert_eq!(a.rcode, Rcode::Refused);
        assert!(!a.authoritative);
    }

    #[test]
    fn apex_soa_query() {
        let z = test_zone();
        let a = lookup(&z, &q("example.com", RecordType::SOA));
        assert_eq!(a.kind, AnswerKind::Answer);
        assert_eq!(a.answers[0].rtype(), RecordType::SOA);
    }

    /// `lookup` as it was when every question about the zone was a
    /// scan: the same control flow over `zone::reference`'s linear
    /// primitives and the `names().filter(..).last()` NSEC search.
    mod reference {
        use super::super::*;
        use crate::zone::reference as linear;

        pub fn lookup(zone: &Zone, question: &Question) -> Answer {
            let plain = |kind, rcode, authoritative, answers, authorities, additionals| Answer {
                kind,
                rcode,
                authoritative,
                answers,
                authorities,
                additionals,
            };
            if !question.name.is_subdomain_of(zone.origin()) {
                let kind = AnswerKind::NxDomain;
                return plain(kind, Rcode::Refused, false, vec![], vec![], vec![]);
            }
            if let Some((cut, ns)) = linear::find_zone_cut(zone, &question.name) {
                let cut = cut.clone();
                let mut authorities = ns.to_records();
                if let Some(node) = zone.node(&cut) {
                    if let Some(ds) = node.get(RecordType::DS) {
                        authorities.extend(ds.to_records());
                    }
                    if let Some(sig) = node.get(RecordType::RRSIG) {
                        authorities.extend(sig.to_records());
                    }
                }
                let additionals = glue_for(zone, &authorities);
                let kind = AnswerKind::Referral { cut };
                return plain(
                    kind,
                    Rcode::NoError,
                    false,
                    vec![],
                    authorities,
                    additionals,
                );
            }
            let mut answers: Vec<Record> = Vec::new();
            let mut current = question.name.clone();
            let mut chased = false;
            for _ in 0..MAX_CNAME_HOPS {
                match answer_at_name(zone, &current, question.qtype, &question.name, &mut answers) {
                    NodeResult::Found => {
                        let additionals = glue_for(zone, &answers);
                        let kind = if chased {
                            AnswerKind::CnameChain
                        } else {
                            AnswerKind::Answer
                        };
                        return plain(kind, Rcode::NoError, true, answers, vec![], additionals);
                    }
                    NodeResult::Cname(target) => {
                        chased = true;
                        if !target.is_subdomain_of(zone.origin())
                            || linear::find_zone_cut(zone, &target).is_some()
                        {
                            let kind = AnswerKind::CnameChain;
                            return plain(kind, Rcode::NoError, true, answers, vec![], vec![]);
                        }
                        current = target;
                    }
                    NodeResult::NoData => {
                        return negative(
                            zone,
                            AnswerKind::NoData,
                            Rcode::NoError,
                            answers,
                            &current,
                        );
                    }
                    NodeResult::NxDomain => {
                        let kind = AnswerKind::NxDomain;
                        return negative(zone, kind, Rcode::NxDomain, answers, &current);
                    }
                }
            }
            plain(
                AnswerKind::CnameChain,
                Rcode::NoError,
                true,
                answers,
                vec![],
                vec![],
            )
        }

        /// Glue deduplicated record against record, every target
        /// visited as often as it is named.
        fn glue_for(zone: &Zone, records: &[Record]) -> Vec<Record> {
            let mut glue = Vec::new();
            for rec in records {
                let target = match &rec.rdata {
                    RData::Ns(t) => t,
                    RData::Mx { exchange, .. } => exchange,
                    RData::Srv { target, .. } => target,
                    _ => continue,
                };
                let Some(node) = zone.node(target) else {
                    continue;
                };
                for set in [RecordType::A, RecordType::AAAA]
                    .into_iter()
                    .filter_map(|ty| node.get(ty))
                {
                    for g in set.to_records() {
                        if !glue.contains(&g) {
                            glue.push(g);
                        }
                    }
                }
            }
            glue
        }

        fn answer_at_name(
            zone: &Zone,
            name: &Name,
            qtype: RecordType,
            original_qname: &Name,
            answers: &mut Vec<Record>,
        ) -> NodeResult {
            if let Some(node) = zone.node(name) {
                return answer_at_node(node, qtype, name, answers);
            }
            if linear::has_names_below(zone, name) {
                return NodeResult::NoData;
            }
            if let Some(encloser) = linear::closest_encloser(zone, name) {
                if let Ok(wild) = encloser.child(b"*") {
                    if let Some(node) = zone.node(&wild) {
                        let owner = if name == original_qname {
                            original_qname
                        } else {
                            name
                        };
                        return answer_at_node(node, qtype, owner, answers);
                    }
                }
            }
            NodeResult::NxDomain
        }

        fn negative(
            zone: &Zone,
            kind: AnswerKind,
            rcode: Rcode,
            answers: Vec<Record>,
            qname: &Name,
        ) -> Answer {
            let covered_by = |sigs: &crate::RRset, covered: RecordType| {
                sigs.to_records().into_iter().filter(
                    move |rec| matches!(&rec.rdata, RData::Rrsig(s) if s.type_covered == covered),
                )
            };
            let mut authorities = Vec::new();
            if let Some(soa) = zone.soa_rrset() {
                let neg_ttl = zone
                    .soa()
                    .map(|s| s.minimum.min(soa.ttl))
                    .unwrap_or(soa.ttl);
                for mut rec in soa.to_records() {
                    rec.ttl = neg_ttl;
                    authorities.push(rec);
                }
                if let Some(sigs) = zone
                    .node(zone.origin())
                    .and_then(|apex| apex.get(RecordType::RRSIG))
                {
                    authorities.extend(covered_by(sigs, RecordType::SOA));
                }
            }
            if let Some((_, node)) = linear::covering_nsec(zone, qname) {
                if let Some(nsec) = node.get(RecordType::NSEC) {
                    authorities.extend(nsec.to_records());
                    if let Some(sigs) = node.get(RecordType::RRSIG) {
                        authorities.extend(covered_by(sigs, RecordType::NSEC));
                    }
                }
            }
            Answer {
                kind,
                rcode,
                authoritative: true,
                answers,
                authorities,
                additionals: vec![],
            }
        }
    }

    use ldp_rng::check::Gen;

    const ORIGINS: [&str; 3] = [".", "z", "y.z"];
    /// A small alphabet, so generated names collide, nest and wildcard.
    const LABELS: [&str; 5] = ["a", "b", "c", "d", "*"];

    /// `depth` generated labels in front of `base`.
    fn gen_name_under(g: &mut Gen, base: &Name, depth: usize) -> Name {
        (0..depth).fold(base.clone(), |name, _| {
            name.child(g.pick(&LABELS).as_bytes()).unwrap()
        })
    }

    fn gen_zone(g: &mut Gen) -> Zone {
        let origin = n(g.pick::<&str>(&ORIGINS));
        let mut zone = Zone::new(origin.clone());
        // Inserts that break CNAME exclusivity are refused; the zone
        // simply goes without that record.
        let mut add = |name: &Name, rd: RData| {
            let _ = zone.insert(Record::new(name.clone(), 3600, rd));
        };
        if g.below(8) != 0 {
            add(
                &origin,
                RData::Soa(Soa {
                    mname: n("ns.z"),
                    rname: n("admin.z"),
                    serial: 1,
                    refresh: 1,
                    retry: 1,
                    expire: 1,
                    minimum: g.range(0..=7200) as u32,
                }),
            );
        }
        if g.bool() {
            add(&origin, RData::Ns(origin.child(b"a").unwrap()));
        }
        let owners = g.vec(0..=10, |g| {
            let depth = g.size(1..=3);
            gen_name_under(g, &origin, depth)
        });
        for owner in &owners {
            match g.below(8) {
                // A delegation, with glue below the cut, without, or
                // with an out-of-zone nameserver.
                0 | 1 => {
                    let target = match g.below(3) {
                        0 => n("ns.elsewhere"),
                        glued => {
                            let target = owner.child(b"ns").unwrap();
                            if glued == 1 {
                                add(&target, RData::A("10.0.0.53".parse().unwrap()));
                            }
                            target
                        }
                    };
                    add(owner, RData::Ns(target));
                }
                2 => {
                    let target = match g.bool() {
                        true => g.pick(&owners).clone(),
                        false => n("cdn.elsewhere"),
                    };
                    add(owner, RData::Cname(target));
                }
                // One exchange, named by one MX or by two.
                3 => {
                    let exchange = g.pick(&owners).clone();
                    for preference in [10, 20].into_iter().take(g.size(1..=2)) {
                        let exchange = exchange.clone();
                        add(
                            owner,
                            RData::Mx {
                                preference,
                                exchange,
                            },
                        );
                    }
                }
                _ => add(owner, RData::A("10.0.0.1".parse().unwrap())),
            }
        }
        // NSEC on no name, on every name, or on a sparse subset.
        let nsec_one_in = *g.pick(&[0, 1, 3]);
        let names: Vec<Name> = zone.names().cloned().collect();
        for name in &names {
            if nsec_one_in != 0 && g.below(nsec_one_in) == 0 {
                let _ = zone.insert(Record::new(
                    name.clone(),
                    60,
                    RData::Nsec {
                        next: origin.clone(),
                        types: vec![RecordType::A, RecordType::NSEC],
                    },
                ));
            }
        }
        zone
    }

    /// Names that hit every branch: present, below and at a cut, empty
    /// non-terminals, missing names before the first and after the last
    /// zone name, out of zone.
    fn gen_qname(g: &mut Gen, zone: &Zone) -> Name {
        let names: Vec<&Name> = zone.names().collect();
        let some_name = |g: &mut Gen| match names.is_empty() {
            true => zone.origin().clone(),
            false => (*g.pick(&names)).clone(),
        };
        match g.below(6) {
            0 => some_name(g),
            1 => {
                let parent = some_name(g);
                gen_name_under(g, &parent, 1)
            }
            2 => some_name(g).parent().unwrap_or_else(Name::root),
            3 => {
                let depth = g.size(1..=4);
                gen_name_under(g, zone.origin(), depth)
            }
            4 => {
                let edge: &[u8] = if g.bool() { b"0" } else { b"zz" };
                let base = if g.bool() {
                    zone.origin().clone()
                } else {
                    some_name(g)
                };
                base.child(edge).unwrap()
            }
            _ => n(g.pick::<&str>(&["q.other", "z", "."])),
        }
    }

    /// Where `Zone::walk` must end, from the linear primitives: the
    /// highest cut, else the node, an empty non-terminal or the closest
    /// encloser (the apex when nothing exists at or below it).
    fn linear_walk<'z>(zone: &'z Zone, name: &Name) -> Option<Walk<'z>> {
        use crate::zone::reference as linear;
        if !name.is_subdomain_of(zone.origin()) {
            return None;
        }
        if let Some((cut, ns)) = linear::find_zone_cut(zone, name) {
            let node = zone.node(cut).unwrap();
            return Some(Walk::Cut { cut, node, ns });
        }
        Some(match zone.node(name) {
            Some(node) => Walk::Node(node),
            None if linear::has_names_below(zone, name) => Walk::Empty,
            None => Walk::Missing {
                encloser: linear::closest_encloser(zone, name)
                    .map_or(zone.origin().label_count(), |e| e.label_count()),
            },
        })
    }

    /// Generated zones × generated names: the probing primitives and the
    /// `lookup` built on them agree with the linear reference, field by
    /// field. `lookup` and `reference::lookup` take different roads —
    /// one walk per name against a cut search, a node probe, an
    /// empty-non-terminal probe and an encloser search — to the same
    /// answer.
    #[test]
    fn lookup_matches_the_linear_reference_on_generated_zones() {
        use crate::zone::reference as linear;
        ldp_rng::check::check(256, |g| {
            let zone = gen_zone(g);
            for _ in 0..g.size(1..=12) {
                let name = gen_qname(g, &zone);
                assert_eq!(zone.walk(&name), linear_walk(&zone, &name), "walk({name})");
                assert_eq!(
                    zone.covering_nsec(&name),
                    linear::covering_nsec(&zone, &name),
                    "covering_nsec({name})"
                );
                assert_eq!(
                    zone.wildcard_below(&name),
                    linear::wildcard_below(&zone, &name),
                    "wildcard_below({name})"
                );
                let qtype = *g.pick(&[
                    RecordType::A,
                    RecordType::NS,
                    RecordType::CNAME,
                    RecordType::MX,
                    RecordType::NSEC,
                    RecordType::ANY,
                ]);
                same_answer(&zone, &Question::new(name, qtype));
            }
            // Every RRset that names glue targets, asked for outright.
            for name in zone.names() {
                for qtype in [RecordType::NS, RecordType::MX] {
                    same_answer(&zone, &Question::new(name.clone(), qtype));
                }
            }
        });
    }

    /// One `Answer` looked up into over and over holds what a fresh
    /// `lookup` returns, whatever the previous question left in it.
    #[test]
    fn lookup_into_a_dirty_answer_matches_a_fresh_lookup() {
        ldp_rng::check::check(128, |g| {
            let zone = gen_zone(g);
            let mut reused = Answer::default();
            for _ in 0..g.size(2..=12) {
                let qtype = *g.pick(&[RecordType::A, RecordType::NS, RecordType::MX]);
                let question = Question::new(gen_qname(g, &zone), qtype);
                lookup_into(&zone, &question, &mut reused);
                let fresh = lookup(&zone, &question);
                assert_eq!(reused.kind, fresh.kind, "{question}");
                assert_eq!(reused.rcode, fresh.rcode, "{question}");
                assert_eq!(reused.authoritative, fresh.authoritative, "{question}");
                assert_eq!(reused.answers, fresh.answers, "{question}");
                assert_eq!(reused.authorities, fresh.authorities, "{question}");
                assert_eq!(reused.additionals, fresh.additionals, "{question}");
            }
        });
    }

    fn same_answer(zone: &Zone, question: &Question) {
        let got = lookup(zone, question);
        let want = reference::lookup(zone, question);
        assert_eq!(got.kind, want.kind, "{question}");
        assert_eq!(got.rcode, want.rcode, "{question}");
        assert_eq!(got.authoritative, want.authoritative, "{question}");
        assert_eq!(got.answers, want.answers, "{question}");
        assert_eq!(got.authorities, want.authorities, "{question}");
        assert_eq!(got.additionals, want.additionals, "{question}");
    }

    fn into_message(mut a: Answer, query: &Message) -> Message {
        let mut resp = Message::default();
        a.render_into(query, &mut resp);
        resp
    }

    #[test]
    fn into_message_sets_flags() {
        let z = test_zone();
        let query = Message::query(77, n("www.example.com"), RecordType::A);
        let a = lookup(&z, &q("www.example.com", RecordType::A));
        let msg = into_message(a, &query);
        assert_eq!(msg.id, 77);
        assert!(msg.flags.response);
        assert!(msg.flags.authoritative);
        assert_eq!(msg.answers.len(), 1);
    }

    #[test]
    fn into_message_strips_dnssec_without_do() {
        let mut z = test_zone();
        z.insert(rec(
            "www.example.com",
            RData::Rrsig(dns_wire::Rrsig {
                type_covered: RecordType::A,
                algorithm: 8,
                labels: 3,
                original_ttl: 3600,
                expiration: 0,
                inception: 0,
                key_tag: 1,
                signer_name: n("example.com"),
                signature: vec![0; 128],
            }),
        ))
        .unwrap();
        let a = lookup(&z, &q("www.example.com", RecordType::A));
        assert_eq!(a.answers.len(), 2, "A + RRSIG gathered");

        let mut query = Message::query(1, n("www.example.com"), RecordType::A);
        let plain = into_message(lookup(&z, &q("www.example.com", RecordType::A)), &query);
        assert_eq!(plain.answers.len(), 1, "no DO → RRSIG stripped");

        query.set_dnssec_ok(true);
        let signed = into_message(lookup(&z, &q("www.example.com", RecordType::A)), &query);
        assert_eq!(signed.answers.len(), 2, "DO → RRSIG included");
    }
}
