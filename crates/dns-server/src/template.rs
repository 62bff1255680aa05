//! Precompiled response templates: the encode side of the fast path.
//!
//! At zone-load time every (view, qname, qtype) that exists in the
//! loaded catalogs is answered once through the general
//! lookup-and-encode path and the resulting wire bytes are kept. At
//! serve time a template hit reduces [`crate::ServerEngine::answer_udp`]
//! to a memcpy plus two header patches (transaction id, RD bit) — the
//! per-query lookup, response assembly and name compression all happened
//! at load.
//!
//! Three variants are kept per entry because the response bytes depend
//! on exactly three properties of the query beyond its question: whether
//! it carried EDNS at all, and if so the DO bit (which controls DNSSEC
//! record stripping). Everything else either falls back to the general
//! path (non-IN class, multi-question, non-Query opcode, EDNS version
//! ≠ 0, answers larger than the UDP limit — the truncation path) or is
//! patched in (id, RD).

use std::collections::BTreeMap;

use dns_wire::{Edns, Message, Name, Opcode, Rcode, RecordClass, RecordType};
use dns_zone::{lookup_into, View, ViewSet};

use crate::scratch::Assembly;

/// Pre-encoded wire answers per view, keyed by qname then qtype.
///
/// Values are full responses encoded with transaction id 0 and RD
/// clear; [`TemplateTable::patch_into`] specializes them per query. Variant
/// index: 0 = query without EDNS, 1 = EDNS with DO clear, 2 = EDNS with
/// DO set.
#[derive(Debug)]
pub struct TemplateTable {
    views: Vec<BTreeMap<Name, BTreeMap<u16, Variants>>>,
}

/// The three pre-encoded variants of one answer, by variant index.
type Variants = [Vec<u8>; 3];

impl TemplateTable {
    /// Pre-encode answers for every name/type pair present in any zone
    /// of each view's catalog. Each template is rendered through the
    /// same lookup-and-encode path the engine uses at serve time, so a
    /// template hit is byte-identical to the general path by
    /// construction.
    pub fn build(views: &ViewSet) -> Self {
        let mut per_view = Vec::with_capacity(views.len());
        let mut work = Assembly::default();
        for view in views.iter() {
            let mut map: BTreeMap<Name, BTreeMap<u16, [Vec<u8>; 3]>> = BTreeMap::new();
            for zone in view.catalog.iter() {
                for (name, node) in zone.iter() {
                    let by_type = map.entry(name.clone()).or_default();
                    for rtype in node.types() {
                        if rtype == RecordType::OPT {
                            continue;
                        }
                        by_type
                            .entry(rtype.to_u16())
                            .or_insert_with(|| Self::render_variants(view, name, rtype, &mut work));
                    }
                }
            }
            per_view.push(map);
        }
        TemplateTable { views: per_view }
    }

    fn render_variants(
        view: &View,
        name: &Name,
        rtype: RecordType,
        work: &mut Assembly,
    ) -> [Vec<u8>; 3] {
        [None, Some(false), Some(true)]
            .map(|edns_do| Self::render(view, name, rtype, edns_do, work))
    }

    /// Answer one probe query through the general path and keep the
    /// wire bytes (no size limit: oversized answers are rejected
    /// against the real limit at serve time).
    fn render(
        view: &View,
        name: &Name,
        rtype: RecordType,
        edns_do: Option<bool>,
        work: &mut Assembly,
    ) -> Vec<u8> {
        let mut probe = Message::query(0, name.clone(), rtype);
        probe.flags.recursion_desired = false;
        probe.edns = edns_do.map(|d| if d { Edns::with_do() } else { Edns::default() });
        view_answer_into(view, &probe, work);
        work.response.encode_into(&mut work.encode).to_vec()
    }

    /// Number of (view, name, type) template entries.
    pub fn len(&self) -> usize {
        self.views
            .iter()
            .map(|m| m.values().map(BTreeMap::len).sum::<usize>())
            .sum()
    }

    /// True if no entries were compiled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pre-encoded answer for `query`, if every template
    /// precondition holds and it fits in `limit` — otherwise `None` and
    /// the caller takes the general path (which handles REFUSED,
    /// NXDOMAIN-for-unknown-names, BADVERS, truncation and the rest).
    pub fn find(&self, view: Option<usize>, query: &Message, limit: usize) -> Option<&[u8]> {
        if query.opcode != Opcode::Query || query.questions.len() != 1 {
            return None;
        }
        let q = query.question()?;
        if q.qclass != RecordClass::IN {
            return None;
        }
        let variant = match &query.edns {
            None => 0,
            Some(e) if e.version == 0 => 1 + usize::from(e.dnssec_ok),
            Some(_) => return None, // BADVERS: general path answers
        };
        let bytes = self
            .views
            .get(view?)?
            .get(&q.name)?
            .get(&q.qtype.to_u16())?
            .get(variant)
            .map(Vec::as_slice)?;
        // Over-limit answers need TC-bit truncation: general path.
        (bytes.len() <= limit).then_some(bytes)
    }

    /// Specialize a template for one query: copy the bytes over `out`,
    /// patch the transaction id (bytes 0-1) and the RD bit (byte 2,
    /// bit 0).
    pub fn patch_into(template: &[u8], query: &Message, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(template);
        if let Some(id) = out.get_mut(0..2) {
            id.copy_from_slice(&query.id.to_be_bytes());
        }
        if query.flags.recursion_desired {
            if let Some(b) = out.get_mut(2) {
                *b |= 0x01;
            }
        }
    }
}

/// The engine's post-view-selection answer logic, shared with template
/// compilation so both produce identical responses: the response to
/// `query` from `view`, left in `assembly.response`.
pub(crate) fn view_answer_into(view: &View, query: &Message, assembly: &mut Assembly) {
    let Assembly {
        answer,
        response: resp,
        ..
    } = assembly;
    let Some(question) = query.question() else {
        return error_into(query, Rcode::FormErr, resp);
    };
    match view.catalog.find(&question.name) {
        Some(zone) => {
            lookup_into(zone, question, answer);
            answer.render_into(query, resp);
        }
        None => error_into(query, Rcode::Refused, resp),
    }
}

/// An empty response to `query` carrying `rcode`, written over `resp`.
pub(crate) fn error_into(query: &Message, rcode: Rcode, resp: &mut Message) {
    query.response_into(resp);
    resp.rcode = rcode;
}
