//! The zone's precompiled reply tails: the authority and additional
//! sections of its two answers that do not depend on the question —
//! the referral at each zone cut and the name error from the apex —
//! encoded once when the zone is loaded for serving
//! ([`crate::Catalog::insert`]), as [`dns_wire::Tail`]s.
//!
//! [`pick_tail`] chooses one from what [`Zone::walk`] returned: the
//! cut's node holds its referral's index, and the zone its name error.
//! It never looks a name up. Every other outcome, and every reply the
//! tail cannot write byte for byte, takes the generic path
//! ([`crate::lookup_walk_into`], then rendering and encoding), which
//! stays the reference (DESIGN.md §7).

// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use dns_wire::{EncodeScratch, Name, Question, Rcode, Record, RecordClass, RecordType, Tail};

use crate::lookup::{negative, referral};
use crate::zone::{Walk, Zone};

/// The tails of one outcome: one for a query without DO, and one for a
/// query with DO when DNSSEC records are among the sections (boxed:
/// most outcomes have none, and their slots stay small).
#[derive(Debug, Clone)]
pub(crate) struct Tails {
    plain: Tail,
    with_do: Option<Box<Tail>>,
}

impl Tails {
    /// Compile `authorities` and `additionals` after `reference`, and
    /// the same without their DNSSEC records, which a query without DO
    /// does not get; `None` if either does not compile.
    fn compile(
        reference: &Name,
        (rcode, authoritative): (Rcode, bool),
        [authorities, additionals]: [&mut Vec<Record>; 2],
        scratch: &mut EncodeScratch,
    ) -> Option<Tails> {
        let mut compile = |auth: &[Record], add: &[Record]| {
            Tail::compile(reference, rcode, authoritative, auth, add, scratch)
        };
        let signed = |records: &[Record]| records.iter().any(|r| r.rtype().is_dnssec());
        let with_do = match signed(authorities) || signed(additionals) {
            true => Some(Box::new(compile(authorities, additionals)?)),
            false => None,
        };
        authorities.retain(|r| !r.rtype().is_dnssec());
        additionals.retain(|r| !r.rtype().is_dnssec());
        let plain = compile(authorities, additionals)?;
        Some(Tails { plain, with_do })
    }

    /// The tail for a query whose DO bit is `dnssec_ok`.
    fn get(&self, dnssec_ok: bool) -> &Tail {
        match &self.with_do {
            Some(tail) if dnssec_ok => tail,
            _ => &self.plain,
        }
    }
}

impl Zone {
    /// Compile the zone's tails: the name error's into slot 0, then each
    /// cut's referral, its slot noted in the cut's node. A zone answers
    /// from its tails until its next edit ([`Zone::insert`] empties
    /// them). One scratch serves the whole zone.
    pub(crate) fn compile_tails(&mut self) {
        let mut scratch = EncodeScratch::new();
        let (mut authorities, mut additionals) = (Vec::new(), Vec::new());
        let origin = self.origin().clone();
        negative(self, &origin, &mut authorities);
        // A signed zone's name error with DO carries the qname's NSEC,
        // so `pick_tail` declines it: no DO tail to compile.
        if self.nsec_nodes > 0 {
            authorities.retain(|r| !r.rtype().is_dnssec());
        }
        let nx = (Rcode::NxDomain, true);
        let sections = [&mut authorities, &mut additionals];
        // Without slot 0 there is no tail at all: the cuts fall back too.
        let Some(name_error) = Tails::compile(&origin, nx, sections, &mut scratch) else {
            return self.tails.clear();
        };
        let mut tails = vec![name_error];
        let top = origin.label_count();
        let slots: Vec<u32> = self
            .nodes
            .iter()
            .map(|(name, node)| {
                let ns = node.get(RecordType::NS);
                let Some(ns) = ns.filter(|_| name.label_count() > top) else {
                    return 0;
                };
                authorities.clear();
                additionals.clear();
                referral(self, node, ns, &mut authorities, &mut additionals);
                let sections = [&mut authorities, &mut additionals];
                let at = (Rcode::NoError, false);
                let Some(tail) = Tails::compile(name, at, sections, &mut scratch) else {
                    return 0;
                };
                tails.push(tail);
                (tails.len() - 1) as u32
            })
            .collect();
        for (node, slot) in self.nodes.values_mut().zip(slots) {
            node.tail = slot;
        }
        tails.shrink_to_fit();
        self.tails = tails;
    }
}

/// The tail that answers `question`, whose walk in `zone` ended at
/// `walk`, for a query whose DO bit is `dnssec_ok`: a referral's from
/// the cut's node, or the zone's name error when nothing exists at or
/// below the name and no wildcard stands in for it. Every other outcome
/// gets `None`, the generic path, and so do:
/// - a class other than IN;
/// - a DS query at the cut, which RFC 4035 §3.1.4.1 gives to the
///   parent side: how it is answered is written once, in the generic
///   path;
/// - a signed zone's name error with DO set, whose NSEC depends on the
///   qname.
pub fn pick_tail<'z>(
    zone: &'z Zone,
    walk: Walk<'z>,
    question: &Question,
    dnssec_ok: bool,
) -> Option<&'z Tail> {
    if question.qclass != RecordClass::IN {
        return None;
    }
    let slot = match walk {
        Walk::Cut { cut, node, .. } => {
            if node.tail == 0 || question.qtype == RecordType::DS && question.name == *cut {
                return None;
            }
            node.tail
        }
        Walk::Missing { encloser } => {
            if dnssec_ok && zone.nsec_nodes > 0 {
                return None;
            }
            let encloser = question.name.ancestor(encloser);
            if encloser.and_then(|e| zone.wildcard_below(&e)).is_some() {
                return None;
            }
            0
        }
        Walk::Node(_) | Walk::Empty => return None,
    };
    Some(zone.tails.get(slot as usize)?.get(dnssec_ok))
}
