//! Precompiled answer tails: the authority and additional sections of a
//! reply whose records do not depend on the question, encoded once and
//! copied into every reply that needs them.
//!
//! A [`Tail`] is encoded after a *reference* question — the zone cut of
//! a referral, the apex of a name error — and keeps the offsets of its
//! compression pointers. A reply to a question `Q` at or below the
//! reference `R` is then the header, `Q`, the tail and the OPT record,
//! and it is byte for byte what [`crate::Message::encode_udp_into`]
//! writes for the same sections, provided one guard holds:
//!
//! - Every name a pointer in the tail reaches sits either in the tail or
//!   in the question at one of `R`'s suffixes. Putting `Q` in `R`'s
//!   place moves both by Δ = `wire_len(Q) − wire_len(R)`: `R`'s suffixes
//!   end `Q`, and the tail starts Δ later. So every pointer moves by
//!   the same Δ, and nothing else in the tail changes.
//! - The encoder would write a tail name differently only if one of
//!   `Q`'s longer suffixes were a suffix of it: a suffix `l.R`, where
//!   `l` is `Q`'s label directly above `R`. The tail keeps where each
//!   suffix of the form `label.R` it holds begins (its guard labels). A
//!   guard label equal to `l` sends the reply down the generic path.
//!
//! A reply longer than 0x4000 bytes is not written from a tail either:
//! past that offset the encoder stops recording suffixes, and Δ could
//! move one across it.

use crate::edns::Edns;
use crate::message::Message;
use crate::name::Name;
use crate::record::Record;
use crate::scratch::EncodeScratch;
use crate::types::Rcode;

/// The first offset a compression pointer cannot reach.
const POINTER_REACH: usize = 0x4000;

/// The authority and additional sections of one answer outcome, in wire
/// form after a reference question (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tail {
    /// The encoded records.
    wire: Box<[u8]>,
    /// Offsets in `wire` of each compression pointer, then of each guard
    /// label (the length octet of a label directly above the reference).
    marks: Box<[u16]>,
    /// Where the guard labels start in `marks`.
    guards: u16,
    authorities: u16,
    additionals: u16,
    /// The header's flag word: AA and the rcode's low bits.
    flags: u16,
    /// The reference name's wire length and label count.
    reference_len: u8,
    reference_labels: u8,
}

impl Tail {
    /// Encode `authorities` and `additionals` after the question
    /// `reference`, as the sections of a reply with `rcode` and the AA
    /// flag `authoritative`. `None` if the tail would reach past what a
    /// pointer can address, or the rcode needs EDNS's extended bits.
    pub fn compile(
        reference: &Name,
        rcode: Rcode,
        authoritative: bool,
        authorities: &[Record],
        additionals: &[Record],
        scratch: &mut EncodeScratch,
    ) -> Option<Tail> {
        if rcode.high_bits() != 0 {
            return None;
        }
        let w = &mut scratch.w;
        let start = w.start_after_question(reference);
        w.log_pointers();
        for rec in authorities.iter().chain(additionals) {
            rec.encode(w);
        }
        let mut marks = w.take_pointers();
        if w.len() >= POINTER_REACH {
            return None;
        }
        let pointers = marks.len();
        for at in w.suffix_offsets().filter(|&at| at >= start) {
            let label = w.bytes().get(at).copied().unwrap_or(0);
            if w.holds_at(at + 1 + usize::from(label), reference) {
                marks.push((at - start) as u16);
            }
        }
        for mark in &mut marks[..pointers] {
            *mark -= start as u16;
        }
        Some(Tail {
            wire: w.bytes().get(start..)?.into(),
            marks: marks.into(),
            guards: u16::try_from(pointers).ok()?,
            authorities: u16::try_from(authorities.len()).ok()?,
            // One count left over for the OPT record.
            additionals: u16::try_from(additionals.len() + 1).ok()? - 1,
            flags: (u16::from(authoritative) << 10) | u16::from(rcode.low_bits()),
            reference_len: u8::try_from(reference.wire_len()).ok()?,
            reference_labels: u8::try_from(reference.label_count()).ok()?,
        })
    }

    /// Write the reply to `query` — one question, at or below the
    /// reference — into `scratch`, where [`EncodeScratch::written`]
    /// reads it: the header, the question, this tail with its pointers
    /// moved, and the OPT record when the query has EDNS. `false`, with
    /// `scratch` holding nothing of use, when the guard fails or the
    /// reply would be longer than `limit`: that reply is the generic
    /// path's to write.
    pub fn reply_into(&self, query: &Message, limit: usize, scratch: &mut EncodeScratch) -> bool {
        let [question] = query.questions.as_slice() else {
            return false;
        };
        let qname = &question.name;
        let Some(delta) = qname.wire_len().checked_sub(self.reference_len.into()) else {
            return false;
        };
        // The guard: the label of the qname directly above the
        // reference must begin no suffix the tail holds.
        if let Some(above) = qname.labels().rev().nth(self.reference_labels.into()) {
            if self.guard_labels().any(|label| label == above) {
                return false;
            }
        }
        let opt = query.edns.as_ref().map(Edns::answering);
        let w = &mut scratch.w;
        w.buf_mut().clear();
        w.put_u16(query.id);
        let opcode = u16::from(query.opcode.to_u8()) << 11;
        let rd = u16::from(query.flags.recursion_desired) << 8;
        w.put_u16(0x8000 | opcode | rd | self.flags);
        let additionals = self.additionals + u16::from(opt.is_some());
        for count in [1, 0, self.authorities, additionals] {
            w.put_u16(count);
        }
        w.put_name_uncompressed(qname);
        w.put_u16(question.qtype.to_u16());
        w.put_u16(question.qclass.to_u16());
        let start = w.len();
        w.put_bytes(&self.wire);
        let end = w.len();
        for &at in self.marks.get(..self.guards.into()).unwrap_or_default() {
            let at = start + usize::from(at);
            if let Some(&[high, low]) = w.bytes().get(at..at + 2) {
                let target = usize::from(u16::from_be_bytes([high & 0x3f, low]));
                w.patch_u16(at, 0xc000 | (target + delta) as u16);
            }
        }
        if let Some(edns) = opt {
            edns.encode_opt(w, 0);
        }
        end <= POINTER_REACH && w.len() <= limit
    }

    /// The guard labels' bytes.
    fn guard_labels(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let guards = self
            .marks
            .get(usize::from(self.guards)..)
            .unwrap_or_default();
        guards.iter().filter_map(|&at| {
            let at = usize::from(at);
            let len = usize::from(*self.wire.get(at)?);
            self.wire.get(at + 1..at + 1 + len)
        })
    }
}
