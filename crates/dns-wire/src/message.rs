//! Full DNS messages: header, question, and the four record sections,
//! with EDNS awareness and UDP truncation.

use std::fmt;

use crate::edns::Edns;
use crate::name::Name;
use crate::record::Record;
use crate::scratch::EncodeScratch;
use crate::types::{Opcode, Rcode, RecordClass, RecordType};
use crate::wire::{WireError, WireReader, WireWriter};

/// Parsed DNS header flags (the 16-bit field after the ID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// QR: true for responses.
    pub response: bool,
    /// AA: authoritative answer.
    pub authoritative: bool,
    /// TC: truncated.
    pub truncated: bool,
    /// RD: recursion desired.
    pub recursion_desired: bool,
    /// RA: recursion available.
    pub recursion_available: bool,
    /// AD: authenticated data (DNSSEC).
    pub authentic_data: bool,
    /// CD: checking disabled (DNSSEC).
    pub checking_disabled: bool,
}

/// The question section entry: name, type, class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

impl Question {
    /// `IN`-class question.
    pub fn new(name: Name, qtype: RecordType) -> Self {
        Question {
            name,
            qtype,
            qclass: RecordClass::IN,
        }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.qclass, self.qtype)
    }
}

/// A complete DNS message.
///
/// The OPT pseudo-record is lifted out of the additional section into
/// [`Message::edns`] on decode and re-synthesized on encode, so section
/// manipulation never has to special-case it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction ID.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Operation code.
    pub opcode: Opcode,
    /// Response code (combined with EDNS extended bits).
    pub rcode: Rcode,
    /// Question section (normally exactly one entry).
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section, excluding the OPT record.
    pub additionals: Vec<Record>,
    /// EDNS(0) state, if an OPT record is present.
    pub edns: Option<Edns>,
}

impl Default for Message {
    /// An empty query: id 0, no flags, no sections, no EDNS.
    fn default() -> Self {
        Message {
            id: 0,
            flags: Flags::default(),
            opcode: Opcode::Query,
            rcode: Rcode::NoError,
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }
}

impl Message {
    /// A fresh query message for `name`/`qtype` with RD set.
    pub fn query(id: u16, name: Name, qtype: RecordType) -> Self {
        let mut query = Message::default();
        query.query_into(id, name, qtype);
        query
    }

    /// [`Message::query`] written over `self`, whatever it held: every
    /// field is set and the section `Vec`s keep their storage.
    pub fn query_into(&mut self, id: u16, name: Name, qtype: RecordType) {
        self.id = id;
        self.flags = Flags {
            recursion_desired: true,
            ..Default::default()
        };
        self.opcode = Opcode::Query;
        self.rcode = Rcode::NoError;
        self.questions.clear();
        // Sized as `vec![question]` when fresh, left alone when warm.
        self.questions.reserve_exact(1);
        self.questions.push(Question::new(name, qtype));
        self.answers.clear();
        self.authorities.clear();
        self.additionals.clear();
        self.edns = None;
    }

    /// Start a response to this query: copies ID, question, opcode, RD,
    /// and sets QR.
    pub fn response_to(&self) -> Message {
        let mut resp = Message::default();
        self.response_into(&mut resp);
        resp
    }

    /// [`Message::response_to`] written over `resp`, whatever it held:
    /// every field is set and the section `Vec`s keep their storage.
    pub fn response_into(&self, resp: &mut Message) {
        resp.id = self.id;
        resp.flags = Flags {
            response: true,
            recursion_desired: self.flags.recursion_desired,
            ..Default::default()
        };
        resp.opcode = self.opcode;
        resp.rcode = Rcode::NoError;
        // Not `clone_from`: `reserve_exact` sizes a fresh `Vec` as
        // `clone` would, and leaves a warm one alone.
        resp.questions.clear();
        resp.questions.reserve_exact(self.questions.len());
        resp.questions.extend(self.questions.iter().cloned());
        resp.answers.clear();
        resp.authorities.clear();
        resp.additionals.clear();
        resp.edns = self.edns.as_ref().map(Edns::answering);
    }

    /// The first (usually only) question.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// True if the DO (DNSSEC OK) bit is set.
    pub fn dnssec_ok(&self) -> bool {
        self.edns.as_ref().map(|e| e.dnssec_ok).unwrap_or(false)
    }

    /// Set or clear the DO bit, creating an EDNS block as needed.
    pub fn set_dnssec_ok(&mut self, on: bool) {
        match (&mut self.edns, on) {
            (Some(e), v) => e.dnssec_ok = v,
            (None, true) => self.edns = Some(Edns::with_do()),
            (None, false) => {}
        }
    }

    /// Serialize, compressing names, with no size limit (TCP semantics).
    ///
    /// Thin wrapper over [`Message::encode_into`] using a thread-local
    /// [`EncodeScratch`], so its buffers keep their capacity across calls
    /// even for callers that never hold a scratch.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_thread_scratch(usize::MAX).0
    }

    /// Serialize for UDP with `limit` bytes available: if the message
    /// does not fit, sections are dropped whole-record-at-a-time from the
    /// back and the TC bit is set (RFC 2181 §9 behaviour). The returned
    /// buffer is never longer than `limit`.
    ///
    /// Returns the bytes and whether truncation occurred.
    pub fn encode_udp(&self, limit: usize) -> (Vec<u8>, bool) {
        self.encode_with_thread_scratch(limit)
    }

    fn encode_with_thread_scratch(&self, limit: usize) -> (Vec<u8>, bool) {
        use std::cell::RefCell;
        thread_local! {
            static SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::new());
        }
        let reused = SCRATCH.try_with(|cell| {
            cell.try_borrow_mut().ok().map(|mut s| {
                let (bytes, tc) = self.encode_udp_into(limit, &mut s);
                (bytes.to_vec(), tc)
            })
        });
        match reused {
            Ok(Some(out)) => out,
            // Thread-local destroyed (thread teardown) or re-entrant
            // borrow: encode with a fresh scratch rather than panic.
            _ => {
                let mut s = EncodeScratch::new();
                let (bytes, tc) = self.encode_udp_into(limit, &mut s);
                (bytes.to_vec(), tc)
            }
        }
    }

    /// Serialize into reusable scratch state with no size limit,
    /// returning the encoded bytes (valid until the next use of
    /// `scratch`). Steady-state allocation-free.
    pub fn encode_into<'a>(&self, scratch: &'a mut EncodeScratch) -> &'a [u8] {
        self.encode_udp_into(usize::MAX, scratch).0
    }

    /// Serialize for UDP into reusable scratch state.
    ///
    /// The message is encoded exactly once while per-question and
    /// per-record end offsets are recorded; truncation then slices the
    /// buffer at a record boundary, moves the (pointer-free) OPT record
    /// down, and patches the header counts — O(1) per dropped record
    /// instead of a full re-encode per drop. Per RFC 2181 §9 the drop
    /// order is additionals, authorities, answers, then OPT, then
    /// questions; the result is never longer than `limit`.
    pub fn encode_udp_into<'a>(
        &self,
        limit: usize,
        scratch: &'a mut EncodeScratch,
    ) -> (&'a [u8], bool) {
        let EncodeScratch {
            w,
            rec_ends,
            q_ends,
        } = scratch;
        w.reset();
        rec_ends.clear();
        q_ends.clear();

        // Saturate the emitted section sizes so the header counts always
        // agree with the wire body (no silent u16 wrap).
        let opt = usize::from(self.edns.is_some());
        let qd = self.questions.len().min(u16::MAX as usize);
        let an = self.answers.len().min(u16::MAX as usize);
        let ns = self.authorities.len().min(u16::MAX as usize);
        let ar = self.additionals.len().min(u16::MAX as usize - opt);

        w.put_u16(self.id);
        let mut f: u16 = 0;
        if self.flags.response {
            f |= 0x8000;
        }
        f |= (self.opcode.to_u8() as u16) << 11;
        if self.flags.authoritative {
            f |= 0x0400;
        }
        if self.flags.truncated {
            f |= 0x0200;
        }
        if self.flags.recursion_desired {
            f |= 0x0100;
        }
        if self.flags.recursion_available {
            f |= 0x0080;
        }
        if self.flags.authentic_data {
            f |= 0x0020;
        }
        if self.flags.checking_disabled {
            f |= 0x0010;
        }
        f |= self.rcode.low_bits() as u16;
        w.put_u16(f);
        w.put_u16(qd as u16);
        w.put_u16(an as u16);
        w.put_u16(ns as u16);
        w.put_u16((ar + opt) as u16);
        for q in self.questions.iter().take(qd) {
            w.put_name(&q.name);
            w.put_u16(q.qtype.to_u16());
            w.put_u16(q.qclass.to_u16());
            q_ends.push(w.len() as u32);
        }
        for rec in self.answers.iter().take(an) {
            rec.encode(w);
            rec_ends.push(w.len() as u32);
        }
        for rec in self.authorities.iter().take(ns) {
            rec.encode(w);
            rec_ends.push(w.len() as u32);
        }
        for rec in self.additionals.iter().take(ar) {
            rec.encode(w);
            rec_ends.push(w.len() as u32);
        }
        let opt_start = w.len();
        if let Some(edns) = &self.edns {
            edns.encode_opt(w, self.rcode.high_bits());
        }
        let opt_len = w.len() - opt_start;

        if w.len() <= limit {
            return (w.bytes(), false);
        }

        // Truncation. End of the question section (== start of records):
        let q_base = q_ends.last().map(|&e| e as usize).unwrap_or(12);
        // 1) Keep questions and OPT; drop records from the back until
        //    the kept prefix plus the OPT fits.
        let mut keep = None;
        for k in (0..=rec_ends.len()).rev() {
            let boundary = if k == 0 {
                q_base
            } else {
                rec_ends.get(k - 1).map(|&e| e as usize).unwrap_or(q_base)
            };
            if boundary + opt_len <= limit {
                keep = Some((k, boundary));
                break;
            }
        }
        if let Some((k, boundary)) = keep {
            let buf = w.buf_mut();
            if opt_len > 0 && boundary < opt_start {
                buf.copy_within(opt_start..opt_start + opt_len, boundary);
            }
            buf.truncate(boundary + opt_len);
            let an_keep = k.min(an);
            let ns_keep = k.saturating_sub(an).min(ns);
            let ar_keep = k.saturating_sub(an + ns).min(ar);
            w.patch_u16(6, an_keep as u16);
            w.patch_u16(8, ns_keep as u16);
            w.patch_u16(10, (ar_keep + opt) as u16);
            Self::set_tc_bit(w);
            return (w.bytes(), true);
        }
        // 2) Even zero records + OPT overflow: drop the OPT too (last,
        //    per RFC 2181 §9 — but never return more than `limit`).
        if q_base <= limit {
            w.patch_u16(6, 0);
            w.patch_u16(8, 0);
            w.patch_u16(10, 0);
            Self::set_tc_bit(w);
            w.buf_mut().truncate(q_base);
            return (w.bytes(), true);
        }
        // 3) Questions themselves overflow: drop them from the back.
        let mut q_keep = (0usize, 12usize);
        for (i, &qe) in q_ends.iter().enumerate().rev() {
            if qe as usize <= limit {
                q_keep = (i + 1, qe as usize);
                break;
            }
        }
        let (qk, q_boundary) = q_keep;
        w.patch_u16(4, qk as u16);
        w.patch_u16(6, 0);
        w.patch_u16(8, 0);
        w.patch_u16(10, 0);
        Self::set_tc_bit(w);
        // 4) `limit` below the 12-byte header: hand back what fits.
        w.buf_mut().truncate(q_boundary.min(limit));
        (w.bytes(), true)
    }

    /// Set the TC bit in an already-written header.
    fn set_tc_bit(w: &mut WireWriter) {
        if let Some(b) = w.buf_mut().get_mut(2) {
            *b |= 0x02;
        }
    }

    /// Decode a full message from `buf`.
    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        let mut msg = Message::default();
        msg.decode_into(buf)?;
        Ok(msg)
    }

    /// Decode `buf` over this message, whatever it held: every field is
    /// overwritten and the section `Vec`s are refilled in place, so a
    /// message that is decoded into again and again stops allocating
    /// for its sections. A name short enough is held by value; a long
    /// record name whose canonical bytes are the first question's name,
    /// an ancestor's of it, or those of a name decoded before it in the
    /// message is a view of that name, not a buffer of its own; a query
    /// remembers no name. On `Err` the
    /// contents are unspecified (some prefix of `buf`), and the next
    /// `decode_into` starts over.
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<(), WireError> {
        let mut r = WireReader::new(buf);
        self.id = r.get_u16()?;
        let f = r.get_u16()?;
        self.flags = Flags {
            response: f & 0x8000 != 0,
            authoritative: f & 0x0400 != 0,
            truncated: f & 0x0200 != 0,
            recursion_desired: f & 0x0100 != 0,
            recursion_available: f & 0x0080 != 0,
            authentic_data: f & 0x0020 != 0,
            checking_disabled: f & 0x0010 != 0,
        };
        self.opcode = Opcode::from_u8((f >> 11) as u8 & 0x0f);
        let rcode_low = (f & 0x0f) as u8;
        let qd = r.get_u16()? as usize;
        let an = r.get_u16()? as usize;
        let ns = r.get_u16()? as usize;
        let ar = r.get_u16()? as usize;
        // `reserve_exact`: a fresh message gets the capacity
        // `with_capacity` would give it, a warm one keeps what it has.
        // The first question's name is decoded over the last one, in its
        // buffer when nothing else holds that (`Name::assign`) — the last
        // message's records may be views of it, so they go first.
        self.answers.clear();
        self.authorities.clear();
        self.additionals.clear();
        let mut last = self.questions.drain(..).next().map(|q| q.name);
        self.questions.reserve_exact(qd.min(16));
        for _ in 0..qd {
            let name = match last.take() {
                Some(mut name) => {
                    r.get_name_into(&mut name)?;
                    name
                }
                None => r.get_name()?,
            };
            self.questions.push(Question {
                name,
                qtype: RecordType::from_u16(r.get_u16()?),
                qclass: RecordClass::from_u16(r.get_u16()?),
            });
        }
        // A response's records are mostly about the qname and its
        // ancestors: they become views of it. A query (no answer or
        // authority records; its additional section is the OPT record)
        // remembers nothing.
        if let Some(q) = self.questions.first().filter(|_| an + ns > 0) {
            r.remember(&q.name);
        }
        let mut read_section = |count: usize, recs: &mut Vec<Record>| -> Result<(), WireError> {
            recs.reserve_exact(count.min(64));
            for _ in 0..count {
                recs.push(Record::decode(&mut r)?);
            }
            Ok(())
        };
        read_section(an, &mut self.answers)?;
        read_section(ns, &mut self.authorities)?;
        // The additional section: an OPT record is read straight into
        // `edns`, over the options storage the last one left; the rest
        // are records. What the first OPT holds is judged once every
        // record has decoded, and a second OPT after that — the errors,
        // in the order, of decoding OPT as a record and lifting it out.
        let mut edns = self.edns.take().unwrap_or_default();
        let mut first_opt = None;
        let mut opts = 0;
        self.additionals.reserve_exact(ar.min(64));
        for _ in 0..ar {
            let name = r.get_name()?;
            let rtype = RecordType::from_u16(r.get_u16()?);
            if rtype != RecordType::OPT {
                let rec = Record::decode_body(name, rtype, &mut r)?;
                self.additionals.push(rec);
                continue;
            }
            let udp_payload = r.get_u16()?;
            let ttl = r.get_u32()?;
            let rdlength = usize::from(r.get_u16()?);
            let data = r.get_bytes(rdlength)?;
            opts += 1;
            if opts == 1 {
                first_opt = Some(edns.read_opt(&name, udp_payload, ttl, data));
            }
        }
        if let Some(verdict) = first_opt {
            verdict?;
            if opts > 1 {
                return Err(WireError::Invalid("multiple OPT records"));
            }
            self.edns = Some(edns);
        }
        self.rcode = Rcode::from_parts(
            rcode_low,
            self.edns.as_ref().map(|e| e.ext_rcode_high).unwrap_or(0),
        );
        Ok(())
    }

    /// Total records in answer+authority+additional (not counting OPT).
    pub fn record_count(&self) -> usize {
        self.answers.len() + self.authorities.len() + self.additionals.len()
    }
}

/// The transaction id of the message in `buf`, read from the 12-byte
/// header alone: `None` when `buf` is shorter than a header, otherwise
/// the big-endian id whatever the rest of the bytes hold. Matching a
/// response to its query needs nothing else, so the replay client uses
/// this instead of [`Message::decode`], and the server's FORMERR reply
/// to a body that does not decode echoes it.
pub fn peek_id(buf: &[u8]) -> Option<u16> {
    match buf {
        [hi, lo, ..] if buf.len() >= 12 => Some(u16::from_be_bytes([*hi, *lo])),
        _ => None,
    }
}

impl fmt::Display for Message {
    /// dig-style multi-line rendering, for debugging and logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; opcode: {}, status: {}, id: {}",
            self.opcode, self.rcode, self.id
        )?;
        let mut flag_names = Vec::new();
        if self.flags.response {
            flag_names.push("qr");
        }
        if self.flags.authoritative {
            flag_names.push("aa");
        }
        if self.flags.truncated {
            flag_names.push("tc");
        }
        if self.flags.recursion_desired {
            flag_names.push("rd");
        }
        if self.flags.recursion_available {
            flag_names.push("ra");
        }
        if self.flags.authentic_data {
            flag_names.push("ad");
        }
        if self.flags.checking_disabled {
            flag_names.push("cd");
        }
        writeln!(
            f,
            ";; flags: {}; QUERY: {}, ANSWER: {}, AUTHORITY: {}, ADDITIONAL: {}",
            flag_names.join(" "),
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len()
        )?;
        if let Some(e) = &self.edns {
            writeln!(
                f,
                ";; EDNS: version {}, udp {}, DO {}",
                e.version, e.udp_payload, e.dnssec_ok
            )?;
        }
        for q in &self.questions {
            writeln!(f, ";{q}")?;
        }
        for rec in &self.answers {
            writeln!(f, "{rec}")?;
        }
        for rec in &self.authorities {
            writeln!(f, "{rec}")?;
        }
        for rec in &self.additionals {
            writeln!(f, "{rec}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RData;
    use ldp_rng::SplitMix64;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let q = Message::query(0x1234, n("www.example.com"), RecordType::A);
        let mut resp = q.response_to();
        resp.flags.authoritative = true;
        resp.answers.push(Record::new(
            n("www.example.com"),
            3600,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        resp.authorities.push(Record::new(
            n("example.com"),
            86400,
            RData::Ns(n("ns1.example.com")),
        ));
        resp.additionals.push(Record::new(
            n("ns1.example.com"),
            86400,
            RData::A("192.0.2.53".parse().unwrap()),
        ));
        resp
    }

    #[test]
    fn peek_id_reads_the_header_only() {
        let resp = sample_response();
        let buf = resp.encode();
        assert_eq!(peek_id(&buf), Some(0x1234));
        // A full header is enough, and the body is never looked at.
        assert_eq!(peek_id(&buf[..12]), Some(0x1234));
        let mut garbled = buf.clone();
        garbled[4] = 0xff; // QDCOUNT no body can satisfy
        assert!(Message::decode(&garbled).is_err());
        assert_eq!(peek_id(&garbled), Some(0x1234));
        // Anything shorter than a header carries no id.
        assert_eq!(peek_id(&buf[..11]), None);
        assert_eq!(peek_id(&[0x12, 0x34]), None);
        assert_eq!(peek_id(&[]), None);
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(7, n("example.com"), RecordType::AAAA);
        let buf = q.encode();
        let d = Message::decode(&buf).unwrap();
        assert_eq!(d, q);
        assert!(!d.flags.response);
        assert!(d.flags.recursion_desired);
    }

    #[test]
    fn response_round_trip() {
        let resp = sample_response();
        let d = Message::decode(&resp.encode()).unwrap();
        assert_eq!(d, resp);
        assert!(d.flags.response);
        assert!(d.flags.authoritative);
        assert_eq!(d.answers.len(), 1);
        assert_eq!(d.authorities.len(), 1);
        assert_eq!(d.additionals.len(), 1);
    }

    #[test]
    fn edns_round_trip() {
        let mut q = Message::query(9, n("example.com"), RecordType::DNSKEY);
        q.set_dnssec_ok(true);
        let d = Message::decode(&q.encode()).unwrap();
        assert!(d.dnssec_ok());
        assert_eq!(d.edns.as_ref().unwrap().udp_payload, 4096);
        assert_eq!(d, q);
    }

    #[test]
    fn set_dnssec_ok_toggles() {
        let mut q = Message::query(9, n("example.com"), RecordType::A);
        assert!(!q.dnssec_ok());
        q.set_dnssec_ok(false); // no-op without EDNS
        assert!(q.edns.is_none());
        q.set_dnssec_ok(true);
        assert!(q.dnssec_ok());
        q.set_dnssec_ok(false);
        assert!(!q.dnssec_ok());
        assert!(q.edns.is_some()); // block stays, bit clears
    }

    #[test]
    fn extended_rcode_via_edns() {
        let mut resp = Message::query(1, n("example.com"), RecordType::A).response_to();
        resp.edns = Some(Edns::default());
        resp.rcode = Rcode::BadVers;
        let d = Message::decode(&resp.encode()).unwrap();
        assert_eq!(d.rcode, Rcode::BadVers);
    }

    #[test]
    fn truncation_drops_back_sections_first() {
        let resp = sample_response();
        let full_len = resp.encode().len();
        let (buf, tc) = resp.encode_udp(full_len - 1);
        assert!(tc);
        let d = Message::decode(&buf).unwrap();
        assert!(d.flags.truncated);
        // Additionals dropped first.
        assert_eq!(d.additionals.len(), 0);
        assert_eq!(d.answers.len(), 1);
    }

    #[test]
    fn truncation_not_applied_when_fits() {
        let resp = sample_response();
        let (buf, tc) = resp.encode_udp(4096);
        assert!(!tc);
        assert!(!Message::decode(&buf).unwrap().flags.truncated);
    }

    #[test]
    fn severe_truncation_keeps_header_and_question() {
        let resp = sample_response();
        let (buf, tc) = resp.encode_udp(40);
        assert!(tc);
        let d = Message::decode(&buf).unwrap();
        assert!(d.flags.truncated);
        assert_eq!(d.record_count(), 0);
        assert_eq!(d.questions.len(), 1);
    }

    #[test]
    fn multiple_opt_rejected() {
        let mut resp = Message::query(1, n("example.com"), RecordType::A).response_to();
        resp.edns = Some(Edns::default());
        let mut buf = resp.encode();
        // Append a second OPT record manually.
        let opt = Edns::default().to_record();
        let mut w = WireWriter::new();
        opt.encode(&mut w);
        buf.extend_from_slice(&w.into_bytes());
        // Bump ARCOUNT.
        let ar = u16::from_be_bytes([buf[10], buf[11]]) + 1;
        buf[10..12].copy_from_slice(&ar.to_be_bytes());
        assert!(Message::decode(&buf).is_err());
    }

    #[test]
    fn header_too_short_rejected() {
        assert!(Message::decode(&[0; 11]).is_err());
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn compression_reduces_size() {
        let resp = sample_response();
        let compressed = resp.encode().len();
        // Uncompressed size lower bound: sum of wire_lens + 12 header +
        // question.
        let uncompressed: usize = 12
            + resp.questions[0].name.wire_len()
            + 4
            + resp.answers.iter().map(|r| r.wire_len()).sum::<usize>()
            + resp.authorities.iter().map(|r| r.wire_len()).sum::<usize>()
            + resp.additionals.iter().map(|r| r.wire_len()).sum::<usize>();
        assert!(compressed < uncompressed, "{compressed} < {uncompressed}");
    }

    #[test]
    fn response_to_copies_do_bit() {
        let mut q = Message::query(3, n("example.com"), RecordType::A);
        q.set_dnssec_ok(true);
        let resp = q.response_to();
        assert!(resp.dnssec_ok());
        assert_eq!(resp.id, 3);
        assert_eq!(resp.questions, q.questions);
    }

    #[test]
    fn display_contains_sections() {
        let s = sample_response().to_string();
        assert!(s.contains("status: NOERROR"));
        assert!(s.contains("www.example.com."));
        assert!(s.contains("flags: qr aa rd"));
    }

    // ---- truncation edge cases & old-algorithm equivalence ----

    /// The pre-rewrite encoder, kept verbatim as a test oracle: encode
    /// with explicit counts (cloning EDNS to patch the extended RCODE),
    /// then drop-and-reencode until the message fits.
    fn ref_encode_with_counts(m: &Message, an: usize, ns: usize, ar: usize, tc: bool) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u16(m.id);
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
        w.put_u16(f);
        w.put_u16(m.questions.len() as u16);
        w.put_u16(an as u16);
        w.put_u16(ns as u16);
        let opt_count = usize::from(m.edns.is_some());
        w.put_u16((ar + opt_count) as u16);
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

    fn ref_encode_udp(m: &Message, limit: usize) -> (Vec<u8>, bool) {
        let full = ref_encode_with_counts(
            m,
            m.answers.len(),
            m.authorities.len(),
            m.additionals.len(),
            false,
        );
        if full.len() <= limit {
            return (full, false);
        }
        let (mut an, mut ns, mut ar) = (m.answers.len(), m.authorities.len(), m.additionals.len());
        loop {
            if ar > 0 {
                ar -= 1;
            } else if ns > 0 {
                ns -= 1;
            } else if an > 0 {
                an -= 1;
            } else {
                return (ref_encode_with_counts(m, 0, 0, 0, true), true);
            }
            let buf = ref_encode_with_counts(m, an, ns, ar, true);
            if buf.len() <= limit {
                return (buf, true);
            }
        }
    }

    fn gen_message(rng: &mut SplitMix64) -> Message {
        let names = [
            "com",
            "example.com",
            "www.example.com",
            "mail.example.com",
            "ns1.example.com",
            "a.b.c.example.com",
            "cdn.example.net",
            "very-long-label-padding-things-out.example.org",
        ];
        let nm = |rng: &mut SplitMix64| -> Name {
            names[rng.gen_range(0..names.len())].parse().unwrap()
        };
        let rec = |rng: &mut SplitMix64| -> Record {
            match rng.gen_range(0..4) {
                0 => Record::new(nm(rng), 60, RData::A("192.0.2.7".parse().unwrap())),
                1 => Record::new(nm(rng), 3600, RData::Ns(nm(rng))),
                2 => Record::new(
                    nm(rng),
                    30,
                    RData::Txt(vec![b"padding-padding-padding".to_vec()]),
                ),
                _ => Record::new(nm(rng), 300, RData::Cname(nm(rng))),
            }
        };
        let mut m = Message::query(rng.next_u64() as u16, nm(rng), RecordType::A).response_to();
        m.flags.authoritative = rng.gen_range(0..2) == 0;
        for _ in 0..rng.gen_range(0..5) {
            m.answers.push(rec(rng));
        }
        for _ in 0..rng.gen_range(0..4) {
            m.authorities.push(rec(rng));
        }
        for _ in 0..rng.gen_range(0..4) {
            m.additionals.push(rec(rng));
        }
        if rng.gen_range(0..2) == 0 {
            m.edns = Some(Edns {
                dnssec_ok: rng.gen_range(0..2) == 0,
                options: if rng.gen_range(0..3) == 0 {
                    vec![(10, vec![1, 2, 3, 4, 5, 6, 7, 8])]
                } else {
                    Vec::new()
                },
                ..Default::default()
            });
        }
        m
    }

    #[test]
    fn encode_udp_never_exceeds_limit() {
        // The overshoot regression: every limit, including those below
        // header+question+OPT (and below the header itself), must be
        // respected to the byte.
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..40 {
            let m = gen_message(&mut rng);
            let full = m.encode().len();
            for limit in 0..=full + 2 {
                let (buf, tc) = m.encode_udp(limit);
                assert!(buf.len() <= limit, "limit {limit}: got {} bytes", buf.len());
                assert_eq!(tc, full > limit, "limit {limit} full {full}");
            }
        }
    }

    #[test]
    fn truncation_byte_identical_to_old_algorithm() {
        // Wherever the old drop-and-reencode loop produced a result that
        // fit, the offset-slicing path must reproduce it byte-for-byte.
        let mut rng = SplitMix64::seed_from_u64(99);
        for _ in 0..40 {
            let m = gen_message(&mut rng);
            let full = m.encode().len();
            for limit in 12..=full + 2 {
                let (old, old_tc) = ref_encode_udp(&m, limit);
                let (new, new_tc) = m.encode_udp(limit);
                if old.len() <= limit {
                    assert_eq!(new_tc, old_tc, "limit {limit}");
                    assert_eq!(new, old, "limit {limit}");
                }
            }
        }
    }

    #[test]
    fn limit_exactly_full_size_is_not_truncation() {
        let resp = sample_response();
        let full = resp.encode();
        let (buf, tc) = resp.encode_udp(full.len());
        assert!(!tc);
        assert_eq!(buf, full);
    }

    #[test]
    fn opt_survives_record_truncation() {
        let mut resp = sample_response();
        resp.edns = Some(Edns::default());
        let full = resp.encode().len();
        // Squeeze until only header+question+OPT can fit: OPT must be
        // preserved (it carries payload-size negotiation) and must sit
        // directly after the kept sections.
        let q_end = 12 + resp.questions[0].name.wire_len() + 4;
        let opt_len = 11; // root + type + class + ttl + rdlen, no options
        let (buf, tc) = resp.encode_udp(q_end + opt_len);
        assert!(
            tc && buf.len() == q_end + opt_len,
            "{} vs {}",
            buf.len(),
            q_end + opt_len
        );
        let d = Message::decode(&buf).unwrap();
        assert!(d.flags.truncated);
        assert_eq!(d.record_count(), 0);
        assert!(d.edns.is_some());
        assert!(full > buf.len());
    }

    #[test]
    fn opt_dropped_only_below_irreducible_floor() {
        let mut resp = sample_response();
        resp.edns = Some(Edns::default());
        let q_end = 12 + resp.questions[0].name.wire_len() + 4;
        // One byte short of header+question+OPT: the OPT goes, the
        // question stays, and the length still honors the limit.
        let (buf, tc) = resp.encode_udp(q_end + 11 - 1);
        assert!(tc);
        assert_eq!(buf.len(), q_end);
        let d = Message::decode(&buf).unwrap();
        assert!(d.flags.truncated);
        assert!(d.edns.is_none());
        assert_eq!(d.questions.len(), 1);
        assert_eq!(d.record_count(), 0);
    }

    #[test]
    fn questions_dropped_when_even_they_overflow() {
        let resp = sample_response();
        let (buf, tc) = resp.encode_udp(14); // header fits, question not
        assert!(tc);
        assert_eq!(buf.len(), 12);
        let d = Message::decode(&buf).unwrap();
        assert!(d.flags.truncated);
        assert_eq!(d.questions.len(), 0);
        assert_eq!(d.record_count(), 0);
        // Below the header itself: raw prefix, still within limit.
        let (buf, tc) = resp.encode_udp(5);
        assert!(tc);
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn tc_bit_set_on_every_truncated_variant() {
        let mut rng = SplitMix64::seed_from_u64(1234);
        for _ in 0..20 {
            let m = gen_message(&mut rng);
            let full = m.encode().len();
            for limit in 4..full {
                let (buf, tc) = m.encode_udp(limit);
                assert!(tc);
                // Flags byte 2 bit 0x02 is TC; visible whenever the
                // returned prefix reaches it.
                assert!(buf.len() >= 3, "limit {limit}");
                assert_eq!(buf[2] & 0x02, 0x02, "limit {limit}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_encodes() {
        let mut rng = SplitMix64::seed_from_u64(42);
        let mut scratch = crate::EncodeScratch::new();
        for _ in 0..60 {
            let m = gen_message(&mut rng);
            let reused = m.encode_into(&mut scratch).to_vec();
            let mut fresh = crate::EncodeScratch::new();
            assert_eq!(reused, m.encode_into(&mut fresh));
            assert_eq!(reused, m.encode());
            assert_eq!(Message::decode(&reused).unwrap(), m);
            let limit = 40 + (rng.next_u64() as usize % 200);
            let (a, tc_a) = m.encode_udp_into(limit, &mut scratch);
            let (a, tc_a) = (a.to_vec(), tc_a);
            let (b, tc_b) = m.encode_udp(limit);
            assert_eq!(a, b);
            assert_eq!(tc_a, tc_b);
        }
    }

    /// The decode the in-place OPT read replaced: every additional
    /// record decoded as a `Record`, then the first OPT lifted out and
    /// interpreted, then a second one refused.
    fn reference_decode(buf: &[u8]) -> Result<Message, WireError> {
        let mut r = WireReader::new(buf);
        let mut m = Message {
            id: r.get_u16()?,
            ..Message::default()
        };
        let f = r.get_u16()?;
        m.flags = Flags {
            response: f & 0x8000 != 0,
            authoritative: f & 0x0400 != 0,
            truncated: f & 0x0200 != 0,
            recursion_desired: f & 0x0100 != 0,
            recursion_available: f & 0x0080 != 0,
            authentic_data: f & 0x0020 != 0,
            checking_disabled: f & 0x0010 != 0,
        };
        m.opcode = Opcode::from_u8((f >> 11) as u8 & 0x0f);
        let counts = [r.get_u16()?, r.get_u16()?, r.get_u16()?, r.get_u16()?];
        for _ in 0..counts[0] {
            m.questions.push(Question {
                name: r.get_name()?,
                qtype: RecordType::from_u16(r.get_u16()?),
                qclass: RecordClass::from_u16(r.get_u16()?),
            });
        }
        for (count, section) in counts[1..].iter().zip([0, 1, 2]) {
            for _ in 0..*count {
                let rec = Record::decode(&mut r)?;
                [&mut m.answers, &mut m.authorities, &mut m.additionals][section].push(rec);
            }
        }
        if let Some(idx) = m
            .additionals
            .iter()
            .position(|rec| rec.rtype() == RecordType::OPT)
        {
            let opt = m.additionals.remove(idx);
            if !opt.name.is_root() {
                return Err(WireError::Invalid("OPT owner must be root"));
            }
            let RData::Unknown { data, .. } = &opt.rdata else {
                panic!("OPT decodes as unknown data")
            };
            let mut options = Vec::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                if rest.len() < 4 {
                    return Err(WireError::Truncated);
                }
                let code = u16::from_be_bytes([rest[0], rest[1]]);
                let len = u16::from_be_bytes([rest[2], rest[3]]) as usize;
                if rest.len() < 4 + len {
                    return Err(WireError::Truncated);
                }
                options.push((code, rest[4..4 + len].to_vec()));
                rest = &rest[4 + len..];
            }
            m.edns = Some(Edns {
                udp_payload: opt.class.to_u16(),
                ext_rcode_high: (opt.ttl >> 24) as u8,
                version: (opt.ttl >> 16) as u8,
                dnssec_ok: opt.ttl & 0x8000 != 0,
                z: (opt.ttl & 0x7fff) as u16,
                options,
            });
            if m.additionals
                .iter()
                .any(|rec| rec.rtype() == RecordType::OPT)
            {
                return Err(WireError::Invalid("multiple OPT records"));
            }
        }
        let high = m.edns.as_ref().map_or(0, |e| e.ext_rcode_high);
        m.rcode = Rcode::from_parts((f & 0x0f) as u8, high);
        Ok(m)
    }

    /// The adversarial shapes the OPT property must each reach.
    const OPT_BRANCHES: [&str; 7] = [
        "root owner as a pointer",
        "an owner other than the root",
        "two OPTs",
        "a truncated OPT",
        "OPT among other additionals",
        "OPT in the answer section",
        "options",
    ];

    /// An OPT record at the writer's end, in one of the shapes `seen`
    /// names: owner the root, a pointer to the question's root octet, or
    /// another name; zero to three options, the last one cut short or
    /// its length past the RDATA; RDLENGTH right or past the message.
    fn put_opt(
        g: &mut ldp_rng::check::Gen,
        w: &mut WireWriter,
        root_at: u16,
        seen: &mut Vec<&str>,
    ) {
        match g.below(6) {
            0 => {
                w.put_u16(0xc000 | root_at);
                seen.push("root owner as a pointer");
            }
            1 => {
                w.put_name_uncompressed(&n("opt.example"));
                seen.push("an owner other than the root");
            }
            _ => w.put_u8(0),
        }
        w.put_u16(RecordType::OPT.to_u16());
        w.put_u16(g.u16());
        w.put_u32(g.u32());
        let mut rdata = Vec::new();
        for _ in 0..g.size(0..=3) {
            seen.push("options");
            let value = g.bytes(0..=6);
            rdata.extend_from_slice(&g.u16().to_be_bytes());
            rdata.extend_from_slice(&(value.len() as u16).to_be_bytes());
            rdata.extend_from_slice(&value);
        }
        match g.below(6) {
            0 => {
                rdata.truncate(rdata.len().saturating_sub(g.size(1..=3)));
                seen.push("a truncated OPT");
            }
            1 => {
                rdata.extend_from_slice(&[0, 9, 0, 40, 1]);
                seen.push("a truncated OPT");
            }
            _ => {}
        }
        let past = if g.below(8) == 0 {
            seen.push("a truncated OPT");
            g.size(1..=4)
        } else {
            0
        };
        w.put_u16((rdata.len() + past) as u16);
        w.put_bytes(&rdata);
    }

    /// Reading OPT in place decodes every message as the record path did:
    /// the same message, or the same error. Over generated messages —
    /// OPT records whose owner is the root, a pointer to a root octet or
    /// another name, none, one or two of them among other additionals
    /// and sometimes one in the answer section, options well formed, cut
    /// short or longer than the RDATA, RDLENGTH past the end — each
    /// also corrupted or cut at random half the time; decoded fresh and
    /// into one long-lived message. Each adversarial shape is reached at
    /// least five times.
    #[test]
    fn decode_into_reads_opt_in_place_as_the_record_path_did() {
        let tally = std::cell::RefCell::new(std::collections::BTreeMap::<&str, u32>::new());
        let warm = std::cell::RefCell::new(Message::default());
        ldp_rng::check::check(512, |g| {
            let mut seen = Vec::new();
            let mut w = WireWriter::new();
            let qname = n(g.pick::<&str>(&["www.example", "x.y.example.com", "."]));
            let answers = g.size(0..=2);
            let adds = g.size(0..=4);
            w.put_u16(g.u16());
            w.put_u16(g.u16() & 0xff8f);
            for count in [1, answers, 0, adds] {
                w.put_u16(count as u16);
            }
            w.put_name_uncompressed(&qname);
            let root_at = w.len() as u16 - 1;
            w.put_u16(1);
            w.put_u16(1);
            let address = Record::new(qname.clone(), 60, RData::A([192, 0, 2, 1].into()));
            for _ in 0..answers {
                if g.below(6) == 0 {
                    put_opt(g, &mut w, root_at, &mut seen);
                    seen.push("OPT in the answer section");
                } else {
                    address.encode(&mut w);
                }
            }
            let mut opts = 0;
            for _ in 0..adds {
                if g.below(3) == 0 {
                    put_opt(g, &mut w, root_at, &mut seen);
                    opts += 1;
                } else {
                    address.encode(&mut w);
                }
            }
            if opts > 1 {
                seen.push("two OPTs");
            }
            if opts > 0 && adds > opts {
                seen.push("OPT among other additionals");
            }
            let mut wire = w.into_bytes();
            if g.bool() {
                wire = g.corrupt(wire);
            }
            let want = reference_decode(&wire);
            assert_eq!(Message::decode(&wire), want, "{wire:?}");
            let mut warm = warm.borrow_mut();
            let got = warm.decode_into(&wire);
            assert_eq!(got, want.as_ref().map(|_| ()).map_err(Clone::clone));
            if let Ok(want) = &want {
                assert_eq!(*warm, *want);
            }
            let mut tally = tally.borrow_mut();
            for shape in seen {
                *tally.entry(shape).or_default() += 1;
            }
        });
        let tally = tally.into_inner();
        for shape in OPT_BRANCHES {
            let n = tally.get(shape).copied().unwrap_or(0);
            assert!(n >= 5, "{shape}: {n} cases in {tally:?}");
        }
    }
}
