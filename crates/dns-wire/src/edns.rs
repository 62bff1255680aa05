//! EDNS(0) support (RFC 6891): the OPT pseudo-record, advertised UDP
//! payload size, the DO (DNSSEC OK) bit and extended RCODE bits.
//!
//! The DO bit is central to the paper's §5.1 experiment (what if every
//! query set DO?), so the mutator manipulates this structure directly.

use crate::name::Name;
use crate::rdata::RData;
use crate::record::Record;
use crate::types::{RecordClass, RecordType};
use crate::wire::WireError;

/// Default advertised UDP payload size used by modern resolvers.
pub const DEFAULT_UDP_PAYLOAD: u16 = 4096;
/// Classic (pre-EDNS) maximum UDP DNS message size.
pub const CLASSIC_UDP_LIMIT: usize = 512;

/// Parsed EDNS(0) state extracted from (or to be rendered as) an OPT
/// pseudo-record in the additional section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edns {
    /// Sender's maximum acceptable UDP payload (OPT CLASS field).
    pub udp_payload: u16,
    /// Extended RCODE high bits (OPT TTL byte 0).
    pub ext_rcode_high: u8,
    /// EDNS version (OPT TTL byte 1); 0 is the only deployed version.
    pub version: u8,
    /// DNSSEC OK flag (top bit of OPT TTL bytes 2-3).
    pub dnssec_ok: bool,
    /// Remaining Z flag bits (15 bits, normally zero).
    pub z: u16,
    /// Raw EDNS options (code/value pairs), kept opaque.
    pub options: Vec<(u16, Vec<u8>)>,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload: DEFAULT_UDP_PAYLOAD,
            ext_rcode_high: 0,
            version: 0,
            dnssec_ok: false,
            z: 0,
            options: Vec::new(),
        }
    }
}

impl Edns {
    /// A default EDNS block with the DO bit set.
    pub fn with_do() -> Self {
        Edns {
            dnssec_ok: true,
            ..Default::default()
        }
    }

    /// The EDNS of a response to a query that carries this one: this
    /// server's payload size, version 0, the query's DO bit, no options.
    pub(crate) fn answering(&self) -> Edns {
        Edns {
            udp_payload: DEFAULT_UDP_PAYLOAD,
            dnssec_ok: self.dnssec_ok,
            ..Default::default()
        }
    }

    /// Render this EDNS state as the OPT record that carries it.
    pub fn to_record(&self) -> Record {
        let ttl = ((self.ext_rcode_high as u32) << 24)
            | ((self.version as u32) << 16)
            | (if self.dnssec_ok { 0x8000 } else { 0 })
            | (self.z as u32 & 0x7fff);
        let mut data = Vec::new();
        for (code, value) in &self.options {
            data.extend_from_slice(&code.to_be_bytes());
            data.extend_from_slice(&(value.len() as u16).to_be_bytes());
            data.extend_from_slice(value);
        }
        Record {
            name: Name::root(),
            class: RecordClass::Unknown(self.udp_payload),
            ttl,
            rdata: RData::Unknown {
                rtype: RecordType::OPT.to_u16(),
                data,
            },
        }
    }

    /// Encode this EDNS state as its OPT record directly into `w`, with
    /// the extended-RCODE high bits supplied by the message being
    /// encoded. Byte-identical to `self.to_record().encode(w)` (after
    /// patching `ext_rcode_high`) but allocates nothing.
    pub fn encode_opt(&self, w: &mut crate::wire::WireWriter, ext_rcode_high: u8) {
        w.put_name(&Name::root());
        w.put_u16(RecordType::OPT.to_u16());
        w.put_u16(self.udp_payload);
        let ttl = ((ext_rcode_high as u32) << 24)
            | ((self.version as u32) << 16)
            | (if self.dnssec_ok { 0x8000 } else { 0 })
            | (self.z as u32 & 0x7fff);
        w.put_u32(ttl);
        let len_pos = w.len();
        w.put_u16(0);
        let start = w.len();
        for (code, value) in &self.options {
            w.put_u16(*code);
            w.put_u16(value.len().min(u16::MAX as usize) as u16);
            w.put_bytes(value);
        }
        let rdlength = w.len() - start;
        w.patch_u16(len_pos, rdlength.min(u16::MAX as usize) as u16);
    }

    /// Interpret an OPT record from the additional section: the
    /// decode-as-a-record path the in-place read replaced, kept as the
    /// reference its tests compare with.
    #[cfg(test)]
    pub(crate) fn from_record(rec: &Record) -> Result<Edns, WireError> {
        if rec.rtype() != RecordType::OPT {
            return Err(WireError::Invalid("not an OPT record"));
        }
        let data = match &rec.rdata {
            RData::Unknown { data, .. } => data.as_slice(),
            _ => &[],
        };
        let mut edns = Edns::default();
        edns.read_opt(&rec.name, rec.class.to_u16(), rec.ttl, data)?;
        Ok(edns)
    }

    /// Overwrite this state with an OPT record's owner, CLASS, TTL and
    /// RDATA, read where they lie in a message: the options go into the
    /// storage the last ones left. `Err` exactly where
    /// `Edns::from_record` of the same record is; the state is then
    /// unspecified.
    pub(crate) fn read_opt(
        &mut self,
        owner: &Name,
        udp_payload: u16,
        ttl: u32,
        data: &[u8],
    ) -> Result<(), WireError> {
        if !owner.is_root() {
            return Err(WireError::Invalid("OPT owner must be root"));
        }
        self.udp_payload = udp_payload;
        self.ext_rcode_high = (ttl >> 24) as u8;
        self.version = (ttl >> 16) as u8;
        self.dnssec_ok = ttl & 0x8000 != 0;
        self.z = (ttl & 0x7fff) as u16;
        self.options.clear();
        let mut rest = data;
        while let [c0, c1, l0, l1, tail @ ..] = rest {
            let len = usize::from(u16::from_be_bytes([*l0, *l1]));
            let value = tail.get(..len).ok_or(WireError::Truncated)?;
            self.options
                .push((u16::from_be_bytes([*c0, *c1]), value.to_vec()));
            rest = &tail[len..];
        }
        if rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_record_round_trip() {
        let e = Edns::default();
        let rec = e.to_record();
        assert_eq!(Edns::from_record(&rec).unwrap(), e);
    }

    #[test]
    fn do_bit_round_trip() {
        let e = Edns::with_do();
        assert!(e.dnssec_ok);
        let rec = e.to_record();
        assert_eq!(rec.ttl & 0x8000, 0x8000);
        assert!(Edns::from_record(&rec).unwrap().dnssec_ok);
    }

    #[test]
    fn payload_size_in_class_field() {
        let e = Edns {
            udp_payload: 1232,
            ..Default::default()
        };
        let rec = e.to_record();
        assert_eq!(rec.class.to_u16(), 1232);
        assert_eq!(Edns::from_record(&rec).unwrap().udp_payload, 1232);
    }

    #[test]
    fn extended_rcode_and_version() {
        let e = Edns {
            ext_rcode_high: 1,
            version: 0,
            ..Default::default()
        };
        let rec = e.to_record();
        assert_eq!(rec.ttl >> 24, 1);
        assert_eq!(Edns::from_record(&rec).unwrap().ext_rcode_high, 1);
    }

    #[test]
    fn options_round_trip() {
        let e = Edns {
            options: vec![
                (10, vec![1, 2, 3, 4, 5, 6, 7, 8]),
                (8, vec![0, 1, 24, 0, 1, 2, 3]),
            ],
            ..Default::default()
        };
        let rec = e.to_record();
        assert_eq!(Edns::from_record(&rec).unwrap().options, e.options);
    }

    #[test]
    fn encode_opt_matches_record_path() {
        use crate::wire::WireWriter;
        let variants = [
            Edns::default(),
            Edns::with_do(),
            Edns {
                udp_payload: 1232,
                z: 0x1a2,
                ..Default::default()
            },
            Edns {
                options: vec![(10, vec![1, 2, 3, 4, 5, 6, 7, 8]), (8, vec![0, 1, 24, 0])],
                ..Default::default()
            },
        ];
        for e in variants {
            for high in [0u8, 1, 0xff] {
                let mut via_record = e.clone();
                via_record.ext_rcode_high = high;
                let mut w1 = WireWriter::new();
                via_record.to_record().encode(&mut w1);
                let mut w2 = WireWriter::new();
                e.encode_opt(&mut w2, high);
                assert_eq!(w1.into_bytes(), w2.into_bytes());
            }
        }
    }

    #[test]
    fn non_opt_rejected() {
        let rec = Record::new(Name::root(), 0, RData::A("1.2.3.4".parse().unwrap()));
        assert!(Edns::from_record(&rec).is_err());
    }

    #[test]
    fn non_root_owner_rejected() {
        let mut rec = Edns::default().to_record();
        rec.name = "x.example.".parse().unwrap();
        assert!(Edns::from_record(&rec).is_err());
    }

    #[test]
    fn truncated_option_rejected() {
        let mut rec = Edns::default().to_record();
        rec.rdata = RData::Unknown {
            rtype: RecordType::OPT.to_u16(),
            data: vec![0, 10, 0, 9, 1], // claims 9 bytes, has 1
        };
        assert!(Edns::from_record(&rec).is_err());
    }
}
