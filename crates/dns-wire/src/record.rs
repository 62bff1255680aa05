//! A resource record: owner name, class, TTL and RDATA.

use std::fmt;

use crate::name::Name;
use crate::rdata::RData;
use crate::types::{RecordClass, RecordType};
use crate::wire::{WireError, WireReader, WireWriter};

/// One DNS resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Record class (almost always `IN`).
    pub class: RecordClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// The typed record data.
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor for `IN`-class records.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: RecordClass::IN,
            ttl,
            rdata,
        }
    }

    /// The record type, derived from the RDATA.
    pub fn rtype(&self) -> RecordType {
        self.rdata.record_type()
    }

    /// Serialize this record (owner name may be compressed; RDLENGTH is
    /// patched in after the RDATA is written).
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_name(&self.name);
        w.put_u16(self.rtype().to_u16());
        w.put_u16(self.class.to_u16());
        w.put_u32(self.ttl);
        let len_pos = w.len();
        w.put_u16(0);
        let start = w.len();
        self.rdata.encode(w);
        // Saturate rather than wrap: a >64KiB RDATA cannot round-trip
        // anyway, but a wrapped length would silently mis-frame it.
        let rdlength = w.len() - start;
        w.patch_u16(len_pos, rdlength.min(u16::MAX as usize) as u16);
    }

    /// Decode one record at the reader's cursor.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Record, WireError> {
        let name = r.get_name()?;
        let rtype = RecordType::from_u16(r.get_u16()?);
        Record::decode_body(name, rtype, r)
    }

    /// The rest of [`Record::decode`] once the owner and the type have
    /// been read.
    pub(crate) fn decode_body(
        name: Name,
        rtype: RecordType,
        r: &mut WireReader<'_>,
    ) -> Result<Record, WireError> {
        let class = RecordClass::from_u16(r.get_u16()?);
        let ttl = r.get_u32()?;
        let rdlength = r.get_u16()? as usize;
        if r.remaining() < rdlength {
            return Err(WireError::Truncated);
        }
        let rdata = RData::decode(rtype, rdlength, r)?;
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }

    /// Size of this record in uncompressed wire form.
    pub fn wire_len(&self) -> usize {
        self.name.wire_len() + 10 + self.rdata.wire_len()
    }
}

impl fmt::Display for Record {
    /// Master-file presentation line: `name ttl class type rdata`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\t{}\t{}\t{}\t{}",
            self.name,
            self.ttl,
            self.class,
            self.rtype(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A record is at most 128 bytes: zones, messages and cache entries
    /// hold records by value, so a type that grows fails here before it
    /// moves a benchmark's heap.
    #[test]
    fn a_record_is_at_most_128_bytes() {
        let size = std::mem::size_of::<Record>();
        assert!(size <= 128, "a record is {size} bytes");
    }

    #[test]
    fn record_wire_round_trip() {
        let rec = Record::new(
            n("www.example.com"),
            3600,
            RData::A("10.0.0.1".parse().unwrap()),
        );
        let mut w = WireWriter::new();
        rec.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(Record::decode(&mut r).unwrap(), rec);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn wire_len_matches_uncompressed_encode() {
        let rec = Record::new(
            n("mail.example.com"),
            300,
            RData::Mx {
                preference: 10,
                exchange: n("mx.example.com"),
            },
        );
        let mut w = WireWriter::new_uncompressed();
        rec.encode(&mut w);
        assert_eq!(rec.wire_len(), w.len());
    }

    #[test]
    fn display_has_all_fields() {
        let rec = Record::new(n("example.com"), 60, RData::Ns(n("ns1.example.com")));
        let s = rec.to_string();
        assert!(s.contains("example.com."));
        assert!(s.contains("60"));
        assert!(s.contains("IN"));
        assert!(s.contains("NS"));
        assert!(s.contains("ns1.example.com."));
    }

    #[test]
    fn truncated_rdata_rejected() {
        let rec = Record::new(n("a.example"), 1, RData::A("1.1.1.1".parse().unwrap()));
        let mut w = WireWriter::new();
        rec.encode(&mut w);
        let mut buf = w.into_bytes();
        buf.truncate(buf.len() - 2);
        let mut r = WireReader::new(&buf);
        assert!(Record::decode(&mut r).is_err());
    }
}
