//! The customized binary stream of internal messages (paper §2.5,
//! Figure 3): each record is length-prefixed so the replay engine can
//! stream-parse it with no per-record allocation surprises; the DNS
//! message itself is embedded in wire form, making the format lossless
//! (unlike the text format) and fast to decode.
//!
//! Record layout (all integers big-endian):
//!
//! ```text
//! u16 record_len   (bytes after this field)
//! u64 time_us
//! u8  addr_kind    (4 or 6)
//! src ip (4/16 bytes), u16 src_port
//! dst ip (4/16 bytes), u16 dst_port
//! u8  transport    (0=UDP 1=TCP 2=TLS)
//! u16 msg_len, msg bytes (DNS wire format)
//! ```

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use dns_wire::{Message, Transport};

use crate::entry::TraceEntry;

/// Errors writing or decoding the binary stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The stream ended mid-record.
    Truncated,
    /// Entry `index`'s message encodes to `bytes` bytes, more than its
    /// record's u16 length can count (65,511 for IPv4, 65,487 for IPv6).
    TooLong {
        /// The entry's position in the trace.
        index: usize,
        /// Its encoded message's length.
        bytes: usize,
    },
    /// A field held an invalid value.
    Invalid(&'static str),
    /// The embedded DNS message failed to parse.
    BadMessage(String),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Truncated => write!(f, "binary stream truncated"),
            BinError::TooLong { index, bytes } => write!(
                f,
                "entry {index}: a {bytes}-byte message does not fit a binary record"
            ),
            BinError::Invalid(what) => write!(f, "invalid field: {what}"),
            BinError::BadMessage(e) => write!(f, "bad DNS message: {e}"),
        }
    }
}

impl std::error::Error for BinError {}

fn put_addr(out: &mut Vec<u8>, addr: SocketAddr) {
    match addr.ip() {
        IpAddr::V4(v4) => out.extend_from_slice(&v4.octets()),
        IpAddr::V6(v6) => out.extend_from_slice(&v6.octets()),
    }
    out.extend_from_slice(&addr.port().to_be_bytes());
}

/// Append entry `index` to `out`, or refuse it when its record would be
/// longer than the record's u16 length field counts.
fn append_record(out: &mut Vec<u8>, entry: &TraceEntry, index: usize) -> Result<(), BinError> {
    let msg = entry.message.encode();
    let kind: u8 = match (entry.src.ip(), entry.dst.ip()) {
        (IpAddr::V4(_), IpAddr::V4(_)) => 4,
        _ => 6,
    };
    // With mixed families, promote v4 to mapped v6 for a uniform layout.
    let (src, dst) = if kind == 6 {
        (promote(entry.src), promote(entry.dst))
    } else {
        (entry.src, entry.dst)
    };
    let addr_len = if kind == 4 { 4 } else { 16 };
    let record_len = 8 + 1 + 2 * (addr_len + 2) + 1 + 2 + msg.len();
    let record_len = u16::try_from(record_len).map_err(|_| BinError::TooLong {
        index,
        bytes: msg.len(),
    })?;
    out.extend_from_slice(&record_len.to_be_bytes());
    out.extend_from_slice(&entry.time_us.to_be_bytes());
    out.push(kind);
    put_addr(out, src);
    put_addr(out, dst);
    out.push(match entry.transport {
        Transport::Udp => 0,
        Transport::Tcp => 1,
        Transport::Tls => 2,
    });
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(&msg);
    Ok(())
}

fn promote(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(v4) => SocketAddr::new(IpAddr::V6(v4.to_ipv6_mapped()), addr.port()),
        IpAddr::V6(_) => addr,
    }
}

/// Serialize a whole trace, refusing it if an entry's message is too
/// long for its record ([`BinError::TooLong`]).
pub fn write_binary(entries: &[TraceEntry]) -> Result<Vec<u8>, BinError> {
    let mut out = Vec::with_capacity(entries.len() * 96);
    for (index, e) in entries.iter().enumerate() {
        append_record(&mut out, e, index)?;
    }
    Ok(out)
}

/// A streaming reader over the binary format.
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Reader over a complete buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < n {
            return Err(BinError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decode the next record, or `None` at a clean end of stream.
    fn next_record(&mut self) -> Result<Option<TraceEntry>, BinError> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let len = u16::from_be_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let body = self.take(len)?;
        let mut p = 0usize;
        let mut field = |n: usize| -> Result<&[u8], BinError> {
            if body.len() < p + n {
                return Err(BinError::Truncated);
            }
            let s = &body[p..p + n];
            p += n;
            Ok(s)
        };
        let time_us = u64::from_be_bytes(field(8)?.try_into().unwrap());
        let kind = field(1)?[0];
        let addr_len = match kind {
            4 => 4,
            6 => 16,
            _ => return Err(BinError::Invalid("addr kind")),
        };
        let src_ip = parse_ip(field(addr_len)?, kind)?;
        let src_port = u16::from_be_bytes(field(2)?.try_into().unwrap());
        let dst_ip = parse_ip(field(addr_len)?, kind)?;
        let dst_port = u16::from_be_bytes(field(2)?.try_into().unwrap());
        let transport = match field(1)?[0] {
            0 => Transport::Udp,
            1 => Transport::Tcp,
            2 => Transport::Tls,
            _ => return Err(BinError::Invalid("transport")),
        };
        let msg_len = u16::from_be_bytes(field(2)?.try_into().unwrap()) as usize;
        let msg_bytes = field(msg_len)?;
        if p != body.len() {
            return Err(BinError::Invalid("record length mismatch"));
        }
        let message =
            Message::decode(msg_bytes).map_err(|e| BinError::BadMessage(e.to_string()))?;
        Ok(Some(TraceEntry {
            time_us,
            src: SocketAddr::new(src_ip, src_port),
            dst: SocketAddr::new(dst_ip, dst_port),
            transport,
            message,
        }))
    }

    /// Decode every record.
    fn read_all(&mut self) -> Result<Vec<TraceEntry>, BinError> {
        let mut out = Vec::new();
        while let Some(e) = self.next_record()? {
            out.push(e);
        }
        Ok(out)
    }
}

fn parse_ip(bytes: &[u8], kind: u8) -> Result<IpAddr, BinError> {
    Ok(match kind {
        4 => IpAddr::V4(Ipv4Addr::new(bytes[0], bytes[1], bytes[2], bytes[3])),
        6 => {
            let mut o = [0u8; 16];
            o.copy_from_slice(bytes);
            IpAddr::V6(Ipv6Addr::from(o))
        }
        _ => return Err(BinError::Invalid("addr kind")),
    })
}

/// Parse a whole binary trace.
pub fn parse_binary(buf: &[u8]) -> Result<Vec<TraceEntry>, BinError> {
    BinReader::new(buf).read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::RecordType;

    fn sample(i: u64) -> TraceEntry {
        let mut e = TraceEntry::query(
            1_000_000 + i,
            "10.0.0.1:5301".parse().unwrap(),
            "10.0.0.9:53".parse().unwrap(),
            i as u16,
            format!("q{i}.example.com").parse().unwrap(),
            RecordType::A,
        );
        if i.is_multiple_of(2) {
            e.transport = Transport::Tcp;
        }
        if i.is_multiple_of(3) {
            e.message.set_dnssec_ok(true);
        }
        e
    }

    #[test]
    fn round_trip_many() {
        let entries: Vec<TraceEntry> = (0..50).map(sample).collect();
        let buf = write_binary(&entries).unwrap();
        let back = parse_binary(&buf).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn ipv6_and_mixed_families() {
        let mut e = sample(1);
        e.src = "[2001:db8::1]:5353".parse().unwrap();
        let buf = write_binary(&[e.clone()]).unwrap();
        let back = parse_binary(&buf).unwrap();
        assert_eq!(back[0].src, e.src);
        // v4 dst was promoted to a mapped v6 address.
        match back[0].dst.ip() {
            IpAddr::V6(v6) => assert_eq!(v6.to_ipv4_mapped().unwrap().to_string(), "10.0.0.9"),
            other => panic!("expected mapped v6, got {other}"),
        }
    }

    #[test]
    fn streaming_reader_yields_in_order() {
        let entries: Vec<TraceEntry> = (0..5).map(sample).collect();
        let buf = write_binary(&entries).unwrap();
        let mut reader = BinReader::new(&buf);
        for want in &entries {
            let got = reader.next_record().unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn truncated_stream_rejected() {
        let buf = write_binary(&[sample(0)]).unwrap();
        for cut in 1..buf.len() {
            let r = parse_binary(&buf[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn garbage_transport_rejected() {
        let mut buf = write_binary(&[sample(1)]).unwrap();
        // transport byte is at: 2 + 8 + 1 + (4+2)*2 = 23.
        buf[23] = 9;
        assert!(matches!(
            parse_binary(&buf),
            Err(BinError::Invalid("transport"))
        ));
    }

    #[test]
    fn empty_stream_is_empty_trace() {
        assert_eq!(parse_binary(&[]).unwrap().len(), 0);
    }

    #[test]
    fn lossless_for_responses() {
        // Unlike the text format, the binary format must preserve full
        // response bodies.
        use dns_wire::{RData, Record};
        let mut e = sample(2);
        let mut resp = e.message.response_to();
        resp.answers.push(Record::new(
            "q2.example.com".parse().unwrap(),
            60,
            RData::A("1.2.3.4".parse().unwrap()),
        ));
        e.message = resp;
        let back = parse_binary(&write_binary(&[e.clone()]).unwrap()).unwrap();
        assert_eq!(back[0].message.answers.len(), 1);
        assert_eq!(back[0], e);
    }

    /// An entry between `src` and `dst` whose message encodes to `len`
    /// bytes: a query padded by one answer of opaque RDATA.
    fn entry_of_len([src, dst]: [&str; 2], len: usize) -> TraceEntry {
        use dns_wire::{RData, Record};
        let mut e = sample(1);
        (e.src, e.dst) = (src.parse().unwrap(), dst.parse().unwrap());
        let padded = |bytes: usize| {
            let mut m = e.message.clone();
            m.answers.push(Record::new(
                "q1.example.com".parse().unwrap(),
                60,
                RData::Unknown {
                    rtype: 65_280,
                    data: vec![0; bytes],
                },
            ));
            m
        };
        let bare = padded(0).encode().len();
        e.message = padded(len - bare);
        assert_eq!(e.message.encode().len(), len);
        e
    }

    #[test]
    fn a_message_longer_than_its_record_can_count_is_refused() {
        let v4 = ["10.0.0.1:5301", "10.0.0.9:53"];
        let v6 = ["[2001:db8::1]:5353", "[2001:db8::9]:53"];
        for (ends, most) in [(v4, 65_511), (v6, 65_487)] {
            let fits = [sample(0), entry_of_len(ends, most)];
            assert!(parse_binary(&write_binary(&fits).unwrap()).unwrap() == fits);
            let over = [sample(0), entry_of_len(ends, most + 1)];
            let refused = write_binary(&over).unwrap_err();
            assert_eq!(
                refused,
                BinError::TooLong {
                    index: 1,
                    bytes: most + 1
                }
            );
            assert!(refused.to_string().starts_with("entry 1: "), "{refused}");
        }
    }
}
