//! Classic libpcap file format, implemented from scratch: global header
//! plus per-packet headers, with Ethernet/IPv4/UDP (and simplified TCP)
//! encapsulation of DNS messages.
//!
//! This is the "network trace" input of the paper's Figure 3 pipeline.
//! Writing always emits one DNS message per packet (TCP messages carry
//! the RFC 7766 2-byte length prefix); reading tolerates both orders of
//! magic (big/little endian) and skips non-DNS packets rather than
//! failing, since real captures contain ARP/ICMP noise.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};

use dns_wire::{Message, Transport};

use crate::entry::TraceEntry;

const PCAP_MAGIC_LE: u32 = 0xa1b2c3d4; // stored LE in our writer
const LINKTYPE_ETHERNET: u32 = 1;
const ETHERTYPE_IPV4: u16 = 0x0800;

/// Errors reading a pcap file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// Too short or bad magic.
    BadHeader,
    /// Truncated packet record.
    Truncated,
    /// Unsupported link type.
    UnsupportedLinkType(u32),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::BadHeader => write!(f, "bad pcap global header"),
            PcapError::Truncated => write!(f, "truncated pcap record"),
            PcapError::UnsupportedLinkType(l) => write!(f, "unsupported link type {l}"),
        }
    }
}

impl std::error::Error for PcapError {}

/// Serialize a trace as a pcap file (Ethernet/IPv4; IPv6 entries are
/// skipped with a count returned).
///
/// Lossiness note: TLS entries serialize as TCP frames (a capture shows
/// TCP); on read they come back as [`Transport::Tls`] only when a port
/// is 853. The binary format ([`crate::binfmt`]) is the lossless one.
pub fn write_pcap(entries: &[TraceEntry]) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(24 + entries.len() * 128);
    // Global header.
    out.extend_from_slice(&PCAP_MAGIC_LE.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // version major
    out.extend_from_slice(&4u16.to_le_bytes()); // version minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());

    let mut skipped = 0;
    for e in entries {
        let (IpAddr::V4(src_ip), IpAddr::V4(dst_ip)) = (e.src.ip(), e.dst.ip()) else {
            skipped += 1;
            continue;
        };
        let dns = e.message.encode();
        let l4 = build_l4(e.transport, e.src.port(), e.dst.port(), &dns);
        let ip = build_ipv4(src_ip, dst_ip, e.transport, &l4);
        let frame_len = 14 + ip.len();
        out.extend_from_slice(&((e.time_us / 1_000_000) as u32).to_le_bytes());
        out.extend_from_slice(&((e.time_us % 1_000_000) as u32).to_le_bytes());
        out.extend_from_slice(&(frame_len as u32).to_le_bytes());
        out.extend_from_slice(&(frame_len as u32).to_le_bytes());
        // Ethernet header: synthetic MACs.
        out.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]);
        out.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]);
        out.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
        out.extend_from_slice(&ip);
    }
    (out, skipped)
}

fn build_l4(transport: Transport, sport: u16, dport: u16, dns: &[u8]) -> Vec<u8> {
    match transport {
        Transport::Udp => {
            let mut out = Vec::with_capacity(8 + dns.len());
            out.extend_from_slice(&sport.to_be_bytes());
            out.extend_from_slice(&dport.to_be_bytes());
            out.extend_from_slice(&((8 + dns.len()) as u16).to_be_bytes());
            out.extend_from_slice(&0u16.to_be_bytes()); // checksum 0 = unset
            out.extend_from_slice(dns);
            out
        }
        Transport::Tcp | Transport::Tls => {
            // Minimal TCP header (20 bytes, PSH|ACK) + length-prefixed DNS.
            let mut out = Vec::with_capacity(22 + dns.len());
            out.extend_from_slice(&sport.to_be_bytes());
            out.extend_from_slice(&dport.to_be_bytes());
            out.extend_from_slice(&1u32.to_be_bytes()); // seq
            out.extend_from_slice(&1u32.to_be_bytes()); // ack
            out.push(5 << 4); // data offset 5 words
            out.push(0x18); // PSH|ACK
            out.extend_from_slice(&65535u16.to_be_bytes()); // window
            out.extend_from_slice(&0u16.to_be_bytes()); // checksum
            out.extend_from_slice(&0u16.to_be_bytes()); // urgent
            out.extend_from_slice(&(dns.len() as u16).to_be_bytes());
            out.extend_from_slice(dns);
            out
        }
    }
}

fn build_ipv4(src: Ipv4Addr, dst: Ipv4Addr, transport: Transport, l4: &[u8]) -> Vec<u8> {
    let total = 20 + l4.len();
    let mut out = Vec::with_capacity(total);
    out.push(0x45); // v4, IHL 5
    out.push(0);
    out.extend_from_slice(&(total as u16).to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes()); // id
    out.extend_from_slice(&0u16.to_be_bytes()); // flags/frag
    out.push(64); // ttl
    out.push(match transport {
        Transport::Udp => 17,
        Transport::Tcp | Transport::Tls => 6,
    });
    out.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    out.extend_from_slice(&src.octets());
    out.extend_from_slice(&dst.octets());
    // Fill in the header checksum.
    let cksum = ipv4_checksum(&out[..20]);
    out[10..12].copy_from_slice(&cksum.to_be_bytes());
    out.extend_from_slice(l4);
    out
}

/// RFC 1071 internet checksum over an IPv4 header.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for chunk in header.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]])
        } else {
            u16::from_be_bytes([chunk[0], 0])
        };
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Parse a pcap file into trace entries. Non-DNS and unparseable
/// packets are counted and skipped, not fatal.
pub fn parse_pcap(buf: &[u8]) -> Result<(Vec<TraceEntry>, usize), PcapError> {
    if buf.len() < 24 {
        return Err(PcapError::BadHeader);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    let (le, ns_res) = match magic {
        0xa1b2c3d4 => (true, false),
        0xd4c3b2a1 => (false, false),
        0xa1b23c4d => (true, true),
        0x4d3cb2a1 => (false, true),
        _ => return Err(PcapError::BadHeader),
    };
    let read_u32 = |b: &[u8]| -> u32 {
        let arr: [u8; 4] = b.try_into().unwrap();
        if le {
            u32::from_le_bytes(arr)
        } else {
            u32::from_be_bytes(arr)
        }
    };
    let linktype = read_u32(&buf[20..24]);
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::UnsupportedLinkType(linktype));
    }
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    let mut pos = 24;
    while pos + 16 <= buf.len() {
        let ts_sec = read_u32(&buf[pos..pos + 4]) as u64;
        let ts_frac = read_u32(&buf[pos + 4..pos + 8]) as u64;
        let incl = read_u32(&buf[pos + 8..pos + 12]) as usize;
        pos += 16;
        if pos + incl > buf.len() {
            return Err(PcapError::Truncated);
        }
        let frame = &buf[pos..pos + incl];
        pos += incl;
        let time_us = ts_sec * 1_000_000 + if ns_res { ts_frac / 1000 } else { ts_frac };
        match parse_frame(frame, time_us) {
            Some(e) => entries.push(e),
            None => skipped += 1,
        }
    }
    Ok((entries, skipped))
}

fn parse_frame(frame: &[u8], time_us: u64) -> Option<TraceEntry> {
    if frame.len() < 14 {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != ETHERTYPE_IPV4 {
        return None;
    }
    let ip = &frame[14..];
    if ip.len() < 20 || ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = ((ip[0] & 0x0f) as usize) * 4;
    let proto = ip[9];
    let src_ip = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst_ip = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    let l4 = &ip[ihl..];
    let (transport, sport, dport, dns) = match proto {
        17 => {
            if l4.len() < 8 {
                return None;
            }
            let sport = u16::from_be_bytes([l4[0], l4[1]]);
            let dport = u16::from_be_bytes([l4[2], l4[3]]);
            (Transport::Udp, sport, dport, &l4[8..])
        }
        6 => {
            if l4.len() < 20 {
                return None;
            }
            let sport = u16::from_be_bytes([l4[0], l4[1]]);
            let dport = u16::from_be_bytes([l4[2], l4[3]]);
            let offset = ((l4[12] >> 4) as usize) * 4;
            if l4.len() < offset + 2 {
                return None;
            }
            let seg = &l4[offset..];
            // Our writer length-prefixes; require a consistent prefix.
            let dns_len = u16::from_be_bytes([seg[0], seg[1]]) as usize;
            if seg.len() < 2 + dns_len {
                return None;
            }
            // DNS-over-TLS is indistinguishable from TCP in a cleartext
            // capture except by its well-known port (853, RFC 7858).
            let transport = if sport == 853 || dport == 853 {
                Transport::Tls
            } else {
                Transport::Tcp
            };
            (transport, sport, dport, &seg[2..2 + dns_len])
        }
        _ => return None,
    };
    let message = Message::decode(dns).ok()?;
    Some(TraceEntry {
        time_us,
        src: SocketAddr::new(IpAddr::V4(src_ip), sport),
        dst: SocketAddr::new(IpAddr::V4(dst_ip), dport),
        transport,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::RecordType;

    fn sample(i: u64, tcp: bool) -> TraceEntry {
        let mut e = TraceEntry::query(
            1_461_234_567_000_000 + i * 1000,
            format!("192.168.0.{}:53{}", 1 + i % 200, i % 10)
                .parse()
                .unwrap(),
            "198.41.0.4:53".parse().unwrap(),
            i as u16,
            format!("q{i}.example.com").parse().unwrap(),
            RecordType::A,
        );
        if tcp {
            e.transport = Transport::Tcp;
        }
        e
    }

    #[test]
    fn udp_round_trip() {
        let entries: Vec<TraceEntry> = (0..10).map(|i| sample(i, false)).collect();
        let (buf, skipped) = write_pcap(&entries);
        assert_eq!(skipped, 0);
        let (back, bad) = parse_pcap(&buf).unwrap();
        assert_eq!(bad, 0);
        assert_eq!(back, entries);
    }

    #[test]
    fn tcp_round_trip() {
        let entries: Vec<TraceEntry> = (0..10).map(|i| sample(i, true)).collect();
        let (buf, _) = write_pcap(&entries);
        let (back, bad) = parse_pcap(&buf).unwrap();
        assert_eq!(bad, 0);
        assert_eq!(back, entries);
    }

    #[test]
    fn timestamps_preserved_to_microseconds() {
        let e = sample(7, false);
        let (buf, _) = write_pcap(std::slice::from_ref(&e));
        let (back, _) = parse_pcap(&buf).unwrap();
        assert_eq!(back[0].time_us, e.time_us);
    }

    #[test]
    fn ipv6_entries_skipped_on_write() {
        let mut e = sample(0, false);
        e.src = "[2001:db8::1]:5353".parse().unwrap();
        let (buf, skipped) = write_pcap(&[e]);
        assert_eq!(skipped, 1);
        let (back, _) = parse_pcap(&buf).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(parse_pcap(&[0u8; 24]), Err(PcapError::BadHeader));
        assert_eq!(parse_pcap(&[0u8; 3]), Err(PcapError::BadHeader));
    }

    #[test]
    fn non_dns_packets_skipped() {
        let entries = vec![sample(0, false)];
        let (mut buf, _) = write_pcap(&entries);
        // Append an ARP-ish frame: valid record header, ethertype 0x0806.
        let frame = {
            let mut f = vec![0u8; 14];
            f[12] = 0x08;
            f[13] = 0x06;
            f
        };
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&frame);
        let (back, skipped) = parse_pcap(&buf).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn truncated_record_rejected() {
        let (buf, _) = write_pcap(&[sample(0, false)]);
        let r = parse_pcap(&buf[..buf.len() - 3]);
        assert_eq!(r, Err(PcapError::Truncated));
    }

    #[test]
    fn checksum_known_vector() {
        // Wikipedia's classic IPv4 header checksum example.
        let header = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(ipv4_checksum(&header), 0xb861);
    }

    #[test]
    fn checksum_validates_written_headers() {
        let (buf, _) = write_pcap(&[sample(3, false)]);
        // First packet's IP header starts at 24 (global) + 16 (rec) + 14 (eth).
        let ip = &buf[54..74];
        // Checksum over a correct header (with its checksum field) is 0.
        assert_eq!(ipv4_checksum(ip), 0);
    }
}
