//! Fundamental DNS enumerations: record types, classes, opcodes and
//! response codes.
//!
//! All enums round-trip through their 16-bit (or 4-bit) wire values and
//! preserve unknown values so that traces containing exotic records can be
//! replayed unmodified.

use std::fmt;

/// DNS resource-record type (RFC 1035 §3.2.2 and successors).
///
/// Unknown type codes are preserved in [`RecordType::Unknown`] so that
/// parsing a trace never loses information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 host address (RFC 1035).
    A,
    /// Authoritative name server (RFC 1035).
    NS,
    /// Canonical name alias (RFC 1035).
    CNAME,
    /// Start of a zone of authority (RFC 1035).
    SOA,
    /// Domain name pointer, used for reverse lookups (RFC 1035).
    PTR,
    /// Mail exchange (RFC 1035).
    MX,
    /// Free-form text strings (RFC 1035).
    TXT,
    /// IPv6 host address (RFC 3596).
    AAAA,
    /// Service locator (RFC 2782).
    SRV,
    /// EDNS(0) pseudo-record (RFC 6891).
    OPT,
    /// Delegation signer (RFC 4034).
    DS,
    /// DNSSEC signature (RFC 4034).
    RRSIG,
    /// Next-secure record for authenticated denial (RFC 4034).
    NSEC,
    /// DNSSEC public key (RFC 4034).
    DNSKEY,
    /// Hashed next-secure record (RFC 5155).
    NSEC3,
    /// TLSA certificate association for DANE (RFC 6698).
    TLSA,
    /// Certification authority authorization (RFC 8659).
    CAA,
    /// Query for any record type (meta-type, RFC 8482 discouraged).
    ANY,
    /// Incremental zone transfer (meta-type).
    IXFR,
    /// Full zone transfer (meta-type).
    AXFR,
    /// Any type code not otherwise represented.
    Unknown(u16),
}

impl RecordType {
    /// The 16-bit wire value of this type.
    pub fn to_u16(self) -> u16 {
        use RecordType::*;
        match self {
            A => 1,
            NS => 2,
            CNAME => 5,
            SOA => 6,
            PTR => 12,
            MX => 15,
            TXT => 16,
            AAAA => 28,
            SRV => 33,
            OPT => 41,
            DS => 43,
            RRSIG => 46,
            NSEC => 47,
            DNSKEY => 48,
            NSEC3 => 50,
            TLSA => 52,
            IXFR => 251,
            AXFR => 252,
            ANY => 255,
            CAA => 257,
            Unknown(v) => v,
        }
    }

    /// Decode a 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        use RecordType::*;
        match v {
            1 => A,
            2 => NS,
            5 => CNAME,
            6 => SOA,
            12 => PTR,
            15 => MX,
            16 => TXT,
            28 => AAAA,
            33 => SRV,
            41 => OPT,
            43 => DS,
            46 => RRSIG,
            47 => NSEC,
            48 => DNSKEY,
            50 => NSEC3,
            52 => TLSA,
            251 => IXFR,
            252 => AXFR,
            255 => ANY,
            257 => CAA,
            other => Unknown(other),
        }
    }

    /// Parse the presentation-format mnemonic (`"A"`, `"AAAA"`, …).
    ///
    /// Accepts the RFC 3597 `TYPE<n>` form for unknown types.
    pub fn from_str_mnemonic(s: &str) -> Option<Self> {
        use RecordType::*;
        let upper = s.to_ascii_uppercase();
        Some(match upper.as_str() {
            "A" => A,
            "NS" => NS,
            "CNAME" => CNAME,
            "SOA" => SOA,
            "PTR" => PTR,
            "MX" => MX,
            "TXT" => TXT,
            "AAAA" => AAAA,
            "SRV" => SRV,
            "OPT" => OPT,
            "DS" => DS,
            "RRSIG" => RRSIG,
            "NSEC" => NSEC,
            "DNSKEY" => DNSKEY,
            "NSEC3" => NSEC3,
            "TLSA" => TLSA,
            "CAA" => CAA,
            "ANY" | "*" => ANY,
            "IXFR" => IXFR,
            "AXFR" => AXFR,
            _ => {
                let n = upper.strip_prefix("TYPE")?.parse::<u16>().ok()?;
                RecordType::from_u16(n)
            }
        })
    }

    /// True for DNSSEC-specific record types.
    pub fn is_dnssec(self) -> bool {
        matches!(
            self,
            RecordType::DS
                | RecordType::RRSIG
                | RecordType::NSEC
                | RecordType::DNSKEY
                | RecordType::NSEC3
        )
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use RecordType::*;
        match self {
            A => write!(f, "A"),
            NS => write!(f, "NS"),
            CNAME => write!(f, "CNAME"),
            SOA => write!(f, "SOA"),
            PTR => write!(f, "PTR"),
            MX => write!(f, "MX"),
            TXT => write!(f, "TXT"),
            AAAA => write!(f, "AAAA"),
            SRV => write!(f, "SRV"),
            OPT => write!(f, "OPT"),
            DS => write!(f, "DS"),
            RRSIG => write!(f, "RRSIG"),
            NSEC => write!(f, "NSEC"),
            DNSKEY => write!(f, "DNSKEY"),
            NSEC3 => write!(f, "NSEC3"),
            TLSA => write!(f, "TLSA"),
            CAA => write!(f, "CAA"),
            ANY => write!(f, "ANY"),
            IXFR => write!(f, "IXFR"),
            AXFR => write!(f, "AXFR"),
            Unknown(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// DNS class (RFC 1035 §3.2.4). `IN` in practice; `CH` survives for
/// `version.bind`-style diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordClass {
    /// The Internet.
    IN,
    /// Chaos, used for server diagnostics.
    CH,
    /// Hesiod.
    HS,
    /// Query-only class matching any class.
    ANY,
    /// RFC 2136 `NONE` class.
    NONE,
    /// Any class code not otherwise represented.
    Unknown(u16),
}

impl RecordClass {
    /// The 16-bit wire value of this class.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::IN => 1,
            RecordClass::CH => 3,
            RecordClass::HS => 4,
            RecordClass::NONE => 254,
            RecordClass::ANY => 255,
            RecordClass::Unknown(v) => v,
        }
    }

    /// Decode a 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::IN,
            3 => RecordClass::CH,
            4 => RecordClass::HS,
            254 => RecordClass::NONE,
            255 => RecordClass::ANY,
            other => RecordClass::Unknown(other),
        }
    }

    /// Parse the presentation-format mnemonic (`"IN"`, `"CH"`, …).
    pub fn from_str_mnemonic(s: &str) -> Option<Self> {
        let upper = s.to_ascii_uppercase();
        Some(match upper.as_str() {
            "IN" => RecordClass::IN,
            "CH" => RecordClass::CH,
            "HS" => RecordClass::HS,
            "NONE" => RecordClass::NONE,
            "ANY" | "*" => RecordClass::ANY,
            _ => {
                let n = upper.strip_prefix("CLASS")?.parse::<u16>().ok()?;
                RecordClass::from_u16(n)
            }
        })
    }
}

impl fmt::Display for RecordClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordClass::IN => write!(f, "IN"),
            RecordClass::CH => write!(f, "CH"),
            RecordClass::HS => write!(f, "HS"),
            RecordClass::NONE => write!(f, "NONE"),
            RecordClass::ANY => write!(f, "ANY"),
            RecordClass::Unknown(v) => write!(f, "CLASS{v}"),
        }
    }
}

/// DNS operation code (header `OPCODE` field, 4 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// Unassigned opcode value.
    Unknown(u8),
}

impl Opcode {
    /// The 4-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(v) => v & 0x0f,
        }
    }

    /// Decode a 4-bit wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Opcode::Query => write!(f, "QUERY"),
            Opcode::IQuery => write!(f, "IQUERY"),
            Opcode::Status => write!(f, "STATUS"),
            Opcode::Notify => write!(f, "NOTIFY"),
            Opcode::Update => write!(f, "UPDATE"),
            Opcode::Unknown(v) => write!(f, "OPCODE{v}"),
        }
    }
}

/// DNS response code. The low 4 bits live in the header; EDNS extends the
/// code to 12 bits via the OPT TTL field (we store the combined value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error: server could not interpret the query.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist (authoritative).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused for policy reasons.
    Refused,
    /// Name exists when it should not (RFC 2136).
    YxDomain,
    /// EDNS version not supported (extended, RFC 6891).
    BadVers,
    /// Unassigned code.
    Unknown(u16),
}

impl Rcode {
    /// Combined (possibly extended) rcode value.
    pub fn to_u16(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::YxDomain => 6,
            Rcode::BadVers => 16,
            Rcode::Unknown(v) => v,
        }
    }

    /// Decode a combined rcode value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            6 => Rcode::YxDomain,
            16 => Rcode::BadVers,
            other => Rcode::Unknown(other),
        }
    }

    /// The low 4 bits carried in the fixed header.
    pub fn low_bits(self) -> u8 {
        (self.to_u16() & 0x0f) as u8
    }

    /// The high 8 bits carried in the EDNS OPT TTL, or 0.
    pub fn high_bits(self) -> u8 {
        ((self.to_u16() >> 4) & 0xff) as u8
    }

    /// Reassemble from header low bits and EDNS high bits.
    pub fn from_parts(low: u8, high: u8) -> Self {
        Rcode::from_u16(((high as u16) << 4) | (low as u16 & 0x0f))
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::YxDomain => write!(f, "YXDOMAIN"),
            Rcode::BadVers => write!(f, "BADVERS"),
            Rcode::Unknown(v) => write!(f, "RCODE{v}"),
        }
    }
}

/// Transport protocol a DNS message was (or will be) carried over.
///
/// LDplayer's query mutator rewrites this field to pose what-if questions
/// ("what if all queries used TCP?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    /// Connectionless datagram transport.
    Udp,
    /// DNS over TCP (RFC 7766): 2-byte length framing, connection reuse.
    Tcp,
    /// DNS over TLS (RFC 7858): TCP plus a TLS session.
    Tls,
}

impl Transport {
    /// Presentation mnemonic used by the plain-text trace format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Transport::Udp => "UDP",
            Transport::Tcp => "TCP",
            Transport::Tls => "TLS",
        }
    }

    /// Parse the plain-text mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "UDP" => Some(Transport::Udp),
            "TCP" => Some(Transport::Tcp),
            "TLS" => Some(Transport::Tls),
            _ => None,
        }
    }

    /// Whether the transport is connection oriented.
    pub fn is_connection_oriented(self) -> bool {
        !matches!(self, Transport::Udp)
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_round_trip_known() {
        for v in [
            1u16, 2, 5, 6, 12, 15, 16, 28, 33, 41, 43, 46, 47, 48, 50, 52, 251, 252, 255, 257,
        ] {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn record_type_round_trip_unknown() {
        for v in 0..=u16::MAX {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn record_type_mnemonic_round_trip() {
        for t in [
            RecordType::A,
            RecordType::NS,
            RecordType::CNAME,
            RecordType::SOA,
            RecordType::PTR,
            RecordType::MX,
            RecordType::TXT,
            RecordType::AAAA,
            RecordType::SRV,
            RecordType::DS,
            RecordType::RRSIG,
            RecordType::NSEC,
            RecordType::DNSKEY,
            RecordType::Unknown(999),
        ] {
            let s = t.to_string();
            assert_eq!(RecordType::from_str_mnemonic(&s), Some(t), "mnemonic {s}");
        }
    }

    #[test]
    fn record_type_mnemonic_case_insensitive() {
        assert_eq!(
            RecordType::from_str_mnemonic("aaaa"),
            Some(RecordType::AAAA)
        );
        assert_eq!(
            RecordType::from_str_mnemonic("type300"),
            Some(RecordType::Unknown(300))
        );
        assert_eq!(RecordType::from_str_mnemonic("BOGUS"), None);
    }

    #[test]
    fn class_round_trip() {
        for v in 0..=u16::MAX {
            assert_eq!(RecordClass::from_u16(v).to_u16(), v);
        }
        assert_eq!(RecordClass::from_str_mnemonic("in"), Some(RecordClass::IN));
        assert_eq!(
            RecordClass::from_str_mnemonic("CLASS17"),
            Some(RecordClass::Unknown(17))
        );
    }

    #[test]
    fn opcode_round_trip() {
        for v in 0..16u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
        }
        // High bits are masked off.
        assert_eq!(Opcode::from_u8(0xf0), Opcode::Query);
    }

    #[test]
    fn rcode_round_trip_and_split() {
        for v in 0..4096u16 {
            let r = Rcode::from_u16(v);
            assert_eq!(r.to_u16(), v);
            assert_eq!(Rcode::from_parts(r.low_bits(), r.high_bits()), r);
        }
    }

    #[test]
    fn extended_rcode_badvers_splits() {
        let r = Rcode::BadVers;
        assert_eq!(r.low_bits(), 0);
        assert_eq!(r.high_bits(), 1);
    }

    #[test]
    fn meta_and_dnssec_classification() {
        assert!(RecordType::RRSIG.is_dnssec());
        assert!(RecordType::DNSKEY.is_dnssec());
        assert!(!RecordType::NS.is_dnssec());
    }

    #[test]
    fn transport_mnemonics() {
        for t in [Transport::Udp, Transport::Tcp, Transport::Tls] {
            assert_eq!(Transport::from_mnemonic(t.mnemonic()), Some(t));
        }
        assert!(Transport::Tcp.is_connection_oriented());
        assert!(Transport::Tls.is_connection_oriented());
        assert!(!Transport::Udp.is_connection_oriented());
        assert_eq!(Transport::from_mnemonic("quic"), None);
    }
}
