//! Resource-record data (RDATA) for every type LDplayer understands,
//! with wire encode/decode and zone-file presentation format in both
//! directions. Unknown types are carried verbatim and printed in the
//! RFC 3597 generic form (`\# <len> <hex>`), so no trace data is lost.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::encoding::{base64_decode, base64_encode, hex_decode, hex_encode};
use crate::name::Name;
use crate::types::RecordType;
use crate::wire::{WireError, WireReader, WireWriter};

/// SOA record fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Soa {
    /// Primary master nameserver.
    pub mname: Name,
    /// Responsible-party mailbox encoded as a name.
    pub rname: Name,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval (seconds).
    pub refresh: u32,
    /// Retry interval (seconds).
    pub retry: u32,
    /// Expiry (seconds).
    pub expire: u32,
    /// Negative-caching TTL (seconds).
    pub minimum: u32,
}

/// RRSIG record fields (RFC 4034 §3.1). Signatures in this repository are
/// *simulated*: the signature bytes are synthetic but sized exactly as a
/// real RSA signature of the configured key size would be, which is what
/// the DNSSEC bandwidth experiments (paper §5.1) measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rrsig {
    /// Type of the RRset covered by this signature.
    pub type_covered: RecordType,
    /// DNSSEC algorithm number (8 = RSA/SHA-256 in our synthetic zones).
    pub algorithm: u8,
    /// Label count of the owner (for wildcard reconstruction).
    pub labels: u8,
    /// Original TTL of the covered RRset.
    pub original_ttl: u32,
    /// Expiration time (UNIX seconds).
    pub expiration: u32,
    /// Inception time (UNIX seconds).
    pub inception: u32,
    /// Key tag of the signing key.
    pub key_tag: u16,
    /// Name of the signing zone.
    pub signer_name: Name,
    /// Signature bytes (synthetic, length = key size / 8).
    pub signature: Vec<u8>,
}

/// RDATA for all supported record types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Nameserver name.
    Ns(Name),
    /// Canonical-name alias target.
    Cname(Name),
    /// Reverse-mapping pointer.
    Ptr(Name),
    /// Start of authority.
    Soa(Soa),
    /// Mail exchange.
    Mx {
        /// Preference (lower wins).
        preference: u16,
        /// Exchange host name.
        exchange: Name,
    },
    /// One or more character strings.
    Txt(Vec<Vec<u8>>),
    /// Service locator.
    Srv {
        /// Priority (lower wins).
        priority: u16,
        /// Weight for equal-priority selection.
        weight: u16,
        /// Service port.
        port: u16,
        /// Target host.
        target: Name,
    },
    /// Delegation signer digest.
    Ds {
        /// Key tag of the referenced DNSKEY.
        key_tag: u16,
        /// DNSSEC algorithm number.
        algorithm: u8,
        /// Digest algorithm (2 = SHA-256).
        digest_type: u8,
        /// Digest bytes.
        digest: Vec<u8>,
    },
    /// DNSSEC public key. Key bytes are synthetic but correctly sized.
    Dnskey {
        /// Flags (256 = ZSK, 257 = KSK).
        flags: u16,
        /// Always 3.
        protocol: u8,
        /// DNSSEC algorithm number.
        algorithm: u8,
        /// Public-key bytes.
        public_key: Vec<u8>,
    },
    /// DNSSEC signature.
    Rrsig(Rrsig),
    /// Authenticated denial of existence.
    Nsec {
        /// Next owner name in canonical order.
        next: Name,
        /// Types present at this owner.
        types: Vec<RecordType>,
    },
    /// TLSA certificate association (DANE).
    Tlsa {
        /// Certificate usage.
        usage: u8,
        /// Selector.
        selector: u8,
        /// Matching type.
        matching: u8,
        /// Certificate association data.
        data: Vec<u8>,
    },
    /// Certification-authority authorization.
    Caa {
        /// Critical flag (0 or 128).
        flags: u8,
        /// Property tag (e.g. `issue`).
        tag: Vec<u8>,
        /// Property value.
        value: Vec<u8>,
    },
    /// Any record type we do not model structurally, kept verbatim.
    Unknown {
        /// The wire type code.
        rtype: u16,
        /// Raw RDATA bytes.
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type this RDATA belongs to.
    pub fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::AAAA,
            RData::Ns(_) => RecordType::NS,
            RData::Cname(_) => RecordType::CNAME,
            RData::Ptr(_) => RecordType::PTR,
            RData::Soa(_) => RecordType::SOA,
            RData::Mx { .. } => RecordType::MX,
            RData::Txt(_) => RecordType::TXT,
            RData::Srv { .. } => RecordType::SRV,
            RData::Ds { .. } => RecordType::DS,
            RData::Dnskey { .. } => RecordType::DNSKEY,
            RData::Rrsig(_) => RecordType::RRSIG,
            RData::Nsec { .. } => RecordType::NSEC,
            RData::Tlsa { .. } => RecordType::TLSA,
            RData::Caa { .. } => RecordType::CAA,
            RData::Unknown { rtype, .. } => RecordType::from_u16(*rtype),
        }
    }

    /// Serialize the RDATA body (no length prefix). Names inside RDATA
    /// are written uncompressed, per RFC 3597 §4 requirements for
    /// non-well-known types; for the classic types (NS/CNAME/SOA/...)
    /// compression is permitted on the wire but uncompressed output is
    /// always interoperable, canonical and deterministic — the property
    /// our size-accounting experiments need.
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            RData::A(a) => w.put_bytes(&a.octets()),
            RData::Aaaa(a) => w.put_bytes(&a.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => w.put_name_uncompressed(n),
            RData::Soa(soa) => {
                w.put_name_uncompressed(&soa.mname);
                w.put_name_uncompressed(&soa.rname);
                w.put_u32(soa.serial);
                w.put_u32(soa.refresh);
                w.put_u32(soa.retry);
                w.put_u32(soa.expire);
                w.put_u32(soa.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                w.put_u16(*preference);
                w.put_name_uncompressed(exchange);
            }
            RData::Txt(strings) => {
                for s in strings {
                    w.put_u8(s.len() as u8);
                    w.put_bytes(s);
                }
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => {
                w.put_u16(*priority);
                w.put_u16(*weight);
                w.put_u16(*port);
                w.put_name_uncompressed(target);
            }
            RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                w.put_u16(*key_tag);
                w.put_u8(*algorithm);
                w.put_u8(*digest_type);
                w.put_bytes(digest);
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => {
                w.put_u16(*flags);
                w.put_u8(*protocol);
                w.put_u8(*algorithm);
                w.put_bytes(public_key);
            }
            RData::Rrsig(sig) => {
                w.put_u16(sig.type_covered.to_u16());
                w.put_u8(sig.algorithm);
                w.put_u8(sig.labels);
                w.put_u32(sig.original_ttl);
                w.put_u32(sig.expiration);
                w.put_u32(sig.inception);
                w.put_u16(sig.key_tag);
                w.put_name_uncompressed(&sig.signer_name);
                w.put_bytes(&sig.signature);
            }
            RData::Nsec { next, types } => {
                w.put_name_uncompressed(next);
                encode_type_bitmap(types, w);
            }
            RData::Tlsa {
                usage,
                selector,
                matching,
                data,
            } => {
                w.put_u8(*usage);
                w.put_u8(*selector);
                w.put_u8(*matching);
                w.put_bytes(data);
            }
            RData::Caa { flags, tag, value } => {
                w.put_u8(*flags);
                w.put_u8(tag.len() as u8);
                w.put_bytes(tag);
                w.put_bytes(value);
            }
            RData::Unknown { data, .. } => w.put_bytes(data),
        }
    }

    /// The encoded RDATA length in bytes.
    pub fn wire_len(&self) -> usize {
        let mut w = WireWriter::new_uncompressed();
        self.encode(&mut w);
        w.len()
    }

    /// Decode RDATA of `rtype` occupying exactly `rdlength` bytes at the
    /// reader's cursor. Compression pointers inside RDATA names are
    /// accepted on input (BIND emits them for NS/SOA/etc.).
    pub fn decode(
        rtype: RecordType,
        rdlength: usize,
        r: &mut WireReader<'_>,
    ) -> Result<RData, WireError> {
        let end = r.position() + rdlength;
        let rd = match rtype {
            RecordType::A => {
                let b = r.get_bytes(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RecordType::AAAA => {
                let b = r.get_bytes(16)?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                RData::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::NS => RData::Ns(r.get_name()?),
            RecordType::CNAME => RData::Cname(r.get_name()?),
            RecordType::PTR => RData::Ptr(r.get_name()?),
            RecordType::SOA => RData::Soa(Soa {
                mname: r.get_name()?,
                rname: r.get_name()?,
                serial: r.get_u32()?,
                refresh: r.get_u32()?,
                retry: r.get_u32()?,
                expire: r.get_u32()?,
                minimum: r.get_u32()?,
            }),
            RecordType::MX => RData::Mx {
                preference: r.get_u16()?,
                exchange: r.get_name()?,
            },
            RecordType::TXT => {
                let mut strings = Vec::new();
                while r.position() < end {
                    let len = r.get_u8()? as usize;
                    strings.push(r.get_bytes(len)?.to_vec());
                }
                RData::Txt(strings)
            }
            RecordType::SRV => RData::Srv {
                priority: r.get_u16()?,
                weight: r.get_u16()?,
                port: r.get_u16()?,
                target: r.get_name()?,
            },
            RecordType::DS => {
                let key_tag = r.get_u16()?;
                let algorithm = r.get_u8()?;
                let digest_type = r.get_u8()?;
                if end < r.position() {
                    return Err(WireError::BadRdataLength);
                }
                let digest = r.get_bytes(end - r.position())?.to_vec();
                RData::Ds {
                    key_tag,
                    algorithm,
                    digest_type,
                    digest,
                }
            }
            RecordType::DNSKEY => {
                let flags = r.get_u16()?;
                let protocol = r.get_u8()?;
                let algorithm = r.get_u8()?;
                if end < r.position() {
                    return Err(WireError::BadRdataLength);
                }
                let public_key = r.get_bytes(end - r.position())?.to_vec();
                RData::Dnskey {
                    flags,
                    protocol,
                    algorithm,
                    public_key,
                }
            }
            RecordType::RRSIG => {
                let type_covered = RecordType::from_u16(r.get_u16()?);
                let algorithm = r.get_u8()?;
                let labels = r.get_u8()?;
                let original_ttl = r.get_u32()?;
                let expiration = r.get_u32()?;
                let inception = r.get_u32()?;
                let key_tag = r.get_u16()?;
                let signer_name = r.get_name()?;
                if end < r.position() {
                    return Err(WireError::BadRdataLength);
                }
                let signature = r.get_bytes(end - r.position())?.to_vec();
                RData::Rrsig(Rrsig {
                    type_covered,
                    algorithm,
                    labels,
                    original_ttl,
                    expiration,
                    inception,
                    key_tag,
                    signer_name,
                    signature,
                })
            }
            RecordType::NSEC => {
                let next = r.get_name()?;
                if end < r.position() {
                    return Err(WireError::BadRdataLength);
                }
                let bitmap = r.get_bytes(end - r.position())?;
                RData::Nsec {
                    next,
                    types: decode_type_bitmap(bitmap)?,
                }
            }
            RecordType::TLSA => {
                let usage = r.get_u8()?;
                let selector = r.get_u8()?;
                let matching = r.get_u8()?;
                if end < r.position() {
                    return Err(WireError::BadRdataLength);
                }
                let data = r.get_bytes(end - r.position())?.to_vec();
                RData::Tlsa {
                    usage,
                    selector,
                    matching,
                    data,
                }
            }
            RecordType::CAA => {
                let flags = r.get_u8()?;
                let tag_len = r.get_u8()? as usize;
                let tag = r.get_bytes(tag_len)?.to_vec();
                if end < r.position() {
                    return Err(WireError::BadRdataLength);
                }
                let value = r.get_bytes(end - r.position())?.to_vec();
                RData::Caa { flags, tag, value }
            }
            other => RData::Unknown {
                rtype: other.to_u16(),
                data: r.get_bytes(rdlength)?.to_vec(),
            },
        };
        if r.position() != end {
            return Err(WireError::BadRdataLength);
        }
        Ok(rd)
    }

    /// Parse presentation format given the already-known record type and
    /// the whitespace-separated tokens after the type mnemonic.
    ///
    /// `origin` resolves relative names in the RDATA (zone-file
    /// convention: names without trailing dot are relative to `$ORIGIN`).
    pub fn parse_presentation(
        rtype: RecordType,
        tokens: &[&str],
        origin: &Name,
    ) -> Result<RData, String> {
        fn name_tok(tok: &str, origin: &Name) -> Result<Name, String> {
            let n: Name = tok.parse().map_err(|e| format!("bad name {tok:?}: {e}"))?;
            if tok.ends_with('.') || tok == "@" {
                if tok == "@" {
                    Ok(origin.clone())
                } else {
                    Ok(n)
                }
            } else {
                n.concat(origin)
                    .map_err(|e| format!("bad name {tok:?}: {e}"))
            }
        }
        fn int<T: std::str::FromStr>(tok: &str) -> Result<T, String> {
            tok.parse().map_err(|_| format!("bad integer {tok:?}"))
        }
        fn need(tokens: &[&str], n: usize) -> Result<(), String> {
            if tokens.len() < n {
                Err(format!("expected {n} fields, got {}", tokens.len()))
            } else {
                Ok(())
            }
        }

        // RFC 3597 generic form works for any type: \# <len> <hex...>
        if tokens.first() == Some(&"\\#") {
            need(tokens, 2)?;
            let len: usize = int(tokens[1])?;
            let hex: String = tokens[2..].concat();
            let data = hex_decode(&hex).ok_or("bad hex in generic rdata")?;
            if data.len() != len {
                return Err(format!(
                    "generic rdata length {} != declared {len}",
                    data.len()
                ));
            }
            return Ok(match RData::decode_from_generic(rtype, &data) {
                Some(rd) => rd,
                None => RData::Unknown {
                    rtype: rtype.to_u16(),
                    data,
                },
            });
        }

        Ok(match rtype {
            RecordType::A => {
                need(tokens, 1)?;
                RData::A(
                    tokens[0]
                        .parse()
                        .map_err(|_| format!("bad IPv4 {:?}", tokens[0]))?,
                )
            }
            RecordType::AAAA => {
                need(tokens, 1)?;
                RData::Aaaa(
                    tokens[0]
                        .parse()
                        .map_err(|_| format!("bad IPv6 {:?}", tokens[0]))?,
                )
            }
            RecordType::NS => {
                need(tokens, 1)?;
                RData::Ns(name_tok(tokens[0], origin)?)
            }
            RecordType::CNAME => {
                need(tokens, 1)?;
                RData::Cname(name_tok(tokens[0], origin)?)
            }
            RecordType::PTR => {
                need(tokens, 1)?;
                RData::Ptr(name_tok(tokens[0], origin)?)
            }
            RecordType::SOA => {
                need(tokens, 7)?;
                RData::Soa(Soa {
                    mname: name_tok(tokens[0], origin)?,
                    rname: name_tok(tokens[1], origin)?,
                    serial: int(tokens[2])?,
                    refresh: int(tokens[3])?,
                    retry: int(tokens[4])?,
                    expire: int(tokens[5])?,
                    minimum: int(tokens[6])?,
                })
            }
            RecordType::MX => {
                need(tokens, 2)?;
                RData::Mx {
                    preference: int(tokens[0])?,
                    exchange: name_tok(tokens[1], origin)?,
                }
            }
            RecordType::TXT => {
                if tokens.is_empty() {
                    return Err("TXT needs at least one string".into());
                }
                let mut strings = Vec::new();
                for t in tokens {
                    let s = crate::text::unquote(t);
                    if s.len() > 255 {
                        return Err("TXT string exceeds 255 bytes".into());
                    }
                    strings.push(s);
                }
                RData::Txt(strings)
            }
            RecordType::SRV => {
                need(tokens, 4)?;
                RData::Srv {
                    priority: int(tokens[0])?,
                    weight: int(tokens[1])?,
                    port: int(tokens[2])?,
                    target: name_tok(tokens[3], origin)?,
                }
            }
            RecordType::DS => {
                need(tokens, 4)?;
                RData::Ds {
                    key_tag: int(tokens[0])?,
                    algorithm: int(tokens[1])?,
                    digest_type: int(tokens[2])?,
                    digest: hex_decode(&tokens[3..].concat()).ok_or("bad DS digest hex")?,
                }
            }
            RecordType::DNSKEY => {
                need(tokens, 4)?;
                RData::Dnskey {
                    flags: int(tokens[0])?,
                    protocol: int(tokens[1])?,
                    algorithm: int(tokens[2])?,
                    public_key: base64_decode(&tokens[3..].concat()).ok_or("bad DNSKEY base64")?,
                }
            }
            RecordType::RRSIG => {
                need(tokens, 9)?;
                RData::Rrsig(Rrsig {
                    type_covered: RecordType::from_str_mnemonic(tokens[0])
                        .ok_or_else(|| format!("bad type covered {:?}", tokens[0]))?,
                    algorithm: int(tokens[1])?,
                    labels: int(tokens[2])?,
                    original_ttl: int(tokens[3])?,
                    expiration: int(tokens[4])?,
                    inception: int(tokens[5])?,
                    key_tag: int(tokens[6])?,
                    signer_name: name_tok(tokens[7], origin)?,
                    signature: base64_decode(&tokens[8..].concat()).ok_or("bad RRSIG base64")?,
                })
            }
            RecordType::NSEC => {
                need(tokens, 1)?;
                let next = name_tok(tokens[0], origin)?;
                let mut types = Vec::new();
                for t in &tokens[1..] {
                    types.push(
                        RecordType::from_str_mnemonic(t)
                            .ok_or_else(|| format!("bad NSEC type {t:?}"))?,
                    );
                }
                RData::Nsec { next, types }
            }
            RecordType::TLSA => {
                need(tokens, 4)?;
                RData::Tlsa {
                    usage: int(tokens[0])?,
                    selector: int(tokens[1])?,
                    matching: int(tokens[2])?,
                    data: hex_decode(&tokens[3..].concat()).ok_or("bad TLSA hex")?,
                }
            }
            RecordType::CAA => {
                need(tokens, 3)?;
                RData::Caa {
                    flags: int(tokens[0])?,
                    tag: tokens[1].as_bytes().to_vec(),
                    value: crate::text::unquote(tokens[2]),
                }
            }
            other => {
                return Err(format!(
                    "type {other} requires RFC 3597 generic syntax (\\# <len> <hex>)"
                ))
            }
        })
    }

    /// Try to structurally decode generic (`\#`) RDATA for a known type.
    fn decode_from_generic(rtype: RecordType, data: &[u8]) -> Option<RData> {
        let mut r = WireReader::new(data);
        RData::decode(rtype, data.len(), &mut r).ok()
    }
}

impl fmt::Display for RData {
    /// Zone-file presentation format (parseable back by
    /// [`RData::parse_presentation`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(strings) => {
                let mut first = true;
                for s in strings {
                    if !first {
                        write!(f, " ")?;
                    }
                    first = false;
                    f.write_str(&crate::text::quote(s))?;
                }
                Ok(())
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => {
                write!(f, "{priority} {weight} {port} {target}")
            }
            RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                write!(
                    f,
                    "{key_tag} {algorithm} {digest_type} {}",
                    hex_encode(digest)
                )
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => {
                write!(
                    f,
                    "{flags} {protocol} {algorithm} {}",
                    base64_encode(public_key)
                )
            }
            RData::Rrsig(s) => write!(
                f,
                "{} {} {} {} {} {} {} {} {}",
                s.type_covered,
                s.algorithm,
                s.labels,
                s.original_ttl,
                s.expiration,
                s.inception,
                s.key_tag,
                s.signer_name,
                base64_encode(&s.signature)
            ),
            RData::Nsec { next, types } => {
                write!(f, "{next}")?;
                for t in types {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
            RData::Tlsa {
                usage,
                selector,
                matching,
                data,
            } => {
                write!(f, "{usage} {selector} {matching} {}", hex_encode(data))
            }
            RData::Caa { flags, tag, value } => write!(
                f,
                "{flags} {} {}",
                String::from_utf8_lossy(tag),
                crate::text::quote(value)
            ),
            RData::Unknown { data, .. } => {
                write!(f, "\\# {} {}", data.len(), hex_encode(data))
            }
        }
    }
}

/// Encode the NSEC/NSEC3 type bitmap (RFC 4034 §4.1.2): a sequence of
/// (window, length, bitmap-bytes) blocks covering present types.
fn encode_type_bitmap(types: &[RecordType], w: &mut WireWriter) {
    let mut sorted: Vec<u16> = types.iter().map(|t| t.to_u16()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut i = 0;
    while i < sorted.len() {
        let window = (sorted[i] >> 8) as u8;
        let mut bitmap = [0u8; 32];
        let mut max_byte = 0usize;
        while i < sorted.len() && (sorted[i] >> 8) as u8 == window {
            let low = (sorted[i] & 0xff) as usize;
            bitmap[low / 8] |= 0x80 >> (low % 8);
            max_byte = max_byte.max(low / 8);
            i += 1;
        }
        w.put_u8(window);
        w.put_u8((max_byte + 1) as u8);
        w.put_bytes(&bitmap[..=max_byte]);
    }
}

/// Decode an NSEC/NSEC3 type bitmap back to a list of types.
fn decode_type_bitmap(mut data: &[u8]) -> Result<Vec<RecordType>, WireError> {
    let mut out = Vec::new();
    while !data.is_empty() {
        if data.len() < 2 {
            return Err(WireError::BadRdataLength);
        }
        let window = data[0] as u16;
        let len = data[1] as usize;
        if len == 0 || len > 32 || data.len() < 2 + len {
            return Err(WireError::BadRdataLength);
        }
        for (byte_idx, &b) in data[2..2 + len].iter().enumerate() {
            for bit in 0..8 {
                if b & (0x80 >> bit) != 0 {
                    out.push(RecordType::from_u16(
                        (window << 8) | (byte_idx as u16 * 8 + bit as u16),
                    ));
                }
            }
        }
        data = &data[2 + len..];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn wire_round_trip(rd: &RData) -> RData {
        let mut w = WireWriter::new_uncompressed();
        rd.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        RData::decode(rd.record_type(), buf.len(), &mut r).unwrap()
    }

    fn presentation_round_trip(rd: &RData) -> RData {
        let text = rd.to_string();
        let owned = crate::text::tokenize(&text);
        let tokens: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
        RData::parse_presentation(rd.record_type(), &tokens, &Name::root()).unwrap()
    }

    fn samples() -> Vec<RData> {
        vec![
            RData::A("192.0.32.8".parse().unwrap()),
            RData::Aaaa("2001:db8::1".parse().unwrap()),
            RData::Ns(n("a.root-servers.net")),
            RData::Cname(n("alias.example.com")),
            RData::Ptr(n("host.example.com")),
            RData::Soa(Soa {
                mname: n("ns1.example.com"),
                rname: n("hostmaster.example.com"),
                serial: 2018103100,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 3600,
            }),
            RData::Mx {
                preference: 10,
                exchange: n("mail.example.com"),
            },
            RData::Txt(vec![b"v=spf1 -all".to_vec(), b"second".to_vec()]),
            RData::Srv {
                priority: 0,
                weight: 5,
                port: 853,
                target: n("dns.example.com"),
            },
            RData::Ds {
                key_tag: 20326,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0xde, 0xad, 0xbe, 0xef, 0x01],
            },
            RData::Dnskey {
                flags: 256,
                protocol: 3,
                algorithm: 8,
                public_key: (0..64u8).collect(),
            },
            RData::Rrsig(Rrsig {
                type_covered: RecordType::NS,
                algorithm: 8,
                labels: 1,
                original_ttl: 86400,
                expiration: 1528000000,
                inception: 1526000000,
                key_tag: 12345,
                signer_name: Name::root(),
                signature: (0..128u8).collect(),
            }),
            RData::Nsec {
                next: n("aaa"),
                types: vec![
                    RecordType::NS,
                    RecordType::SOA,
                    RecordType::RRSIG,
                    RecordType::CAA,
                ],
            },
            RData::Tlsa {
                usage: 3,
                selector: 1,
                matching: 1,
                data: vec![1, 2, 3, 4],
            },
            RData::Caa {
                flags: 0,
                tag: b"issue".to_vec(),
                value: b"ca.example.net".to_vec(),
            },
            RData::Unknown {
                rtype: 99,
                data: vec![9, 8, 7],
            },
        ]
    }

    #[test]
    fn wire_round_trips_all_types() {
        for rd in samples() {
            assert_eq!(wire_round_trip(&rd), rd, "wire round trip of {rd:?}");
        }
    }

    #[test]
    fn presentation_round_trips_all_types() {
        for rd in samples() {
            assert_eq!(
                presentation_round_trip(&rd),
                rd,
                "presentation round trip of {rd}"
            );
        }
    }

    #[test]
    fn wire_len_matches_encode() {
        for rd in samples() {
            let mut w = WireWriter::new_uncompressed();
            rd.encode(&mut w);
            assert_eq!(rd.wire_len(), w.len());
        }
    }

    #[test]
    fn a_record_wire_is_4_bytes() {
        assert_eq!(RData::A("1.2.3.4".parse().unwrap()).wire_len(), 4);
        assert_eq!(RData::Aaaa("::1".parse().unwrap()).wire_len(), 16);
    }

    #[test]
    fn rdlength_mismatch_rejected() {
        let mut w = WireWriter::new_uncompressed();
        RData::A("1.2.3.4".parse().unwrap()).encode(&mut w);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        // Claim 3 bytes for a 4-byte A record.
        assert!(RData::decode(RecordType::A, 3, &mut r).is_err());
    }

    #[test]
    fn type_bitmap_windows() {
        // CAA (257) lands in window 1; NS/SOA in window 0.
        let types = vec![RecordType::NS, RecordType::SOA, RecordType::CAA];
        let mut w = WireWriter::new_uncompressed();
        encode_type_bitmap(&types, &mut w);
        let buf = w.into_bytes();
        let decoded = decode_type_bitmap(&buf).unwrap();
        let mut expect = types.clone();
        expect.sort_by_key(|t| t.to_u16());
        assert_eq!(decoded, expect);
    }

    #[test]
    fn type_bitmap_dedups() {
        let types = vec![RecordType::A, RecordType::A, RecordType::NS];
        let mut w = WireWriter::new_uncompressed();
        encode_type_bitmap(&types, &mut w);
        let decoded = decode_type_bitmap(&w.into_bytes()).unwrap();
        assert_eq!(decoded, vec![RecordType::A, RecordType::NS]);
    }

    #[test]
    fn bad_bitmap_rejected() {
        assert!(decode_type_bitmap(&[0]).is_err()); // missing length
        assert!(decode_type_bitmap(&[0, 0]).is_err()); // zero length block
        assert!(decode_type_bitmap(&[0, 33]).is_err()); // oversize block
        assert!(decode_type_bitmap(&[0, 4, 0xff]).is_err()); // short block
    }

    #[test]
    fn generic_rfc3597_parse() {
        let rd = RData::parse_presentation(
            RecordType::Unknown(99),
            &["\\#", "3", "090807"],
            &Name::root(),
        )
        .unwrap();
        assert_eq!(
            rd,
            RData::Unknown {
                rtype: 99,
                data: vec![9, 8, 7]
            }
        );
    }

    #[test]
    fn generic_syntax_decodes_known_types() {
        // \# form of an A record should come back structured.
        let rd = RData::parse_presentation(RecordType::A, &["\\#", "4", "01020304"], &Name::root())
            .unwrap();
        assert_eq!(rd, RData::A("1.2.3.4".parse().unwrap()));
    }

    #[test]
    fn generic_length_mismatch_rejected() {
        assert!(RData::parse_presentation(
            RecordType::Unknown(99),
            &["\\#", "2", "090807"],
            &Name::root(),
        )
        .is_err());
    }

    #[test]
    fn relative_names_resolve_against_origin() {
        let rd = RData::parse_presentation(RecordType::NS, &["ns1"], &n("example.com")).unwrap();
        assert_eq!(rd, RData::Ns(n("ns1.example.com")));

        let rd =
            RData::parse_presentation(RecordType::NS, &["ns1.example.net."], &n("example.com"))
                .unwrap();
        assert_eq!(rd, RData::Ns(n("ns1.example.net")));

        let rd = RData::parse_presentation(RecordType::NS, &["@"], &n("example.com")).unwrap();
        assert_eq!(rd, RData::Ns(n("example.com")));
    }

    #[test]
    fn soa_display_parses_back() {
        let soa = RData::Soa(Soa {
            mname: n("a.root-servers.net"),
            rname: n("nstld.verisign-grs.com"),
            serial: 2018103100,
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 86400,
        });
        let txt = soa.to_string();
        let toks: Vec<&str> = txt.split_whitespace().collect();
        assert_eq!(
            RData::parse_presentation(RecordType::SOA, &toks, &Name::root()).unwrap(),
            soa
        );
    }

    #[test]
    fn compressed_names_in_rdata_accepted_on_decode() {
        // Hand-build a message fragment where the NS rdata points back
        // into earlier bytes.
        let mut w = WireWriter::new();
        w.put_name(&n("example.com")); // offset 0
        let rdata_start = w.len();
        w.put_name(&n("ns1.example.com")); // compresses against previous
        let buf = w.into_bytes();
        let rdlength = buf.len() - rdata_start;
        let mut r = WireReader::new(&buf);
        r.get_bytes(rdata_start).unwrap();
        let rd = RData::decode(RecordType::NS, rdlength, &mut r).unwrap();
        assert_eq!(rd, RData::Ns(n("ns1.example.com")));
    }
}
