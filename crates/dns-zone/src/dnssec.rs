//! Synthetic DNSSEC signing (paper §5.1).
//!
//! The DNSSEC what-if experiments measure *traffic volume*, which depends
//! on the presence and **size** of DNSKEY/RRSIG/NSEC records, not on the
//! cryptographic validity of the signatures. This signer therefore
//! produces records that are bit-for-bit shaped like RSA/SHA-256 output —
//! key and signature lengths derived from the ZSK and KSK sizes,
//! real key tags, valid NSEC chains — with deterministic pseudo-random
//! payload bytes. Substitution documented in DESIGN.md §2.

use ldp_rng::SplitMix64;

use dns_wire::{Name, RData, Record, RecordType, Rrsig};

use crate::zone::Zone;

/// Key-signing key modulus size in bits (the root's).
const KSK_BITS: u32 = 2048;

/// RRSIG validity window in seconds.
const VALIDITY_SECS: u32 = 14 * 86400;

/// Signature inception (UNIX seconds), fixed for reproducibility.
const INCEPTION: u32 = 1_460_000_000;

/// Seed of the key and signature bytes.
const SIGN_SEED: u64 = 0x1d91a7e5;

/// DNSSEC signing configuration: what Figs 10–11 vary. The KSK, the
/// signature window and the byte seed are the root's and fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignConfig {
    /// Zone-signing key modulus size in bits (1024, 2048, 4096, ...).
    pub zsk_bits: u32,
    /// Dual-sign rollover: also publish and sign with an *old* ZSK of
    /// this size (the root's 1024→2048 upgrade dual-signed with both
    /// keys during the transition — the "rollover" bars in Figure 10).
    pub rollover_old_bits: Option<u32>,
}

impl SignConfig {
    /// Root-like defaults with the given ZSK size.
    pub fn with_zsk_bits(zsk_bits: u32) -> Self {
        SignConfig {
            zsk_bits,
            rollover_old_bits: None,
        }
    }

    /// Same, with dual-signature rollover from a 1024-bit old key (the
    /// root's actual transition configuration).
    pub fn rollover(mut self) -> Self {
        self.rollover_old_bits = Some(1024);
        self
    }
}

/// RSA public key wire size: modulus bytes + 1-byte exponent length +
/// 3-byte exponent (65537).
fn dnskey_len(bits: u32) -> usize {
    (bits as usize) / 8 + 4
}

/// RSA signature size equals the modulus size.
fn rrsig_len(bits: u32) -> usize {
    (bits as usize) / 8
}

/// Compute the RFC 4034 Appendix B key tag over DNSKEY RDATA.
pub fn key_tag(flags: u16, protocol: u8, algorithm: u8, public_key: &[u8]) -> u16 {
    let mut rdata = Vec::with_capacity(4 + public_key.len());
    rdata.extend_from_slice(&flags.to_be_bytes());
    rdata.push(protocol);
    rdata.push(algorithm);
    rdata.extend_from_slice(public_key);
    let mut acc: u32 = 0;
    for (i, &b) in rdata.iter().enumerate() {
        if i & 1 == 0 {
            acc += (b as u32) << 8;
        } else {
            acc += b as u32;
        }
    }
    acc += (acc >> 16) & 0xffff;
    (acc & 0xffff) as u16
}

/// One synthetic signing key.
struct SigningKey {
    /// 256 = ZSK, 257 = KSK.
    flags: u16,
    /// Modulus bits.
    bits: u32,
    /// Synthetic public key bytes.
    public_key: Vec<u8>,
    /// RFC 4034 key tag.
    tag: u16,
}

impl SigningKey {
    fn generate(flags: u16, bits: u32, rng: &mut SplitMix64) -> Self {
        let public_key: Vec<u8> = (0..dnskey_len(bits)).map(|_| rng.gen()).collect();
        let tag = key_tag(flags, 3, 8, &public_key);
        SigningKey {
            flags,
            bits,
            public_key,
            tag,
        }
    }

    /// The DNSKEY RDATA for this key.
    fn to_rdata(&self) -> RData {
        RData::Dnskey {
            flags: self.flags,
            protocol: 3,
            algorithm: 8,
            public_key: self.public_key.clone(),
        }
    }
}

/// The result of signing.
#[derive(Debug, Clone)]
pub struct SignedZone {
    /// The signed zone (DNSKEY, RRSIG, NSEC added).
    pub zone: Zone,
}

/// Sign `zone` per `config`, producing DNSKEY at the apex, RRSIGs over
/// every authoritative RRset, and an NSEC chain.
///
/// Delegation NS RRsets (zone cuts) are *not* signed, matching real
/// signers: the child holds authority; the parent serves only unsigned NS
/// plus signed DS.
pub fn sign_zone(zone: &Zone, config: SignConfig) -> SignedZone {
    let mut rng = SplitMix64::seed_from_u64(SIGN_SEED);
    let ksk = SigningKey::generate(257, KSK_BITS, &mut rng);
    let mut zsks = vec![SigningKey::generate(256, config.zsk_bits, &mut rng)];
    if let Some(old_bits) = config.rollover_old_bits {
        zsks.push(SigningKey::generate(256, old_bits, &mut rng));
    }

    let mut out = zone.clone();
    out.strip_dnssec();
    let origin = out.origin().clone();
    let apex_ttl = out.soa_rrset().map(|s| s.ttl).unwrap_or(3600);

    // Publish DNSKEYs.
    for key in std::iter::once(&ksk).chain(zsks.iter()) {
        out.insert(Record::new(origin.clone(), apex_ttl, key.to_rdata()))
            .expect("DNSKEY at apex is in-zone");
    }

    // Gather the RRsets to sign and the NSEC chain *before* mutating.
    let snapshot: Vec<(Name, Vec<(RecordType, u32)>)> = out
        .iter()
        .map(|(name, node)| {
            let sets = node
                .iter()
                .map(|set| (set.rtype, set.ttl))
                .collect::<Vec<_>>();
            (name.clone(), sets)
        })
        .collect();

    let expiration = INCEPTION.wrapping_add(VALIDITY_SECS);
    let mut to_insert: Vec<Record> = Vec::new();

    // Names strictly below a zone cut are glue: not authoritative, never
    // signed, no NSEC.
    let authoritative: Vec<usize> = snapshot
        .iter()
        .enumerate()
        .filter(|(_, (name, _))| match out.find_zone_cut(name) {
            Some((cut, _)) => cut == name,
            None => true,
        })
        .map(|(i, _)| i)
        .collect();

    for (pos, &i) in authoritative.iter().enumerate() {
        let (name, sets) = &snapshot[i];
        let is_apex = name == &origin;
        let is_cut = !is_apex && sets.iter().any(|(t, _)| *t == RecordType::NS);
        let mut types_present: Vec<RecordType> = sets.iter().map(|(t, _)| *t).collect();

        for &(rtype, ttl) in sets {
            // At a cut, only DS (and the future NSEC) are signed.
            if is_cut && rtype != RecordType::DS {
                continue;
            }
            for zsk in signing_keys(&zsks, rtype, &ksk) {
                to_insert.push(Record::new(
                    name.clone(),
                    ttl,
                    RData::Rrsig(make_rrsig(
                        rtype, name, &origin, ttl, expiration, INCEPTION, zsk, &mut rng,
                    )),
                ));
            }
        }

        // NSEC: next authoritative name in canonical order, wrapping to
        // the apex.
        let next = snapshot[authoritative[(pos + 1) % authoritative.len()]]
            .0
            .clone();
        types_present.push(RecordType::NSEC);
        types_present.push(RecordType::RRSIG);
        types_present.sort_by_key(|t| t.to_u16());
        types_present.dedup();
        let nsec_ttl = out.soa().map(|s| s.minimum).unwrap_or(apex_ttl);
        to_insert.push(Record::new(
            name.clone(),
            nsec_ttl,
            RData::Nsec {
                next,
                types: types_present,
            },
        ));
        for zsk in zsks.iter() {
            to_insert.push(Record::new(
                name.clone(),
                nsec_ttl,
                RData::Rrsig(make_rrsig(
                    RecordType::NSEC,
                    name,
                    &origin,
                    nsec_ttl,
                    expiration,
                    INCEPTION,
                    zsk,
                    &mut rng,
                )),
            ));
        }
    }

    for rec in to_insert {
        out.insert(rec).expect("signing records are in-zone");
    }

    SignedZone { zone: out }
}

/// DNSKEY RRsets are signed by the KSK; everything else by the ZSK(s).
fn signing_keys<'a>(
    zsks: &'a [SigningKey],
    rtype: RecordType,
    ksk: &'a SigningKey,
) -> Vec<&'a SigningKey> {
    if rtype == RecordType::DNSKEY {
        let mut keys = vec![ksk];
        keys.extend(zsks.iter());
        keys
    } else {
        zsks.iter().collect()
    }
}

#[allow(clippy::too_many_arguments)]
fn make_rrsig(
    covered: RecordType,
    owner: &Name,
    origin: &Name,
    ttl: u32,
    expiration: u32,
    inception: u32,
    key: &SigningKey,
    rng: &mut SplitMix64,
) -> Rrsig {
    Rrsig {
        type_covered: covered,
        algorithm: 8,
        labels: owner.label_count() as u8,
        original_ttl: ttl,
        expiration,
        inception,
        key_tag: key.tag,
        signer_name: origin.clone(),
        signature: (0..rrsig_len(key.bits)).map(|_| rng.gen()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::Soa;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn rec(name: &str, rd: RData) -> Record {
        Record::new(n(name), 3600, rd)
    }

    fn base_zone() -> Zone {
        let mut z = Zone::new(n("example"));
        z.insert(rec(
            "example",
            RData::Soa(Soa {
                mname: n("ns1.example"),
                rname: n("admin.example"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ))
        .unwrap();
        z.insert(rec("example", RData::Ns(n("ns1.example"))))
            .unwrap();
        z.insert(rec("ns1.example", RData::A("10.0.0.1".parse().unwrap())))
            .unwrap();
        z.insert(rec("www.example", RData::A("10.0.0.2".parse().unwrap())))
            .unwrap();
        // Delegation with DS.
        z.insert(rec("child.example", RData::Ns(n("ns.child.example"))))
            .unwrap();
        z.insert(rec(
            "child.example",
            RData::Ds {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0; 32],
            },
        ))
        .unwrap();
        z
    }

    #[test]
    fn signs_every_authoritative_rrset() {
        let signed = sign_zone(&base_zone(), SignConfig::with_zsk_bits(1024));
        let z = &signed.zone;
        // Apex has DNSKEY + RRSIGs.
        let apex = z.node(&n("example")).unwrap();
        assert!(apex.get(RecordType::DNSKEY).is_some());
        let sigs = apex.get(RecordType::RRSIG).unwrap();
        let covered: Vec<RecordType> = sigs
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Rrsig(s) => Some(s.type_covered),
                _ => None,
            })
            .collect();
        assert!(covered.contains(&RecordType::SOA));
        assert!(covered.contains(&RecordType::NS));
        assert!(covered.contains(&RecordType::DNSKEY));
        assert!(covered.contains(&RecordType::NSEC));
        // Leaf A record is signed.
        let www = z.node(&n("www.example")).unwrap();
        assert!(www.get(RecordType::RRSIG).is_some());
        assert!(www.get(RecordType::NSEC).is_some());
    }

    #[test]
    fn delegation_ns_unsigned_ds_signed() {
        let signed = sign_zone(&base_zone(), SignConfig::with_zsk_bits(2048));
        let cut = signed.zone.node(&n("child.example")).unwrap();
        let covered: Vec<RecordType> = cut
            .get(RecordType::RRSIG)
            .unwrap()
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Rrsig(s) => Some(s.type_covered),
                _ => None,
            })
            .collect();
        assert!(covered.contains(&RecordType::DS), "DS must be signed");
        assert!(covered.contains(&RecordType::NSEC));
        assert!(
            !covered.contains(&RecordType::NS),
            "cut NS must not be signed"
        );
    }

    #[test]
    fn signature_sizes_track_key_bits() {
        for bits in [1024u32, 2048, 4096] {
            let signed = sign_zone(&base_zone(), SignConfig::with_zsk_bits(bits));
            let www = signed.zone.node(&n("www.example")).unwrap();
            let sig = www.get(RecordType::RRSIG).unwrap();
            for rd in &sig.rdatas {
                if let RData::Rrsig(s) = rd {
                    if s.type_covered == RecordType::A {
                        assert_eq!(s.signature.len(), bits as usize / 8);
                    }
                }
            }
            // ZSK DNSKEY size.
            let apex = signed.zone.node(signed.zone.origin()).unwrap();
            let dnskeys = &apex.get(RecordType::DNSKEY).unwrap().rdatas;
            let zsk_len = dnskeys.iter().find_map(|rd| match rd {
                RData::Dnskey {
                    flags: 256,
                    public_key,
                    ..
                } => Some(public_key.len()),
                _ => None,
            });
            assert_eq!(zsk_len, Some(bits as usize / 8 + 4));
        }
    }

    #[test]
    fn bigger_zsk_means_bigger_zone() {
        let z1024 = sign_zone(&base_zone(), SignConfig::with_zsk_bits(1024));
        let z2048 = sign_zone(&base_zone(), SignConfig::with_zsk_bits(2048));
        let size = |z: &Zone| z.records().map(|r| r.wire_len()).sum::<usize>();
        assert!(size(&z2048.zone) > size(&z1024.zone));
    }

    #[test]
    fn rollover_publishes_two_zsks_and_double_signs() {
        let normal = sign_zone(&base_zone(), SignConfig::with_zsk_bits(2048));
        let roll = sign_zone(&base_zone(), SignConfig::with_zsk_bits(2048).rollover());
        let dnskeys = |s: &SignedZone| {
            s.zone
                .node(s.zone.origin())
                .unwrap()
                .get(RecordType::DNSKEY)
                .unwrap()
                .len()
        };
        assert_eq!(dnskeys(&normal), 2); // KSK + ZSK
        assert_eq!(dnskeys(&roll), 3); // KSK + 2 ZSK
                                       // Double signatures on the leaf.
        let count_sigs = |s: &SignedZone| {
            s.zone
                .node(&n("www.example"))
                .unwrap()
                .get(RecordType::RRSIG)
                .unwrap()
                .rdatas
                .iter()
                .filter(|rd| matches!(rd, RData::Rrsig(sig) if sig.type_covered == RecordType::A))
                .count()
        };
        assert_eq!(count_sigs(&normal), 1);
        assert_eq!(count_sigs(&roll), 2);
    }

    #[test]
    fn nsec_chain_closes() {
        let signed = sign_zone(&base_zone(), SignConfig::with_zsk_bits(1024));
        let z = &signed.zone;
        // Follow the chain from the apex; it must visit every name once
        // and return to the apex.
        let mut seen = std::collections::HashSet::new();
        let mut cur = z.origin().clone();
        loop {
            assert!(seen.insert(cur.clone()), "NSEC chain revisited {cur}");
            let node = z.node(&cur).expect("chain name exists");
            let nsec = node.get(RecordType::NSEC).expect("every name has NSEC");
            let next = match nsec.rdatas.first() {
                Some(RData::Nsec { next, .. }) => next.clone(),
                _ => panic!("NSEC rdata"),
            };
            if next == *z.origin() {
                break;
            }
            cur = next;
        }
        assert_eq!(seen.len(), z.names().count());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sign_zone(&base_zone(), SignConfig::with_zsk_bits(1024));
        let b = sign_zone(&base_zone(), SignConfig::with_zsk_bits(1024));
        assert_eq!(a.zone, b.zone, "the bytes come from SIGN_SEED alone");
    }

    #[test]
    fn re_signing_strips_old_signatures() {
        let first = sign_zone(&base_zone(), SignConfig::with_zsk_bits(1024));
        let second = sign_zone(&first.zone, SignConfig::with_zsk_bits(1024));
        assert_eq!(first.zone, second.zone);
    }

    #[test]
    fn key_tag_is_stable() {
        let t1 = key_tag(256, 3, 8, &[1, 2, 3, 4]);
        let t2 = key_tag(256, 3, 8, &[1, 2, 3, 4]);
        assert_eq!(t1, t2);
        assert_ne!(t1, key_tag(257, 3, 8, &[1, 2, 3, 4]));
    }
}
