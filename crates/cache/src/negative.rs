//! RFC 2308 negative-TTL derivation.

use dns_wire::{RData, Record};

/// Derive the negative-caching TTL from a response's authority section
/// per RFC 2308 §3/§5: the TTL of the negative answer is the minimum of
/// the SOA record's own TTL and its MINIMUM field. Returns `None` when
/// no SOA is present (the caller falls back to the named default,
/// [`crate::NEG_TTL_DEFAULT`]).
pub fn negative_ttl(authorities: &[Record]) -> Option<u32> {
    authorities.iter().find_map(|r| match &r.rdata {
        RData::Soa(soa) => Some(r.ttl.min(soa.minimum)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Name, Soa};

    fn soa_record(ttl: u32, minimum: u32) -> Record {
        let zone: Name = "example.".parse().unwrap();
        Record::new(
            zone.clone(),
            ttl,
            RData::Soa(Soa {
                mname: "ns.example.".parse().unwrap(),
                rname: "host.example.".parse().unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum,
            }),
        )
    }

    #[test]
    fn soa_minimum_governs_when_smaller() {
        assert_eq!(negative_ttl(&[soa_record(3600, 300)]), Some(300));
    }

    #[test]
    fn soa_record_ttl_governs_when_smaller() {
        // RFC 2308 §5: authorities decrement the SOA TTL as the
        // negative answer ages, so the record TTL can be the binding one.
        assert_eq!(negative_ttl(&[soa_record(60, 86_400)]), Some(60));
    }

    #[test]
    fn no_soa_yields_none() {
        assert_eq!(negative_ttl(&[]), None);
        let ns = Record::new(
            "example.".parse().unwrap(),
            3600,
            RData::Ns("ns.example.".parse().unwrap()),
        );
        assert_eq!(negative_ttl(&[ns]), None);
    }

    #[test]
    fn first_soa_wins_among_mixed_authorities() {
        let ns = Record::new(
            "example.".parse().unwrap(),
            3600,
            RData::Ns("ns.example.".parse().unwrap()),
        );
        let recs = vec![ns, soa_record(1800, 600), soa_record(10, 10)];
        assert_eq!(negative_ttl(&recs), Some(600));
    }
}
