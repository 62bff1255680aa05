//! RRsets: all records sharing an owner name and type.

use dns_wire::{Name, RData, Record, RecordType};

/// A set of records with the same owner name and type (RFC 2181 §5).
///
/// All members share one TTL (the RFC requires it; we normalize to the
/// minimum on insert, which is also what caches do).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RRset {
    /// Owner name.
    pub name: Name,
    /// Record type of every member.
    pub rtype: RecordType,
    /// Shared TTL.
    pub ttl: u32,
    /// The member RDATAs (no duplicates).
    pub rdatas: Vec<RData>,
}

impl RRset {
    /// New RRset seeded with one record's data.
    pub fn new(name: Name, rtype: RecordType, ttl: u32) -> Self {
        RRset {
            name,
            rtype,
            ttl,
            rdatas: Vec::new(),
        }
    }

    /// Add a record's data. Duplicate RDATA is ignored; TTL becomes the
    /// minimum of the set. Panics if type or name mismatch (callers
    /// group records before inserting).
    pub fn push(&mut self, rec: Record) {
        assert_eq!(rec.name, self.name, "RRset owner mismatch");
        assert_eq!(rec.rdata.record_type(), self.rtype, "RRset type mismatch");
        self.ttl = self.ttl.min(rec.ttl);
        if !self.rdatas.contains(&rec.rdata) {
            self.rdatas.push(rec.rdata);
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.rdatas.len()
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.rdatas.is_empty()
    }

    /// The members as wire records, built one at a time.
    pub fn records(&self) -> impl ExactSizeIterator<Item = Record> + '_ {
        self.records_as(&self.name)
    }

    /// The members under a different owner name (wildcard synthesis).
    pub fn records_as<'a>(&'a self, owner: &'a Name) -> impl ExactSizeIterator<Item = Record> + 'a {
        self.rdatas
            .iter()
            .map(move |rd| Record::new(owner.clone(), self.ttl, rd.clone()))
    }

    /// Materialize the RRset as wire records.
    pub fn to_records(&self) -> Vec<Record> {
        self.records().collect()
    }

    /// The total wire size of all members, uncompressed (used by the
    /// bandwidth accounting in the DNSSEC experiment).
    pub fn wire_len(&self) -> usize {
        let fixed = self.name.wire_len() + 10;
        self.rdatas.iter().map(|rd| fixed + rd.wire_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a(name: &str, ttl: u32, ip: &str) -> Record {
        Record::new(n(name), ttl, RData::A(ip.parse().unwrap()))
    }

    /// A set holding one record.
    fn set_of(rec: Record) -> RRset {
        let mut set = RRset::new(rec.name.clone(), rec.rtype(), rec.ttl);
        set.push(rec);
        set
    }

    #[test]
    fn push_dedups_and_min_ttl() {
        let mut set = set_of(a("www.example.com", 300, "1.1.1.1"));
        set.push(a("www.example.com", 60, "2.2.2.2"));
        set.push(a("www.example.com", 600, "1.1.1.1")); // dup rdata
        assert_eq!(set.len(), 2);
        assert_eq!(set.ttl, 60);
    }

    #[test]
    fn to_records_share_ttl() {
        let mut set = set_of(a("x.example", 100, "1.1.1.1"));
        set.push(a("x.example", 50, "2.2.2.2"));
        for rec in set.to_records() {
            assert_eq!(rec.ttl, 50);
            assert_eq!(rec.name, n("x.example"));
        }
    }

    #[test]
    fn to_records_as_rewrites_owner() {
        let set = set_of(a("*.example.com", 60, "9.9.9.9"));
        let recs: Vec<Record> = set.records_as(&n("foo.example.com")).collect();
        assert_eq!(recs[0].name, n("foo.example.com"));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut set = set_of(a("x.example", 60, "1.1.1.1"));
        set.push(Record::new(n("x.example"), 60, RData::Ns(n("ns.example"))));
    }

    #[test]
    #[should_panic(expected = "owner mismatch")]
    fn owner_mismatch_panics() {
        let mut set = set_of(a("x.example", 60, "1.1.1.1"));
        set.push(a("y.example", 60, "1.1.1.1"));
    }

    #[test]
    fn wire_len_sums_members() {
        let mut set = set_of(a("x.example", 60, "1.1.1.1"));
        let one = set.wire_len();
        set.push(a("x.example", 60, "2.2.2.2"));
        assert_eq!(set.wire_len(), 2 * one);
    }
}
