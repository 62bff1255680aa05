//! The capacity-bounded TTL store.
//!
//! Time is an explicit parameter (seconds, any epoch) so the same store
//! runs under the simulator's virtual clock or the wall clock. Every
//! container whose order is read is ordered (`BTreeMap`/`BTreeSet`),
//! the entries' hash table is never walked in hash order, and every
//! eviction decision ties-break on insertion slots, so a given access sequence
//! produces the same residency set — and therefore the same simulator
//! transcript — in every run (`clippy::disallowed_types` is denied in
//! this crate).
//!
//! Layout: entries live in one `(name, qtype) → Entry` [`KeyTable`],
//! the workspace's one hash table (`ldp_rng::table`): a lookup is one
//! hash of the question and one probe, expected O(1), and clones no
//! [`Name`] (it probes with a borrowed `Question`); the key an insert
//! keeps is a copy of a short name or a view of the caller's buffer. No
//! order is read from the table: it is only ever asked one key at a
//! time, and the eviction index is built from a walk of its entries in
//! entry order into sets. An entry holds a positive
//! answer in wire form, an [`AnswerBytes`] encoded after the entry's
//! key: a reply copies it, and a short one sits in the entry itself.
//! The table's length is the resident count. A
//! `(rank, slot)` ordered index realizes the eviction order; `slot` is a monotone
//! insertion counter that makes ranks unique and resolves back to the
//! owning key through a side map. A probe of the entries is O(1)
//! expected; keeping the index, once built, is O(log n) per hit, insert
//! and eviction; there is no O(capacity) scan anywhere but the one that
//! builds the index. Every entry keeps its own `(rank, slot)` up to
//! date, so the index is only built — from the entries — the first time
//! the store is full, and kept from then on: a cache that never fills
//! (the unbounded ones the resolvers and zone construction use) never
//! pays for an order nobody reads. The two-level
//! `name → qtype → Entry` map this replaced — whose inner map spent a
//! whole B-tree leaf on one entry per name — is `reference`, the
//! oracle of `matches_the_two_level_store_on_generated_scripts`.

use std::collections::{BTreeMap, BTreeSet};

use dns_wire::{EncodeScratch, Name, Rcode, Record, RecordType};
use ldp_rng::{KeyTable, Probe};

use crate::{AnswerBytes, CacheConfig, MAX_TTL, NEG_TTL_CAP, NEG_TTL_DEFAULT};

/// A cached outcome for a (name, type) question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// Positive answer records (answer-section records, CNAMEs included)
    /// in wire form, encoded after a question about the entry's key.
    Positive(AnswerBytes),
    /// Negative result with the rcode to reproduce (NXDOMAIN or NODATA
    /// as NoError-with-no-answers).
    Negative(Rcode),
}

/// Per-entry bookkeeping the eviction policies rank on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryMeta {
    /// When this key was first inserted (survives refreshes, so the
    /// arrival-rate estimate spans the key's whole observed lifetime).
    pub first_seen: f64,
    /// Lifetime requests for this key: cache hits plus, at each fill,
    /// every request the fill aggregated (lead + coalesced waiters).
    pub requests: u64,
    /// Global access sequence number of the last touch (recency).
    pub last_access_seq: u64,
    /// Observed upstream latency of the most recent fill, seconds —
    /// what a miss for this key is expected to cost again.
    pub fill_latency: f64,
}

/// What a fill observed, fed back into the store at insert time so the
/// delay-aware policy can rank on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillInfo {
    /// Upstream latency of the resolution that produced this answer
    /// (seconds).
    pub latency: f64,
    /// Requests this fill served: the lead miss plus every waiter that
    /// coalesced onto it while it was outstanding.
    pub requests: u64,
}

impl Default for FillInfo {
    fn default() -> Self {
        FillInfo {
            latency: 0.0,
            requests: 1,
        }
    }
}

/// Result of a `put_*` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PutOutcome {
    /// Whether the answer was stored (expired/empty sets are rejected).
    pub inserted: bool,
    /// Entries evicted to make room.
    pub evicted: usize,
}

/// Cumulative store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing usable (absent or expired).
    pub misses: u64,
    /// Of the misses, lookups that found only an expired entry.
    pub expired: u64,
    /// Successful inserts (positive + negative).
    pub inserts: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Inserts rejected (empty record set, zero/overflowed TTL, or
    /// capacity 0).
    pub rejected: u64,
}

#[derive(Debug)]
struct Entry {
    answer: CachedAnswer,
    expires: f64,
    slot: u64,
    rank: u128,
    meta: EntryMeta,
}

/// A question as a probe of the entries' `(name, qtype)` keys: it
/// hashes as the key it stands for (a tuple hashes its fields in
/// order), without a copy of the name.
#[derive(Hash)]
struct Question<'a>(&'a Name, u16);

impl Probe<(Name, u16)> for Question<'_> {
    fn is(&self, key: &(Name, u16)) -> bool {
        key.1 == self.1 && key.0 == *self.0
    }
}

/// The eviction order of a store that has filled up: the entries'
/// `(rank, slot)` pairs, and where each slot's entry is.
#[derive(Debug, Default, PartialEq)]
struct EvictionIndex {
    /// Eviction order: minimum `(rank, slot)` is evicted first.
    by_rank: BTreeSet<(u128, u64)>,
    /// slot → key, to resolve an eviction victim back to its entry.
    slot_key: BTreeMap<u64, (Name, u16)>,
}

impl EvictionIndex {
    /// The index of `entries` as they stand (a walk in entry order,
    /// into sets).
    fn of(entries: &KeyTable<(Name, u16), Entry>) -> Self {
        let mut index = EvictionIndex::default();
        for (key, e) in entries.iter() {
            index.by_rank.insert((e.rank, e.slot));
            index.slot_key.insert(e.slot, key.clone());
        }
        index
    }

    fn forget(&mut self, e: &Entry) {
        self.by_rank.remove(&(e.rank, e.slot));
        self.slot_key.remove(&e.slot);
    }
}

/// The capacity-bounded, TTL-aware resolver cache.
#[derive(Debug)]
pub struct ResolverCache {
    config: CacheConfig,
    /// (name, qtype) → entry.
    entries: KeyTable<(Name, u16), Entry>,
    /// The eviction index, once the store has been full.
    index: Option<EvictionIndex>,
    seq: u64,
    next_slot: u64,
    stats: CacheStats,
    /// What [`ResolverCache::put_positive`] encodes with, made at its
    /// first use.
    encode: Option<EncodeScratch>,
}

impl ResolverCache {
    /// A cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        ResolverCache {
            config,
            entries: KeyTable::new(),
            index: None,
            seq: 0,
            next_slot: 0,
            stats: CacheStats::default(),
            encode: None,
        }
    }

    /// The legacy shape: unbounded, LRU-ranked.
    pub fn unbounded() -> Self {
        ResolverCache::new(CacheConfig::default())
    }

    /// Look up a question at time `now`. Expired entries miss and are
    /// evicted lazily; hits refresh the entry's recency/frequency
    /// bookkeeping (and thus its eviction rank).
    pub fn get(&mut self, name: &Name, qtype: RecordType, now: f64) -> Option<CachedAnswer> {
        self.lookup(name, qtype, now).cloned()
    }

    /// [`get`](Self::get) without the copy, for a caller that only
    /// reads the answer: the entry is handed out borrowed.
    pub fn lookup(&mut self, name: &Name, qtype: RecordType, now: f64) -> Option<&CachedAnswer> {
        // The entry as a handle, not a borrow: the borrow a hit returns
        // keeps `entries` borrowed on every path out of here, and the
        // handle can still drop an expired entry on the path that
        // returns nothing.
        if let Some(entry) = self.entries.occupied(&Question(name, qtype.to_u16())) {
            if entry.get().expires > now {
                let e = entry.into_mut();
                self.seq += 1;
                e.meta.last_access_seq = self.seq;
                e.meta.requests = e.meta.requests.saturating_add(1);
                let new_rank = self.config.policy.rank(&e.meta, now);
                if let Some(index) = &mut self.index {
                    index.by_rank.remove(&(e.rank, e.slot));
                    index.by_rank.insert((new_rank, e.slot));
                }
                e.rank = new_rank;
                self.stats.hits += 1;
                return Some(&e.answer);
            }
            let e = entry.remove();
            if let Some(index) = &mut self.index {
                index.forget(&e);
            }
            self.stats.expired += 1;
        }
        self.stats.misses += 1;
        None
    }

    /// Insert a positive answer; the effective TTL is the minimum
    /// record TTL, clamped per RFC 2181 §8 (31-bit bound → 0, then
    /// capped at [`MAX_TTL`]). Empty or already-expired
    /// sets (effective TTL 0) are rejected, never inserted. The records
    /// are encoded after a question about `name` and kept in that form.
    pub fn put_positive(
        &mut self,
        name: &Name,
        qtype: RecordType,
        records: impl AsRef<[Record]>,
        now: f64,
        fill: FillInfo,
    ) -> PutOutcome {
        let records = records.as_ref();
        let ttl = records.iter().map(|r| r.ttl).min();
        let Some(ttl) = ttl.filter(|&ttl| clamp_positive_ttl(ttl) > 0) else {
            self.stats.rejected += 1;
            return PutOutcome::default();
        };
        let scratch = self.encode.get_or_insert_with(EncodeScratch::new);
        let answer = AnswerBytes::compile(name, records, scratch);
        self.put_answer(name, qtype, answer, ttl, now, fill)
    }

    /// [`put_positive`](Self::put_positive) of records already encoded
    /// after a question about `name` ([`AnswerBytes::compile`]), the
    /// least of whose TTLs is `min_ttl`.
    pub fn put_answer(
        &mut self,
        name: &Name,
        qtype: RecordType,
        answer: AnswerBytes,
        min_ttl: u32,
        now: f64,
        fill: FillInfo,
    ) -> PutOutcome {
        let ttl = clamp_positive_ttl(min_ttl);
        if answer.count() == 0 || ttl == 0 {
            self.stats.rejected += 1;
            return PutOutcome::default();
        }
        self.insert(name, qtype, CachedAnswer::Positive(answer), ttl, now, fill)
    }

    /// Insert a negative answer (RFC 2308). `soa_ttl` is the TTL
    /// derived from the authority-section SOA ([`crate::negative_ttl`]);
    /// `None` falls back to the named [`NEG_TTL_DEFAULT`]. Either way the
    /// value is capped at [`NEG_TTL_CAP`].
    pub fn put_negative(
        &mut self,
        name: &Name,
        qtype: RecordType,
        rcode: Rcode,
        soa_ttl: Option<u32>,
        now: f64,
        fill: FillInfo,
    ) -> PutOutcome {
        let ttl = clamp_negative_ttl(soa_ttl);
        if ttl == 0 {
            self.stats.rejected += 1;
            return PutOutcome::default();
        }
        self.insert(name, qtype, CachedAnswer::Negative(rcode), ttl, now, fill)
    }

    /// Entries currently resident (including not-yet-evicted expired
    /// ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop everything (a "cold cache" reset — zone construction
    /// requires cold-cache walks, paper §2.3). Counters survive.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index = None;
    }

    fn insert(
        &mut self,
        name: &Name,
        qtype: RecordType,
        answer: CachedAnswer,
        ttl: u32,
        now: f64,
        fill: FillInfo,
    ) -> PutOutcome {
        if self.config.capacity == 0 {
            self.stats.rejected += 1;
            return PutOutcome::default();
        }
        let t = qtype.to_u16();
        // Refresh: drop the old generation but keep its lifetime stats.
        let carried = self.remove_key(name, t);
        let mut evicted = 0;
        if self.entries.len() >= self.config.capacity && self.index.is_none() {
            self.index = Some(EvictionIndex::of(&self.entries));
        }
        while self.entries.len() >= self.config.capacity {
            if !self.evict_one() {
                break;
            }
            evicted += 1;
        }
        self.seq += 1;
        let meta = EntryMeta {
            first_seen: carried.map(|m| m.first_seen).unwrap_or(now),
            requests: carried
                .map(|m| m.requests)
                .unwrap_or(0)
                .saturating_add(fill.requests.max(1)),
            last_access_seq: self.seq,
            fill_latency: fill.latency.max(0.0),
        };
        let rank = self.config.policy.rank(&meta, now);
        let slot = self.next_slot;
        self.next_slot += 1;
        self.entries.insert(
            (name.clone(), t),
            Entry {
                answer,
                expires: now + ttl as f64,
                slot,
                rank,
                meta,
            },
        );
        if let Some(index) = &mut self.index {
            index.by_rank.insert((rank, slot));
            index.slot_key.insert(slot, (name.clone(), t));
        }
        self.stats.inserts += 1;
        self.stats.evictions += evicted as u64;
        PutOutcome {
            inserted: true,
            evicted,
        }
    }

    /// Remove the entry for (name, t) if present, returning its meta
    /// (for refresh carry-over).
    fn remove_key(&mut self, name: &Name, t: u16) -> Option<EntryMeta> {
        let e = self.entries.remove(&Question(name, t))?;
        if let Some(index) = &mut self.index {
            index.forget(&e);
        }
        Some(e.meta)
    }

    /// Evict the minimum-ranked entry; false if the store is empty (or
    /// has never been full, so has no index).
    fn evict_one(&mut self) -> bool {
        let Some(index) = &mut self.index else {
            return false;
        };
        let Some((_, slot)) = index.by_rank.pop_first() else {
            return false;
        };
        let Some(key) = index.slot_key.remove(&slot) else {
            return false;
        };
        self.entries.remove(&key);
        true
    }

    /// The eviction index held, next to the one the entries make.
    #[cfg(test)]
    fn index_and_derived(&self) -> (Option<&EvictionIndex>, EvictionIndex) {
        (self.index.as_ref(), EvictionIndex::of(&self.entries))
    }
}

/// RFC 2181 §8: TTL is a 31-bit unsigned value; a received TTL with the
/// high bit set must be treated as zero.
fn clamp_rfc2181(ttl: u32) -> u32 {
    if ttl > i32::MAX as u32 {
        0
    } else {
        ttl
    }
}

/// A positive TTL as stored: the RFC 2181 §8 bound, then [`MAX_TTL`].
/// A TTL of 0 stays 0 ("do not cache").
fn clamp_positive_ttl(raw: u32) -> u32 {
    clamp_rfc2181(raw).min(MAX_TTL)
}

/// A negative TTL as stored: the SOA-derived one or [`NEG_TTL_DEFAULT`],
/// bounded per RFC 2181 §8 and capped at [`NEG_TTL_CAP`].
fn clamp_negative_ttl(soa_ttl: Option<u32>) -> u32 {
    clamp_rfc2181(soa_ttl.unwrap_or(NEG_TTL_DEFAULT)).min(NEG_TTL_CAP)
}

/// The store as it was before the one-map layout: `name → qtype →
/// Entry` in two levels, everything else as it is. Kept as the oracle of
/// `matches_the_two_level_store_on_generated_scripts` (and for nothing
/// else).
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::{btree_map, BTreeMap, BTreeSet};

    use dns_wire::{EncodeScratch, Name, Rcode, Record, RecordType};

    use super::{clamp_negative_ttl, clamp_positive_ttl};
    use super::{CacheStats, CachedAnswer, Entry, EntryMeta, FillInfo, PutOutcome};
    use crate::{AnswerBytes, CacheConfig};

    #[derive(Debug)]
    pub struct ResolverCache {
        config: CacheConfig,
        entries: BTreeMap<Name, BTreeMap<u16, Entry>>,
        pub by_rank: BTreeSet<(u128, u64)>,
        pub slot_key: BTreeMap<u64, (Name, u16)>,
        count: usize,
        seq: u64,
        next_slot: u64,
        stats: CacheStats,
    }

    impl ResolverCache {
        pub fn new(config: CacheConfig) -> Self {
            ResolverCache {
                config,
                entries: BTreeMap::new(),
                by_rank: BTreeSet::new(),
                slot_key: BTreeMap::new(),
                count: 0,
                seq: 0,
                next_slot: 0,
                stats: CacheStats::default(),
            }
        }

        pub fn lookup(
            &mut self,
            name: &Name,
            qtype: RecordType,
            now: f64,
        ) -> Option<&CachedAnswer> {
            let t = qtype.to_u16();
            if let btree_map::Entry::Occupied(mut types) = self.entries.entry(name.clone()) {
                if types.get().get(&t).is_some_and(|e| e.expires > now) {
                    let e = types.into_mut().get_mut(&t)?;
                    self.seq += 1;
                    e.meta.last_access_seq = self.seq;
                    e.meta.requests = e.meta.requests.saturating_add(1);
                    let new_rank = self.config.policy.rank(&e.meta, now);
                    self.by_rank.remove(&(e.rank, e.slot));
                    self.by_rank.insert((new_rank, e.slot));
                    e.rank = new_rank;
                    self.stats.hits += 1;
                    return Some(&e.answer);
                }
                if let Some(e) = types.get_mut().remove(&t) {
                    if types.get().is_empty() {
                        types.remove();
                    }
                    self.by_rank.remove(&(e.rank, e.slot));
                    self.slot_key.remove(&e.slot);
                    self.count = self.count.saturating_sub(1);
                    self.stats.expired += 1;
                }
            }
            self.stats.misses += 1;
            None
        }

        pub fn put_positive(
            &mut self,
            name: &Name,
            qtype: RecordType,
            records: Vec<Record>,
            now: f64,
            fill: FillInfo,
        ) -> PutOutcome {
            let Some(raw) = records.iter().map(|r| r.ttl).min() else {
                self.stats.rejected += 1;
                return PutOutcome::default();
            };
            let ttl = clamp_positive_ttl(raw);
            if ttl == 0 {
                self.stats.rejected += 1;
                return PutOutcome::default();
            }
            let answer = AnswerBytes::compile(name, &records, &mut EncodeScratch::new());
            self.insert(name, qtype, CachedAnswer::Positive(answer), ttl, now, fill)
        }

        pub fn put_negative(
            &mut self,
            name: &Name,
            qtype: RecordType,
            rcode: Rcode,
            soa_ttl: Option<u32>,
            now: f64,
            fill: FillInfo,
        ) -> PutOutcome {
            let ttl = clamp_negative_ttl(soa_ttl);
            if ttl == 0 {
                self.stats.rejected += 1;
                return PutOutcome::default();
            }
            self.insert(name, qtype, CachedAnswer::Negative(rcode), ttl, now, fill)
        }

        pub fn len(&self) -> usize {
            self.count
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn clear(&mut self) {
            self.entries.clear();
            self.by_rank.clear();
            self.slot_key.clear();
            self.count = 0;
        }

        fn insert(
            &mut self,
            name: &Name,
            qtype: RecordType,
            answer: CachedAnswer,
            ttl: u32,
            now: f64,
            fill: FillInfo,
        ) -> PutOutcome {
            if self.config.capacity == 0 {
                self.stats.rejected += 1;
                return PutOutcome::default();
            }
            let t = qtype.to_u16();
            let carried = self.remove_key(name, t);
            let mut evicted = 0;
            while self.count >= self.config.capacity {
                if !self.evict_one() {
                    break;
                }
                evicted += 1;
            }
            self.seq += 1;
            let meta = EntryMeta {
                first_seen: carried.map(|m| m.first_seen).unwrap_or(now),
                requests: carried
                    .map(|m| m.requests)
                    .unwrap_or(0)
                    .saturating_add(fill.requests.max(1)),
                last_access_seq: self.seq,
                fill_latency: fill.latency.max(0.0),
            };
            let rank = self.config.policy.rank(&meta, now);
            let slot = self.next_slot;
            self.next_slot += 1;
            self.entries.entry(name.clone()).or_default().insert(
                t,
                Entry {
                    answer,
                    expires: now + ttl as f64,
                    slot,
                    rank,
                    meta,
                },
            );
            self.by_rank.insert((rank, slot));
            self.slot_key.insert(slot, (name.clone(), t));
            self.count += 1;
            self.stats.inserts += 1;
            self.stats.evictions += evicted as u64;
            PutOutcome {
                inserted: true,
                evicted,
            }
        }

        fn remove_key(&mut self, name: &Name, t: u16) -> Option<EntryMeta> {
            let types = self.entries.get_mut(name)?;
            let e = types.remove(&t)?;
            if types.is_empty() {
                self.entries.remove(name);
            }
            self.by_rank.remove(&(e.rank, e.slot));
            self.slot_key.remove(&e.slot);
            self.count = self.count.saturating_sub(1);
            Some(e.meta)
        }

        fn evict_one(&mut self) -> bool {
            let Some(&(rank, slot)) = self.by_rank.iter().next() else {
                return false;
            };
            self.by_rank.remove(&(rank, slot));
            let Some((name, t)) = self.slot_key.remove(&slot) else {
                return false;
            };
            if let Some(types) = self.entries.get_mut(&name) {
                types.remove(&t);
                if types.is_empty() {
                    self.entries.remove(&name);
                }
            }
            self.count = self.count.saturating_sub(1);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use dns_wire::{RData, Record};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a_rec(name: &str, ttl: u32) -> Record {
        Record::new(n(name), ttl, RData::A("1.2.3.4".parse().unwrap()))
    }

    fn put(c: &mut ResolverCache, name: &str, ttl: u32, now: f64) -> PutOutcome {
        c.put_positive(
            &n(name),
            RecordType::A,
            vec![a_rec(name, ttl)],
            now,
            FillInfo::default(),
        )
    }

    #[test]
    fn positive_hit_until_ttl() {
        let mut c = ResolverCache::unbounded();
        put(&mut c, "www.example", 60, 100.0);
        assert!(c.get(&n("www.example"), RecordType::A, 120.0).is_some());
        assert!(c.get(&n("www.example"), RecordType::A, 159.9).is_some());
        assert!(c.get(&n("www.example"), RecordType::A, 160.1).is_none());
        assert!(c.is_empty(), "expired entry evicted lazily");
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn empty_record_set_is_rejected_not_inserted() {
        // The first-generation cache inserted an already-expired entry
        // here (expires = now + 0); the store must skip it entirely.
        let mut c = ResolverCache::unbounded();
        let out = c.put_positive(&n("x."), RecordType::A, vec![], 5.0, FillInfo::default());
        assert!(!out.inserted);
        assert!(c.is_empty());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn zero_ttl_set_is_rejected_not_inserted() {
        let mut c = ResolverCache::unbounded();
        let out = put(&mut c, "x.", 0, 5.0);
        assert!(!out.inserted);
        assert!(c.is_empty());
    }

    #[test]
    fn rfc2181_high_bit_ttl_treated_as_zero() {
        let mut c = ResolverCache::unbounded();
        let out = put(&mut c, "x.", 0x8000_0001, 5.0);
        assert!(!out.inserted, "31-bit overflow means do-not-cache");
    }

    #[test]
    fn absurd_ttl_clamped_to_max() {
        let mut c = ResolverCache::unbounded();
        put(&mut c, "x.", 2_000_000, 0.0);
        let cap = MAX_TTL as f64;
        assert!(c.get(&n("x."), RecordType::A, cap - 1.0).is_some());
        assert!(c.get(&n("x."), RecordType::A, cap + 1.0).is_none());
    }

    #[test]
    fn min_ttl_of_set_governs() {
        let mut c = ResolverCache::unbounded();
        c.put_positive(
            &n("x.example"),
            RecordType::A,
            vec![a_rec("x.example", 300), a_rec("x.example", 10)],
            0.0,
            FillInfo::default(),
        );
        assert!(c.get(&n("x.example"), RecordType::A, 9.0).is_some());
        assert!(c.get(&n("x.example"), RecordType::A, 11.0).is_none());
    }

    #[test]
    fn negative_soa_ttl_and_fallback() {
        let mut c = ResolverCache::unbounded();
        c.put_negative(
            &n("no."),
            RecordType::A,
            Rcode::NxDomain,
            Some(7),
            0.0,
            FillInfo::default(),
        );
        assert!(matches!(
            c.get(&n("no."), RecordType::A, 6.0),
            Some(CachedAnswer::Negative(Rcode::NxDomain))
        ));
        assert!(
            c.get(&n("no."), RecordType::A, 8.0).is_none(),
            "SOA TTL governs"
        );
        // No SOA: the named default (30 s) applies.
        c.put_negative(
            &n("no2."),
            RecordType::A,
            Rcode::NxDomain,
            None,
            0.0,
            FillInfo::default(),
        );
        assert!(c.get(&n("no2."), RecordType::A, 29.0).is_some());
        assert!(c.get(&n("no2."), RecordType::A, 31.0).is_none());
    }

    #[test]
    fn negative_ttl_capped() {
        let mut c = ResolverCache::unbounded();
        c.put_negative(
            &n("no."),
            RecordType::A,
            Rcode::NxDomain,
            Some(86_400),
            0.0,
            FillInfo::default(),
        );
        assert!(c.get(&n("no."), RecordType::A, 10_799.0).is_some());
        assert!(
            c.get(&n("no."), RecordType::A, 10_801.0).is_none(),
            "capped at 3h"
        );
    }

    #[test]
    fn type_distinguishes_entries() {
        let mut c = ResolverCache::unbounded();
        put(&mut c, "x.example", 60, 0.0);
        assert!(c.get(&n("x.example"), RecordType::AAAA, 1.0).is_none());
        assert!(c.get(&n("x.example"), RecordType::A, 1.0).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResolverCache::new(CacheConfig::bounded(2, PolicyKind::Lru));
        put(&mut c, "a.", 600, 0.0);
        put(&mut c, "b.", 600, 1.0);
        // Touch a so b is the LRU victim.
        assert!(c.get(&n("a."), RecordType::A, 2.0).is_some());
        let out = put(&mut c, "c.", 600, 3.0);
        assert_eq!(out.evicted, 1);
        assert!(c.get(&n("b."), RecordType::A, 4.0).is_none(), "b evicted");
        assert!(c.get(&n("a."), RecordType::A, 4.0).is_some());
        assert!(c.get(&n("c."), RecordType::A, 4.0).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = ResolverCache::new(CacheConfig::bounded(2, PolicyKind::LfuLite));
        put(&mut c, "hot.", 600, 0.0);
        put(&mut c, "cold.", 600, 1.0);
        for i in 0..5 {
            assert!(c.get(&n("hot."), RecordType::A, 2.0 + i as f64).is_some());
        }
        // cold. is more recent than hot. but far less frequent.
        assert!(c.get(&n("cold."), RecordType::A, 8.0).is_some());
        put(&mut c, "new.", 600, 9.0);
        assert!(
            c.get(&n("cold."), RecordType::A, 10.0).is_none(),
            "cold evicted"
        );
        assert!(c.get(&n("hot."), RecordType::A, 10.0).is_some());
    }

    #[test]
    fn delay_aware_keeps_expensive_entry() {
        let mut c = ResolverCache::new(CacheConfig::bounded(2, PolicyKind::DelayAware));
        // slow.: expensive fill that aggregated many waiters.
        c.put_positive(
            &n("slow."),
            RecordType::A,
            vec![a_rec("slow.", 600)],
            0.0,
            FillInfo {
                latency: 2.0,
                requests: 50,
            },
        );
        // fast.: cheap fill, single requester, but more recent.
        c.put_positive(
            &n("fast."),
            RecordType::A,
            vec![a_rec("fast.", 600)],
            1.0,
            FillInfo {
                latency: 0.001,
                requests: 1,
            },
        );
        put(&mut c, "new.", 600, 2.0);
        assert!(
            c.get(&n("slow."), RecordType::A, 3.0).is_some(),
            "expensive kept"
        );
        assert!(
            c.get(&n("fast."), RecordType::A, 3.0).is_none(),
            "cheap evicted"
        );
    }

    #[test]
    fn eviction_order_is_deterministic_across_runs() {
        let run = |kind: PolicyKind| -> Vec<bool> {
            let mut c = ResolverCache::new(CacheConfig::bounded(3, kind));
            for i in 0..8 {
                put(&mut c, &format!("k{i}."), 600, i as f64);
                if i % 2 == 0 {
                    c.get(&n(&format!("k{}.", i / 2)), RecordType::A, i as f64 + 0.5);
                }
            }
            (0..8)
                .map(|i| c.get(&n(&format!("k{i}.")), RecordType::A, 20.0).is_some())
                .collect()
        };
        for kind in PolicyKind::ALL {
            assert_eq!(
                run(kind),
                run(kind),
                "{kind:?} residency must be reproducible"
            );
        }
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut c = ResolverCache::new(CacheConfig::bounded(0, PolicyKind::Lru));
        let out = put(&mut c, "a.", 600, 0.0);
        assert!(!out.inserted);
        assert!(c.is_empty());
    }

    #[test]
    fn refresh_carries_lifetime_stats() {
        let mut c = ResolverCache::unbounded();
        put(&mut c, "a.", 10, 0.0);
        for t in 1..5 {
            assert!(c.get(&n("a."), RecordType::A, t as f64).is_some());
        }
        // Refresh after expiry; requests must accumulate, first_seen hold.
        c.put_positive(
            &n("a."),
            RecordType::A,
            vec![a_rec("a.", 10)],
            11.0,
            FillInfo {
                latency: 0.04,
                requests: 3,
            },
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().inserts, 2);
    }

    /// The adaptor and the borrowing core are one cache: over a
    /// generated script of fills, lookups and clock steps, `lookup`
    /// gives what `get` gives — answer, counters, lazy expiry, and the
    /// eviction order the next fills will follow.
    #[test]
    fn lookup_is_get_without_the_copy() {
        ldp_rng::check::check(256, |g| {
            let config = CacheConfig {
                capacity: *g.pick(&[0, 1, 2, 3, usize::MAX]),
                policy: *g.pick(&PolicyKind::ALL),
            };
            let (mut old, mut new) = (ResolverCache::new(config), ResolverCache::new(config));
            let mut now = 0.0;
            for _ in 0..g.size(1..=48) {
                if g.bool() {
                    now += g.f64(0.0, 40.0);
                }
                let name = *g.pick(&["a.", "b.", "c.x.", "d.x."]);
                let qtype = *g.pick(&[RecordType::A, RecordType::AAAA]);
                let fill = FillInfo {
                    latency: g.f64(0.0, 2.0),
                    requests: g.range(1..=5),
                };
                match g.below(5) {
                    0 => {
                        let ttl = *g.pick(&[0, 5, 30, 60, 0x8000_0001]);
                        let records = g.vec(0..=2, |_| a_rec(name, ttl));
                        let out = old.put_positive(&n(name), qtype, records.clone(), now, fill);
                        assert_eq!(new.put_positive(&n(name), qtype, records, now, fill), out);
                    }
                    1 => {
                        let ttl = g.option(|g| *g.pick(&[0, 7, 50]));
                        let out =
                            old.put_negative(&n(name), qtype, Rcode::NxDomain, ttl, now, fill);
                        let got =
                            new.put_negative(&n(name), qtype, Rcode::NxDomain, ttl, now, fill);
                        assert_eq!(got, out);
                    }
                    _ => {
                        let want = old.get(&n(name), qtype, now);
                        assert_eq!(new.lookup(&n(name), qtype, now).cloned(), want);
                    }
                }
                assert_eq!(new.stats(), old.stats());
                assert_eq!(new.len(), old.len());
                assert_eq!(new.index, old.index);
            }
        });
    }

    /// One map is the two-level store: over generated scripts of fills,
    /// lookups, clock steps and clears, on every policy,
    /// capacity 1–16 (so some scripts run a while before the store
    /// first fills) and unbounded, with several types per name and names
    /// that nest, the one-map store gives what [`reference`] gives —
    /// answer, put outcome (evictions included), `len`,
    /// counters. The reference keeps its eviction index and slot map on
    /// every step; the entries' own `(rank, slot)` make the same index
    /// at every step, and the index the store holds once it has been
    /// full is that one. And nothing is served past its TTL: a hit at
    /// `now` comes before the time its answer was stored plus its TTL
    /// clamped to [`MAX_TTL`] (positive; past the cap in some draws) or
    /// its SOA TTL or [`NEG_TTL_DEFAULT`] clamped to [`NEG_TTL_CAP`]
    /// (negative), with clock steps that land on those ends exactly.
    #[test]
    fn matches_the_two_level_store_on_generated_scripts() {
        ldp_rng::check::check(256, |g| {
            let config = CacheConfig {
                capacity: if g.below(4) == 0 {
                    usize::MAX
                } else {
                    g.size(1..=16)
                },
                policy: *g.pick(&PolicyKind::ALL),
            };
            let mut old = reference::ResolverCache::new(config);
            let mut new = ResolverCache::new(config);
            let mut now = 0.0;
            // (name, qtype) → the end of the stored answer's TTL.
            let mut ends: BTreeMap<(Name, RecordType), f64> = BTreeMap::new();
            let caps = [NEG_TTL_CAP as f64, MAX_TTL as f64];
            for _ in 0..g.size(1..=64) {
                match g.below(8) {
                    0 | 1 => now += g.f64(0.0, 40.0),
                    2 | 3 => now += *g.pick(&[1.0, 5.0, 7.0, 30.0, 50.0]),
                    4 => now += *g.pick(&caps),
                    _ => {}
                }
                let name = n(g.pick::<&str>(&["a.", "b.a.", "c.b.a.", "x.", "b.x.", "."]));
                let qtype = *g.pick(&[RecordType::A, RecordType::AAAA, RecordType::MX]);
                let fill = FillInfo {
                    latency: g.f64(0.0, 2.0),
                    requests: g.range(1..=5),
                };
                match g.below(12) {
                    0..=2 => {
                        let ttls = [0, 5, 30, 60, 1_000_000, 0x7fff_ffff, 0x8000_0001];
                        let ttl = *g.pick(&ttls);
                        let records = g.vec(0..=2, |_| a_rec("a.", ttl));
                        let out = old.put_positive(&name, qtype, records.clone(), now, fill);
                        assert_eq!(new.put_positive(&name, qtype, records, now, fill), out);
                        if out.inserted {
                            ends.insert((name, qtype), now + ttl.min(MAX_TTL) as f64);
                        }
                    }
                    3 | 4 => {
                        let ttl = g.option(|g| *g.pick(&[0, 7, 50, 20_000, 0x7fff_ffff]));
                        let rcode = *g.pick(&[Rcode::NxDomain, Rcode::NoError]);
                        let out = old.put_negative(&name, qtype, rcode, ttl, now, fill);
                        let got = new.put_negative(&name, qtype, rcode, ttl, now, fill);
                        assert_eq!(got, out);
                        if out.inserted {
                            let ttl = ttl.unwrap_or(NEG_TTL_DEFAULT).min(NEG_TTL_CAP);
                            ends.insert((name, qtype), now + ttl as f64);
                        }
                    }
                    5 => {
                        old.clear();
                        new.clear();
                        ends.clear();
                    }
                    _ => {
                        let want = old.lookup(&name, qtype, now).cloned();
                        let got = new.lookup(&name, qtype, now).cloned();
                        assert_eq!(got, want, "{name} {qtype}");
                        if got.is_some() {
                            let end = ends[&(name.clone(), qtype)];
                            assert!(now < end, "{name} {qtype} served at {now}, TTL ended {end}");
                        }
                    }
                }
                assert_eq!(new.stats(), old.stats());
                assert_eq!(new.len(), old.len());
                let (held, derived) = new.index_and_derived();
                assert_eq!(derived.by_rank, old.by_rank);
                assert_eq!(derived.slot_key, old.slot_key);
                if let Some(held) = held {
                    assert_eq!(*held, derived);
                }
                if config.capacity == usize::MAX {
                    assert!(held.is_none(), "an unbounded store built an index");
                }
            }
        });
    }

    /// What a resident answer costs beside its key: the answer, its
    /// expiry, its slot and rank in the eviction order, and what the
    /// policies rank on. A field added here shows as a change.
    #[test]
    fn an_entry_is_112_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 112);
    }

    #[test]
    fn clear_resets_residency() {
        let mut c = ResolverCache::unbounded();
        put(&mut c, "x.example", 60, 0.0);
        c.clear();
        assert!(c.get(&n("x.example"), RecordType::A, 0.0).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn hit_miss_counters() {
        let mut c = ResolverCache::unbounded();
        put(&mut c, "x.example", 60, 0.0);
        c.get(&n("x.example"), RecordType::A, 1.0);
        c.get(&n("y.example"), RecordType::A, 1.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }
}
