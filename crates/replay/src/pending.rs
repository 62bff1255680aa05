//! The UDP pending table of [`crate::sim_replay::SimReplayClient`]: the
//! trace seq in flight under each `(source address, DNS id)`, the key a
//! reply carries back.
//!
//! It is a [`KeyTable`] (`ldp_rng::table`, the workspace's one hash
//! table) from the key to the seq, hashed from the address's bits and
//! the id ([`ByAddr`]): linear probing, backward-shift deletion, an
//! index that grows ×2 whenever an insert would fill more than half of
//! it, and entries in chunks that are never reallocated. Nothing
//! shrinks: once it has held a run's widest burst of queries in
//! flight, sending and matching allocate nothing.
//!
//! A seq's key is what its trace entry says, so every method that meets
//! a held seq takes `key_of`, the key that seq's trace entry names;
//! `insert` reads the key from it.
//!
//! A hash table is allowed on a simulator path here because nothing can
//! iterate this one: it offers `insert`, `get`, `remove` and `clear`
//! and no way to walk it, so slot order — the thing that makes
//! `HashMap` iteration differ between processes — cannot reach a
//! transcript.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::net::IpAddr;

use ldp_rng::{ByAddr, KeyTable};

/// What a UDP reply is matched on: the address it was sent to (the
/// query's source) and its DNS id.
pub type PendingKey = (IpAddr, u16);

/// `(source, id) → seq` over the seqs of one trace, see the module
/// docs. Every method that meets a held seq takes `key_of`, the key
/// that seq's trace entry names; it must say the same of a seq for as
/// long as the seq is held.
#[derive(Debug, Default)]
pub struct PendingTable {
    seqs: KeyTable<PendingKey, u64, ByAddr>,
}

impl PendingTable {
    /// An empty table; it allocates on its first insert.
    pub fn new() -> Self {
        PendingTable::default()
    }

    /// Seqs held.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Index slots allocated: the table holds up to half this many
    /// seqs before it grows.
    pub fn capacity(&self) -> usize {
        self.seqs.capacity()
    }

    /// The seq pending under `key`.
    pub fn get(&self, key: &PendingKey, key_of: impl Fn(u64) -> PendingKey) -> Option<u64> {
        let seq = self.seqs.get(key).copied();
        debug_assert!(seq.is_none_or(|seq| key_of(seq) == *key));
        seq
    }

    /// Put `seq` under its key, returning the seq that was there (`seq`
    /// itself, for a resend).
    pub fn insert(&mut self, seq: u64, key_of: impl Fn(u64) -> PendingKey) -> Option<u64> {
        self.seqs.insert(key_of(seq), seq)
    }

    /// Take the seq pending under `key` out.
    pub fn remove(&mut self, key: &PendingKey, key_of: impl Fn(u64) -> PendingKey) -> Option<u64> {
        let seq = self.seqs.remove(key);
        debug_assert!(seq.is_none_or(|seq| key_of(seq) == *key));
        seq
    }

    /// Drop every seq, keeping the slots.
    pub fn clear(&mut self) {
        self.seqs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rng::check::check;
    use std::collections::BTreeMap;

    /// Generated scripts of inserts, lookups, removals and clears over
    /// a trace whose keys share addresses and ids — a handful of ids on
    /// a handful of v4 and v6 addresses, among them a v4 address and the
    /// v6 address that embeds it — against a `BTreeMap`, through the
    /// `key_of` contract and `ByAddr`'s hash: every answer, `len`, and
    /// every key's lookup after every step. (The table's own layout —
    /// growth, chunks, colliding and wrapping probe runs — is held by
    /// `ldp_rng::table`'s property.)
    #[test]
    fn matches_a_btreemap_on_generated_scripts() {
        let addrs: [IpAddr; 6] = [
            "10.1.0.1".parse().unwrap(),
            "10.1.0.2".parse().unwrap(),
            "192.0.2.77".parse().unwrap(),
            "::ffff:10.1.0.1".parse().unwrap(),
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        ];
        check(256, |g| {
            let ids = g.range(1..=40) as u16;
            let keys: Vec<PendingKey> = addrs
                .iter()
                .flat_map(|&a| (0..ids).map(move |id| (a, id.wrapping_mul(4_099))))
                .collect();
            // The trace: the key each seq's entry names.
            let trace: Vec<PendingKey> = (0..g.size(1..=400)).map(|_| *g.pick(&keys)).collect();
            let key_of = |seq: u64| trace[seq as usize];
            let mut table = PendingTable::new();
            let mut model: BTreeMap<PendingKey, u64> = BTreeMap::new();
            for _ in 0..g.size(0..=600) {
                let seq = g.below(trace.len() as u64);
                let key = key_of(seq);
                match g.below(16) {
                    0..=6 => assert_eq!(table.insert(seq, key_of), model.insert(key, seq)),
                    7..=11 => assert_eq!(table.remove(&key, key_of), model.remove(&key)),
                    12..=14 => assert_eq!(table.get(&key, key_of), model.get(&key).copied()),
                    _ => {
                        if g.below(8) == 0 {
                            table.clear();
                            model.clear();
                        }
                    }
                }
                assert_eq!(table.len(), model.len());
                assert!(2 * table.len() <= table.capacity());
                for key in &keys {
                    assert_eq!(table.get(key, key_of), model.get(key).copied(), "{key:?}");
                }
            }
        });
    }

    /// The table starts with room for one chunk of seqs (256 of 32
    /// bytes) at half load, grows at half load and keeps its slots
    /// through removals and a clear.
    #[test]
    fn grows_at_half_load_and_never_shrinks() {
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let key_of = |seq: u64| (ip, seq as u16);
        let mut table = PendingTable::new();
        assert_eq!(table.capacity(), 0);
        for seq in 0..256 {
            assert_eq!(table.insert(seq, key_of), None);
        }
        assert_eq!(table.capacity(), 512);
        table.insert(256, key_of);
        assert_eq!(table.capacity(), 1024);
        for seq in 0..257 {
            assert_eq!(table.remove(&key_of(seq), key_of), Some(seq));
        }
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.capacity(), 1024);
    }
}
