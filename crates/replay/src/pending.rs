//! The UDP pending table of [`crate::sim_replay::SimReplayClient`]: the
//! trace seq in flight under each `(source address, DNS id)`, the key a
//! reply carries back.
//!
//! A seq's key is what its trace entry says, so the table holds seqs
//! alone and asks the caller's `key_of` for the key of one it meets: a
//! slot is 16 bytes, not the 32 a copy of the key would make it. It is
//! open-addressed, with a fixed hash of the key, linear probing and
//! backward-shift deletion, so a removal leaves no tombstone and a
//! probe never walks further than the entries that really collide. It
//! grows ×2 whenever an insert would fill more than half of it and
//! never shrinks: once it has held a run's widest burst of queries in
//! flight, sending and matching allocate nothing.
//!
//! A hash table is allowed on a simulator path here because nothing can
//! iterate this one: it offers `insert`, `get`, `remove` and `clear`
//! and no way to walk its slots, so slot order — the thing that makes
//! `HashMap` iteration differ between processes, and which here is a
//! function of the keys alone — cannot reach a transcript.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::net::IpAddr;

/// What a UDP reply is matched on: the address it was sent to (the
/// query's source) and its DNS id.
pub type PendingKey = (IpAddr, u16);

/// Slots a table gets on its first insert.
const FIRST_SLOTS: usize = 16;

/// `(source, id) → seq` over the seqs of one trace, see the module
/// docs. Every method that meets a held seq takes `key_of`, the key
/// that seq's trace entry names; it must say the same of a seq for as
/// long as the seq is held.
#[derive(Debug, Default)]
pub struct PendingTable {
    /// A power of two many slots (or none yet), each empty or holding
    /// one seq, at most half of them full.
    slots: Vec<Option<u64>>,
    len: usize,
}

/// The home slot of `key` in a table of `mask + 1` slots: a fixed mix
/// of the address and the id, the same in every process.
fn home(key: &PendingKey, mask: usize) -> usize {
    let addr = match key.0 {
        IpAddr::V4(a) => u64::from(u32::from(a)),
        IpAddr::V6(a) => {
            let bits = u128::from(a);
            (bits as u64) ^ ((bits >> 64) as u64).rotate_left(29) ^ 0x6a09_e667_f3bc_c908
        }
    };
    // SplitMix64's finaliser over the address and the id.
    let mut z = addr ^ u64::from(key.1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as usize & mask
}

impl PendingTable {
    /// An empty table; it allocates on its first insert.
    pub fn new() -> Self {
        PendingTable::default()
    }

    /// Seqs held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots allocated: the table holds up to half this many seqs
    /// before it grows.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot holding the seq under `key`, if any.
    fn find(&self, key: &PendingKey, key_of: impl Fn(u64) -> PendingKey) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = home(key, mask);
        loop {
            match self.slots[at] {
                None => return None,
                Some(seq) if key_of(seq) == *key => return Some(at),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    /// The seq pending under `key`.
    pub fn get(&self, key: &PendingKey, key_of: impl Fn(u64) -> PendingKey) -> Option<u64> {
        self.slots[self.find(key, key_of)?]
    }

    /// Put `seq` under its key, returning the seq that was there (`seq`
    /// itself, for a resend).
    pub fn insert(&mut self, seq: u64, key_of: impl Fn(u64) -> PendingKey) -> Option<u64> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(&key_of);
        }
        self.place(seq, &key_of)
    }

    /// [`insert`](Self::insert) into slots known to have room.
    fn place(&mut self, seq: u64, key_of: &impl Fn(u64) -> PendingKey) -> Option<u64> {
        let key = key_of(seq);
        let mask = self.slots.len() - 1;
        let mut at = home(&key, mask);
        loop {
            match &mut self.slots[at] {
                Some(held) if key_of(*held) == key => return Some(std::mem::replace(held, seq)),
                Some(_) => at = (at + 1) & mask,
                empty @ None => {
                    *empty = Some(seq);
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Take the seq pending under `key` out. The seqs after it in its
    /// probe run move back into the hole where that brings them closer
    /// to home, so every seq stays reachable from its home slot without
    /// a tombstone.
    pub fn remove(&mut self, key: &PendingKey, key_of: impl Fn(u64) -> PendingKey) -> Option<u64> {
        let mut hole = self.find(key, &key_of)?;
        let seq = self.slots[hole].take()?;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut at = (hole + 1) & mask;
        while let Some(next) = self.slots[at] {
            // The seq may fill the hole if the hole lies on its probe
            // path: no further from its home than the seq itself.
            let from_home = at.wrapping_sub(home(&key_of(next), mask)) & mask;
            if from_home >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[at].take();
                hole = at;
            }
            at = (at + 1) & mask;
        }
        Some(seq)
    }

    /// Drop every seq, keeping the slots.
    pub fn clear(&mut self) {
        self.slots.fill(None);
        self.len = 0;
    }

    /// Double the slots (or make the first ones) and re-place every
    /// seq.
    fn grow(&mut self, key_of: &impl Fn(u64) -> PendingKey) {
        let slots = (2 * self.slots.len()).max(FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![None; slots]);
        self.len = 0;
        for seq in old.into_iter().flatten() {
            self.place(seq, key_of);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rng::check::check;
    use std::collections::BTreeMap;

    /// Generated scripts of inserts, lookups, removals and clears over
    /// a trace whose keys collide — a handful of ids on a handful of v4
    /// and v6 addresses, among them a v4 address and the v6 address that
    /// embeds it — run long enough to grow the table several times,
    /// against a `BTreeMap`: every answer, `len`, and every key's
    /// lookup after every step.
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

    /// The table grows at half load and keeps its slots through
    /// removals and a clear.
    #[test]
    fn grows_at_half_load_and_never_shrinks() {
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let key_of = |seq: u64| (ip, seq as u16);
        let mut table = PendingTable::new();
        assert_eq!(table.capacity(), 0);
        for seq in 0..8 {
            assert_eq!(table.insert(seq, key_of), None);
        }
        assert_eq!(table.capacity(), 16);
        table.insert(8, key_of);
        assert_eq!(table.capacity(), 32);
        for seq in 0..9 {
            assert_eq!(table.remove(&key_of(seq), key_of), Some(seq));
        }
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.capacity(), 32);
    }
}
