//! The workspace's one hash table, [`KeyTable`]: a map read and written
//! one key at a time, with nothing that can walk it in hash order.
//!
//! Layout:
//! - **Index.** A power-of-two array of 8-byte slots, each an entry
//!   position (`u32`) and 32 bits of the key's hash. Probing is linear
//!   from the key's home slot; a removal shifts the slots after it back
//!   into the hole where that brings them closer to home, so there are
//!   no tombstones and a probe never walks past the keys that really
//!   collide. The first insert makes an index that holds the first
//!   chunk of entries at half load; from there it doubles whenever an
//!   insert would fill more than half of it, and it never shrinks.
//! - **Entries.** Entries live in chunks of a fixed byte size that are
//!   allocated once and never reallocated, so a table that grows moves
//!   no entry and copies no chunk. Positions are dense: a removal moves
//!   the last entry into the hole and repoints that entry's slot.
//!   Emptied chunks are kept, so a table that has once held its widest
//!   load inserts and removes without allocating.
//! - **Hash.** A fixed function of the key, the same in every process:
//!   [`ByHash`] feeds the key's [`Hash`] to an in-tree [`Hasher`] and
//!   finishes with [`mix`]; [`ByAddr`] mixes an address's bits
//!   directly. A lookup takes a [`Probe`] — the key itself, or a
//!   borrowed form of it that hashes alike — so a probe need not build
//!   a key.
//!
//! Why a hash table is allowed on a simulator path (DESIGN.md §7, rule
//! D2): slot order is what makes `HashMap` iteration differ between
//! processes, and here nothing can read it. The table offers lookups,
//! inserts and removals by key, and one walk, [`KeyTable::iter`], in
//! entry order — an order that depends only on the sequence of inserts
//! and removals, never on a hash. `Debug` prints the length only.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: every lookup crosses it, so it never panics (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::net::IpAddr;

use crate::{mix, GAMMA};

/// Bytes of entries one chunk holds (at least one entry).
const CHUNK_BYTES: usize = 8192;

/// The position of a slot that holds no entry.
const EMPTY: u32 = u32::MAX;

/// A value a table of `K` can be looked up by: the key itself, or a
/// borrowed form of it. It must hash, under the table's [`KeyHash`],
/// as the key it matches does.
pub trait Probe<K> {
    /// Whether `key` is the key this probe stands for.
    fn is(&self, key: &K) -> bool;
}

impl<K: Eq> Probe<K> for K {
    fn is(&self, key: &K) -> bool {
        self == key
    }
}

/// How a table hashes its keys and probes: a fixed function, the same
/// in every process.
pub trait KeyHash<Q: ?Sized> {
    /// The 64-bit hash of `q`.
    fn hash(q: &Q) -> u64;
}

/// Hash through the value's [`Hash`], folded by an in-tree [`Hasher`]
/// and finished with [`mix`]: the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByHash;

impl<Q: Hash + ?Sized> KeyHash<Q> for ByHash {
    #[inline]
    fn hash(q: &Q) -> u64 {
        let mut h = FoldHasher(0);
        q.hash(&mut h);
        h.finish()
    }
}

/// Hash an address (and a DNS id with it) from its bits, without the
/// derived [`Hash`]'s discriminant and length prefix.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByAddr;

/// An address's bits in one word: a v4 address as it is, a v6 address
/// folded, with a constant that keeps it off the v4 it may embed.
#[inline]
fn addr_bits(addr: &IpAddr) -> u64 {
    match addr {
        IpAddr::V4(a) => u64::from(u32::from(*a)),
        IpAddr::V6(a) => {
            let bits = u128::from(*a);
            (bits as u64) ^ ((bits >> 64) as u64).rotate_left(29) ^ 0x6a09_e667_f3bc_c908
        }
    }
}

impl KeyHash<IpAddr> for ByAddr {
    #[inline]
    fn hash(addr: &IpAddr) -> u64 {
        mix(addr_bits(addr))
    }
}

impl KeyHash<(IpAddr, u16)> for ByAddr {
    #[inline]
    fn hash(&(addr, id): &(IpAddr, u16)) -> u64 {
        mix(addr_bits(&addr) ^ u64::from(id).wrapping_mul(GAMMA))
    }
}

/// [`ByHash`]'s hasher: each word written is folded in with a rotate,
/// an xor and a multiply (FxHash's step); [`mix`] finishes.
struct FoldHasher(u64);

impl FoldHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        let mut word = [0u8; 8];
        for w in &mut words {
            word.copy_from_slice(w);
            self.fold(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix(self.0)
    }
}

/// One index slot: where its entry is, and 32 bits of its key's hash
/// (the home slot is their low bits, so growing rehashes no key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    pos: u32,
    bits: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        pos: EMPTY,
        bits: 0,
    };
}

#[derive(Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    /// The hash bits its slot holds, to find that slot when the entry
    /// moves.
    bits: u32,
}

/// A `K → V` map of expected O(1) lookups, see the module docs. `H`
/// says how keys hash.
pub struct KeyTable<K, V, H = ByHash> {
    /// A power of two many slots (or none yet), at most half of them
    /// full.
    slots: Vec<Slot>,
    /// Entry `p` is `chunks[p / PER_CHUNK][p % PER_CHUNK]`; every chunk
    /// was allocated with room for `PER_CHUNK` entries.
    chunks: Vec<Vec<Entry<K, V>>>,
    len: usize,
    hash: PhantomData<H>,
}

impl<K, V, H> KeyTable<K, V, H> {
    /// Entries a chunk holds.
    const PER_CHUNK: usize = {
        let fit = CHUNK_BYTES / std::mem::size_of::<Entry<K, V>>();
        if fit == 0 {
            1
        } else {
            fit
        }
    };

    /// Slots the index gets on the first insert, with the first chunk:
    /// enough for that chunk's entries at half load, so filling the
    /// first chunk never regrows the index.
    const FIRST_SLOTS: usize = (2 * Self::PER_CHUNK).next_power_of_two();

    /// An empty table; it allocates on its first insert.
    pub fn new() -> Self {
        KeyTable {
            slots: Vec::new(),
            chunks: Vec::new(),
            len: 0,
            hash: PhantomData,
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index slots allocated: the table holds up to half this many
    /// entries before the index grows.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Drop every entry, keeping the index and the chunks.
    pub fn clear(&mut self) {
        self.slots.fill(Slot::EMPTY);
        for chunk in &mut self.chunks {
            chunk.clear();
        }
        self.len = 0;
    }

    /// Every entry, in entry order: the order the inserts and removals
    /// so far left them in (a removal moves the last entry into its
    /// hole), never the order of their hashes.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.chunks
            .iter()
            .flatten()
            .map(|entry| (&entry.key, &entry.value))
    }

    fn entry(&self, pos: u32) -> &Entry<K, V> {
        let pos = pos as usize;
        &self.chunks[pos / Self::PER_CHUNK][pos % Self::PER_CHUNK]
    }

    fn entry_mut(&mut self, pos: u32) -> &mut Entry<K, V> {
        let pos = pos as usize;
        &mut self.chunks[pos / Self::PER_CHUNK][pos % Self::PER_CHUNK]
    }

    /// The slot holding the key `q` stands for, whose hash bits are
    /// `bits`.
    fn find<Q: Probe<K> + ?Sized>(&self, bits: u32, q: &Q) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = bits as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.pos == EMPTY {
                return None;
            }
            if slot.bits == bits && q.is(&self.entry(slot.pos).key) {
                return Some(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// Take out the entry of the slot at `at`: shift the slots after it
    /// back, then move the last entry into its position.
    fn remove_at(&mut self, at: usize) -> V {
        let pos = self.slots[at].pos;
        let mask = self.slots.len() - 1;
        let mut hole = at;
        let mut next = (at + 1) & mask;
        loop {
            let slot = self.slots[next];
            if slot.pos == EMPTY {
                break;
            }
            // The slot may fill the hole if the hole lies on its probe
            // path: no further from its home than the slot itself.
            let from_home = next.wrapping_sub(slot.bits as usize) & mask;
            if from_home >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole] = Slot::EMPTY;
        self.len -= 1;
        let last = self.len;
        let moved = self.chunks[last / Self::PER_CHUNK].swap_remove(last % Self::PER_CHUNK);
        let last = last as u32;
        if pos == last {
            return moved.value;
        }
        let mut at = moved.bits as usize & mask;
        while self.slots[at].pos != last {
            at = (at + 1) & mask;
        }
        self.slots[at].pos = pos;
        std::mem::replace(self.entry_mut(pos), moved).value
    }

    /// Double the index (or make the first one) and re-place every
    /// slot from its hash bits.
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(Self::FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; slots]);
        let mask = slots - 1;
        for slot in old.into_iter().filter(|slot| slot.pos != EMPTY) {
            let mut at = slot.bits as usize & mask;
            while self.slots[at].pos != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }

    /// The value under the key `q` stands for.
    #[inline]
    pub fn get<Q>(&self, q: &Q) -> Option<&V>
    where
        Q: Probe<K> + ?Sized,
        H: KeyHash<Q>,
    {
        let at = self.find(H::hash(q) as u32, q)?;
        Some(&self.entry(self.slots[at].pos).value)
    }

    /// The value under the key `q` stands for, to change in place.
    #[inline]
    pub fn get_mut<Q>(&mut self, q: &Q) -> Option<&mut V>
    where
        Q: Probe<K> + ?Sized,
        H: KeyHash<Q>,
    {
        let at = self.find(H::hash(q) as u32, q)?;
        Some(&mut self.entry_mut(self.slots[at].pos).value)
    }

    /// Whether the table holds the key `q` stands for.
    pub fn contains_key<Q>(&self, q: &Q) -> bool
    where
        Q: Probe<K> + ?Sized,
        H: KeyHash<Q>,
    {
        self.get(q).is_some()
    }

    /// The entry under the key `q` stands for, to read, keep borrowed
    /// or remove after one probe.
    #[inline]
    pub fn occupied<Q>(&mut self, q: &Q) -> Option<Occupied<'_, K, V, H>>
    where
        Q: Probe<K> + ?Sized,
        H: KeyHash<Q>,
    {
        let at = self.find(H::hash(q) as u32, q)?;
        Some(Occupied { table: self, at })
    }

    /// Take out the value under the key `q` stands for.
    pub fn remove<Q>(&mut self, q: &Q) -> Option<V>
    where
        Q: Probe<K> + ?Sized,
        H: KeyHash<Q>,
    {
        let at = self.find(H::hash(q) as u32, q)?;
        Some(self.remove_at(at))
    }

    /// Put `value` under `key`, returning the value that was there (the
    /// key kept is the first one inserted). The index grows first if a
    /// new key would fill more than half of it.
    #[allow(
        clippy::expect_used,
        reason = "a position is a u32: at most 2^32 - 1 entries"
    )]
    pub fn insert(&mut self, key: K, value: V) -> Option<V>
    where
        K: Eq,
        H: KeyHash<K>,
    {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let bits = H::hash(&key) as u32;
        if let Some(at) = self.find(bits, &key) {
            let pos = self.slots[at].pos;
            return Some(std::mem::replace(&mut self.entry_mut(pos).value, value));
        }
        let pos = u32::try_from(self.len).ok().filter(|&pos| pos != EMPTY);
        let pos = pos.expect("at most 2^32 - 1 entries in one table");
        let mask = self.slots.len() - 1;
        let mut at = bits as usize & mask;
        while self.slots[at].pos != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = Slot { pos, bits };
        let chunk = self.len / Self::PER_CHUNK;
        if chunk == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(Self::PER_CHUNK));
        }
        self.chunks[chunk].push(Entry { key, value, bits });
        self.len += 1;
        None
    }
}

/// One entry found by [`KeyTable::occupied`].
pub struct Occupied<'a, K, V, H> {
    table: &'a mut KeyTable<K, V, H>,
    at: usize,
}

impl<'a, K, V, H> Occupied<'a, K, V, H> {
    /// The entry's value.
    pub fn get(&self) -> &V {
        &self.table.entry(self.table.slots[self.at].pos).value
    }

    /// The entry's value, borrowed for as long as the table was.
    pub fn into_mut(self) -> &'a mut V {
        let pos = self.table.slots[self.at].pos;
        &mut self.table.entry_mut(pos).value
    }

    /// Take the entry out of the table.
    pub fn remove(self) -> V {
        self.table.remove_at(self.at)
    }
}

impl<K, V, H> Default for KeyTable<K, V, H> {
    fn default() -> Self {
        KeyTable::new()
    }
}

impl<K: Clone, V: Clone, H> Clone for KeyTable<K, V, H> {
    /// A copy whose chunks have their full room, as the original's do.
    fn clone(&self) -> Self {
        let chunks = self.chunks.iter().map(|chunk| {
            let mut copy = Vec::with_capacity(Self::PER_CHUNK);
            copy.extend(chunk.iter().cloned());
            copy
        });
        KeyTable {
            slots: self.slots.clone(),
            chunks: chunks.collect(),
            len: self.len,
            hash: PhantomData,
        }
    }
}

impl<K, V, H> fmt::Debug for KeyTable<K, V, H> {
    /// The length only: the slots' order is not for reading.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyTable").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use std::collections::BTreeMap;

    /// A key whose hash keeps only its low 4 bits: sixteen hash values
    /// among many keys.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Coarse(u16);

    impl Hash for Coarse {
        fn hash<S: Hasher>(&self, state: &mut S) {
            state.write_u8((self.0 & 0xf) as u8);
        }
    }

    /// [`Coarse`]'s 4 bits as the top of the hash bits: every key's home
    /// is one of the index's last sixteen slots, so every probe run
    /// collides with the others and wraps to the front.
    struct AtTheEnd;

    impl KeyHash<Coarse> for AtTheEnd {
        fn hash(key: &Coarse) -> u64 {
            0xffff_fff0 | u64::from(key.0 & 0xf)
        }
    }

    /// An entry of 256 bytes: 32 to a chunk, an index of 64 slots first.
    type Wide = [u64; 31];

    /// The table's books, after any operation: every slot's entry is
    /// reachable from its home with no empty slot between; the index is
    /// at least twice the length; each position is held by exactly one
    /// slot, whose hash bits are its entry's; chunks are full but the
    /// last, each with its whole room.
    fn check_books<K, V, H>(table: &KeyTable<K, V, H>) {
        let per = KeyTable::<K, V, H>::PER_CHUNK;
        let n = table.slots.len();
        assert!(n >= 2 * table.len, "the index is at least twice the length");
        let mut held = vec![0u32; table.len];
        for (at, slot) in table.slots.iter().enumerate() {
            if slot.pos == EMPTY {
                continue;
            }
            let pos = slot.pos as usize;
            assert!(pos < table.len, "a slot points past the entries");
            held[pos] += 1;
            assert_eq!(table.entry(slot.pos).bits, slot.bits, "a slot's bits");
            let mut walk = slot.bits as usize & (n - 1);
            while walk != at {
                assert_ne!(table.slots[walk].pos, EMPTY, "a hole before {at}");
                walk = (walk + 1) & (n - 1);
            }
        }
        assert!(held.iter().all(|&h| h == 1), "one slot per position");
        for (c, chunk) in table.chunks.iter().enumerate() {
            assert_eq!(chunk.capacity(), per, "a chunk keeps its room");
            let full = table.len.saturating_sub(c * per).min(per);
            assert_eq!(chunk.len(), full, "entries are dense");
        }
    }

    /// Generated scripts of inserts, lookups, removals and clears over
    /// up to 300 coarse keys, against a `BTreeMap`, with the 4 hash bits
    /// spread by [`ByHash`] or all homes at the index's end
    /// ([`AtTheEnd`]): every answer, the length and every key's lookup
    /// after every step; the books after every step; and no chunk ever
    /// moves. Entries are [`Wide`], so a script fills several chunks and
    /// grows the index several times.
    #[test]
    fn matches_a_btreemap_on_generated_scripts() {
        check(256, |g| {
            if g.bool() {
                script(g, KeyTable::<Coarse, Wide, ByHash>::new());
            } else {
                script(g, KeyTable::<Coarse, Wide, AtTheEnd>::new());
            }
        });
    }

    fn script<H: KeyHash<Coarse>>(g: &mut crate::check::Gen, mut table: KeyTable<Coarse, Wide, H>) {
        let keys = g.range(1..=300) as u16;
        let mut model: BTreeMap<Coarse, u64> = BTreeMap::new();
        let mut homes: Vec<usize> = Vec::new();
        for step in 0..g.size(0..=700) as u64 {
            let key = Coarse(g.below(u64::from(keys)) as u16);
            let first = |v: Option<&Wide>| v.map(|v| v[0]);
            match g.below(16) {
                0..=6 => {
                    let got = table.insert(key, [step; 31]).map(|v| v[0]);
                    assert_eq!(got, model.insert(key, step));
                }
                7..=10 => assert_eq!(table.remove(&key).map(|v| v[0]), model.remove(&key)),
                11 => {
                    let got = table.occupied(&key).map(|e| e.remove()[0]);
                    assert_eq!(got, model.remove(&key));
                }
                12 | 13 => {
                    if let Some(v) = table.get_mut(&key) {
                        v[0] += 1_000;
                    }
                    if let Some(v) = model.get_mut(&key) {
                        *v += 1_000;
                    }
                }
                14 => assert_eq!(first(table.get(&key)), model.get(&key).copied()),
                _ => {
                    if g.below(8) == 0 {
                        table.clear();
                        model.clear();
                    }
                }
            }
            assert_eq!(table.len(), model.len());
            check_books(&table);
            for (c, chunk) in table.chunks.iter().enumerate() {
                let at = chunk.as_ptr() as usize;
                match homes.get(c) {
                    Some(&home) => assert_eq!(at, home, "chunk {c} moved"),
                    None => homes.push(at),
                }
            }
            for k in (0..keys).map(Coarse) {
                assert_eq!(first(table.get(&k)), model.get(&k).copied(), "{k:?}");
            }
        }
        let mut walked: Vec<(Coarse, u64)> = table.iter().map(|(k, v)| (*k, v[0])).collect();
        walked.sort_unstable();
        assert!(
            walked.into_iter().eq(model.into_iter()),
            "iter walks them all"
        );
    }

    /// The index starts at twice a chunk's entries, doubles at half load
    /// and keeps its slots through removals and a clear; so do the
    /// chunks.
    #[test]
    fn grows_at_half_load_and_never_shrinks() {
        let mut table: KeyTable<u16, Wide> = KeyTable::new();
        assert_eq!(table.capacity(), 0);
        for k in 0..32 {
            assert_eq!(table.insert(k, [0; 31]), None);
        }
        assert_eq!((table.capacity(), table.chunks.len()), (64, 1));
        table.insert(32, [0; 31]);
        assert_eq!((table.capacity(), table.chunks.len()), (128, 2));
        for k in 0..33 {
            assert!(table.remove(&k).is_some());
        }
        table.clear();
        assert!(table.is_empty());
        assert_eq!((table.capacity(), table.chunks.len()), (128, 2));
    }

    /// A removal moves the last entry into its hole, so entry order is
    /// a function of the operations alone: two tables of differently
    /// hashed keys walk alike.
    #[test]
    fn entry_order_is_the_order_of_operations() {
        let mut fine: KeyTable<u16, u16> = KeyTable::new();
        let mut coarse: KeyTable<Coarse, u16> = KeyTable::new();
        for k in 0..40 {
            fine.insert(k, k);
            coarse.insert(Coarse(k), k);
        }
        for k in [3, 39, 0, 17, 18] {
            fine.remove(&k);
            coarse.remove(&Coarse(k));
        }
        let order: Vec<u16> = fine.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, coarse.iter().map(|(_, v)| *v).collect::<Vec<_>>());
        assert_eq!(&order[..5], &[37, 1, 2, 38, 4]);
    }

    /// A probe of another type finds the key it stands for, and a clone
    /// keeps its chunks' room and its keys.
    #[test]
    fn a_borrowed_probe_and_a_clone() {
        #[derive(Hash)]
        struct Pair<'a>(&'a str, u16);
        impl Probe<(String, u16)> for Pair<'_> {
            fn is(&self, key: &(String, u16)) -> bool {
                key.1 == self.1 && key.0 == self.0
            }
        }
        let mut table: KeyTable<(String, u16), u8> = KeyTable::new();
        table.insert(("a".to_owned(), 1), 7);
        table.insert(("a".to_owned(), 2), 8);
        assert_eq!(table.get(&Pair("a", 2)), Some(&8));
        assert_eq!(table.get(&Pair("b", 2)), None);
        let copy = table.clone();
        assert_eq!(copy.get(&Pair("a", 1)), Some(&7));
        check_books(&copy);
        assert_eq!(format!("{copy:?}"), "KeyTable { len: 2 }");
    }

    /// Addresses hash from their bits: a v4 address and the v6 address
    /// that embeds it are different keys.
    #[test]
    fn addresses_by_their_bits() {
        let mut table: KeyTable<IpAddr, u8, ByAddr> = KeyTable::new();
        let v4: IpAddr = "10.1.0.1".parse().unwrap();
        let v6: IpAddr = "::ffff:10.1.0.1".parse().unwrap();
        table.insert(v4, 4);
        table.insert(v6, 6);
        assert_eq!((table.get(&v4), table.get(&v6)), (Some(&4), Some(&6)));
        let mut ids: KeyTable<(IpAddr, u16), u8, ByAddr> = KeyTable::new();
        ids.insert((v4, 53), 1);
        assert_eq!(ids.get(&(v4, 53)), Some(&1));
        assert_eq!(ids.get(&(v4, 54)), None);
    }
}
