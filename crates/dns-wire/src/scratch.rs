//! Reusable encode state: [`EncodeScratch`] owns the output buffer and
//! the interned name-compression tables so repeated encodes allocate
//! nothing in steady state.
//!
//! The compression table replaces the per-call `HashMap<Name, u16>` the
//! writer used to carry: labels are interned once into a byte arena and
//! suffixes become small integer ids, so remembering "this suffix was
//! written at offset N" is an array store instead of a `Name` clone plus
//! a hash-map insert. Per-message state is invalidated by bumping an
//! epoch counter — resetting between messages is O(1), not O(table).

use crate::wire::WireWriter;

/// Sentinel for an empty open-addressing slot.
const EMPTY: u32 = u32::MAX;
/// Suffix id of the root name (always interned, never stored).
pub(crate) const ROOT_SID: u32 = 0;
/// Interner growth cap: past this many distinct labels or suffixes the
/// tables are fully cleared on the next reset, bounding memory for
/// long-lived scratches fed adversarial name churn.
const MAX_INTERNED: usize = 1 << 16;

/// FNV-1a over a byte string.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Cheap 64-bit mix (splitmix64 finalizer) for packed suffix keys.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Interned name-compression state shared across encodes.
///
/// Two persistent interners (labels, suffixes) plus one epoch-stamped
/// offset table:
///
/// * `label_*`: arena of distinct label byte strings with an
///   open-addressed index, mapping a label to a dense `u32` id.
/// * `suffix_*`: open-addressed map from the packed key
///   `(label_id << 32) | parent_suffix_id` to a dense suffix id, so a
///   whole name suffix is identified by one `u32`.
/// * `offsets`: per-suffix `(epoch, wire offset)`; an entry is live only
///   if its epoch matches the current message's epoch.
#[derive(Debug)]
pub(crate) struct CompressMap {
    label_bytes: Vec<u8>,
    /// (start, len) into `label_bytes`, indexed by label id.
    label_entries: Vec<(u32, u16)>,
    /// Open-addressed index over `label_entries` (EMPTY = free slot).
    label_table: Vec<u32>,
    /// Open-addressed suffix map: packed key, or `u64::MAX` for free.
    suffix_keys: Vec<u64>,
    suffix_vals: Vec<u32>,
    /// Number of interned suffixes, including the implicit root.
    suffix_count: u32,
    /// Per-suffix (epoch, offset); live only when epoch matches.
    offsets: Vec<(u32, u16)>,
    epoch: u32,
    /// Reused by `put_name` to hold the suffix ids of one name.
    pub(crate) sid_stack: Vec<u32>,
}

impl CompressMap {
    pub(crate) fn new() -> Self {
        CompressMap {
            label_bytes: Vec::new(),
            label_entries: Vec::new(),
            label_table: vec![EMPTY; 64],
            suffix_keys: vec![u64::MAX; 64],
            suffix_vals: vec![0; 64],
            suffix_count: 1, // root
            offsets: Vec::new(),
            epoch: 1,
            sid_stack: Vec::new(),
        }
    }

    /// Start a new message: O(1) in the common case (epoch bump); full
    /// clear when the interners outgrow [`MAX_INTERNED`] or the epoch
    /// counter wraps (a wrapped epoch could resurrect stale offsets).
    pub(crate) fn reset(&mut self) {
        let overgrown =
            self.label_entries.len() > MAX_INTERNED || self.suffix_count as usize > MAX_INTERNED;
        self.epoch = self.epoch.wrapping_add(1);
        if overgrown || self.epoch == 0 {
            self.label_bytes.clear();
            self.label_entries.clear();
            self.label_table.clear();
            self.label_table.resize(64, EMPTY);
            self.suffix_keys.clear();
            self.suffix_keys.resize(64, u64::MAX);
            self.suffix_vals.clear();
            self.suffix_vals.resize(64, 0);
            self.suffix_count = 1;
            self.offsets.clear();
            self.epoch = 1;
        }
    }

    /// Intern one (lowercase) label, returning its dense id.
    pub(crate) fn intern_label(&mut self, label: &[u8]) -> u32 {
        let mask = self.label_table.len() - 1;
        let mut i = (fnv1a(label) as usize) & mask;
        loop {
            let slot = *self.label_table.get(i).unwrap_or(&EMPTY);
            if slot == EMPTY {
                break;
            }
            if let Some(&(start, len)) = self.label_entries.get(slot as usize) {
                let (s, l) = (start as usize, len as usize);
                if self.label_bytes.get(s..s + l) == Some(label) {
                    return slot;
                }
            }
            i = (i + 1) & mask;
        }
        let id = self.label_entries.len() as u32;
        let start = self.label_bytes.len() as u32;
        self.label_bytes.extend_from_slice(label);
        self.label_entries.push((start, label.len() as u16));
        if let Some(s) = self.label_table.get_mut(i) {
            *s = id;
        }
        if self.label_entries.len() * 10 >= self.label_table.len() * 7 {
            self.grow_label_table();
        }
        id
    }

    fn grow_label_table(&mut self) {
        let new_len = self.label_table.len() * 2;
        let mut table = vec![EMPTY; new_len];
        let mask = new_len - 1;
        for (id, &(start, len)) in self.label_entries.iter().enumerate() {
            let (s, l) = (start as usize, len as usize);
            let bytes = self.label_bytes.get(s..s + l).unwrap_or(&[]);
            let mut i = (fnv1a(bytes) as usize) & mask;
            while table.get(i).is_some_and(|&v| v != EMPTY) {
                i = (i + 1) & mask;
            }
            if let Some(slot) = table.get_mut(i) {
                *slot = id as u32;
            }
        }
        self.label_table = table;
    }

    /// Intern the suffix `label.parent`, returning its dense id.
    pub(crate) fn intern_suffix(&mut self, label_id: u32, parent_sid: u32) -> u32 {
        let key = ((label_id as u64) << 32) | parent_sid as u64;
        let mask = self.suffix_keys.len() - 1;
        let mut i = (mix64(key) as usize) & mask;
        loop {
            let k = *self.suffix_keys.get(i).unwrap_or(&u64::MAX);
            if k == key {
                return *self.suffix_vals.get(i).unwrap_or(&ROOT_SID);
            }
            if k == u64::MAX {
                break;
            }
            i = (i + 1) & mask;
        }
        let sid = self.suffix_count;
        self.suffix_count += 1;
        if let Some(slot) = self.suffix_keys.get_mut(i) {
            *slot = key;
        }
        if let Some(slot) = self.suffix_vals.get_mut(i) {
            *slot = sid;
        }
        if (self.suffix_count as usize) * 10 >= self.suffix_keys.len() * 7 {
            self.grow_suffix_table();
        }
        sid
    }

    fn grow_suffix_table(&mut self) {
        let new_len = self.suffix_keys.len() * 2;
        let mut keys = vec![u64::MAX; new_len];
        let mut vals = vec![0u32; new_len];
        let mask = new_len - 1;
        for (&k, &v) in self.suffix_keys.iter().zip(self.suffix_vals.iter()) {
            if k == u64::MAX {
                continue;
            }
            let mut i = (mix64(k) as usize) & mask;
            while keys.get(i).is_some_and(|&kk| kk != u64::MAX) {
                i = (i + 1) & mask;
            }
            if let Some(slot) = keys.get_mut(i) {
                *slot = k;
            }
            if let Some(slot) = vals.get_mut(i) {
                *slot = v;
            }
        }
        self.suffix_keys = keys;
        self.suffix_vals = vals;
    }

    /// The recorded wire offset of `sid` in the *current* message.
    pub(crate) fn get_offset(&self, sid: u32) -> Option<u16> {
        match self.offsets.get(sid as usize) {
            Some(&(epoch, off)) if epoch == self.epoch => Some(off),
            _ => None,
        }
    }

    /// Record the wire offset of `sid` for the current message.
    pub(crate) fn set_offset(&mut self, sid: u32, off: u16) {
        let idx = sid as usize;
        if idx >= self.offsets.len() {
            self.offsets.resize(idx + 1, (0, 0));
        }
        if let Some(slot) = self.offsets.get_mut(idx) {
            *slot = (self.epoch, off);
        }
    }
}

/// Reusable encode state for [`crate::Message::encode_into`].
///
/// Owns the output buffer (inside the writer) plus the offset tables the
/// single-pass truncation records into. Holding one per thread or per
/// connection and passing it to every encode makes the steady-state
/// encode path allocation-free.
#[derive(Debug)]
pub struct EncodeScratch {
    /// The writer: output buffer + interned compression tables.
    pub(crate) w: WireWriter,
    /// End offset of each encoded record, in emit order (an, ns, ar).
    pub(crate) rec_ends: Vec<u32>,
    /// End offset of each encoded question.
    pub(crate) q_ends: Vec<u32>,
}

impl EncodeScratch {
    /// Fresh scratch with empty tables.
    pub fn new() -> Self {
        EncodeScratch {
            w: WireWriter::new(),
            rec_ends: Vec::new(),
            q_ends: Vec::new(),
        }
    }
}

impl Default for EncodeScratch {
    fn default() -> Self {
        EncodeScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_interner_dedupes() {
        let mut m = CompressMap::new();
        let a = m.intern_label(b"www");
        let b = m.intern_label(b"example");
        let c = m.intern_label(b"www");
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn suffix_ids_stable_across_messages() {
        let mut m = CompressMap::new();
        let l = m.intern_label(b"com");
        let s1 = m.intern_suffix(l, ROOT_SID);
        m.reset();
        let l2 = m.intern_label(b"com");
        let s2 = m.intern_suffix(l2, ROOT_SID);
        assert_eq!(s1, s2);
    }

    #[test]
    fn offsets_do_not_survive_reset() {
        let mut m = CompressMap::new();
        let l = m.intern_label(b"com");
        let s = m.intern_suffix(l, ROOT_SID);
        m.set_offset(s, 12);
        assert_eq!(m.get_offset(s), Some(12));
        m.reset();
        assert_eq!(m.get_offset(s), None);
        m.set_offset(s, 40);
        assert_eq!(m.get_offset(s), Some(40));
    }

    #[test]
    fn interner_survives_growth() {
        let mut m = CompressMap::new();
        let mut first_ids = Vec::new();
        for i in 0..500u32 {
            let label = format!("label-{i}");
            first_ids.push(m.intern_label(label.as_bytes()));
        }
        for i in 0..500u32 {
            let label = format!("label-{i}");
            assert_eq!(m.intern_label(label.as_bytes()), first_ids[i as usize]);
        }
        // Suffix table growth too: 500 distinct single-label suffixes.
        let sids: Vec<u32> = first_ids
            .iter()
            .map(|&l| m.intern_suffix(l, ROOT_SID))
            .collect();
        for (i, &l) in first_ids.iter().enumerate() {
            assert_eq!(m.intern_suffix(l, ROOT_SID), sids[i]);
        }
    }

    #[test]
    fn overgrown_interner_clears_on_reset() {
        let mut m = CompressMap::new();
        for i in 0..(super::MAX_INTERNED + 10) {
            let label = format!("l{i}");
            m.intern_label(label.as_bytes());
        }
        assert!(m.label_entries.len() > super::MAX_INTERNED);
        m.reset();
        assert!(m.label_entries.len() <= 1);
        // Still usable after the clear.
        let l = m.intern_label(b"com");
        let s = m.intern_suffix(l, ROOT_SID);
        m.set_offset(s, 20);
        assert_eq!(m.get_offset(s), Some(20));
    }
}
