//! A generation-checked slab: `Vec` storage with a LIFO free list.
//!
//! Replaces the `BTreeMap<ConnId, Conn>` connection table in the
//! simulator hot path: lookup is an index instead of a tree walk, and
//! removal pushes the slot onto a free list instead of rebalancing.
//! Ids pack a 32-bit generation above a 32-bit slot index, so a stale
//! id (its slot freed and possibly reused) can never alias a live
//! entry — lookups with an old generation simply return `None`.
//!
//! Iteration is in slot order, which is a deterministic function of
//! the allocation/free history (the free list is LIFO), so replacing
//! the BTreeMap keeps rule D2: two same-seed runs observe identical
//! iteration order.

/// Slot occupancy plus the generation that validates ids.
struct Entry<T> {
    gen: u32,
    val: Option<T>,
}

/// A generation-checked slab keyed by packed `u64` ids
/// (`generation << 32 | slot`).
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

#[inline]
fn split(id: u64) -> (u32, usize) {
    ((id >> 32) as u32, (id & 0xffff_ffff) as usize)
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of filled entries (reserved-but-unfilled slots excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entry is filled.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocate a slot and return its id without storing a value yet.
    /// The id is stable immediately; [`Slab::fill`] stores the value
    /// later (the simulator hands out connection ids synchronously but
    /// builds the connection when the command is applied).
    pub fn reserve(&mut self) -> u64 {
        if let Some(slot) = self.free.pop() {
            let gen = self.entries[slot as usize].gen;
            (u64::from(gen) << 32) | u64::from(slot)
        } else {
            let slot = self.entries.len() as u32;
            self.entries.push(Entry { gen: 0, val: None });
            u64::from(slot)
        }
    }

    /// Store `val` in a slot previously handed out by
    /// [`Slab::reserve`]. No-op if the id is stale.
    pub fn fill(&mut self, id: u64, val: T) {
        let (gen, slot) = split(id);
        if let Some(entry) = self.entries.get_mut(slot) {
            if entry.gen == gen && entry.val.is_none() {
                entry.val = Some(val);
                self.live += 1;
            }
        }
    }

    /// Reserve and fill in one step; returns the new id.
    pub fn insert(&mut self, val: T) -> u64 {
        let id = self.reserve();
        self.fill(id, val);
        id
    }

    /// Shared access; `None` for stale ids and unfilled reservations.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        let (gen, slot) = split(id);
        let entry = self.entries.get(slot)?;
        if entry.gen != gen {
            return None;
        }
        entry.val.as_ref()
    }

    /// Exclusive access; `None` for stale ids and unfilled reservations.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let (gen, slot) = split(id);
        let entry = self.entries.get_mut(slot)?;
        if entry.gen != gen {
            return None;
        }
        entry.val.as_mut()
    }

    /// Free the slot, returning the value if it was filled. The
    /// generation is bumped so outstanding copies of the id go stale.
    /// Works on unfilled reservations too (a refused connection whose
    /// slot was reserved but never filled). Stale ids are a no-op.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let (gen, slot) = split(id);
        let entry = self.entries.get_mut(slot)?;
        if entry.gen != gen {
            return None;
        }
        let val = entry.val.take();
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(slot as u32);
        if val.is_some() {
            self.live -= 1;
        }
        val
    }

    /// Filled entries in slot order: `(id, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries.iter().enumerate().filter_map(|(slot, e)| {
            e.val
                .as_ref()
                .map(|v| ((u64::from(e.gen) << 32) | slot as u64, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: Slab<&str> = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get_mut(b).map(|v| *v), Some("b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_id_never_aliases_reused_slot() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2); // reuses slot 0 with a bumped generation
        assert_ne!(a, b);
        assert_eq!(a & 0xffff_ffff, b & 0xffff_ffff, "same slot");
        assert_eq!(s.get(a), None, "stale id must miss");
        assert_eq!(s.get(b), Some(&2));
        assert_eq!(s.remove(a), None, "stale remove is a no-op");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reserve_fill_two_phase() {
        let mut s: Slab<u32> = Slab::new();
        let id = s.reserve();
        assert_eq!(s.get(id), None, "reserved but unfilled");
        assert_eq!(s.len(), 0);
        s.fill(id, 9);
        assert_eq!(s.get(id), Some(&9));
        assert_eq!(s.len(), 1);
        // A reservation can be released without ever being filled.
        let r = s.reserve();
        assert_eq!(s.remove(r), None);
        let again = s.reserve();
        assert_eq!(r & 0xffff_ffff, again & 0xffff_ffff, "slot reused");
        assert_ne!(r, again, "generation bumped");
    }

    #[test]
    fn iteration_is_slot_ordered_and_skips_holes() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        let c = s.insert(30);
        s.remove(b);
        let got: Vec<u32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, vec![10, 30]);
        let ids: Vec<u64> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn free_list_is_lifo() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.remove(a);
        s.remove(b);
        let c = s.insert(3);
        assert_eq!(c & 0xffff_ffff, b & 0xffff_ffff, "last freed, first reused");
    }
}
