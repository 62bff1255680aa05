// Fixture: the declaring side of the D2 cross-file pair.
// `d2_cross_file_gap.rs` iterates `Table::m` without any hash token of
// its own. This file names the type, in a `use` and in the alias, and
// D2 reports both lines even though everything here is keyed access:
// the map is one `.values()` away, in whichever file, from a transcript
// that differs per process.

use std::collections::HashMap;

pub type EventMap = HashMap<u64, u32>;

pub struct Table {
    pub m: EventMap,
}

impl Table {
    pub fn lookup(&self, k: u64) -> Option<u32> {
        self.m.get(&k).copied()
    }
}
