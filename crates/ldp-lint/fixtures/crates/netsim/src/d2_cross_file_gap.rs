// Fixture: the iterating side of the D2 cross-file pair. The hash
// collection is declared in ANOTHER file (`table.rs` holds `pub struct
// Table { pub m: EventMap }`, with `EventMap` an alias for
// `HashMap<u64, u32>`); this file iterates it in hash order without a
// `HashMap`/`HashSet` token of its own, so nothing is reported HERE.
// The pair is caught where the type is named: `table.rs` is a sim-path
// file too, and D2 reports its lines 8 and 10. driver.rs asserts both
// halves.

use crate::table::Table;

pub fn drain_in_hash_order(t: &Table) -> Vec<u32> {
    t.m.values().copied().collect()
}
