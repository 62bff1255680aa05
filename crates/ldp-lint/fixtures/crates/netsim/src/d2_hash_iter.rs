// Fixture: trips D2 — a HashMap named (and iterated) in a sim path.
use std::collections::HashMap;

pub struct EventTable {
    events: HashMap<u64, u32>,
}

impl EventTable {
    pub fn drain_in_hash_order(&self) -> Vec<u32> {
        self.events.values().copied().collect()
    }
}
