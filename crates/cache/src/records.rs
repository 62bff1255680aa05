//! A record list that holds one record by value.

use std::ops::Deref;

use dns_wire::Record;

/// Answer records, CNAME chain included, in the order received: one
/// record by value, two or more in a `Vec`. Nearly every answer a
/// resolver gathers is one address record, so nearly every walk holds
/// it without a heap block of its own. Reads as a `[Record]`; equal lists are equal
/// slices, whichever form holds them.
#[derive(Debug, Clone, Default)]
pub struct RecordList(Held);

#[derive(Debug, Clone)]
enum Held {
    One(Record),
    /// No records (an empty `Vec` allocates nothing), or two or more.
    Many(Vec<Record>),
}

impl Default for Held {
    fn default() -> Self {
        Held::Many(Vec::new())
    }
}

impl RecordList {
    /// An empty list.
    pub const fn new() -> Self {
        RecordList(Held::Many(Vec::new()))
    }

    /// Move every record of `from` onto the end, leaving `from` empty
    /// with its capacity. One record into an empty list is held by
    /// value; a list of two or more is a `Vec` sized to fit.
    pub fn append(&mut self, from: &mut Vec<Record>) {
        self.0 = match std::mem::take(&mut self.0) {
            Held::Many(held) if held.is_empty() && from.len() == 1 => match from.pop() {
                Some(one) => Held::One(one),
                None => Held::Many(held),
            },
            Held::Many(mut held) => {
                held.reserve_exact(from.len());
                held.append(from);
                Held::Many(held)
            }
            Held::One(one) if from.is_empty() => Held::One(one),
            Held::One(one) => {
                let mut held = Vec::with_capacity(1 + from.len());
                held.push(one);
                held.append(from);
                Held::Many(held)
            }
        };
    }

    /// The records.
    pub fn as_slice(&self) -> &[Record] {
        match &self.0 {
            Held::One(one) => std::slice::from_ref(one),
            Held::Many(held) => held,
        }
    }
}

impl Deref for RecordList {
    type Target = [Record];

    fn deref(&self) -> &[Record] {
        self.as_slice()
    }
}

impl AsRef<[Record]> for RecordList {
    fn as_ref(&self) -> &[Record] {
        self.as_slice()
    }
}

impl PartialEq for RecordList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RecordList {}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Name, RData};
    use ldp_rng::check::check;

    fn a(i: u8) -> Record {
        let owner: Name = format!("h{i}.example.").parse().unwrap();
        Record::new(owner, 300, RData::A([192, 0, 2, i].into()))
    }

    /// Appends of generated batches keep every record in order, as a
    /// `Vec` gathering the same batches does; the list holds one record
    /// by value exactly when it has one.
    #[test]
    fn appends_read_like_a_vec() {
        check(256, |g| {
            let (mut list, mut want) = (RecordList::new(), Vec::new());
            let mut next = 0u8;
            for _ in 0..g.size(0..=5) {
                let mut batch: Vec<Record> = g.vec(0..=3, |_| {
                    next = next.wrapping_add(1);
                    a(next)
                });
                want.extend_from_slice(&batch);
                list.append(&mut batch);
                assert!(batch.is_empty());
                assert_eq!(list.as_slice(), want.as_slice());
                assert_eq!(matches!(list.0, Held::One(_)), want.len() == 1);
            }
            assert_eq!(list.len(), want.len());
        });
    }
}
