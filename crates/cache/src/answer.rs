//! A positive entry's answer section in wire form.

use dns_wire::{EncodeScratch, Name, Record, WireError, WireReader, WireWriter};

/// The bytes an [`AnswerBytes`] holds in itself: what 48 bytes leave
/// after the tag, the length and the count. A one-record address answer
/// is 16 or 28 bytes (its owner a pointer to the question), an alias and
/// the address it leads to about 30–43.
const INLINE: usize = 44;

/// An answer section — answer records, CNAME chain included, in the
/// order received — encoded once, after a question about the entry's
/// key, by [`EncodeScratch::encode_after_question`]. Every reply to a
/// question about that key copies the bytes in after its question
/// unchanged: their compression pointers reach only the question at
/// offset 12 and the bytes themselves. Up to 44 bytes sit in the value
/// itself, so a one- or two-record answer has no heap block of its own;
/// longer sections are one boxed slice. [`AnswerBytes::records`] decodes
/// the records back for a caller that needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerBytes(Held);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Held {
    /// The first `len` of `bytes`; the rest are zero.
    Inline {
        count: u16,
        len: u8,
        bytes: [u8; INLINE],
    },
    Heap {
        count: u16,
        bytes: Box<[u8]>,
    },
}

impl AnswerBytes {
    /// `records` (the first 65,535 of them, as a message's count can
    /// hold) encoded after a question about `qname`.
    pub fn compile(qname: &Name, records: &[Record], scratch: &mut EncodeScratch) -> AnswerBytes {
        let records = records.get(..usize::from(u16::MAX)).unwrap_or(records);
        let count = records.len() as u16;
        let wire = scratch.encode_after_question(qname, records);
        let mut bytes = [0; INLINE];
        match bytes.get_mut(..wire.len()) {
            Some(head) => {
                head.copy_from_slice(wire);
                let len = wire.len() as u8;
                AnswerBytes(Held::Inline { count, len, bytes })
            }
            None => AnswerBytes(Held::Heap {
                count,
                bytes: wire.into(),
            }),
        }
    }

    /// How many records the bytes hold: the reply's ANCOUNT.
    pub fn count(&self) -> u16 {
        match &self.0 {
            Held::Inline { count, .. } | Held::Heap { count, .. } => *count,
        }
    }

    /// The encoded records.
    pub fn bytes(&self) -> &[u8] {
        match &self.0 {
            Held::Inline { len, bytes, .. } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Held::Heap { bytes, .. } => bytes,
        }
    }

    /// Whether the bytes sit in the value itself.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Held::Inline { .. })
    }

    /// The records back, decoded from a message whose question is about
    /// `qname` — the name the bytes were compiled after.
    pub fn records(&self, qname: &Name) -> Result<Vec<Record>, WireError> {
        let mut w = WireWriter::new();
        w.put_bytes(&[0; 12]);
        w.put_name_uncompressed(qname);
        w.put_u32(0);
        let start = w.len();
        w.put_bytes(self.bytes());
        let mut r = WireReader::new(w.bytes());
        r.get_bytes(start)?;
        (0..self.count()).map(|_| Record::decode(&mut r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Message, RData, RecordType};
    use ldp_rng::check::check;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A positive entry holds its answer in 48 bytes, negative entries
    /// in the same space: an entry's size is what a resident key costs.
    #[test]
    fn an_answer_is_48_bytes() {
        assert_eq!(std::mem::size_of::<AnswerBytes>(), 48);
        assert_eq!(std::mem::size_of::<crate::CachedAnswer>(), 48);
    }

    /// Over generated answer sections (1–4 records; A, AAAA, CNAME and
    /// TXT; owners the key, an alias target or elsewhere; keys either
    /// side of what a name holds by value), the bytes are what a message
    /// about the key holds after its question, they decode back to the
    /// records, and they sit inline exactly when they fit.
    #[test]
    fn bytes_are_the_message_section_and_decode_back() {
        check(256, |g| {
            let mut scratch = EncodeScratch::new();
            let key = n(g.pick::<&str>(&[
                "h1.example.",
                "www.example.com.",
                "a-label-long-enough-to-share.example.",
            ]));
            let records: Vec<Record> = g.vec(1..=4, |g| {
                let owner = match g.below(3) {
                    0 => key.clone(),
                    1 => n("cdn.example.net."),
                    _ => n("x.y.example."),
                };
                let rdata = match g.below(4) {
                    0 => RData::A([192, 0, 2, g.u8()].into()),
                    1 => {
                        RData::Aaaa([0x20, 1, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1].into())
                    }
                    2 => RData::Cname(n("cdn.example.net.")),
                    _ => RData::Txt(vec![vec![b'x'; g.below(40) as usize]]),
                };
                Record::new(owner, g.range(1..=3600) as u32, rdata)
            });
            let answer = AnswerBytes::compile(&key, &records, &mut scratch);
            let mut msg = Message::query(7, key.clone(), RecordType::A);
            msg.answers = records.clone();
            let whole = msg.encode();
            let after = 12 + key.wire_len() + 4;
            assert_eq!(answer.bytes(), &whole[after..]);
            assert_eq!(usize::from(answer.count()), records.len());
            assert_eq!(answer.records(&key).unwrap(), records);
            assert_eq!(answer.is_inline(), answer.bytes().len() <= INLINE);
        });
    }
}
