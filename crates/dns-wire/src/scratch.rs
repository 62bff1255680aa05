//! Reusable encode state: [`EncodeScratch`] owns the writer — its output
//! buffer and its per-message compression table — and the offsets the
//! single-pass truncation records, so repeated encodes allocate nothing
//! once the scratch has met its largest message.

use crate::name::Name;
use crate::record::Record;
use crate::wire::WireWriter;

/// Reusable encode state for [`crate::Message::encode_into`].
///
/// Owns the output buffer (inside the writer) plus the offset tables the
/// single-pass truncation records into. Holding one per thread or per
/// connection and passing it to every encode makes the steady-state
/// encode path allocation-free. Nothing in it outlives a message: what
/// it holds is bounded by the largest message it has encoded.
#[derive(Debug)]
pub struct EncodeScratch {
    /// The writer: output buffer + per-message compression table.
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

    /// The bytes of the message last written into this scratch.
    pub fn written(&self) -> &[u8] {
        self.w.bytes()
    }

    /// Encode `records`, in order, as the sections that follow a
    /// message's one question about `qname`, and return those bytes:
    /// what [`crate::Message::encode_into`] writes after the question of
    /// every such message, whatever its header, type and class. Their
    /// compression pointers reach only the question at offset 12 and
    /// the bytes themselves, so a reply to a question about `qname` can
    /// copy them in after it unchanged.
    pub fn encode_after_question(&mut self, qname: &Name, records: &[Record]) -> &[u8] {
        let start = self.w.start_after_question(qname);
        for rec in records {
            rec.encode(&mut self.w);
        }
        self.w.bytes().get(start..).unwrap_or_default()
    }

    /// Start a message in this scratch's writer, for a caller that
    /// writes every byte itself: the output and the compression table
    /// are emptied, and [`EncodeScratch::written`] reads what goes in.
    pub fn writer(&mut self) -> &mut WireWriter {
        self.w.reset();
        &mut self.w
    }
}

impl Default for EncodeScratch {
    fn default() -> Self {
        EncodeScratch::new()
    }
}
