//! One scratch per receive path: [`AnswerScratch`] holds everything an
//! answer is built from and in — the decoded query, `lookup`'s sections,
//! the response under assembly and the encoder state — so a server that
//! keeps one refills it per query instead of building and dropping each
//! piece. It is the read-side twin of [`EncodeScratch`], which it holds.
//!
//! Nothing in it carries over from one query to the next but capacity:
//! each stage overwrites every field of its part (`Message::decode_into`,
//! `lookup_into`, `Answer::render_into`, `Message::response_into`) and
//! the engine's tests answer generated query sequences through one
//! long-lived scratch and through a fresh one, byte for byte.

use dns_wire::{EncodeScratch, Message};
use dns_zone::Answer;

/// Reusable state for [`crate::ServerEngine::answer_into`]. Owned by
/// whoever owns the receive loop (one per simulated server, per UDP
/// worker, per TCP connection thread); the engine itself stays shared
/// and immutable.
#[derive(Debug, Default)]
pub struct AnswerScratch {
    /// The query as last decoded.
    pub(crate) query: Message,
    /// Whether that decode succeeded, i.e. `query` is a whole message.
    pub(crate) parsed: bool,
    pub(crate) assembly: Assembly,
}

/// The part of the scratch an already decoded query is answered in.
#[derive(Debug, Default)]
pub(crate) struct Assembly {
    /// `lookup_into`'s target; trades section storage with `response`.
    pub(crate) answer: Answer,
    /// The response message under assembly.
    pub(crate) response: Message,
    /// The encoder state the response is encoded in; a reply copied
    /// from a zone's precompiled tail is written into its buffer too.
    pub(crate) encode: EncodeScratch,
    /// The one reply that is written rather than encoded or copied: the
    /// bare FORMERR header.
    pub(crate) raw: Vec<u8>,
    /// Whether the last reply was copied from a precompiled tail.
    pub(crate) from_tail: bool,
}

impl AnswerScratch {
    /// An empty scratch; the first few answers size its buffers.
    pub fn new() -> Self {
        AnswerScratch::default()
    }

    /// Whether the reply last answered through this scratch was copied
    /// from a zone's precompiled tail (a referral or a name error)
    /// rather than rendered and encoded.
    pub fn served_from_tail(&self) -> bool {
        self.parsed && self.assembly.from_tail
    }

    /// The RRL "slip" reply to the query last answered through this
    /// scratch: its header and question echoed with TC=1 and no records,
    /// so a real client retries over TCP. `None` if that query did not
    /// parse (its FORMERR is not worth slipping).
    pub fn slip_reply(&mut self) -> Option<&[u8]> {
        if !self.parsed {
            return None;
        }
        let Assembly {
            response, encode, ..
        } = &mut self.assembly;
        self.query.response_into(response);
        response.flags.truncated = true;
        Some(response.encode_into(encode))
    }
}
