//! Low-level wire encoding and decoding.
//!
//! [`WireWriter`] serializes integers, byte strings and domain names
//! (with RFC 1035 §4.1.4 compression). [`WireReader`] is a bounds-checked
//! cursor that follows compression pointers with loop protection.

use crate::name::{Name, NameBuilder};

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Read past the end of the buffer.
    Truncated,
    /// A compression pointer points at or after its own position, or the
    /// pointer chain is too long.
    BadPointer,
    /// A label length octet uses the reserved 0b10/0b01 prefixes.
    BadLabelType(u8),
    /// Decoded name violates length limits.
    BadName,
    /// RDATA length disagrees with its content.
    BadRdataLength,
    /// Semantically invalid message (e.g. OPT not at root).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadLabelType(b) => write!(f, "reserved label type {b:#04x}"),
            WireError::BadName => write!(f, "invalid name"),
            WireError::BadRdataLength => write!(f, "rdata length mismatch"),
            WireError::Invalid(what) => write!(f, "invalid message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serializer with optional name compression.
///
/// Compression state is per message: a table of where each suffix this
/// message wrote as labels sits, for the offsets a pointer can hold (14
/// bits, per the RFC). The writer is reusable:
/// [`WireWriter::reset`] clears the output and empties the table in time
/// proportional to what the last message wrote, keeping the capacity of
/// both, so a writer holds what its largest message needed and no more.
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Suffix → offset, for this message only.
    suffixes: Suffixes,
    /// Whether to emit compression pointers at all.
    compress: bool,
    /// Where each compression pointer was written, while a tail is
    /// compiled ([`crate::Tail`]); `None` everywhere else.
    pointers: Option<Vec<u16>>,
}

impl WireWriter {
    /// New writer with compression enabled (normal for DNS messages).
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(512),
            suffixes: Suffixes::default(),
            compress: true,
            pointers: None,
        }
    }

    /// From here on, note the offset of every compression pointer
    /// written, for [`WireWriter::take_pointers`].
    pub(crate) fn log_pointers(&mut self) {
        self.pointers = Some(Vec::new());
    }

    /// The offsets of the pointers written since
    /// [`WireWriter::log_pointers`], in order; logging stops.
    pub(crate) fn take_pointers(&mut self) -> Vec<u16> {
        self.pointers.take().unwrap_or_default()
    }

    /// The offsets this message's compression table holds: where each
    /// suffix a later name may point at begins, in no order.
    pub(crate) fn suffix_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let slots = &self.suffixes.slots;
        let slot = move |&i: &u32| slots.get(i as usize).map(|&s| usize::from(s as u16));
        self.suffixes.filled.iter().filter_map(slot)
    }

    /// Whether the name written at `at`, pointers followed, is `name`.
    pub(crate) fn holds_at(&self, at: usize, name: &Name) -> bool {
        written_at(&self.buf, at, name.labels())
    }

    /// Start a message whose one question is `qname`: the output is
    /// cleared, a zeroed header, `qname` and a zeroed type and class are
    /// written, and the offset after them returned. What is encoded next
    /// is what any message with `qname` as its question at offset 12
    /// holds at that offset: its pointers reach only the question's
    /// suffixes and what follows them ([`crate::Tail`],
    /// [`crate::EncodeScratch::encode_after_question`]).
    pub(crate) fn start_after_question(&mut self, qname: &Name) -> usize {
        self.reset();
        self.put_bytes(&[0; 12]);
        self.put_name(qname);
        self.put_u32(0);
        self.len()
    }

    /// Clear the output buffer and the compression table, keeping
    /// allocated capacity. Called between messages when the writer is
    /// reused via [`crate::EncodeScratch`].
    pub fn reset(&mut self) {
        self.buf.clear();
        self.suffixes.clear();
    }

    /// The bytes written so far, without consuming the writer.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable access to the underlying buffer (truncation patching).
    pub(crate) fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// New writer that never emits compression pointers (canonical form,
    /// used inside RRSIG computation and for rdata of DNSSEC types).
    pub fn new_uncompressed() -> Self {
        let mut w = WireWriter::new();
        w.compress = false;
        w
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a u8.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrite a previously written big-endian u16 at `offset`.
    ///
    /// Used to patch RDLENGTH and section counts after the fact.
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        self.buf[offset..offset + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Append a domain name, emitting a compression pointer when a suffix
    /// of the name was already written at a pointer-representable offset.
    ///
    /// The suffixes are hashed right to left, then probed longest first;
    /// a slot whose hash matches is taken only once the labels at its
    /// offset are the suffix's. The cost is O(labels) however much the
    /// message already holds, and nothing allocates once the table has
    /// the capacity of the largest message.
    pub fn put_name(&mut self, name: &Name) {
        if !self.compress || name.is_root() {
            self.put_name_uncompressed(name);
            return;
        }
        // keys[i]: the key of the suffix that starts at label i.
        let mut keys = [0u64; MAX_LABELS];
        let mut key = 0;
        let suffixes = keys.iter_mut().take(name.label_count()).rev();
        for (slot, label) in suffixes.zip(name.labels().rev()) {
            key = suffix_key(key, label);
            *slot = key;
        }
        for (i, (label, &key)) in name.labels().zip(&keys).enumerate() {
            let buf = &self.buf;
            let hit = self
                .suffixes
                .find(key, |at| written_at(buf, at, name.labels().skip(i)));
            if let Some(at) = hit {
                if let Some(log) = &mut self.pointers {
                    log.push(self.buf.len() as u16);
                }
                self.put_u16(0xc000 | at);
                return;
            }
            if self.buf.len() <= MAX_POINTER {
                self.suffixes.insert(key, self.buf.len() as u16);
            }
            self.buf.push(label.len() as u8);
            self.buf.extend_from_slice(label);
        }
        self.buf.push(0);
    }

    /// Append a name without creating or using compression pointers,
    /// regardless of the writer's compression mode (names inside most
    /// RDATA must not be compressed per RFC 3597).
    pub fn put_name_uncompressed(&mut self, name: &Name) {
        for label in name.labels() {
            self.buf.push(label.len() as u8);
            self.buf.extend_from_slice(label);
        }
        self.buf.push(0);
    }
}

impl Default for WireWriter {
    fn default() -> Self {
        WireWriter::new()
    }
}

/// Labels in the longest name (255 octets, one-octet labels).
const MAX_LABELS: usize = 128;
/// The largest offset a compression pointer can hold.
const MAX_POINTER: usize = 0x3fff;
/// Set in every filled [`Suffixes`] slot.
const FILLED: u64 = 1 << 16;

/// One message's compression table: open addressing over `u64` slots,
/// each a suffix key's top 32 bits, [`FILLED`] and the 16-bit offset
/// where the suffix was written as labels; 0 is free. Kept at most half
/// full, so at most 16 Ki slots (128 KiB) for the ≤ 8 Ki label offsets a
/// pointer can reach.
#[derive(Debug, Default)]
struct Suffixes {
    /// Empty until the first insert, then a power of two long.
    slots: Vec<u64>,
    /// Indices of the filled slots, so emptying costs what was written.
    filled: Vec<u32>,
}

impl Suffixes {
    /// The offset of the first slot on `key`'s probe path whose hash
    /// matches and whose offset `is_it` accepts.
    fn find(&self, key: u64, mut is_it: impl FnMut(usize) -> bool) -> Option<u16> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = (key >> 32) as usize & mask;
        loop {
            let slot = *self.slots.get(i)?;
            if slot == 0 {
                return None;
            }
            let at = slot as u16;
            if (slot ^ key) >> 32 == 0 && is_it(usize::from(at)) {
                return Some(at);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record that the suffix of `key` was written at `at`.
    fn insert(&mut self, key: u64, at: u16) {
        if self.filled.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let i = self.place((key >> 32 << 32) | FILLED | u64::from(at));
        self.filled.push(i);
    }

    /// Put a filled slot at the first free index of its probe path, and
    /// return that index.
    fn place(&mut self, slot: u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = (slot >> 32) as usize & mask;
        while self.slots.get(i).is_some_and(|&s| s != 0) {
            i = (i + 1) & mask;
        }
        if let Some(free) = self.slots.get_mut(i) {
            *free = slot;
        }
        i as u32
    }

    /// Double the table (64 slots the first time) and re-place its slots.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        let mut filled = std::mem::take(&mut self.filled);
        for i in &mut filled {
            if let Some(&slot) = old.get(*i as usize) {
                *i = self.place(slot);
            }
        }
        self.filled = filled;
    }

    /// Free every filled slot.
    fn clear(&mut self) {
        for &i in &self.filled {
            if let Some(slot) = self.slots.get_mut(i as usize) {
                *slot = 0;
            }
        }
        self.filled.clear();
    }
}

/// The key of the suffix `label.parent` from the key of `parent` (0 for
/// the root).
fn suffix_key(parent: u64, label: &[u8]) -> u64 {
    let mut h = parent ^ label.len() as u64;
    for chunk in label.chunks(8) {
        let mut word = [0u8; 8];
        if let Some(head) = word.get_mut(..chunk.len()) {
            head.copy_from_slice(chunk);
        }
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    // splitmix64's finaliser: every bit of `h` reaches the top 32.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Whether the name written in `buf` at `at`, pointers followed, is
/// `labels` and then the root. Pointers must lead strictly backwards.
fn written_at<'a>(buf: &[u8], mut at: usize, labels: impl Iterator<Item = &'a [u8]>) -> bool {
    for label in labels {
        let Some(mut len) = buf.get(at).copied() else {
            return false;
        };
        while len & 0xc0 == 0xc0 {
            let Some(&low) = buf.get(at + 1) else {
                return false;
            };
            let target = (usize::from(len & 0x3f) << 8) | usize::from(low);
            match buf.get(target) {
                Some(&next) if target < at => (at, len) = (target, next),
                _ => return false,
            }
        }
        let end = at + 1 + usize::from(len);
        if buf.get(at + 1..end) != Some(label) {
            return false;
        }
        at = end;
    }
    buf.get(at) == Some(&0)
}

/// Bounds-checked decoding cursor over a full DNS message buffer.
///
/// The reader keeps the whole message visible so compression pointers can
/// jump backwards.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Names a later name may be a view of ([`WireReader::remember`]);
    /// the first `seen_len` are live.
    seen: [Name; SEEN_NAMES],
    seen_len: usize,
}

/// Upper bound on pointer-chain hops while decoding one name; real
/// messages need at most a handful, so this is purely loop protection.
const MAX_POINTER_HOPS: usize = 64;

/// Names a reader remembers: the qname and the first names decoded
/// after it that are not views of it (a referral's zone and NS target).
const SEEN_NAMES: usize = 4;

impl<'a> WireReader<'a> {
    /// New reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader {
            buf,
            pos: 0,
            seen: [const { Name::root() }; SEEN_NAMES],
            seen_len: 0,
        }
    }

    /// From here on, a long name this reader decodes whose canonical
    /// bytes are `name`'s, an ancestor's of it, or those of a name
    /// decoded since, is a view of that name rather than a buffer of its
    /// own. A long name that is none of these takes a buffer and is
    /// remembered in turn, while there is room (a short one is held by
    /// value and never needs remembering).
    pub(crate) fn remember(&mut self, name: &Name) {
        if let Some(slot) = self.seen.get_mut(self.seen_len) {
            *slot = name.clone();
            self.seen_len += 1;
        }
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Read one u8.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        if self.remaining() < 2 {
            return Err(WireError::Truncated);
        }
        let v = u16::from_be_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        if self.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        let v = u32::from_be_bytes([
            self.buf[self.pos],
            self.buf[self.pos + 1],
            self.buf[self.pos + 2],
            self.buf[self.pos + 3],
        ]);
        self.pos += 4;
        Ok(v)
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decode a (possibly compressed) domain name at the cursor.
    ///
    /// The cursor advances past the name's in-place representation; the
    /// targets of compression pointers are visited without moving it.
    /// The labels are gathered, case-folded, on the stack and the name
    /// is allocated once, after the terminator — or not at all, when it
    /// is short enough to be held by value or a view of a name this
    /// reader remembers (a response's qname and the names decoded after
    /// it, see [`crate::Message::decode_into`]): a name that breaks a
    /// limit is rejected without touching the heap.
    pub fn get_name(&mut self) -> Result<Name, WireError> {
        let mut builder = NameBuilder::new();
        self.read_name(&mut builder)?;
        let seen = &self.seen[..self.seen_len];
        if seen.is_empty() {
            return builder.finish().map_err(|_| WireError::BadName);
        }
        if let Some(view) = builder
            .finish_shared(seen)
            .map_err(|_| WireError::BadName)?
        {
            return Ok(view);
        }
        let name = builder.finish().map_err(|_| WireError::BadName)?;
        self.remember(&name);
        Ok(name)
    }

    /// [`WireReader::get_name`] over `name`, reusing its buffer when
    /// `name` holds the only reference to one big enough; on `Err`,
    /// `name` is left as it was.
    pub fn get_name_into(&mut self, name: &mut Name) -> Result<(), WireError> {
        let mut builder = NameBuilder::new();
        self.read_name(&mut builder)?;
        builder.finish_into(name).map_err(|_| WireError::BadName)
    }

    /// Gather the name at the cursor into `name` and move the cursor
    /// past it.
    fn read_name(&mut self, name: &mut NameBuilder) -> Result<(), WireError> {
        let mut pos = self.pos;
        let mut jumped = false;
        let mut hops = 0usize;
        loop {
            let len = *self.buf.get(pos).ok_or(WireError::Truncated)?;
            match len & 0xc0 {
                0x00 => {
                    if len == 0 {
                        if !jumped {
                            self.pos = pos + 1;
                        }
                        return Ok(());
                    }
                    let l = len as usize;
                    let label = self
                        .buf
                        .get(pos + 1..pos + 1 + l)
                        .ok_or(WireError::Truncated)?;
                    name.push(label).map_err(|_| WireError::BadName)?;
                    pos += 1 + l;
                }
                0xc0 => {
                    let b2 = *self.buf.get(pos + 1).ok_or(WireError::Truncated)?;
                    let target = (((len & 0x3f) as usize) << 8) | b2 as usize;
                    // A pointer must point strictly backwards.
                    if target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer);
                    }
                    if !jumped {
                        self.pos = pos + 2;
                        jumped = true;
                    }
                    pos = target;
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn ints_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(0xab);
        w.put_u16(0x1234);
        w.put_u32(0xdeadbeef);
        w.put_bytes(b"xyz");
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.get_bytes(3).unwrap(), b"xyz");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.get_u8(), Err(WireError::Truncated));
    }

    #[test]
    fn name_uncompressed_round_trip() {
        let mut w = WireWriter::new_uncompressed();
        w.put_name(&n("www.example.com"));
        let buf = w.into_bytes();
        assert_eq!(buf.len(), n("www.example.com").wire_len());
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name().unwrap(), n("www.example.com"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn root_name_is_single_zero() {
        let mut w = WireWriter::new();
        w.put_name(&Name::root());
        let buf = w.into_bytes();
        assert_eq!(buf, vec![0]);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name().unwrap(), Name::root());
    }

    #[test]
    fn compression_emits_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&n("www.example.com"));
        let first = w.len();
        w.put_name(&n("mail.example.com"));
        let buf = w.into_bytes();
        // Second name: 1+4 ("mail") + 2 (pointer) = 7 bytes.
        assert_eq!(buf.len() - first, 7);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name().unwrap(), n("www.example.com"));
        assert_eq!(r.get_name().unwrap(), n("mail.example.com"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn compression_whole_name_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&n("example.com"));
        w.put_name(&n("example.com"));
        let buf = w.into_bytes();
        assert_eq!(buf.len(), n("example.com").wire_len() + 2);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name().unwrap(), n("example.com"));
        assert_eq!(r.get_name().unwrap(), n("example.com"));
    }

    #[test]
    fn pointer_forward_rejected() {
        // Pointer to itself.
        let buf = [0xc0u8, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name(), Err(WireError::BadPointer));
    }

    #[test]
    fn pointer_loop_rejected() {
        // Two pointers pointing at each other: 0 -> 2, 2 -> 0.
        let buf = [0xc0, 0x02, 0xc0, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name(), Err(WireError::BadPointer));
    }

    #[test]
    fn reserved_label_types_rejected() {
        let buf = [0x80u8, 0x01, 0x00];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.get_name(), Err(WireError::BadLabelType(0x80))));
        let buf = [0x40u8, 0x01, 0x00];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.get_name(), Err(WireError::BadLabelType(0x40))));
    }

    #[test]
    fn truncated_label_rejected() {
        let buf = [5u8, b'a', b'b']; // label claims 5 bytes, only 2 present
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name(), Err(WireError::Truncated));
    }

    #[test]
    fn missing_terminator_rejected() {
        let buf = [1u8, b'a']; // no trailing root octet
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name(), Err(WireError::Truncated));
    }

    #[test]
    fn overlong_name_rejected() {
        // 4 labels of 63 bytes = 256 octets wire form > 255.
        let mut buf = Vec::new();
        for _ in 0..4 {
            buf.push(63);
            buf.extend(std::iter::repeat_n(b'a', 63));
        }
        buf.push(0);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_name(), Err(WireError::BadName));
    }

    #[test]
    fn cursor_positions_after_pointer() {
        let mut w = WireWriter::new();
        w.put_u16(0); // padding so names are not at offset 0
        w.put_name(&n("example.com"));
        w.put_name(&n("www.example.com"));
        w.put_u16(0xbeef);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        r.get_u16().unwrap();
        r.get_name().unwrap();
        assert_eq!(r.get_name().unwrap(), n("www.example.com"));
        // Cursor must sit right after the compressed form, at 0xbeef.
        assert_eq!(r.get_u16().unwrap(), 0xbeef);
    }

    #[test]
    fn put_name_uncompressed_inside_compressing_writer() {
        let mut w = WireWriter::new();
        w.put_name(&n("example.com"));
        w.put_name_uncompressed(&n("example.com"));
        let buf = w.into_bytes();
        assert_eq!(buf.len(), 2 * n("example.com").wire_len());
    }

    #[test]
    fn patch_u16() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(7);
        w.patch_u16(0, 0x0102);
        assert_eq!(w.into_bytes(), vec![1, 2, 7]);
    }

    #[test]
    fn compression_only_under_14bit_offsets() {
        let mut w = WireWriter::new();
        // Push the buffer past 0x3fff so new suffix offsets are not
        // eligible as pointer targets.
        w.put_bytes(&vec![0u8; 0x4000]);
        w.put_name(&n("big.example.com"));
        let len_first = w.len();
        w.put_name(&n("big.example.com"));
        let buf = w.into_bytes();
        // Second copy cannot point at the first: full length again.
        assert_eq!(buf.len() - len_first, n("big.example.com").wire_len());
    }
}
