//! Low-level wire encoding and decoding.
//!
//! [`WireWriter`] serializes integers, byte strings and domain names
//! (with RFC 1035 §4.1.4 compression). [`WireReader`] is a bounds-checked
//! cursor that follows compression pointers with loop protection.

use crate::name::{Name, NameBuilder};
use crate::scratch::{CompressMap, ROOT_SID};

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
/// Compression offsets are remembered per (suffix → offset) through the
/// interned tables in [`crate::scratch`]; only offsets that fit in 14
/// bits are eligible as pointer targets, per the RFC. The writer is
/// reusable: [`WireWriter::reset`] clears the output and invalidates the
/// per-message offsets in O(1) while keeping the interners (and all
/// their capacity) warm across messages.
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Interned suffix → offset state (epoch-invalidated per message).
    compress_map: CompressMap,
    /// Whether to emit compression pointers at all.
    compress: bool,
}

impl WireWriter {
    /// New writer with compression enabled (normal for DNS messages).
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(512),
            compress_map: CompressMap::new(),
            compress: true,
        }
    }

    /// Clear the output buffer and start a fresh compression epoch,
    /// keeping allocated capacity. Called between messages when the
    /// writer is reused via [`crate::EncodeScratch`].
    pub fn reset(&mut self) {
        self.buf.clear();
        self.compress_map.reset();
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
    /// Allocation-free in steady state: labels are interned to integer
    /// ids, suffixes to (label, parent-suffix) pairs, and the per-message
    /// offset lookup is an epoch-checked array read — no `Name` clones,
    /// no per-label `Vec`s, no hashing of whole names.
    pub fn put_name(&mut self, name: &Name) {
        if name.is_root() {
            self.buf.push(0);
            return;
        }
        if !self.compress {
            self.put_name_uncompressed(name);
            return;
        }
        // Intern every suffix right-to-left; stack[i] holds the suffix id
        // for the name starting at label (count-1-i).
        let mut stack = std::mem::take(&mut self.compress_map.sid_stack);
        stack.clear();
        let mut sid = ROOT_SID;
        for label in name.labels().rev() {
            let lid = self.compress_map.intern_label(label);
            sid = self.compress_map.intern_suffix(lid, sid);
            stack.push(sid);
        }
        // Emit left-to-right: pointer on the first suffix already written
        // this message, otherwise record the offset and write the label.
        let mut pointed = false;
        for (&sid, label) in stack.iter().rev().zip(name.labels()) {
            if let Some(off) = self.compress_map.get_offset(sid) {
                self.buf.extend_from_slice(&(0xc000 | off).to_be_bytes());
                pointed = true;
                break;
            }
            if self.buf.len() <= 0x3fff {
                self.compress_map.set_offset(sid, self.buf.len() as u16);
            }
            self.buf.push(label.len() as u8);
            self.buf.extend_from_slice(label);
        }
        if !pointed {
            self.buf.push(0);
        }
        self.compress_map.sid_stack = stack;
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
