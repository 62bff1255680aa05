//! DNS-over-TCP stream framing (RFC 7766 §8): every message is prefixed
//! by a two-byte big-endian length. [`FrameBuffer`] incrementally
//! reassembles messages from arbitrary read chunks, which is what both
//! the server's connection handler and the querier's response reader use.

/// Prefix `msg` with its 16-bit length, as sent on a TCP stream.
///
/// Panics if `msg` exceeds 65535 bytes (DNS messages cannot).
pub fn frame(msg: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + msg.len());
    frame_into(msg, &mut out);
    out
}

/// Like [`frame`], but appends into a caller-owned buffer after
/// clearing it, so hot paths (the replay querier sends millions of
/// frames) can reuse one allocation instead of allocating per message.
///
/// Panics if `msg` exceeds 65535 bytes (DNS messages cannot).
pub fn frame_into(msg: &[u8], out: &mut Vec<u8>) {
    assert!(
        msg.len() <= u16::MAX as usize,
        "DNS message too large to frame"
    );
    out.clear();
    out.reserve(2 + msg.len());
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(msg);
}

/// Incremental reassembly buffer for a length-framed DNS stream.
///
/// Feed it raw bytes as they arrive; pop complete messages out.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor: `buf[..start]` has already been popped.
    start: usize,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append newly received bytes.
    pub fn extend(&mut self, data: &[u8]) {
        // Compact before growing, once at least half the storage is
        // already-popped bytes (all of it, in the common case between
        // reads): a long-lived connection never accumulates consumed
        // bytes, and each byte is moved at most once.
        if self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Pop the next complete message, if one has fully arrived: the
    /// popped body is a view of the buffer, good until the next
    /// `extend`.
    pub fn next_frame(&mut self) -> Option<&[u8]> {
        let pending = self.buf.get(self.start..)?;
        let (prefix, rest) = pending.split_first_chunk::<2>()?;
        let len = u16::from_be_bytes(*prefix) as usize;
        rest.get(..len)?;
        let body = self.start + 2;
        self.start = body + len;
        self.buf.get(body..body + len)
    }

    /// Bytes buffered but not yet forming a complete message.
    fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True if no partial data is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending_len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_prepends_length() {
        let f = frame(b"abc");
        assert_eq!(f, vec![0, 3, b'a', b'b', b'c']);
    }

    #[test]
    fn empty_message_frames() {
        assert_eq!(frame(b""), vec![0, 0]);
    }

    #[test]
    fn frame_into_reuses_buffer() {
        let mut buf = Vec::new();
        frame_into(b"abc", &mut buf);
        assert_eq!(buf, vec![0, 3, b'a', b'b', b'c']);
        frame_into(b"zz", &mut buf);
        assert_eq!(buf, vec![0, 2, b'z', b'z'], "buffer cleared between frames");
        assert_eq!(frame(b"zz"), buf, "frame and frame_into agree");
    }

    #[test]
    fn reassembles_single_message() {
        let mut fb = FrameBuffer::new();
        fb.extend(&frame(b"hello"));
        assert_eq!(fb.next_frame().unwrap(), b"hello");
        assert!(fb.next_frame().is_none());
        assert!(fb.is_empty());
    }

    #[test]
    fn reassembles_across_chunks() {
        let framed = frame(b"split message");
        let mut fb = FrameBuffer::new();
        for chunk in framed.chunks(3) {
            fb.extend(chunk);
        }
        assert_eq!(fb.next_frame().unwrap(), b"split message");
    }

    #[test]
    fn byte_at_a_time() {
        let framed = frame(b"x");
        let mut fb = FrameBuffer::new();
        for &b in &framed {
            assert!(fb.next_frame().is_none());
            fb.extend(&[b]);
        }
        assert_eq!(fb.next_frame().unwrap(), b"x");
    }

    #[test]
    fn multiple_messages_in_one_chunk() {
        let mut data = frame(b"one");
        data.extend(frame(b"two"));
        data.extend(frame(b"three"));
        let mut fb = FrameBuffer::new();
        fb.extend(&data);
        assert_eq!(fb.next_frame().unwrap(), b"one");
        assert_eq!(fb.next_frame().unwrap(), b"two");
        assert_eq!(fb.next_frame().unwrap(), b"three");
        assert!(fb.next_frame().is_none());
    }

    #[test]
    fn partial_length_prefix_waits() {
        let mut fb = FrameBuffer::new();
        fb.extend(&[0]);
        assert!(fb.next_frame().is_none());
        fb.extend(&[2]);
        assert!(fb.next_frame().is_none());
        fb.extend(b"ab");
        assert_eq!(fb.next_frame().unwrap(), b"ab");
    }

    #[test]
    fn consumed_bytes_are_compacted_away() {
        // A long-lived connection: storage must not grow with the
        // number of messages that have passed through.
        let mut fb = FrameBuffer::new();
        let framed = frame(&[7u8; 100]);
        for _ in 0..10_000 {
            // One and a half frames per read keeps a partial tail
            // buffered across every pop.
            fb.extend(&framed);
            fb.extend(&framed[..51]);
            assert!(fb.next_frame().is_some());
            fb.extend(&framed[51..]);
            assert!(fb.next_frame().is_some());
            assert!(fb.is_empty());
        }
        assert!(
            fb.buf.capacity() < 8 * framed.len(),
            "capacity {}",
            fb.buf.capacity()
        );
    }

    #[test]
    fn pending_len_tracks_partial() {
        let mut fb = FrameBuffer::new();
        fb.extend(&[0, 5, b'a']);
        assert_eq!(fb.pending_len(), 3);
        assert!(fb.next_frame().is_none());
    }
}
