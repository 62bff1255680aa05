//! The column-based plain-text trace format (paper §2.5, Figure 3):
//! one line per DNS message, whitespace-separated fields, trivially
//! editable with a text editor or awk — the "easy manipulation" leg of
//! the trace-mutation pipeline.
//!
//! Columns:
//!
//! ```text
//! time_us  src_ip  src_port  dst_ip  dst_port  proto  id  qr  qname  qtype  qclass  flags  do
//! ```
//!
//! `flags` is a compact letter set (`R`=rd, `A`=aa, `T`=tc, `a`=ra, `-`
//! if none). The format carries everything needed to *replay queries*;
//! response bodies are not representable here (use the binary format for
//! lossless pipelines) — matching the paper, whose text stage exists to
//! edit queries.

use std::net::{IpAddr, SocketAddr};

use dns_wire::{Message, Name, RecordClass, RecordType, Transport};

use crate::entry::TraceEntry;

/// Errors parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextError {}

/// Render one entry as a text line.
pub fn to_line(entry: &TraceEntry) -> String {
    let m = &entry.message;
    let (qname, qtype, qclass) = match m.question() {
        Some(q) => (
            q.name.to_string(),
            q.qtype.to_string(),
            q.qclass.to_string(),
        ),
        None => (".".to_string(), "A".to_string(), "IN".to_string()),
    };
    let mut flags = String::new();
    if m.flags.recursion_desired {
        flags.push('R');
    }
    if m.flags.authoritative {
        flags.push('A');
    }
    if m.flags.truncated {
        flags.push('T');
    }
    if m.flags.recursion_available {
        flags.push('a');
    }
    if flags.is_empty() {
        flags.push('-');
    }
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {}",
        entry.time_us,
        entry.src.ip(),
        entry.src.port(),
        entry.dst.ip(),
        entry.dst.port(),
        entry.transport.mnemonic(),
        m.id,
        if m.flags.response { 1 } else { 0 },
        qname,
        qtype,
        qclass,
        flags,
        if m.dnssec_ok() { 1 } else { 0 },
    )
}

/// Render a whole trace.
pub fn write_text(entries: &[TraceEntry]) -> String {
    let mut out = String::with_capacity(entries.len() * 64);
    out.push_str(
        "# time_us src_ip src_port dst_ip dst_port proto id qr qname qtype qclass flags do\n",
    );
    for e in entries {
        out.push_str(&to_line(e));
        out.push('\n');
    }
    out
}

/// Parse one text line back into an entry.
pub fn from_line(line: &str, lineno: usize) -> Result<TraceEntry, TextError> {
    let err = |m: String| TextError {
        line: lineno,
        message: m,
    };
    let f: Vec<&str> = line.split_whitespace().collect();
    if f.len() < 13 {
        return Err(err(format!("expected 13 fields, got {}", f.len())));
    }
    let time_us: u64 = f[0]
        .parse()
        .map_err(|_| err(format!("bad time {:?}", f[0])))?;
    let src_ip: IpAddr = f[1]
        .parse()
        .map_err(|_| err(format!("bad src ip {:?}", f[1])))?;
    let src_port: u16 = f[2]
        .parse()
        .map_err(|_| err(format!("bad src port {:?}", f[2])))?;
    let dst_ip: IpAddr = f[3]
        .parse()
        .map_err(|_| err(format!("bad dst ip {:?}", f[3])))?;
    let dst_port: u16 = f[4]
        .parse()
        .map_err(|_| err(format!("bad dst port {:?}", f[4])))?;
    let transport =
        Transport::from_mnemonic(f[5]).ok_or_else(|| err(format!("bad proto {:?}", f[5])))?;
    let id: u16 = f[6]
        .parse()
        .map_err(|_| err(format!("bad id {:?}", f[6])))?;
    let qr = f[7] == "1";
    let qname: Name = f[8].parse().map_err(|e| err(format!("bad qname: {e}")))?;
    let qtype =
        RecordType::from_str_mnemonic(f[9]).ok_or_else(|| err(format!("bad qtype {:?}", f[9])))?;
    let qclass = RecordClass::from_str_mnemonic(f[10])
        .ok_or_else(|| err(format!("bad qclass {:?}", f[10])))?;
    let do_bit = f[12] == "1";

    let mut message = Message::query(id, qname, qtype);
    message.questions[0].qclass = qclass;
    message.flags.response = qr;
    message.flags.recursion_desired = f[11].contains('R');
    message.flags.authoritative = f[11].contains('A');
    message.flags.truncated = f[11].contains('T');
    message.flags.recursion_available = f[11].contains('a');
    if !f[11].contains('R') {
        message.flags.recursion_desired = false;
    }
    message.set_dnssec_ok(do_bit);

    Ok(TraceEntry {
        time_us,
        src: SocketAddr::new(src_ip, src_port),
        dst: SocketAddr::new(dst_ip, dst_port),
        transport,
        message,
    })
}

/// Parse a whole text trace (skipping `#` comments and blank lines).
pub fn parse_text(text: &str) -> Result<Vec<TraceEntry>, TextError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        out.push(from_line(trimmed, i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEntry {
        let mut e = TraceEntry::query(
            1_461_234_567_012_345,
            "192.168.1.1:5301".parse().unwrap(),
            "198.41.0.4:53".parse().unwrap(),
            4660,
            "example.com".parse().unwrap(),
            RecordType::A,
        );
        e.transport = Transport::Tcp;
        e.message.set_dnssec_ok(true);
        e
    }

    #[test]
    fn line_round_trip() {
        let e = sample();
        let line = to_line(&e);
        let back = from_line(&line, 1).unwrap();
        assert_eq!(back.time_us, e.time_us);
        assert_eq!(back.src, e.src);
        assert_eq!(back.dst, e.dst);
        assert_eq!(back.transport, e.transport);
        assert_eq!(back.message.id, e.message.id);
        assert_eq!(back.message.question(), e.message.question());
        assert!(back.message.dnssec_ok());
        assert!(back.message.flags.recursion_desired);
    }

    #[test]
    fn whole_trace_round_trip() {
        let entries = vec![sample(), {
            let mut e = sample();
            e.time_us += 1000;
            e.message.set_dnssec_ok(false);
            e.message.flags.recursion_desired = false;
            e
        }];
        let text = write_text(&entries);
        let back = parse_text(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert!(!back[1].message.dnssec_ok());
        assert!(!back[1].message.flags.recursion_desired);
        assert_eq!(back[1].time_us, entries[1].time_us);
    }

    #[test]
    fn line_is_editable_with_field_replacement() {
        // The use case: swap the transport column with sed/awk.
        let line = to_line(&sample());
        let edited = line.replace(" TCP ", " TLS ");
        let back = from_line(&edited, 1).unwrap();
        assert_eq!(back.transport, Transport::Tls);
    }

    #[test]
    fn ipv6_addresses_survive() {
        let mut e = sample();
        e.src = "[2001:db8::1]:5353".parse().unwrap();
        let back = from_line(&to_line(&e), 1).unwrap();
        assert_eq!(back.src, e.src);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = format!("# header\n\n{}\n", to_line(&sample()));
        assert_eq!(parse_text(&text).unwrap().len(), 1);
    }

    #[test]
    fn bad_fields_error_with_line_number() {
        let err = parse_text("bogus line with too few fields\n").unwrap_err();
        assert_eq!(err.line, 1);
        let mut line = to_line(&sample());
        line = line.replacen("TCP", "SCTP", 1);
        let err = from_line(&line, 5).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.message.contains("proto"));
    }
}
