//! Quote-aware tokenizer for DNS presentation formats (zone master files
//! and LDplayer's plain-text trace format).
//!
//! Splits on whitespace but keeps `"quoted strings"` together (quotes
//! retained, so TXT parsing can distinguish quoted from bare tokens) and
//! stops at an unquoted `;` comment.

/// Tokenize one presentation-format line.
///
/// ```
/// use dns_wire::text::tokenize;
/// let toks = tokenize(r#"example.com. 60 IN TXT "hello world" ; comment"#);
/// assert_eq!(toks, vec!["example.com.", "60", "IN", "TXT", "\"hello world\""]);
/// ```
pub fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                cur.push('"');
                if in_quote {
                    in_quote = false;
                    out.push(std::mem::take(&mut cur));
                } else {
                    in_quote = true;
                }
            }
            '\\' => {
                cur.push('\\');
                if let Some(&next) = chars.peek() {
                    cur.push(next);
                    chars.next();
                }
            }
            ';' if !in_quote => break,
            c if c.is_whitespace() && !in_quote => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Remove surrounding quotes and resolve `\"`, `\\` and `\ddd` escapes in
/// a token produced by [`tokenize`]. Bare tokens pass through unchanged.
/// Returns raw bytes because TXT strings are binary-capable.
pub fn unquote(token: &str) -> Vec<u8> {
    let inner = token
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(token);
    let bytes = inner.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\\' {
            if i + 3 < bytes.len()
                && bytes[i + 1].is_ascii_digit()
                && bytes[i + 2].is_ascii_digit()
                && bytes[i + 3].is_ascii_digit()
            {
                let d = (bytes[i + 1] - b'0') as u16 * 100
                    + (bytes[i + 2] - b'0') as u16 * 10
                    + (bytes[i + 3] - b'0') as u16;
                out.push(d.min(255) as u8);
                i += 4;
            } else if i + 1 < bytes.len() {
                out.push(bytes[i + 1]);
                i += 2;
            } else {
                i += 1;
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    out
}

/// Quote a byte string for presentation output, escaping `"` and `\`.
pub fn quote(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() + 2);
    out.push('"');
    for &b in data {
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\{:03}", b)),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace() {
        assert_eq!(tokenize("a b\tc"), vec!["a", "b", "c"]);
        assert_eq!(
            tokenize("  leading  and  trailing  "),
            vec!["leading", "and", "trailing"]
        );
        assert!(tokenize("").is_empty());
        assert!(tokenize("   ").is_empty());
    }

    #[test]
    fn keeps_quoted_strings() {
        assert_eq!(
            tokenize(r#"TXT "two words" bare"#),
            vec!["TXT", "\"two words\"", "bare"]
        );
    }

    #[test]
    fn comment_stops_parse() {
        assert_eq!(tokenize("a b ; comment ; more"), vec!["a", "b"]);
        assert!(tokenize("; whole line comment").is_empty());
    }

    #[test]
    fn semicolon_inside_quotes_kept() {
        assert_eq!(tokenize(r#""a;b" c"#), vec!["\"a;b\"", "c"]);
    }

    #[test]
    fn escaped_quote_inside_string() {
        assert_eq!(tokenize(r#""say \"hi\"" x"#), vec![r#""say \"hi\"""#, "x"]);
    }

    #[test]
    fn unquote_resolves_escapes() {
        assert_eq!(unquote(r#""say \"hi\"""#), b"say \"hi\"");
        assert_eq!(unquote(r#""back\\slash""#), b"back\\slash");
        assert_eq!(unquote("bare"), b"bare");
    }

    #[test]
    fn quote_round_trip() {
        let data = b"mix \"of\" back\\slash";
        let q = quote(data);
        assert_eq!(unquote(&q), data);
        let toks = tokenize(&format!("{q} tail"));
        assert_eq!(toks.len(), 2);
        assert_eq!(unquote(&toks[0]), data);
    }

    #[test]
    fn quote_escapes_nonprintable() {
        assert_eq!(quote(&[0x01]), "\"\\001\"");
        assert_eq!(unquote("\"\\001\""), vec![0x01]);
    }
}
