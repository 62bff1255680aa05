//! A minimal Rust lexer for rule matching.
//!
//! `syn` is the obvious tool for a custom lint pass, but the workspace
//! is `std` only and builds with no network, so we lex by hand. The rules in
//! [`crate::rules`] only need a comment/string-stripped token stream
//! with line numbers and enough structure to skip `#[cfg(test)]`
//! modules — all of which a few hundred lines of lexer provide.

/// One lexical token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// Token text: an identifier, a lifetime, a number, `::`, or a
    /// single punctuation character. Comments, whitespace and literal
    /// *contents* never appear; string literals are collapsed to the
    /// single token `""` so rules cannot accidentally match text inside
    /// them.
    pub text: String,
}

impl Token {
    fn new(line: u32, text: impl Into<String>) -> Self {
        Token {
            line,
            text: text.into(),
        }
    }

    /// True if this token is an identifier (or keyword).
    pub fn is_ident(&self) -> bool {
        self.text
            .chars()
            .next()
            .map(|c| c.is_alphabetic() || c == '_')
            .unwrap_or(false)
    }
}

/// Tokenize Rust source. Comments (line, block, nested block) and the
/// contents of string/char literals are dropped; everything else is
/// kept with its line number.
pub fn tokenize(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if (c as char).is_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' if starts_raw_ident(b, i) => {
                // Raw identifier: `r#type`, `r#async`, … One token whose
                // text keeps the `r#` prefix, so `r#async` can never be
                // mistaken for the `async` keyword by a rule.
                let start = i;
                i += 2; // r#
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] >= 0x80)
                {
                    i += 1;
                }
                out.push(Token::new(line, &src[start..i]));
            }
            b'r' | b'b' if starts_raw_string(b, i) => {
                // r"...", r#"..."#, br"...", rb-like forms: skip prefix
                // letters, count hashes, then scan to the closing quote
                // followed by the same number of hashes.
                let start_line = line;
                while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
                    i += 1;
                }
                let mut hashes = 0usize;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                debug_assert!(i < b.len() && b[i] == b'"');
                i += 1; // opening quote
                loop {
                    if i >= b.len() {
                        break;
                    }
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                        continue;
                    }
                    if b[i] == b'"' {
                        let mut j = i + 1;
                        let mut seen = 0usize;
                        while j < b.len() && b[j] == b'#' && seen < hashes {
                            seen += 1;
                            j += 1;
                        }
                        if seen == hashes {
                            i = j;
                            break;
                        }
                    }
                    i += 1;
                }
                out.push(Token::new(start_line, "\"\""));
            }
            b'"' => {
                let start_line = line;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.push(Token::new(start_line, "\"\""));
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime is `'` followed by
                // an identifier NOT closed by another quote ('a vs 'a').
                if is_char_literal(b, i) {
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            b'\n' => {
                                line += 1;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                    out.push(Token::new(line, "''"));
                } else {
                    // Lifetime: consume `'ident`.
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.push(Token::new(line, &src[start..i]));
                }
            }
            c if (c as char).is_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] >= 0x80)
                {
                    i += 1;
                }
                out.push(Token::new(line, &src[start..i]));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // Stop a `1..=9` range from being eaten as one number.
                    if b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                        break;
                    }
                    i += 1;
                }
                out.push(Token::new(line, &src[start..i]));
            }
            b':' if i + 1 < b.len() && b[i + 1] == b':' => {
                out.push(Token::new(line, "::"));
                i += 2;
            }
            _ => {
                out.push(Token::new(line, &src[i..i + 1]));
                i += 1;
            }
        }
    }
    out
}

/// Is position `i` the start of a raw identifier (`r#ident`)?
///
/// Distinguished from a hash-delimited raw string (`r#"…"#`) by the
/// byte after `r#`: an identifier start rather than `"` or another `#`.
fn starts_raw_ident(b: &[u8], i: usize) -> bool {
    i + 2 < b.len()
        && b[i] == b'r'
        && b[i + 1] == b'#'
        && (b[i + 2].is_ascii_alphabetic() || b[i + 2] == b'_')
}

/// Is position `i` the start of a raw (possibly byte) string literal?
fn starts_raw_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    let mut saw_r = false;
    // Accept r, br, rb (lexically permissive; plain identifiers like
    // `rb` not followed by a quote/hash fall through to ident lexing).
    while j < b.len() && (b[j] == b'r' || b[j] == b'b') {
        saw_r |= b[j] == b'r';
        j += 1;
        if j - i > 2 {
            return false;
        }
    }
    if !saw_r {
        return false;
    }
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Distinguish `'a'` (char literal) from `'a` (lifetime).
fn is_char_literal(b: &[u8], i: usize) -> bool {
    // An escape is always a char literal.
    if i + 1 < b.len() && b[i + 1] == b'\\' {
        return true;
    }
    // `'X'` → closing quote right after one (possibly multibyte) char.
    let mut j = i + 1;
    if j < b.len() {
        // Skip one UTF-8 scalar.
        let len = utf8_len(b[j]);
        j += len;
    }
    j < b.len() && b[j] == b'\''
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Compute which token index ranges sit inside `#[cfg(test)]` modules
/// (and `#[cfg(test)]`-gated items in general): returns a mask over the
/// token stream, `true` = token is test-only code.
///
/// Strategy: whenever the stream shows `#` `[` … `test` … `]`, the next
/// item's braced (or `;`-terminated) body is marked. This covers
/// `#[cfg(test)] mod tests { … }`, `#[cfg(test)] use …;` and
/// `#[test] fn …`, which is exactly the shape of test code in this
/// workspace.
pub fn test_code_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && i + 1 < tokens.len() && tokens[i + 1].text == "[" {
            // Scan the attribute for the ident `test`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut has_test = false;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    // `test`, unless negated as in `#[cfg(not(test))]`.
                    "test"
                        if !(j >= 2
                            && tokens[j - 1].text == "("
                            && tokens[j - 2].text == "not") =>
                    {
                        has_test = true
                    }
                    _ => {}
                }
                j += 1;
            }
            if has_test {
                // Mark from the attribute through the end of the item:
                // to the matching `}` of the first brace block, or the
                // first `;` at depth 0.
                let start = i;
                let mut k = j;
                let mut brace = 0usize;
                let mut entered = false;
                while k < tokens.len() {
                    match tokens[k].text.as_str() {
                        "{" => {
                            brace += 1;
                            entered = true;
                        }
                        "}" => {
                            brace = brace.saturating_sub(1);
                            if entered && brace == 0 {
                                k += 1;
                                break;
                            }
                        }
                        ";" if !entered => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take(k.min(tokens.len())).skip(start) {
                    *m = true;
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let toks = texts(
            r#"
            // Instant::now in a comment
            let x = "Instant::now in a string";
            /* HashMap in a block
               comment */ let y = 1;
            "#,
        );
        assert!(!toks.contains(&"Instant".to_string()));
        assert!(!toks.contains(&"HashMap".to_string()));
        assert!(toks.contains(&"\"\"".to_string()));
        assert!(toks.contains(&"x".to_string()));
        assert!(toks.contains(&"y".to_string()));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let toks = texts(r####"let s = r#"thread_rng() "quoted" inside"#; let t = 2;"####);
        assert!(!toks.contains(&"thread_rng".to_string()));
        assert!(toks.contains(&"t".to_string()));
    }

    #[test]
    fn raw_identifiers_do_not_lex_as_keywords() {
        // `r#async` / `r#type` are ordinary identifiers; lexing them as
        // the bare keyword would false-positive any keyword-anchored
        // rule.
        let toks = texts("fn r#async(r#type: u32) { let r#fn = r#type; }");
        assert!(!toks.contains(&"async".to_string()), "{toks:?}");
        assert!(!toks.contains(&"type".to_string()), "{toks:?}");
        assert!(toks.contains(&"r#async".to_string()));
        assert!(toks.contains(&"r#type".to_string()));
        assert!(toks.contains(&"r#fn".to_string()));
        // A raw identifier is still an identifier.
        assert!(tokenize("r#match").iter().all(|t| t.is_ident()));
        // …and raw strings still lex as strings, not raw identifiers.
        let raw = texts(r####"let s = r#"thread_rng()"#;"####);
        assert!(!raw.contains(&"thread_rng".to_string()));
        assert!(raw.contains(&"\"\"".to_string()));
    }

    #[test]
    fn nested_block_comments_with_string_delimiters() {
        // String delimiters have no meaning inside a block comment: the
        // nesting count alone decides where the comment ends. A lexer
        // that enters "string mode" on the inner quote would swallow the
        // closing `*/` and mis-lex everything after it.
        let toks = texts("/* outer /* inner \" */ still \"comment' */ let after = Instant::now;");
        assert!(toks.contains(&"after".to_string()), "{toks:?}");
        assert!(toks.contains(&"Instant".to_string()), "{toks:?}");
        assert!(!toks.contains(&"outer".to_string()));
        assert!(!toks.contains(&"inner".to_string()));
        // Unbalanced quote inside a line comment does not leak either.
        let toks = texts("// a \" quote\nlet x = 1;");
        assert_eq!(toks, vec!["let", "x", "=", "1", ";"]);
        // Line numbers survive multi-line nested comments.
        let toks = tokenize("/* \"\n/* ' */\n*/\nident");
        assert_eq!(toks[0].text, "ident");
        assert_eq!(toks[0].line, 4);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = texts("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert!(toks.contains(&"'a".to_string()));
        assert!(toks.contains(&"''".to_string()));
        assert!(!toks.contains(&"x'".to_string()));
    }

    #[test]
    fn paths_lex_as_double_colon() {
        let toks = texts("std::time::Instant::now()");
        assert_eq!(
            toks,
            vec!["std", "::", "time", "::", "Instant", "::", "now", "(", ")"]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = tokenize("a\nb\n\nc");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = r#"
            fn real() { Instant::now(); }
            #[cfg(test)]
            mod tests {
                fn t() { Instant::now(); }
            }
            fn after() {}
        "#;
        let toks = tokenize(src);
        let mask = test_code_mask(&toks);
        let masked: Vec<&str> = toks
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"mod"));
        assert!(masked.contains(&"t"));
        // Code before and after the module is not masked.
        let unmasked: Vec<&str> = toks
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| !m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(unmasked.contains(&"real"));
        assert!(unmasked.contains(&"after"));
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let src = "#[test]\nfn unit() { x.unwrap(); }\nfn prod() { y.unwrap(); }";
        let toks = tokenize(src);
        let mask = test_code_mask(&toks);
        let unmasked: Vec<&str> = toks
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| !m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(!unmasked.contains(&"unit"));
        assert!(unmasked.contains(&"prod"));
    }

    #[test]
    fn nested_braces_inside_test_mod() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                struct S { a: u32 }
                fn f() { if true { let _ = S { a: 1 }; } }
            }
            fn outside() {}
        "#;
        let toks = tokenize(src);
        let mask = test_code_mask(&toks);
        let unmasked: Vec<&str> = toks
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| !m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(unmasked.contains(&"outside"));
        assert!(!unmasked.contains(&"S"));
    }
}
