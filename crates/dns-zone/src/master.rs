//! Zone master-file (RFC 1035 §5.1) parsing and generation.
//!
//! Supports `$ORIGIN`, `$TTL`, parenthesized multi-line records, comments,
//! inherited owner names, relative names and RFC 3597 generic RDATA —
//! enough to round-trip the zones our constructor emits and to load real
//! root-zone-shaped files.

use dns_wire::text::tokenize;
use dns_wire::{Name, RData, Record, RecordClass, RecordType};

use crate::zone::{Zone, ZoneError};

/// Errors reading a master file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for MasterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MasterError {}

/// Parse master-file text into records.
///
/// `default_origin` seeds `$ORIGIN` (usually the zone name the file is
/// being loaded for).
pub fn parse_records(text: &str, default_origin: &Name) -> Result<Vec<Record>, MasterError> {
    let mut origin = default_origin.clone();
    let mut default_ttl: u32 = 3600;
    let mut last_owner: Option<Name> = None;
    let mut records = Vec::new();

    // Handle parentheses by logically joining lines first.
    let logical = join_parenthesized(text);

    for (lineno, line) in logical {
        let err = |m: String| MasterError {
            line: lineno,
            message: m,
        };
        let tokens_owned = tokenize(&line);
        if tokens_owned.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = tokens_owned.iter().map(|s| s.as_str()).collect();

        // Directives.
        match tokens[0] {
            "$ORIGIN" => {
                let name = tokens
                    .get(1)
                    .ok_or_else(|| err("$ORIGIN needs a name".into()))?;
                origin = name.parse().map_err(|e| err(format!("bad $ORIGIN: {e}")))?;
                continue;
            }
            "$TTL" => {
                let t = tokens
                    .get(1)
                    .ok_or_else(|| err("$TTL needs a value".into()))?;
                default_ttl = parse_ttl(t).ok_or_else(|| err(format!("bad $TTL {t:?}")))?;
                continue;
            }
            "$INCLUDE" => {
                return Err(err("$INCLUDE is not supported".into()));
            }
            _ => {}
        }

        // Owner: if the raw line starts with whitespace, inherit.
        let starts_blank = line.starts_with(' ') || line.starts_with('\t');
        let mut idx = 0;
        let owner: Name = if starts_blank {
            last_owner
                .clone()
                .ok_or_else(|| err("no previous owner to inherit".into()))?
        } else {
            let tok = tokens[0];
            idx = 1;
            resolve_name(tok, &origin).map_err(&err)?
        };
        last_owner = Some(owner.clone());

        // Optional TTL and class, in either order.
        let mut ttl = default_ttl;
        let mut class = RecordClass::IN;
        let mut seen_ttl = false;
        let mut seen_class = false;
        while idx < tokens.len() {
            let tok = tokens[idx];
            if !seen_ttl
                && tok
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false)
            {
                if let Some(t) = parse_ttl(tok) {
                    // Distinguish TTL from a type mnemonic like TYPE123:
                    // bare integers/durations are TTLs.
                    ttl = t;
                    seen_ttl = true;
                    idx += 1;
                    continue;
                }
            }
            if !seen_class {
                if let Some(c) = RecordClass::from_str_mnemonic(tok) {
                    // Avoid eating a type mnemonic ("ANY" is both): class
                    // tokens are IN/CH/HS/NONE/CLASSn.
                    if !matches!(tok.to_ascii_uppercase().as_str(), "ANY" | "*") {
                        class = c;
                        seen_class = true;
                        idx += 1;
                        continue;
                    }
                }
            }
            break;
        }

        let type_tok = tokens
            .get(idx)
            .ok_or_else(|| err("missing record type".into()))?;
        let rtype = RecordType::from_str_mnemonic(type_tok)
            .ok_or_else(|| err(format!("unknown record type {type_tok:?}")))?;
        idx += 1;

        let rdata = RData::parse_presentation(rtype, &tokens[idx..], &origin)
            .map_err(|e| err(format!("bad {rtype} rdata: {e}")))?;
        records.push(Record {
            name: owner,
            class,
            ttl,
            rdata,
        });
    }
    Ok(records)
}

/// Parse a master file directly into a [`Zone`].
pub fn parse_zone(text: &str, origin: &Name) -> Result<Zone, MasterError> {
    let records = parse_records(text, origin)?;
    let mut zone = Zone::new(origin.clone());
    for rec in records {
        zone.insert(rec).map_err(|e: ZoneError| MasterError {
            line: 0,
            message: e.to_string(),
        })?;
    }
    Ok(zone)
}

/// Render a zone back to master-file text (SOA first, then canonical
/// order), parseable by [`parse_zone`].
pub fn write_zone(zone: &Zone) -> String {
    let mut out = String::new();
    out.push_str(&format!("$ORIGIN {}\n", zone.origin()));
    // SOA first (conventional and required by some loaders).
    if let Some(soa) = zone.soa_rrset() {
        for rec in soa.to_records() {
            out.push_str(&rec.to_string());
            out.push('\n');
        }
    }
    for (name, node) in zone.iter() {
        for set in node.iter() {
            if name == zone.origin() && set.rtype == RecordType::SOA {
                continue;
            }
            for rec in set.to_records() {
                out.push_str(&rec.to_string());
                out.push('\n');
            }
        }
    }
    out
}

/// Resolve a possibly-relative owner-name token against the origin.
fn resolve_name(tok: &str, origin: &Name) -> Result<Name, String> {
    if tok == "@" {
        return Ok(origin.clone());
    }
    let name: Name = tok.parse().map_err(|e| format!("bad name {tok:?}: {e}"))?;
    if tok.ends_with('.') {
        Ok(name)
    } else {
        name.concat(origin)
            .map_err(|e| format!("bad name {tok:?}: {e}"))
    }
}

/// Parse a TTL: plain seconds or BIND duration units (1h30m, 2d, 1w).
fn parse_ttl(tok: &str) -> Option<u32> {
    if let Ok(v) = tok.parse::<u32>() {
        return Some(v);
    }
    let mut total: u64 = 0;
    let mut cur: u64 = 0;
    let mut any = false;
    for c in tok.chars() {
        match c {
            '0'..='9' => {
                cur = cur * 10 + (c as u64 - '0' as u64);
                any = true;
            }
            's' | 'S' => {
                total += cur;
                cur = 0;
            }
            'm' | 'M' => {
                total += cur * 60;
                cur = 0;
            }
            'h' | 'H' => {
                total += cur * 3600;
                cur = 0;
            }
            'd' | 'D' => {
                total += cur * 86400;
                cur = 0;
            }
            'w' | 'W' => {
                total += cur * 604800;
                cur = 0;
            }
            _ => return None,
        }
    }
    total += cur;
    if !any {
        return None;
    }
    u32::try_from(total).ok()
}

/// Join lines so that parenthesized groups become one logical line.
/// Returns `(first_physical_line_number, joined_text)` pairs.
fn join_parenthesized(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    let mut start_line = 0usize;
    for (i, raw) in text.lines().enumerate() {
        // Strip comments outside quotes before counting parens.
        let stripped = strip_comment(raw);
        if depth == 0 {
            start_line = i + 1;
            current.clear();
        } else {
            current.push(' ');
        }
        for c in stripped.chars() {
            match c {
                '(' => {
                    depth += 1;
                }
                ')' => {
                    depth = depth.saturating_sub(1);
                }
                c => current.push(c),
            }
        }
        if depth == 0 {
            out.push((start_line, current.clone()));
        }
    }
    if depth > 0 {
        out.push((start_line, current));
    }
    out
}

/// Remove a `;` comment, respecting quoted strings.
fn strip_comment(line: &str) -> String {
    let mut out = String::new();
    let mut in_quote = false;
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_quote = !in_quote;
                out.push(c);
            }
            '\\' => {
                out.push(c);
                if let Some(n) = chars.next() {
                    out.push(n);
                }
            }
            ';' if !in_quote => break,
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::RData;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    const SAMPLE: &str = r#"
$ORIGIN example.com.
$TTL 3600
@   IN  SOA ns1 admin 2018103100 7200 3600 1209600 300
    IN  NS  ns1
ns1     IN  A   10.0.0.53
www 600 IN  A   10.0.0.1
www     IN  AAAA 2001:db8::1
alias   IN  CNAME www
text    IN  TXT "hello world" "second"
mx      IN  MX  10 mail.example.net.
"#;

    #[test]
    fn parses_sample() {
        let recs = parse_records(SAMPLE, &Name::root()).unwrap();
        assert_eq!(recs.len(), 8);
        assert_eq!(recs[0].name, n("example.com"));
        assert_eq!(recs[0].rtype(), RecordType::SOA);
        // Inherited owner from blank-prefixed line.
        assert_eq!(recs[1].name, n("example.com"));
        assert_eq!(recs[1].rtype(), RecordType::NS);
        assert_eq!(recs[1].rdata, RData::Ns(n("ns1.example.com")));
        // Explicit TTL.
        assert_eq!(recs[3].ttl, 600);
        // Default TTL.
        assert_eq!(recs[2].ttl, 3600);
        // Absolute name untouched.
        assert_eq!(
            recs[7].rdata,
            RData::Mx {
                preference: 10,
                exchange: n("mail.example.net")
            }
        );
    }

    #[test]
    fn parse_zone_validates() {
        let z = parse_zone(SAMPLE, &n("example.com")).unwrap();
        assert!(z.validate().is_ok());
        assert_eq!(z.origin(), &n("example.com"));
        assert!(z.node(&n("www.example.com")).is_some());
    }

    #[test]
    fn round_trip_through_writer() {
        let z = parse_zone(SAMPLE, &n("example.com")).unwrap();
        let text = write_zone(&z);
        let z2 = parse_zone(&text, &n("example.com")).unwrap();
        assert_eq!(z, z2);
    }

    #[test]
    fn parenthesized_soa() {
        let text = r#"
$ORIGIN example.org.
@ IN SOA ns1.example.org. admin.example.org. (
        2018103100 ; serial
        7200       ; refresh
        3600       ; retry
        1209600    ; expire
        300 )      ; minimum
"#;
        let recs = parse_records(text, &Name::root()).unwrap();
        assert_eq!(recs.len(), 1);
        match &recs[0].rdata {
            RData::Soa(soa) => {
                assert_eq!(soa.serial, 2018103100);
                assert_eq!(soa.minimum, 300);
            }
            other => panic!("expected SOA, got {other:?}"),
        }
    }

    #[test]
    fn comments_ignored() {
        let text = "; full comment line\nwww.example.com. 60 IN A 1.2.3.4 ; trailing\n";
        let recs = parse_records(text, &Name::root()).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn ttl_units() {
        assert_eq!(parse_ttl("300"), Some(300));
        assert_eq!(parse_ttl("1h"), Some(3600));
        assert_eq!(parse_ttl("1h30m"), Some(5400));
        assert_eq!(parse_ttl("2d"), Some(172800));
        assert_eq!(parse_ttl("1w"), Some(604800));
        assert_eq!(parse_ttl("90s"), Some(90));
        assert_eq!(parse_ttl("xyz"), None);
        assert_eq!(parse_ttl(""), None);
    }

    #[test]
    fn class_and_ttl_any_order() {
        let a = parse_records("x.example. IN 60 A 1.1.1.1\n", &Name::root()).unwrap();
        let b = parse_records("x.example. 60 IN A 1.1.1.1\n", &Name::root()).unwrap();
        assert_eq!(a[0], b[0]);
        assert_eq!(a[0].ttl, 60);
    }

    #[test]
    fn missing_type_errors_with_line() {
        let err = parse_records("\n\nwww.example.com. 60 IN\n", &Name::root()).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn unknown_type_errors() {
        let err = parse_records("x.example. 60 IN BOGUS 1.2.3.4\n", &Name::root()).unwrap_err();
        assert!(err.message.contains("unknown record type"));
    }

    #[test]
    fn generic_rdata_syntax() {
        let recs = parse_records("x.example. 60 IN TYPE731 \\# 3 abcdef\n", &Name::root()).unwrap();
        assert_eq!(
            recs[0].rdata,
            RData::Unknown {
                rtype: 731,
                data: vec![0xab, 0xcd, 0xef]
            }
        );
    }

    #[test]
    fn origin_changes_apply() {
        let text = "$ORIGIN a.example.\nwww IN A 1.1.1.1\n$ORIGIN b.example.\nwww IN A 2.2.2.2\n";
        let recs = parse_records(text, &Name::root()).unwrap();
        assert_eq!(recs[0].name, n("www.a.example"));
        assert_eq!(recs[1].name, n("www.b.example"));
    }

    #[test]
    fn at_sign_is_origin() {
        let recs = parse_records("$ORIGIN example.com.\n@ IN NS ns1\n", &Name::root()).unwrap();
        assert_eq!(recs[0].name, n("example.com"));
    }

    #[test]
    fn include_rejected() {
        assert!(parse_records("$INCLUDE other.zone\n", &Name::root()).is_err());
    }

    #[test]
    fn real_root_zone_fragment() {
        // Shape of the actual root zone file.
        let text = r#"
.   86400   IN  SOA a.root-servers.net. nstld.verisign-grs.com. 2018103100 1800 900 604800 86400
.   518400  IN  NS  a.root-servers.net.
.   518400  IN  NS  b.root-servers.net.
com.    172800  IN  NS  a.gtld-servers.net.
a.gtld-servers.net. 172800 IN A 192.5.6.30
a.root-servers.net. 518400 IN A 198.41.0.4
b.root-servers.net. 518400 IN A 199.9.14.201
"#;
        let z = parse_zone(text, &Name::root()).unwrap();
        assert!(z.validate().is_ok());
        assert_eq!(z.apex_ns().unwrap().len(), 2);
        let (cut, _) = z.find_zone_cut(&n("www.example.com")).unwrap();
        assert_eq!(cut, &n("com"));
    }
}
