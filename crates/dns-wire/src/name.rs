//! Domain names: labels, presentation format, canonical ordering and
//! hierarchy relations.
//!
//! A [`Name`] is a sequence of labels stored lowercase (DNS comparison is
//! case-insensitive; we normalize at construction and remember nothing of
//! the original case, which is what every replay component needs).
//! Wire-format encoding/decoding, including RFC 1035 §4.1.4 compression
//! pointers, lives in [`crate::wire`].

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Maximum total length of a name on the wire (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;

/// Errors constructing or parsing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label is empty (`foo..bar`) where it must not be.
    EmptyLabel,
    /// A label exceeds 63 octets.
    LabelTooLong(usize),
    /// The whole name exceeds 255 octets in wire form.
    NameTooLong(usize),
    /// An escape sequence (`\ddd` or `\X`) is malformed.
    BadEscape,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label in name"),
            NameError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            NameError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            NameError::BadEscape => write!(f, "malformed escape sequence"),
        }
    }
}

impl std::error::Error for NameError {}

/// A fully-qualified domain name, stored as lowercase labels.
///
/// The root name has zero labels. Names compare and hash
/// case-insensitively by construction.
///
/// ```
/// use dns_wire::name::Name;
/// let n: Name = "WWW.Example.COM.".parse().unwrap();
/// assert_eq!(n.to_string(), "www.example.com.");
/// assert_eq!(n.label_count(), 3);
/// assert!(n.is_subdomain_of(&"example.com".parse().unwrap()));
/// ```
#[derive(Debug, Clone, Eq)]
pub struct Name {
    /// Labels in query order: `www`, `example`, `com`.
    labels: Vec<Box<[u8]>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Build from raw label byte strings. Labels are lowercased.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut out: Vec<Box<[u8]>> = Vec::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(l.len()));
            }
            out.push(l.to_ascii_lowercase().into_boxed_slice());
        }
        let name = Name { labels: out };
        let wl = name.wire_len();
        if wl > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wl));
        }
        Ok(name)
    }

    /// True if this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of labels (root = 0).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Iterate labels from leftmost (host) to rightmost (TLD).
    ///
    /// The iterator is double-ended and exact-size so wire encoding can
    /// walk suffixes right-to-left without materializing parent names.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &[u8]> + ExactSizeIterator + '_ {
        self.labels.iter().map(|l| &**l)
    }

    /// The length of this name in uncompressed wire form, including the
    /// terminating root octet.
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    /// The parent name (one label removed from the left), or `None` for
    /// the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Strip `suffix` from this name; returns the remaining left labels.
    ///
    /// `www.example.com`.strip_suffix(`example.com`) → `Some([www])`.
    pub fn strip_suffix(&self, suffix: &Name) -> Option<Vec<&[u8]>> {
        if suffix.labels.len() > self.labels.len() {
            return None;
        }
        let split = self.labels.len() - suffix.labels.len();
        if self.labels[split..] == suffix.labels[..] {
            Some(self.labels[..split].iter().map(|l| &**l).collect())
        } else {
            None
        }
    }

    /// True if `self` is a subdomain of `other` (proper or equal).
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.labels
            .len()
            .checked_sub(other.labels.len())
            .is_some_and(|split| self.labels[split..] == other.labels[..])
    }

    /// True if `self` is a *proper* subdomain (strictly below `other`).
    pub fn is_proper_subdomain_of(&self, other: &Name) -> bool {
        self.labels.len() > other.labels.len() && self.is_subdomain_of(other)
    }

    /// Prepend a label, producing `label.self`.
    pub fn child(&self, label: &[u8]) -> Result<Name, NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.len()));
        }
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.to_ascii_lowercase().into_boxed_slice());
        labels.extend(self.labels.iter().cloned());
        let n = Name { labels };
        let wl = n.wire_len();
        if wl > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wl));
        }
        Ok(n)
    }

    /// Concatenate: `self` + `suffix` (e.g. relative name + origin).
    pub fn concat(&self, suffix: &Name) -> Result<Name, NameError> {
        let mut labels = self.labels.clone();
        labels.extend(suffix.labels.iter().cloned());
        let n = Name { labels };
        let wl = n.wire_len();
        if wl > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wl));
        }
        Ok(n)
    }

    /// The leftmost label, if any.
    pub fn leftmost(&self) -> Option<&[u8]> {
        self.labels.first().map(|l| &**l)
    }

    /// Replace the leftmost label with `*` (for wildcard synthesis).
    pub fn to_wildcard(&self) -> Option<Name> {
        // Swapping a label for the one-byte `*` can only shrink the
        // name, so this construction never exceeds the wire limits.
        self.parent().map(|p| {
            let mut labels = vec![b"*".to_vec().into_boxed_slice()];
            labels.extend(p.labels.iter().cloned());
            Name { labels }
        })
    }

    /// True if the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.leftmost() == Some(b"*".as_slice())
    }

    /// Canonical DNS ordering (RFC 4034 §6.1): compare label-by-label
    /// from the *right*, case-insensitively (already lowercase), with
    /// absent labels sorting first. This ordering groups a zone's names
    /// hierarchically and is what NSEC chains use.
    pub fn canonical_cmp(&self, other: &Name) -> Ordering {
        let a = &self.labels;
        let b = &other.labels;
        let n = a.len().min(b.len());
        for i in 1..=n {
            let la = &a[a.len() - i];
            let lb = &b[b.len() - i];
            match la.cmp(lb) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        a.len().cmp(&b.len())
    }

    /// Render a single label in presentation format, escaping dots,
    /// backslashes and non-printable bytes per RFC 1035 §5.1.
    fn fmt_label(label: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in label {
            match b {
                b'.' | b'\\' | b'"' | b';' | b'(' | b')' | b'@' | b'$' => {
                    write!(f, "\\{}", b as char)?
                }
                0x21..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\{:03}", b)?,
            }
        }
        Ok(())
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            l.hash(state);
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

impl fmt::Display for Name {
    /// Presentation format with trailing dot; the root prints as `"."`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for label in &self.labels {
            Name::fmt_label(label, f)?;
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = NameError;

    /// Parse presentation format. A trailing dot is optional — all names
    /// are treated as fully qualified. Supports `\ddd` and `\X` escapes.
    fn from_str(s: &str) -> Result<Self, NameError> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let bytes = s.as_bytes();
        let mut labels: Vec<Vec<u8>> = Vec::new();
        let mut cur: Vec<u8> = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => {
                    // Escape: \ddd (three digits) or \X (literal char).
                    if i + 3 < bytes.len()
                        && bytes[i + 1].is_ascii_digit()
                        && bytes[i + 2].is_ascii_digit()
                        && bytes[i + 3].is_ascii_digit()
                    {
                        let d = (bytes[i + 1] - b'0') as u16 * 100
                            + (bytes[i + 2] - b'0') as u16 * 10
                            + (bytes[i + 3] - b'0') as u16;
                        if d > 255 {
                            return Err(NameError::BadEscape);
                        }
                        cur.push(d as u8);
                        i += 4;
                    } else if i + 1 < bytes.len() {
                        cur.push(bytes[i + 1]);
                        i += 2;
                    } else {
                        return Err(NameError::BadEscape);
                    }
                }
                b'.' => {
                    if cur.is_empty() {
                        return Err(NameError::EmptyLabel);
                    }
                    labels.push(std::mem::take(&mut cur));
                    i += 1;
                }
                b => {
                    cur.push(b);
                    i += 1;
                }
            }
        }
        if !cur.is_empty() {
            labels.push(cur);
        }
        Name::from_labels(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn root_round_trip() {
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("."), Name::root());
        assert_eq!(n(""), Name::root());
        assert!(Name::root().is_root());
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.example.com").to_string(), "www.example.com.");
        assert_eq!(n("www.example.com.").to_string(), "www.example.com.");
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(n("WWW.EXAMPLE.COM"), n("www.example.com"));
        let mut set = std::collections::HashSet::new();
        set.insert(n("Example.Com"));
        assert!(set.contains(&n("example.com")));
    }

    #[test]
    fn label_count_and_parent() {
        let name = n("a.b.c");
        assert_eq!(name.label_count(), 3);
        assert_eq!(name.parent().unwrap(), n("b.c"));
        assert_eq!(n("c").parent().unwrap(), Name::root());
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("www.example.com").is_subdomain_of(&n("com")));
        assert!(n("www.example.com").is_subdomain_of(&Name::root()));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_proper_subdomain_of(&n("example.com")));
        assert!(n("www.example.com").is_proper_subdomain_of(&n("example.com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.org").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn strip_suffix() {
        let full = n("mail.google.com");
        let left = full.strip_suffix(&n("google.com")).unwrap();
        assert_eq!(left, vec![b"mail".as_slice()]);
        let g = n("google.com");
        assert!(g.strip_suffix(&n("example.com")).is_none());
        assert_eq!(g.strip_suffix(&n("google.com")).unwrap().len(), 0);
    }

    #[test]
    fn child_and_concat() {
        assert_eq!(
            n("example.com").child(b"www").unwrap(),
            n("www.example.com")
        );
        assert_eq!(
            n("www").concat(&n("example.com")).unwrap(),
            n("www.example.com")
        );
        assert_eq!(Name::root().child(b"com").unwrap(), n("com"));
    }

    #[test]
    fn wildcard() {
        let w = n("www.example.com").to_wildcard().unwrap();
        assert_eq!(w, n("*.example.com"));
        assert!(w.is_wildcard());
        assert!(!n("www.example.com").is_wildcard());
        assert!(Name::root().to_wildcard().is_none());
    }

    #[test]
    fn canonical_ordering_rfc4034() {
        // Example ordering from RFC 4034 §6.1 (subset).
        let ordered = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "z.a.example",
            "zabc.a.example",
            "z.example",
        ];
        for w in ordered.windows(2) {
            assert_eq!(
                n(w[0]).canonical_cmp(&n(w[1])),
                Ordering::Less,
                "{} < {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(Name::root().canonical_cmp(&n("com")), Ordering::Less);
    }

    #[test]
    fn length_limits() {
        let long_label = "a".repeat(64);
        assert!(matches!(
            long_label.parse::<Name>(),
            Err(NameError::LabelTooLong(64))
        ));
        let ok_label = "a".repeat(63);
        assert!(ok_label.parse::<Name>().is_ok());
        // 4 * (63+1) + 1 = 257 > 255.
        let too_long = format!("{0}.{0}.{0}.{0}", "a".repeat(63));
        assert!(matches!(
            too_long.parse::<Name>(),
            Err(NameError::NameTooLong(_))
        ));
    }

    #[test]
    fn empty_label_rejected() {
        assert!(matches!(n_err("a..b"), NameError::EmptyLabel));
        assert!(matches!(n_err(".a"), NameError::EmptyLabel));
    }

    fn n_err(s: &str) -> NameError {
        s.parse::<Name>().unwrap_err()
    }

    #[test]
    fn escapes() {
        let name: Name = r"a\.b.example".parse().unwrap();
        assert_eq!(name.label_count(), 2);
        assert_eq!(name.leftmost().unwrap(), b"a.b");
        assert_eq!(name.to_string(), r"a\.b.example.");
        let re: Name = name.to_string().parse().unwrap();
        assert_eq!(re, name);

        let numeric: Name = r"\065bc".parse().unwrap();
        assert_eq!(numeric.leftmost().unwrap(), b"abc");

        assert!(matches!(
            r"a\300b".parse::<Name>(),
            Err(NameError::BadEscape)
        ));
        assert!(matches!(
            r"trailing\".parse::<Name>(),
            Err(NameError::BadEscape)
        ));
    }

    #[test]
    fn non_printable_bytes_escape() {
        let name = Name::from_labels([&[0x01u8, b'a'][..]]).unwrap();
        assert_eq!(name.to_string(), r"\001a.");
        let round: Name = name.to_string().parse().unwrap();
        assert_eq!(round, name);
    }

    #[test]
    fn wire_len() {
        assert_eq!(n("com").wire_len(), 5); // 1+3 + root
        assert_eq!(n("example.com").wire_len(), 13);
    }
}
