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
use std::sync::Arc;

/// Maximum total length of a name on the wire (RFC 1035 §2.3.4).
const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label.
const MAX_LABEL_LEN: usize = 63;

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

/// The canonical bytes of the longest legal name: 127 one-octet labels
/// of three bytes each (RFC 1035 §2.3.4 leaves no room for more).
const MAX_CANONICAL_LEN: usize = 3 * (MAX_NAME_LEN / 2);

/// The canonical bytes a name holds by value: what a 32-byte [`Name`]
/// has left after its variant tag, length and label count.
pub(crate) const INLINE_LEN: usize = 29;

/// A fully-qualified domain name, stored lowercase.
///
/// The root name has zero labels. Names compare and hash
/// case-insensitively by construction.
///
/// The labels are laid out in *canonical* order — TLD first — each as
/// `len, octets, len`, so the bytes can be walked from either end and an
/// ancestor is a prefix of them. A name of at most 29 such bytes holds
/// them by value: [`Clone`], [`Name::parent`] and every copy of it are
/// plain copies. A longer name is a view of one shared buffer: [`Clone`]
/// bumps a reference count and an ancestor that is still longer than 29
/// bytes shortens the view. `Ord` walks both names' bytes forwards once,
/// and `Eq`/`Hash` read the bytes, so the two forms cannot be told apart.
/// Nothing allocates per label.
///
/// ```
/// use dns_wire::name::Name;
/// let n: Name = "WWW.Example.COM.".parse().unwrap();
/// assert_eq!(n.to_string(), "www.example.com.");
/// assert_eq!(n.label_count(), 3);
/// assert!(n.is_subdomain_of(&"example.com".parse().unwrap()));
/// ```
#[derive(Clone)]
pub struct Name(Repr);

/// The two forms of a [`Name`]: which one a name takes is decided by
/// its length alone (at most [`INLINE_LEN`] canonical bytes is
/// `Inline`).
#[derive(Clone)]
enum Repr {
    /// The canonical bytes by value: the first `len` of `bytes`.
    Inline {
        len: u8,
        count: u8,
        bytes: [u8; INLINE_LEN],
    },
    /// The first `len` bytes of a shared canonical buffer.
    Shared { buf: Arc<[u8]>, len: u16, count: u8 },
}

/// Assembles a name on the stack from labels arriving in query order
/// and allocates at most once, in [`NameBuilder::finish`], after every
/// limit has been checked. Shared by [`Name::from_labels`] and the wire
/// decoder.
pub(crate) struct NameBuilder {
    /// Canonical bytes, filled from the back: each label lands in
    /// front of the one before it.
    buf: [u8; MAX_CANONICAL_LEN],
    start: usize,
    count: u8,
    wire_len: usize,
}

impl NameBuilder {
    pub(crate) fn new() -> Self {
        NameBuilder {
            buf: [0; MAX_CANONICAL_LEN],
            start: MAX_CANONICAL_LEN,
            count: 0,
            wire_len: 1,
        }
    }

    /// Add the next label to the right, lowercased. A label that takes
    /// the name over 255 octets is `NameTooLong` with the length so far;
    /// the builder keeps counting, so a caller that goes on pushing
    /// gets the total from `finish`.
    pub(crate) fn push(&mut self, label: &[u8]) -> Result<(), NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.len()));
        }
        match self.reserve(label.len() + 2, 1) {
            Some(slot) => {
                slot[0] = label.len() as u8;
                slot[label.len() + 1] = label.len() as u8;
                for (dst, src) in slot[1..].iter_mut().zip(label) {
                    *dst = src.to_ascii_lowercase();
                }
                Ok(())
            }
            None => Err(NameError::NameTooLong(self.wire_len)),
        }
    }

    /// Add all of `name`'s labels to the right.
    fn push_name(&mut self, name: &Name) {
        if let Some(slot) = self.reserve(name.as_bytes().len(), name.count()) {
            slot.copy_from_slice(name.as_bytes());
        }
    }

    /// Room for `len` more canonical bytes holding `count` labels, in
    /// front of what is already there; `None` once the name is too long.
    fn reserve(&mut self, len: usize, count: u8) -> Option<&mut [u8]> {
        self.wire_len += len - usize::from(count);
        if self.wire_len > MAX_NAME_LEN {
            return None;
        }
        let end = self.start;
        self.start -= len;
        self.count += count;
        Some(&mut self.buf[self.start..end])
    }

    pub(crate) fn finish(&self) -> Result<Name, NameError> {
        self.check()?;
        Ok(Name::from_canonical(&self.buf[self.start..], self.count))
    }

    /// [`NameBuilder::finish`] without an allocation: the name by value
    /// when it fits in place, else a view of the first of `seen` whose
    /// canonical bytes start with the built ones — the name itself or
    /// one of its ancestors — with the built label count; `None` when
    /// it is long and no such name was seen.
    pub(crate) fn finish_shared(&self, seen: &[Name]) -> Result<Option<Name>, NameError> {
        self.check()?;
        let bytes = &self.buf[self.start..];
        if bytes.len() <= INLINE_LEN {
            return Ok(Some(Name::from_canonical(bytes, self.count)));
        }
        let view = |name: &Name| {
            name.as_bytes()
                .starts_with(bytes)
                .then(|| name.prefix(bytes.len(), self.count))
        };
        Ok(seen.iter().find_map(view))
    }

    /// [`NameBuilder::finish`] over `name` (see [`Name::assign`]).
    pub(crate) fn finish_into(&self, name: &mut Name) -> Result<(), NameError> {
        self.check()?;
        name.assign(&self.buf[self.start..], self.count);
        Ok(())
    }

    fn check(&self) -> Result<(), NameError> {
        match self.wire_len {
            len if len > MAX_NAME_LEN => Err(NameError::NameTooLong(len)),
            _ => Ok(()),
        }
    }
}

impl Name {
    /// The root name (zero labels).
    pub const fn root() -> Self {
        Name(Repr::Inline {
            len: 0,
            count: 0,
            bytes: [0; INLINE_LEN],
        })
    }

    /// This name sharing no buffer: the one copy to take of a name that
    /// is kept while the buffer it may be a view of is written over (a
    /// decoded qname, DESIGN §7). A short name is a plain copy; a long
    /// one gets a buffer of its own.
    pub fn unshared(&self) -> Name {
        Name::from_canonical(self.as_bytes(), self.count())
    }

    /// A name holding `bytes`, which hold `count` labels in the
    /// canonical layout and respect the length limits: by value when
    /// they fit, else in a new buffer.
    fn from_canonical(bytes: &[u8], count: u8) -> Name {
        let mut held = [0; INLINE_LEN];
        match held.get_mut(..bytes.len()) {
            Some(prefix) => {
                prefix.copy_from_slice(bytes);
                Name(Repr::Inline {
                    len: bytes.len() as u8,
                    count,
                    bytes: held,
                })
            }
            None => Name(Repr::Shared {
                buf: Arc::from(bytes),
                len: bytes.len() as u16,
                count,
            }),
        }
    }

    /// The name made of this one's first `len` canonical bytes (`count`
    /// labels): by value when they fit, else a view of the same buffer.
    fn prefix(&self, len: usize, count: u8) -> Name {
        match &self.0 {
            Repr::Shared { buf, .. } if len > INLINE_LEN => Name(Repr::Shared {
                buf: buf.clone(),
                len: len as u16,
                count,
            }),
            _ => Name::from_canonical(&self.as_bytes()[..len], count),
        }
    }

    /// Become the name whose canonical bytes are `bytes` (`count`
    /// labels). A short name is copied in by value. A long one is
    /// written over this name's own buffer when nothing else holds it
    /// and it is big enough, else copied into a new one. A warm decode
    /// target therefore decodes without allocating, and a clone kept
    /// elsewhere never sees its bytes change.
    pub(crate) fn assign(&mut self, bytes: &[u8], count: u8) {
        if let Repr::Shared { buf, len, count: c } = &mut self.0 {
            let own = Arc::get_mut(buf).filter(|_| bytes.len() > INLINE_LEN);
            if let Some(prefix) = own.and_then(|buf| buf.get_mut(..bytes.len())) {
                prefix.copy_from_slice(bytes);
                (*len, *c) = (bytes.len() as u16, count);
                return;
            }
        }
        *self = Name::from_canonical(bytes, count);
    }

    /// The canonical bytes.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes, .. } => &bytes[..usize::from(*len)],
            Repr::Shared { buf, len, .. } => &buf[..usize::from(*len)],
        }
    }

    /// Labels in the name.
    fn count(&self) -> u8 {
        match self.0 {
            Repr::Inline { count, .. } | Repr::Shared { count, .. } => count,
        }
    }

    /// Build from raw label byte strings. Labels are lowercased.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut builder = NameBuilder::new();
        for l in labels {
            // A bad label further on outranks the length, which
            // `finish` reports in full.
            match builder.push(l.as_ref()) {
                Err(NameError::NameTooLong(_)) => {}
                pushed => pushed?,
            }
        }
        builder.finish()
    }

    /// True if this is the root name.
    pub fn is_root(&self) -> bool {
        self.count() == 0
    }

    /// Number of labels (root = 0).
    pub fn label_count(&self) -> usize {
        usize::from(self.count())
    }

    /// Iterate labels from leftmost (host) to rightmost (TLD).
    ///
    /// The iterator is double-ended and exact-size so wire encoding can
    /// walk suffixes right-to-left without materializing parent names.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &[u8]> + ExactSizeIterator + '_ {
        Labels {
            rest: self.as_bytes(),
            remaining: self.label_count(),
        }
    }

    /// The length of this name in uncompressed wire form, including the
    /// terminating root octet.
    pub fn wire_len(&self) -> usize {
        // Each label spends one octet more here than on the wire.
        1 + self.as_bytes().len() - self.label_count()
    }

    /// The parent name (one label removed from the left), or `None` for
    /// the root.
    pub fn parent(&self) -> Option<Name> {
        let leftmost = self.leftmost()?;
        let len = self.as_bytes().len() - (leftmost.len() + 2);
        Some(self.prefix(len, self.count() - 1))
    }

    /// The ancestor that keeps the rightmost `labels` labels (the name
    /// itself when that is all of them), or `None` if there are fewer.
    pub fn ancestor(&self, labels: usize) -> Option<Name> {
        if labels > self.label_count() {
            return None;
        }
        let bytes = self.as_bytes();
        let len = (0..labels).fold(0, |at, _| at + usize::from(bytes[at]) + 2);
        Some(self.prefix(len, labels as u8))
    }

    /// True if `self` is a subdomain of `other` (proper or equal).
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        // Both buffers parse into the same labels for as long as they
        // agree, so a byte prefix always ends on a label boundary.
        self.as_bytes().starts_with(other.as_bytes())
    }

    /// True if `self` is a *proper* subdomain (strictly below `other`).
    pub fn is_proper_subdomain_of(&self, other: &Name) -> bool {
        self.count() > other.count() && self.is_subdomain_of(other)
    }

    /// Prepend a label, producing `label.self`.
    pub fn child(&self, label: &[u8]) -> Result<Name, NameError> {
        let mut builder = NameBuilder::new();
        builder.push(label)?;
        builder.push_name(self);
        builder.finish()
    }

    /// Concatenate: `self` + `suffix` (e.g. relative name + origin).
    pub fn concat(&self, suffix: &Name) -> Result<Name, NameError> {
        let mut builder = NameBuilder::new();
        builder.push_name(self);
        builder.push_name(suffix);
        builder.finish()
    }

    /// The leftmost label, if any.
    pub fn leftmost(&self) -> Option<&[u8]> {
        self.labels().next()
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
        // The rightmost label comes first in both buffers, so this is
        // one forward walk; equal labels keep the two in step.
        let (mut a, mut b) = (self.as_bytes(), other.as_bytes());
        while let (Some((&la, ra)), Some((&lb, rb))) = (a.split_first(), b.split_first()) {
            let (la, lb) = (usize::from(la), usize::from(lb));
            match ra[..la].cmp(&rb[..lb]) {
                Ordering::Equal => (a, b) = (&ra[la + 1..], &rb[lb + 1..]),
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

/// [`Name::labels`]: query order reads the canonical bytes from the
/// back, so `next` peels the last label and `next_back` the first.
struct Labels<'a> {
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.rest.split_last()?;
        let (rest, label) = rest.split_at(rest.len() - usize::from(len));
        self.rest = &rest[..rest.len() - 1];
        self.remaining -= 1;
        Some(label)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl DoubleEndedIterator for Labels<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let (&len, rest) = self.rest.split_first()?;
        let (label, rest) = rest.split_at(usize::from(len));
        self.rest = &rest[1..];
        self.remaining -= 1;
        Some(label)
    }
}

impl ExactSizeIterator for Labels<'_> {}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
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
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
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
        Name::from_labels(presentation_labels(s)?)
    }
}

/// Split presentation format into raw labels, resolving escapes; `"."`
/// and `""` are the root.
fn presentation_labels(s: &str) -> Result<Vec<Vec<u8>>, NameError> {
    let mut labels: Vec<Vec<u8>> = Vec::new();
    if s == "." {
        return Ok(labels);
    }
    let bytes = s.as_bytes();
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
    Ok(labels)
}

/// `Name` as it was before the one-buffer layout: a vector of boxed
/// lowercase labels in query order, every operation spelled out label
/// by label. Kept as the oracle for the property in the test module
/// (and for nothing else).
#[cfg(test)]
pub(crate) mod reference {
    use super::{presentation_labels, NameError, MAX_LABEL_LEN, MAX_NAME_LEN};
    use std::cmp::Ordering;
    use std::fmt;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct Name {
        /// Labels in query order: `www`, `example`, `com`.
        pub labels: Vec<Box<[u8]>>,
    }

    impl Name {
        fn checked(labels: Vec<Box<[u8]>>) -> Result<Self, NameError> {
            let name = Name { labels };
            match name.wire_len() {
                wl if wl > MAX_NAME_LEN => Err(NameError::NameTooLong(wl)),
                _ => Ok(name),
            }
        }

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
            Name::checked(out)
        }

        pub fn parse(s: &str) -> Result<Self, NameError> {
            Name::from_labels(presentation_labels(s)?)
        }

        /// The decoder `WireReader::get_name` replaced, on the name
        /// starting at `pos`: the name and where the cursor ends up.
        pub fn decode(buf: &[u8], mut pos: usize) -> Option<(Self, usize)> {
            let mut labels: Vec<Vec<u8>> = Vec::new();
            let mut after = None;
            let mut hops = 0usize;
            let mut total_len = 1usize;
            loop {
                let len = *buf.get(pos)?;
                match len & 0xc0 {
                    0x00 if len == 0 => {
                        let name = Name::from_labels(labels).ok()?;
                        return Some((name, after.unwrap_or(pos + 1)));
                    }
                    0x00 => {
                        let l = len as usize;
                        total_len += 1 + l;
                        if total_len > MAX_NAME_LEN {
                            return None;
                        }
                        labels.push(buf.get(pos + 1..pos + 1 + l)?.to_vec());
                        pos += 1 + l;
                    }
                    0xc0 => {
                        let target = (((len & 0x3f) as usize) << 8) | *buf.get(pos + 1)? as usize;
                        hops += 1;
                        if target >= pos || hops > 64 {
                            return None;
                        }
                        after.get_or_insert(pos + 2);
                        pos = target;
                    }
                    _ => return None,
                }
            }
        }

        pub fn wire_len(&self) -> usize {
            1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
        }

        pub fn parent(&self) -> Option<Name> {
            let (_, rest) = self.labels.split_first()?;
            Some(Name {
                labels: rest.to_vec(),
            })
        }

        pub fn is_subdomain_of(&self, other: &Name) -> bool {
            self.labels
                .len()
                .checked_sub(other.labels.len())
                .is_some_and(|split| self.labels[split..] == other.labels[..])
        }

        pub fn is_proper_subdomain_of(&self, other: &Name) -> bool {
            self.labels.len() > other.labels.len() && self.is_subdomain_of(other)
        }

        pub fn child(&self, label: &[u8]) -> Result<Name, NameError> {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(label.len()));
            }
            let mut labels = vec![label.to_ascii_lowercase().into_boxed_slice()];
            labels.extend(self.labels.iter().cloned());
            Name::checked(labels)
        }

        pub fn concat(&self, suffix: &Name) -> Result<Name, NameError> {
            let mut labels = self.labels.clone();
            labels.extend(suffix.labels.iter().cloned());
            Name::checked(labels)
        }

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
    }

    impl fmt::Display for Name {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.labels.is_empty() {
                return write!(f, ".");
            }
            for label in &self.labels {
                super::Name::fmt_label(label, f)?;
                write!(f, ".")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Name as Old;
    use super::*;
    use crate::wire::{WireReader, WireWriter};
    use ldp_rng::check::{check, Gen};
    use std::collections::hash_map::DefaultHasher;

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
        assert!(n("*.example.com").is_wildcard());
        assert!(!n("www.example.com").is_wildcard());
        assert!(!Name::root().is_wildcard());
    }

    /// The example ordering of RFC 4034 §6.1, in full.
    const RFC4034_ORDER: [&str; 9] = [
        "example",
        "a.example",
        "yljkjljk.a.example",
        "Z.a.example",
        "zABC.a.EXAMPLE",
        "z.example",
        r"\001.z.example",
        "*.z.example",
        r"\200.z.example",
    ];

    #[test]
    fn canonical_ordering_rfc4034() {
        for w in RFC4034_ORDER.windows(2) {
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

    /// Octets that matter to some code path: both cases of a letter,
    /// the presentation-format specials, the wildcard, NUL and 0xFF.
    const OCTETS: &[u8] = b"aAbzZ09-.*\\\"@ \x00\x01\x7f\xc8\xff";

    fn gen_label(g: &mut Gen) -> Vec<u8> {
        let len = match g.below(8) {
            0 => 63,
            1 => g.size(1..=63),
            _ => g.size(1..=3),
        };
        (0..len)
            .map(|_| match g.below(8) {
                0 => g.u8(),
                _ => *g.pick(OCTETS),
            })
            .collect()
    }

    /// A label list in query order: short names over a small alphabet
    /// (so they collide and nest), names sharing a suffix from `pool`,
    /// the root, names either side of what a name holds by value, and
    /// names at and just past the 255-octet limit.
    fn gen_labels(g: &mut Gen, pool: &[Vec<Vec<u8>>]) -> Vec<Vec<u8>> {
        match g.below(9) {
            0 => vec![],
            1 => {
                // 3 × 63 + 61 fills 255 octets exactly; 62 overflows, and
                // what follows an overflow still counts: more length, or
                // a bad label, which outranks it.
                let last = *g.pick(&[60, 61, 62]);
                let mut labels = vec![vec![b'x'; 63]; 3];
                labels.insert(0, vec![b'Y'; last]);
                if last == 62 {
                    labels.extend(g.vec(0..=2, |g| vec![b'z'; *g.pick(&[0, 1, 64])]));
                }
                labels
            }
            2 => vec![vec![b'k']; *g.pick(&[126, 127, 128])],
            3 | 4 if !pool.is_empty() => {
                let mut labels = g.vec(0..=3, gen_label);
                let suffix = g.pick(pool);
                labels.extend_from_slice(&suffix[g.size(0..=suffix.len())..]);
                labels
            }
            5 => labels_near_the_inline_boundary(g),
            _ => g.vec(0..=5, gen_label),
        }
    }

    /// `name` as a view of a buffer of its own, whatever its length: the
    /// form a short name never takes outside the tests.
    fn shared_copy(name: &Name) -> Name {
        let bytes = name.as_bytes();
        Name(Repr::Shared {
            buf: Arc::from(bytes),
            len: bytes.len() as u16,
            count: name.count(),
        })
    }

    /// Where the shared buffer `name` views starts; `None` when it is
    /// held by value.
    fn buffer(name: &Name) -> Option<*const u8> {
        match &name.0 {
            Repr::Inline { .. } => None,
            Repr::Shared { buf, .. } => Some(buf.as_ptr()),
        }
    }

    /// Labels whose canonical bytes (each label's octets and two) total
    /// 27–32: both sides of the most a name holds by value.
    fn labels_near_the_inline_boundary(g: &mut Gen) -> Vec<Vec<u8>> {
        let len = INLINE_LEN - 2 + g.size(0..=5);
        let count = g.size(1..=(len / 3).min(6));
        let mut octets = vec![1; count];
        for _ in 0..len - 3 * count {
            octets[g.below(count as u64) as usize] += 1;
        }
        let label = |g: &mut Gen, n: usize| (0..n).map(|_| *g.pick(OCTETS)).collect();
        octets.into_iter().map(|n| label(g, n)).collect()
    }

    /// The form a name outside the tests takes: held by value exactly
    /// when it is short enough.
    fn assert_form(name: &Name) {
        let len = name.as_bytes().len();
        let inline = matches!(name.0, Repr::Inline { .. });
        assert_eq!(inline, len <= INLINE_LEN, "{name}: {len} bytes");
    }

    /// Both implementations built from the same labels; `None` when
    /// both refuse them (with the same error).
    fn build(labels: &[Vec<u8>]) -> Option<(Name, Old)> {
        let (new, old) = (Name::from_labels(labels), Old::from_labels(labels));
        assert_eq!(new.as_ref().err(), old.as_ref().err(), "{labels:?}");
        Some((new.ok()?, old.ok()?))
    }

    fn hash_of(name: &Name) -> u64 {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        h.finish()
    }

    /// Every observation of one name agrees with the reference.
    fn assert_same(new: &Name, old: &Old) {
        let labels: Vec<&[u8]> = old.labels.iter().map(|l| &**l).collect();
        assert_eq!(new.labels().collect::<Vec<_>>(), labels);
        let mut reversed = labels.clone();
        reversed.reverse();
        assert_eq!(new.labels().rev().collect::<Vec<_>>(), reversed);
        assert_eq!(new.labels().len(), labels.len());
        assert_eq!(new.label_count(), labels.len());
        assert_eq!(new.is_root(), labels.is_empty());
        assert_eq!(new.wire_len(), old.wire_len());
        assert_eq!(new.leftmost(), labels.first().copied());
        assert_eq!(new.is_wildcard(), labels.first() == Some(&&b"*"[..]));
        assert_eq!(new.to_string(), old.to_string());
        // A view and a freshly built copy of it are the same name.
        let fresh = Name::from_labels(&labels).unwrap();
        assert_eq!(*new, fresh);
        assert_eq!(hash_of(new), hash_of(&fresh));
        assert_eq!(new.cmp(&fresh), Ordering::Equal);
    }

    fn assert_same_result(new: Result<Name, NameError>, old: Result<Old, NameError>) {
        match (new, old) {
            (Ok(new), Ok(old)) => assert_same(&new, &old),
            (new, old) => assert_eq!(new.err(), old.err()),
        }
    }

    #[test]
    fn matches_the_label_vector_reference_on_generated_names() {
        check(256, |g| {
            let mut pool: Vec<Vec<Vec<u8>>> = RFC4034_ORDER
                .iter()
                .map(|s| presentation_labels(s).unwrap())
                .collect();
            let mut names: Vec<(Name, Old)> = Vec::new();
            for _ in 0..g.size(2..=8) {
                let labels = gen_labels(g, &pool);
                if let Some(pair) = build(&labels) {
                    names.push(pair);
                    pool.push(labels);
                }
            }
            for (new, old) in &names {
                assert_same(new, old);
                // Labels taken from both ends at once meet in the middle.
                let mut it = new.labels();
                let (mut front, mut back) = (0, old.labels.len());
                while front < back {
                    assert_eq!(it.len(), back - front);
                    if g.bool() {
                        assert_eq!(it.next(), Some(&*old.labels[front]));
                        front += 1;
                    } else {
                        back -= 1;
                        assert_eq!(it.next_back(), Some(&*old.labels[back]));
                    }
                }
                assert_eq!((it.next(), it.next_back()), (None, None));
                // The parent chain, and each ancestor reached directly.
                let (mut np, mut op) = (new.clone(), old.clone());
                loop {
                    let kept = op.labels.len();
                    assert_same(&new.ancestor(kept).unwrap(), &op);
                    assert!(new.is_subdomain_of(&np));
                    let (n, o) = (np.parent(), op.parent());
                    assert_eq!(n.is_some(), o.is_some(), "parent of {op}");
                    let (Some(n), Some(o)) = (n, o) else {
                        break;
                    };
                    assert_same(&n, &o);
                    (np, op) = (n, o);
                }
                assert_eq!(new.ancestor(old.labels.len() + 1), None);
                let label = gen_label(g);
                assert_same_result(new.child(&label), old.child(&label));
                // Presentation format round-trips, whatever the case.
                let text = old.to_string();
                assert_same(&text.parse().unwrap(), old);
                assert_same(&text.to_ascii_uppercase().parse().unwrap(), old);
            }
            for (a, old_a) in &names {
                for (b, old_b) in &names {
                    assert_eq!(a.cmp(b), old_a.canonical_cmp(old_b), "{a} cmp {b}");
                    assert_eq!(a == b, old_a == old_b, "{a} == {b}");
                    if a == b {
                        assert_eq!(hash_of(a), hash_of(b), "{a}");
                    }
                    assert_eq!(
                        a.is_subdomain_of(b),
                        old_a.is_subdomain_of(old_b),
                        "{a} under {b}"
                    );
                    assert_eq!(
                        a.is_proper_subdomain_of(b),
                        old_a.is_proper_subdomain_of(old_b),
                        "{a} properly under {b}"
                    );
                    assert_same_result(a.concat(b), old_a.concat(old_b));
                }
            }
            // Wire form: a compressing and a plain writer, then the raw
            // mixed-case labels as a sender would put them.
            let mut compressed = WireWriter::new();
            let mut plain = WireWriter::new_uncompressed();
            let mut raw = Vec::new();
            for (new, _) in &names {
                compressed.put_name(new);
                plain.put_name(new);
            }
            for labels in &pool[RFC4034_ORDER.len()..] {
                for label in labels {
                    raw.push(label.len() as u8);
                    raw.extend_from_slice(label);
                }
                raw.push(0);
            }
            assert_eq!(
                plain.len(),
                names.iter().map(|(n, _)| n.wire_len()).sum::<usize>()
            );
            for buf in [compressed.into_bytes(), plain.into_bytes(), raw] {
                let mut r = WireReader::new(&buf);
                for (_, old) in &names {
                    let (want, after) = Old::decode(&buf, r.position()).unwrap();
                    assert_eq!(want, *old);
                    assert_same(&r.get_name().unwrap(), old);
                    assert_eq!(r.position(), after);
                }
                assert_eq!(r.remaining(), 0);
            }
        });
    }

    /// A name is 32 bytes, and holds by value all of them that its tag,
    /// length and label count leave: a type that grows fails here
    /// before it moves a benchmark's heap.
    #[test]
    fn a_name_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Name>(), 32);
        assert_eq!(INLINE_LEN, 32 - 3);
    }

    /// Names of 27–32 canonical bytes, on either side of what a name
    /// holds by value, against the reference: every observation, the
    /// parent chain and every ancestor (a long name's short ancestors
    /// are held by value, its long ones are views), and `Eq`, `Ord` and
    /// `Hash` between a name and a view of a shared buffer holding the
    /// same bytes — a form a short name never takes otherwise, so no
    /// operation may tell the two apart. Then `assign` of each name's
    /// bytes over each other one, in its own form or as a view of a
    /// buffer, with or without a clone kept: the result is the reference name
    /// in its proper form, the clone is unchanged, and a long name is
    /// written into a buffer it fits when nothing else holds it.
    #[test]
    fn names_either_side_of_the_inline_boundary_match_the_reference() {
        check(256, |g| {
            let names: Vec<(Name, Old)> = (0..g.size(2..=6))
                .filter_map(|_| build(&labels_near_the_inline_boundary(g)))
                .collect();
            for (new, old) in &names {
                assert_form(new);
                let shared = shared_copy(new);
                for name in [new, &shared] {
                    assert_same(name, old);
                    let (mut np, mut op) = (name.clone(), old.clone());
                    while let (Some(n), Some(o)) = (np.parent(), op.parent()) {
                        assert_same(&n, &o);
                        assert_form(&n);
                        (np, op) = (n, o);
                    }
                    assert!(np.is_root() && op.labels.is_empty());
                    for kept in 0..=old.labels.len() {
                        let ancestor = name.ancestor(kept).unwrap();
                        let want = Old {
                            labels: old.labels[old.labels.len() - kept..].to_vec(),
                        };
                        assert_same(&ancestor, &want);
                        if kept < old.labels.len() {
                            assert_form(&ancestor);
                        }
                    }
                }
            }
            for (a, old_a) in &names {
                for (b, old_b) in &names {
                    let (shared_a, shared_b) = (shared_copy(a), shared_copy(b));
                    for (x, y) in [(a, &shared_b), (&shared_a, b), (&shared_a, &shared_b)] {
                        assert_eq!(x.cmp(y), old_a.canonical_cmp(old_b), "{x} cmp {y}");
                        assert_eq!(x == y, old_a == old_b, "{x} == {y}");
                        if x == y {
                            assert_eq!(hash_of(x), hash_of(y), "{x}");
                        }
                    }
                }
            }
            for (target, _) in &names {
                for (source, old) in &names {
                    let bytes = source.as_bytes();
                    for keep_clone in [false, true] {
                        for mut name in [target.unshared(), shared_copy(target)] {
                            let kept = keep_clone.then(|| name.clone());
                            let before = buffer(&name);
                            let fits = target.as_bytes().len() >= bytes.len();
                            name.assign(bytes, source.count());
                            assert_same(&name, old);
                            assert_form(&name);
                            if let Some(kept) = kept {
                                assert_eq!(kept, *target);
                            } else if before.is_some() && fits && bytes.len() > INLINE_LEN {
                                assert_eq!(buffer(&name), before, "{target} := {source}");
                            }
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn rfc4034_example_sorts_like_the_reference() {
        let mut new: Vec<Name> = RFC4034_ORDER.iter().rev().map(|s| n(s)).collect();
        let mut old: Vec<Old> = RFC4034_ORDER
            .iter()
            .rev()
            .map(|s| Old::parse(s).unwrap())
            .collect();
        new.sort();
        old.sort_by(Old::canonical_cmp);
        for ((new, old), text) in new.iter().zip(&old).zip(RFC4034_ORDER) {
            assert_same(new, old);
            assert_eq!(*new, n(text));
        }
    }
}
