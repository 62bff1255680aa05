//! # dns-zone
//!
//! Zone model for the LDplayer reproduction: master-file parsing and
//! generation, the canonical zone tree with delegation awareness,
//! authoritative lookup semantics (referrals, wildcards, CNAME chains,
//! NXDOMAIN/NODATA), split-horizon views keyed on query source address
//! (the paper's §2.4 hierarchy-emulation mechanism), and a synthetic
//! DNSSEC signer whose record sizes track the configured key sizes
//! (paper §5.1).

#![warn(missing_docs)]

pub mod catalog;
pub mod dnssec;
pub mod lookup;
pub mod master;
pub mod rrset;
pub mod tail;
pub mod view;
pub mod zone;

pub use catalog::Catalog;
pub use dnssec::{sign_zone, SignConfig, SignedZone};
pub use lookup::{lookup, lookup_into, lookup_walk_into, Answer, AnswerKind};
pub use master::{parse_records, parse_zone, write_zone, MasterError};
pub use rrset::RRset;
pub use tail::pick_tail;
pub use view::{ClientMatch, View, ViewSet};
pub use zone::{Node, Walk, Zone, ZoneError};
