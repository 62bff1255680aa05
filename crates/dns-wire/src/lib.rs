//! # dns-wire
//!
//! A from-scratch implementation of the DNS wire protocol used throughout
//! the LDplayer reproduction: domain names with compression, all the
//! resource-record types seen in root and recursive traces, EDNS(0) with
//! the DO bit, full message encode/decode with UDP truncation semantics,
//! and RFC 7766 TCP framing.
//!
//! Everything round-trips: wire → struct → wire and presentation text →
//! struct → presentation text, so traces survive arbitrary mutation
//! pipelines losslessly (the property LDplayer's query mutator relies on,
//! paper §2.5).
//!
//! ```
//! use dns_wire::{Message, Name, RecordType};
//! let q = Message::query(0x1d7a, "www.iana.org".parse::<Name>().unwrap(), RecordType::A);
//! let bytes = q.encode();
//! assert_eq!(Message::decode(&bytes).unwrap(), q);
//! ```

#![warn(missing_docs)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod edns;
pub mod encoding;
pub mod framing;
pub mod message;
pub mod name;
pub mod rdata;
pub mod record;
pub mod scratch;
pub mod tail;
pub mod text;
pub mod types;
pub mod wire;

pub use edns::Edns;
pub use message::{peek_id, Flags, Message, Question};
pub use name::{Name, NameError};
pub use rdata::{RData, Rrsig, Soa};
pub use record::Record;
pub use scratch::EncodeScratch;
pub use tail::Tail;
pub use types::{Opcode, Rcode, RecordClass, RecordType, Transport};
pub use wire::{WireError, WireReader, WireWriter};
