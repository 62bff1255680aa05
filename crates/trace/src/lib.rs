//! # ldp-trace
//!
//! LDplayer's trace toolchain (paper §2.5, Figure 3): a from-scratch
//! libpcap reader/writer, the human-editable column-based plain-text
//! format, the length-prefixed internal binary message stream the replay
//! engine consumes, converters between all three, the query mutator for
//! what-if experiments, and Table 1-style trace statistics.
//!
//! ```
//! use ldp_trace::{TraceEntry, Mutator, Mutation};
//! use dns_wire::{RecordType, Transport};
//!
//! let mut trace = vec![TraceEntry::query(
//!     0, "10.0.0.1:999".parse().unwrap(), "10.0.0.2:53".parse().unwrap(),
//!     1, "example.com".parse().unwrap(), RecordType::A,
//! )];
//! // What if every query used TCP?
//! Mutator::new(vec![Mutation::SetTransport(Transport::Tcp)]).apply(&mut trace);
//! assert_eq!(trace[0].transport, Transport::Tcp);
//!
//! // Lossless binary round trip (the replay engine's input format).
//! let bin = ldp_trace::write_binary(&trace).unwrap();
//! assert_eq!(ldp_trace::parse_binary(&bin).unwrap(), trace);
//! ```

#![warn(missing_docs)]

pub mod binfmt;
pub mod entry;
pub mod mutate;
pub mod pcap;
pub mod stats;
mod textfmt;

pub use binfmt::{parse_binary, write_binary, BinError, BinReader};
pub use entry::TraceEntry;
pub use mutate::{Mutation, Mutator};
pub use pcap::{parse_pcap, write_pcap, PcapError};
pub use stats::TraceStats;
pub use textfmt::{parse_text, write_text, TextError};

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::RecordType;

    /// The full Figure 3 pipeline: pcap → text → (edit) → binary.
    #[test]
    fn figure3_pipeline_pcap_text_binary() {
        let entries: Vec<TraceEntry> = (0..20)
            .map(|i| {
                TraceEntry::query(
                    1_461_000_000_000_000 + i * 2500,
                    format!("192.0.2.{}:5301", 1 + i % 100).parse().unwrap(),
                    "198.41.0.4:53".parse().unwrap(),
                    i as u16,
                    format!("name{i}.example.com").parse().unwrap(),
                    RecordType::A,
                )
            })
            .collect();

        // pcap → entries.
        let (pcap_bytes, _) = write_pcap(&entries);
        let (from_pcap, skipped) = parse_pcap(&pcap_bytes).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(from_pcap, entries);

        // entries → text → entries (queries are lossless through text).
        let text = write_text(&from_pcap);
        let from_text = parse_text(&text).unwrap();
        assert_eq!(from_text.len(), entries.len());
        assert_eq!(from_text[3].qname(), entries[3].qname());

        // edit in text stage: all TCP.
        let edited = text.replace(" UDP ", " TCP ");
        let mutated = parse_text(&edited).unwrap();
        assert!(mutated
            .iter()
            .all(|e| e.transport == dns_wire::Transport::Tcp));

        // entries → binary → entries.
        let bin = write_binary(&mutated).unwrap();
        let from_bin = parse_binary(&bin).unwrap();
        mutated
            .iter()
            .zip(&from_bin)
            .for_each(|(a, b)| assert_eq!(a, b));
    }
}
