//! The unit of a DNS trace: one observed message with its timestamp,
//! addressing and transport.

use std::net::SocketAddr;

use dns_wire::{Message, Name, RecordType, Transport};

/// One trace record: a DNS message seen at a capture point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Capture time, microseconds since the epoch (pcap resolution).
    pub time_us: u64,
    /// Source address (the client for queries).
    pub src: SocketAddr,
    /// Destination address (the server for queries).
    pub dst: SocketAddr,
    /// Transport the message was carried over.
    pub transport: Transport,
    /// The parsed DNS message.
    pub message: Message,
}

impl TraceEntry {
    /// Convenience constructor for a UDP query entry.
    pub fn query(
        time_us: u64,
        src: SocketAddr,
        dst: SocketAddr,
        id: u16,
        qname: Name,
        qtype: RecordType,
    ) -> Self {
        TraceEntry {
            time_us,
            src,
            dst,
            transport: Transport::Udp,
            message: Message::query(id, qname, qtype),
        }
    }

    /// True if this entry is a query (QR = 0).
    pub fn is_query(&self) -> bool {
        !self.message.flags.response
    }

    /// The query name, if the message has a question.
    pub fn qname(&self) -> Option<&Name> {
        self.message.question().map(|q| &q.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_constructor() {
        let e = TraceEntry::query(
            1_461_234_567_012_345,
            "192.0.2.1:5301".parse().unwrap(),
            "198.41.0.4:53".parse().unwrap(),
            7,
            "example.com".parse().unwrap(),
            RecordType::A,
        );
        assert!(e.is_query());
        assert_eq!(e.transport, Transport::Udp);
        assert_eq!(e.qname().unwrap().to_string(), "example.com.");
    }
}
