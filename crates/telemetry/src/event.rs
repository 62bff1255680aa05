//! Compact binary events and the closed set of event kinds.

/// Declares [`Kind`], its [`Kind::ALL`] table and [`Kind::name`] from
/// one list, so the three cannot disagree.
macro_rules! kinds {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// What an event is about: one closed set, known at compile
        /// time. 2 bytes in every event; the discriminant is the kind's
        /// position in [`Kind::ALL`], which is also its id in a
        /// [`crate::dump_binary`] table and its rank in
        /// [`crate::count_by_kind`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u16)]
        pub enum Kind {
            $($(#[$doc])* $variant,)*
        }

        impl Kind {
            /// Every kind, in id order.
            pub const ALL: &'static [Kind] = &[$(Kind::$variant),*];

            /// The kind's dotted name, as timelines and dumps print it.
            pub fn name(self) -> &'static str {
                match self {
                    $(Kind::$variant => $name,)*
                }
            }
        }
    };
}

// Ids are positions in this list, and `count_by_kind` and
// `dump_binary` order by id: keep the simulator, lifecycle and server
// kinds first and in this order, so printed tables stay as they were.
kinds! {
    /// Batched UDP/TCP deliveries (`b` = the batch).
    SimDeliver => "sim.deliver",
    /// Batched host-timer dispatches.
    SimHostTimer => "sim.host_timer",
    /// Batched connection-timer dispatches.
    SimConnTimer => "sim.conn_timer",
    /// A TCP side established (`b` = 1 on the client side).
    SimTcpEstablished => "sim.tcp.established",
    /// A connection killed abortively.
    SimTcpKilled => "sim.tcp.killed",
    /// A dial to a down or absent host refused.
    SimTcpRefused => "sim.tcp.refused",
    /// A datagram dropped by the fault injector (`b` = bytes).
    SimFaultDropUdp => "sim.fault.drop_udp",
    /// A TCP segment dropped by the fault injector (`b` = bytes).
    SimFaultDropSegment => "sim.fault.drop_segment",
    /// A trace query came due (`a` = its seq).
    QEnqueue => "q.enqueue",
    /// A query's first send (`b` = bytes).
    QSend => "q.send",
    /// A retry or retransmit.
    QRetx => "q.retx",
    /// A reply arrived for the query.
    QResponse => "q.response",
    /// The reply was matched and logged.
    QMatch => "q.match",
    /// Server span: decoding the query.
    SrvParse => "srv.parse",
    /// Server span: finding the answer.
    SrvLookup => "srv.lookup",
    /// Server span: encoding the reply.
    SrvEncode => "srv.encode",
    /// A UDP query answered (`b` = reply bytes).
    SrvQueryUdp => "srv.query.udp",
    /// A stream query answered (`b` = reply bytes).
    SrvQueryTcp => "srv.query.tcp",
    /// A reply dropped by response rate limiting.
    SrvRrlDrop => "srv.rrl.drop",
    /// A reply slipped (sent truncated) by response rate limiting.
    SrvRrlSlip => "srv.rrl.slip",
    /// A query shed by the admission window (`b` = µs late).
    ReplayShed => "replay.shed",
    /// A querier restarted (`a` = due now, `b` = re-armed).
    ReplayRestarted => "replay.restarted",
    /// A stub query reached the resolver.
    RsvStub => "rsv.stub",
    /// Answered from the cache.
    RsvCacheHit => "rsv.cache_hit",
    /// Answered by joining a resolution in flight (`b` = ns waited).
    RsvDelayedHit => "rsv.delayed_hit",
    /// A query sent upstream (`b` = server slot).
    RsvUpstream => "rsv.upstream",
    /// An upstream attempt timed out.
    RsvTimeout => "rsv.timeout",
    /// Moved on to the next server (`b` = retries so far).
    RsvFailover => "rsv.failover",
    /// A resolution failed.
    RsvServfail => "rsv.servfail",
    /// A resolution ended (`b` = rcode).
    RsvAnswer => "rsv.answer",
    /// Cache entries evicted by a fill (`b` = how many).
    RsvEvict => "rsv.evict",
    /// A hot entry refreshed ahead of expiry.
    RsvPrefetch => "rsv.prefetch",
}

/// What an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Op {
    /// Start of a span (paired with [`Op::SpanExit`] of the same kind).
    SpanEnter = 0,
    /// End of a span.
    SpanExit = 1,
    /// A counter increment; the delta rides in `b`.
    Counter = 2,
    /// A point-in-time lifecycle mark.
    Mark = 3,
}

impl Op {
    /// Short fixed-width label for timeline rendering.
    pub fn label(self) -> &'static str {
        match self {
            Op::SpanEnter => "enter",
            Op::SpanExit => "exit ",
            Op::Counter => "count",
            Op::Mark => "mark ",
        }
    }
}

/// One recorded event: 32 bytes, `Copy`, no pointers.
///
/// `a` is the lifecycle key — lifecycle events use the query sequence
/// number, so [`crate::stage_breakdown`] pairs a query's marks. `b` is
/// free payload (byte counts, attempt numbers, …) interpreted per kind
/// at drain time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEvent {
    /// Virtual timestamp, nanoseconds.
    pub t_ns: u64,
    /// Primary key (query seq / conn id / event ordinal).
    pub a: u64,
    /// Per-kind payload.
    pub b: u64,
    /// What the event is about.
    pub kind: Kind,
    /// Event operation.
    pub op: Op,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ids_are_positions_and_names_are_unique() {
        for (i, kind) in Kind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
        let mut names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Kind::ALL.len());
        assert_eq!(Kind::QSend.name(), "q.send");
    }

    #[test]
    fn raw_event_is_compact() {
        assert!(std::mem::size_of::<RawEvent>() <= 32);
    }
}
