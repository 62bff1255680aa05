//! The hot path: one owner's ring buffer and the record calls.

use crate::event::{Kind, RawEvent};
use crate::legacy;

/// Events per ring: 64 Ki events × 32 B = 2 MiB per recording owner.
/// When the ring is full the oldest events are overwritten — and
/// counted in [`Log::lost`] — so a drain returns the most recent window
/// (DESIGN.md §8 sizing).
pub const RING_CAP: usize = 1 << 16;

/// A drained recording: the events in record order (oldest first, at
/// most [`RING_CAP`]) and how many older ones the ring overwrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Log {
    /// The ring's contents, oldest first.
    pub events: Vec<RawEvent>,
    /// Events overwritten since the previous drain.
    pub lost: u64,
}

/// One owner's telemetry: the switch, the ring and the `lost` count.
/// A `Simulator` owns one (so a sharded run owns one per shard) and
/// lends it to host callbacks through their `Ctx`; whoever owns it
/// switches it on and drains it. Off by default, and an off recorder
/// never allocates: the ring is reserved on the first record while on.
#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    ring: Vec<RawEvent>,
    /// Overwrite cursor once the ring is full.
    head: usize,
    lost: u64,
    /// Switched on by [`legacy::set_enabled`]: hand events to its sink
    /// at [`Recorder::hand_off`].
    to_sink: bool,
}

impl Recorder {
    /// A recorder switched off (the same as `Recorder::default()`).
    pub const fn new() -> Self {
        Recorder {
            on: false,
            ring: Vec::new(),
            head: 0,
            lost: 0,
            to_sink: false,
        }
    }

    /// The recorder a simulator starts with: off, unless the process
    /// default that `benchmark/`'s adaptors set is on — then it records
    /// and hands its events over at every [`Recorder::hand_off`].
    pub fn from_default() -> Self {
        let on = legacy::default_on();
        Recorder {
            on,
            to_sink: on,
            ..Recorder::new()
        }
    }

    /// Turn recording on or off. Switching it yourself ends any
    /// hand-off [`Recorder::from_default`] arranged.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        self.to_sink = false;
    }

    /// Whether record calls record.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Record a `kind` event at virtual time `t_ns` (a no-op while
    /// off).
    #[inline]
    pub fn mark(&mut self, t_ns: u64, kind: Kind, a: u64, b: u64) {
        if self.on {
            self.push(RawEvent { t_ns, a, b, kind });
        }
    }

    fn push(&mut self, ev: RawEvent) {
        if self.ring.len() < RING_CAP {
            if self.ring.capacity() == 0 {
                self.ring.reserve_exact(RING_CAP);
            }
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) & (RING_CAP - 1);
            self.lost += 1;
        }
    }

    /// Take the ring's contents in record order and the `lost` count;
    /// both reset. The switch stays as it is.
    pub fn drain(&mut self) -> Log {
        let mut events = std::mem::take(&mut self.ring);
        let head = std::mem::take(&mut self.head).min(events.len());
        events.rotate_left(head);
        Log {
            events,
            lost: std::mem::take(&mut self.lost),
        }
    }

    /// The end of a run: a recorder [`Recorder::from_default`] switched
    /// on hands what it holds to `benchmark/`'s sink; any other keeps it
    /// for its owner's drain.
    pub fn hand_off(&mut self) {
        if self.to_sink {
            legacy::accept(self.drain());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Recorder {
        let mut rec = Recorder::new();
        rec.set_on(true);
        rec
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let mut rec = Recorder::new();
        rec.mark(1, Kind::QSend, 1, 0);
        assert_eq!(rec.drain(), Log::default());
        assert_eq!(rec.ring.capacity(), 0, "an off recorder never allocates");
    }

    #[test]
    fn record_drain_roundtrip_preserves_order_and_payload() {
        let mut rec = on();
        rec.mark(10, Kind::QSend, 1, 100);
        rec.mark(20, Kind::SimDeliver, 1, 5);
        let log = rec.drain();
        let evs = &log.events;
        assert_eq!((evs.len(), log.lost), (2, 0));
        assert_eq!(
            (evs[0].t_ns, evs[0].kind, evs[0].a, evs[0].b),
            (10, Kind::QSend, 1, 100)
        );
        assert_eq!((evs[1].kind, evs[1].b), (Kind::SimDeliver, 5));
        // Drain resets the ring, not the switch.
        assert!(rec.drain().events.is_empty());
        assert!(rec.is_on());
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut rec = on();
        for i in 0..(RING_CAP as u64 + 10) {
            rec.mark(i, Kind::QSend, 0, i);
        }
        let log = rec.drain();
        let evs = &log.events;
        assert_eq!(evs.len(), RING_CAP);
        // The oldest 10 were overwritten, counted, and the rest is
        // still chronological.
        assert_eq!(log.lost, 10);
        assert_eq!(evs[0].b, 10);
        assert_eq!(evs[RING_CAP - 1].b, RING_CAP as u64 + 9);
        assert!(evs.windows(2).all(|w| w[0].b < w[1].b));
        assert_eq!(rec.drain().lost, 0, "a drain resets the count");
    }
}
