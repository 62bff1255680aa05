//! The outstanding-request table: in-flight query aggregation.
//!
//! When a lookup misses the cache but an upstream resolution for the
//! same (qname, qtype) is already in flight, the new request *joins*
//! the in-flight entry instead of launching a duplicate resolution.
//! When the single upstream answer lands, it fans out to every waiter.
//! Requests served this way are *delayed hits*: cheaper than a full
//! miss but slower than a cache hit, and per-waiter arrival times are
//! recorded so each one's extra latency is accountable.
//!
//! The table is generic over the waiter payload `W` (whatever the
//! resolver needs to answer a client: source address, original query,
//! …). Keys are kept in an ordered map so iteration order — and thus
//! any transcript derived from it — is deterministic
//! (`clippy::disallowed_types`).

use std::collections::BTreeMap;

use dns_wire::{Name, RecordType};

/// One waiter parked on an in-flight resolution.
#[derive(Debug, Clone)]
pub struct WaiterSlot<W> {
    /// When this waiter arrived (seconds, same epoch as the caller's
    /// clock) — the fan-out subtracts this from the completion time to
    /// charge each waiter exactly the delay it actually experienced.
    pub arrived: f64,
    /// Caller payload needed to deliver the answer.
    pub waiter: W,
}

#[derive(Debug)]
struct Inflight<W> {
    /// Opaque caller token identifying the in-flight resolution (the
    /// resolver's task id), so completions can be routed back.
    token: u64,
    /// When the lead miss launched the resolution.
    started: f64,
    /// The lead waiter, held inline: a resolution nobody joins
    /// allocates nothing for its waiters. `None` for a prefetch.
    lead: Option<WaiterSlot<W>>,
    /// Coalesced joiners, in arrival order.
    joiners: Vec<WaiterSlot<W>>,
}

/// A completed resolution, returned by [`OutstandingTable::complete`].
#[derive(Debug)]
pub struct Completed<W> {
    /// The token the resolution was begun with.
    pub token: u64,
    /// When the lead miss launched it.
    pub started: f64,
    /// The lead miss; `None` for a prefetch refresh (no client launched
    /// it).
    pub lead: Option<WaiterSlot<W>>,
    /// Everyone who coalesced onto it since, in arrival order.
    pub joiners: Vec<WaiterSlot<W>>,
}

impl<W> Completed<W> {
    /// Everyone owed an answer, lead first, in arrival order.
    pub fn waiters(&self) -> impl Iterator<Item = &WaiterSlot<W>> {
        self.lead.iter().chain(&self.joiners)
    }

    /// How many are owed an answer.
    pub fn len(&self) -> usize {
        usize::from(self.lead.is_some()) + self.joiners.len()
    }

    /// True if nobody is owed an answer (a prefetch nobody joined).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cumulative aggregation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutstandingStats {
    /// Resolutions launched (lead misses + prefetch refreshes).
    pub leads: u64,
    /// Requests that coalesced onto an already-in-flight resolution
    /// instead of launching their own (the delayed-hit count).
    pub coalesced: u64,
}

/// The in-flight aggregation table. See the module docs.
#[derive(Debug)]
pub struct OutstandingTable<W> {
    inflight: BTreeMap<(Name, u16), Inflight<W>>,
    stats: OutstandingStats,
}

impl<W> Default for OutstandingTable<W> {
    fn default() -> Self {
        OutstandingTable::new()
    }
}

impl<W> OutstandingTable<W> {
    /// An empty table.
    pub fn new() -> Self {
        OutstandingTable {
            inflight: BTreeMap::new(),
            stats: OutstandingStats::default(),
        }
    }

    fn key(name: &Name, qtype: RecordType) -> (Name, u16) {
        (name.clone(), qtype.to_u16())
    }

    /// True if a resolution for (name, qtype) is already in flight.
    pub fn contains(&self, name: &Name, qtype: RecordType) -> bool {
        self.inflight.contains_key(&(name.clone(), qtype.to_u16()))
    }

    /// Try to coalesce onto an in-flight resolution. Returns the
    /// waiter's position (1-based among joiners is position ≥ 1; the
    /// lead holds 0) if one was in flight, or `None` — in which case
    /// the caller is the lead miss and must launch the resolution and
    /// [`begin`](Self::begin) it. The waiter payload is returned back
    /// untouched on `None` so the caller keeps ownership.
    pub fn join(
        &mut self,
        name: &Name,
        qtype: RecordType,
        waiter: W,
        now: f64,
    ) -> Result<usize, W> {
        match self.inflight.get_mut(&Self::key(name, qtype)) {
            Some(f) => {
                f.joiners.push(WaiterSlot {
                    arrived: now,
                    waiter,
                });
                self.stats.coalesced += 1;
                Ok(usize::from(f.lead.is_some()) + f.joiners.len() - 1)
            }
            None => Err(waiter),
        }
    }

    /// Register a new in-flight resolution with its lead waiter. The
    /// caller must have gotten `Err` from [`join`](Self::join) first
    /// (beginning a key that is already in flight replaces it; callers
    /// uphold the one-resolution-per-key invariant).
    pub fn begin(&mut self, name: &Name, qtype: RecordType, token: u64, waiter: W, now: f64) {
        self.inflight.insert(
            Self::key(name, qtype),
            Inflight {
                token,
                started: now,
                lead: Some(WaiterSlot {
                    arrived: now,
                    waiter,
                }),
                joiners: Vec::new(),
            },
        );
        self.stats.leads += 1;
    }

    /// Register an in-flight *prefetch* resolution: no client waits on
    /// it, but its presence still dedups — a real miss arriving while
    /// the refresh is in flight joins it as a delayed hit.
    pub fn begin_prefetch(&mut self, name: &Name, qtype: RecordType, token: u64, now: f64) {
        self.inflight.insert(
            Self::key(name, qtype),
            Inflight {
                token,
                started: now,
                lead: None,
                joiners: Vec::new(),
            },
        );
        self.stats.leads += 1;
    }

    /// Complete (or abandon) the in-flight resolution for a key,
    /// handing back everyone owed an answer.
    pub fn complete(&mut self, name: &Name, qtype: RecordType) -> Option<Completed<W>> {
        let f = self.inflight.remove(&Self::key(name, qtype))?;
        Some(Completed {
            token: f.token,
            started: f.started,
            lead: f.lead,
            joiners: f.joiners,
        })
    }

    /// The token an in-flight key was begun with.
    pub fn token_of(&self, name: &Name, qtype: RecordType) -> Option<u64> {
        self.inflight
            .get(&(name.clone(), qtype.to_u16()))
            .map(|f| f.token)
    }

    /// Keys currently in flight.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> OutstandingStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn lead_then_joiners_fan_out_in_arrival_order() {
        let mut t: OutstandingTable<&'static str> = OutstandingTable::new();
        // First request: nothing in flight, caller becomes the lead.
        let lead = t.join(&n("x."), RecordType::A, "lead", 1.0);
        assert!(lead.is_err());
        t.begin(&n("x."), RecordType::A, 42, "lead", 1.0);
        // Two more arrive while the resolution is outstanding.
        assert_eq!(t.join(&n("x."), RecordType::A, "second", 1.5), Ok(1));
        assert_eq!(t.join(&n("x."), RecordType::A, "third", 2.0), Ok(2));
        assert_eq!(t.len(), 1, "one key in flight despite three requests");

        let done = t.complete(&n("x."), RecordType::A).unwrap();
        assert_eq!(done.token, 42);
        assert_eq!(done.started, 1.0);
        let who: Vec<_> = done.waiters().map(|w| w.waiter).collect();
        assert_eq!(who, ["lead", "second", "third"]);
        let arrived: Vec<_> = done.waiters().map(|w| w.arrived).collect();
        assert_eq!(arrived, [1.0, 1.5, 2.0]);
        assert!(t.is_empty());
        assert_eq!(
            t.stats(),
            OutstandingStats {
                leads: 1,
                coalesced: 2
            }
        );
    }

    #[test]
    fn distinct_qtypes_do_not_coalesce() {
        let mut t: OutstandingTable<u32> = OutstandingTable::new();
        t.begin(&n("x."), RecordType::A, 1, 10, 0.0);
        assert!(t.join(&n("x."), RecordType::AAAA, 11, 0.5).is_err());
        t.begin(&n("x."), RecordType::AAAA, 2, 11, 0.5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.token_of(&n("x."), RecordType::A), Some(1));
        assert_eq!(t.token_of(&n("x."), RecordType::AAAA), Some(2));
    }

    #[test]
    fn prefetch_has_no_waiters_but_dedups() {
        let mut t: OutstandingTable<&'static str> = OutstandingTable::new();
        t.begin_prefetch(&n("hot."), RecordType::A, 7, 5.0);
        assert!(t.contains(&n("hot."), RecordType::A));
        // A real miss arriving during the refresh becomes a delayed hit.
        assert_eq!(t.join(&n("hot."), RecordType::A, "late", 5.5), Ok(0));
        let done = t.complete(&n("hot."), RecordType::A).unwrap();
        assert!(done.lead.is_none());
        let who: Vec<_> = done.waiters().map(|w| w.waiter).collect();
        assert_eq!(who, ["late"]);
    }

    /// Whoever launched a resolution comes first and the rest in the
    /// order they joined, whether nobody, one or many joined — and for
    /// a prefetch, which nobody launched, the joiners alone, in order;
    /// `join` reports each one's place in that order.
    #[test]
    fn waiters_are_lead_first_then_arrival_order() {
        for joiners in [0, 1, 2, 7] {
            for prefetch in [false, true] {
                let mut t: OutstandingTable<u32> = OutstandingTable::new();
                let mut want = Vec::new();
                if prefetch {
                    t.begin_prefetch(&n("x."), RecordType::A, 9, 0.0);
                } else {
                    assert_eq!(t.join(&n("x."), RecordType::A, 100, 0.0), Err(100));
                    t.begin(&n("x."), RecordType::A, 9, 100, 0.0);
                    want.push((100, 0.0));
                }
                for i in 0..joiners {
                    let arrived = 1.0 + f64::from(i);
                    let place = t.join(&n("x."), RecordType::A, i, arrived);
                    assert_eq!(place, Ok(want.len()));
                    want.push((i, arrived));
                }
                let done = t.complete(&n("x."), RecordType::A).unwrap();
                assert_eq!(done.lead.is_none(), prefetch);
                assert_eq!(done.len(), want.len());
                assert_eq!(done.is_empty(), want.is_empty());
                let got: Vec<_> = done.waiters().map(|w| (w.waiter, w.arrived)).collect();
                assert_eq!(got, want, "{joiners} joiners, prefetch {prefetch}");
            }
        }
    }

    #[test]
    fn complete_unknown_key_is_none() {
        let mut t: OutstandingTable<()> = OutstandingTable::new();
        assert!(t.complete(&n("missing."), RecordType::A).is_none());
    }
}
