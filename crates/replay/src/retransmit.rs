//! Per-query UDP retransmission state for the sim replay client.
//!
//! UDP loss is silent — there is no `Closed` event to hang recovery
//! on, so lost queries need timer-driven retransmits. Each query gets
//! its own [`RetryBudget`] seeded from `(run seed, seq)`, which buys
//! two properties at once:
//!
//! - **determinism**: the retransmit schedule of query `seq` is a pure
//!   function of the run seed, independent of every other query, so a
//!   resumed run that re-executes the query from its original send
//!   deadline re-draws the identical chain;
//! - **checkpointability**: a fuzzy cut can carry each live query's
//!   budget position ([`BudgetSnapshot`]) on its `inflight` line.
//!
//! This module also owns the per-seq send/retry bookkeeping a v2
//! checkpoint needs to split counters into *committed* (completed
//! queries only) and *carried* (still in flight) parts: entries live
//! from first dispatch to completion and are dropped the moment the
//! query completes, so the sums over live entries are exactly the
//! in-flight contributions to the run counters.

use std::collections::BTreeMap;

use ldp_guard::{BudgetSnapshot, RetransmitConfig, RetryBudget};

/// Derive the retransmit-budget seed for one query: a SplitMix64-style
/// mix of the run-level seed and the seq, so per-query jitter streams
/// are decorrelated but reproducible.
fn derive_seed(seed: u64, seq: u64) -> u64 {
    seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Live per-query retransmission state: budgets plus send/retry
/// counts, keyed by seq, maintained from first dispatch to completion.
#[derive(Debug, Default)]
pub struct RetransmitState {
    budgets: BTreeMap<u64, RetryBudget>,
    sends: BTreeMap<u64, u32>,
    retx: BTreeMap<u64, u32>,
}

impl RetransmitState {
    /// Empty state (no query dispatched yet).
    pub fn new() -> Self {
        RetransmitState::default()
    }

    /// Record one send (initial dispatch, retransmit, or restart
    /// re-dispatch) of `seq`.
    pub fn note_send(&mut self, seq: u64) {
        *self.sends.entry(seq).or_insert(0) += 1;
    }

    /// Record one retry/retransmit of `seq` (a subset of its sends).
    pub fn note_retx(&mut self, seq: u64) {
        *self.retx.entry(seq).or_insert(0) += 1;
    }

    /// Draw the next retransmit delay (µs) for `seq` from its budget,
    /// creating the budget (seeded from `(seed, seq)`) on first use.
    /// `None` once the budget is exhausted — retransmission for this
    /// query is over, terminally.
    pub fn next_delay_us(&mut self, seq: u64, cfg: &RetransmitConfig, seed: u64) -> Option<u64> {
        self.budgets
            .entry(seq)
            .or_insert_with(|| {
                RetryBudget::new(
                    cfg.max_retx,
                    cfg.base_us,
                    cfg.cap_us,
                    derive_seed(seed, seq),
                )
            })
            .next_delay_us()
    }

    /// Snapshot of `seq`'s budget for a checkpoint `inflight` line
    /// (`None` if the query never armed one).
    pub fn budget_snapshot(&self, seq: u64) -> Option<BudgetSnapshot> {
        self.budgets.get(&seq).map(RetryBudget::snapshot)
    }

    /// Sends of `seq` so far (0 if never dispatched or completed).
    pub fn sends_of(&self, seq: u64) -> u32 {
        self.sends.get(&seq).copied().unwrap_or(0)
    }

    /// Retries/retransmits of `seq` so far.
    pub fn retx_of(&self, seq: u64) -> u32 {
        self.retx.get(&seq).copied().unwrap_or(0)
    }

    /// The query completed: drop all its state. After this the query
    /// contributes to *committed* counters only.
    pub fn complete(&mut self, seq: u64) {
        self.budgets.remove(&seq);
        self.sends.remove(&seq);
        self.retx.remove(&seq);
    }

    /// A querier crash kills the retransmit chains (their timers died
    /// with the process) but keeps the send/retry accounting — those
    /// packets really left the host. Restart re-dispatch re-arms
    /// fresh chains.
    pub fn drop_budgets(&mut self) {
        self.budgets.clear();
    }

    /// Seqs that have been sent at least once and not completed, in
    /// ascending order.
    pub fn live_seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.sends.keys().copied()
    }

    /// Total `(sends, retries)` carried by live (uncompleted) queries —
    /// the amounts a fuzzy cut subtracts from the run counters to get
    /// their committed values.
    pub fn live_totals(&self) -> (u64, u64) {
        let sends = self.sends.values().map(|&v| u64::from(v)).sum();
        let retx = self.retx.values().map(|&v| u64::from(v)).sum();
        (sends, retx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RetransmitConfig {
        RetransmitConfig {
            max_retx: 3,
            base_us: 1_000,
            cap_us: 8_000,
        }
    }

    #[test]
    fn per_seq_chains_are_independent_and_reproducible() {
        let mut a = RetransmitState::new();
        let mut b = RetransmitState::new();
        // Interleave draws differently across seqs: per-seq streams
        // must not care.
        let a7: Vec<_> = (0..3).map(|_| a.next_delay_us(7, &cfg(), 99)).collect();
        let _ = a.next_delay_us(8, &cfg(), 99);
        let _ = b.next_delay_us(8, &cfg(), 99);
        let b7: Vec<_> = (0..3).map(|_| b.next_delay_us(7, &cfg(), 99)).collect();
        assert_eq!(a7, b7);
        assert!(a7.iter().all(Option::is_some));
        assert_eq!(a.next_delay_us(7, &cfg(), 99), None, "budget exhausted");
    }

    #[test]
    fn live_totals_track_uncompleted_queries_only() {
        let mut s = RetransmitState::new();
        s.note_send(1);
        s.note_send(2);
        s.note_send(2);
        s.note_retx(2);
        assert_eq!(s.live_totals(), (3, 1));
        assert_eq!(s.live_seqs().collect::<Vec<_>>(), vec![1, 2]);
        s.complete(2);
        assert_eq!(s.live_totals(), (1, 0));
        assert_eq!(s.sends_of(2), 0);
    }

    #[test]
    fn crash_drops_budgets_but_keeps_accounting() {
        let mut s = RetransmitState::new();
        s.note_send(5);
        let first = s.next_delay_us(5, &cfg(), 42);
        assert!(first.is_some());
        assert!(s.budget_snapshot(5).is_some());
        s.drop_budgets();
        assert!(s.budget_snapshot(5).is_none());
        assert_eq!(s.sends_of(5), 1, "sends survive the crash");
        // A fresh chain after restart re-draws from the seed.
        assert_eq!(s.next_delay_us(5, &cfg(), 42), first);
    }
}
