//! Admission control on the querier's in-flight window.
//!
//! The replay engine must never let an overloaded sink stall the
//! clock: queries keep their trace-scheduled deadlines whatever the
//! network does. The controller therefore bounds the number of
//! in-flight queries and, when the window is full, *sheds* queries
//! that are already hopelessly late (recording their seqs so the
//! transcript and the `replay.shed` counter account for every dropped
//! query) instead of blocking the dispatch loop.

use std::collections::BTreeSet;

/// How far past its deadline a query may be before it is hopelessly
/// late (µs): sending it would only push every later query later
/// still, so it is shed instead. The default of
/// [`AdmissionConfig::max_lateness_us`], and the socket engine's
/// bound.
pub const MAX_LATENESS_US: u64 = 250_000;

/// Admission policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queries in flight at once. `0` disables admission
    /// control entirely (every offer admits).
    pub max_in_flight: usize,
    /// How far past its deadline a query may run while waiting for a
    /// slot before it is shed (µs).
    pub max_lateness_us: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_in_flight: 4096,
            max_lateness_us: MAX_LATENESS_US,
        }
    }
}

/// The verdict on one offered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A slot was granted; the caller must pair this with
    /// [`AdmissionController::complete`].
    Admit,
    /// The window is full but the query is still within its lateness
    /// allowance — re-offer after yielding; do not block.
    Busy,
    /// The window is full and the query is too late to be worth
    /// sending; its seq has been recorded as shed.
    Shed,
}

/// Bounded in-flight window with deadline-aware shedding.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    in_flight: usize,
    admitted: u64,
    /// Distinct seqs shed so far. A set: under overload every late
    /// offer checks it, and no per-query step may scan a table
    /// (DESIGN §7).
    shed: BTreeSet<u64>,
}

impl AdmissionController {
    /// A controller with an empty window.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            in_flight: 0,
            admitted: 0,
            shed: BTreeSet::new(),
        }
    }

    /// Offer query `seq` (deadline `deadline_us`, current time
    /// `now_us`) for dispatch.
    pub fn offer(&mut self, seq: u64, deadline_us: u64, now_us: u64) -> Admission {
        if self.cfg.max_in_flight == 0 || self.in_flight < self.cfg.max_in_flight {
            self.in_flight += 1;
            self.admitted += 1;
            return Admission::Admit;
        }
        if now_us > deadline_us.saturating_add(self.cfg.max_lateness_us) {
            // Shedding is idempotent per seq: a query re-offered after
            // a querier crash (its park timer died with the process)
            // must not be reported shed twice.
            self.shed.insert(seq);
            return Admission::Shed;
        }
        Admission::Busy
    }

    /// A previously admitted query finished (answered, timed out, or
    /// errored) — free its slot.
    pub fn complete(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Forget the whole in-flight window — a crashed querier's
    /// in-flight queries died with it. Only the live window is
    /// cleared: the shed history survives (and stays duplicate-free —
    /// re-offering a previously shed seq after the crash does not
    /// re-record it), while `admitted` keeps counting *grants*, so a
    /// query that is re-offered and re-admitted after the crash is
    /// counted once per grant, not once per distinct seq. Callers that
    /// park queries must re-offer them after calling this — in
    /// ascending seq order, so recovery is deterministic.
    pub fn reset_in_flight(&mut self) {
        self.in_flight = 0;
    }

    /// Total admission *grants* so far. A query re-offered after a
    /// crash ([`AdmissionController::reset_in_flight`]) is granted —
    /// and counted — again, so this can exceed the number of distinct
    /// admitted seqs.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Count of distinct shed queries.
    pub fn shed_count(&self) -> u64 {
        self.shed.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_in_flight: 2,
            max_lateness_us: 1_000,
        })
    }

    #[test]
    fn admits_until_window_full_then_busy() {
        let mut ac = tiny();
        assert_eq!(ac.offer(0, 100, 50), Admission::Admit);
        assert_eq!(ac.offer(1, 100, 50), Admission::Admit);
        assert_eq!(ac.in_flight, 2);
        // On time, window full: caller should yield and re-offer.
        assert_eq!(ac.offer(2, 100, 50), Admission::Busy);
        assert_eq!(ac.shed_count(), 0);
    }

    #[test]
    fn completion_frees_a_slot() {
        let mut ac = tiny();
        ac.offer(0, 100, 50);
        ac.offer(1, 100, 50);
        ac.complete();
        assert_eq!(ac.in_flight, 1);
        assert_eq!(ac.offer(2, 100, 50), Admission::Admit);
        assert_eq!(ac.admitted(), 3);
    }

    #[test]
    fn late_query_is_shed_and_recorded() {
        let mut ac = tiny();
        ac.offer(0, 100, 50);
        ac.offer(1, 100, 50);
        // deadline 100, allowance 1000: at t=1101 it's past the limit.
        assert_eq!(ac.offer(7, 100, 1_101), Admission::Shed);
        assert_eq!(ac.offer(8, 100, 2_000), Admission::Shed);
        assert_eq!(ac.shed, BTreeSet::from([7, 8]));
        assert_eq!(ac.shed_count(), 2);
        // Shedding never consumed a slot.
        assert_eq!(ac.in_flight, 2);
    }

    #[test]
    fn lateness_boundary_is_inclusive() {
        let mut ac = tiny();
        ac.offer(0, 100, 50);
        ac.offer(1, 100, 50);
        // Exactly deadline + allowance: still Busy, not shed.
        assert_eq!(ac.offer(2, 100, 1_100), Admission::Busy);
    }

    #[test]
    fn zero_window_disables_admission_control() {
        let mut ac = AdmissionController::new(AdmissionConfig {
            max_in_flight: 0,
            max_lateness_us: 0,
        });
        for seq in 0..10_000u64 {
            assert_eq!(ac.offer(seq, 0, u64::MAX), Admission::Admit);
        }
        assert_eq!(ac.shed_count(), 0);
        assert!(
            AdmissionConfig::default().max_in_flight > 0,
            "off is asked for: the default window is on"
        );
    }

    #[test]
    fn shed_history_is_idempotent_across_crash_reoffers() {
        let mut ac = tiny();
        ac.offer(0, 100, 50);
        ac.offer(1, 100, 50);
        assert_eq!(ac.offer(7, 100, 5_000), Admission::Shed);
        // Querier crashes; its window dies; the shed query is
        // re-offered on restart (still hopelessly late).
        ac.reset_in_flight();
        assert_eq!(ac.offer(0, 100, 6_000), Admission::Admit);
        assert_eq!(ac.offer(1, 100, 6_000), Admission::Admit);
        assert_eq!(ac.offer(7, 100, 6_000), Admission::Shed);
        assert_eq!(ac.shed, BTreeSet::from([7]), "one entry per distinct seq");
        assert_eq!(ac.shed_count(), 1);
        // `admitted` counts grants: 0 and 1 were each granted twice.
        assert_eq!(ac.admitted(), 4);
    }

    /// The post-crash path at overload scale: every shed seq is offered
    /// a second time. With the seqs in a `Vec` each late offer scanned
    /// all of them (2 × 10⁸ comparisons here); the count must come out
    /// the same.
    #[test]
    fn reoffering_twenty_thousand_shed_seqs_counts_each_once() {
        let mut ac = tiny();
        ac.offer(0, 100, 50);
        ac.offer(1, 100, 50);
        for round in 0..2 {
            for seq in 2..20_002u64 {
                assert_eq!(ac.offer(seq, 100, 10_000), Admission::Shed, "{round}");
            }
            ac.reset_in_flight();
            ac.offer(0, 100, 50);
            ac.offer(1, 100, 50);
        }
        assert_eq!(ac.shed_count(), 20_000);
    }

    #[test]
    fn crash_recovery_reoffer_in_seq_order_is_deterministic() {
        let mut ac = tiny();
        ac.offer(3, 100, 50);
        ac.offer(5, 100, 50);
        assert_eq!(ac.offer(8, 100, 60), Admission::Busy, "parked");
        ac.reset_in_flight();
        // The contract: after a crash the caller re-offers the dead
        // window's queries and its parked queries in ascending seq
        // order. With a window of 2, the verdict sequence is pinned:
        // first two seqs admit, the third parks again.
        let verdicts: Vec<Admission> = [3u64, 5, 8].iter().map(|&s| ac.offer(s, 100, 70)).collect();
        assert_eq!(
            verdicts,
            vec![Admission::Admit, Admission::Admit, Admission::Busy]
        );
        assert_eq!(ac.in_flight, 2);
        assert_eq!(ac.shed_count(), 0);
    }

    #[test]
    fn complete_never_underflows() {
        let mut ac = tiny();
        ac.complete();
        assert_eq!(ac.in_flight, 0);
    }
}
