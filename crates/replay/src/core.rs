//! The replay core: what a replay *is*, whichever wire it sits on.
//!
//! The paper's querier is one algorithm — schedule at the trace
//! deadline, send, match, account, recover (§2.6, §3). This module owns
//! its state: the schedule ([`TimingTracker`]), one window over the
//! trace's seqs that says of each whether it is untouched, live or done
//! (with the monotone cursor it starts at), the running sums the live
//! queries contribute to the run counters, the checkpoint epoch, the
//! cadence grid checkpoints commit on ([`ReplayCore::next_tick_ns`])
//! and the one [`ReplayCore::cut`] that writes a checkpoint. Its
//! driver, [`crate::sim_replay`] on the simulator, owns the wire:
//! connections, timer tokens, pending tables keyed by what a reply
//! carries. It tells the core what happened and acts on the verdicts
//! and delays the core returns.
//!
//! Like `ldp-guard`, everything here is pure logic over explicit `now`
//! arguments: no clock, no simulator, no socket, no thread.
//!
//! A live query's slot exists from its first offer to its completion
//! and is the single source of its status. A slot whose query nothing
//! in this run will move again (given up, displaced from its pending
//! slot, lost to a crash) stays live: a cut still carries it, so a
//! resumed run re-executes it.
//!
//! The window is one ring of slots, indexed by `seq − cursor`, so every
//! per-query step is index arithmetic and, once the ring has grown to
//! the run's widest span of unfinished seqs, allocates nothing. A query
//! that is never answered pins the cursor, and the ring then spans
//! every seq offered since — as the done-set it replaced grew by every
//! later completion.

// Simulator path: no hash collection, no wall-clock type (DESIGN.md §7).
#![deny(clippy::disallowed_types)]
// Hot path: bad input is an error, never a panic (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::VecDeque;

use ldp_guard::{Checkpoint, InflightEntry, InflightStatus, RetransmitConfig};

use crate::timing::TimingTracker;

/// Where one seq of the window stands.
#[derive(Debug)]
enum Slot {
    /// Not offered yet, or forgotten (shed, or lost to a crash, before
    /// a send left).
    Open,
    Live(Live),
    /// Answered (by this run or the one it resumed from).
    Done,
}

/// One query between its first offer and its completion, inline in its
/// slot. A retry chain is its count — the `n`-th retransmit delay is
/// [`RetransmitConfig::delay_us`]`(seed, n)` — so recovery keeps no
/// state but counts.
#[derive(Debug)]
struct Live {
    status: InflightStatus,
    /// Sends so far.
    sends: u32,
    /// How many of the sends were retries or retransmits.
    retx: u32,
    /// Reconnect attempts spent by the connection-death retry chain.
    reconnects: u16,
    /// Retransmit delays drawn in the current lifecycle: the next is
    /// draw `drawn` of the query's chain.
    drawn: u16,
    /// When the current lifecycle's first send left (ns); a crash
    /// starts a new lifecycle.
    first_sent_ns: u64,
}

impl Live {
    fn new(status: InflightStatus) -> Self {
        Live {
            status,
            sends: 0,
            retx: 0,
            reconnects: 0,
            drawn: 0,
            first_sent_ns: 0,
        }
    }

    /// Nothing in this run will move the query again: its retry chain
    /// is over and the driver holds nothing for it.
    fn abandon(&mut self) {
        self.status = InflightStatus::InFlight;
        self.reconnects = 0;
    }
}

/// The retransmit-chain seed of one query: the run-level seed mixed
/// with the seq, so per-query jitter is decorrelated but a resumed run
/// that re-executes the query re-draws the identical chain.
fn derive_seed(seed: u64, seq: u64) -> u64 {
    seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Transport-agnostic replay state: schedule, the seq window, counters'
/// live share, epoch and checkpoint writer.
///
/// A done seq is never live again: the drivers ask
/// [`ReplayCore::is_done`] before they offer a seq, and the core
/// ignores a park or a send of one.
#[derive(Debug)]
pub struct ReplayCore {
    tracker: TimingTracker,
    /// The slot of every seq from `cursor` on: `window[i]` is seq
    /// `cursor + i`, the front is never `Done`, and a seq past the back
    /// is `Open`. Iteration order is seq order, the order of a
    /// checkpoint's `inflight` lines.
    window: VecDeque<Slot>,
    /// What the live entries contribute to the run's `sent` and
    /// `retries` counters — the part a cut carries instead of commits.
    live_sends: u64,
    live_retx: u64,
    /// The first seq not completed: everything below it is done — by
    /// this run, or by the one it resumed from.
    cursor: u64,
    epoch: u32,
}

impl ReplayCore {
    /// A fresh run on `tracker`'s schedule.
    pub fn new(tracker: TimingTracker) -> Self {
        ReplayCore {
            tracker,
            window: VecDeque::new(),
            live_sends: 0,
            live_retx: 0,
            cursor: 0,
            epoch: 0,
        }
    }

    /// Continue a checkpoint's lineage: its `epoch`, with every seq in
    /// `done` already completed.
    pub fn resume(tracker: TimingTracker, epoch: u32, done: impl IntoIterator<Item = u64>) -> Self {
        let mut core = ReplayCore::new(tracker);
        core.epoch = epoch;
        for seq in done {
            core.mark_done(seq);
        }
        core
    }

    /// Where `seq` sits in the window; `None` below the cursor.
    fn index(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.cursor)?).ok()
    }

    /// The slot of `seq`; `None` below the cursor (done) and past the
    /// window's back (open).
    fn slot(&self, seq: u64) -> Option<&Slot> {
        self.window.get(self.index(seq)?)
    }

    fn slot_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        let at = self.index(seq)?;
        self.window.get_mut(at)
    }

    /// The entry of `seq`, if it is live.
    fn live_mut(&mut self, seq: u64) -> Option<&mut Live> {
        match self.slot_mut(seq)? {
            Slot::Live(e) => Some(e),
            _ => None,
        }
    }

    /// The slot of `seq`, the window grown to hold it; `None` below the
    /// cursor.
    fn grow_to(&mut self, seq: u64) -> Option<&mut Slot> {
        let at = self.index(seq)?;
        if at >= self.window.len() {
            self.window.resize_with(at + 1, || Slot::Open);
        }
        self.window.get_mut(at)
    }

    /// Record `seq` as completed, keeping the cursor on the first seq
    /// that is not, and hand back its entry if it was live.
    fn mark_done(&mut self, seq: u64) -> Option<Live> {
        let slot = self.grow_to(seq)?;
        let was = std::mem::replace(slot, Slot::Done);
        while let Some(Slot::Done) = self.window.front() {
            self.window.pop_front();
            self.cursor += 1;
        }
        match was {
            Slot::Live(e) => Some(e),
            _ => None,
        }
    }

    /// The schedule: the one place a trace timestamp becomes a deadline.
    pub fn tracker(&self) -> &TimingTracker {
        &self.tracker
    }

    /// Whether `seq` has been answered (in this run or the one resumed
    /// from).
    pub fn is_done(&self, seq: u64) -> bool {
        seq < self.cursor || matches!(self.slot(seq), Some(Slot::Done))
    }

    /// Where `seq` stands, if it is live.
    pub fn status(&self, seq: u64) -> Option<InflightStatus> {
        match self.slot(seq)? {
            Slot::Live(e) => Some(e.status),
            _ => None,
        }
    }

    /// The entry of `seq`, made live with `status` if it was open;
    /// `None` if it is done.
    fn offer(&mut self, seq: u64, status: InflightStatus) -> Option<&mut Live> {
        let slot = self.grow_to(seq)?;
        if let Slot::Open = slot {
            *slot = Slot::Live(Live::new(status));
        }
        match slot {
            Slot::Live(e) => Some(e),
            _ => None,
        }
    }

    /// Admission said `Busy`: `seq` waits for a re-offer.
    pub fn park(&mut self, seq: u64) {
        if let Some(e) = self.offer(seq, InflightStatus::Parked) {
            e.status = InflightStatus::Parked;
        }
    }

    /// Admission shed `seq`. A query that never left is forgotten; one
    /// that did (before a crash) stays carried.
    pub fn shed(&mut self, seq: u64) {
        let Some(slot) = self.slot_mut(seq) else {
            return;
        };
        if let Slot::Live(e) = slot {
            e.abandon();
            if e.sends == 0 {
                *slot = Slot::Open;
            }
        }
    }

    /// One send of `seq` left at `now_ns`. `resend` marks a retry or
    /// retransmit within the current lifecycle; anything else starts
    /// the lifecycle the logged latency spans from.
    pub fn note_send(&mut self, seq: u64, now_ns: u64, resend: bool) {
        let Some(e) = self.offer(seq, InflightStatus::InFlight) else {
            return;
        };
        if e.status == InflightStatus::Parked {
            e.status = InflightStatus::InFlight;
        }
        if resend {
            e.retx += 1;
        } else {
            e.first_sent_ns = now_ns;
        }
        e.sends += 1;
        self.live_retx += u64::from(resend);
        self.live_sends += 1;
    }

    /// The delay (µs) before `seq`'s next UDP retransmit: the next draw
    /// of its own chain, seeded from `(seed, seq)`. `None` once the
    /// chain is exhausted — terminally, also past `u16::MAX` draws — or
    /// `seq` is not live.
    pub fn next_retx_delay_us(
        &mut self,
        seq: u64,
        cfg: &RetransmitConfig,
        seed: u64,
    ) -> Option<u64> {
        let e = self.live_mut(seq)?;
        let delay = cfg.delay_us(derive_seed(seed, seq), u32::from(e.drawn))?;
        e.drawn = e.drawn.checked_add(1)?;
        Some(delay)
    }

    /// The connection under `seq` died. `Some(n)`: this is its `n`-th
    /// reconnect attempt (1-based) and the driver re-sends it after the
    /// backoff for `n`. `None`: `max_reconnects` is spent and the query
    /// is given up.
    pub fn orphan(&mut self, seq: u64, max_reconnects: u16) -> Option<u16> {
        let e = self.live_mut(seq)?;
        if e.reconnects >= max_reconnects {
            e.abandon();
            return None;
        }
        e.status = InflightStatus::Retrying;
        e.reconnects += 1;
        Some(e.reconnects)
    }

    /// The driver no longer holds anything for `seq` (a later query
    /// took its pending slot over).
    pub fn abandon(&mut self, seq: u64) {
        if let Some(e) = self.live_mut(seq) {
            e.abandon();
        }
    }

    /// `seq` was answered.
    /// Returns when its current lifecycle's first send left, if it was
    /// live.
    pub fn complete(&mut self, seq: u64) -> Option<u64> {
        let e = self.mark_done(seq)?;
        self.live_sends -= u64::from(e.sends);
        self.live_retx -= u64::from(e.retx);
        Some(e.first_sent_ns)
    }

    /// The process died: timers, pending slots, parked offers and retry
    /// chains are gone. Queries that were sent keep their send counts
    /// (those packets really left) and stay carried until a restart
    /// re-dispatches them; queries that never left are forgotten.
    pub fn crash(&mut self) {
        for slot in &mut self.window {
            let Slot::Live(e) = slot else {
                continue;
            };
            if e.sends == 0 {
                *slot = Slot::Open;
                continue;
            }
            e.abandon();
            e.drawn = 0;
        }
    }

    /// The checkpoint policy: a cut commits at every instant of the
    /// grid `origin + k·cadence`, whatever is live. This is the first
    /// such instant (k ≥ 1) strictly after `now_ns`. Anchoring ticks to
    /// the grid, not to when a driver happened to arm them, makes an
    /// original run and its resumed continuation commit at the same
    /// instants.
    pub fn next_tick_ns(origin_ns: u64, cadence_ns: u64, now_ns: u64) -> u64 {
        let cadence_ns = cadence_ns.max(1);
        let k = now_ns.saturating_sub(origin_ns) / cadence_ns + 1;
        origin_ns.saturating_add(k.saturating_mul(cadence_ns))
    }

    /// Write the checkpoint of this instant, whatever is live, but for
    /// its `records`: the completed queries' lines are the driver's to
    /// carry over from its previous commit and extend.
    ///
    /// `counters` are the driver's run totals; `sent` and `retries` are
    /// committed down to completed work (the live queries' share rides
    /// on their `inflight` lines instead, so a resumed run that
    /// re-executes them counts them exactly once). `deadline_ns` maps a
    /// live seq to its original send deadline.
    pub fn cut(
        &mut self,
        taken_ns: u64,
        counters: &[(&str, u64)],
        deadline_ns: impl Fn(u64) -> u64,
    ) -> Checkpoint {
        self.epoch += 1;
        // The written cursor also passes over live queries (their
        // `inflight` lines carry them), which may yet be shed, so this
        // walk is redone at every cut: up to the window's first open
        // seq, not over the trace.
        let passed = self.window.iter().position(|s| matches!(s, Slot::Open));
        let cursor = self.cursor + passed.unwrap_or(self.window.len()) as u64;
        let counters = counters
            .iter()
            .map(|&(name, total)| {
                let live = match name {
                    "sent" => self.live_sends,
                    "retries" => self.live_retx,
                    _ => 0,
                };
                (name.to_string(), total.saturating_sub(live))
            })
            .collect();
        let live = self
            .window
            .iter()
            .zip(self.cursor..)
            .filter_map(|(slot, seq)| match slot {
                Slot::Live(e) => Some((seq, e)),
                _ => None,
            });
        let inflight = live
            .map(|(seq, e)| InflightEntry {
                seq,
                deadline_ns: deadline_ns(seq),
                sends: e.sends,
                retx: e.retx,
                status: e.status,
            })
            .collect();
        Checkpoint {
            epoch: self.epoch,
            taken_ns,
            cursor,
            counters,
            records: Vec::new(),
            inflight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{Effect, RefClient, Verdict};
    use super::*;
    use ldp_rng::check::{check, Gen};
    use std::collections::BTreeMap;

    fn tracker() -> TimingTracker {
        TimingTracker::start(0, 0)
    }

    fn cfg() -> RetransmitConfig {
        RetransmitConfig {
            max_retx: 3,
            base_us: 1_000,
            cap_us: 8_000,
        }
    }

    #[test]
    fn per_seq_chains_are_independent_and_reproducible() {
        let mut a = ReplayCore::new(tracker());
        let mut b = ReplayCore::new(tracker());
        for core in [&mut a, &mut b] {
            core.note_send(7, 0, false);
            core.note_send(8, 0, false);
        }
        // Interleave draws differently across seqs: per-seq chains
        // must not care.
        let a7: Vec<_> = (0..3)
            .map(|_| a.next_retx_delay_us(7, &cfg(), 99))
            .collect();
        let _ = a.next_retx_delay_us(8, &cfg(), 99);
        let _ = b.next_retx_delay_us(8, &cfg(), 99);
        let b7: Vec<_> = (0..3)
            .map(|_| b.next_retx_delay_us(7, &cfg(), 99))
            .collect();
        assert_eq!(a7, b7);
        assert!(a7.iter().all(Option::is_some));
        assert_eq!(
            a.next_retx_delay_us(7, &cfg(), 99),
            None,
            "budget exhausted"
        );
        assert_eq!(a.next_retx_delay_us(9, &cfg(), 99), None, "not live");
    }

    #[test]
    fn live_sums_track_uncompleted_queries_only() {
        let mut core = ReplayCore::new(tracker());
        core.note_send(1, 0, false);
        core.note_send(2, 0, false);
        core.note_send(2, 5, true);
        let totals = [("sent", 3), ("retries", 1)];
        let cp = core.cut(9, &totals, |_| 0);
        assert_eq!(
            (cp.counter("sent"), cp.counter("retries")),
            (Some(0), Some(0))
        );
        let carried: Vec<_> = cp
            .inflight
            .iter()
            .map(|e| (e.seq, e.sends, e.retx))
            .collect();
        assert_eq!(carried, vec![(1, 1, 0), (2, 2, 1)]);
        assert_eq!(core.complete(2), Some(0), "spans from the first send");
        let cp = core.cut(9, &totals, |_| 0);
        assert_eq!(
            (cp.counter("sent"), cp.counter("retries")),
            (Some(2), Some(1))
        );
        assert_eq!(cp.inflight.len(), 1);
    }

    #[test]
    fn crash_drops_budgets_but_keeps_accounting() {
        let mut core = ReplayCore::new(tracker());
        core.note_send(5, 0, false);
        core.park(6);
        let chain = |core: &mut ReplayCore| -> Vec<_> {
            (0..4)
                .map(|_| core.next_retx_delay_us(5, &cfg(), 42))
                .collect()
        };
        let first = chain(&mut core);
        assert!(first[..3].iter().all(Option::is_some) && first[3].is_none());
        core.crash();
        let cp = core.cut(1, &[("sent", 1)], |_| 0);
        assert_eq!(cp.inflight.len(), 1, "the parked offer is forgotten");
        let e = cp.inflight[0];
        assert_eq!((e.seq, e.sends), (5, 1), "sends survive");
        // A fresh chain after restart re-draws from the seed, whole.
        assert_eq!(chain(&mut core), first);
    }

    #[test]
    fn resumed_cursor_and_done_set_decide_what_is_done() {
        let mut core = ReplayCore::resume(tracker(), 4, [0, 1, 2, 5, 3]);
        assert!(core.is_done(2) && core.is_done(3) && core.is_done(5));
        assert!(!core.is_done(4) && !core.is_done(6));
        core.complete(4);
        let cp = core.cut(0, &[], |_| 0);
        assert_eq!((cp.epoch, cp.cursor), (5, 6));
    }

    /// A query that is never answered pins the cursor, and from then on
    /// the window holds a slot for every later seq: a slot stays well
    /// under the trace entry it stands for.
    #[test]
    fn a_slot_is_at_most_24_bytes() {
        let size = std::mem::size_of::<Slot>();
        assert!(size <= 24, "a slot is {size} bytes");
    }

    #[test]
    fn ticks_sit_on_the_grid_strictly_after_now() {
        let next = ReplayCore::next_tick_ns;
        assert_eq!(next(0, 250, 0), 250, "k starts at 1");
        assert_eq!(next(0, 250, 249), 250);
        assert_eq!(next(0, 250, 250), 500, "strictly after a tick");
        assert_eq!(next(100, 250, 7), 350, "before the origin: its first tick");
        assert_eq!(next(100, 250, 1_000), 1_100, "anchored, not drifting");
        assert_eq!(next(0, 0, 5), 6, "a zero cadence cannot stall the grid");
        assert_eq!(next(0, u64::MAX, u64::MAX), u64::MAX, "saturates");
    }

    pub(super) fn is_tcp(seq: u64) -> bool {
        seq.is_multiple_of(3)
    }

    pub(super) fn deadline_ns(seq: u64) -> u64 {
        1_000 * seq
    }

    /// What `sim_replay.rs` does around the core, minus the simulator:
    /// the pending table, the run counters and the log a commit
    /// carries. A seq is pending under wire key `seq % keys`: with few
    /// keys, later queries take earlier ones' slots over.
    struct CoreClient {
        core: ReplayCore,
        keys: u64,
        pending: BTreeMap<u64, u64>,
        sent: u64,
        retries: u64,
        shed: u64,
        restarts: u64,
        records: Vec<String>,
        udp_retransmit: Option<RetransmitConfig>,
        retx_seed: u64,
        reconnect: bool,
        max_reconnects: u16,
    }

    impl CoreClient {
        fn try_admit(&mut self, seq: u64, verdict: Verdict, now: u64, out: &mut Vec<Effect>) {
            if self.core.is_done(seq) {
                return;
            }
            match verdict {
                Verdict::Admit => self.dispatch(seq, false, now, out),
                Verdict::Busy => {
                    self.core.park(seq);
                    out.push(Effect::AdmitTimer(seq));
                }
                Verdict::Shed => {
                    self.core.shed(seq);
                    self.shed += 1;
                }
            }
        }

        fn dispatch(&mut self, seq: u64, resend: bool, now: u64, out: &mut Vec<Effect>) {
            self.sent += 1;
            self.core.note_send(seq, now, resend);
            if let Some(earlier) = self.pending.insert(seq % self.keys, seq) {
                if earlier != seq {
                    self.core.abandon(earlier);
                }
            }
            if !is_tcp(seq) {
                if let Some(cfg) = self.udp_retransmit {
                    if let Some(d) = self.core.next_retx_delay_us(seq, &cfg, self.retx_seed) {
                        out.push(Effect::RetxTimer(seq, d));
                    }
                }
            }
        }

        fn admit_timer(&mut self, seq: u64, verdict: Verdict, now: u64, out: &mut Vec<Effect>) {
            if self.core.status(seq) == Some(InflightStatus::Parked) {
                self.try_admit(seq, verdict, now, out);
            }
        }

        fn retx_timer(&mut self, seq: u64, now: u64, out: &mut Vec<Effect>) {
            if self.pending.get(&(seq % self.keys)) == Some(&seq) {
                self.retries += 1;
                self.dispatch(seq, true, now, out);
            }
        }

        fn retry_timer(&mut self, seq: u64, now: u64, out: &mut Vec<Effect>) {
            if self.core.status(seq) == Some(InflightStatus::Retrying) {
                self.retries += 1;
                self.dispatch(seq, true, now, out);
            }
        }

        fn closed(&mut self, seq: u64, out: &mut Vec<Effect>) {
            if self.pending.get(&(seq % self.keys)) != Some(&seq) {
                return;
            }
            self.pending.remove(&(seq % self.keys));
            let budget = if self.reconnect {
                self.max_reconnects
            } else {
                0
            };
            if let Some(n) = self.core.orphan(seq, budget) {
                out.push(Effect::RetryTimer(seq, u32::from(n)));
            }
        }

        fn reply(&mut self, key: u64, out: &mut Vec<Effect>) {
            let Some(seq) = self.pending.remove(&key) else {
                return;
            };
            let first_sent = self.core.complete(seq).expect("a pending query is live");
            out.push(Effect::Completed(seq, first_sent));
            self.records.push(seq.to_string());
        }

        fn crash(&mut self) {
            self.pending.clear();
            self.core.crash();
        }

        fn cut(&mut self, taken_ns: u64) -> Checkpoint {
            let counters = [
                ("sent", self.sent),
                ("retries", self.retries),
                ("shed", self.shed),
                ("restarts", self.restarts),
            ];
            Checkpoint {
                records: self.records.clone(),
                ..self.core.cut(taken_ns, &counters, deadline_ns)
            }
        }
    }

    fn verdict(g: &mut Gen) -> Verdict {
        *g.pick(&[Verdict::Admit, Verdict::Admit, Verdict::Busy, Verdict::Shed])
    }

    /// Every armed timer of one kind, as the simulator would hold them.
    fn take(g: &mut Gen, armed: &mut Vec<u64>) -> Option<u64> {
        if armed.is_empty() {
            return None;
        }
        Some(armed.swap_remove(g.size(0..=armed.len() - 1)))
    }

    /// Generated event sequences — trace and admission timers with
    /// arbitrary verdicts, UDP retransmit and TCP retry timers,
    /// connection deaths, replies by wire key, querier crashes and
    /// restarts, cuts at random steps — driven through the core (as
    /// `sim_replay.rs` drives it) and through the bookkeeping it
    /// replaced: same timers armed, same completions, same counters,
    /// and the same checkpoint at every cut. Half the runs are a few
    /// hundred seqs offered and answered far out of order, with the
    /// odd query that is never answered, so the window grows, wraps
    /// around its ring and stays pinned; some start from a resumed
    /// done-set.
    #[test]
    fn core_matches_the_bookkeeping_it_replaced() {
        check(512, |g| {
            let wide = g.bool();
            let n = if wide {
                g.range(100..=400)
            } else {
                g.range(1..=10)
            };
            let keys = *g.pick(&[5, 16, 64]);
            // One crash in this many draws of the crash arm; the rest
            // are replies.
            let crash_odds = if wide { 16 } else { 1 };
            let udp_retransmit = g.bool().then(|| RetransmitConfig {
                max_retx: g.range(0..=3) as u32,
                base_us: 1_000,
                cap_us: 8_000,
            });
            let retx_seed = g.u64();
            let reconnect = g.below(4) != 0;
            let max_reconnects = g.range(0..=2) as u16;
            let resumed = g.option(|g| {
                // A done prefix, then the odd done seq past it.
                let cursor = if g.bool() { 0 } else { g.range(0..=n) };
                let later = (cursor..n).filter(|_| g.below(4) == 0);
                let done: Vec<u64> = (0..cursor).chain(later).collect();
                (g.range(1..=9) as u32, done)
            });
            let max = u32::from(max_reconnects);
            let old = RefClient::new(keys, udp_retransmit, retx_seed, reconnect, max);
            let (core, mut old) = match &resumed {
                None => (ReplayCore::new(tracker()), old),
                Some((epoch, done)) => {
                    let done = done.iter().copied();
                    let core = ReplayCore::resume(tracker(), *epoch, done.clone());
                    (core, old.resumed(*epoch, done))
                }
            };
            let mut new = CoreClient {
                core,
                keys,
                pending: BTreeMap::new(),
                sent: 0,
                retries: 0,
                shed: 0,
                restarts: 0,
                records: Vec::new(),
                udp_retransmit,
                retx_seed,
                reconnect,
                max_reconnects,
            };
            // Armed timers by kind; a crash drops them all.
            let mut trace: Vec<u64> = (0..n).filter(|&seq| !old.is_done(seq)).collect();
            let (mut admit, mut retx, mut retry) = (Vec::new(), Vec::new(), Vec::new());
            for step in 0..g.size(0..=(8 * n as usize).max(60)) {
                let now = 10 * (step as u64 + 1);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                match g.below(10) {
                    0 | 1 => {
                        if let Some(seq) = take(g, &mut trace) {
                            let v = verdict(g);
                            new.try_admit(seq, v, now, &mut a);
                            old.try_admit(seq, v, now, &mut b);
                        }
                    }
                    2 => {
                        if let Some(seq) = take(g, &mut admit) {
                            let v = verdict(g);
                            new.admit_timer(seq, v, now, &mut a);
                            old.admit_timer(seq, v, now, &mut b);
                        }
                    }
                    3 => {
                        if let Some(seq) = take(g, &mut retx) {
                            new.retx_timer(seq, now, &mut a);
                            old.retx_timer(seq, now, &mut b);
                        }
                    }
                    4 => {
                        if let Some(seq) = take(g, &mut retry) {
                            new.retry_timer(seq, now, &mut a);
                            old.retry_timer(seq, now, &mut b);
                        }
                    }
                    5 => {
                        let seq = 3 * g.below(n.div_ceil(3));
                        new.closed(seq, &mut a);
                        old.closed(seq, &mut b);
                    }
                    6 | 7 => {
                        let key = g.below(keys);
                        new.reply(key, &mut a);
                        old.reply(key, &mut b);
                    }
                    8 if g.below(crash_odds) != 0 => {
                        let key = g.below(keys);
                        new.reply(key, &mut a);
                        old.reply(key, &mut b);
                    }
                    8 => {
                        new.crash();
                        old.crash();
                        for timers in [&mut trace, &mut admit, &mut retx, &mut retry] {
                            timers.clear();
                        }
                        // The restart: overdue seqs are re-offered in
                        // order, the rest get fresh trace timers.
                        new.restarts += 1;
                        old.restarts += 1;
                        for seq in 0..n {
                            assert_eq!(new.core.is_done(seq), old.is_done(seq));
                            if old.is_done(seq) {
                                continue;
                            }
                            if g.bool() {
                                let v = verdict(g);
                                new.try_admit(seq, v, now, &mut a);
                                old.try_admit(seq, v, now, &mut b);
                            } else {
                                trace.push(seq);
                            }
                        }
                    }
                    _ => {
                        assert_eq!(new.cut(now), old.take_fuzzy_checkpoint(now));
                    }
                }
                assert_eq!(a, b, "step {step}: effects");
                for effect in a {
                    match effect {
                        Effect::AdmitTimer(seq) => admit.push(seq),
                        Effect::RetxTimer(seq, _) => retx.push(seq),
                        Effect::RetryTimer(seq, _) => retry.push(seq),
                        Effect::Completed(..) => {}
                    }
                }
                assert_eq!((new.sent, new.retries), (old.sent, old.retries));
                assert_eq!(new.pending, old.pending_seqs(), "step {step}: pending");
            }
            assert_eq!(new.cut(u64::MAX), old.take_fuzzy_checkpoint(u64::MAX));
        });
    }
}

/// The bookkeeping [`ReplayCore`] replaced, kept as its oracle: the
/// sim client's six seq-keyed collections and cursor (`completed`,
/// `parked`, `retrying`, and `RetransmitState`'s `budgets` / `sends` /
/// `retx`) beside its pending table, the status derived at cut time,
/// the five-way `outstanding_seqs` union, and the checkpoint writer —
/// the bodies as they stood, minus the simulator, but for a budget now
/// being the count of delays it drew (`RetransmitConfig::delay_us`).
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use ldp_guard::{Checkpoint, InflightEntry, InflightStatus, RetransmitConfig};

    fn derive_seed(seed: u64, seq: u64) -> u64 {
        seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Live per-query retransmission state: budgets (delays drawn)
    /// plus send/retry counts, keyed by seq, maintained from first
    /// dispatch to completion.
    #[derive(Debug, Default, Clone)]
    struct RetransmitState {
        budgets: BTreeMap<u64, u32>,
        sends: BTreeMap<u64, u32>,
        retx: BTreeMap<u64, u32>,
    }

    impl RetransmitState {
        fn note_send(&mut self, seq: u64) {
            *self.sends.entry(seq).or_insert(0) += 1;
        }

        fn note_retx(&mut self, seq: u64) {
            *self.retx.entry(seq).or_insert(0) += 1;
        }

        fn next_delay_us(&mut self, seq: u64, cfg: &RetransmitConfig, seed: u64) -> Option<u64> {
            let drawn = self.budgets.entry(seq).or_insert(0);
            let delay = cfg.delay_us(derive_seed(seed, seq), *drawn)?;
            *drawn += 1;
            Some(delay)
        }

        fn sends_of(&self, seq: u64) -> u32 {
            self.sends.get(&seq).copied().unwrap_or(0)
        }

        fn retx_of(&self, seq: u64) -> u32 {
            self.retx.get(&seq).copied().unwrap_or(0)
        }

        fn complete(&mut self, seq: u64) {
            self.budgets.remove(&seq);
            self.sends.remove(&seq);
            self.retx.remove(&seq);
        }

        fn drop_budgets(&mut self) {
            self.budgets.clear();
        }

        fn live_seqs(&self) -> impl Iterator<Item = u64> + '_ {
            self.sends.keys().copied()
        }

        fn live_totals(&self) -> (u64, u64) {
            let sends = self.sends.values().map(|&v| u64::from(v)).sum();
            let retx = self.retx.values().map(|&v| u64::from(v)).sum();
            (sends, retx)
        }
    }

    /// An admission verdict, chosen by the test.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Verdict {
        Admit,
        Busy,
        Shed,
    }

    /// What a client does that the rest of the simulation can see.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(super) enum Effect {
        /// Armed the re-offer timer of a parked seq.
        AdmitTimer(u64),
        /// Armed a UDP retransmit timer (seq, delay µs).
        RetxTimer(u64, u64),
        /// Armed a TCP retry timer (seq, attempt).
        RetryTimer(u64, u32),
        /// Logged a completion (seq, first-send time).
        Completed(u64, u64),
    }

    #[derive(Debug, Clone, Copy)]
    struct Pending {
        seq: u64,
        sent_ns: u64,
    }

    #[derive(Debug, Clone)]
    pub(super) struct RefClient {
        /// How many wire keys there are: a seq is pending under
        /// `seq % keys`.
        keys: u64,
        /// In-flight queries by wire key.
        pending: BTreeMap<u64, Pending>,
        reconnect: bool,
        max_reconnects: u32,
        /// Live retry chains: seq → (original send time, attempts so far).
        retrying: BTreeMap<u64, (u64, u32)>,
        records: Vec<String>,
        pub(super) sent: u64,
        pub(super) retries: u64,
        completed: BTreeSet<u64>,
        cursor: u64,
        parked: BTreeSet<u64>,
        shed: u64,
        udp_retransmit: Option<RetransmitConfig>,
        retx_seed: u64,
        retx_state: RetransmitState,
        epoch: u32,
        pub(super) restarts: u64,
    }

    impl RefClient {
        pub(super) fn new(
            keys: u64,
            udp_retransmit: Option<RetransmitConfig>,
            retx_seed: u64,
            reconnect: bool,
            max_reconnects: u32,
        ) -> Self {
            RefClient {
                keys,
                pending: BTreeMap::new(),
                reconnect,
                max_reconnects,
                retrying: BTreeMap::new(),
                records: Vec::new(),
                sent: 0,
                retries: 0,
                completed: BTreeSet::new(),
                cursor: 0,
                parked: BTreeSet::new(),
                shed: 0,
                udp_retransmit,
                retx_seed,
                retx_state: RetransmitState::default(),
                epoch: 0,
                restarts: 0,
            }
        }

        /// The client a resume built: `done` completed, `epoch` the
        /// checkpoint's.
        pub(super) fn resumed(mut self, epoch: u32, done: impl IntoIterator<Item = u64>) -> Self {
            self.epoch = epoch;
            self.completed.extend(done);
            self
        }

        pub(super) fn is_done(&self, seq: u64) -> bool {
            self.completed.contains(&seq)
        }

        pub(super) fn pending_seqs(&self) -> BTreeMap<u64, u64> {
            self.pending.iter().map(|(&k, p)| (k, p.seq)).collect()
        }

        pub(super) fn try_admit(
            &mut self,
            seq: u64,
            verdict: Verdict,
            now: u64,
            out: &mut Vec<Effect>,
        ) {
            if self.completed.contains(&seq) {
                return;
            }
            match verdict {
                Verdict::Admit => {
                    self.parked.remove(&seq);
                    self.dispatch(seq, None, now, out);
                }
                Verdict::Busy => {
                    self.parked.insert(seq);
                    out.push(Effect::AdmitTimer(seq));
                }
                Verdict::Shed => {
                    self.parked.remove(&seq);
                    self.shed += 1;
                }
            }
        }

        fn dispatch(&mut self, seq: u64, first_sent: Option<u64>, now: u64, out: &mut Vec<Effect>) {
            let pending = Pending {
                seq,
                sent_ns: first_sent.unwrap_or(now),
            };
            self.sent += 1;
            self.retx_state.note_send(seq);
            let earlier = self.pending.insert(seq % self.keys, pending);
            // The core's one departure from these bodies: a query whose
            // pending slot a later one took over is given up, and a
            // retry chain it was in ends with it (these bodies left it
            // reading `Retrying` though nothing would move it again).
            if let Some(earlier) = earlier.filter(|p| p.seq != seq) {
                self.retrying.remove(&earlier.seq);
            }
            if !super::tests::is_tcp(seq) {
                if let Some(cfg) = self.udp_retransmit {
                    if let Some(d) = self.retx_state.next_delay_us(seq, &cfg, self.retx_seed) {
                        out.push(Effect::RetxTimer(seq, d));
                    }
                }
            }
        }

        pub(super) fn admit_timer(
            &mut self,
            seq: u64,
            verdict: Verdict,
            now: u64,
            out: &mut Vec<Effect>,
        ) {
            if self.parked.remove(&seq) {
                self.try_admit(seq, verdict, now, out);
            }
        }

        pub(super) fn retx_timer(&mut self, seq: u64, now: u64, out: &mut Vec<Effect>) {
            if self.completed.contains(&seq) {
                return;
            }
            let Some(sent_ns) = self
                .pending
                .get(&(seq % self.keys))
                .filter(|p| p.seq == seq)
                .map(|p| p.sent_ns)
            else {
                return;
            };
            self.retries += 1;
            self.retx_state.note_retx(seq);
            self.dispatch(seq, Some(sent_ns), now, out);
        }

        pub(super) fn retry_timer(&mut self, seq: u64, now: u64, out: &mut Vec<Effect>) {
            let Some(&(sent_ns, _)) = self.retrying.get(&seq) else {
                return;
            };
            self.retries += 1;
            self.retx_state.note_retx(seq);
            self.dispatch(seq, Some(sent_ns), now, out);
        }

        /// The connection `seq` is pending on died.
        pub(super) fn closed(&mut self, seq: u64, out: &mut Vec<Effect>) {
            let key = seq % self.keys;
            if self.pending.get(&key).is_none_or(|p| p.seq != seq) {
                return;
            }
            let Some(p) = self.pending.remove(&key) else {
                return;
            };
            if !self.reconnect {
                return; // recovery disabled: the query is lost
            }
            let chain = self.retrying.entry(p.seq).or_insert((p.sent_ns, 0));
            if chain.1 >= self.max_reconnects {
                // Budget exhausted: give up on this query.
                self.retrying.remove(&p.seq);
                return;
            }
            chain.1 += 1;
            out.push(Effect::RetryTimer(p.seq, chain.1));
        }

        /// A reply arrived for wire key `key`.
        pub(super) fn reply(&mut self, key: u64, out: &mut Vec<Effect>) {
            let Some(p) = self.pending.remove(&key) else {
                return;
            };
            let seq = p.seq;
            self.retrying.remove(&seq);
            self.retx_state.complete(seq);
            out.push(Effect::Completed(seq, p.sent_ns));
            self.records.push(seq.to_string());
            self.completed.insert(seq);
            self.parked.remove(&seq);
        }

        fn advance_cursor(&mut self) -> u64 {
            while self.completed.contains(&self.cursor) {
                self.cursor += 1;
            }
            self.cursor
        }

        fn outstanding_seqs(&self) -> BTreeSet<u64> {
            let mut out: BTreeSet<u64> = self.retx_state.live_seqs().collect();
            out.extend(self.parked.iter().copied());
            out.extend(self.retrying.keys().copied());
            out.extend(self.pending.values().map(|p| p.seq));
            out
        }

        pub(super) fn take_fuzzy_checkpoint(&mut self, taken_ns: u64) -> Checkpoint {
            self.epoch += 1;
            let outstanding = self.outstanding_seqs();
            let mut cursor = self.advance_cursor();
            while self.completed.contains(&cursor) || outstanding.contains(&cursor) {
                cursor += 1;
            }
            let (live_sends, live_retx) = self.retx_state.live_totals();
            let inflight: Vec<InflightEntry> = outstanding
                .iter()
                .map(|&seq| {
                    let status = if self.parked.contains(&seq) {
                        InflightStatus::Parked
                    } else if self.retrying.contains_key(&seq) {
                        InflightStatus::Retrying
                    } else {
                        InflightStatus::InFlight
                    };
                    InflightEntry {
                        seq,
                        deadline_ns: super::tests::deadline_ns(seq),
                        sends: self.retx_state.sends_of(seq),
                        retx: self.retx_state.retx_of(seq),
                        status,
                    }
                })
                .collect();
            Checkpoint {
                epoch: self.epoch,
                taken_ns,
                cursor,
                counters: vec![
                    ("sent".into(), self.sent.saturating_sub(live_sends)),
                    ("retries".into(), self.retries.saturating_sub(live_retx)),
                    ("shed".into(), self.shed),
                    ("restarts".into(), self.restarts),
                ],
                records: self.records.clone(),
                inflight,
            }
        }

        pub(super) fn crash(&mut self) {
            self.pending.clear();
            self.retrying.clear();
            self.parked.clear();
            self.retx_state.drop_budgets();
        }
    }
}
