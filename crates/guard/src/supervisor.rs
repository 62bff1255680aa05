//! Supervised querier slots: heartbeat timeouts, bounded restart
//! budgets, and re-dispatch of a dead querier's unacknowledged span.
//!
//! The supervisor is a pure state machine over explicit `now`
//! parameters — the replay engine feeds it heartbeats and sequence
//! acknowledgements from its querier threads and polls it for
//! actions; the same logic would drive sim hosts. A
//! slot that stops heartbeating is scheduled for restart after a
//! jittered backoff drawn from its [`RetryBudget`]; when the budget
//! runs dry the slot is declared dead for good ([`SupervisorAction::GiveUp`])
//! so the run degrades visibly instead of hanging.

use crate::budget::RetryBudget;

/// Supervision knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// A slot with no heartbeat for this long (µs) is presumed dead.
    pub heartbeat_timeout_us: u64,
    /// Restarts allowed per slot before giving up.
    pub max_restarts: u32,
    /// Base restart backoff (µs).
    pub backoff_base_us: u64,
    /// Restart backoff cap (µs).
    pub backoff_cap_us: u64,
    /// Seed for the per-slot jitter streams.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_timeout_us: 2_000_000,
            max_restarts: 3,
            backoff_base_us: 10_000,
            backoff_cap_us: 1_000_000,
            seed: 0x6a2d_5eed,
        }
    }
}

/// Lifecycle of one supervised slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Heartbeating normally.
    Alive,
    /// Missed its heartbeat; restart scheduled for `restart_at_us`.
    Restarting,
    /// Restart budget exhausted; abandoned.
    Dead,
}

#[derive(Debug, Clone)]
struct Slot {
    state: SlotState,
    last_beat_us: u64,
    /// Highest trace seq this slot has acknowledged completing, if any.
    acked_seq: Option<u64>,
    restart_at_us: u64,
    budget: RetryBudget,
    restarts: u32,
}

/// What the engine must do for a slot, produced by [`Supervisor::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorAction {
    /// Tear down and relaunch the slot's querier, re-dispatching its
    /// trace span starting at `redispatch_from` (the first seq it
    /// never acknowledged).
    Restart {
        /// Slot index.
        slot: usize,
        /// First unacknowledged seq; `0` if it never acked anything.
        redispatch_from: u64,
    },
    /// The slot's restart budget is exhausted: mark its span failed
    /// and carry on without it.
    GiveUp {
        /// Slot index.
        slot: usize,
    },
}

/// Heartbeat-monitored querier slots with bounded restart budgets.
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    slots: Vec<Slot>,
}

impl Supervisor {
    /// A supervisor over `slots` queriers, all presumed alive and
    /// freshly heartbeated at `now_us`.
    pub fn new(cfg: SupervisorConfig, slots: usize, now_us: u64) -> Self {
        let slots = (0..slots)
            .map(|i| Slot {
                state: SlotState::Alive,
                last_beat_us: now_us,
                acked_seq: None,
                restart_at_us: 0,
                budget: RetryBudget::new(
                    cfg.max_restarts,
                    cfg.backoff_base_us,
                    cfg.backoff_cap_us,
                    cfg.seed.wrapping_add(i as u64),
                ),
                restarts: 0,
            })
            .collect();
        Supervisor { cfg, slots }
    }

    /// Record a heartbeat from `slot` at `now_us`.
    pub fn heartbeat(&mut self, slot: usize, now_us: u64) {
        if let Some(s) = self.slots.get_mut(slot) {
            if s.state == SlotState::Alive {
                s.last_beat_us = s.last_beat_us.max(now_us);
            }
        }
    }

    /// Record that `slot` acknowledged completing trace seq `seq`
    /// (monotone — stale acks are ignored). Also counts as a
    /// heartbeat.
    pub fn ack(&mut self, slot: usize, seq: u64, now_us: u64) {
        if let Some(s) = self.slots.get_mut(slot) {
            if s.acked_seq.is_none_or(|prev| seq > prev) {
                s.acked_seq = Some(seq);
            }
        }
        self.heartbeat(slot, now_us);
    }

    /// Report an observed crash of `slot` (e.g. a send returned
    /// `Dead`), skipping the heartbeat-timeout wait.
    pub fn note_dead(&mut self, slot: usize, now_us: u64) {
        if self
            .slots
            .get(slot)
            .is_some_and(|s| s.state == SlotState::Alive)
        {
            self.begin_restart(slot, now_us);
        }
    }

    /// Advance the state machine to `now_us` and collect the actions
    /// the engine must perform. Alive slots past their heartbeat
    /// timeout begin a (jitter-delayed) restart; restarting slots
    /// whose delay has elapsed yield [`SupervisorAction::Restart`];
    /// slots out of budget yield [`SupervisorAction::GiveUp`] exactly
    /// once.
    pub fn poll(&mut self, now_us: u64) -> Vec<SupervisorAction> {
        let mut actions = Vec::new();
        for i in 0..self.slots.len() {
            match self.slots[i].state {
                SlotState::Alive => {
                    let stale = now_us.saturating_sub(self.slots[i].last_beat_us)
                        > self.cfg.heartbeat_timeout_us;
                    if stale {
                        if let Some(action) = self.begin_restart(i, now_us) {
                            actions.push(action);
                        }
                    }
                }
                SlotState::Restarting => {
                    if now_us >= self.slots[i].restart_at_us {
                        let s = &mut self.slots[i];
                        s.state = SlotState::Alive;
                        s.last_beat_us = now_us;
                        s.restarts += 1;
                        actions.push(SupervisorAction::Restart {
                            slot: i,
                            redispatch_from: s.acked_seq.map_or(0, |a| a + 1),
                        });
                    }
                }
                SlotState::Dead => {}
            }
        }
        actions
    }

    /// Move `slot` to `Restarting` (or `Dead` when the budget is dry,
    /// returning the one-shot `GiveUp`).
    fn begin_restart(&mut self, slot: usize, now_us: u64) -> Option<SupervisorAction> {
        let s = &mut self.slots[slot];
        match s.budget.next_delay_us() {
            Some(delay) => {
                s.state = SlotState::Restarting;
                s.restart_at_us = now_us.saturating_add(delay);
                None
            }
            None => {
                s.state = SlotState::Dead;
                Some(SupervisorAction::GiveUp { slot })
            }
        }
    }

    /// Restarts performed for `slot` so far.
    pub fn restarts(&self, slot: usize) -> u32 {
        self.slots.get(slot).map_or(0, |s| s.restarts)
    }

    /// Whether `slot` has been abandoned.
    pub fn is_dead(&self, slot: usize) -> bool {
        self.slots
            .get(slot)
            .is_some_and(|s| s.state == SlotState::Dead)
    }

    /// Number of supervised slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the supervisor has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            heartbeat_timeout_us: 1_000,
            max_restarts: 2,
            backoff_base_us: 100,
            backoff_cap_us: 500,
            seed: 42,
        }
    }

    #[test]
    fn heartbeats_keep_slots_alive() {
        let mut sup = Supervisor::new(cfg(), 2, 0);
        for t in (0..10_000).step_by(500) {
            sup.heartbeat(0, t);
            sup.heartbeat(1, t);
            assert!(sup.poll(t).is_empty(), "no action at t={t}");
        }
        assert_eq!(sup.restarts(0), 0);
    }

    #[test]
    fn stale_slot_restarts_after_jittered_delay() {
        let mut sup = Supervisor::new(cfg(), 1, 0);
        // No heartbeat past the 1 ms timeout: restart gets scheduled.
        assert!(sup.poll(1_500).is_empty(), "delay pending, no action yet");
        // Backoff is capped at 500 µs, so by 1_500 + 500 it must fire.
        let actions = sup.poll(2_000);
        assert_eq!(
            actions,
            vec![SupervisorAction::Restart {
                slot: 0,
                redispatch_from: 0
            }]
        );
        assert_eq!(sup.restarts(0), 1);
        // Restarted slot is alive again and stays quiet while beating.
        sup.heartbeat(0, 2_100);
        assert!(sup.poll(2_500).is_empty());
    }

    #[test]
    fn redispatch_resumes_after_last_acked_seq() {
        let mut sup = Supervisor::new(cfg(), 1, 0);
        sup.ack(0, 41, 500);
        sup.ack(0, 17, 600); // stale ack must not regress the span
        sup.note_dead(0, 700);
        let actions = sup.poll(700 + 500);
        assert_eq!(
            actions,
            vec![SupervisorAction::Restart {
                slot: 0,
                redispatch_from: 42
            }]
        );
    }

    #[test]
    fn budget_exhaustion_gives_up_exactly_once() {
        let mut sup = Supervisor::new(cfg(), 1, 0);
        let mut restarts = 0;
        let mut give_ups = 0;
        let mut t = 0u64;
        for _ in 0..20 {
            t += 5_000; // long silence every round
            for a in sup.poll(t) {
                match a {
                    SupervisorAction::Restart { .. } => restarts += 1,
                    SupervisorAction::GiveUp { .. } => give_ups += 1,
                }
            }
        }
        assert_eq!(restarts, 2, "budget allows exactly max_restarts");
        assert_eq!(give_ups, 1, "GiveUp fires once, then the slot stays dead");
        assert!(sup.is_dead(0));
        // A dead slot ignores further heartbeats and acks.
        sup.heartbeat(0, t + 1);
        assert!(sup.poll(t + 10_000).is_empty());
    }

    #[test]
    fn note_dead_skips_the_timeout_wait() {
        let mut sup = Supervisor::new(cfg(), 2, 0);
        sup.note_dead(1, 100);
        // Well before the heartbeat timeout, the restart still fires
        // once its backoff (≤ 500 µs) elapses.
        let actions = sup.poll(700);
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            SupervisorAction::Restart { slot: 1, .. }
        ));
        // Slot 0 was never touched.
        assert_eq!(sup.restarts(0), 0);
    }

    #[test]
    fn same_seed_same_restart_schedule() {
        let run = || {
            let mut sup = Supervisor::new(cfg(), 3, 0);
            let mut fired = Vec::new();
            for t in (0..50_000u64).step_by(250) {
                for a in sup.poll(t) {
                    fired.push((t, a));
                }
            }
            fired
        };
        assert_eq!(run(), run());
    }
}
