//! Replay timing (paper §2.6, "Correct timing for replayed queries").
//!
//! LDplayer tracks *trace time* and *real time* in parallel. For query
//! `i` with trace timestamp t̄ᵢ, the relative trace time Δt̄ᵢ = t̄ᵢ − t̄₁ is
//! the delay the replay should reproduce; the relative real time
//! Δtᵢ = tᵢ − t₁ is the delay that has already elapsed (input processing,
//! distribution). The querier therefore schedules the send ΔTᵢ = Δt̄ᵢ − Δtᵢ
//! in the future — and if the pipeline has fallen behind (ΔTᵢ ≤ 0) sends
//! immediately, continuously re-anchoring so errors do not accumulate.
//!
//! All arithmetic here is over microseconds on a [`crate::ReplayClock`]
//! — never `Instant` — so the identical tracker drives wall-clock and
//! virtual-time replays (rule D1).

/// Tracks trace-time vs replay-clock time and computes per-query send
/// deadlines. Times are microseconds on the replay clock, whose origin
/// is the start of the run.
#[derive(Debug, Clone, Copy)]
pub struct TimingTracker {
    /// t̄₁: trace timestamp of the first query (microseconds).
    trace_start_us: u64,
    /// t₁: replay-clock time of the synchronization point (the first
    /// query's deadline), typically the warm-up offset.
    origin_us: u64,
    /// Optional speedup factor (2.0 = replay twice as fast).
    speed: f64,
}

impl TimingTracker {
    /// Start tracking: called at the time-synchronization point, with
    /// the first query's trace timestamp and its replay-clock deadline.
    pub fn start(trace_start_us: u64, origin_us: u64) -> Self {
        TimingTracker {
            trace_start_us,
            origin_us,
            speed: 1.0,
        }
    }

    /// Replay faster or slower than real time.
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(speed > 0.0);
        self.speed = speed;
        self
    }

    /// The replay-clock time (µs) at which a query stamped `trace_us`
    /// should be sent.
    pub fn deadline_us(&self, trace_us: u64) -> u64 {
        let delta_trace = trace_us.saturating_sub(self.trace_start_us);
        let scaled = (delta_trace as f64 / self.speed) as u64;
        self.origin_us + scaled
    }

    /// ΔTᵢ: how many µs to wait from `now_us` before sending the query
    /// stamped `trace_us`. `None` means the replay has fallen behind —
    /// send immediately without a timer (paper: "if the input
    /// processing falls behind (ΔTᵢ ≤ 0), LDplayer sends the query
    /// immediately").
    #[cfg(test)]
    fn delay_from(&self, trace_us: u64, now_us: u64) -> Option<u64> {
        let deadline = self.deadline_us(trace_us);
        deadline.checked_sub(now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_tracks_trace_offsets() {
        let tr = TimingTracker::start(1_000_000, 50_000);
        assert_eq!(tr.deadline_us(1_000_000), 50_000);
        assert_eq!(tr.deadline_us(1_500_000), 550_000);
        // Before the start clamps to the origin.
        assert_eq!(tr.deadline_us(900_000), 50_000);
    }

    #[test]
    fn delay_positive_when_ahead() {
        let tr = TimingTracker::start(0, 0);
        let d = tr.delay_from(2_000_000, 500_000).unwrap();
        assert_eq!(d, 1_500_000);
    }

    #[test]
    fn behind_schedule_sends_immediately() {
        let tr = TimingTracker::start(0, 0);
        // Replay-clock time is already past the query's deadline.
        assert!(tr.delay_from(100_000, 200_000).is_none());
    }

    #[test]
    fn accumulated_input_delay_is_removed() {
        // The defining property: even if the previous query was sent
        // late, the next deadline is computed from the *origin*, not
        // from the previous send, so the error does not accumulate.
        let tr = TimingTracker::start(0, 0);
        // Query at Δt̄=10 ms was processed at Δt=14 ms (4 ms late, sent
        // immediately). The next query at Δt̄=30 ms still gets its full
        // deadline at 30 ms.
        let now_us = 14_000;
        assert!(tr.delay_from(10_000, now_us).is_none());
        assert_eq!(tr.delay_from(30_000, now_us), Some(16_000));
    }

    #[test]
    fn speedup_compresses_deadlines() {
        let tr = TimingTracker::start(0, 0).with_speed(2.0);
        assert_eq!(tr.deadline_us(1_000_000), 500_000);
    }

    #[test]
    fn warmup_shifts_every_deadline() {
        let tr = TimingTracker::start(7_000_000, 100_000);
        assert_eq!(tr.deadline_us(7_000_000), 100_000);
        assert_eq!(tr.deadline_us(7_250_000), 350_000);
    }

    #[test]
    fn pause_resume_keeps_original_deadlines_without_a_burst() {
        // Checkpoint/resume contract: a run killed at Δt̄ = 300 ms and
        // resumed at replay-clock 500 ms rebuilds its tracker from the
        // checkpointed baseline (t̄₁, t₁) — NOT re-anchored at the
        // resume time. Queries that fell due during the outage send
        // immediately; everything later keeps its original absolute
        // deadline, so there is no post-resume burst and no drift.
        let paused = TimingTracker::start(0, 0);
        let resumed = TimingTracker::start(0, 0); // baseline from checkpoint
        let resume_now_us = 500_000;
        assert!(resumed.delay_from(350_000, resume_now_us).is_none());
        assert!(resumed.delay_from(450_000, resume_now_us).is_none());
        for trace_us in [600_000u64, 700_000, 1_000_000, 5_000_000] {
            assert_eq!(resumed.deadline_us(trace_us), paused.deadline_us(trace_us));
            assert_eq!(
                resumed.delay_from(trace_us, resume_now_us),
                Some(trace_us - resume_now_us),
                "post-resume deadline drifted for trace_us={trace_us}"
            );
        }
    }

    #[test]
    fn only_outage_window_queries_are_due_at_resume() {
        // The "burst" after a resume is bounded by the outage itself:
        // exactly the queries whose deadlines fell inside the down
        // window are overdue, never the whole remaining trace.
        let tr = TimingTracker::start(0, 0);
        let resume_now_us = 500_000;
        let due = (0..100u64)
            .map(|i| i * 10_000)
            .filter(|&t| tr.delay_from(t, resume_now_us).is_none())
            .count();
        assert_eq!(
            due, 50,
            "only deadlines strictly before the resume point are overdue"
        );
    }

    #[test]
    fn re_anchoring_at_resume_time_would_drift_every_deadline() {
        // The wrong restore — anchoring the resumed tracker at the
        // resume clock time — shifts every remaining deadline by the
        // outage length. Pin the contrast so the restore path cannot
        // quietly regress to it.
        let correct = TimingTracker::start(0, 0);
        let wrong = TimingTracker::start(300_000, 500_000);
        assert_eq!(correct.deadline_us(600_000), 600_000);
        assert_eq!(
            wrong.deadline_us(600_000),
            800_000,
            "drifted by the 200 ms outage"
        );
    }
}
