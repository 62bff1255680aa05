//! One struct for every overload-and-recovery knob.

use std::time::Duration;

use crate::admission::AdmissionConfig;

/// Querier-slot supervision in the socket engine: a distributor marks
/// a querier whose channel closed dead and fails its work over to the
/// surviving siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// `0` turns the retained-window re-dispatch off: a dead querier's
    /// unsent jobs are lost and only new ones fail over.
    pub max_restarts: u32,
    /// Seed for the per-querier reconnect jitter streams.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            seed: 0x6a2d_5eed,
        }
    }
}

/// Server-side overload response: token-bucket response rate limiting
/// with a TC-fallback slip, consulted per view. These knobs build the
/// `dns-server` rate limiter (`rrl::RrlConfig`) for each view of an
/// engine; guard keeps only the policy numbers so the sim and socket
/// servers share one configuration surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Sustained responses/second allowed per (client-prefix,
    /// response) bucket. `0.0` disables server-side rate limiting.
    pub responses_per_second: f64,
    /// Bucket burst depth, in responses.
    pub burst: f64,
    /// Every `slip`-th over-limit response is sent truncated (TC=1)
    /// instead of dropped, steering real clients to TCP. `0` never
    /// slips (pure drop).
    pub slip: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            responses_per_second: 0.0,
            burst: 15.0,
            slip: 2,
        }
    }
}

impl OverloadConfig {
    /// Whether rate limiting is active at all.
    pub fn enabled(&self) -> bool {
        self.responses_per_second > 0.0
    }
}

/// TCP reconnect policy for a querier's send path: a jittered,
/// capped [`crate::RetryBudget`] replaces the old unbounded doubling
/// loop. A successful connect refills the budget; exhaustion makes
/// the path report `Dead` instead of spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectConfig {
    /// Backoff sleeps allowed before giving up (connect attempts are
    /// `max_attempts + 1`: one eager dial, then one per sleep).
    pub max_attempts: u32,
    /// Base backoff (µs).
    pub base_us: u64,
    /// Backoff cap (µs).
    pub cap_us: u64,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            max_attempts: 3,
            base_us: 200,
            cap_us: 5_000,
        }
    }
}

/// UDP retransmission policy for a replay client: each query gets its
/// own [`crate::RetryBudget`] (seeded per-seq, so retransmit jitter is
/// deterministic and checkpointable per query). Unlike the TCP
/// reconnect chain — which rides connection-death events — UDP loss is
/// silent, so retransmits are timer-driven from dispatch. Exhaustion
/// is terminal: the query stays pending (and is carried on a
/// checkpoint `inflight` line) but is never sent again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Retransmits allowed per query after the initial send.
    pub max_retx: u32,
    /// Base inter-retransmit delay (µs). Must comfortably exceed the
    /// expected RTT or every query double-sends.
    pub base_us: u64,
    /// Inter-retransmit delay cap (µs).
    pub cap_us: u64,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        // Base 200ms: ~5× the study RTT (40ms), so healthy paths never
        // retransmit; cap 1.5s bounds a chain to a few seconds.
        RetransmitConfig {
            max_retx: 8,
            base_us: 200_000,
            cap_us: 1_500_000,
        }
    }
}

/// Every guard knob in one place: checkpoint cadence, querier
/// supervision, dispatch admission control, send-path reconnect
/// budgets, and the server-side overload response.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GuardConfig {
    /// Commit a checkpoint every this much replay-clock time, on the
    /// grid `k·cadence` from the clock's origin. `None` disables
    /// checkpointing.
    pub checkpoint_cadence: Option<Duration>,
    /// Querier-slot supervision (failover re-dispatch, jitter seed).
    pub supervisor: SupervisorConfig,
    /// Dispatch-side admission control (in-flight window, shedding).
    pub admission: AdmissionConfig,
    /// Querier TCP reconnect budget.
    pub reconnect: ReconnectConfig,
    /// Server-side overload response (per-view RRL).
    pub overload: OverloadConfig,
}

impl GuardConfig {
    /// A configuration with every protection off — the pre-guard
    /// behavior. (The reconnect
    /// budget keeps its default bounds: "off" would mean the old
    /// uncapped loop, which is the bug the budget fixes.)
    pub fn disabled() -> Self {
        GuardConfig {
            checkpoint_cadence: None,
            supervisor: SupervisorConfig {
                max_restarts: 0,
                ..SupervisorConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 0,
                max_lateness_us: 0,
            },
            reconnect: ReconnectConfig::default(),
            overload: OverloadConfig {
                responses_per_second: 0.0,
                ..OverloadConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_leaves_checkpointing_and_rrl_off() {
        let g = GuardConfig::default();
        assert_eq!(g.checkpoint_cadence, None);
        assert!(!g.overload.enabled());
        assert!(g.admission.max_in_flight > 0, "admission has a sane bound");
    }

    #[test]
    fn disabled_turns_everything_off() {
        let g = GuardConfig::disabled();
        assert_eq!(g.checkpoint_cadence, None);
        assert_eq!(g.supervisor.max_restarts, 0);
        assert_eq!(g.admission.max_in_flight, 0);
        assert!(!g.overload.enabled());
    }

    #[test]
    fn overload_enabled_tracks_rate() {
        let mut o = OverloadConfig::default();
        assert!(!o.enabled());
        o.responses_per_second = 10.0;
        assert!(o.enabled());
    }
}
