//! The declarative fault plan: what breaks, when, and for how long.
//!
//! A [`FaultPlan`] is a seed plus a list of virtual-time-scheduled
//! [`FaultEvent`]s. Plans are data, not code: they serialize to a
//! line-based text format (stable across versions, exact f64
//! round-trips via shortest-representation formatting) so experiment
//! scenarios can be stored next to their results and replayed
//! bit-identically later.
//!
//! All times are virtual (nanoseconds since simulation start); nothing
//! in a plan references the wall clock.

use std::fmt;
use std::net::IpAddr;

use netsim::{SimDuration, SimTime};

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The directed path `src → dst` goes black: every packet on it is
    /// dropped (TCP connections crossing it die). Use two events for a
    /// bidirectional cut.
    LinkDown {
        /// Source host address.
        src: IpAddr,
        /// Destination host address.
        dst: IpAddr,
    },
    /// The directed path `src → dst` heals.
    LinkUp {
        /// Source host address.
        src: IpAddr,
        /// Destination host address.
        dst: IpAddr,
    },
    /// Every path loses packets with probability `rate` until `until`.
    /// UDP datagrams vanish; TCP segments take a retransmission delay
    /// penalty instead (the connection model has no retransmit, so a
    /// hard drop would kill the connection — see `netsim::fault`).
    LossBurst {
        /// Loss probability in `[0, 1]`.
        rate: f64,
        /// Virtual end of the burst.
        until: SimTime,
    },
    /// Every packet gains `extra` + uniform `[0, jitter)` one-way delay
    /// until `until` (congestion, a struggling middlebox).
    DelaySpike {
        /// Fixed extra one-way delay.
        extra: SimDuration,
        /// Upper bound of the additional uniform jitter.
        jitter: SimDuration,
        /// Virtual end of the spike.
        until: SimTime,
    },
    /// Until `until`, each packet is independently held back by a
    /// uniform `[0, window)` delay with probability `rate` — late
    /// packets overtake and arrive out of order.
    Reorder {
        /// Probability a packet is held back.
        rate: f64,
        /// Maximum hold-back.
        window: SimDuration,
        /// Virtual end of the reorder window.
        until: SimTime,
    },
    /// Until `until`, each UDP datagram is duplicated with probability
    /// `rate` (TCP segments are never duplicated — the model has no
    /// sequence numbers to dedup with).
    Duplicate {
        /// Duplication probability.
        rate: f64,
        /// Virtual end of the window.
        until: SimTime,
    },
    /// The host owning `addr` crashes: its connections die, inbound
    /// packets and pending timers are dropped, `Host::on_crash` runs.
    ServerCrash {
        /// Any address of the host.
        addr: IpAddr,
    },
    /// The host owning `addr` comes back (`Host::on_restart`).
    ServerRestart {
        /// Any address of the host.
        addr: IpAddr,
    },
    /// The *querier* host owning `addr` is power-cycled: killed at the
    /// scheduled time and restarted `down_for` later. Semantically a
    /// crash+restart pair, but named separately because the recovery
    /// study gates on the client-side consequences (re-dispatch of the
    /// dead querier's unacknowledged trace span) rather than on server
    /// availability.
    QuerierCrash {
        /// Any address owned by the querier host.
        addr: IpAddr,
        /// How long the querier stays down before restarting.
        down_for: SimDuration,
    },
    /// Until `until`, packets *delivered to* `addr` take an extra
    /// `factor` × 1 ms processing delay — a host pegged on CPU answers
    /// slowly without losing traffic.
    CpuThrottle {
        /// The throttled host.
        addr: IpAddr,
        /// Slow-down factor (extra delay = factor × 1 ms per packet).
        factor: f64,
        /// Virtual end of the throttle.
        until: SimTime,
    },
}

/// A fault with its activation time.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFault {
    /// When the fault takes effect.
    pub at: SimTime,
    /// What happens.
    pub fault: FaultEvent,
}

/// A complete, self-contained fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's own RNG (loss/reorder/duplicate draws).
    /// Independent from the simulator's seed so the same traffic can be
    /// subjected to different fault draws and vice versa.
    pub seed: u64,
    /// The scheduled faults. [`FaultPlan::sorted`] orders them by time;
    /// the injector requires time order.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Empty plan with a seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Chainable builder: schedule `fault` at `at`.
    pub fn at(mut self, at: SimTime, fault: FaultEvent) -> Self {
        self.faults.push(PlannedFault { at, fault });
        self
    }

    /// The plan with faults stably sorted by activation time.
    pub fn sorted(mut self) -> Self {
        self.faults.sort_by_key(|f| f.at);
        self
    }

    /// Serialize to the line-based text format (see module docs).
    pub fn to_text(&self) -> String {
        let mut out = String::from("faultplan v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        for pf in &self.faults {
            let t = pf.at.as_nanos();
            let line = match &pf.fault {
                FaultEvent::LinkDown { src, dst } => format!("at {t} link_down {src} {dst}"),
                FaultEvent::LinkUp { src, dst } => format!("at {t} link_up {src} {dst}"),
                FaultEvent::LossBurst { rate, until } => {
                    format!("at {t} loss_burst {rate:?} until {}", until.as_nanos())
                }
                FaultEvent::DelaySpike {
                    extra,
                    jitter,
                    until,
                } => format!(
                    "at {t} delay_spike {} jitter {} until {}",
                    extra.as_nanos(),
                    jitter.as_nanos(),
                    until.as_nanos()
                ),
                FaultEvent::Reorder {
                    rate,
                    window,
                    until,
                } => format!(
                    "at {t} reorder {rate:?} window {} until {}",
                    window.as_nanos(),
                    until.as_nanos()
                ),
                FaultEvent::Duplicate { rate, until } => {
                    format!("at {t} duplicate {rate:?} until {}", until.as_nanos())
                }
                FaultEvent::ServerCrash { addr } => format!("at {t} server_crash {addr}"),
                FaultEvent::ServerRestart { addr } => format!("at {t} server_restart {addr}"),
                FaultEvent::QuerierCrash { addr, down_for } => {
                    format!("at {t} querier_crash {addr} down {}", down_for.as_nanos())
                }
                FaultEvent::CpuThrottle {
                    addr,
                    factor,
                    until,
                } => format!(
                    "at {t} cpu_throttle {addr} {factor:?} until {}",
                    until.as_nanos()
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parse the text format back into a plan. Blank lines and `#`
    /// comments are ignored.
    pub fn from_text(text: &str) -> Result<FaultPlan, PlanParseError> {
        let err = |line: usize, msg: &str| PlanParseError {
            line,
            msg: msg.to_string(),
        };
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

        let (ln, header) = lines.next().ok_or_else(|| err(0, "empty plan"))?;
        if header != "faultplan v1" {
            return Err(err(ln, "expected header `faultplan v1`"));
        }
        let (ln, seed_line) = lines.next().ok_or_else(|| err(ln, "missing `seed`"))?;
        let seed = seed_line
            .strip_prefix("seed ")
            .and_then(|s| s.trim().parse::<u64>().ok())
            .ok_or_else(|| err(ln, "expected `seed <u64>`"))?;

        let mut plan = FaultPlan::new(seed);
        for (ln, line) in lines {
            let toks: Vec<&str> = line.split_whitespace().collect();
            let bad = |msg: &str| err(ln, msg);
            if toks.first() != Some(&"at") || toks.len() < 3 {
                return Err(bad("expected `at <ns> <fault> ...`"));
            }
            let at = toks[1]
                .parse::<u64>()
                .map(SimTime::from_nanos)
                .map_err(|_| bad("bad time"))?;
            let ip = |s: &str| s.parse::<IpAddr>().map_err(|_| bad("bad address"));
            // A rate is a probability; a throttle factor scales a delay.
            let rate = |s: &str| match s.parse::<f64>() {
                Ok(r) if (0.0..=1.0).contains(&r) => Ok(r),
                _ => Err(bad("rate must be a number in [0, 1]")),
            };
            let factor = |s: &str| match s.parse::<f64>() {
                Ok(f) if f.is_finite() && f >= 0.0 => Ok(f),
                _ => Err(bad("factor must be a finite number ≥ 0")),
            };
            let dur = |s: &str| {
                s.parse::<u64>()
                    .map(SimDuration::from_nanos)
                    .map_err(|_| bad("bad duration"))
            };
            let time = |s: &str| {
                s.parse::<u64>()
                    .map(SimTime::from_nanos)
                    .map_err(|_| bad("bad time"))
            };
            let kw = |i: usize, want: &str| {
                if toks.get(i) == Some(&want) {
                    Ok(())
                } else {
                    Err(err(ln, "malformed fault line"))
                }
            };
            let arg = |i: usize| {
                toks.get(i)
                    .copied()
                    .ok_or_else(|| err(ln, "truncated fault line"))
            };
            let fault = match toks[2] {
                "link_down" => FaultEvent::LinkDown {
                    src: ip(arg(3)?)?,
                    dst: ip(arg(4)?)?,
                },
                "link_up" => FaultEvent::LinkUp {
                    src: ip(arg(3)?)?,
                    dst: ip(arg(4)?)?,
                },
                "loss_burst" => {
                    kw(4, "until")?;
                    FaultEvent::LossBurst {
                        rate: rate(arg(3)?)?,
                        until: time(arg(5)?)?,
                    }
                }
                "delay_spike" => {
                    kw(4, "jitter")?;
                    kw(6, "until")?;
                    FaultEvent::DelaySpike {
                        extra: dur(arg(3)?)?,
                        jitter: dur(arg(5)?)?,
                        until: time(arg(7)?)?,
                    }
                }
                "reorder" => {
                    kw(4, "window")?;
                    kw(6, "until")?;
                    FaultEvent::Reorder {
                        rate: rate(arg(3)?)?,
                        window: dur(arg(5)?)?,
                        until: time(arg(7)?)?,
                    }
                }
                "duplicate" => {
                    kw(4, "until")?;
                    FaultEvent::Duplicate {
                        rate: rate(arg(3)?)?,
                        until: time(arg(5)?)?,
                    }
                }
                "server_crash" => FaultEvent::ServerCrash { addr: ip(arg(3)?)? },
                "server_restart" => FaultEvent::ServerRestart { addr: ip(arg(3)?)? },
                "querier_crash" => {
                    kw(4, "down")?;
                    FaultEvent::QuerierCrash {
                        addr: ip(arg(3)?)?,
                        down_for: dur(arg(5)?)?,
                    }
                }
                "cpu_throttle" => {
                    kw(5, "until")?;
                    FaultEvent::CpuThrottle {
                        addr: ip(arg(3)?)?,
                        factor: factor(arg(4)?)?,
                        until: time(arg(6)?)?,
                    }
                }
                other => return Err(err(ln, &format!("unknown fault `{other}`"))),
            };
            plan.faults.push(PlannedFault { at, fault });
        }
        Ok(plan)
    }
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line of the offending input (0 = whole document).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for PlanParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultPlan {
        FaultPlan::new(42)
            .at(
                SimTime::from_secs_f64(1.0),
                FaultEvent::LinkDown {
                    src: "10.0.0.1".parse().unwrap(),
                    dst: "10.0.0.2".parse().unwrap(),
                },
            )
            .at(
                SimTime::from_secs_f64(2.5),
                FaultEvent::LossBurst {
                    rate: 0.1,
                    until: SimTime::from_secs_f64(5.0),
                },
            )
            .at(
                SimTime::from_millis(3100),
                FaultEvent::DelaySpike {
                    extra: SimDuration::from_millis(20),
                    jitter: SimDuration::from_millis(5),
                    until: SimTime::from_secs_f64(4.0),
                },
            )
            .at(
                SimTime::from_millis(3200),
                FaultEvent::Reorder {
                    rate: 0.3,
                    window: SimDuration::from_millis(10),
                    until: SimTime::from_secs_f64(4.0),
                },
            )
            .at(
                SimTime::from_millis(3300),
                FaultEvent::Duplicate {
                    rate: 0.05,
                    until: SimTime::from_secs_f64(4.0),
                },
            )
            .at(
                SimTime::from_secs_f64(6.0),
                FaultEvent::ServerCrash {
                    addr: "10.42.0.3".parse().unwrap(),
                },
            )
            .at(
                SimTime::from_secs_f64(9.0),
                FaultEvent::ServerRestart {
                    addr: "10.42.0.3".parse().unwrap(),
                },
            )
            .at(
                SimTime::from_secs_f64(10.0),
                FaultEvent::CpuThrottle {
                    addr: "10.42.0.4".parse().unwrap(),
                    factor: 3.5,
                    until: SimTime::from_secs_f64(12.0),
                },
            )
            .at(
                SimTime::from_secs_f64(11.0),
                FaultEvent::QuerierCrash {
                    addr: "10.1.0.1".parse().unwrap(),
                    down_for: SimDuration::from_millis(170),
                },
            )
    }

    #[test]
    fn text_round_trips_every_variant() {
        let plan = sample();
        let text = plan.to_text();
        let back = FaultPlan::from_text(&text).expect("parses");
        assert_eq!(plan, back);
        // And the re-serialization is byte-identical.
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "faultplan v1\n# comment\nseed 7\n\n  # another\nat 5 server_crash 10.0.0.1\n";
        let plan = FaultPlan::from_text(text).expect("parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.faults.len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(FaultPlan::from_text("").is_err());
        assert!(FaultPlan::from_text("faultplan v2\nseed 1\n").is_err());
        let e = FaultPlan::from_text("faultplan v1\nseed 1\nat 5 frobnicate 10.0.0.1\n")
            .expect_err("unknown fault");
        assert_eq!(e.line, 3);
        let e = FaultPlan::from_text("faultplan v1\nseed 1\nat 5 loss_burst 0.1\n")
            .expect_err("truncated");
        assert_eq!(e.line, 3);
        // A rate outside [0, 1] and a negative or non-finite factor.
        for bad in [
            "loss_burst NaN until 9",
            "loss_burst 1.5 until 9",
            "reorder -0.1 window 3 until 9",
            "duplicate inf until 9",
            "cpu_throttle 10.0.0.1 -5.0 until 9",
            "cpu_throttle 10.0.0.1 NaN until 9",
        ] {
            let e = FaultPlan::from_text(&format!("faultplan v1\nseed 1\nat 5 {bad}\n"));
            assert_eq!(e.map_err(|e| e.line), Err(3), "{bad}");
        }
    }

    #[test]
    fn sorted_orders_by_time_stably() {
        let plan = FaultPlan::new(1)
            .at(
                SimTime::from_secs_f64(2.0),
                FaultEvent::ServerCrash {
                    addr: "10.0.0.1".parse().unwrap(),
                },
            )
            .at(
                SimTime::from_secs_f64(1.0),
                FaultEvent::ServerCrash {
                    addr: "10.0.0.2".parse().unwrap(),
                },
            )
            .sorted();
        assert!(plan.faults[0].at <= plan.faults[1].at);
    }

    #[test]
    fn exotic_f64s_round_trip() {
        let plan = FaultPlan::new(0).at(
            SimTime::ZERO,
            FaultEvent::LossBurst {
                rate: 0.1 + 0.2,
                until: SimTime::from_nanos(u64::MAX),
            },
        );
        let back = FaultPlan::from_text(&plan.to_text()).expect("parses");
        assert_eq!(plan, back);
    }
}
