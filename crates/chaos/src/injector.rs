//! The plan-driven [`FaultInjector`]: applies a [`FaultPlan`]'s
//! packet-affecting faults inside the simulator's delivery path.
//!
//! Determinism: the injector advances through the plan lazily as the
//! simulator consults it — events with `at <= now` are applied in plan
//! order, so its window state at any consult is a pure function of the
//! consult time. Randomness is **stateless**: every draw is a hash of
//! `(plan seed, now, src, dst, bytes, draw site)` ([`packet_draw`]),
//! never a stream position. That makes the injector's decisions
//! placement-invariant: the per-shard replicas a sharded run installs
//! (`ldp-shard`) each see only their own shard's packets, yet compute
//! exactly the fates the single injector of a single-shard run
//! computes — same seed → byte-identical transcripts at any shard
//! count.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{IpAddr, SocketAddr};

use netsim::{packet_draw, FaultInjector, PacketFate, SimDuration, SimTime, WireKind};

use crate::plan::{FaultEvent, FaultPlan};

/// Delay standing in for one TCP retransmission when a loss burst hits
/// a TCP segment (the connection model has no retransmit, so hard-
/// dropping the segment would abort the connection; real stacks retry
/// after ~RTO instead). Linux's minimum RTO: 200 ms.
const TCP_LOSS_PENALTY_NS: u64 = 200_000_000;

/// Extra delay unit for [`FaultEvent::CpuThrottle`]: a throttled host's
/// inbound packets each take `factor` × this long extra (1 ms).
const THROTTLE_UNIT_NS: f64 = 1_000_000.0;

/// Spacing between a duplicated datagram and its copy (500 µs).
const DUPLICATE_GAP_NS: u64 = 500_000;

/// The latest instant a packet's extra delay may carry it to. A packet
/// the plan would delay past it is dropped instead: no run gets there,
/// and the simulator's `now + path delay + extra` must not overflow.
const LATEST_NS: u64 = u64::MAX / 2;

/// A [`FaultInjector`] executing one [`FaultPlan`].
pub struct PlanInjector {
    seed: u64,
    /// Time-sorted plan, applied lazily as `fate` is consulted.
    timeline: Vec<(SimTime, FaultEvent)>,
    next: usize,
    /// Directed paths currently black.
    links_down: BTreeSet<(IpAddr, IpAddr)>,
    /// Active loss burst: (rate, until). A later burst replaces it.
    loss: Option<(f64, SimTime)>,
    /// Active delay spike: (extra, jitter, until).
    spike: Option<(SimDuration, SimDuration, SimTime)>,
    /// Active reorder window: (rate, hold-back window, until).
    reorder: Option<(f64, SimDuration, SimTime)>,
    /// Active duplication window: (rate, until).
    duplicate: Option<(f64, SimTime)>,
    /// Per-host CPU throttle: addr → (factor, until).
    throttle: BTreeMap<IpAddr, (f64, SimTime)>,
}

impl PlanInjector {
    /// Injector for `plan`. Crash/restart events are ignored here —
    /// [`crate::scenario::install`] schedules those as the simulator's
    /// own host-fault events; the injector only shapes packets.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut timeline: Vec<(SimTime, FaultEvent)> = plan
            .faults
            .iter()
            .map(|pf| (pf.at, pf.fault.clone()))
            .collect();
        timeline.sort_by_key(|(at, _)| *at);
        PlanInjector {
            seed: plan.seed,
            timeline,
            next: 0,
            links_down: BTreeSet::new(),
            loss: None,
            spike: None,
            reorder: None,
            duplicate: None,
            throttle: BTreeMap::new(),
        }
    }

    /// Apply every plan event scheduled at or before `now`.
    fn advance(&mut self, now: SimTime) {
        while let Some((at, fault)) = self.timeline.get(self.next) {
            if *at > now {
                break;
            }
            match fault {
                FaultEvent::LinkDown { src, dst } => {
                    self.links_down.insert((*src, *dst));
                }
                FaultEvent::LinkUp { src, dst } => {
                    self.links_down.remove(&(*src, *dst));
                }
                FaultEvent::LossBurst { rate, until } => self.loss = Some((*rate, *until)),
                FaultEvent::DelaySpike {
                    extra,
                    jitter,
                    until,
                } => {
                    self.spike = Some((*extra, *jitter, *until));
                }
                FaultEvent::Reorder {
                    rate,
                    window,
                    until,
                } => {
                    self.reorder = Some((*rate, *window, *until));
                }
                FaultEvent::Duplicate { rate, until } => self.duplicate = Some((*rate, *until)),
                FaultEvent::CpuThrottle {
                    addr,
                    factor,
                    until,
                } => {
                    self.throttle.insert(*addr, (*factor, *until));
                }
                // Crash/restart are host-level, not packet-level: they
                // are host-fault events in the simulator's queue.
                FaultEvent::ServerCrash { .. }
                | FaultEvent::ServerRestart { .. }
                | FaultEvent::QuerierCrash { .. } => {}
            }
            self.next += 1;
        }
    }
}

/// Distinct draw sites, so one packet's loss, jitter, reorder and
/// duplicate draws are independent of each other (and of netsim's
/// path-loss draw, site 6).
const SITE_LOSS: u64 = 1;
const SITE_JITTER: u64 = 2;
const SITE_REORDER: u64 = 3;
const SITE_REORDER_WINDOW: u64 = 4;
const SITE_DUPLICATE: u64 = 5;

impl FaultInjector for PlanInjector {
    fn fate(
        &mut self,
        now: SimTime,
        src: SocketAddr,
        dst: SocketAddr,
        kind: WireKind,
        bytes: usize,
    ) -> PacketFate {
        self.advance(now);

        // Link cuts are absolute: no draws, no delay math.
        if self.links_down.contains(&(src.ip(), dst.ip())) {
            return PacketFate::DROP;
        }

        // One stateless draw per site, independent of every other
        // packet ever consulted — so shard replicas that each see a
        // subset of the traffic still agree with the single-shard
        // injector.
        let frac = |site| packet_draw(self.seed, site, now, src, dst, bytes);

        let mut fate = PacketFate::DELIVER;
        // The summed extra delay; `None` once a sum overflows.
        let mut extra_ns = Some(0u64);
        let mut add = |ns: u64| extra_ns = extra_ns.and_then(|sum| sum.checked_add(ns));

        if let Some((rate, until)) = self.loss {
            if now < until && frac(SITE_LOSS) < rate {
                match kind {
                    WireKind::Udp => return PacketFate::DROP,
                    WireKind::Tcp => add(TCP_LOSS_PENALTY_NS),
                }
            }
        }
        if let Some((extra, jitter, until)) = self.spike {
            if now < until {
                add(extra.as_nanos());
                if jitter > SimDuration::ZERO {
                    add((jitter.as_nanos() as f64 * frac(SITE_JITTER)) as u64);
                }
            }
        }
        if let Some((rate, window, until)) = self.reorder {
            if now < until && frac(SITE_REORDER) < rate {
                add((window.as_nanos() as f64 * frac(SITE_REORDER_WINDOW)) as u64);
            }
        }
        if let Some((rate, until)) = self.duplicate {
            if kind == WireKind::Udp && now < until && frac(SITE_DUPLICATE) < rate {
                fate.duplicate = Some(SimDuration::from_nanos(DUPLICATE_GAP_NS));
            }
        }
        if let Some(&(factor, until)) = self.throttle.get(&dst.ip()) {
            if now < until {
                add((factor * THROTTLE_UNIT_NS) as u64);
            }
        }

        let arrives = |ns: &u64| {
            now.as_nanos()
                .checked_add(*ns)
                .is_some_and(|t| t <= LATEST_NS)
        };
        let Some(ns) = extra_ns.filter(arrives) else {
            return PacketFate::DROP;
        };
        fate.extra_delay = SimDuration::from_nanos(ns);
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlannedFault;

    fn sa(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    fn fate_at(inj: &mut PlanInjector, t_s: f64, kind: WireKind) -> PacketFate {
        inj.fate(
            SimTime::from_secs_f64(t_s),
            sa("10.0.0.1:1000"),
            sa("10.0.0.2:53"),
            kind,
            64,
        )
    }

    #[test]
    fn link_down_drops_until_link_up() {
        let plan = FaultPlan::new(1)
            .at(
                SimTime::from_secs_f64(1.0),
                FaultEvent::LinkDown {
                    src: "10.0.0.1".parse().unwrap(),
                    dst: "10.0.0.2".parse().unwrap(),
                },
            )
            .at(
                SimTime::from_secs_f64(2.0),
                FaultEvent::LinkUp {
                    src: "10.0.0.1".parse().unwrap(),
                    dst: "10.0.0.2".parse().unwrap(),
                },
            );
        let mut inj = PlanInjector::new(&plan);
        assert!(
            !fate_at(&mut inj, 0.5, WireKind::Udp).drop,
            "before the cut"
        );
        assert!(fate_at(&mut inj, 1.5, WireKind::Udp).drop, "during the cut");
        // Reverse direction unaffected.
        let rev = inj.fate(
            SimTime::from_secs_f64(1.5),
            sa("10.0.0.2:53"),
            sa("10.0.0.1:1000"),
            WireKind::Udp,
            64,
        );
        assert!(!rev.drop, "cut is directional");
        assert!(!fate_at(&mut inj, 2.5, WireKind::Udp).drop, "after heal");
    }

    #[test]
    fn loss_burst_drops_udp_but_delays_tcp() {
        let plan = FaultPlan::new(7).at(
            SimTime::ZERO,
            FaultEvent::LossBurst {
                rate: 1.0,
                until: SimTime::from_secs_f64(10.0),
            },
        );
        let mut inj = PlanInjector::new(&plan);
        assert!(fate_at(&mut inj, 1.0, WireKind::Udp).drop);
        let tcp = fate_at(&mut inj, 1.0, WireKind::Tcp);
        assert!(!tcp.drop, "TCP loss is a delay penalty, not an abort");
        assert_eq!(
            tcp.extra_delay,
            SimDuration::from_nanos(TCP_LOSS_PENALTY_NS)
        );
        // Window expiry.
        assert!(!fate_at(&mut inj, 11.0, WireKind::Udp).drop);
    }

    #[test]
    fn delay_spike_adds_bounded_jitter() {
        let plan = FaultPlan::new(3).at(
            SimTime::ZERO,
            FaultEvent::DelaySpike {
                extra: SimDuration::from_millis(20),
                jitter: SimDuration::from_millis(5),
                until: SimTime::from_secs_f64(10.0),
            },
        );
        let mut inj = PlanInjector::new(&plan);
        for _ in 0..100 {
            let f = fate_at(&mut inj, 1.0, WireKind::Udp);
            assert!(f.extra_delay >= SimDuration::from_millis(20));
            assert!(f.extra_delay < SimDuration::from_millis(25));
        }
    }

    #[test]
    fn duplicate_is_udp_only() {
        let plan = FaultPlan::new(5).at(
            SimTime::ZERO,
            FaultEvent::Duplicate {
                rate: 1.0,
                until: SimTime::from_secs_f64(10.0),
            },
        );
        let mut inj = PlanInjector::new(&plan);
        assert!(fate_at(&mut inj, 1.0, WireKind::Udp).duplicate.is_some());
        assert!(fate_at(&mut inj, 1.0, WireKind::Tcp).duplicate.is_none());
    }

    #[test]
    fn cpu_throttle_delays_inbound_to_target_only() {
        let plan = FaultPlan::new(5).at(
            SimTime::ZERO,
            FaultEvent::CpuThrottle {
                addr: "10.0.0.2".parse().unwrap(),
                factor: 3.0,
                until: SimTime::from_secs_f64(10.0),
            },
        );
        let mut inj = PlanInjector::new(&plan);
        let hit = fate_at(&mut inj, 1.0, WireKind::Udp);
        assert_eq!(hit.extra_delay, SimDuration::from_millis(3));
        let miss = inj.fate(
            SimTime::from_secs_f64(1.0),
            sa("10.0.0.2:53"),
            sa("10.0.0.9:1000"),
            WireKind::Udp,
            64,
        );
        assert_eq!(miss.extra_delay, SimDuration::ZERO);
    }

    #[test]
    fn same_seed_same_draw_sequence() {
        let plan = FaultPlan::new(99).at(
            SimTime::ZERO,
            FaultEvent::LossBurst {
                rate: 0.5,
                until: SimTime::from_secs_f64(100.0),
            },
        );
        let run = || {
            let mut inj = PlanInjector::new(&plan);
            (0..200)
                .map(|i| fate_at(&mut inj, i as f64 * 0.1, WireKind::Udp).drop)
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unsorted_plan_is_normalized() {
        let mut plan = FaultPlan::new(1);
        plan.faults.push(PlannedFault {
            at: SimTime::from_secs_f64(2.0),
            fault: FaultEvent::LossBurst {
                rate: 1.0,
                until: SimTime::from_secs_f64(3.0),
            },
        });
        plan.faults.push(PlannedFault {
            at: SimTime::from_secs_f64(1.0),
            fault: FaultEvent::LinkDown {
                src: "10.0.0.1".parse().unwrap(),
                dst: "10.0.0.9".parse().unwrap(),
            },
        });
        let mut inj = PlanInjector::new(&plan);
        // At t=2.5 both events applied despite out-of-order declaration.
        assert!(fate_at(&mut inj, 2.5, WireKind::Udp).drop);
    }
}
