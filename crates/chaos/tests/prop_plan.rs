//! Property test: any `FaultPlan` survives a text round-trip exactly —
//! `from_text(to_text(p)) == p`, including awkward f64 rates and
//! extreme timestamps — and the parser never panics.

use ldp_chaos::plan::{FaultEvent, FaultPlan, PlannedFault};
use ldp_rng::check::{check, Gen};
use netsim::{SimDuration, SimTime};

fn arb_ip(g: &mut Gen) -> std::net::IpAddr {
    if g.bool() {
        g.array::<16>().into()
    } else {
        g.array::<4>().into()
    }
}

/// Finite, non-NaN: NaN breaks equality (and makes no sense as a
/// probability); the parser accepts whatever `{:?}` printed.
fn arb_rate(g: &mut Gen) -> f64 {
    match g.below(5) {
        0 => 1.0,
        1 => 0.1 + 0.2,
        2 => f64::MIN_POSITIVE,
        3 => 1.0e-300,
        _ => g.f64(0.0, 1.0),
    }
}

fn arb_time(g: &mut Gen) -> SimTime {
    SimTime::from_nanos(g.u64())
}

fn arb_duration(g: &mut Gen) -> SimDuration {
    SimDuration::from_nanos(g.u64())
}

fn arb_event(g: &mut Gen) -> FaultEvent {
    match g.below(9) {
        0 => FaultEvent::LinkDown {
            src: arb_ip(g),
            dst: arb_ip(g),
        },
        1 => FaultEvent::LinkUp {
            src: arb_ip(g),
            dst: arb_ip(g),
        },
        2 => FaultEvent::LossBurst {
            rate: arb_rate(g),
            until: arb_time(g),
        },
        3 => FaultEvent::DelaySpike {
            extra: arb_duration(g),
            jitter: arb_duration(g),
            until: arb_time(g),
        },
        4 => FaultEvent::Reorder {
            rate: arb_rate(g),
            window: arb_duration(g),
            until: arb_time(g),
        },
        5 => FaultEvent::Duplicate {
            rate: arb_rate(g),
            until: arb_time(g),
        },
        6 => FaultEvent::ServerCrash { addr: arb_ip(g) },
        7 => FaultEvent::ServerRestart { addr: arb_ip(g) },
        _ => FaultEvent::CpuThrottle {
            addr: arb_ip(g),
            factor: arb_rate(g),
            until: arb_time(g),
        },
    }
}

fn arb_plan(g: &mut Gen) -> FaultPlan {
    FaultPlan {
        seed: g.u64(),
        faults: g.vec(0..=23, |g| PlannedFault {
            at: arb_time(g),
            fault: arb_event(g),
        }),
    }
}

#[test]
fn text_round_trip_is_exact() {
    check(256, |g| {
        let plan = arb_plan(g);
        let text = plan.to_text();
        let back = FaultPlan::from_text(&text).expect("own output parses");
        assert_eq!(plan, back);
        // Serialization is a fixed point: re-encoding changes nothing.
        assert_eq!(text, back.to_text());
    });
}

#[test]
fn parser_never_panics() {
    check(256, |g| {
        let _ = FaultPlan::from_text(&g.printable(0..=120));
    });
    // Closer to the grammar: own output with one line mangled.
    check(256, |g| {
        let text = arb_plan(g).to_text();
        let _ = FaultPlan::from_text(&g.corrupt_line(&text));
    });
}
