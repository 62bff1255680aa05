//! Integration: replay fidelity over real loopback sockets (the §4
//! validation), at test-friendly scale, plus failure injection on the
//! simulated network path.

use ldplayer::core::{run_fidelity_session, SessionConfig};
use ldplayer::replay::{replay, ReplayConfig};
use ldplayer::workloads::{BRootSpec, SyntheticTraceSpec};

/// These tests assert wall-clock timing over loopback; side by side on
/// a small box they steal each other's CPU, so they run one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Figure 6/7-style validation: replayed arrival timing tracks the
/// original trace within small error for a Poisson (B-Root-like) trace.
#[test]
fn broot_like_replay_timing_is_accurate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let trace = BRootSpec {
        duration_secs: 4.0,
        mean_rate: 250.0,
        clients: 300,
        ..BRootSpec::b_root_16_like()
    }
    .generate(4);
    let config = SessionConfig {
        answer_from: Some("example.com".into()),
        skip_secs: 0.4,
        ..Default::default()
    };
    let report = run_fidelity_session(&trace, &config);
    assert!(
        report.matched as f64 >= trace.len() as f64 * 0.98,
        "matched {}",
        report.matched
    );
    let s = &report.error_summary;
    // Quartiles well inside ±10 ms (paper: ±2.5 ms on dedicated hosts).
    assert!(
        s.q1 > -10.0 && s.q3 < 10.0,
        "quartiles ({}, {})",
        s.q1,
        s.q3
    );
    // Inter-arrival distributions close in KS for a continuous process.
    assert!(
        report.interarrival_ks() < 0.25,
        "KS {}",
        report.interarrival_ks()
    );
}

/// Figure 8-style: per-second rates match within tight bounds.
#[test]
fn per_second_rates_track() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let trace = BRootSpec {
        duration_secs: 6.0,
        mean_rate: 400.0,
        clients: 500,
        ..BRootSpec::b_root_16_like()
    }
    .generate(8);
    let config = SessionConfig {
        answer_from: Some("example.com".into()),
        ..Default::default()
    };
    let report = run_fidelity_session(&trace, &config);
    assert!(!report.rate_differences.is_empty());
    // Middle seconds must be within ±2% (paper: ±0.1% with dedicated
    // hardware and 1-hour windows; short windows are noisier).
    let close = report
        .rate_differences
        .iter()
        .filter(|d| d.abs() <= 0.02)
        .count();
    assert!(
        close * 10 >= report.rate_differences.len() * 7,
        "≥70% of seconds within ±2%: {:?}",
        report.rate_differences
    );
}

/// Fast mode replays a nominally-long trace quickly — the §4.3 load
/// test mode — and the throughput exceeds the trace's nominal rate.
#[test]
fn fast_mode_exceeds_nominal_rate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sink = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = sink.local_addr().unwrap();
    // Nominal: 100 q/s for 30 s. Fast mode must beat that wildly.
    let mut spec = SyntheticTraceSpec::fixed_interarrival(0.01, 30.0);
    spec.client_pool = 100;
    let trace = spec.generate(2);
    let report = replay(
        &trace,
        &ReplayConfig {
            target_udp: addr,
            target_tcp: addr,
            fast_mode: true,
            ..Default::default()
        },
    );
    assert_eq!(report.total_sent as usize, trace.len());
    let qps = report.total_sent as f64 / report.elapsed.as_secs_f64();
    assert!(qps > 10_000.0, "fast mode rate {qps:.0} q/s");
}

/// Packet loss on the simulated path degrades but does not wedge the
/// hierarchy emulation: the resolver retries and still answers most
/// queries (failure injection).
#[test]
fn emulation_survives_packet_loss() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use ldplayer::core::{build_emulation, EmulationConfig};
    use ldplayer::netsim::{
        Ctx, Host, PacketBytes, PathConfig, SimDuration, SimTime, TcpEvent, Topology,
    };
    use ldplayer::wire::{Message, Rcode, RecordType};
    use ldplayer::workloads::RecursiveSpec;
    use ldplayer::zone_construct::{build_from_trace, SimulatedInternet};
    use std::net::SocketAddr;
    use std::sync::{Arc, Mutex};

    let spec = RecursiveSpec {
        duration_secs: 40.0,
        mean_rate: 1.0,
        zones: 8,
        ..RecursiveSpec::rec_17()
    };
    let trace = spec.generate(3);
    let mut internet = SimulatedInternet::new(&spec.zone_names(), RecursiveSpec::host_labels());
    let hierarchy = build_from_trace(&trace, &mut internet);

    // 10% loss on every path.
    let config = EmulationConfig {
        topology: Topology::uniform(PathConfig {
            rtt: SimDuration::from_millis(5),
            bandwidth_bps: None,
            loss: 0.10,
        }),
        ..Default::default()
    };
    let mut emu = build_emulation(&hierarchy, config);

    struct Stub {
        me: SocketAddr,
        resolver: SocketAddr,
        trace: Vec<ldplayer::trace::TraceEntry>,
        ok: Arc<Mutex<usize>>,
    }
    impl Host for Stub {
        fn on_udp(&mut self, _c: &mut Ctx<'_>, _f: SocketAddr, _t: SocketAddr, data: PacketBytes) {
            if let Ok(m) = Message::decode(&data) {
                if m.rcode == Rcode::NoError && !m.answers.is_empty() {
                    *self.ok.lock().unwrap() += 1;
                }
            }
        }
        fn on_tcp_event(&mut self, _c: &mut Ctx<'_>, _e: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if let Some(e) = self.trace.get(token as usize) {
                let mut q = e.message.clone();
                q.questions[0].qtype = RecordType::A;
                ctx.send_udp(self.me, self.resolver, q.encode());
            }
        }
    }
    let ok = Arc::new(Mutex::new(0usize));
    let stub = emu.sim.add_host(
        &["10.2.200.1".parse().unwrap()],
        Box::new(Stub {
            me: "10.2.200.1:6000".parse().unwrap(),
            resolver: emu.resolver_addr,
            trace: trace.clone(),
            ok: ok.clone(),
        }),
    );
    let t0 = trace[0].time_us;
    for (i, e) in trace.iter().enumerate() {
        emu.sim
            .schedule_timer(stub, SimTime::from_micros(e.time_us - t0), i as u64);
    }
    emu.sim.run_until(SimTime::from_secs_f64(120.0));
    let ok = *ok.lock().unwrap();
    // With 10% loss and retries, most queries still succeed; and the
    // run terminates (no wedged state).
    assert!(
        ok * 10 >= trace.len() * 6,
        "{ok}/{} answered under 10% loss",
        trace.len()
    );
}
