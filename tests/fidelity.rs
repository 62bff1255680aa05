//! Integration: failure injection on the simulated network path.
//! Replay over real loopback sockets (the §4 validation's path) is
//! checked for delivery by `ldp-core`'s session tests; how close its
//! arrival times and rates come is what `fig06_07_08` measures.

/// Packet loss on the simulated path degrades but does not wedge the
/// hierarchy emulation: the resolver retries and still answers most
/// queries (failure injection).
#[test]
fn emulation_survives_packet_loss() {
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
