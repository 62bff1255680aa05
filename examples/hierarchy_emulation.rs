//! Hierarchy emulation end-to-end (paper §2.3–§2.4):
//!
//! 1. generate a recursive-resolver workload across many zones;
//! 2. rebuild every zone the trace touches by one-time queries against
//!    a (simulated) Internet — the Zone Constructor;
//! 3. host ALL reconstructed zones on a single meta-DNS-server with
//!    split-horizon views, behind address-rewriting proxies;
//! 4. replay the workload through a recursive resolver and verify the
//!    answers match what the real multi-server Internet gave.
//!
//! Run: `cargo run --release --example hierarchy_emulation`

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use ldplayer::core::{build_emulation, EmulationConfig};
use ldplayer::netsim::{Ctx, Host, PacketBytes, SimTime, TcpEvent};
use ldplayer::wire::{Message, Rcode};
use ldplayer::workloads::RecursiveSpec;
use ldplayer::zone_construct::{build_from_trace, SimulatedInternet};

struct Stub {
    me: SocketAddr,
    resolver: SocketAddr,
    trace: Vec<ldplayer::trace::TraceEntry>,
    responses: Arc<Mutex<Vec<Message>>>,
}

impl Host for Stub {
    fn on_udp(&mut self, _ctx: &mut Ctx<'_>, _f: SocketAddr, _t: SocketAddr, data: PacketBytes) {
        if let Ok(m) = Message::decode(&data) {
            self.responses.lock().unwrap().push(m);
        }
    }
    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _e: TcpEvent) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(e) = self.trace.get(token as usize) {
            ctx.send_udp(self.me, self.resolver, e.message.encode());
        }
    }
}

fn main() {
    // 1. A department-resolver workload over 60 zones (Rec-17 shape,
    //    scaled down so the example runs in seconds).
    let spec = RecursiveSpec {
        duration_secs: 120.0,
        mean_rate: 4.0,
        zones: 60,
        ..RecursiveSpec::rec_17()
    };
    let trace = spec.generate(2018);
    println!(
        "workload: {} stub queries over {} zones",
        trace.len(),
        spec.zones
    );

    // 2. One-time zone construction against the simulated Internet.
    let mut internet = SimulatedInternet::new(&spec.zone_names(), RecursiveSpec::host_labels());
    println!(
        "simulated internet: {} authoritative servers",
        internet.server_count()
    );
    let hierarchy = build_from_trace(&trace, &mut internet);
    println!(
        "constructed {} zones ({} unresolved, {} conflicting records, {} one-time queries)",
        hierarchy.zones.len(),
        hierarchy.unresolved.len(),
        hierarchy.conflicts,
        internet.queries_served,
    );

    // 3. The meta-DNS-server testbed: every zone on ONE server.
    let mut emu = build_emulation(&hierarchy, EmulationConfig::default());
    println!(
        "meta-DNS-server hosts {} views behind {} emulated nameserver addresses",
        hierarchy.zones.len(),
        hierarchy.all_server_addrs().len()
    );

    // 4. Replay the stub queries through the emulated hierarchy.
    let responses = Arc::new(Mutex::new(vec![]));
    let stub = emu.sim.add_host(
        &["10.2.200.1".parse().unwrap()],
        Box::new(Stub {
            me: "10.2.200.1:6000".parse().unwrap(),
            resolver: emu.resolver_addr,
            trace: trace.clone(),
            responses: responses.clone(),
        }),
    );
    let t0 = trace[0].time_us;
    for (i, e) in trace.iter().enumerate() {
        emu.sim
            .schedule_timer(stub, SimTime::from_micros(e.time_us - t0), i as u64);
    }
    emu.sim
        .run_until(SimTime::from_secs_f64(spec.duration_secs + 30.0));

    let responses = responses.lock().unwrap();
    let ok = responses
        .iter()
        .filter(|r| r.rcode == Rcode::NoError && !r.answers.is_empty())
        .count();
    let meta = emu.sim.stats(emu.meta_server);
    println!(
        "replayed: {}/{} stub queries answered positively",
        ok,
        trace.len()
    );
    println!(
        "meta server handled {} iterative queries on a single instance \
         (cache kept the recursive from re-walking: {:.1} upstream q/stub q)",
        meta.udp_rx,
        meta.udp_rx as f64 / trace.len() as f64
    );
    assert!(ok * 100 >= trace.len() * 95, "≥95% answered");
    println!("hierarchy emulation OK");
}
