//! What-if: a random-subdomain DoS attack against an authoritative
//! server, with and without Response Rate Limiting — the "server under
//! stress" application the paper motivates (§1) and lists among the
//! studies LDplayer enables.
//!
//! Run: `cargo run --release --example attack_study`

use std::sync::{Arc, Mutex};

use ldplayer::netsim::{PathConfig, SimConfig, SimDuration, SimTime, Simulator, Topology};
use ldplayer::replay::{LatencyLog, SimReplayClient};
use ldplayer::server::{RrlConfig, ServerEngine, SimDnsServer};
use ldplayer::trace::TraceEntry;
use ldplayer::wire::{RData, Record, RecordType, Soa};
use ldplayer::workloads::AttackSpec;
use ldplayer::zone::{Catalog, Zone};

/// The victim zone: real names only, no wildcard — junk gets NXDOMAIN.
fn victim_zone() -> Zone {
    let mut z = Zone::new("victim.example".parse().unwrap());
    z.insert(Record::new(
        "victim.example".parse().unwrap(),
        3600,
        RData::Soa(Soa {
            mname: "ns1.victim.example".parse().unwrap(),
            rname: "hostmaster.victim.example".parse().unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }),
    ))
    .unwrap();
    z.insert(Record::new(
        "victim.example".parse().unwrap(),
        3600,
        RData::Ns("ns1.victim.example".parse().unwrap()),
    ))
    .unwrap();
    for host in ["ns1", "www", "mail", "api"] {
        z.insert(Record::new(
            format!("{host}.victim.example").parse().unwrap(),
            300,
            RData::A("203.0.113.10".parse().unwrap()),
        ))
        .unwrap();
    }
    z
}

fn main() {
    // Legitimate background: 100 q/s for 60 s from 200 clients spread
    // across many /24s (RRL accounts per /24).
    let legit: Vec<TraceEntry> = (0..6000u64)
        .map(|i| {
            let client = i % 200;
            TraceEntry::query(
                i * 10_000,
                format!("10.{}.{}.{}:5000", 1 + client / 16, client % 16, 1 + i % 50)
                    .parse()
                    .unwrap(),
                "10.99.0.1:53".parse().unwrap(),
                (i % 65536) as u16,
                format!(
                    "{}.victim.example",
                    ["www", "mail", "api"][(i % 3) as usize]
                )
                .parse()
                .unwrap(),
                RecordType::A,
            )
        })
        .collect();

    // Attack: 5 k q/s random-subdomain flood for 20 s, starting at t=20.
    let attack = AttackSpec {
        rate: 5_000.0,
        duration_secs: 20.0,
        start_secs: 20.0,
        bots: 300,
        victim_zone: "victim.example".into(),
        ..Default::default()
    };
    let merged = attack.overlay(&legit, 2);
    println!(
        "workload: {} legitimate + {} attack queries ({} total)",
        legit.len(),
        merged.len() - legit.len(),
        merged.len()
    );

    for rrl_on in [false, true] {
        let mut catalog = Catalog::new();
        catalog.insert(victim_zone());
        let engine = Arc::new(ServerEngine::with_catalog(catalog));
        let server_addr: std::net::SocketAddr = "10.99.0.1:53".parse().unwrap();
        let mut server = SimDnsServer::new(engine, server_addr, Some(SimDuration::from_secs(20)));
        if rrl_on {
            server = server.with_rrl(RrlConfig {
                responses_per_second: 20,
                window_secs: 10,
                slip: 2,
                ..Default::default()
            });
        }
        let mut sim = Simulator::new(
            Topology::uniform(PathConfig::with_rtt(SimDuration::from_millis(10))),
            SimConfig::default(),
        );
        let server_id = sim.add_host(&[server_addr.ip()], Box::new(server));
        let log: LatencyLog = Arc::new(Mutex::new(vec![]));
        let client = SimReplayClient::new(merged.clone(), server_addr, log.clone());
        let sources = client.source_addrs();
        let client_id = sim.add_host(&sources, Box::new(client));
        SimReplayClient::schedule(&mut sim, client_id, &merged, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(90.0));

        // Who got a reply? Legitimate clients are 10.x, bots 172.x.
        // (With slip=2, half of the rate-limited flood still receives a
        // minimal TC=1 reply — counted here — and half gets silence.)
        let answers = log.lock().unwrap();
        let legit_answered = answers
            .iter()
            .filter(|r| r.source.to_string().starts_with("10."))
            .count();
        let bots_answered = answers.len() - legit_answered;
        let stats = sim.stats(server_id);
        println!(
            "\nRRL {}: server tx {} responses",
            if rrl_on { "ON " } else { "OFF" },
            stats.udp_tx
        );
        println!(
            "  legitimate answered: {:>6}/{}   attack answered: {:>6}/{}",
            legit_answered,
            legit.len(),
            bots_answered,
            merged.len() - legit.len()
        );
        if rrl_on {
            println!("  → RRL groups the flood's NXDOMAINs into one bucket per bot /24");
            println!("    and drops or truncates them, while every legitimate client");
            println!("    keeps its full answers.");
        }
    }
}
