//! The shared testbed's own contracts: the set-up bounds that keep
//! ids and addresses from aliasing, a plan's crashes firing on
//! schedule, and the [`StubSwarm`] semantics the outage (retrying) and
//! delayed-hits (`max_attempts = 1`) studies both rely on.

use std::net::{IpAddr, SocketAddr};

use dns_wire::{Message, Name, Rcode, RecordType};
use dns_zone::zone::Zone;
use ldp_chaos::scenario::{self, a_record, server_addrs, simulator, StubRecord, StubSwarm};
use ldp_chaos::scenario::{install, RESOLVER};
use ldp_chaos::{FaultEvent, FaultPlan};
use netsim::{Ctx, Host, HostStats, PacketBytes, SimDuration, SimTime, TcpEvent};

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

#[test]
#[should_panic(expected = "servers ≤ 254")]
fn farm_rejects_more_servers_than_addresses() {
    let full = server_addrs(254);
    assert_eq!(full[253], "10.13.0.254".parse::<IpAddr>().unwrap());
    server_addrs(255);
}

#[test]
#[should_panic(expected = "queries ≤ 65536")]
fn swarm_rejects_more_queries_than_message_ids() {
    let queries = vec![(name("q."), false); (1 << 16) + 1];
    let mut sim = simulator(SimDuration::from_millis(10), 1);
    let (gap, at) = (SimDuration::ZERO, SimTime::ZERO);
    StubSwarm::spawn(&mut sim, queries, 1, gap, at, gap);
}

/// The plan is installed before the server it crashes is added: a
/// host fault resolves its address when it fires.
#[test]
fn crash_and_restart_fire_on_schedule() {
    let mut sim = simulator(SimDuration::from_millis(10), 0);
    let target = scenario::server_addr(0);
    let at = SimTime::from_secs_f64;
    let plan = FaultPlan::new(1)
        .at(at(1.0), FaultEvent::ServerCrash { addr: target })
        .at(at(2.0), FaultEvent::ServerRestart { addr: target });
    install(&mut sim, &plan);
    scenario::server_farm(&mut sim, Zone::new(Name::root()), &[target]);

    assert!(!sim.host_is_down(target));
    sim.run_until(at(1.5));
    assert!(sim.host_is_down(target), "crash fired at t=1s");
    sim.run_until(at(2.5));
    assert!(!sim.host_is_down(target), "restart fired at t=2s");
}

/// A server scripted by query name: answers, SERVFAILs, NXDOMAINs, or
/// (`twice.`) answers and then contradicts itself 1 ms later.
#[derive(Default)]
struct Scripted {
    late: Option<(SocketAddr, SocketAddr, Message)>,
}

impl Host for Scripted {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: SocketAddr, to: SocketAddr, data: PacketBytes) {
        let query = Message::decode(&data).unwrap();
        let qname = query.questions[0].name.clone();
        let mut reply = Message::query(query.id, qname.clone(), RecordType::A);
        reply.flags.response = true;
        match qname.to_string().as_str() {
            "servfail." => reply.rcode = Rcode::ServFail,
            "nx." => reply.rcode = Rcode::NxDomain,
            "twice." => {
                let mut dup = reply.clone();
                dup.rcode = Rcode::ServFail;
                self.late = Some((to, from, dup));
                ctx.set_timer(SimDuration::from_millis(1), 0);
                reply.answers.push(a_record(qname, 60, 0));
            }
            _ => reply.answers.push(a_record(qname, 60, 0)),
        }
        ctx.send_udp(to, from, reply.encode());
    }
    fn on_tcp_event(&mut self, _: &mut Ctx<'_>, _: TcpEvent) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
        if let Some((from, to, dup)) = self.late.take() {
            ctx.send_udp(from, to, dup.encode());
        }
    }
}

fn swarm_run(max_attempts: u32) -> (Vec<StubRecord>, HostStats) {
    let mut sim = simulator(SimDuration::from_millis(10), 1);
    sim.add_host(&[RESOLVER.ip()], Box::new(Scripted::default()));
    let queries = vec![
        (name("ok."), false),
        (name("servfail."), false),
        (name("nx."), true),
        (name("twice."), false),
        (name("nx."), false),
    ];
    let (retry_gap, gap) = (SimDuration::from_secs(1), SimDuration::from_millis(1));
    let (stub, records) = StubSwarm::spawn(
        &mut sim,
        queries,
        max_attempts,
        retry_gap,
        SimTime::ZERO,
        gap,
    );
    sim.run();
    let records = records.lock().unwrap().clone();
    (records, sim.stats(stub))
}

#[test]
fn one_attempt_is_a_fire_once_stub() {
    let (recs, stats) = swarm_run(1);
    assert_eq!(stats.udp_tx, 5, "one send per query, no retry timers");
    assert!(recs.iter().all(|r| r.attempts == 1 && r.done.is_some()));
    let (ok, servfail, nx, twice, unexpected_nx) = (recs[0], recs[1], recs[2], recs[3], recs[4]);
    assert!(ok.ok && ok.servfails == 0);
    assert!(!servfail.ok, "a SERVFAIL with the budget spent is final");
    assert_eq!(servfail.servfails, 1);
    assert!(nx.ok, "an expected NXDOMAIN counts as ok");
    assert!(twice.ok, "the late duplicate is ignored");
    assert_eq!(twice.servfails, 0);
    assert!(twice.latency() < Some(SimDuration::from_millis(11)));
    assert!(!unexpected_nx.ok, "NXDOMAIN for a name that should exist");
}

#[test]
fn a_retry_budget_keeps_a_failed_query_open() {
    let (recs, stats) = swarm_run(3);
    let servfail = recs[1];
    assert_eq!(servfail.attempts, 3);
    assert_eq!(servfail.servfails, 3);
    assert!(servfail.done.is_some() && !servfail.ok);
    assert_eq!(recs[0].attempts, 1, "an answered query is not resent");
    // ok, nx and twice go out once; servfail and the unexpected
    // NXDOMAIN use their whole budget.
    assert_eq!(stats.udp_tx, 3 + 3 + 3);
}
