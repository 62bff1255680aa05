//! The chaos agent: a simulated host that executes a [`FaultPlan`]'s
//! host-level events (crashes and restarts) at their scheduled virtual
//! times.
//!
//! Packet-level faults (loss, delay, cuts, ...) run inside the
//! simulator's delivery path via [`PlanInjector`]; crashes need a
//! different channel because they act on *hosts*, not packets. The
//! agent is an ordinary [`Host`] with one pre-armed timer per action,
//! so crash timing flows through the same deterministic event queue as
//! everything else.

use std::net::IpAddr;

use netsim::{Ctx, Host, PacketBytes, SimDriver, SimTime, TcpEvent};

use crate::injector::PlanInjector;
use crate::plan::{FaultEvent, FaultPlan};

/// One host-level action the agent performs when its timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Crash(IpAddr),
    Restart(IpAddr),
}

/// A host that crashes and restarts other hosts on schedule.
///
/// Built and wired by [`install`]; it never sends or receives packets.
pub struct ChaosAgent {
    /// Timer token `i` executes `actions[i]`.
    actions: Vec<Action>,
}

impl Host for ChaosAgent {
    fn on_udp(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _from: std::net::SocketAddr,
        _to: std::net::SocketAddr,
        _data: PacketBytes,
    ) {
    }

    fn on_tcp_event(&mut self, _ctx: &mut Ctx<'_>, _event: TcpEvent) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(action) = usize::try_from(token)
            .ok()
            .and_then(|i| self.actions.get(i))
        else {
            return;
        };
        match *action {
            Action::Crash(addr) => ctx.crash_host(addr),
            Action::Restart(addr) => ctx.restart_host(addr),
        }
    }
}

/// The plan's host-level actions as a time-sorted timer schedule.
fn schedule_of(plan: &FaultPlan) -> Vec<(SimTime, Action)> {
    let mut schedule = Vec::new();
    for pf in &plan.faults {
        match pf.fault {
            FaultEvent::ServerCrash { addr } => schedule.push((pf.at, Action::Crash(addr))),
            FaultEvent::ServerRestart { addr } => schedule.push((pf.at, Action::Restart(addr))),
            // A querier power-cycle is one plan line but two timers:
            // the kill and the scheduled comeback.
            FaultEvent::QuerierCrash { addr, down_for } => {
                schedule.push((pf.at, Action::Crash(addr)));
                schedule.push((pf.at + down_for, Action::Restart(addr)));
            }
            _ => {}
        }
    }
    schedule.sort_by_key(|(at, _)| *at);
    schedule
}

/// Wire a [`FaultPlan`] into `sim` — a plain [`netsim::Simulator`] or
/// an `ldp-shard` `ShardedSimulator`, through the one [`SimDriver`]
/// API: installs a [`PlanInjector`] for the packet-level faults and a
/// [`ChaosAgent`] (registered at `agent_addr`) whose timers deliver
/// the plan's crash/restart events.
///
/// On a sharded run every shard gets its own injector replica (safe
/// because its draws are stateless — see [`crate::injector`]) and its
/// own agent replica armed with the same timers; a replica's crash
/// command is a natural no-op on every shard but the target's owner,
/// so exactly one shard acts. The agent is a *control host* — its
/// timer dispatches are excluded from the event count on both engines
/// — so single-shard and sharded transcripts agree byte-for-byte.
///
/// Returns the agent's control-host id. `agent_addr` must be an
/// address not used by any workload host.
pub fn install<S: SimDriver>(sim: &mut S, plan: &FaultPlan, agent_addr: IpAddr) -> usize {
    sim.set_fault_injectors(|_shard| Box::new(PlanInjector::new(plan)));

    let schedule = schedule_of(plan);
    let actions: Vec<Action> = schedule.iter().map(|(_, a)| *a).collect();
    let agent = sim.add_control_host(&[agent_addr], |_shard| {
        Box::new(ChaosAgent {
            actions: actions.clone(),
        })
    });
    for (i, (at, _)) in schedule.iter().enumerate() {
        sim.schedule_control_timer(agent, *at, i as u64);
    }
    agent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use netsim::{SimConfig, SimDuration, SimTime, Simulator, Topology};

    #[test]
    fn crash_and_restart_fire_on_schedule() {
        let mut sim = scenario::simulator(SimDuration::from_millis(10), 0);
        let target = scenario::server_addr(0);
        let zone = dns_zone::zone::Zone::new(dns_wire::name::Name::root());
        scenario::server_farm(&mut sim, zone, &[target]);

        let plan = FaultPlan::new(1)
            .at(
                SimTime::from_secs_f64(1.0),
                FaultEvent::ServerCrash { addr: target },
            )
            .at(
                SimTime::from_secs_f64(2.0),
                FaultEvent::ServerRestart { addr: target },
            );
        install(&mut sim, &plan, scenario::AGENT);

        assert!(!sim.host_is_down(target));
        sim.run_until(SimTime::from_secs_f64(1.5));
        assert!(sim.host_is_down(target), "crash timer fired at t=1s");
        sim.run_until(SimTime::from_secs_f64(2.5));
        assert!(!sim.host_is_down(target), "restart timer fired at t=2s");
    }

    #[test]
    fn out_of_range_token_is_ignored() {
        let topo = Topology::default();
        let mut sim = Simulator::new(topo, SimConfig::default());
        let id = sim.add_host(&[scenario::AGENT], Box::new(ChaosAgent { actions: vec![] }));
        // A stray timer on an empty action table must be a no-op.
        sim.schedule_timer(id, SimTime::from_secs_f64(1.0), 42);
        sim.run();
    }
}
