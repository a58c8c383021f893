//! Flow-expiry scans: a switch scans its table on the 1 s grid exactly
//! while the table holds a rule, so every rule is evicted at the grid
//! instant a scan chain running since time zero would evict it, and a
//! switch without rules schedules no scan at all.

use netsim::{ControllerCtx, ControllerLogic, FaultPlan, NetworkSpec, Simulator, TimerId};
use openflow::{Action, FlowMatch, FlowModCommand, FlowRemovedReason, OfMessage};
use sdn_types::{DatapathId, Duration, MacAddr, PortNo, SimTime};
use tm_telemetry::Telemetry;

const SW1: DatapathId = DatapathId::new(1);

/// Sends one FlowMod Add (match on a destination nobody sends to, so the
/// rule is never hit) at each scripted instant, and records when each
/// `FlowRemoved` reaches it. The control channel adds 1 ms each way.
struct Script {
    /// `(send at, idle timeout in seconds)`; 0 installs a rule that never
    /// expires.
    installs: Vec<(SimTime, u16)>,
    removed: Vec<(SimTime, FlowRemovedReason)>,
}

impl Script {
    fn new(installs: &[(SimTime, u16)]) -> Self {
        Script {
            installs: installs.to_vec(),
            removed: Vec::new(),
        }
    }
}

impl ControllerLogic for Script {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        for (id, &(at, _)) in self.installs.iter().enumerate() {
            ctx.set_timer(at.since(SimTime::ZERO), TimerId(id as u64));
        }
    }

    fn on_message(&mut self, ctx: &mut ControllerCtx<'_>, _: DatapathId, msg: OfMessage) {
        if let OfMessage::FlowRemoved { reason, .. } = msg {
            self.removed.push((ctx.now(), reason));
        }
    }

    fn on_timer(&mut self, ctx: &mut ControllerCtx<'_>, id: TimerId) {
        let Some(&(_, idle)) = usize::try_from(id.0)
            .ok()
            .and_then(|i| self.installs.get(i))
        else {
            return;
        };
        ctx.send(
            SW1,
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                flow_match: FlowMatch::new()
                    .with_eth_dst(MacAddr::from_index(0xbeef + id.0 as u32)),
                priority: 10,
                idle_timeout_secs: idle,
                hard_timeout_secs: 0,
                actions: vec![Action::Output(PortNo::new(1))],
                cookie: 0,
            },
        );
    }
}

/// Runs one switch under `script` (and `plan`) to `until`; returns the
/// `FlowRemoved` arrivals and the expiry scans dispatched.
fn run(
    script: Script,
    plan: FaultPlan,
    until: SimTime,
) -> (Vec<(SimTime, FlowRemovedReason)>, u64) {
    let mut spec = NetworkSpec::new();
    spec.add_switch(SW1);
    spec.set_controller(Box::new(script));
    spec.set_telemetry(Telemetry::new());
    let mut sim = Simulator::with_fault_plan(spec, 7, plan);
    sim.run_until(until);
    let scans = sim
        .metrics_snapshot()
        .counter("netsim.event.switch_expiry_tick")
        .unwrap_or(0);
    let script = sim
        .controller_as::<Script>()
        .expect("the script controller");
    (script.removed.clone(), scans)
}

#[test]
fn an_idle_rule_is_evicted_by_the_first_scan_past_its_deadline() {
    // Installed at 0.4 s (sent 1 ms earlier) with a 5 s idle timeout and
    // never hit: its deadline is 5.4 s, so the 6 s scan evicts it and the
    // notice reaches the controller 1 ms later.
    let script = Script::new(&[(SimTime::from_millis(399), 5)]);
    let (removed, scans) = run(script, FaultPlan::new(), SimTime::from_secs(20));
    assert_eq!(
        removed,
        vec![(SimTime::from_millis(6_001), FlowRemovedReason::IdleTimeout)]
    );
    // Scans at 1..=6 s; the one that empties the table does not re-arm.
    assert_eq!(scans, 6);
}

#[test]
fn a_switch_without_rules_dispatches_no_expiry_scan() {
    let (removed, scans) = run(Script::new(&[]), FaultPlan::new(), SimTime::from_secs(30));
    assert!(removed.is_empty());
    assert_eq!(scans, 0, "an empty table has nothing to scan");
}

#[test]
fn a_restart_wipe_stops_the_scan_chain() {
    // A rule that never expires keeps the chain going until the restart at
    // 2.5 s wipes it: the pending 3 s scan finds the table empty and does
    // not re-arm.
    let mut plan = FaultPlan::new();
    plan.switch_restart(SW1, SimTime::from_millis(2_500), Duration::from_millis(100));
    let script = Script::new(&[(SimTime::ZERO, 0)]);
    let (removed, scans) = run(script, plan, SimTime::from_secs(10));
    assert!(removed.is_empty(), "a wipe sends no FlowRemoved");
    assert_eq!(scans, 3, "scans at 1, 2 and 3 s, then none");
}

#[test]
fn a_rule_installed_after_the_chain_stopped_rearms_on_the_grid() {
    // The first rule (installed at 1 ms, 1 s idle) is evicted at 2 s and
    // the chain stops. The second, installed at 4.501 s, re-arms the chain
    // at 5 s, the next grid instant, not at 5.501 s; the 6 s scan evicts it.
    let script = Script::new(&[(SimTime::ZERO, 1), (SimTime::from_millis(4_500), 1)]);
    let (removed, scans) = run(script, FaultPlan::new(), SimTime::from_secs(10));
    assert_eq!(
        removed,
        vec![
            (SimTime::from_millis(2_001), FlowRemovedReason::IdleTimeout),
            (SimTime::from_millis(6_001), FlowRemovedReason::IdleTimeout),
        ]
    );
    assert_eq!(scans, 4, "scans at 1, 2, 5 and 6 s");
}
