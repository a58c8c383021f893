//! Fault-injection contract tests.
//!
//! The two load-bearing guarantees of `netsim::faults`:
//!
//! 1. **Zero-cost when disabled** — an empty [`FaultPlan`] produces a
//!    byte-identical run (trace *and* telemetry snapshot) to a run built
//!    without any plan: no events scheduled, no RNG draws, no seq drift.
//! 2. **Deterministic when enabled** — a non-trivial plan is a pure
//!    function of `(scenario, plan, seed)`: two runs are byte-identical.
//!
//! Plus behavioural checks for each fault kind (loss actually drops, flaps
//! produce `PortStatus` edges, restarts wipe the flow table).

use netsim::{
    ControllerCtx, ControllerLogic, FaultPlan, FaultWindow, FrameDisposition, HostApp, HostCtx,
    LinkProfile, LossModel, NetworkSpec, Simulator, TimerId, Trace, TraceKind,
};
use openflow::{Action, FlowMatch, FlowModCommand, OfMessage, PortLinkState};
use sdn_types::packet::{EthernetFrame, Payload};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};
use tm_telemetry::Telemetry;

const SW1: DatapathId = DatapathId::new(1);
const SW2: DatapathId = DatapathId::new(2);
const H1: HostId = HostId::new(1);
const H2: HostId = HostId::new(2);
const TRUNK: PortNo = PortNo::new(2);

/// Installs "everything out port 2" on both switches at start: frames from
/// H1 cross the trunk to SW2 and land on H2. Records each `PortStatus` as
/// (switch, port, new state, when the switch observed it).
#[derive(Default)]
struct StaticForwarder {
    port_status: Vec<(DatapathId, PortNo, PortLinkState, SimTime)>,
}

impl ControllerLogic for StaticForwarder {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        for dpid in [SW1, SW2] {
            ctx.send(
                dpid,
                OfMessage::FlowMod {
                    command: FlowModCommand::Add,
                    flow_match: FlowMatch::new(),
                    priority: 1,
                    idle_timeout_secs: 0,
                    hard_timeout_secs: 0,
                    actions: vec![Action::Output(PortNo::new(2))],
                    cookie: 0,
                },
            );
        }
    }
    fn on_message(&mut self, _ctx: &mut ControllerCtx<'_>, dpid: DatapathId, msg: OfMessage) {
        if let OfMessage::PortStatus {
            desc, observed_at, ..
        } = msg
        {
            self.port_status
                .push((dpid, desc.port_no, desc.state, observed_at));
        }
    }
    fn on_timer(&mut self, _ctx: &mut ControllerCtx<'_>, _id: TimerId) {}
}

/// Counts opaque test frames.
#[derive(Default)]
struct Recorder {
    seen: u64,
}

impl HostApp for Recorder {
    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        if let Payload::Opaque {
            ethertype: 0x1234, ..
        } = &frame.payload
        {
            self.seen += 1;
        }
        FrameDisposition::Consume
    }
}

fn test_frame(i: u16) -> EthernetFrame {
    EthernetFrame::new(
        MacAddr::from_index(1),
        MacAddr::from_index(2),
        Payload::Opaque {
            ethertype: 0x1234,
            data: i.to_le_bytes().to_vec(),
        },
    )
}

/// Two switches, jittered+bursty trunk (so the RNG is exercised hard),
/// a host on each end, static forwarding toward H2.
fn two_switch_spec() -> NetworkSpec {
    let edge = LinkProfile::fixed(Duration::from_millis(1));
    let trunk = LinkProfile::testbed_dataplane();
    let mut spec = NetworkSpec::new();
    spec.add_switch(SW1);
    spec.add_switch(SW2);
    spec.link_switches(SW1, TRUNK, SW2, PortNo::new(1), trunk);
    spec.add_host(H1, MacAddr::from_index(1), IpAddr::new(10, 0, 0, 1));
    spec.add_host(H2, MacAddr::from_index(2), IpAddr::new(10, 0, 0, 2));
    spec.attach_host(H1, SW1, PortNo::new(1), edge);
    spec.attach_host(H2, SW2, PortNo::new(2), edge);
    spec.set_host_app(H2, Box::<Recorder>::default());
    spec.set_controller(Box::<StaticForwarder>::default());
    spec.set_telemetry(Telemetry::new());
    spec
}

/// Drives the same traffic script on any simulator: frame bursts at 1 s
/// intervals for `secs` seconds.
fn drive(sim: &mut Simulator, secs: u16) {
    sim.run_for(Duration::from_millis(10)); // let the wildcard rules land
    for s in 0..secs {
        for i in 0..5_u16 {
            assert!(sim.host_send_frame(H1, test_frame(s * 10 + i)));
        }
        sim.run_for(Duration::from_secs(1));
    }
}

fn fingerprint(sim: &Simulator) -> (Trace, String) {
    (*sim.trace(), sim.metrics_snapshot().render())
}

#[test]
fn empty_fault_plan_is_byte_identical_to_a_run_with_no_plan() {
    for seed in [1_u64, 7, 0xD5_2018] {
        let mut plain = Simulator::new(two_switch_spec(), seed);
        drive(&mut plain, 5);
        let mut with_empty = Simulator::with_fault_plan(two_switch_spec(), seed, FaultPlan::new());
        drive(&mut with_empty, 5);
        let (trace_a, metrics_a) = fingerprint(&plain);
        let (trace_b, metrics_b) = fingerprint(&with_empty);
        assert_eq!(trace_a, trace_b, "seed {seed}: traces diverged");
        assert_eq!(metrics_a, metrics_b, "seed {seed}: snapshots diverged");
        assert!(
            !metrics_a.contains("netsim.fault."),
            "seed {seed}: no fault counters may appear without faults"
        );
    }
}

/// A plan exercising all five fault kinds at once.
fn kitchen_sink_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    let window = FaultWindow::new(SimTime::from_secs(2), SimTime::from_secs(6));
    // Bursty loss on the trunk (SW1 egress) + independent loss on the
    // reverse direction.
    plan.link_loss(
        SW1,
        TRUNK,
        LossModel::gilbert_elliott(0.3, 0.4, 0.05, 0.9),
        window,
    );
    plan.link_loss(SW2, PortNo::new(1), LossModel::bernoulli(0.5), window);
    // Latency spikes with jitter on the trunk.
    plan.latency_spike(
        SW1,
        TRUNK,
        Duration::from_millis(6),
        Duration::from_millis(2),
        window,
    );
    // Flap H2's port mid-run.
    plan.link_flap(
        SW2,
        PortNo::new(2),
        SimTime::from_secs(3),
        SimTime::from_millis(3500),
    );
    // Restart SW1 at 4 s with a 200 ms outage.
    plan.switch_restart(SW1, SimTime::from_secs(4), Duration::from_millis(200));
    // Congest SW1's control channel across the restart (the re-handshake
    // and the post-wipe PacketIns are all delayed).
    plan.ctrl_congestion(
        SW1,
        Duration::from_millis(15),
        FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(7)),
    );
    plan
}

#[test]
fn nontrivial_plan_is_deterministic_across_runs() {
    for seed in [3_u64, 99] {
        let run = |_: ()| {
            let mut sim = Simulator::with_fault_plan(two_switch_spec(), seed, kitchen_sink_plan());
            drive(&mut sim, 8);
            fingerprint(&sim)
        };
        let (trace_a, metrics_a) = run(());
        let (trace_b, metrics_b) = run(());
        assert_eq!(trace_a, trace_b, "seed {seed}: traces diverged");
        assert_eq!(metrics_a, metrics_b, "seed {seed}: snapshots diverged");
    }
}

#[test]
fn every_fault_kind_is_attributed_in_telemetry() {
    let mut sim = Simulator::with_fault_plan(two_switch_spec(), 5, kitchen_sink_plan());
    drive(&mut sim, 8);
    let metrics = sim.metrics_snapshot();
    for counter in [
        "netsim.fault.loss_drops",
        "netsim.fault.latency_spikes",
        "netsim.fault.link_flaps",
        "netsim.fault.switch_restarts",
        "netsim.fault.ctrl_congested_msgs",
    ] {
        assert!(
            metrics.counter(counter).unwrap_or(0) > 0,
            "expected {counter} > 0\n{}",
            metrics.render()
        );
    }
    // One window edge per windowed entry: 2 loss + 1 spike + 1 congestion.
    assert_eq!(metrics.counter("netsim.fault.windows_opened"), Some(4));
}

#[test]
fn total_loss_window_blackholes_the_trunk() {
    let mut plan = FaultPlan::new();
    plan.link_loss(
        SW1,
        TRUNK,
        LossModel::bernoulli(1.0),
        FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(3)),
    );
    let mut sim = Simulator::with_fault_plan(two_switch_spec(), 11, plan);
    sim.run_for(Duration::from_millis(10));

    // Before the window: frames cross.
    for i in 0..5_u16 {
        assert!(sim.host_send_frame(H1, test_frame(i)));
    }
    sim.run_for(Duration::from_millis(500));
    let before = sim.host_app_as::<Recorder>(H2).expect("recorder").seen;
    assert_eq!(before, 5, "pre-window frames must arrive");

    // Inside the window: every trunk transit is eaten.
    sim.run_until(SimTime::from_millis(1500));
    for i in 10..15_u16 {
        assert!(sim.host_send_frame(H1, test_frame(i)));
    }
    sim.run_until(SimTime::from_millis(2500));
    let during = sim.host_app_as::<Recorder>(H2).expect("recorder").seen;
    assert_eq!(during, before, "in-window frames must be dropped");

    // After the window: connectivity returns.
    sim.run_until(SimTime::from_secs(4));
    for i in 20..25_u16 {
        assert!(sim.host_send_frame(H1, test_frame(i)));
    }
    sim.run_for(Duration::from_secs(1));
    let after = sim.host_app_as::<Recorder>(H2).expect("recorder").seen;
    assert_eq!(after, before + 5, "post-window frames must arrive");

    let metrics = sim.metrics_snapshot();
    assert_eq!(metrics.counter("netsim.fault.loss_drops"), Some(5));
    assert_eq!(sim.trace().count(TraceKind::Dropped), 5);
}

#[test]
fn link_flap_emits_port_down_then_port_up() {
    let mut plan = FaultPlan::new();
    plan.link_flap(
        SW2,
        PortNo::new(2),
        SimTime::from_secs(2),
        SimTime::from_secs(3),
    );
    let mut sim = Simulator::with_fault_plan(two_switch_spec(), 21, plan);
    sim.run_for(Duration::from_secs(5));
    let ctrl: &StaticForwarder = sim.controller_as().expect("controller type");
    let flapped = |state, at| {
        ctrl.port_status
            .iter()
            .filter(|&&e| e == (SW2, PortNo::new(2), state, at))
            .count()
    };
    assert_eq!(
        flapped(PortLinkState::Down, SimTime::from_secs(2)),
        1,
        "one PortDown at the flap edge"
    );
    assert_eq!(
        flapped(PortLinkState::Up, SimTime::from_secs(3)),
        1,
        "one PortUp at the flap edge"
    );
    assert_eq!(
        sim.metrics_snapshot().counter("netsim.fault.link_flaps"),
        Some(1)
    );
}

#[test]
fn switch_restart_wipes_the_flow_table() {
    let mut plan = FaultPlan::new();
    plan.switch_restart(SW1, SimTime::from_secs(2), Duration::from_millis(100));
    let mut sim = Simulator::with_fault_plan(two_switch_spec(), 31, plan);
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        sim.flow_count(SW1),
        Some(1),
        "rule installed before restart"
    );
    sim.run_for(Duration::from_secs(2));
    assert_eq!(sim.flow_count(SW1), Some(0), "restart wiped the table");
    assert_eq!(
        sim.metrics_snapshot()
            .counter("netsim.fault.switch_restarts"),
        Some(1)
    );
}
