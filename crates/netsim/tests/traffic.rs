//! Flow-level traffic-engine contract tests.
//!
//! The two load-bearing guarantees of `netsim::traffic`:
//!
//! 1. **Zero-cost when disabled** — an empty [`TrafficPlan`] produces a
//!    byte-identical run (trace *and* telemetry snapshot) to a run built
//!    without any plan: no aggregation hosts, no events, no RNG streams.
//! 2. **Deterministic when enabled** — a non-trivial plan is a pure
//!    function of `(scenario, plan, seed)`: two runs are byte-identical.
//!
//! Plus behavioural checks: flows aggregate (packet counters advance far
//! faster than expanded frames), expansion happens only at the ARP /
//! first-packet boundaries, and arrival chains respect their windows.

use netsim::traffic::{ArrivalProcess, SizeMix};
use netsim::{
    DemandProfile, LinkProfile, NetworkSpec, Simulator, Trace, TrafficPlan, TrafficWindow,
};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};
use tm_telemetry::Telemetry;

const SW1: DatapathId = DatapathId::new(1);
const SW2: DatapathId = DatapathId::new(2);
const H1: HostId = HostId::new(1);
const H2: HostId = HostId::new(2);
const TRUNK: PortNo = PortNo::new(2);
const AGG: PortNo = PortNo::new(3);

/// Two switches with a jittered trunk and one real host each; traffic
/// groups park on port 3 of either switch.
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
    spec.set_telemetry(Telemetry::new());
    spec
}

fn window() -> TrafficWindow {
    TrafficWindow::new(SimTime::from_secs(1), SimTime::from_secs(6))
}

/// A two-group plan exercising both arrival processes: steady Poisson
/// demand on SW1, bursty on/off demand on SW2.
fn two_group_plan() -> TrafficPlan {
    let mut plan = TrafficPlan::new();
    plan.group(SW1, AGG, 500, DemandProfile::datacenter(0.4), window());
    plan.group(SW2, AGG, 300, DemandProfile::bursty(1.0), window());
    plan
}

fn fingerprint(sim: &Simulator) -> (Trace, String) {
    (*sim.trace(), sim.metrics_snapshot().render())
}

#[test]
fn empty_traffic_plan_is_byte_identical_to_a_run_with_no_plan() {
    for seed in [1_u64, 7, 0xD5_2018] {
        let mut plain = Simulator::new(two_switch_spec(), seed);
        plain.run_for(Duration::from_secs(5));
        let mut with_empty =
            Simulator::with_traffic_plan(two_switch_spec(), seed, TrafficPlan::new());
        with_empty.run_for(Duration::from_secs(5));
        let (trace_a, metrics_a) = fingerprint(&plain);
        let (trace_b, metrics_b) = fingerprint(&with_empty);
        assert_eq!(trace_a, trace_b, "seed {seed}: traces diverged");
        assert_eq!(metrics_a, metrics_b, "seed {seed}: snapshots diverged");
        assert!(
            !metrics_a.contains("traffic."),
            "seed {seed}: no traffic counters may appear without a plan"
        );
    }
}

#[test]
fn nontrivial_plan_is_deterministic_across_runs() {
    for seed in [3_u64, 99] {
        let run = |_: ()| {
            let mut sim = Simulator::with_traffic_plan(two_switch_spec(), seed, two_group_plan());
            sim.run_for(Duration::from_secs(8));
            fingerprint(&sim)
        };
        let (trace_a, metrics_a) = run(());
        let (trace_b, metrics_b) = run(());
        assert_eq!(trace_a, trace_b, "seed {seed}: traces diverged");
        assert_eq!(metrics_a, metrics_b, "seed {seed}: snapshots diverged");
    }
}

#[test]
fn flows_aggregate_instead_of_expanding() {
    let mut sim = Simulator::with_traffic_plan(two_switch_spec(), 5, two_group_plan());
    sim.run_for(Duration::from_secs(8));
    let metrics = sim.metrics_snapshot();
    let offered = metrics.counter("traffic.flows_offered").unwrap_or(0);
    let aggregated = metrics.counter("traffic.packets_aggregated").unwrap_or(0);
    let expanded = metrics.counter("traffic.packets_expanded").unwrap_or(0);
    let announced = metrics.counter("traffic.hosts_announced").unwrap_or(0);
    assert!(offered > 100, "expected real load, got {offered} flows");
    assert!(
        aggregated > 50 * expanded.max(1),
        "aggregation is the whole point: {aggregated} aggregated vs {expanded} expanded"
    );
    // Expansions are bounded by the boundaries: one ARP per announced host
    // plus one first packet per cold edge-pair aggregate.
    let first_packets = metrics
        .counter("traffic.expansions_first_packet")
        .unwrap_or(0);
    assert_eq!(
        expanded,
        announced + first_packets,
        "every expanded frame must be an ARP or a first packet"
    );
    // Aggregate accounting advanced the ingress port counters by whole
    // flows: far more packets than frames ever crossed the port.
    let stats = sim.port_stats(SW1).expect("switch exists");
    let agg_port = stats
        .iter()
        .find(|p| p.port_no == AGG)
        .expect("aggregation port");
    assert!(
        agg_port.rx_packets > aggregated / 2,
        "ingress counters must advance in O(flows): {} rx vs {aggregated} aggregated",
        agg_port.rx_packets
    );
}

#[test]
fn arrival_chains_respect_their_windows() {
    let mut sim = Simulator::with_traffic_plan(two_switch_spec(), 9, two_group_plan());
    // Before the window opens: nothing offered.
    sim.run_until(SimTime::from_millis(900));
    assert_eq!(
        sim.metrics_snapshot().counter("traffic.flows_offered"),
        None,
        "no flows before the window"
    );
    // After the window closes: the offered count freezes.
    sim.run_until(SimTime::from_secs(7));
    let at_close = sim
        .metrics_snapshot()
        .counter("traffic.flows_offered")
        .unwrap_or(0);
    assert!(at_close > 0, "flows must be offered inside the window");
    sim.run_for(Duration::from_secs(5));
    let later = sim
        .metrics_snapshot()
        .counter("traffic.flows_offered")
        .unwrap_or(0);
    assert_eq!(at_close, later, "no flows after the window closes");
}

#[test]
fn table_misses_reach_the_controller_as_packet_ins() {
    // Even with a null controller, every expanded first packet and ARP
    // table-misses into a PacketIn event on the control channel.
    let mut sim = Simulator::with_traffic_plan(two_switch_spec(), 13, two_group_plan());
    sim.run_for(Duration::from_secs(8));
    let metrics = sim.metrics_snapshot();
    let expanded = metrics.counter("traffic.packets_expanded").unwrap_or(0);
    let to_controller = metrics
        .counter("netsim.event.ctrl_to_controller")
        .unwrap_or(0);
    assert!(expanded > 0, "the plan must expand some packets");
    assert!(
        to_controller > expanded,
        "each expansion should produce control-plane load \
         ({to_controller} control deliveries vs {expanded} expansions)"
    );
}

#[test]
fn size_mix_governs_aggregate_byte_volume() {
    // An all-mice plan moves orders of magnitude fewer bytes than the
    // datacenter mix at the same flow rate — the elephant fraction, not
    // the flow count, carries the volume.
    let run_bytes = |mix: SizeMix| {
        let profile = DemandProfile::new(0.4, ArrivalProcess::Poisson, mix);
        let mut plan = TrafficPlan::new();
        plan.group(SW1, AGG, 500, profile, window());
        let mut sim = Simulator::with_traffic_plan(two_switch_spec(), 17, plan);
        sim.run_for(Duration::from_secs(8));
        let m = sim.metrics_snapshot();
        (
            m.counter("traffic.flows_offered").unwrap_or(0),
            m.counter("traffic.bytes_offered").unwrap_or(0),
        )
    };
    let (flows_dc, bytes_dc) = run_bytes(SizeMix::datacenter());
    let (flows_mice, bytes_mice) = run_bytes(SizeMix::new(0.0, 1, 20 * 1024));
    assert!(flows_dc > 100 && flows_mice > 100);
    assert!(
        bytes_dc > 100 * bytes_mice,
        "elephants must dominate volume: {bytes_dc} vs {bytes_mice}"
    );
}
