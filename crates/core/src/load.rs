//! Load-parameterized scenarios: flow-level traffic on generated fabrics.
//!
//! The paper's testbeds carry a handful of pings; real controllers field
//! Packet-In storms from tens of thousands of hosts. This module drives
//! the `tm-traffic` flow engine (see `netsim::traffic`) over a generated
//! fabric: every edge switch that carries placed hosts also parks a group
//! of *virtual* hosts behind an aggregation port, their demand advancing
//! as flow records while only the detector-relevant boundaries — first-ARP
//! announcements and first-packet Packet-Ins — expand to real frames. The
//! defense stack therefore observes realistic control-plane load while the
//! dataplane stays O(flows).
//!
//! [`TrafficLoad`] is a `Copy` descriptor so the `Copy` attack scenarios
//! (`hijack`, `linkfab`) can carry one; the concrete [`TrafficPlan`] is
//! derived at run time, a pure function of `(kind, load, window)` —
//! fabrics place switches and hosts independently of the seed, so the
//! plan never perturbs role mapping.

use controller::{ControllerConfig, ControllerProfile};
use netsim::traffic::{ArrivalProcess, SizeMix};
use netsim::{DemandProfile, LinkProfile, Simulator, TrafficPlan, TrafficWindow};
use sdn_types::{Duration, SimTime};
use tm_topo::TopoKind;

use crate::defense::{self, DefenseStack};
use crate::fabric::TRAFFIC_START;

/// Port distance between a traffic group's aggregation port and the
/// fabric's next free port, leaving room for scenario-synthesized NICs
/// (co-located victims, migration destinations, relay peers) that also
/// allocate past the generated port range.
const AGG_PORT_MARGIN: u16 = 8;

/// The temporal shape of a group's flow arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadPattern {
    /// Memoryless Poisson arrivals at the aggregate rate.
    Steady,
    /// On/off bursts (500 ms on / 1500 ms off) with Poisson arrivals
    /// inside each on-phase.
    Bursty,
}

/// A flow-level load descriptor: how many virtual hosts per edge switch,
/// how hard each one drives, and in what temporal pattern. `Copy`, so the
/// `Copy` attack scenarios can be load-parameterized without giving up
/// struct-update construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficLoad {
    /// Virtual hosts parked behind each hosting edge switch.
    pub hosts_per_edge: u32,
    /// Mean flows per host per second.
    pub flows_per_host_per_sec: f64,
    /// Arrival pattern.
    pub pattern: LoadPattern,
}

impl TrafficLoad {
    /// Steady Poisson demand.
    pub fn steady(hosts_per_edge: u32, flows_per_host_per_sec: f64) -> Self {
        TrafficLoad {
            hosts_per_edge,
            flows_per_host_per_sec,
            pattern: LoadPattern::Steady,
        }
    }

    /// Bursty on/off demand.
    pub fn bursty(hosts_per_edge: u32, flows_per_host_per_sec: f64) -> Self {
        TrafficLoad {
            hosts_per_edge,
            flows_per_host_per_sec,
            pattern: LoadPattern::Bursty,
        }
    }

    /// The demand profile every group runs: the datacenter elephant/mice
    /// mix under this load's rate and pattern.
    fn profile(&self) -> DemandProfile {
        let arrival = match self.pattern {
            LoadPattern::Steady => ArrivalProcess::Poisson,
            LoadPattern::Bursty => {
                ArrivalProcess::on_off(Duration::from_millis(500), Duration::from_millis(1500))
            }
        };
        DemandProfile::new(self.flows_per_host_per_sec, arrival, SizeMix::datacenter())
    }

    /// Elaborates the load into a concrete plan for `kind`: one traffic
    /// group per edge switch that carries placed hosts, parked
    /// `AGG_PORT_MARGIN` ports past the fabric's own allocation. Pure
    /// function of `(kind, self, window)` — the generated fabric's switch
    /// and host placement ignores the seed, so any seed elaborates the
    /// same plan.
    pub fn plan_for(&self, kind: TopoKind, window: TrafficWindow) -> TrafficPlan {
        let topo = kind.generate(0, 0);
        let mut plan = TrafficPlan::new();
        if self.hosts_per_edge == 0 {
            return plan;
        }
        let profile = self.profile();
        for &dpid in &topo.switches {
            if topo.hosts_on(dpid).next().is_none() {
                continue;
            }
            let port = sdn_types::PortNo::new(topo.free_port(dpid).raw() + AGG_PORT_MARGIN);
            plan.group(dpid, port, self.hosts_per_edge, profile, window);
        }
        plan
    }
}

/// A pure-load soak: a generated fabric under a defense stack with
/// flow-level traffic, no attack.
#[derive(Clone, Copy, Debug)]
pub struct LoadScenario {
    /// The generated topology.
    pub topo: TopoKind,
    /// The defense stack in the controller slot.
    pub stack: DefenseStack,
    /// RNG seed: forks the per-group traffic streams.
    pub seed: u64,
    /// The flow-level load.
    pub load: TrafficLoad,
    /// Virtual time to run. Traffic opens at [`TRAFFIC_START`] (after
    /// LLDP discovery has mapped the trunks) and closes at the end.
    pub run_for: Duration,
}

impl LoadScenario {
    /// Defaults: 6 simulated seconds — a 4 s traffic window after the
    /// 2 s discovery hold.
    pub fn new(topo: TopoKind, stack: DefenseStack, load: TrafficLoad, seed: u64) -> Self {
        LoadScenario {
            topo,
            stack,
            seed,
            load,
            run_for: Duration::from_secs(6),
        }
    }
}

/// What a load soak measured. Deterministic: a pure function of the
/// scenario, byte-identical [`MetricsSnapshot::render`] per seed.
///
/// [`MetricsSnapshot::render`]: tm_telemetry::MetricsSnapshot::render
#[derive(Clone, Debug)]
pub struct LoadOutcome {
    /// Switches in the fabric.
    pub switches: usize,
    /// Hosts the fabric places as real simulated stacks.
    pub hosts_placed: usize,
    /// Virtual hosts the traffic plan parks behind aggregation ports.
    pub hosts_virtual: u64,
    /// Flows the plan offered inside the window.
    pub flows_offered: u64,
    /// Bytes those flows carried (aggregate accounting).
    pub bytes_offered: u64,
    /// Packets accounted into port counters without per-packet events.
    pub packets_aggregated: u64,
    /// Real frames expanded at detector boundaries (ARP + first packets).
    pub packets_expanded: u64,
    /// Packet-Ins the controller processed, LLDP ones included.
    pub packet_ins: u64,
    /// Engine events processed over the whole run.
    pub events_processed: u64,
    /// Directed links the controller discovered.
    pub links_discovered: usize,
    /// Alerts the defense raised (benign load: all false positives).
    pub alerts_total: usize,
    /// Full telemetry snapshot.
    pub metrics: tm_telemetry::MetricsSnapshot,
}

impl LoadOutcome {
    /// Packets accounted per expanded frame — the aggregation leverage.
    pub fn aggregation_ratio(&self) -> f64 {
        self.packets_aggregated as f64 / (self.packets_expanded.max(1)) as f64
    }
}

/// Runs the soak.
pub fn run(scenario: &LoadScenario) -> LoadOutcome {
    let topo = scenario.topo.generate(scenario.seed, 0);
    let mut spec = topo.build_network(
        LinkProfile::fixed(Duration::from_micros(50)),
        LinkProfile::fixed(Duration::from_millis(1)),
    );
    // Generated fabrics are loopy and the traffic engine's ARP
    // announcements broadcast: scoped flooding is mandatory, exactly as
    // in the fabric attack scenarios.
    spec.set_controller(Box::new(scenario.stack.build_controller(
        ControllerConfig {
            profile: ControllerProfile::FLOODLIGHT,
            tree_scoped_flood: true,
            ..ControllerConfig::default()
        },
    )));
    spec.set_telemetry(tm_telemetry::Telemetry::new());

    let window = TrafficWindow::new(
        SimTime::ZERO + TRAFFIC_START,
        SimTime::ZERO + scenario.run_for,
    );
    let plan = scenario.load.plan_for(scenario.topo, window);
    let hosts_virtual = plan.total_hosts();

    let mut sim = Simulator::with_traffic_plan(spec, scenario.seed, plan);
    sim.run_for(scenario.run_for);

    let metrics = sim.metrics_snapshot();
    let counter = |name: &str| metrics.counter(name).unwrap_or(0);
    let ctrl = defense::controller(&sim);
    LoadOutcome {
        switches: topo.switches.len(),
        hosts_placed: topo.hosts.len(),
        hosts_virtual,
        flows_offered: counter("traffic.flows_offered"),
        bytes_offered: counter("traffic.bytes_offered"),
        packets_aggregated: counter("traffic.packets_aggregated"),
        packets_expanded: counter("traffic.packets_expanded"),
        packet_ins: counter("controller.packet_in.total"),
        events_processed: counter("netsim.engine.events_processed"),
        links_discovered: ctrl.topology().len(),
        alerts_total: ctrl.alerts().len(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fabric() -> TopoKind {
        TopoKind::Linear {
            switches: 4,
            hosts_per_switch: 1,
        }
    }

    #[test]
    fn load_soak_offers_flows_and_reaches_the_controller() {
        let out = run(&LoadScenario::new(
            small_fabric(),
            DefenseStack::TopoGuardPlus,
            TrafficLoad::steady(100, 0.5),
            7,
        ));
        assert_eq!(out.hosts_virtual, 400, "100 virtual hosts x 4 edges");
        assert!(out.flows_offered > 50, "got {} flows", out.flows_offered);
        assert!(
            out.packets_aggregated > 50 * out.packets_expanded.max(1),
            "aggregation must dominate: {} vs {}",
            out.packets_aggregated,
            out.packets_expanded
        );
        assert!(
            out.packet_ins > out.packets_expanded,
            "expansions must reach the controller as Packet-Ins"
        );
        assert_eq!(out.links_discovered, 6, "discovery survives the load");
    }

    #[test]
    fn load_soak_is_a_pure_function_of_its_inputs() {
        let scenario = LoadScenario::new(
            small_fabric(),
            DefenseStack::TopoGuardSphinx,
            TrafficLoad::bursty(50, 1.0),
            21,
        );
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.metrics.render(), b.metrics.render());
        assert_eq!(a.flows_offered, b.flows_offered);
    }

    #[test]
    fn plan_elaboration_skips_hostless_switches() {
        let window = TrafficWindow::new(SimTime::from_secs(1), SimTime::from_secs(2));
        let plan = TrafficLoad::steady(64, 0.2).plan_for(
            TopoKind::CoreEdge {
                core: 4,
                edge: 8,
                hosts_per_edge: 1,
            },
            window,
        );
        assert_eq!(plan.len(), 8, "groups only on the hosting edge tier");
        assert_eq!(plan.total_hosts(), 8 * 64);
    }

    #[test]
    fn zero_hosts_elaborate_an_empty_plan() {
        let window = TrafficWindow::new(SimTime::from_secs(1), SimTime::from_secs(2));
        let plan = TrafficLoad::steady(0, 0.2).plan_for(small_fabric(), window);
        assert!(plan.is_empty());
    }
}
