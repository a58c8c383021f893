//! Datacenter-scale control-plane soak: a generated fabric under a defense
//! stack, measured in engine events per simulated second.
//!
//! The paper's testbeds top out at four switches; the scaling question —
//! what discovery, TopoGuard+, and the event engine cost on a fabric two
//! orders of magnitude larger — needs generated topologies. This scenario
//! boots a [`tm_topo::TopoKind`] fabric (fat-tree, core–edge, linear, or
//! ring), installs the chosen [`DefenseStack`] controller, and runs pure
//! control-plane load for a fixed stretch of virtual time: OpenFlow
//! handshakes, periodic LLDP discovery, echo probes, and flow expiry. No
//! host application sends traffic — datacenter fabrics are loopy, and
//! wildcard FLOOD rules on a loopy fabric melt down into broadcast storms;
//! the control plane alone is loop-safe and already scales with port
//! count.
//!
//! The headline metric is deterministic: `events_processed` divided by
//! simulated seconds, a pure function of `(topology, stack, seed)`.
//! Wall-clock throughput — the engine-throughput claim — is measured
//! from outside the simulator by the `fabric-soak` workload of
//! `benches/topobench`.

use controller::{ControllerConfig, ControllerProfile};
use netsim::{LinkProfile, Simulator};
use sdn_types::Duration;
use tm_topo::TopoKind;

use crate::defense::{self, DefenseStack};

/// A scale soak: which fabric, which defense stack, how long.
#[derive(Clone, Copy, Debug)]
pub struct ScaleScenario {
    /// The generated topology.
    pub topo: TopoKind,
    /// The defense stack in the controller slot.
    pub stack: DefenseStack,
    /// RNG seed (also drives attacker placement in the topo spec, though
    /// this benign soak places none).
    pub seed: u64,
    /// Virtual time to run.
    pub run_for: Duration,
}

impl ScaleScenario {
    /// Defaults: 1 simulated second — enough for every switch handshake,
    /// the first LLDP discovery round, and the probe cadence to tick.
    pub fn new(topo: TopoKind, stack: DefenseStack, seed: u64) -> Self {
        ScaleScenario {
            topo,
            stack,
            seed,
            run_for: Duration::from_secs(1),
        }
    }
}

/// What a scale soak measured.
#[derive(Clone, Debug)]
pub struct ScaleOutcome {
    /// Switches in the fabric.
    pub switches: usize,
    /// Hosts in the fabric.
    pub hosts: usize,
    /// Engine events processed over the whole run.
    pub events_processed: u64,
    /// Engine events scheduled over the whole run.
    pub events_scheduled: u64,
    /// Events processed per simulated second (the deterministic
    /// throughput-load figure).
    pub events_per_sim_sec: f64,
    /// Directed links the controller discovered.
    pub links_discovered: usize,
    /// Alerts the defense raised (benign fabric: all false positives).
    pub alerts_total: usize,
    /// Full telemetry snapshot.
    pub metrics: tm_telemetry::MetricsSnapshot,
}

/// Runs the soak.
pub fn run(scenario: &ScaleScenario) -> ScaleOutcome {
    let topo = scenario.topo.generate(scenario.seed, 0);
    let mut spec = topo.build_network(
        LinkProfile::fixed(Duration::from_micros(50)),
        LinkProfile::fixed(Duration::from_millis(1)),
    );
    spec.set_controller(Box::new(scenario.stack.build_controller(
        ControllerConfig {
            profile: ControllerProfile::FLOODLIGHT,
            ..ControllerConfig::default()
        },
    )));
    spec.set_telemetry(tm_telemetry::Telemetry::new());

    let mut sim = Simulator::new(spec, scenario.seed);
    sim.run_for(scenario.run_for);

    let metrics = sim.metrics_snapshot();
    let events_processed = metrics
        .counter("netsim.engine.events_processed")
        .unwrap_or(0);
    let events_scheduled = metrics
        .counter("netsim.engine.events_scheduled")
        .unwrap_or(0);
    let sim_secs = (scenario.run_for.as_nanos() as f64) / 1e9;
    let ctrl = defense::controller(&sim);
    ScaleOutcome {
        switches: topo.switches.len(),
        hosts: topo.hosts.len(),
        events_processed,
        events_scheduled,
        events_per_sim_sec: if sim_secs > 0.0 {
            events_processed as f64 / sim_secs
        } else {
            0.0
        },
        links_discovered: ctrl.topology().len(),
        alerts_total: ctrl.alerts().len(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_soak_discovers_links_and_counts_events() {
        let outcome = run(&ScaleScenario::new(
            TopoKind::Linear {
                switches: 4,
                hosts_per_switch: 1,
            },
            DefenseStack::None,
            7,
        ));
        assert_eq!(outcome.switches, 4);
        assert_eq!(outcome.hosts, 4);
        assert!(outcome.events_processed > 0, "engine must have run");
        assert!(outcome.events_per_sim_sec > 0.0);
        // 3 physical links, discovered in both directions.
        assert_eq!(outcome.links_discovered, 6);
    }

    #[test]
    fn soak_is_a_pure_function_of_its_inputs() {
        let scenario = ScaleScenario::new(
            TopoKind::Ring {
                switches: 4,
                hosts_per_switch: 1,
            },
            DefenseStack::TopoGuardPlus,
            21,
        );
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.metrics.render(), b.metrics.render());
        assert_eq!(a.events_processed, b.events_processed);
    }
}
