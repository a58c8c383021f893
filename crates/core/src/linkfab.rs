//! Link-fabrication scenarios: Port Amnesia in all its variants (§IV-A,
//! §V-A), run against a selectable defense stack.
//!
//! Three topology families are available:
//!
//! * [`FabTopology::Fig1`] — the paper's attack illustration: two switches
//!   joined *only* by the fabricated link, demonstrating a working
//!   man-in-the-middle bridge.
//! * [`FabTopology::Fig9`] — the paper's evaluation testbed: four switches
//!   with real 5 ms links (the LLI's latency baseline), attack launched one
//!   minute after bootstrap as in §VII-A.
//! * [`FabTopology::Fabric`] — any generated fabric (`tm-topo`): the same
//!   attack with colluders placed by the spec's forked attacker stream.
//!
//! With `mode: None` a scenario is its own benign twin: the same network,
//! the colluders idle. With no attacker present every alert is a false
//! positive, which the fault-robustness campaigns count.

use attacks::{RelayAttacker, RelayConfig, RelayStats};
use controller::{AlertKind, DirectedLink};
use netsim::apps::PeriodicPinger;
use netsim::{HostApp, NetworkSpec, Simulator};
use sdn_types::{Duration, HostId, IpAddr, MacAddr, SimTime};
use tm_topo::TopoKind;

use crate::defense::{self, DefenseStack};
use crate::fabric::{self, RelayEndpoints};
use crate::robustness::{FaultProfile, ProfileTargets};
use crate::testbed;

/// Which relay variant to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RelayMode {
    /// Out-of-band relay with warmup traffic and port amnesia (Fig. 1).
    OutOfBand,
    /// Out-of-band relay from never-active hosts — no amnesia needed, so
    /// only latency gives it away.
    OutOfBandStealthy,
    /// In-band relay with per-round context switching (§IV-A's weaker
    /// variant). Requires real dataplane connectivity, so it runs on the
    /// Fig. 9 topology or a fabric, never on Fig. 1.
    InBand,
    /// Out-of-band relay *without* amnesia despite HOST-profiled ports —
    /// the baseline TopoGuard was designed to stop.
    NaiveNoAmnesia,
}

impl RelayMode {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RelayMode::OutOfBand => "oob-amnesia",
            RelayMode::OutOfBandStealthy => "oob-stealthy",
            RelayMode::InBand => "in-band",
            RelayMode::NaiveNoAmnesia => "naive-relay",
        }
    }
}

/// Which testbed to run on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FabTopology {
    /// Two switches joined only by the fabricated link (MITM demo).
    Fig1,
    /// The four-switch evaluation testbed with real links.
    Fig9,
    /// A generated fabric (fat-tree / core–edge / linear / ring).
    Fabric(TopoKind),
}

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinkFabScenario {
    /// The relay variant. `None` is the benign twin: the colluder hosts
    /// and their out-of-band channel stay, but no relay app runs on them.
    pub mode: Option<RelayMode>,
    /// The defense stack.
    pub stack: DefenseStack,
    /// RNG seed.
    pub seed: u64,
    /// The testbed. An in-band relay on [`FabTopology::Fig1`] is
    /// rejected: it needs a dataplane path between the colluders.
    pub topology: FabTopology,
    /// When the attackers begin relaying (baselines form before this).
    pub attack_start: Duration,
    /// How long each colluder holds its interface down for Port Amnesia
    /// (see [`RelayConfig::hold_down`]).
    pub hold_down: Duration,
    /// How long to run in total.
    pub run_for: Duration,
    /// Start benign cross-network traffic (exercises the MITM bridge in
    /// the Fig. 1 topology).
    pub benign_traffic: bool,
    /// Network degradation from [`faults_from`](Self::faults_from) to the
    /// end of the run ([`FaultProfile::Clean`] leaves the trace
    /// byte-identical to the pre-fault-layer simulator).
    pub faults: FaultProfile,
    /// When the fault window opens: zero degrades the whole run, a later
    /// start lets the defense baselines form first.
    pub faults_from: Duration,
    /// Flow-level background load riding the fabric for the whole run
    /// (see [`crate::load`]). Only a [`FabTopology::Fabric`] carries it:
    /// `Some` on a hand-built testbed is rejected. `None` leaves the trace
    /// byte-identical to an unloaded run.
    pub traffic: Option<crate::load::TrafficLoad>,
}

impl LinkFabScenario {
    /// The Fig. 1 demonstration: warmup traffic at 1 s, attack from 5 s
    /// (the first LLDP round it can relay is at 15.1 s), 40 s run.
    pub fn new(mode: RelayMode, stack: DefenseStack, seed: u64) -> Self {
        LinkFabScenario {
            mode: Some(mode),
            stack,
            seed,
            topology: FabTopology::Fig1,
            attack_start: Duration::from_secs(5),
            hold_down: RelayConfig::DEFAULT_HOLD_DOWN,
            run_for: Duration::from_secs(40),
            benign_traffic: true,
            faults: FaultProfile::Clean,
            faults_from: Duration::ZERO,
            traffic: None,
        }
    }

    /// The §VII evaluation setting: Fig. 9 testbed, attack launched one
    /// minute after controller bootstrap, 2.5-minute run (long enough for a
    /// blocked link to also age out of the topology).
    pub fn paper_eval(mode: RelayMode, stack: DefenseStack, seed: u64) -> Self {
        LinkFabScenario {
            topology: FabTopology::Fig9,
            attack_start: Duration::from_secs(60),
            run_for: Duration::from_secs(150),
            ..LinkFabScenario::new(mode, stack, seed)
        }
    }

    /// The [`paper_eval`](LinkFabScenario::paper_eval) timing on a
    /// generated fabric: colluders drawn from the spec's attacker stream,
    /// attack one minute after bootstrap so defense baselines have formed.
    pub fn on_fabric(mode: RelayMode, kind: TopoKind, stack: DefenseStack, seed: u64) -> Self {
        LinkFabScenario {
            topology: FabTopology::Fabric(kind),
            ..LinkFabScenario::paper_eval(mode, stack, seed)
        }
    }
}

/// Scenario outcome.
#[derive(Clone, Debug)]
pub struct LinkFabOutcome {
    /// The fabricated link is present in the controller's topology at the
    /// end of the run.
    pub link_established: bool,
    /// Total defense alerts raised.
    pub alerts_total: usize,
    /// TopoGuard/SPHINX alerts that indicate the fabrication was noticed.
    pub fabrication_alerts: usize,
    /// CMM detections.
    pub cmm_alerts: usize,
    /// LLI detections.
    pub lli_alerts: usize,
    /// Directed links in the controller's topology at the end of the run
    /// (Fig. 9's ground truth: 6, plus the fabricated pair if it stands).
    pub links_discovered: usize,
    /// Frames the MITM bridge carried.
    pub bridged_frames: u64,
    /// Benign pings completed across the network.
    pub benign_pings_ok: u64,
    /// Relay statistics from attacker A.
    pub stats_a: RelayStats,
    /// Relay statistics from attacker B.
    pub stats_b: RelayStats,
    /// The simulator's event digest, for replay/determinism checks:
    /// two runs with the same scenario must produce identical traces.
    pub trace: netsim::Trace,
    /// Telemetry snapshot taken at the end of the run. Deterministic:
    /// same scenario, same seed → byte-identical [`MetricsSnapshot::render`]
    /// output.
    ///
    /// [`MetricsSnapshot::render`]: tm_telemetry::MetricsSnapshot::render
    pub metrics: tm_telemetry::MetricsSnapshot,
}

impl LinkFabOutcome {
    /// "Detected" in the paper's sense: any alert attributable to the
    /// fabrication (TopoGuard link alerts, migration flapping caused by
    /// the bridge, CMM, or LLI).
    pub fn detected(&self) -> bool {
        self.fabrication_alerts + self.cmm_alerts + self.lli_alerts > 0
    }

    /// The attack succeeded: fake link present and no detection.
    pub fn succeeded_undetected(&self) -> bool {
        self.link_established && !self.detected()
    }
}

/// Builds the scenario's network with both relays (none in the benign
/// twin) and the benign pinger installed: the one relay wiring. [`run`]
/// simulates it; a caller that reads the finished simulator itself passes
/// the spec to [`Simulator::new`].
///
/// # Panics
/// On an in-band relay on [`FabTopology::Fig1`], and on `traffic` on a
/// hand-built testbed.
pub fn setup(scenario: &LinkFabScenario) -> (NetworkSpec, RelayEndpoints, ProfileTargets) {
    assert!(
        !(scenario.mode == Some(RelayMode::InBand) && scenario.topology == FabTopology::Fig1),
        "an in-band relay needs a dataplane path between the colluders, which Fig. 1 \
         lacks: run it on FabTopology::Fig9 or a fabric"
    );
    assert!(
        scenario.traffic.is_none() || matches!(scenario.topology, FabTopology::Fabric(_)),
        "background traffic needs a generated fabric: run on FabTopology::Fabric, or set \
         `traffic: None` on the hand-built testbeds"
    );
    let (mut spec, endpoints, targets) = match scenario.topology {
        FabTopology::Fig1 => testbed::fig1_spec(scenario.stack),
        FabTopology::Fig9 => testbed::fig9_spec(scenario.stack),
        FabTopology::Fabric(kind) => fabric::relay_setup(kind, scenario.stack, scenario.seed),
    };
    if let Some(mode) = scenario.mode {
        let relay = |peer: HostId, (peer_mac, peer_ip): (MacAddr, IpAddr)| -> Box<dyn HostApp> {
            let base = match mode {
                RelayMode::OutOfBand => RelayConfig::oob(peer),
                RelayMode::OutOfBandStealthy => RelayConfig::oob_stealthy(peer),
                RelayMode::NaiveNoAmnesia => RelayConfig {
                    use_amnesia: false,
                    ..RelayConfig::oob(peer)
                },
                RelayMode::InBand => RelayConfig::in_band(peer, peer_mac, peer_ip),
            };
            Box::new(RelayAttacker::new(RelayConfig {
                hold_down: scenario.hold_down,
                start_after: scenario.attack_start,
                bridge_dataplane: base.bridge_dataplane && endpoints.bridge_dataplane,
                ..base
            }))
        };
        spec.set_host_app(
            endpoints.attacker_a,
            relay(endpoints.attacker_b, endpoints.identity_b),
        );
        spec.set_host_app(
            endpoints.attacker_b,
            relay(endpoints.attacker_a, endpoints.identity_a),
        );
    }
    if let Some((host, _, target_ip)) = endpoints.pinger.filter(|_| scenario.benign_traffic) {
        spec.set_host_app(
            host,
            Box::new(PeriodicPinger::starting_at(
                target_ip,
                Duration::from_millis(500),
                endpoints.traffic_start,
            )),
        );
    }
    (spec, endpoints, targets)
}

/// Runs the scenario: [`setup`], the simulation under the scenario's
/// faults and background load, and the outcome.
pub fn run(scenario: &LinkFabScenario) -> LinkFabOutcome {
    let (mut spec, endpoints, targets) = setup(scenario);
    spec.set_telemetry(tm_telemetry::Telemetry::new());
    let run_end = SimTime::ZERO + scenario.run_for;
    let plan = scenario
        .faults
        .plan(&targets, SimTime::ZERO + scenario.faults_from, run_end);
    // Flow-level background load opens with the broadcast-safety hold
    // like all fabric traffic.
    let traffic = match (scenario.topology, scenario.traffic) {
        (FabTopology::Fabric(kind), Some(load)) => load.plan_for(
            kind,
            netsim::TrafficWindow::new(SimTime::ZERO + fabric::TRAFFIC_START, run_end),
        ),
        _ => netsim::TrafficPlan::new(),
    };
    let mut sim = Simulator::with_plans(spec, scenario.seed, plan, traffic);
    sim.run_for(scenario.run_for);
    collect_outcome(&sim, scenario, &endpoints)
}

fn collect_outcome(
    sim: &Simulator,
    scenario: &LinkFabScenario,
    endpoints: &RelayEndpoints,
) -> LinkFabOutcome {
    let stats = |host| {
        sim.host_app_as::<RelayAttacker>(host)
            .map(|a| a.stats)
            .unwrap_or_default()
    };
    let (stats_a, stats_b) = (stats(endpoints.attacker_a), stats(endpoints.attacker_b));
    let fake_link = DirectedLink::new(endpoints.port_a, endpoints.port_b);
    let ctrl = defense::controller(sim);
    let link_established =
        ctrl.topology().contains(&fake_link) || ctrl.topology().contains(&fake_link.reversed());
    let alerts = ctrl.alerts();
    LinkFabOutcome {
        link_established,
        alerts_total: alerts.len(),
        fabrication_alerts: alerts.count(AlertKind::LinkFabrication)
            + alerts.count(AlertKind::TrafficFromSwitchPort)
            + alerts.count(AlertKind::LinkChanged),
        cmm_alerts: alerts.count(AlertKind::AnomalousControlMessage),
        lli_alerts: alerts.count(AlertKind::AbnormalLinkLatency),
        links_discovered: ctrl.topology().len(),
        bridged_frames: stats_a.bridged_to_peer + stats_b.bridged_to_peer,
        benign_pings_ok: endpoints
            .pinger
            .filter(|_| scenario.benign_traffic)
            .and_then(|(host, ..)| sim.host_app_as::<PeriodicPinger>(host))
            .map(|p| p.received)
            .unwrap_or(0),
        stats_a,
        stats_b,
        trace: *sim.trace(),
        metrics: sim.metrics_snapshot(),
    }
}
