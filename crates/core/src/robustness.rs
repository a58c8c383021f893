//! Defense robustness under degraded networks: reusable fault profiles and
//! a benign-traffic scenario that measures false positives.
//!
//! The paper's TopoGuard+ components are exactly the ones most sensitive to
//! real-network noise: the LLI's latency fence (§VIII-A) can be tripped by
//! jitter spikes or control-channel congestion with no attacker present,
//! and the CMM's port-state tracking reacts to every flap. This module
//! provides:
//!
//! * [`FaultProfile`] — a small, `Copy` vocabulary of degraded-network
//!   conditions, each expandable into a concrete [`FaultPlan`] for a given
//!   testbed via [`ProfileTargets`]. Scenario structs carry a profile
//!   field so the whole detection matrix can be re-run under faults
//!   (`experiments fault_matrix`).
//! * [`RobustnessScenario`] / [`run`] — the Fig. 9 testbed with benign
//!   traffic only (no attackers): every alert the defense raises is by
//!   construction a false positive, which is what the `lli-under-jitter`,
//!   `cmm-under-flaps`, and `discovery-under-loss` campaigns measure.

use controller::{AlertKind, ControllerConfig, ControllerProfile};
use netsim::apps::PeriodicPinger;
use netsim::faults::{FaultPlan, FaultWindow, LossModel};
use netsim::Simulator;
use sdn_types::{DatapathId, Duration, PortNo, SimTime};

use crate::defense::{self, DefenseStack};
use crate::testbed;

/// The fault targets of one testbed topology: which egress directions are
/// trunk links, which host port to flap, which switches exist. Every
/// testbed builder and fabric elaborator returns its own.
#[derive(Clone, Debug)]
pub struct ProfileTargets {
    /// Egress directions of every inter-switch trunk (both ends).
    pub trunk_egresses: Vec<(DatapathId, PortNo)>,
    /// The host-facing port a flap profile bounces.
    pub flap_port: (DatapathId, PortNo),
    /// Every switch (congestion and restart targets).
    pub dpids: Vec<DatapathId>,
}

/// A named degraded-network condition, expandable into a [`FaultPlan`] for
/// any testbed. `Clean` (and every zero-magnitude variant) expands to an
/// empty plan, which `netsim` guarantees is byte-identical to no plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultProfile {
    /// No faults: the baseline every other profile is compared against.
    Clean,
    /// Independent per-transit loss of `pct` percent on every trunk egress.
    TrunkLoss {
        /// Loss percentage (0–100).
        pct: u8,
    },
    /// Latency spikes of mean `spike_ms` (± a quarter of that as jitter)
    /// on every trunk egress.
    TrunkJitter {
        /// Mean extra one-way delay in milliseconds.
        spike_ms: u16,
    },
    /// `count` down/up cycles of the testbed's benign host port, one per
    /// `period_ms`, each outage a quarter period long.
    HostPortFlaps {
        /// Number of flaps.
        count: u8,
        /// Flap period in milliseconds.
        period_ms: u32,
    },
    /// `extra_ms` of queuing delay on every switch's control channel.
    CtrlCongestion {
        /// Extra per-message delay in milliseconds.
        extra_ms: u16,
    },
    /// Every switch restarts once (staggered 2 s apart, 200 ms outage
    /// each), wiping flow tables and re-handshaking.
    SwitchRestarts,
}

impl FaultProfile {
    /// A stable display label (campaign cell names, matrix headers).
    pub fn label(&self) -> String {
        match self {
            FaultProfile::Clean => "clean".to_string(),
            FaultProfile::TrunkLoss { pct } => format!("loss-{pct}pct"),
            FaultProfile::TrunkJitter { spike_ms } => format!("jitter-{spike_ms}ms"),
            FaultProfile::HostPortFlaps { count, .. } => format!("flaps-{count}"),
            FaultProfile::CtrlCongestion { extra_ms } => format!("congestion-{extra_ms}ms"),
            FaultProfile::SwitchRestarts => "restarts".to_string(),
        }
    }

    /// The matrix-robustness sweep: one representative magnitude per fault
    /// family, plus the clean baseline.
    pub const MATRIX_SWEEP: [FaultProfile; 5] = [
        FaultProfile::Clean,
        FaultProfile::TrunkLoss { pct: 20 },
        FaultProfile::TrunkJitter { spike_ms: 3 },
        FaultProfile::CtrlCongestion { extra_ms: 5 },
        FaultProfile::SwitchRestarts,
    ];

    /// Expands the profile into a concrete plan for `targets`, active in
    /// `[from, until)`. Zero-magnitude variants return an empty plan.
    pub fn plan(&self, targets: &ProfileTargets, from: SimTime, until: SimTime) -> FaultPlan {
        let mut plan = FaultPlan::new();
        match *self {
            FaultProfile::Clean => {}
            FaultProfile::TrunkLoss { pct } => {
                if pct > 0 {
                    let window = FaultWindow::new(from, until);
                    let model = LossModel::bernoulli(f64::from(pct.min(100)) / 100.0);
                    for &(dpid, port) in &targets.trunk_egresses {
                        plan.link_loss(dpid, port, model, window);
                    }
                }
            }
            FaultProfile::TrunkJitter { spike_ms } => {
                if spike_ms > 0 {
                    let window = FaultWindow::new(from, until);
                    let extra = Duration::from_micros(u64::from(spike_ms) * 1000);
                    let sd = Duration::from_micros(u64::from(spike_ms) * 250);
                    for &(dpid, port) in &targets.trunk_egresses {
                        plan.latency_spike(dpid, port, extra, sd, window);
                    }
                }
            }
            FaultProfile::HostPortFlaps { count, period_ms } => {
                let (dpid, port) = targets.flap_port;
                for i in 0..u64::from(count) {
                    let down_at = from + Duration::from_millis(u64::from(period_ms) * i);
                    let up_at = down_at + Duration::from_millis(u64::from(period_ms.max(4)) / 4);
                    plan.link_flap(dpid, port, down_at, up_at);
                }
            }
            FaultProfile::CtrlCongestion { extra_ms } => {
                if extra_ms > 0 {
                    let window = FaultWindow::new(from, until);
                    let extra = Duration::from_micros(u64::from(extra_ms) * 1000);
                    for &dpid in &targets.dpids {
                        plan.ctrl_congestion(dpid, extra, window);
                    }
                }
            }
            FaultProfile::SwitchRestarts => {
                for (i, &dpid) in targets.dpids.iter().enumerate() {
                    let at = from + Duration::from_secs(2 * i as u64);
                    plan.switch_restart(dpid, at, Duration::from_millis(200));
                }
            }
        }
        plan
    }
}

/// A benign run of the Fig. 9 testbed under a fault profile: h1 pings h2
/// every 500 ms, no attackers exist, and the defense stack watches a
/// network that is degraded but honest.
#[derive(Clone, Copy, Debug)]
pub struct RobustnessScenario {
    /// The defense stack under test.
    pub stack: DefenseStack,
    /// The injected condition.
    pub profile: FaultProfile,
    /// RNG seed.
    pub seed: u64,
    /// Total run length.
    pub run_for: Duration,
    /// Fault window start (after the defense baselines have formed).
    pub fault_from: Duration,
    /// Fault window end.
    pub fault_until: Duration,
}

impl RobustnessScenario {
    /// Defaults: 4-minute run; faults active from 150 s (after the LLI has
    /// collected its 10-sample baseline at the 15 s Floodlight cadence) to
    /// the end of the run.
    pub fn new(stack: DefenseStack, profile: FaultProfile, seed: u64) -> Self {
        RobustnessScenario {
            stack,
            profile,
            seed,
            run_for: Duration::from_secs(240),
            fault_from: Duration::from_secs(150),
            fault_until: Duration::from_secs(240),
        }
    }
}

/// Outcome of a benign run: with no attacker present, every alert is a
/// false positive.
#[derive(Clone, Debug)]
pub struct RobustnessOutcome {
    /// Total alerts (all false positives).
    pub alerts_total: usize,
    /// LLI (abnormal link latency) false positives.
    pub lli_alerts: usize,
    /// CMM (anomalous control message) false positives.
    pub cmm_alerts: usize,
    /// Link-integrity false positives (fabrication / changed / host-port
    /// traffic).
    pub link_alerts: usize,
    /// Directed links in the controller's topology at the end of the run
    /// (Fig. 9 ground truth: 6).
    pub links_discovered: usize,
    /// Benign pings completed.
    pub benign_pings_ok: u64,
    /// Telemetry snapshot (includes the `netsim.fault.*` injection
    /// counters attributing the degradation).
    pub metrics: tm_telemetry::MetricsSnapshot,
    /// The simulator's event digest, for determinism checks.
    pub trace: netsim::Trace,
}

/// Runs the benign robustness scenario.
pub fn run(scenario: &RobustnessScenario) -> RobustnessOutcome {
    let (mut spec, endpoints, targets) = testbed::fig9_spec(
        scenario.stack,
        ControllerConfig {
            profile: ControllerProfile::FLOODLIGHT,
            ..ControllerConfig::default()
        },
    );
    let pinger = endpoints.pinger.map(|(host, _, target_ip)| {
        spec.set_host_app(
            host,
            Box::new(PeriodicPinger::new(target_ip, Duration::from_millis(500))),
        );
        host
    });
    spec.set_telemetry(tm_telemetry::Telemetry::new());

    let plan = scenario.profile.plan(
        &targets,
        SimTime::ZERO + scenario.fault_from,
        SimTime::ZERO + scenario.fault_until,
    );
    let mut sim = Simulator::with_fault_plan(spec, scenario.seed, plan);
    sim.run_for(scenario.run_for);

    let ctrl = defense::controller(&sim);
    let alerts = ctrl.alerts();
    RobustnessOutcome {
        alerts_total: alerts.len(),
        lli_alerts: alerts.count(AlertKind::AbnormalLinkLatency),
        cmm_alerts: alerts.count(AlertKind::AnomalousControlMessage),
        link_alerts: alerts.count(AlertKind::LinkFabrication)
            + alerts.count(AlertKind::LinkChanged)
            + alerts.count(AlertKind::TrafficFromSwitchPort),
        links_discovered: ctrl.topology().len(),
        benign_pings_ok: pinger
            .and_then(|host| sim.host_app_as::<PeriodicPinger>(host))
            .map(|p| p.received)
            .unwrap_or(0),
        metrics: sim.metrics_snapshot(),
        trace: *sim.trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> (SimTime, SimTime) {
        (SimTime::from_secs(10), SimTime::from_secs(20))
    }

    #[test]
    fn clean_and_zero_magnitude_profiles_expand_to_empty_plans() {
        // The determinism contract hinges on this: an axis cell with a
        // zero-valued parameter must produce *no* plan entries at all, so
        // its run is byte-identical to the clean baseline (a Bernoulli
        // model with p = 0 would never drop, but would still consume RNG
        // draws and diverge the trace).
        let (from, until) = window();
        let config = ControllerConfig::default();
        for targets in [
            testbed::fig9_spec(DefenseStack::None, config).2,
            testbed::fig1_spec(DefenseStack::None, config).2,
            testbed::hijack_spec(DefenseStack::None, config).2,
        ] {
            for profile in [
                FaultProfile::Clean,
                FaultProfile::TrunkLoss { pct: 0 },
                FaultProfile::TrunkJitter { spike_ms: 0 },
                FaultProfile::HostPortFlaps {
                    count: 0,
                    period_ms: 1000,
                },
                FaultProfile::CtrlCongestion { extra_ms: 0 },
            ] {
                assert!(
                    profile.plan(&targets, from, until).is_empty(),
                    "{} must expand to an empty plan",
                    profile.label()
                );
            }
        }
    }

    #[test]
    fn nonzero_profiles_cover_their_targets() {
        let (from, until) = window();
        let (_, _, targets) = testbed::fig9_spec(DefenseStack::None, ControllerConfig::default());
        let loss = FaultProfile::TrunkLoss { pct: 30 }.plan(&targets, from, until);
        assert_eq!(loss.loss().len(), targets.trunk_egresses.len());
        let jitter = FaultProfile::TrunkJitter { spike_ms: 5 }.plan(&targets, from, until);
        assert_eq!(jitter.spikes().len(), targets.trunk_egresses.len());
        let flaps = FaultProfile::HostPortFlaps {
            count: 3,
            period_ms: 2000,
        }
        .plan(&targets, from, until);
        assert_eq!(flaps.flaps().len(), 3);
        let congestion = FaultProfile::CtrlCongestion { extra_ms: 5 }.plan(&targets, from, until);
        assert_eq!(congestion.congestion().len(), targets.dpids.len());
        let restarts = FaultProfile::SwitchRestarts.plan(&targets, from, until);
        assert_eq!(restarts.restarts().len(), targets.dpids.len());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultProfile::Clean.label(), "clean");
        assert_eq!(FaultProfile::TrunkLoss { pct: 20 }.label(), "loss-20pct");
        assert_eq!(
            FaultProfile::TrunkJitter { spike_ms: 3 }.label(),
            "jitter-3ms"
        );
        assert_eq!(
            FaultProfile::HostPortFlaps {
                count: 5,
                period_ms: 2000
            }
            .label(),
            "flaps-5"
        );
        assert_eq!(
            FaultProfile::CtrlCongestion { extra_ms: 5 }.label(),
            "congestion-5ms"
        );
        assert_eq!(FaultProfile::SwitchRestarts.label(), "restarts");
    }

    #[test]
    fn benign_robustness_run_is_deterministic() {
        let scenario = RobustnessScenario {
            run_for: Duration::from_secs(40),
            fault_from: Duration::from_secs(10),
            fault_until: Duration::from_secs(40),
            ..RobustnessScenario::new(
                DefenseStack::TopoGuardPlus,
                FaultProfile::TrunkLoss { pct: 30 },
                7,
            )
        };
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.trace, b.trace, "same scenario, same seed, same trace");
        assert_eq!(a.metrics.render(), b.metrics.render());
        assert!(
            a.metrics.counter("netsim.fault.loss_drops").unwrap_or(0) > 0,
            "the loss window must actually drop frames"
        );
    }
}
