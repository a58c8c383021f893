//! Defense robustness under degraded networks: reusable fault profiles.
//!
//! The paper's TopoGuard+ components are exactly the ones most sensitive to
//! real-network noise: the LLI's latency fence (§VIII-A) can be tripped by
//! jitter spikes or control-channel congestion with no attacker present,
//! and the CMM's port-state tracking reacts to every flap.
//! [`FaultProfile`] is a small, `Copy` vocabulary of degraded-network
//! conditions, each expandable into a concrete [`FaultPlan`] for a given
//! testbed via [`ProfileTargets`]. Scenario structs carry a profile field
//! so the whole detection matrix can be re-run under faults
//! (`experiments fault_matrix`), and the relay scenario's benign twin
//! ([`crate::linkfab::LinkFabScenario::mode`] `None`) measures the false
//! positives a degraded but honest network provokes.

use netsim::faults::{FaultPlan, FaultWindow, LossModel};
use sdn_types::{DatapathId, Duration, PortNo, SimTime};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::DefenseStack;
    use crate::testbed;

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
        for targets in [
            testbed::fig9_spec(DefenseStack::None).2,
            testbed::fig1_spec(DefenseStack::None).2,
            testbed::hijack_spec(DefenseStack::None).2,
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
        let (_, _, targets) = testbed::fig9_spec(DefenseStack::None);
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
}
