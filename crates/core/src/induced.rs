//! Induced migration (§IV-B): instead of waiting for the victim to move,
//! the attacker *creates* the vulnerable window.
//!
//! > "Many hypervisors (e.g., VMware) offer services to automatically
//! > migrate VMs between servers when CPU or memory resources become
//! > saturated. An attacker could colocate a host with the target VM and
//! > mount a denial-of-service attack against those resources (e.g., cache
//! > page dirtying or heavy disk I/O) until the victim was moved by the
//! > hypervisor."
//!
//! The hypervisor is modeled as an orchestration policy over the victim's
//! host: once the co-located attacker saturates the shared resource for
//! longer than the hypervisor's `saturation_patience`, an automatic live
//! migration begins (interface down at the old port, re-appearing at the
//! destination port after a `downtime` window). The network-side attacker
//! runs the standard Port Probing state machine and never needs to know
//! *when* the migration will fire — its probes discover the window, which
//! is the whole point.

use sdn_types::{Duration, SimTime};

use crate::defense::DefenseStack;
use crate::hijack::{self, HijackOutcome, HijackScenario};

/// The modeled hypervisor's auto-migration policy.
#[derive(Clone, Copy, Debug)]
pub struct HypervisorPolicy {
    /// Sustained saturation required before a migration is triggered
    /// (VMware DRS-style hysteresis).
    pub saturation_patience: Duration,
    /// The live-migration downtime window (seconds-scale, §IV-B2).
    pub downtime: Duration,
}

impl Default for HypervisorPolicy {
    fn default() -> Self {
        HypervisorPolicy {
            saturation_patience: Duration::from_secs(5),
            downtime: Duration::from_secs(2),
        }
    }
}

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct InducedMigrationScenario {
    /// The defense stack.
    pub stack: DefenseStack,
    /// RNG seed.
    pub seed: u64,
    /// When the co-located attacker begins saturating the shared resource.
    pub exhaustion_start: SimTime,
    /// The hypervisor's policy.
    pub policy: HypervisorPolicy,
}

impl InducedMigrationScenario {
    /// Defaults: exhaustion begins at t = 2 s.
    pub fn new(stack: DefenseStack, seed: u64) -> Self {
        InducedMigrationScenario {
            stack,
            seed,
            exhaustion_start: SimTime::from_secs(2),
            policy: HypervisorPolicy::default(),
        }
    }
}

/// Outcome: the standard hijack outcome plus when the hypervisor moved the
/// victim.
#[derive(Clone, Debug)]
pub struct InducedOutcome {
    /// When the hypervisor initiated the (induced) migration.
    pub migration_triggered_at: SimTime,
    /// The hijack outcome during the induced window.
    pub hijack: HijackOutcome,
}

/// Runs the scenario: to the network, the induced migration is a
/// natural one that fires when the hypervisor's patience runs out, so
/// this is [`hijack::run`] with the victim dropping then and rejoining
/// after the policy's downtime.
pub fn run(scenario: &InducedMigrationScenario) -> InducedOutcome {
    // The co-located resource exhaustion runs from `exhaustion_start`; the
    // hypervisor observes sustained saturation and, after its patience
    // window, live-migrates the victim.
    let migration_triggered_at = scenario.exhaustion_start + scenario.policy.saturation_patience;
    let hijack = hijack::run(&HijackScenario {
        victim_down_at: migration_triggered_at,
        downtime: scenario.policy.downtime,
        tail: Duration::from_secs(3),
        ..HijackScenario::new(scenario.stack, scenario.seed)
    });
    InducedOutcome {
        migration_triggered_at,
        hijack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn induced_window_is_hijacked_like_a_natural_one() {
        let out = run(&InducedMigrationScenario::new(
            DefenseStack::TopoGuardSphinx,
            11,
        ));
        assert!(out.hijack.hijack_succeeded(), "{out:?}");
        assert_eq!(out.hijack.alerts_before_rejoin, 0, "{out:?}");
        // The attacker reacted within the induced window.
        let ack = out.hijack.controller_ack_delay_ms().unwrap();
        assert!(ack < 1000.0, "ack {ack} ms");
    }

    #[test]
    fn client_pings_during_induced_window_are_measured() {
        // Regression: this field was hard-coded to 0. The client pings
        // every 250 ms and the induced downtime window is 2 s, so once the
        // attacker assumes the victim's identity it answers a nonzero
        // number of the client's pings before the rejoin.
        let out = run(&InducedMigrationScenario::new(
            DefenseStack::TopoGuardSphinx,
            11,
        ));
        assert!(out.hijack.hijack_succeeded(), "{out:?}");
        assert!(
            out.hijack.client_pings_during_hijack > 0,
            "expected captured client pings during the induced window, got 0"
        );
    }

    #[test]
    fn migration_fires_after_patience_window() {
        let scenario = InducedMigrationScenario::new(DefenseStack::None, 12);
        let out = run(&scenario);
        assert_eq!(
            out.migration_triggered_at,
            scenario.exhaustion_start + scenario.policy.saturation_patience
        );
    }
}
