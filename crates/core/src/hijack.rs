//! The Port Probing / host-location-hijacking scenario (§IV-B, §V-B),
//! with the Fig. 3 timeline fully instrumented.
//!
//! Sequence of events (times relative to scenario start):
//!
//! 1. The network settles; the attacker arpings the victim and begins
//!    ARP-probing it every 50 ms with a 35 ms timeout.
//! 2. At `victim_down_at` the victim begins a migration: its interface
//!    drops (a Port-Down follows within the 802.3 pulse window).
//! 3. The attacker's next probe times out; it `ifconfig`s itself into the
//!    victim's identity and originates traffic.
//! 4. The controller registers the "migration" onto the attacker's port —
//!    the hijack is complete.
//! 5. Optionally, after `downtime`, the victim completes its real move at
//!    its destination port and starts talking — producing the identifier
//!    oscillation that finally trips anomaly detectors.

use attacks::{PortProbingAttacker, ProbingConfig, ProbingTimeline};
use controller::{AlertKind, SdnController};
use netsim::apps::PeriodicPinger;
use netsim::Simulator;
use sdn_types::{Duration, SimTime};

use crate::defense::{self, DefenseStack};
use crate::fabric;
use crate::robustness::FaultProfile;
use crate::testbed;

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct HijackScenario {
    /// The defense stack.
    pub stack: DefenseStack,
    /// RNG seed.
    pub seed: u64,
    /// When the victim goes down (must leave time for the network to
    /// settle and the attacker to acquire the victim's MAC).
    pub victim_down_at: SimTime,
    /// How long the attacker waits for a probe reply before it believes
    /// the victim gone (see [`ProbingConfig::probe_timeout`]).
    pub probe_timeout: Duration,
    /// The victim's migration downtime window (VM live migration: order of
    /// seconds, §IV-B2).
    pub downtime: Duration,
    /// Whether the victim completes its move at the new location (step 5).
    pub victim_rejoins: bool,
    /// How long to run after the victim (maybe) rejoins.
    pub tail: Duration,
    /// Network degradation active for the whole run ([`FaultProfile::Clean`]
    /// leaves the trace byte-identical to the pre-fault-layer simulator).
    pub faults: FaultProfile,
    /// Run on a generated fabric instead of the hand-built two-switch
    /// testbed. Role placement comes from the spec's forked attacker
    /// stream (see [`fabric::hijack_setup`]).
    pub fabric: Option<tm_topo::TopoKind>,
    /// Flow-level background load riding the fabric for the whole run
    /// (see [`crate::load`]). Only a `fabric` carries it: `Some` on the
    /// hand-built testbed is rejected. `None` leaves the trace
    /// byte-identical to an unloaded run.
    pub traffic: Option<crate::load::TrafficLoad>,
}

impl HijackScenario {
    /// Defaults: victim drops at t=3 s, a 2 s migration window, rejoin on.
    pub fn new(stack: DefenseStack, seed: u64) -> Self {
        HijackScenario {
            stack,
            seed,
            victim_down_at: SimTime::from_secs(3),
            probe_timeout: ProbingConfig::PAPER_TIMEOUT,
            downtime: Duration::from_secs(2),
            victim_rejoins: true,
            tail: Duration::from_secs(5),
            faults: FaultProfile::Clean,
            fabric: None,
            traffic: None,
        }
    }

    /// The same attack on a generated fabric. Host traffic holds until
    /// [`fabric::TRAFFIC_START`] (broadcast safety on loopy fabrics), so
    /// the victim drops later (t = 6 s) — still ≈80 probe periods of
    /// baseline for the attacker.
    pub fn on_fabric(kind: tm_topo::TopoKind, stack: DefenseStack, seed: u64) -> Self {
        HijackScenario {
            victim_down_at: SimTime::from_secs(6),
            fabric: Some(kind),
            ..HijackScenario::new(stack, seed)
        }
    }
}

/// Scenario outcome.
#[derive(Clone, Debug)]
pub struct HijackOutcome {
    /// When the victim actually went down (scripted).
    pub victim_down_at: SimTime,
    /// The attacker's internal timeline (Figs. 4, 5, 7, 8).
    pub timeline: ProbingTimeline,
    /// When the controller's HTS first bound the victim's MAC to the
    /// attacker's port (Fig. 6's "controller Packet-In"), if the hijack
    /// landed.
    pub controller_ack_at: Option<SimTime>,
    /// Alerts raised before the victim rejoined (stealth window).
    pub alerts_before_rejoin: usize,
    /// Alerts raised in total.
    pub alerts_total: usize,
    /// Identifier-conflict (oscillation) alerts.
    pub conflict_alerts: usize,
    /// Migration-verification alerts.
    pub migration_alerts: usize,
    /// Pings the benign client completed against "the victim" during the
    /// impersonation window (traffic captured by the attacker).
    pub client_pings_during_hijack: u64,
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

impl HijackOutcome {
    /// The hijack succeeded: the controller bound the victim's identity to
    /// the attacker's port.
    pub fn hijack_succeeded(&self) -> bool {
        self.controller_ack_at.is_some()
    }

    /// Undetected during the impersonation window (the paper's claim: no
    /// policy is violated until the victim rejoins).
    pub fn undetected_before_rejoin(&self) -> bool {
        self.alerts_before_rejoin == 0
    }

    /// Victim-down → attacker believes victim down (Fig. 8), ms.
    pub fn detect_delay_ms(&self) -> Option<f64> {
        Some(
            self.timeline
                .believed_down_at?
                .since(self.victim_down_at)
                .as_millis_f64(),
        )
    }

    /// Victim-down → attacker interface up as victim (Fig. 5), ms.
    pub fn iface_up_delay_ms(&self) -> Option<f64> {
        Some(
            self.timeline
                .iface_up_at?
                .since(self.victim_down_at)
                .as_millis_f64(),
        )
    }

    /// Victim-down → controller acknowledges the attacker as the victim
    /// (Fig. 6), ms.
    pub fn controller_ack_delay_ms(&self) -> Option<f64> {
        Some(
            self.controller_ack_at?
                .since(self.victim_down_at)
                .as_millis_f64(),
        )
    }

    /// Victim-down → start of the attacker's final (timed-out) probe
    /// (Fig. 7), ms. Negative values (probe began just before the victim
    /// dropped) are clamped to zero by the virtual clock, so this reports
    /// a signed value computed from raw nanoseconds.
    pub fn final_probe_start_delay_ms(&self) -> Option<f64> {
        let probe = self.timeline.final_probe_start?;
        Some((probe.as_nanos() as f64 - self.victim_down_at.as_nanos() as f64) / 1e6)
    }
}

/// Runs the scenario.
///
/// # Panics
/// On `traffic` without a `fabric`.
pub fn run(scenario: &HijackScenario) -> HijackOutcome {
    assert!(
        scenario.traffic.is_none() || scenario.fabric.is_some(),
        "background traffic needs a generated fabric: set `fabric`, or set \
         `traffic: None` on the hand-built testbed"
    );
    let (mut spec, ids, targets) = match scenario.fabric {
        None => testbed::hijack_spec(scenario.stack),
        Some(kind) => fabric::hijack_setup(kind, scenario.stack, scenario.seed),
    };
    // Fabrics hold host traffic for broadcast safety; the loop-free
    // testbed starts at once.
    let traffic_start = scenario
        .fabric
        .map_or(Duration::ZERO, |_| fabric::TRAFFIC_START);
    let base_probing = ProbingConfig::paper_default(ids.victim_ip, ids.client_ip);
    let probing = ProbingConfig {
        probe_timeout: scenario.probe_timeout,
        start_delay: base_probing.start_delay.max(traffic_start),
        ..base_probing
    };
    spec.set_host_app(ids.attacker, Box::new(PortProbingAttacker::new(probing)));
    // The benign client keeps a session toward the victim.
    spec.set_host_app(
        ids.client,
        Box::new(PeriodicPinger::starting_at(
            ids.victim_ip,
            Duration::from_millis(250),
            traffic_start,
        )),
    );
    // The migration-destination NIC needs an app slot so the scenario can
    // script its rejoin traffic.
    spec.set_host_app(ids.victim_new, Box::new(netsim::NullHostApp));
    spec.set_telemetry(tm_telemetry::Telemetry::new());

    let run_end = scenario.victim_down_at + scenario.downtime + scenario.tail;
    let plan = scenario.faults.plan(&targets, SimTime::ZERO, run_end);
    // Flow-level background load opens with the broadcast-safety hold
    // like all fabric traffic.
    let traffic = match (scenario.fabric, scenario.traffic) {
        (Some(kind), Some(load)) => load.plan_for(
            kind,
            netsim::TrafficWindow::new(SimTime::ZERO + fabric::TRAFFIC_START, run_end),
        ),
        _ => netsim::TrafficPlan::new(),
    };
    let mut sim = Simulator::with_plans(spec, scenario.seed, plan, traffic);
    // The migration-destination NIC starts down.
    sim.host_iface_down(ids.victim_new);

    // With the identifier-binding extension deployed, the orchestrator
    // attests the *planned* migration (victim -> its destination port).
    // The attacker's rebind attempt is, of course, never attested.
    if scenario.stack == DefenseStack::TopoGuardPlusBinding {
        if let Some(ctrl) = sim.controller_as_mut::<SdnController>() {
            if let Some(binding) = ctrl.module_as_mut::<topoguard::IdentifierBinding>() {
                binding.authorize(ids.victim_mac, ids.victim_new_port);
            }
        }
    }

    // Phase 1: settle + monitoring.
    sim.run_until(scenario.victim_down_at);

    // Phase 2: the victim begins its migration.
    sim.host_iface_down(ids.victim);
    let victim_down_at = sim.now();

    // Drive in 1 ms steps until the controller binds the victim's MAC to
    // the attacker's port (or the downtime window closes).
    let mut controller_ack_at = None;
    let rejoin_at = victim_down_at + scenario.downtime;
    while sim.now() < rejoin_at {
        sim.run_for(Duration::from_millis(1));
        let ctrl = defense::controller(&sim);
        if controller_ack_at.is_none()
            && ctrl.devices().location_of(&ids.victim_mac) == Some(ids.attacker_port)
        {
            controller_ack_at = Some(sim.now());
            break;
        }
    }
    let client_pings_at_hijack = sim
        .host_app_as::<PeriodicPinger>(ids.client)
        .map(|p| p.received)
        .unwrap_or(0);

    // Let the impersonation window play out.
    sim.run_until(rejoin_at);
    let alerts_before_rejoin = defense::controller(&sim).alerts().len();
    let client_pings_at_rejoin = sim
        .host_app_as::<PeriodicPinger>(ids.client)
        .map(|p| p.received)
        .unwrap_or(0);

    // Phase 5: the victim completes its move at the destination port.
    if scenario.victim_rejoins {
        sim.host_schedule_iface_up(ids.victim_new, Duration::from_millis(1), None);
        // The rejoined victim originates traffic (it resumes its sessions).
        sim.run_for(Duration::from_millis(50));
        sim.with_host_app(ids.victim_new, |_, ctx| {
            let info = ctx.info();
            let arp = sdn_types::packet::ArpPacket::request(info.mac, info.ip, ids.client_ip);
            ctx.send_frame(sdn_types::packet::EthernetFrame::new(
                info.mac,
                sdn_types::MacAddr::BROADCAST,
                sdn_types::packet::Payload::Arp(arp),
            ));
        });
    }
    sim.run_for(scenario.tail);

    let ctrl = defense::controller(&sim);
    let alerts = ctrl.alerts();
    let timeline = sim
        .host_app_as::<PortProbingAttacker>(ids.attacker)
        .map(|a| a.timeline)
        .unwrap_or_default();

    HijackOutcome {
        victim_down_at,
        timeline,
        controller_ack_at,
        alerts_before_rejoin,
        alerts_total: alerts.len(),
        conflict_alerts: alerts.count(AlertKind::IdentifierConflict),
        migration_alerts: alerts.count(AlertKind::HostMigrationPrecondition)
            + alerts.count(AlertKind::HostMigrationPostcondition),
        client_pings_during_hijack: client_pings_at_rejoin.saturating_sub(client_pings_at_hijack),
        trace: *sim.trace(),
        metrics: sim.metrics_snapshot(),
    }
}
