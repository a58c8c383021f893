//! The alert-flooding scenario (§IV-B "Alert Floods"): an attacker spoofs
//! many existing identifiers to bury a real hijack in spurious migration
//! alerts.

use attacks::{AlertFloodAttacker, FloodConfig};
use controller::ControllerConfig;
use netsim::apps::PeriodicPinger;
use netsim::{LinkProfile, NetworkSpec, Simulator};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo};

use crate::defense::{self, DefenseStack};

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct FloodScenario {
    /// The defense stack (TopoGuard-based stacks raise per-spoof alerts).
    pub stack: DefenseStack,
    /// RNG seed.
    pub seed: u64,
    /// Number of benign hosts whose identities get spoofed.
    pub victims: usize,
    /// Spoofed frames per second.
    pub spoof_rate_per_sec: u64,
    /// Run length.
    pub run_for: Duration,
}

impl FloodScenario {
    /// Defaults: 8 victims, 20 spoofs/second, 30 s run.
    pub fn new(stack: DefenseStack, seed: u64) -> Self {
        FloodScenario {
            stack,
            seed,
            victims: 8,
            spoof_rate_per_sec: 20,
            run_for: Duration::from_secs(30),
        }
    }
}

/// Scenario outcome.
#[derive(Clone, Debug)]
pub struct FloodOutcome {
    /// Spoofed frames the attacker sent.
    pub spoofs_sent: u64,
    /// Total alerts the operator must triage.
    pub alerts_total: usize,
    /// Alerts per second of attack.
    pub alerts_per_sec: f64,
    /// Distinct identifiers implicated in alerts — the triage fan-out.
    pub identities_implicated: usize,
    /// Telemetry snapshot taken at the end of the run.
    pub metrics: tm_telemetry::MetricsSnapshot,
}

/// Runs the scenario: `victims` benign hosts generate background traffic;
/// the attacker round-robins spoofed frames bearing their identities.
pub fn run(scenario: &FloodScenario) -> FloodOutcome {
    // Victim hosts use ids/IP octets/ports 1..=victims; the attacker sits
    // at 100 — more victims than that would silently collide with it.
    assert!(
        (1..=99).contains(&scenario.victims),
        "victims must be 1..=99 (the attacker occupies slot 100)"
    );
    let sw = DatapathId::new(0x1);
    let link = LinkProfile::fixed(Duration::from_millis(5));
    let mut spec = NetworkSpec::new();
    spec.add_switch(sw);

    let mut victims = Vec::new();
    for i in 0..scenario.victims as u32 {
        let host = HostId::new(i + 1);
        let mac = MacAddr::from_index(i + 1);
        let ip = IpAddr::new(10, 0, 0, (i + 1) as u8);
        spec.add_host(host, mac, ip);
        spec.attach_host(host, sw, PortNo::new((i + 1) as u16), link);
        victims.push((mac, ip));
        // Victims talk to their neighbour so they are tracked and active.
        let peer_ip = IpAddr::new(10, 0, 0, ((i % scenario.victims as u32) + 1) as u8);
        spec.set_host_app(
            host,
            Box::new(PeriodicPinger::new(peer_ip, Duration::from_millis(400))),
        );
    }

    let attacker = HostId::new(100);
    spec.add_host(
        attacker,
        MacAddr::from_index(100),
        IpAddr::new(10, 0, 0, 100),
    );
    spec.attach_host(attacker, sw, PortNo::new(100), link);
    let interval = Duration::from_nanos(1_000_000_000 / scenario.spoof_rate_per_sec.max(1));
    spec.set_host_app(
        attacker,
        Box::new(AlertFloodAttacker::new(FloodConfig {
            victims,
            interval,
            start_delay: Duration::from_secs(2),
        })),
    );

    spec.set_controller(Box::new(
        scenario.stack.build_controller(ControllerConfig::default()),
    ));

    spec.set_telemetry(tm_telemetry::Telemetry::new());
    let mut sim = Simulator::new(spec, scenario.seed);
    sim.run_for(scenario.run_for);

    let spoofs_sent = sim
        .host_app_as::<AlertFloodAttacker>(attacker)
        .map(|a| a.spoofs_sent)
        .unwrap_or(0);
    let ctrl = defense::controller(&sim);
    let alerts = ctrl.alerts();
    let attack_secs = (scenario.run_for - Duration::from_secs(2)).as_secs_f64();
    let mut identities: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for alert in alerts.all() {
        // Each alert's detail names the implicated identifier first.
        if let Some(word) = alert.detail.split_whitespace().find(|w| w.contains(':')) {
            identities.insert(word.to_string());
        }
    }
    FloodOutcome {
        spoofs_sent,
        alerts_total: alerts.len(),
        alerts_per_sec: alerts.len() as f64 / attack_secs.max(1e-9),
        identities_implicated: identities.len(),
        metrics: sim.metrics_snapshot(),
    }
}
