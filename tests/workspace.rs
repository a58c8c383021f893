//! Workspace-level integration tests exercising the public facade:
//! end-to-end determinism, failure injection, and cross-crate wiring.

use topomirage::controller::{ControllerConfig, SdnController};
use topomirage::netsim::apps::PeriodicPinger;
use topomirage::netsim::{LinkProfile, NetworkSpec, Simulator};
use topomirage::scenarios::hijack::{self, HijackScenario};
use topomirage::scenarios::linkfab::{self, LinkFabScenario, RelayMode};
use topomirage::scenarios::DefenseStack;
use topomirage::types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo};

#[test]
fn scenario_outcomes_are_deterministic_per_seed() {
    let run = || {
        let out = hijack::run(&HijackScenario::new(DefenseStack::TopoGuardSphinx, 9));
        (
            out.timeline.iface_up_at,
            out.controller_ack_at,
            out.alerts_total,
            out.client_pings_during_hijack,
        )
    };
    assert_eq!(run(), run(), "same seed must reproduce the entire scenario");
}

#[test]
fn different_seeds_vary_timing_but_not_outcome() {
    let mut acks = Vec::new();
    for seed in 0..5 {
        let out = hijack::run(&HijackScenario {
            victim_rejoins: false,
            ..HijackScenario::new(DefenseStack::TopoGuard, 300 + seed)
        });
        assert!(out.hijack_succeeded(), "seed {seed}");
        acks.push(out.controller_ack_delay_ms().unwrap());
    }
    let distinct: std::collections::BTreeSet<u64> = acks.iter().map(|a| a.to_bits()).collect();
    assert!(distinct.len() > 1, "jitter should vary timings: {acks:?}");
}

/// Failure injection: flapping switch ports and lost LLDP rounds must not
/// wedge the controller or the defenses — links recover after the flap.
#[test]
fn controller_recovers_from_port_flaps() {
    let s1 = DatapathId::new(1);
    let s2 = DatapathId::new(2);
    let mut spec = NetworkSpec::new();
    spec.add_switch(s1);
    spec.add_switch(s2);
    let link = LinkProfile::fixed(Duration::from_millis(5));
    spec.link_switches(s1, PortNo::new(1), s2, PortNo::new(1), link);
    spec.add_host(
        HostId::new(1),
        MacAddr::from_index(1),
        IpAddr::new(10, 0, 0, 1),
    );
    spec.attach_host(HostId::new(1), s1, PortNo::new(2), link);
    // Full TOPOGUARD+ stack: the flaps must not produce fabrication alerts.
    spec.set_controller(Box::new(DefenseStack::TopoGuardPlus.build_controller(
        ControllerConfig {
            profile: topomirage::controller::ControllerProfile::POX,
            ..ControllerConfig::default()
        },
    )));
    let mut sim = Simulator::new(spec, 17);
    sim.run_for(Duration::from_secs(6));
    assert_eq!(
        sim.controller_as::<SdnController>()
            .unwrap()
            .topology()
            .len(),
        2
    );

    // Flap the trunk three times (each flap hides at least one LLDP round).
    for _ in 0..3 {
        sim.set_switch_port_admin(s1, PortNo::new(1), false);
        sim.run_for(Duration::from_secs(12));
        sim.set_switch_port_admin(s1, PortNo::new(1), true);
        sim.run_for(Duration::from_secs(12));
    }
    let ctrl: &SdnController = sim.controller_as().unwrap();
    assert_eq!(ctrl.topology().len(), 2, "links must be re-discovered");
    // A real port flap during quiet periods is not link fabrication.
    assert_eq!(
        ctrl.alerts()
            .count(topomirage::controller::AlertKind::LinkFabrication),
        0
    );
}

/// Dropping every LLDP round for long enough expires links; traffic still
/// flows on same-switch paths, and discovery resumes cleanly.
#[test]
fn link_expiry_under_lldp_loss_does_not_break_local_forwarding() {
    let s1 = DatapathId::new(1);
    let mut spec = NetworkSpec::new();
    spec.add_switch(s1);
    let link = LinkProfile::fixed(Duration::from_millis(2));
    for i in 1..=2u32 {
        spec.add_host(
            HostId::new(i),
            MacAddr::from_index(i),
            IpAddr::new(10, 0, 0, i as u8),
        );
        spec.attach_host(HostId::new(i), s1, PortNo::new(i as u16), link);
    }
    spec.set_host_app(
        HostId::new(1),
        Box::new(PeriodicPinger::new(
            IpAddr::new(10, 0, 0, 2),
            Duration::from_millis(100),
        )),
    );
    spec.set_controller(Box::new(SdnController::new(ControllerConfig::default())));
    let mut sim = Simulator::new(spec, 23);
    sim.run_for(Duration::from_secs(5));
    let pinger: &PeriodicPinger = sim.host_app_as(HostId::new(1)).unwrap();
    assert!(
        pinger.received > 40,
        "local forwarding works: {}",
        pinger.received
    );
}

#[test]
fn facade_reexports_compose() {
    // The doc-comment quickstart, as a test.
    let outcome = linkfab::run(&LinkFabScenario::new(
        RelayMode::OutOfBand,
        DefenseStack::TopoGuard,
        42,
    ));
    assert!(outcome.succeeded_undetected());

    // Statistics utilities reachable through the facade.
    let timeout = topomirage::stats::normal_quantile(20.0, 5.0, 0.99);
    assert!((timeout - 31.63).abs() < 0.1);
}

/// Alert attribution: each alert a module raises through `ModuleCtx::raise`
/// carries that module's `name()`, also when two modules raise in one pass
/// and the first vetoes the update.
#[test]
fn alerts_carry_their_raisers_name() {
    use topomirage::controller::{
        AlertKind, Command, DefenseModule, DirectedLink, LinkLatencySample, ModuleCtx,
    };

    struct Raiser {
        name: &'static str,
        verdict: Command,
    }
    impl DefenseModule for Raiser {
        fn name(&self) -> &'static str {
            self.name
        }
        fn on_link_update(
            &mut self,
            cx: &mut ModuleCtx<'_>,
            link: DirectedLink,
            _is_new: bool,
            _sample: Option<LinkLatencySample>,
        ) -> Command {
            let detail = format!("{} saw {} -> {}", self.name, link.src, link.dst);
            cx.raise(AlertKind::LinkChanged, detail);
            self.verdict
        }
    }

    let (s1, s2) = (DatapathId::new(1), DatapathId::new(2));
    let mut spec = NetworkSpec::new();
    spec.add_switch(s1);
    spec.add_switch(s2);
    let link = LinkProfile::fixed(Duration::from_millis(5));
    spec.link_switches(s1, PortNo::new(1), s2, PortNo::new(1), link);
    let first = Raiser {
        name: "made-up/first",
        verdict: Command::Block,
    };
    let second = Raiser {
        name: "made-up/second",
        verdict: Command::Continue,
    };
    spec.set_controller(Box::new(
        SdnController::new(ControllerConfig::default())
            .with_module(Box::new(first))
            .with_module(Box::new(second)),
    ));
    let mut sim = Simulator::new(spec, 7);
    sim.run_for(Duration::from_secs(1));

    let ctrl: &SdnController = sim.controller_as().expect("controller");
    let alerts = ctrl.alerts().all();
    assert!(!alerts.is_empty(), "both directions of the trunk update");
    for pair in alerts.chunks(2) {
        let [a, b] = pair else {
            panic!("every update raises one alert per module: {alerts:?}");
        };
        assert_eq!((a.source, b.source), ("made-up/first", "made-up/second"));
        assert_eq!(a.at, b.at, "one pass, one instant");
    }
    assert!(alerts.iter().all(|a| a.detail.starts_with(a.source)));
    assert!(ctrl.topology().is_empty(), "the first module's veto holds");
}

/// The attack window math of §IV-B2: hijack completion across many seeds
/// stays far inside a seconds-scale migration window.
#[test]
fn hijack_fits_live_migration_windows() {
    for seed in 0..8 {
        let out = hijack::run(&HijackScenario {
            victim_rejoins: false,
            ..HijackScenario::new(DefenseStack::TopoGuardSphinx, 900 + seed)
        });
        let ack = out.controller_ack_delay_ms().expect("hijack landed");
        assert!(
            ack < 1000.0,
            "seed {seed}: {ack} ms must fit a ~3000 ms migration window"
        );
    }
}

/// Datacenter-scale smoke: a generated fat-tree k=8 fabric (80 switches)
/// boots under the full TopoGuard+ stack and runs one simulated second of
/// control-plane load end to end — handshakes, LLDP discovery, echo
/// probes — through the facade's scale scenario. Guards the whole
/// tm-topo → netsim → controller pipeline at a size the paper's
/// four-switch testbeds never reach.
#[test]
fn fat_tree_scale_soak_boots_and_discovers() {
    use topomirage::scenarios::scale::{self, ScaleScenario};
    use topomirage::topo::TopoKind;

    let out = scale::run(&ScaleScenario::new(
        TopoKind::FatTree { k: 8 },
        DefenseStack::TopoGuardPlus,
        0xD5_2018,
    ));
    assert_eq!(out.switches, 80, "fat-tree k=8: 16 core + 32 agg + 32 edge");
    assert!(
        out.events_processed > 2_000,
        "a booting 80-switch fabric must process a nontrivial event load, got {}",
        out.events_processed
    );
    // Every inter-switch link is discovered in both directions: k=8 has
    // 256 undirected switch-switch links (core-agg 128, agg-edge 128),
    // so 512 directed adjacencies.
    assert_eq!(
        out.links_discovered, 512,
        "LLDP discovery must converge on the full fabric within 1 s"
    );
    // The run stops mid-cadence, so parked periodic timers (echo, next
    // LLDP round) legitimately outlive it — but nothing due may be lost.
    assert!(
        out.events_scheduled >= out.events_processed,
        "scheduled {} < processed {}",
        out.events_scheduled,
        out.events_processed
    );
    assert_eq!(
        out.alerts_total, 0,
        "a benign fabric must not trip TopoGuard+"
    );
}

#[test]
fn a_soak_without_traffic_scans_no_flow_table() {
    use topomirage::scenarios::scale::{self, ScaleScenario};
    use topomirage::topo::TopoKind;

    // With no host traffic the controller installs no rule, so no switch
    // has anything to expire and none may schedule an expiry scan.
    let out = scale::run(&ScaleScenario {
        run_for: Duration::from_secs(60),
        ..ScaleScenario::new(
            TopoKind::FatTree { k: 4 },
            DefenseStack::TopoGuardPlus,
            0xD5_2018,
        )
    });
    assert_eq!(out.alerts_total, 0, "a benign soak raises no alert");
    assert_eq!(out.links_discovered, 64, "every trunk, both directions");
    assert_eq!(
        out.metrics
            .counter("netsim.event.switch_expiry_tick")
            .unwrap_or(0),
        0,
        "an empty flow table schedules no expiry scan"
    );
}
