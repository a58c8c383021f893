//! End-to-end scenario tests reproducing the paper's headline claims:
//!
//! * TopoGuard stops a naive LLDP relay, but Port Amnesia bypasses it
//!   (out-of-band and in-band), and SPHINX notices neither.
//! * TOPOGUARD+ detects both Port Amnesia variants (CMM for in-band, LLI
//!   for out-of-band) and blocks the fabricated link.
//! * Port Probing wins the migration race against every stack; alerts only
//!   appear once the real victim rejoins.

use sdn_types::Duration;
use tm_core::hijack::{self, HijackScenario};
use tm_core::linkfab::{self, FabTopology, LinkFabScenario, RelayMode};
use tm_core::{DefenseStack, FaultProfile, TrafficLoad};

fn fab(mode: RelayMode, stack: DefenseStack, seed: u64) -> tm_core::LinkFabOutcome {
    linkfab::run(&LinkFabScenario::new(mode, stack, seed))
}

/// The in-band relay needs a dataplane path between the colluders, so it
/// runs on Fig. 9 with the Fig. 1 demonstration's timing.
fn in_band(stack: DefenseStack, seed: u64) -> tm_core::LinkFabOutcome {
    linkfab::run(&LinkFabScenario {
        topology: FabTopology::Fig9,
        ..LinkFabScenario::new(RelayMode::InBand, stack, seed)
    })
}

#[test]
fn oob_fabrication_succeeds_with_no_defense() {
    let out = fab(RelayMode::OutOfBand, DefenseStack::None, 1);
    assert!(out.link_established, "fake link must be inferred: {out:?}");
    assert!(out.stats_a.lldp_captured > 0 && out.stats_b.lldp_injected > 0);
}

#[test]
fn mitm_bridge_carries_benign_traffic() {
    // In the Fig. 1 topology the *only* path between h1 and h2 is the
    // fabricated link: completed pings prove the man-in-the-middle works.
    let out = fab(RelayMode::OutOfBand, DefenseStack::None, 2);
    assert!(out.link_established);
    assert!(
        out.benign_pings_ok > 10,
        "pings over fake link: {}",
        out.benign_pings_ok
    );
    assert!(out.bridged_frames > 20, "bridged: {}", out.bridged_frames);
}

#[test]
fn naive_relay_is_caught_by_topoguard() {
    // The defense baseline: without amnesia, LLDP arrives at a HOST port.
    let out = fab(RelayMode::NaiveNoAmnesia, DefenseStack::TopoGuard, 3);
    assert!(out.fabrication_alerts > 0, "TopoGuard must alert: {out:?}");
    assert!(!out.link_established, "TopoGuard blocks the link: {out:?}");
}

#[test]
fn port_amnesia_bypasses_topoguard() {
    // §V-A: "TopoGuard will not raise an alert when we create our false
    // link."
    let out = fab(RelayMode::OutOfBand, DefenseStack::TopoGuard, 4);
    assert!(out.link_established, "{out:?}");
    assert!(!out.detected(), "no alerts expected: {out:?}");
    assert!(out.benign_pings_ok > 10, "MITM functional under TopoGuard");
}

#[test]
fn port_amnesia_bypasses_sphinx() {
    let out = fab(RelayMode::OutOfBand, DefenseStack::Sphinx, 5);
    assert!(out.link_established, "{out:?}");
    assert!(!out.detected(), "SPHINX trusts new links: {out:?}");
}

#[test]
fn port_amnesia_bypasses_topoguard_and_sphinx_together() {
    let out = fab(RelayMode::OutOfBand, DefenseStack::TopoGuardSphinx, 6);
    assert!(out.link_established, "{out:?}");
    assert!(!out.detected(), "combined stack still blind: {out:?}");
}

#[test]
fn topoguard_plus_detects_oob_amnesia() {
    // The §VII evaluation setting: Fig. 9 testbed with real links forming
    // the LLI baseline, attack one minute after bootstrap. The CMM sees the
    // amnesia bounce and/or the LLI sees the relay latency; every
    // fabricated-link update is blocked.
    let out = linkfab::run(&LinkFabScenario::paper_eval(
        RelayMode::OutOfBand,
        DefenseStack::TopoGuardPlus,
        7,
    ));
    assert!(out.detected(), "TOPOGUARD+ must detect: {out:?}");
    assert!(!out.link_established, "TOPOGUARD+ must block: {out:?}");
}

#[test]
fn topoguard_plus_lli_detects_stealthy_oob_relay() {
    // Even with no warmup traffic and no amnesia (nothing for the CMM),
    // the out-of-band channel's latency betrays the relay (Fig. 13).
    let out = linkfab::run(&LinkFabScenario::paper_eval(
        RelayMode::OutOfBandStealthy,
        DefenseStack::TopoGuardPlus,
        8,
    ));
    assert!(out.lli_alerts > 0, "LLI must flag the latency: {out:?}");
    assert!(out.cmm_alerts == 0, "nothing for the CMM to see: {out:?}");
    assert!(!out.link_established, "{out:?}");
}

#[test]
fn stealthy_oob_relay_beats_topoguard_without_lli() {
    let out = fab(RelayMode::OutOfBandStealthy, DefenseStack::TopoGuard, 9);
    assert!(out.link_established, "{out:?}");
    assert!(!out.detected(), "{out:?}");
}

#[test]
fn in_band_amnesia_bypasses_topoguard() {
    let out = in_band(DefenseStack::TopoGuard, 10);
    assert!(out.link_established, "{out:?}");
    assert!(!out.detected(), "{out:?}");
    assert!(
        out.stats_a.amnesia_cycles + out.stats_b.amnesia_cycles >= 2,
        "context switching required: {out:?}"
    );
}

#[test]
fn topoguard_plus_cmm_detects_in_band_amnesia() {
    // Fig. 12: the context switch generates Port-Down/Up during LLDP
    // propagation.
    let out = in_band(DefenseStack::TopoGuardPlus, 11);
    assert!(out.cmm_alerts > 0, "CMM must fire: {out:?}");
    assert!(!out.link_established, "{out:?}");
}

#[test]
fn each_relay_mode_bounces_as_the_one_bounce_rule_says() {
    // Out of band, the warmup ARP leaves the port HOST-profiled and the
    // first injected LLDP needs it SWITCH: one amnesia per port suffices,
    // since nothing host-like follows. The stealthy relay never profiled
    // its port and the naive one ignores the conflict: neither bounces.
    for (mode, bounces) in [
        (RelayMode::OutOfBand, 1),
        (RelayMode::OutOfBandStealthy, 0),
        (RelayMode::NaiveNoAmnesia, 0),
    ] {
        let out = fab(mode, DefenseStack::TopoGuard, 1);
        assert_eq!(
            (out.stats_a.amnesia_cycles, out.stats_b.amnesia_cycles),
            (bounces, bounces),
            "{}: {out:?}",
            mode.name()
        );
    }
    // In band, tunnelling needs HOST and injecting needs SWITCH: each
    // colluder switches context both ways.
    let out = linkfab::run(&LinkFabScenario::paper_eval(
        RelayMode::InBand,
        DefenseStack::TopoGuard,
        1,
    ));
    assert!(
        out.stats_a.amnesia_cycles >= 2 && out.stats_b.amnesia_cycles >= 2,
        "{out:?}"
    );
}

#[test]
fn benign_robustness_run_is_deterministic() {
    // The relay scenario's benign twin (colluders idle) on Fig. 9 under
    // TOPOGUARD+, with 30 % trunk loss from 10 s to the end of a 40 s run.
    let scenario = LinkFabScenario {
        mode: None,
        run_for: Duration::from_secs(40),
        faults: FaultProfile::TrunkLoss { pct: 30 },
        faults_from: Duration::from_secs(10),
        ..LinkFabScenario::paper_eval(RelayMode::OutOfBand, DefenseStack::TopoGuardPlus, 7)
    };
    let a = linkfab::run(&scenario);
    let b = linkfab::run(&scenario);
    assert_eq!(a.trace, b.trace, "same scenario, same seed, same trace");
    assert_eq!(a.metrics.render(), b.metrics.render());
    assert!(
        a.metrics.counter("netsim.fault.loss_drops").unwrap_or(0) > 0,
        "the loss window must actually drop frames"
    );
}

#[test]
#[should_panic(expected = "run it on FabTopology::Fig9 or a fabric")]
fn in_band_relay_on_fig1_is_rejected() {
    fab(RelayMode::InBand, DefenseStack::TopoGuard, 10);
}

#[test]
#[should_panic(expected = "`traffic: None` on the hand-built testbeds")]
fn background_traffic_on_a_relay_testbed_is_rejected() {
    linkfab::run(&LinkFabScenario {
        traffic: Some(TrafficLoad::steady(8, 1.0)),
        ..LinkFabScenario::new(RelayMode::OutOfBand, DefenseStack::None, 1)
    });
}

#[test]
#[should_panic(expected = "`traffic: None` on the hand-built testbed")]
fn background_traffic_on_the_hijack_testbed_is_rejected() {
    hijack::run(&HijackScenario {
        traffic: Some(TrafficLoad::steady(8, 1.0)),
        ..HijackScenario::new(DefenseStack::None, 1)
    });
}

#[test]
fn hijack_wins_the_race_against_every_stack() {
    for (i, stack) in DefenseStack::ALL.into_iter().enumerate() {
        let out = hijack::run(&HijackScenario {
            victim_rejoins: false,
            ..HijackScenario::new(stack, 100 + i as u64)
        });
        assert!(out.hijack_succeeded(), "{stack}: {out:?}");
        assert!(
            out.undetected_before_rejoin(),
            "{stack}: must be indistinguishable from a real migration: {out:?}"
        );
        // Traffic toward the victim now reaches the attacker.
        assert!(
            out.client_pings_during_hijack > 0,
            "{stack}: client flows must be redirected: {out:?}"
        );
    }
}

#[test]
fn hijack_timing_matches_paper_shape() {
    // §V-B: detection ≈ timeout-bound (tens of ms), interface-up within
    // ~hundreds of ms, all well inside a seconds-scale migration window.
    let out = hijack::run(&HijackScenario {
        victim_rejoins: false,
        ..HijackScenario::new(DefenseStack::TopoGuardSphinx, 42)
    });
    let detect = out.detect_delay_ms().expect("victim detected as down");
    assert!(
        (10.0..120.0).contains(&detect),
        "down->believed-down {detect} ms"
    );
    let up = out.iface_up_delay_ms().expect("iface came up");
    assert!(up < 500.0, "down->iface-up {up} ms");
    let ack = out.controller_ack_delay_ms().expect("controller acked");
    assert!(ack < 1000.0, "down->controller-ack {ack} ms");
    assert!(detect <= up && up <= ack, "ordering {detect} {up} {ack}");
}

#[test]
fn victim_rejoin_finally_raises_alerts() {
    // Step (5): once the real victim comes back, the identifier exists at
    // two live locations and the anomaly surfaces.
    let out = hijack::run(&HijackScenario {
        victim_rejoins: true,
        ..HijackScenario::new(DefenseStack::TopoGuardSphinx, 77)
    });
    assert!(out.hijack_succeeded(), "{out:?}");
    assert!(out.undetected_before_rejoin(), "{out:?}");
    assert!(
        out.alerts_total > out.alerts_before_rejoin,
        "rejoin must produce alerts: {out:?}"
    );
}

#[test]
fn identifier_binding_extension_defeats_port_probing() {
    // The §VI-A direction, implemented as an extension: secure identifier
    // binding blocks the unattested rebind, so the hijack never lands even
    // though the attacker wins the timing race.
    let out = hijack::run(&HijackScenario {
        victim_rejoins: true,
        ..HijackScenario::new(DefenseStack::TopoGuardPlusBinding, 321)
    });
    assert!(
        !out.hijack_succeeded(),
        "binding must keep the victim ID off the attacker port: {out:?}"
    );
    assert!(
        out.alerts_total > 0,
        "the spoof attempt must be alerted: {out:?}"
    );
    // The attacker still *tried* (it won the race mechanically).
    assert!(out.timeline.first_spoofed_tx_at.is_some(), "{out:?}");
}

#[test]
fn sphinx_catches_a_lossy_mitm_bridge() {
    // The flip side of "all packets sent to the link are faithfully
    // transited" (§V-A): a greedy MITM that drops traffic breaks SPHINX's
    // per-flow counter conservation and is detected.
    use attacks::{RelayAttacker, RelayConfig};
    use controller::{AlertKind, SdnController};
    use netsim::apps::PeriodicPinger;
    use netsim::Simulator;
    use tm_core::testbed;

    let (mut spec, ep, _) = testbed::fig1_spec(DefenseStack::Sphinx);
    let lossy = |peer| RelayConfig {
        start_after: Duration::from_secs(5),
        drop_fraction: 0.7,
        ..RelayConfig::oob(peer)
    };
    spec.set_host_app(
        ep.attacker_a,
        Box::new(RelayAttacker::new(lossy(ep.attacker_b))),
    );
    spec.set_host_app(
        ep.attacker_b,
        Box::new(RelayAttacker::new(lossy(ep.attacker_a))),
    );
    let (h1, _, h2_ip) = ep.pinger.expect("Fig. 1 has a benign ping pair");
    spec.set_host_app(
        h1,
        Box::new(PeriodicPinger::new(h2_ip, Duration::from_millis(250))),
    );
    let mut sim = Simulator::new(spec, 99);
    sim.run_for(Duration::from_secs(60));

    let ctrl: &SdnController = sim.controller_as().expect("controller");
    assert!(
        ctrl.alerts().count(AlertKind::FlowInconsistency) > 0,
        "dropping most of the bridged traffic must break counter conservation: {:?}",
        ctrl.alerts().all().iter().take(3).collect::<Vec<_>>()
    );
    // Contrast: the faithful bridge in `port_amnesia_bypasses_sphinx`
    // produces zero alerts under the same stack.
}

#[test]
fn port_amnesia_is_cadence_agnostic_across_controller_profiles() {
    // Table III: POX and OpenDaylight probe every 5 s with shorter link
    // timeouts. The attack relays whatever cadence the controller uses —
    // the relay must just keep up with the refresh rate, which it does.
    use controller::{AlertKind, ControllerConfig, ControllerProfile, DirectedLink, SdnController};
    for (i, profile) in [
        ControllerProfile::FLOODLIGHT,
        ControllerProfile::POX,
        ControllerProfile::OPENDAYLIGHT,
    ]
    .into_iter()
    .enumerate()
    {
        let stack = DefenseStack::TopoGuard;
        let scenario = LinkFabScenario::new(RelayMode::OutOfBand, stack, 400 + i as u64);
        let (mut spec, endpoints, _) = linkfab::setup(&scenario);
        spec.set_controller(Box::new(stack.build_controller(ControllerConfig {
            profile,
            ..ControllerConfig::default()
        })));
        let mut sim = netsim::Simulator::new(spec, scenario.seed);
        sim.run_for(scenario.run_for);
        let ctrl: &SdnController = sim.controller_as().expect("controller");
        let link = DirectedLink::new(endpoints.port_a, endpoints.port_b);
        assert!(
            ctrl.topology().contains(&link) || ctrl.topology().contains(&link.reversed()),
            "{}: fake link missing",
            profile.name
        );
        let fabrication = [
            AlertKind::LinkFabrication,
            AlertKind::TrafficFromSwitchPort,
            AlertKind::LinkChanged,
        ];
        assert!(
            ctrl.alerts()
                .all()
                .iter()
                .all(|a| !fabrication.contains(&a.kind)),
            "{}: {:?}",
            profile.name,
            ctrl.alerts().all()
        );
    }
}

#[test]
fn forged_lldp_without_relay_is_stopped_by_authentication() {
    // A weaker attacker that *forges* LLDP (instead of relaying the
    // controller's signed packets) is exactly what authenticated LLDP
    // stops: the signature cannot be produced without the controller key.
    use controller::{DirectedLink, SdnController};
    use netsim::{FrameDisposition, HostApp, HostCtx, Simulator};
    use sdn_types::packet::{EthernetFrame, LldpPacket, Payload};
    use sdn_types::{DatapathId, MacAddr, PortNo};
    use tm_core::testbed;

    /// Claims a link from a switch port the attacker does not control by
    /// injecting self-made LLDP every second.
    struct Forger;
    impl HostApp for Forger {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.set_timer(Duration::from_secs(1), 1);
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _id: u64) {
            let info = ctx.info();
            // Forge: "this packet came from switch 0x1 port 2".
            let lldp = LldpPacket::new(DatapathId::new(0x1), PortNo::new(2));
            ctx.send_frame(EthernetFrame::new(
                info.mac,
                MacAddr::LLDP_MULTICAST,
                Payload::Lldp(lldp),
            ));
            ctx.set_timer(Duration::from_secs(1), 1);
        }
        fn on_frame(&mut self, _: &mut HostCtx<'_>, _: &EthernetFrame) -> FrameDisposition {
            FrameDisposition::Consume
        }
    }

    let forged_link = |ep: &tm_core::RelayEndpoints| {
        DirectedLink::new(
            sdn_types::SwitchPort::new(ep.port_a.dpid, PortNo::new(2)),
            ep.port_b,
        )
    };

    // Without authentication (plain Floodlight): the forgery lands.
    let (mut spec, ep, _) = testbed::fig1_spec(DefenseStack::None);
    spec.set_host_app(ep.attacker_b, Box::new(Forger));
    let mut sim = Simulator::new(spec, 71);
    sim.run_for(Duration::from_secs(10));
    let ctrl: &SdnController = sim.controller_as().unwrap();
    assert!(
        ctrl.topology().contains(&forged_link(&ep)),
        "unsigned controllers accept forged LLDP"
    );

    // With TopoGuard's authenticated LLDP: rejected (and the alert names
    // the receiving port).
    let (mut spec, ep, _) = testbed::fig1_spec(DefenseStack::TopoGuard);
    spec.set_host_app(ep.attacker_b, Box::new(Forger));
    let mut sim = Simulator::new(spec, 71);
    sim.run_for(Duration::from_secs(10));
    let ctrl: &SdnController = sim.controller_as().unwrap();
    assert!(
        !ctrl.topology().contains(&forged_link(&ep)),
        "authenticated LLDP must reject forgeries"
    );
    assert!(ctrl.alerts().count(controller::AlertKind::LinkFabrication) > 0);
}
