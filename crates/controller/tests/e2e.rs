//! End-to-end controller tests on simulated networks: LLDP link discovery,
//! host tracking, reactive forwarding, link expiry, and latency tracking.

use controller::{ControllerConfig, ControllerProfile, DirectedLink, SdnController};
use netsim::apps::PeriodicPinger;
use netsim::{LinkProfile, NetworkSpec, Simulator};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SwitchPort};
use tm_telemetry::Telemetry;

const S1: DatapathId = DatapathId::new(1);
const S2: DatapathId = DatapathId::new(2);
const H1: HostId = HostId::new(1);
const H2: HostId = HostId::new(2);

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index(i)
}
fn ip(i: u16) -> IpAddr {
    IpAddr::from_index(i)
}
fn sp(d: DatapathId, p: u16) -> SwitchPort {
    SwitchPort::new(d, PortNo::new(p))
}

/// Two switches, one inter-switch link, one host on each switch.
fn two_switch_spec(config: ControllerConfig) -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    spec.add_switch(S1);
    spec.add_switch(S2);
    spec.link_switches(
        S1,
        PortNo::new(1),
        S2,
        PortNo::new(1),
        LinkProfile::fixed(Duration::from_millis(5)),
    );
    spec.add_host(H1, mac(1), ip(1));
    spec.add_host(H2, mac(2), ip(2));
    spec.attach_host(
        H1,
        S1,
        PortNo::new(2),
        LinkProfile::fixed(Duration::from_millis(5)),
    );
    spec.attach_host(
        H2,
        S2,
        PortNo::new(2),
        LinkProfile::fixed(Duration::from_millis(5)),
    );
    spec.set_controller(Box::new(SdnController::new(config)));
    spec
}

#[test]
fn lldp_discovers_both_link_directions() {
    let mut sim = Simulator::new(two_switch_spec(ControllerConfig::default()), 1);
    sim.run_for(Duration::from_secs(1));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    assert_eq!(ctrl.topology().len(), 2, "both directions inferred");
    assert!(ctrl
        .topology()
        .contains(&DirectedLink::new(sp(S1, 1), sp(S2, 1))));
    assert!(ctrl
        .topology()
        .contains(&DirectedLink::new(sp(S2, 1), sp(S1, 1))));
}

#[test]
fn discovery_cadence_follows_profile() {
    for profile in [ControllerProfile::FLOODLIGHT, ControllerProfile::POX] {
        let config = ControllerConfig {
            profile,
            ..ControllerConfig::default()
        };
        let mut spec = two_switch_spec(config);
        spec.set_telemetry(Telemetry::new());
        let mut sim = Simulator::new(spec, 1);
        sim.run_for(Duration::from_secs(31));
        // 4 ports probed per round; rounds at 0.1s then every interval.
        let interval = profile.link_discovery_interval.as_nanos();
        let expected_rounds = 1 + (31_000_000_000 - 100_000_000) / interval;
        assert_eq!(
            sim.metrics_snapshot().counter("controller.lldp.emitted"),
            Some(expected_rounds * 4),
            "{}: {} rounds of 4 probes",
            profile.name,
            expected_rounds
        );
    }
}

#[test]
fn hosts_are_tracked_with_ips_and_locations() {
    let mut spec = two_switch_spec(ControllerConfig::default());
    spec.set_host_app(
        H1,
        Box::new(PeriodicPinger::new(ip(2), Duration::from_millis(200))),
    );
    let mut sim = Simulator::new(spec, 2);
    sim.run_for(Duration::from_secs(3));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    let d1 = ctrl.devices().get(&mac(1)).expect("h1 tracked");
    assert_eq!(d1.location, sp(S1, 2));
    assert!(d1.ips.contains(&ip(1)));
    let d2 = ctrl.devices().get(&mac(2)).expect("h2 tracked (ARP reply)");
    assert_eq!(d2.location, sp(S2, 2));
}

#[test]
fn reactive_forwarding_carries_pings_end_to_end() {
    let mut spec = two_switch_spec(ControllerConfig::default());
    spec.set_host_app(
        H1,
        Box::new(PeriodicPinger::new(ip(2), Duration::from_millis(100))),
    );
    let mut sim = Simulator::new(spec, 3);
    sim.run_for(Duration::from_secs(5));
    let pinger: &PeriodicPinger = sim.host_app_as(H1).expect("app");
    assert!(pinger.sent >= 40, "sent {}", pinger.sent);
    assert!(
        pinger.received as f64 >= pinger.sent as f64 * 0.9,
        "received {}/{}",
        pinger.received,
        pinger.sent
    );
    // Once rules are installed, pings flow entirely on the dataplane:
    // h1-s1, s1-s2, s2-h2 at 5 ms each = 15 ms one way, 30 ms RTT.
    let last = *pinger.rtts_ms.last().expect("has rtts");
    assert!((last - 30.0).abs() < 1.0, "dataplane rtt {last}");
}

#[test]
fn infrastructure_ports_do_not_learn_hosts() {
    let mut spec = two_switch_spec(ControllerConfig::default());
    spec.set_host_app(
        H1,
        Box::new(PeriodicPinger::new(ip(2), Duration::from_millis(100))),
    );
    let mut sim = Simulator::new(spec, 3);
    sim.run_for(Duration::from_secs(5));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    for dev in ctrl.devices().devices() {
        assert!(
            !ctrl.topology().is_infrastructure_port(dev.location),
            "device {} learned on infrastructure port {}",
            dev.mac,
            dev.location
        );
    }
}

#[test]
fn links_expire_without_lldp_refresh() {
    // Use POX (5s interval / 10s timeout) for a fast test. Kill the
    // inter-switch link after discovery and watch the link expire.
    let config = ControllerConfig {
        profile: ControllerProfile::POX,
        ..ControllerConfig::default()
    };
    let mut sim = Simulator::new(two_switch_spec(config), 4);
    sim.run_for(Duration::from_secs(6));
    {
        let ctrl: &SdnController = sim.controller_as().expect("controller");
        assert_eq!(ctrl.topology().len(), 2);
    }
    sim.set_switch_port_admin(S1, PortNo::new(1), false);
    sim.run_for(Duration::from_secs(15));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    assert_eq!(ctrl.topology().len(), 0, "links must expire after timeout");
}

#[test]
fn host_migration_is_registered() {
    // h2 disconnects from s2 and reappears on s1 port 3.
    let mut spec = two_switch_spec(ControllerConfig::default());
    spec.set_host_app(
        H1,
        Box::new(PeriodicPinger::new(ip(2), Duration::from_millis(100))),
    );
    let mut sim = Simulator::new(spec, 5);
    sim.run_for(Duration::from_secs(2));

    // Detach h2 (admin-down its port), bring up a third host with h2's
    // identifiers at a new location after a pause.
    sim.set_switch_port_admin(S2, PortNo::new(2), false);
    sim.run_for(Duration::from_secs(1));

    // "Migrate": another NIC with the same identifiers appears at S1 port 3.
    // Model this by moving the victim: here we just attach a new host with
    // identical identifiers.
    // (Scenario crates script this through iface down/up; this test uses a
    // second physical host for simplicity.)
    let h3 = HostId::new(3);
    let mut spec2 = two_switch_spec(ControllerConfig::default());
    spec2.add_host(h3, mac(2), ip(2));
    spec2.attach_host(
        h3,
        S1,
        PortNo::new(3),
        LinkProfile::fixed(Duration::from_millis(5)),
    );
    spec2.set_host_app(
        H1,
        Box::new(PeriodicPinger::new(ip(2), Duration::from_millis(100))),
    );
    // Keep the original h2 silent so only h3 claims the identity.
    let mut sim2 = Simulator::new(spec2, 6);
    sim2.set_switch_port_admin(S2, PortNo::new(2), false);
    sim2.run_for(Duration::from_secs(3));
    let ctrl: &SdnController = sim2.controller_as().expect("controller");
    let dev = ctrl.devices().get(&mac(2)).expect("tracked");
    assert_eq!(dev.location, sp(S1, 3), "binding moved to the new location");
}

#[test]
fn echo_polling_estimates_control_latency() {
    let config = ControllerConfig {
        echo_interval: Some(Duration::from_secs(1)),
        ..ControllerConfig::default()
    };
    let mut sim = Simulator::new(two_switch_spec(config), 7);
    sim.run_for(Duration::from_secs(5));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    // Control latency is 1 ms each way + 50 us processing -> one-way ~1 ms.
    let one_way = ctrl.latency().one_way(S1).expect("measured");
    let ms = one_way.as_millis_f64();
    assert!((ms - 1.0).abs() < 0.1, "one-way estimate {ms} ms");
    assert_eq!(ctrl.latency().measured_switches(), 2);
}

#[test]
fn timestamped_lldp_measures_link_latency() {
    let config = ControllerConfig {
        timestamp_lldp: true,
        echo_interval: Some(Duration::from_secs(1)),
        ..ControllerConfig::default()
    };
    let mut sim = Simulator::new(two_switch_spec(config), 8);
    sim.run_for(Duration::from_secs(40));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    let link = DirectedLink::new(sp(S1, 1), sp(S2, 1));
    let state = ctrl.topology().get(&link).expect("link known");
    let latency = state.last_latency_ms.expect("latency measured");
    assert!(
        (latency - 5.0).abs() < 1.0,
        "estimated link latency {latency} ms (true 5 ms)"
    );
}

#[test]
fn signed_lldp_accepts_own_probes() {
    let config = ControllerConfig {
        sign_lldp: true,
        ..ControllerConfig::default()
    };
    let mut sim = Simulator::new(two_switch_spec(config), 9);
    sim.run_for(Duration::from_secs(1));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    assert_eq!(ctrl.topology().len(), 2, "self-signed probes accepted");
}
