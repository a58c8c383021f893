//! Topology builders for the paper's testbeds. Each returns the network,
//! the cast the scenario drivers read and its fault targets, exactly as
//! [`crate::fabric`] does for generated topologies, so `linkfab` and
//! `hijack` drive a hand-built testbed and a fabric alike. Every testbed
//! runs the default (Floodlight) controller configuration under its
//! defense stack; a caller that needs another controller swaps it in after
//! setup.

use controller::ControllerConfig;
use netsim::{LinkProfile, NetworkSpec};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SwitchPort};

use crate::defense::DefenseStack;
use crate::fabric::RelayEndpoints;
use crate::robustness::ProfileTargets;

/// The colluders' out-of-band channel on every relay testbed and fabric:
/// `(latency, encode/decode cost)`, 10 ms one way plus 1 ms per frame
/// (the Fig. 9 parameters).
pub const OOB_CHANNEL: (Duration, Duration) = (Duration::from_millis(10), Duration::from_millis(1));

/// Adds the relay testbeds' four hosts, each `i` with MAC index `i` and IP
/// 10.0.0.`i`: colluders 101 and 102 at `at[0]` and `at[1]`, joined by the
/// [`OOB_CHANNEL`], and benign hosts h1 and h2 at `at[2]` and `at[3]`,
/// h1 pinging h2.
fn add_relay_cast(
    spec: &mut NetworkSpec,
    at: [SwitchPort; 4],
    link: LinkProfile,
    bridge_dataplane: bool,
) -> RelayEndpoints {
    let hosts = [101, 102, 1, 2].map(|i: u16| {
        let id = HostId::new(u32::from(i));
        let (mac, ip) = (MacAddr::from_index(u32::from(i)), IpAddr::from_index(i));
        spec.add_host(id, mac, ip);
        (id, mac, ip)
    });
    for ((id, ..), port) in hosts.iter().zip(at) {
        spec.attach_host(*id, port.dpid, port.port, link);
    }
    let [(a, a_mac, a_ip), (b, b_mac, b_ip), (h1, ..), (h2, _, h2_ip)] = hosts;
    spec.add_oob_channel(a, b, OOB_CHANNEL.0, OOB_CHANNEL.1);
    RelayEndpoints {
        attacker_a: a,
        attacker_b: b,
        port_a: at[0],
        port_b: at[1],
        identity_a: (a_mac, a_ip),
        identity_b: (b_mac, b_ip),
        pinger: Some((h1, h2, h2_ip)),
        bridge_dataplane,
        traffic_start: Duration::ZERO,
    }
}

/// Builds the Fig. 1 network: switches 0x1 and 0x2, a colluding host on
/// port 1 of each, an out-of-band channel between the colluders, and a
/// benign host on port 2 of each, over 5 ms links. There is **no real
/// inter-switch link** — if traffic flows between h1 and h2, it flows over
/// the fabricated link.
pub fn fig1_spec(stack: DefenseStack) -> (NetworkSpec, RelayEndpoints, ProfileTargets) {
    let (s1, s2) = (DatapathId::new(0x1), DatapathId::new(0x2));
    let (p1, p2) = (PortNo::new(1), PortNo::new(2));
    let mut spec = NetworkSpec::new();
    spec.add_switch(s1);
    spec.add_switch(s2);
    let at = [(s1, p1), (s2, p1), (s1, p2), (s2, p2)].map(|(d, p)| SwitchPort::new(d, p));
    let link = LinkProfile::fixed(Duration::from_millis(5));
    // The fabricated link is the only inter-switch path: bridging
    // dataplane frames across it closes no loop, and is the MITM
    // demonstration itself.
    let endpoints = add_relay_cast(&mut spec, at, link, true);
    spec.set_controller(Box::new(
        stack.build_controller(ControllerConfig::default()),
    ));
    // No real trunk exists, so link-directed faults target the switches'
    // host-facing egresses instead.
    let targets = ProfileTargets {
        trunk_egresses: vec![(s1, p1), (s1, p2), (s2, p1), (s2, p2)],
        flap_port: (s1, p2),
        dpids: vec![s1, s2],
    };
    (spec, endpoints, targets)
}

/// Builds the Fig. 9 evaluation testbed: four switches in a line
/// s1—s2—s3—s4 with 5 ms dataplane links (with the micro-burst model
/// behind Fig. 10's latency spikes), compromised hosts on port 10 of the
/// two end switches joined by the out-of-band channel, and benign hosts
/// h1 and h2 on port 10 of the middle switches.
pub fn fig9_spec(stack: DefenseStack) -> (NetworkSpec, RelayEndpoints, ProfileTargets) {
    let switches = [0x1, 0x2, 0x3, 0x4].map(DatapathId::new);
    let mut spec = NetworkSpec::new();
    for dpid in switches {
        spec.add_switch(dpid);
    }
    // Each switch's trunk toward s1 is port 1 and toward s4 port 2; s1 has
    // only port 1.
    let trunk = LinkProfile::testbed_dataplane();
    let mut trunk_egresses = Vec::new();
    for (i, pair) in switches.windows(2).enumerate() {
        let toward_s4 = PortNo::new(if i == 0 { 1 } else { 2 });
        spec.link_switches(pair[0], toward_s4, pair[1], PortNo::new(1), trunk);
        trunk_egresses.extend([(pair[0], toward_s4), (pair[1], PortNo::new(1))]);
    }
    let port = PortNo::new(10);
    let at = [0, 3, 1, 2].map(|i| SwitchPort::new(switches[i], port));
    let edge = LinkProfile::fixed(Duration::from_millis(5));
    // The fabricated link closes a loop with the real trunks, and with no
    // spanning tree, bridging broadcasts across it would storm. The
    // paper's evaluation relays LLDP only here; the MITM bridge demo
    // lives on Fig. 1.
    let endpoints = add_relay_cast(&mut spec, at, edge, false);
    spec.set_controller(Box::new(
        stack.build_controller(ControllerConfig::default()),
    ));
    let targets = ProfileTargets {
        trunk_egresses,
        flap_port: (switches[1], port),
        dpids: switches.to_vec(),
    };
    (spec, endpoints, targets)
}

/// Identifiers for the host-location-hijack testbed (Fig. 2's scenario).
#[derive(Clone, Copy, Debug)]
pub struct HijackTestbed {
    /// Switch 0x1 (victim's original switch, attacker's switch).
    pub s1: DatapathId,
    /// Switch 0x2 (victim's migration destination).
    pub s2: DatapathId,
    /// The victim host.
    pub victim: HostId,
    /// The victim's stand-in at the migration destination (enabled when
    /// the migration "completes").
    pub victim_new: HostId,
    /// The attacker.
    pub attacker: HostId,
    /// A benign client that keeps sessions toward the victim.
    pub client: HostId,
    /// The victim's MAC.
    pub victim_mac: MacAddr,
    /// The victim's IP.
    pub victim_ip: IpAddr,
    /// The attacker's (original) MAC.
    pub attacker_mac: MacAddr,
    /// The attacker's (original) IP.
    pub attacker_ip: IpAddr,
    /// The client's IP.
    pub client_ip: IpAddr,
    /// The attacker's port.
    pub attacker_port: SwitchPort,
    /// The victim's original port.
    pub victim_port: SwitchPort,
    /// The victim's destination port (on s2).
    pub victim_new_port: SwitchPort,
}

/// Builds the hijack testbed: victim and attacker share switch 0x1 (same
/// subnet — the ARP-ping requirement); the victim's migration target port
/// is on switch 0x2; a benign client on 0x2 talks to the victim.
///
/// The "migration" is modeled with two NICs bearing the victim's identity:
/// `victim` (original location, up initially) and `victim_new` (destination
/// port, brought up when the migration completes). The scenario driver
/// scripts the downtime window between them.
pub fn hijack_spec(stack: DefenseStack) -> (NetworkSpec, HijackTestbed, ProfileTargets) {
    let s1 = DatapathId::new(0x1);
    let s2 = DatapathId::new(0x2);
    let trunk = PortNo::new(1);
    let client_port = PortNo::new(2);
    let ids = HijackTestbed {
        s1,
        s2,
        victim: HostId::new(1),
        victim_new: HostId::new(2),
        attacker: HostId::new(100),
        client: HostId::new(3),
        victim_mac: MacAddr::new([0xAA; 6]),
        victim_ip: IpAddr::new(10, 0, 0, 1),
        attacker_mac: MacAddr::new([0xBB; 6]),
        attacker_ip: IpAddr::new(10, 0, 0, 2),
        client_ip: IpAddr::new(10, 0, 0, 3),
        attacker_port: SwitchPort::new(s1, PortNo::new(5)),
        victim_port: SwitchPort::new(s1, PortNo::new(2)),
        victim_new_port: SwitchPort::new(s2, PortNo::new(4)),
    };
    let mut spec = NetworkSpec::new();
    spec.add_switch(s1);
    spec.add_switch(s2);
    // 5 ms ± 1 ms per traversal: an attacker→victim probe RTT of ≈22 ms
    // with ≈2 ms spread — matching the paper's ≈20 ms enterprise delay
    // model (§V-B1), with enough tail headroom that the 35 ms probe
    // timeout false-positives less than once per million probes.
    let link = LinkProfile::jittered(Duration::from_millis(5), Duration::from_micros(1000));
    spec.link_switches(s1, trunk, s2, trunk, link);
    spec.add_host(ids.victim, ids.victim_mac, ids.victim_ip);
    spec.add_host(ids.victim_new, ids.victim_mac, ids.victim_ip);
    spec.add_host(ids.attacker, ids.attacker_mac, ids.attacker_ip);
    spec.add_host(ids.client, MacAddr::new([0xCC; 6]), ids.client_ip);
    spec.attach_host(ids.victim, s1, PortNo::new(2), link);
    spec.attach_host(ids.victim_new, s2, PortNo::new(4), link);
    spec.attach_host(ids.attacker, s1, PortNo::new(5), link);
    spec.attach_host(ids.client, s2, client_port, link);
    spec.set_controller(Box::new(
        stack.build_controller(ControllerConfig::default()),
    ));
    // The one trunk, and the benign client's port as the flap target.
    let targets = ProfileTargets {
        trunk_egresses: vec![(s1, trunk), (s2, trunk)],
        flap_port: (s2, client_port),
        dpids: vec![s1, s2],
    };
    (spec, ids, targets)
}
