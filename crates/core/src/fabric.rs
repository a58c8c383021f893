//! Fabric elaboration: the bridge between generated topologies
//! (`tm-topo`) and the paper's attack scenarios.
//!
//! The paper evaluates on two hand-built testbeds (Figs. 1 and 9). This
//! module makes every scenario family *topology-parameterized*: it
//! elaborates a [`tm_topo::TopologySpec`] into a full [`NetworkSpec`]
//! (switch fabric, hosts, out-of-band channels, controller stack) and maps
//! the spec's reserved attacker draws onto the existing attacker toolkit,
//! so the hijack and link-fabrication scenarios run unchanged on
//! fat-tree / core–edge / linear / ring fabrics at 4–1000 switches.
//!
//! # Determinism contract
//!
//! The fabric (switches, links, host placements) is a pure function of the
//! topology parameters — the seed never moves a switch or a host. The seed
//! drives exactly one thing: *which* hosts the adversary controls, drawn
//! from the spec's forked attacker stream. Role mapping on top of the draw
//! (victim/client selection, relay-peer fallback) is itself deterministic
//! — first-match scans over the spec's creation-ordered host list — so the
//! whole elaboration is a pure function of `(kind, stack, seed)`.
//!
//! # Role synthesis
//!
//! Role mapping tolerates fabrics whose switches carry no hosts (the
//! core tier of a 1k-switch core–edge spec) and whose edge switches
//! carry a single host: when the paper's geometry demands a host the
//! fabric does not provide — a victim co-located with the attacker, a
//! relay peer on a distinct switch — the elaborator synthesizes the
//! missing NIC exactly like the hand-built testbeds do, rather than
//! bending the scenario onto a different shape.
//!
//! # Broadcast safety
//!
//! Unlike the loop-free paper testbeds, generated fabrics have physical
//! cycles (fat-tree, ring, multi-core core–edge). Scenario setups from
//! this module therefore (a) enable the controller's
//! [`tree_scoped_flood`](controller::ControllerConfig::tree_scoped_flood)
//! mode, and (b) hold all host traffic until [`TRAFFIC_START`], after the
//! controller's first LLDP round has mapped every trunk — before that
//! point every port looks host-facing and a scoped flood would still
//! storm.

use controller::ControllerConfig;
use netsim::{LinkProfile, NetworkSpec};
use sdn_types::{Duration, HostId, IpAddr, MacAddr, SwitchPort};
use tm_topo::{HostPlacement, TopoKind, TopologySpec};

use crate::defense::DefenseStack;
use crate::robustness::ProfileTargets;
use crate::testbed::HijackTestbed;

/// Synthesizes an extra host on `dpid` with the fabric's own identity
/// scheme (sequential id, id-derived MAC/IP) at the next free port —
/// the same construction [`TopologySpec::build_network`] applies to
/// generated hosts, so synthesized NICs are indistinguishable from
/// placed ones. `offset` spaces multiple synthesized ids apart.
fn synthesize_host(topo: &TopologySpec, dpid: sdn_types::DatapathId, offset: u32) -> HostPlacement {
    let id = HostId::new(topo.next_host_id().0 + offset);
    assert!(
        id.0 <= u16::MAX as u32,
        "synthesized host on {} exceeds the {} addressable hosts",
        topo.name,
        u16::MAX
    );
    HostPlacement {
        id,
        mac: MacAddr::from_index(id.0),
        ip: IpAddr::from_index(id.0 as u16),
        dpid,
        port: topo.free_port(dpid),
    }
}

/// When fabric scenarios let hosts start talking. The controller's first
/// LLDP round (100 ms after startup) maps every trunk well within a
/// second even on 1000-switch fabrics; 2 s leaves generous margin.
pub const TRAFFIC_START: Duration = Duration::from_secs(2);

/// Trunk and edge links use the hijack-testbed profile (5 ms ± 1 ms per
/// traversal) so probe-RTT semantics — the 35 ms timeout derived from the
/// paper's ≈20 ms enterprise delay model — carry over unchanged.
fn link_profile() -> LinkProfile {
    LinkProfile::jittered(Duration::from_millis(5), Duration::from_micros(1000))
}

/// The controller configuration for fabric runs: `config` with
/// loop-safe flooding forced on.
fn fabric_config(config: ControllerConfig) -> ControllerConfig {
    ControllerConfig {
        tree_scoped_flood: true,
        ..config
    }
}

/// Fault-injection targets for a generated fabric: every trunk egress,
/// every switch, and the first host port as the flap target.
pub fn targets(topo: &TopologySpec) -> ProfileTargets {
    let mut trunk_egresses = Vec::with_capacity(topo.links.len() * 2);
    for l in &topo.links {
        trunk_egresses.push((l.a, l.port_a));
        trunk_egresses.push((l.b, l.port_b));
    }
    let flap_port = topo
        .hosts
        .first()
        .map(|h| (h.dpid, h.port))
        .unwrap_or_else(|| (topo.switches[0], sdn_types::PortNo::new(1)));
    ProfileTargets {
        trunk_egresses,
        flap_port,
        dpids: topo.switches.clone(),
    }
}

/// Elaborates `kind` into the host-location-hijack scenario: attacker and
/// victim co-located where the fabric allows it, a benign client on
/// another switch, and a migration-destination NIC synthesized on the
/// client's switch. Returns the network, the same identifier bundle the
/// hand-built testbed produces (so `hijack::run` is topology-agnostic),
/// and the fabric's fault targets.
pub fn hijack_setup(
    kind: TopoKind,
    stack: DefenseStack,
    seed: u64,
    config: ControllerConfig,
) -> (NetworkSpec, HijackTestbed, ProfileTargets) {
    let topo = kind.generate(seed, 1);
    assert!(
        topo.switches.len() >= 2 && topo.hosts.len() >= 2,
        "hijack on {} needs ≥2 switches and ≥2 hosts (attacker, client; the \
         victim is synthesized when no host co-locates with the attacker)",
        topo.name
    );
    let attacker = *topo
        .placement(topo.attackers[0])
        // tm-lint: allow(unwrap-in-lib) -- generate() reserves exactly the requested attacker draws; a missing placement is a tm-topo bug, not scenario input
        .expect("attacker placement");
    // The victim shares the attacker's switch (the paper's same-subnet
    // ARP-ping setting). On fabrics whose edge switches carry a single
    // host (the 1k-switch core–edge specs), no placed host co-locates
    // with the attacker — synthesize the victim NIC there instead of
    // bending the hijack into a cross-switch migration the paper never
    // evaluates.
    let (victim, victim_synthesized) = match topo
        .hosts
        .iter()
        .find(|h| h.dpid == attacker.dpid && h.id != attacker.id)
    {
        Some(placed) => (*placed, false),
        None => (synthesize_host(&topo, attacker.dpid, 0), true),
    };
    // The client prefers a switch away from the victim, so its pings
    // traverse the fabric.
    let client = *topo
        .hosts
        .iter()
        .find(|h| h.id != attacker.id && h.id != victim.id && h.dpid != victim.dpid)
        .or_else(|| {
            topo.hosts
                .iter()
                .find(|h| h.id != attacker.id && h.id != victim.id)
        })
        // tm-lint: allow(unwrap-in-lib) -- the ≥2-hosts assert above guarantees a non-attacker host; a placed victim leaves one only when hosts ≥3, and generated fabrics with co-located pairs always carry more
        .expect("client host");
    // The migration destination: the client's switch when distinct,
    // otherwise the first switch that is not the victim's.
    let dest_dpid = if client.dpid != victim.dpid {
        client.dpid
    } else {
        *topo
            .switches
            .iter()
            .find(|&&d| d != victim.dpid)
            // tm-lint: allow(unwrap-in-lib) -- the ≥2-switches assert above guarantees a match
            .expect("destination switch")
    };
    // Synthesized ids stay sequential: the co-located victim (when the
    // fabric did not place one) takes `next_host_id`, the migration NIC
    // the id after it.
    let victim_new = HostId::new(topo.next_host_id().0 + u32::from(victim_synthesized));
    let victim_new_port = SwitchPort::new(dest_dpid, topo.free_port(dest_dpid));

    let ids = HijackTestbed {
        s1: victim.dpid,
        s2: dest_dpid,
        victim: victim.id,
        victim_new,
        attacker: attacker.id,
        client: client.id,
        victim_mac: victim.mac,
        victim_ip: victim.ip,
        attacker_mac: attacker.mac,
        attacker_ip: attacker.ip,
        client_ip: client.ip,
        attacker_port: SwitchPort::new(attacker.dpid, attacker.port),
        victim_port: SwitchPort::new(victim.dpid, victim.port),
        victim_new_port,
    };

    let link = link_profile();
    let mut spec = topo.build_network(link, link);
    if victim_synthesized {
        spec.add_host(victim.id, victim.mac, victim.ip);
        spec.attach_host(victim.id, victim.dpid, victim.port, link);
    }
    // The destination NIC carries the victim's identity, exactly like the
    // hand-built testbed's second NIC.
    spec.add_host(victim_new, victim.mac, victim.ip);
    spec.attach_host(victim_new, dest_dpid, victim_new_port.port, link);
    spec.set_controller(Box::new(stack.build_controller(fabric_config(config))));
    let targets = targets(&topo);
    (spec, ids, targets)
}

/// Where the relay scenario's actors sit — produced by the hand-built
/// testbeds and by [`relay_setup`] alike, consumed by the single
/// `linkfab` driver.
#[derive(Clone, Copy, Debug)]
pub struct RelayEndpoints {
    /// Colluding host A.
    pub attacker_a: HostId,
    /// Colluding host B.
    pub attacker_b: HostId,
    /// A's switch port (one end of the fabricated link).
    pub port_a: SwitchPort,
    /// B's switch port (the other end).
    pub port_b: SwitchPort,
    /// A's identity, for the in-band tunnel. `None` on testbeds that
    /// never run in-band (Fig. 1).
    pub identity_a: Option<(MacAddr, IpAddr)>,
    /// B's identity, for the in-band tunnel.
    pub identity_b: Option<(MacAddr, IpAddr)>,
    /// The benign pinger: `(host, target ip)`, when the testbed has a
    /// benign pair to exercise the network (or the MITM bridge).
    pub pinger: Option<(HostId, IpAddr)>,
    /// Whether the relay may bridge dataplane frames. Only safe when the
    /// fabricated link closes no loop (Fig. 1, where it is the sole
    /// inter-switch path).
    pub bridge_dataplane: bool,
    /// Hold benign traffic until this long after start (fabric broadcast
    /// safety; zero on the loop-free testbeds).
    pub traffic_start: Duration,
}

/// Elaborates `kind` into the link-fabrication setting: two colluders on
/// distinct switches joined by the paper's 10 ms out-of-band channel, and
/// a benign ping pair crossing the fabric.
pub fn relay_setup(
    kind: TopoKind,
    stack: DefenseStack,
    seed: u64,
    config: ControllerConfig,
) -> (NetworkSpec, RelayEndpoints, ProfileTargets) {
    let topo = kind.generate(seed, 2);
    assert!(
        topo.switches.len() >= 2,
        "link fabrication on {} needs ≥2 switches",
        topo.name
    );
    let a = *topo
        .placement(topo.attackers[0])
        // tm-lint: allow(unwrap-in-lib) -- generate() reserves exactly the requested attacker draws; a missing placement is a tm-topo bug, not scenario input
        .expect("attacker placement");
    // B must sit on a different switch for the fabricated link to mean
    // anything; when the second draw lands on A's switch, fall back to the
    // first host elsewhere (deterministic: creation order), and when the
    // fabric places no host off A's switch at all (every other switch is
    // a hostless core), synthesize the colluder's NIC on the first such
    // switch — colluders plug into whatever port they can reach.
    let (b, b_synthesized) = match topo
        .placement(topo.attackers[1])
        .filter(|h| h.dpid != a.dpid)
        .or_else(|| topo.hosts.iter().find(|h| h.dpid != a.dpid))
    {
        Some(placed) => (*placed, false),
        None => {
            let dpid = *topo
                .switches
                .iter()
                .find(|&&d| d != a.dpid)
                // tm-lint: allow(unwrap-in-lib) -- the ≥2-switches assert above guarantees a match
                .expect("a switch distinct from colluder A's");
            (synthesize_host(&topo, dpid, 0), true)
        }
    };
    // The benign pair: first two non-colluder hosts on distinct switches.
    let not_colluder = |h: &&HostPlacement| h.id != a.id && h.id != b.id;
    let p1 = topo.hosts.iter().find(not_colluder);
    let p2 = p1.and_then(|p| {
        topo.hosts
            .iter()
            .find(|h| not_colluder(h) && h.id != p.id && h.dpid != p.dpid)
    });
    let pinger = match (p1, p2) {
        (Some(src), Some(dst)) => Some((src.id, dst.ip)),
        _ => None,
    };

    let link = link_profile();
    let mut spec = topo.build_network(link, link);
    if b_synthesized {
        spec.add_host(b.id, b.mac, b.ip);
        spec.attach_host(b.id, b.dpid, b.port, link);
    }
    spec.add_oob_channel(
        a.id,
        b.id,
        Duration::from_millis(10),
        Duration::from_millis(1),
    );
    spec.set_controller(Box::new(stack.build_controller(fabric_config(config))));

    let endpoints = RelayEndpoints {
        attacker_a: a.id,
        attacker_b: b.id,
        port_a: SwitchPort::new(a.dpid, a.port),
        port_b: SwitchPort::new(b.dpid, b.port),
        identity_a: Some((a.mac, a.ip)),
        identity_b: Some((b.mac, b.ip)),
        pinger,
        // The fabric's real trunks already connect the colluders' switches:
        // bridging broadcasts across the fabricated link would close a loop.
        bridge_dataplane: false,
        traffic_start: TRAFFIC_START,
    };
    let targets = targets(&topo);
    (spec, endpoints, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fat_tree4() -> TopoKind {
        TopoKind::FatTree { k: 4 }
    }

    #[test]
    fn hijack_roles_are_distinct_and_placed() {
        let (_, ids, targets) = hijack_setup(
            fat_tree4(),
            DefenseStack::None,
            7,
            ControllerConfig::default(),
        );
        assert_ne!(ids.victim, ids.attacker);
        assert_ne!(ids.victim, ids.client);
        assert_ne!(ids.attacker, ids.client);
        assert_ne!(ids.victim, ids.victim_new);
        // Co-location: fat-tree edge switches carry k/2 = 2 hosts, so the
        // victim shares the attacker's switch.
        assert_eq!(ids.attacker_port.dpid, ids.victim_port.dpid);
        // The destination is a different switch.
        assert_ne!(ids.victim_new_port.dpid, ids.victim_port.dpid);
        // Fat-tree k=4: 20 switches, 32 directed trunk endpoints… the
        // fault targets cover the fabric, not the Fig. 1 testbed.
        assert_eq!(targets.dpids.len(), 20);
        assert_eq!(targets.trunk_egresses.len(), 2 * 32);
    }

    #[test]
    fn hijack_setup_is_a_pure_function_of_kind_and_seed() {
        let (_, a, _) = hijack_setup(
            fat_tree4(),
            DefenseStack::None,
            42,
            ControllerConfig::default(),
        );
        let (_, b, _) = hijack_setup(
            fat_tree4(),
            DefenseStack::None,
            42,
            ControllerConfig::default(),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// 1000 switches: 8 hostless cores, 992 single-host edges.
    fn core_edge_1k() -> TopoKind {
        TopoKind::CoreEdge {
            core: 8,
            edge: 992,
            hosts_per_edge: 1,
        }
    }

    #[test]
    fn hijack_roles_tolerate_single_host_edges_at_1k_switches() {
        for seed in 0..4 {
            let (_, ids, targets) = hijack_setup(
                core_edge_1k(),
                DefenseStack::None,
                seed,
                ControllerConfig::default(),
            );
            // No placed host shares the attacker's switch, so the victim
            // is synthesized co-located — the paper's same-subnet setting
            // survives single-host edges.
            assert_eq!(
                ids.attacker_port.dpid, ids.victim_port.dpid,
                "seed {seed}: victim must co-locate with the attacker"
            );
            assert_ne!(ids.victim_port.port, ids.attacker_port.port);
            assert_ne!(ids.victim, ids.attacker);
            assert_ne!(ids.victim, ids.client);
            assert_ne!(ids.victim, ids.victim_new, "ids stay sequential");
            assert_ne!(ids.victim_new_port.dpid, ids.victim_port.dpid);
            // The fault surface covers the full 1k fabric.
            assert_eq!(targets.dpids.len(), 1000);
            // Synthesized ids extend the fabric's sequence: 992 placed
            // hosts, then the victim, then the migration NIC.
            assert_eq!(ids.victim, sdn_types::HostId::new(993), "seed {seed}");
            assert_eq!(ids.victim_new, sdn_types::HostId::new(994), "seed {seed}");
        }
    }

    #[test]
    fn relay_peer_lands_on_a_hostless_core_when_no_edge_remains() {
        // 4 hostless cores + a single edge switch holding every host: the
        // only switches distinct from colluder A's are cores, so B's NIC
        // is synthesized on one of them.
        let (_, ep, _) = relay_setup(
            TopoKind::CoreEdge {
                core: 4,
                edge: 1,
                hosts_per_edge: 3,
            },
            DefenseStack::None,
            11,
            ControllerConfig::default(),
        );
        assert_ne!(ep.port_a.dpid, ep.port_b.dpid);
        assert_ne!(ep.attacker_a, ep.attacker_b);
        assert!(ep.identity_b.is_some());
    }

    #[test]
    fn relay_endpoints_span_two_switches_at_1k_switches() {
        for seed in 0..4 {
            let (_, ep, targets) = relay_setup(
                core_edge_1k(),
                DefenseStack::None,
                seed,
                ControllerConfig::default(),
            );
            assert_ne!(ep.port_a.dpid, ep.port_b.dpid, "seed {seed}");
            assert!(ep.pinger.is_some(), "seed {seed}: 990 benign hosts remain");
            assert_eq!(targets.dpids.len(), 1000);
        }
    }

    #[test]
    fn relay_endpoints_span_two_switches() {
        for seed in 0..8 {
            let (_, ep, _) = relay_setup(
                TopoKind::Ring {
                    switches: 4,
                    hosts_per_switch: 2,
                },
                DefenseStack::None,
                seed,
                ControllerConfig::default(),
            );
            assert_ne!(ep.port_a.dpid, ep.port_b.dpid, "seed {seed}");
            assert!(!ep.bridge_dataplane);
            let (src, _) = ep.pinger.expect("ring-4x2 has benign hosts left over");
            assert_ne!(src, ep.attacker_a);
            assert_ne!(src, ep.attacker_b);
        }
    }
}
