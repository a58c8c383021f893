//! Integration tests for attack primitives on live simulated networks.

use attacks::idle::{IdleScanConfig, IdleScanProber};
use attacks::{AlertFloodAttacker, FloodConfig};
use netsim::{FrameDisposition, HostApp, HostCtx, LinkProfile, NetworkSpec, Simulator};
use sdn_types::packet::EthernetFrame;
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo};

const SW: DatapathId = DatapathId::new(1);
const ATTACKER: HostId = HostId::new(100);
const ZOMBIE: HostId = HostId::new(2);
const VICTIM: HostId = HostId::new(3);

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index(i)
}

/// A victim app that records frames attributable to the attacker and lets
/// the default stack answer everything.
struct RecordingVictim {
    addressed_by_attacker: usize,
}

impl HostApp for RecordingVictim {
    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        let attacker_l2 = frame.src == mac(100);
        let attacker_l3 = frame
            .ipv4()
            .is_some_and(|ip| ip.src == IpAddr::new(10, 0, 0, 100));
        if attacker_l2 || attacker_l3 {
            self.addressed_by_attacker += 1;
        }
        FrameDisposition::Pass
    }
}

/// A single switch pre-programmed as a learning-free hub via one FLOOD
/// rule, so hosts can talk without a smart controller.
fn hub_spec() -> NetworkSpec {
    use netsim::{ControllerCtx, ControllerLogic, TimerId};
    use openflow::{Action, FlowMatch, FlowModCommand, OfMessage};

    struct HubController;
    impl ControllerLogic for HubController {
        fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
            ctx.send(
                SW,
                OfMessage::FlowMod {
                    command: FlowModCommand::Add,
                    flow_match: FlowMatch::new(),
                    priority: 1,
                    idle_timeout_secs: 0,
                    hard_timeout_secs: 0,
                    actions: vec![Action::Output(PortNo::FLOOD)],
                    cookie: 0,
                },
            );
        }
        fn on_message(&mut self, _: &mut ControllerCtx<'_>, _: DatapathId, _: OfMessage) {}
        fn on_timer(&mut self, _: &mut ControllerCtx<'_>, _: TimerId) {}
    }

    let mut spec = NetworkSpec::new();
    spec.add_switch(SW);
    let link = LinkProfile::fixed(Duration::from_millis(2));
    spec.add_host(ATTACKER, mac(100), IpAddr::new(10, 0, 0, 100));
    spec.add_host(ZOMBIE, mac(2), IpAddr::new(10, 0, 0, 2));
    spec.add_host(VICTIM, mac(3), IpAddr::new(10, 0, 0, 3));
    spec.attach_host(ATTACKER, SW, PortNo::new(1), link);
    spec.attach_host(ZOMBIE, SW, PortNo::new(2), link);
    spec.attach_host(VICTIM, SW, PortNo::new(3), link);
    spec.set_controller(Box::new(HubController));
    spec
}

fn idle_config() -> IdleScanConfig {
    IdleScanConfig {
        zombie_mac: mac(2),
        zombie_ip: IpAddr::new(10, 0, 0, 2),
        victim_mac: mac(3),
        victim_ip: IpAddr::new(10, 0, 0, 3),
        victim_port: 80,
        step_delay: Duration::from_millis(50),
        start_delay: Duration::from_millis(100),
    }
}

#[test]
fn idle_scan_detects_live_victim_with_open_port() {
    let mut spec = hub_spec();
    spec.set_host_app(ATTACKER, Box::new(IdleScanProber::new(idle_config())));
    spec.set_host_app(VICTIM, Box::new(netsim::NullHostApp));
    let mut sim = Simulator::new(spec, 1);
    sim.with_host_app(VICTIM, |_, ctx| ctx.listen_tcp(80));
    sim.run_for(Duration::from_secs(2));
    let prober: &IdleScanProber = sim.host_app_as(ATTACKER).expect("app");
    let result = prober.result.expect("scan completed");
    assert!(result.victim_alive, "{result:?}");
    assert_eq!(
        result.followup_ident.wrapping_sub(result.baseline_ident),
        2,
        "one RST for the victim's SYN-ACK plus one for our follow-up probe"
    );
}

#[test]
fn idle_scan_reports_dead_victim() {
    let mut spec = hub_spec();
    spec.set_host_app(ATTACKER, Box::new(IdleScanProber::new(idle_config())));
    let mut sim = Simulator::new(spec, 2);
    // Victim goes dark before the scan begins.
    sim.host_iface_down(VICTIM);
    sim.run_for(Duration::from_secs(2));
    let prober: &IdleScanProber = sim.host_app_as(ATTACKER).expect("app");
    let result = prober.result.expect("scan completed");
    assert!(!result.victim_alive, "{result:?}");
    assert_eq!(
        result.followup_ident.wrapping_sub(result.baseline_ident),
        1,
        "only our own follow-up probe consumed an IP-ID"
    );
}

#[test]
fn idle_scan_victim_sees_only_zombie_traffic() {
    // "Very high" stealth (Table I): every frame the victim can attribute
    // carries the zombie's identity, never the attacker's.
    let mut spec = hub_spec();
    spec.set_host_app(ATTACKER, Box::new(IdleScanProber::new(idle_config())));
    spec.set_host_app(
        VICTIM,
        Box::new(RecordingVictim {
            addressed_by_attacker: 0,
        }),
    );
    let mut sim = Simulator::new(spec, 3);
    sim.with_host_app(VICTIM, |_, ctx| ctx.listen_tcp(80));
    sim.run_for(Duration::from_secs(2));
    let prober: &IdleScanProber = sim.host_app_as(ATTACKER).expect("app");
    assert!(prober.result.expect("completed").victim_alive);
    // The hub floods, so the victim physically receives zombie-directed
    // frames too — but the spoofed SYN that hits its stack claims the
    // zombie's MAC and IP. The attacker's own zombie probes are the only
    // attacker-attributable frames on the wire, and the victim's recorder
    // sees them purely through flooding, with the victim never *addressed*.
    let victim: &RecordingVictim = sim.host_app_as(VICTIM).expect("app");
    // Flood leakage: the attacker's SYN-ACK probes to the zombie were
    // flooded to every port, so allow exactly those two.
    assert!(
        victim.addressed_by_attacker <= 2,
        "victim saw {} attacker frames",
        victim.addressed_by_attacker
    );
}

#[test]
fn alert_flood_spoofs_round_robin() {
    let victims: Vec<(MacAddr, IpAddr)> = (1..=5)
        .map(|i| (mac(i), IpAddr::new(10, 0, 0, i as u8)))
        .collect();
    let mut spec = hub_spec();
    spec.set_host_app(
        ATTACKER,
        Box::new(AlertFloodAttacker::new(FloodConfig {
            victims,
            interval: Duration::from_millis(20),
            start_delay: Duration::from_millis(10),
        })),
    );
    let mut sim = Simulator::new(spec, 4);
    sim.run_for(Duration::from_secs(1));
    let flooder: &AlertFloodAttacker = sim.host_app_as(ATTACKER).expect("app");
    assert!(flooder.spoofs_sent >= 45, "sent {}", flooder.spoofs_sent);
}
