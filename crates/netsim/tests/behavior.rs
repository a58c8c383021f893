//! Integration tests for the simulator's core mechanics: the
//! link-integrity-pulse port state machine, control-channel round trips,
//! flow-table forwarding, out-of-band channels, and determinism.

use netsim::apps::FrameRecorder;
use netsim::{
    ControllerCtx, ControllerLogic, FrameDisposition, HostApp, HostCtx, LinkProfile, NetworkSpec,
    Simulator, TimerId, TraceKind,
};
use openflow::{Action, FlowMatch, FlowModCommand, OfMessage, PortLinkState, Xid};
use sdn_types::crypto::Key;
use sdn_types::packet::{
    EthernetFrame, Ipv4Packet, LldpPacket, Payload, TcpFlags, TcpSegment, Transport,
};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};

const SW1: DatapathId = DatapathId::new(1);
const H1: HostId = HostId::new(1);
const H2: HostId = HostId::new(2);

fn two_host_spec() -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    spec.add_switch(SW1);
    spec.add_host(H1, MacAddr::from_index(1), IpAddr::new(10, 0, 0, 1));
    spec.add_host(H2, MacAddr::from_index(2), IpAddr::new(10, 0, 0, 2));
    spec.attach_host(
        H1,
        SW1,
        PortNo::new(1),
        LinkProfile::fixed(Duration::from_millis(1)),
    );
    spec.attach_host(
        H2,
        SW1,
        PortNo::new(2),
        LinkProfile::fixed(Duration::from_millis(1)),
    );
    spec
}

fn opaque(src: MacAddr, dst: MacAddr) -> EthernetFrame {
    EthernetFrame::new(
        src,
        dst,
        Payload::Opaque {
            ethertype: 0x1234,
            data: vec![1, 2, 3],
        },
    )
}

/// A flood-everything controller: every PacketIn becomes a PacketOut FLOOD.
struct FloodController {
    packet_ins: Vec<(DatapathId, PortNo)>,
    echo_rtts_ms: Vec<f64>,
    echo_sent: Option<SimTime>,
}

impl FloodController {
    fn new() -> Self {
        FloodController {
            packet_ins: Vec::new(),
            echo_rtts_ms: Vec::new(),
            echo_sent: None,
        }
    }
}

impl ControllerLogic for FloodController {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        ctx.set_timer(Duration::from_millis(10), TimerId(1));
    }

    fn on_message(&mut self, ctx: &mut ControllerCtx<'_>, dpid: DatapathId, msg: OfMessage) {
        match msg {
            OfMessage::PacketIn { in_port, frame } => {
                self.packet_ins.push((dpid, in_port));
                ctx.send(
                    dpid,
                    OfMessage::PacketOut {
                        in_port,
                        actions: vec![Action::Output(PortNo::FLOOD)],
                        frame,
                    },
                );
            }
            OfMessage::EchoReply { .. } => {
                if let Some(sent) = self.echo_sent.take() {
                    self.echo_rtts_ms
                        .push(ctx.now().since(sent).as_millis_f64());
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ControllerCtx<'_>, _id: TimerId) {
        self.echo_sent = Some(ctx.now());
        ctx.send(
            SW1,
            OfMessage::EchoRequest {
                xid: Xid(1),
                payload: 7,
            },
        );
    }
}

/// Records each `PortStatus` as (port, new state, when the switch
/// observed it); otherwise inert, like the default controller.
#[derive(Default)]
struct PortStatusLog(Vec<(PortNo, PortLinkState, SimTime)>);

impl ControllerLogic for PortStatusLog {
    fn on_start(&mut self, _ctx: &mut ControllerCtx<'_>) {}

    fn on_message(&mut self, _ctx: &mut ControllerCtx<'_>, _dpid: DatapathId, msg: OfMessage) {
        if let OfMessage::PortStatus {
            desc, observed_at, ..
        } = msg
        {
            self.0.push((desc.port_no, desc.state, observed_at));
        }
    }

    fn on_timer(&mut self, _ctx: &mut ControllerCtx<'_>, _id: TimerId) {}
}

#[test]
fn table_miss_reaches_controller_and_flood_reaches_peer() {
    let h1 = MacAddr::from_index(1);
    let key = Key::from_seed(7);
    // An opaque broadcast, a signed and timestamped LLDP probe, and a TCP
    // segment with a payload. A bare ACK draws no reply from h2's stack.
    let sent = vec![
        opaque(h1, MacAddr::BROADCAST),
        EthernetFrame::new(
            h1,
            MacAddr::LLDP_MULTICAST,
            Payload::Lldp(
                LldpPacket::new(DatapathId::new(9), PortNo::new(4))
                    .with_timestamp(key, SimTime::from_millis(3))
                    .signed(key),
            ),
        ),
        EthernetFrame::new(
            h1,
            MacAddr::from_index(2),
            Payload::Ipv4(Ipv4Packet::new(
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
                Transport::Tcp(TcpSegment {
                    flags: TcpFlags::ACK,
                    data: b"GET / HTTP/1.0".to_vec(),
                    ..TcpSegment::syn(40_000, 80, 1)
                }),
            )),
        ),
    ];
    let mut spec = two_host_spec();
    spec.set_controller(Box::new(FloodController::new()));
    spec.set_host_app(H2, Box::new(FrameRecorder::new()));
    let mut sim = Simulator::new(spec, 1);
    sim.run_for(Duration::from_millis(5));
    for frame in &sent {
        sim.host_send_frame(H1, frame.clone());
        sim.run_for(Duration::from_millis(50));
    }

    let ctrl: &FloodController = sim.controller_as().expect("controller type");
    assert_eq!(ctrl.packet_ins, vec![(SW1, PortNo::new(1)); sent.len()]);
    // The flood must reach h2 but not loop back to h1 (FLOOD excludes ingress).
    assert_eq!(sim.trace().count(TraceKind::HostRx), sent.len() as u64);
    // Packet-In, the controller and Packet-Out hand each frame on unchanged.
    let recorder: &FrameRecorder = sim.host_app_as(H2).expect("recorder app");
    let received: Vec<EthernetFrame> = recorder.frames.iter().map(|(_, f)| f.clone()).collect();
    assert_eq!(received, sent);
}

#[test]
fn echo_round_trip_is_twice_control_latency_plus_processing() {
    let mut spec = two_host_spec();
    spec.set_controller(Box::new(FloodController::new()));
    let mut sim = Simulator::new(spec, 1);
    sim.run_for(Duration::from_millis(100));
    let ctrl: &FloodController = sim.controller_as().expect("controller type");
    assert_eq!(ctrl.echo_rtts_ms.len(), 1);
    // 1 ms each way + 50 us switch processing.
    let rtt = ctrl.echo_rtts_ms[0];
    assert!((rtt - 2.05).abs() < 1e-9, "rtt {rtt}");
}

#[test]
fn short_iface_bounce_does_not_trigger_port_down() {
    // §V-A: changing identifiers faster than the link pulse window will not
    // trigger a port-down in the switch.
    let mut sim = Simulator::new(two_host_spec(), 3);
    sim.run_for(Duration::from_millis(10));
    sim.host_iface_down(H1);
    sim.host_schedule_iface_up(H1, Duration::from_millis(5), None);
    sim.run_for(Duration::from_millis(100));
    assert_eq!(sim.trace().count(TraceKind::PortDown), 0);
    assert_eq!(sim.trace().count(TraceKind::PortUp), 0);
}

#[test]
fn long_iface_down_triggers_port_down_within_pulse_window() {
    let mut spec = two_host_spec();
    spec.set_controller(Box::<PortStatusLog>::default());
    let mut sim = Simulator::new(spec, 3);
    sim.run_for(Duration::from_millis(10));
    sim.host_iface_down(H1);
    sim.host_schedule_iface_up(H1, Duration::from_millis(100), None);
    sim.run_for(Duration::from_millis(300));
    assert_eq!(sim.trace().count(TraceKind::PortDown), 1);
    assert_eq!(sim.trace().count(TraceKind::PortUp), 1);
    let log: &PortStatusLog = sim.controller_as().expect("controller type");
    let states: Vec<_> = log
        .0
        .iter()
        .map(|&(port, state, _)| (port, state))
        .collect();
    assert_eq!(
        states,
        [
            (PortNo::new(1), PortLinkState::Down),
            (PortNo::new(1), PortLinkState::Up)
        ]
    );
    // Detection must land inside the 8-24 ms pulse window after the down.
    let detect_ms = log.0[0].2.since(SimTime::from_millis(10)).as_millis_f64();
    assert!(
        (8.0..24.0).contains(&detect_ms),
        "detected after {detect_ms} ms"
    );
}

#[test]
fn identity_change_applies_on_iface_up() {
    let mut sim = Simulator::new(two_host_spec(), 3);
    sim.host_iface_down(H1);
    let new_mac = MacAddr::from_index(99);
    let new_ip = IpAddr::new(10, 0, 0, 99);
    sim.host_schedule_iface_up(H1, Duration::from_millis(30), Some((new_mac, new_ip)));
    sim.run_for(Duration::from_millis(50));
    let info = sim.host_info(H1).unwrap();
    assert!(info.iface_up);
    assert_eq!(info.mac, new_mac);
    assert_eq!(info.ip, new_ip);
}

#[test]
fn frames_to_downed_host_are_dropped() {
    let mut spec = two_host_spec();
    spec.set_controller(Box::new(FloodController::new()));
    let mut sim = Simulator::new(spec, 5);
    sim.run_for(Duration::from_millis(5));
    sim.host_iface_down(H2);
    // Send while the switch has not yet detected the down (inside the pulse
    // window): the frame reaches the port but the NIC is down -> dropped at
    // the host.
    sim.run_for(Duration::from_millis(2));
    sim.host_send_frame(H1, opaque(MacAddr::from_index(1), MacAddr::BROADCAST));
    sim.run_for(Duration::from_millis(50));
    assert_eq!(sim.trace().count(TraceKind::HostRx), 0);
    assert!(sim.trace().count(TraceKind::Dropped) >= 1);

    // After detection, floods exclude the downed port entirely.
    let drops_before = sim.trace().count(TraceKind::Dropped);
    sim.host_send_frame(H1, opaque(MacAddr::from_index(1), MacAddr::BROADCAST));
    sim.run_for(Duration::from_millis(50));
    assert_eq!(sim.trace().count(TraceKind::HostRx), 0);
    assert_eq!(sim.trace().count(TraceKind::Dropped), drops_before);
}

/// A scripted controller that installs one rule at start: frames to h2
/// leave by the given port.
struct Installer(PortNo);

impl ControllerLogic for Installer {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        ctx.send(
            SW1,
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                flow_match: FlowMatch::new().with_eth_dst(MacAddr::from_index(2)),
                priority: 10,
                idle_timeout_secs: 0,
                hard_timeout_secs: 0,
                actions: vec![Action::Output(self.0)],
                cookie: 0,
            },
        );
    }
    fn on_message(&mut self, _: &mut ControllerCtx<'_>, _: DatapathId, _: OfMessage) {}
    fn on_timer(&mut self, _: &mut ControllerCtx<'_>, _: TimerId) {}
}

#[test]
fn installed_flow_rules_forward_without_controller() {
    let mut spec = two_host_spec();
    spec.set_controller(Box::new(FloodController::new()));
    let mut sim = Simulator::new(spec, 5);
    sim.run_for(Duration::from_millis(5));
    // Install h1->h2 rule directly via a controller-side FlowMod.
    let ctrl_msg = OfMessage::FlowMod {
        command: FlowModCommand::Add,
        flow_match: FlowMatch::new().with_eth_dst(MacAddr::from_index(2)),
        priority: 10,
        idle_timeout_secs: 0,
        hard_timeout_secs: 0,
        actions: vec![Action::Output(PortNo::new(2))],
        cookie: 0,
    };
    // Deliver the FlowMod by driving the controller's send path: simplest is
    // to use the simulator's switch-facing entry point via a PacketOut-less
    // path — here we emulate by sending from the controller on a timer; for
    // the test, reach in via set_switch_port_admin no-op then direct message.
    // The public API path: a controller would send this; we use a one-off
    // controller call through run loop is complex, so instead verify via
    // flow_count after injecting with the scripted `Installer` controller.
    let _ = ctrl_msg;

    let mut spec = two_host_spec();
    spec.set_controller(Box::new(Installer(PortNo::new(2))));
    let mut sim = Simulator::new(spec, 5);
    sim.run_for(Duration::from_millis(5));
    assert_eq!(sim.flow_count(SW1), Some(1));
    sim.host_send_frame(H1, opaque(MacAddr::from_index(1), MacAddr::from_index(2)));
    sim.run_for(Duration::from_millis(10));
    assert_eq!(
        sim.trace().count(TraceKind::HostRx),
        1,
        "rule must forward to h2"
    );
    assert_eq!(sim.trace().count(TraceKind::PacketIn), 0, "no table miss");
}

#[test]
fn a_rule_naming_the_ingress_port_delivers_nothing() {
    // OpenFlow 1.0 sends a frame back out its ingress port only through
    // OFPP_IN_PORT; Open vSwitch drops a physical output naming it.
    let mut spec = two_host_spec();
    spec.set_controller(Box::new(Installer(PortNo::new(1))));
    let mut sim = Simulator::new(spec, 5);
    sim.run_for(Duration::from_millis(5));
    assert_eq!(sim.flow_count(SW1), Some(1));
    sim.host_send_frame(H1, opaque(MacAddr::from_index(1), MacAddr::from_index(2)));
    sim.run_for(Duration::from_millis(10));
    assert_eq!(
        sim.trace().count(TraceKind::HostRx),
        0,
        "no frame may hairpin back to h1"
    );
    assert_eq!(
        sim.trace().count(TraceKind::PacketIn),
        0,
        "the rule matched"
    );
}

/// An app that relays every received OOB frame count.
struct OobCounter {
    received: usize,
    arrival: Option<SimTime>,
}

impl HostApp for OobCounter {
    fn on_oob_frame(&mut self, ctx: &mut HostCtx<'_>, _from: HostId, _frame: EthernetFrame) {
        self.received += 1;
        self.arrival = Some(ctx.now());
    }
    fn on_frame(&mut self, _: &mut HostCtx<'_>, _: &EthernetFrame) -> FrameDisposition {
        FrameDisposition::Pass
    }
}

#[test]
fn oob_channel_delivers_with_latency_and_codec_cost() {
    let mut spec = two_host_spec();
    spec.add_oob_channel(H1, H2, Duration::from_millis(10), Duration::from_millis(2));
    spec.set_host_app(
        H2,
        Box::new(OobCounter {
            received: 0,
            arrival: None,
        }),
    );
    let mut sim = Simulator::new(spec, 9);
    sim.run_until(SimTime::from_millis(100));
    sim.with_host_app(H1, |_, ctx| {
        ctx.oob_send(H2, opaque(MacAddr::from_index(1), MacAddr::from_index(2)))
    });
    // H1 has no app installed -> with_host_app returns None; install via spec
    // instead: drive the send from H2's side (channel is bidirectional).
    sim.with_host_app(H2, |_, ctx| {
        assert!(ctx.oob_send(H1, opaque(MacAddr::from_index(2), MacAddr::from_index(1))));
    });
    sim.run_for(Duration::from_millis(50));
    assert_eq!(sim.trace().count(TraceKind::OobRelay), 1);
}

#[test]
fn oob_send_fails_without_channel() {
    let mut spec = two_host_spec();
    spec.set_host_app(
        H2,
        Box::new(OobCounter {
            received: 0,
            arrival: None,
        }),
    );
    let mut sim = Simulator::new(spec, 9);
    let sent = sim
        .with_host_app(H2, |_, ctx| {
            ctx.oob_send(H1, opaque(MacAddr::from_index(2), MacAddr::from_index(1)))
        })
        .unwrap();
    assert!(!sent);
}

#[test]
fn default_stack_answers_arp_and_ping_over_flood_controller() {
    use netsim::apps::PeriodicPinger;
    let mut spec = two_host_spec();
    spec.set_controller(Box::new(FloodController::new()));
    spec.set_host_app(
        H1,
        Box::new(PeriodicPinger::new(
            IpAddr::new(10, 0, 0, 2),
            Duration::from_millis(50),
        )),
    );
    let mut sim = Simulator::new(spec, 11);
    sim.run_for(Duration::from_secs(2));
    let pinger: &PeriodicPinger = sim.host_app_as(H1).expect("app");
    assert!(pinger.sent >= 10, "sent {}", pinger.sent);
    assert!(pinger.received >= 9, "received {}", pinger.received);
    // RTT = 4 hops * 1 ms + controller round trips; with flooding every
    // packet goes through the controller: 1ms (h->sw) + 1ms ctrl + 1ms ctrl
    // + 1ms (sw->h) each way = 8 ms.
    let mean: f64 = pinger.rtts_ms.iter().sum::<f64>() / pinger.rtts_ms.len() as f64;
    assert!((mean - 8.0).abs() < 0.5, "mean rtt {mean}");
}

#[test]
fn same_seed_same_trace_different_seed_diverges() {
    fn run(seed: u64) -> (u64, u64) {
        let mut spec = two_host_spec();
        spec.set_controller(Box::new(FloodController::new()));
        spec.add_host(
            HostId::new(3),
            MacAddr::from_index(3),
            IpAddr::new(10, 0, 0, 3),
        );
        spec.attach_host(
            HostId::new(3),
            SW1,
            PortNo::new(3),
            LinkProfile::jittered(Duration::from_millis(5), Duration::from_millis(1)),
        );
        spec.set_host_app(
            HostId::new(3),
            Box::new(netsim::apps::PeriodicPinger::new(
                IpAddr::new(10, 0, 0, 1),
                Duration::from_millis(20),
            )),
        );
        let mut sim = Simulator::new(spec, seed);
        sim.run_for(Duration::from_secs(2));
        let rtt_bits = sim
            .host_app_as::<netsim::apps::PeriodicPinger>(HostId::new(3))
            .unwrap()
            .rtts_ms
            .iter()
            .map(|r| r.to_bits())
            .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b));
        (rtt_bits, sim.trace().total())
    }
    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert_eq!(a, b, "same seed must reproduce exactly");
    assert_ne!(a.0, c.0, "different seed should produce different jitter");
}

#[test]
fn admin_port_down_is_immediate_and_reversible() {
    let mut spec = two_host_spec();
    spec.set_controller(Box::new(FloodController::new()));
    let mut sim = Simulator::new(spec, 2);
    sim.run_for(Duration::from_millis(5));
    sim.set_switch_port_admin(SW1, PortNo::new(2), false);
    assert_eq!(sim.trace().count(TraceKind::PortDown), 1);
    sim.host_send_frame(H1, opaque(MacAddr::from_index(1), MacAddr::BROADCAST));
    sim.run_for(Duration::from_millis(20));
    assert_eq!(
        sim.trace().count(TraceKind::HostRx),
        0,
        "flood skips downed port"
    );
    sim.set_switch_port_admin(SW1, PortNo::new(2), true);
    assert_eq!(sim.trace().count(TraceKind::PortUp), 1);
}
