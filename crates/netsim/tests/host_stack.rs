//! Direct tests of the default host network stack: ARP/ICMP/TCP
//! responders, responder toggles, and the IP-ID counter.

use netsim::{
    ControllerCtx, ControllerLogic, FrameDisposition, HostApp, HostCtx, LinkProfile, NetworkSpec,
    Simulator, TimerId,
};
use openflow::{Action, FlowMatch, FlowModCommand, OfMessage};
use sdn_types::packet::{
    ArpOp, ArpPacket, EthernetFrame, IcmpPacket, IcmpType, Ipv4Packet, Payload, TcpSegment,
    Transport,
};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo};

const SW: DatapathId = DatapathId::new(1);
const PROBER: HostId = HostId::new(1);
const TARGET: HostId = HostId::new(2);

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index(i)
}
fn ip(i: u8) -> IpAddr {
    IpAddr::new(10, 0, 0, i)
}

/// Captures every frame and offers helpers to fish out replies.
#[derive(Default)]
struct Capture {
    frames: Vec<EthernetFrame>,
}

impl HostApp for Capture {
    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        self.frames.push(frame.clone());
        FrameDisposition::Consume // prober has no stack of its own
    }
}

struct Hub;
impl ControllerLogic for Hub {
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

fn sim() -> Simulator {
    let mut spec = NetworkSpec::new();
    spec.add_switch(SW);
    let link = LinkProfile::fixed(Duration::from_millis(1));
    spec.add_host(PROBER, mac(1), ip(1));
    spec.add_host(TARGET, mac(2), ip(2));
    spec.attach_host(PROBER, SW, PortNo::new(1), link);
    spec.attach_host(TARGET, SW, PortNo::new(2), link);
    spec.set_host_app(PROBER, Box::new(Capture::default()));
    spec.set_host_app(TARGET, Box::new(netsim::NullHostApp));
    spec.set_controller(Box::new(Hub));
    let mut s = Simulator::new(spec, 5);
    s.run_for(Duration::from_millis(10));
    s
}

fn send(sim: &mut Simulator, frame: EthernetFrame) {
    sim.host_send_frame(PROBER, frame);
    sim.run_for(Duration::from_millis(20));
}

fn replies(sim: &Simulator) -> Vec<EthernetFrame> {
    sim.host_app_as::<Capture>(PROBER).unwrap().frames.clone()
}

#[test]
fn arp_request_gets_reply_with_correct_binding() {
    let mut s = sim();
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            MacAddr::BROADCAST,
            Payload::Arp(ArpPacket::request(mac(1), ip(1), ip(2))),
        ),
    );
    let r = replies(&s);
    let arp = r.iter().find_map(|f| f.arp()).expect("ARP reply");
    assert_eq!(arp.op, ArpOp::Reply);
    assert_eq!(arp.sender_mac, mac(2));
    assert_eq!(arp.sender_ip, ip(2));
    assert_eq!(arp.target_mac, mac(1));
}

#[test]
fn arp_for_someone_else_is_ignored() {
    let mut s = sim();
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            MacAddr::BROADCAST,
            Payload::Arp(ArpPacket::request(mac(1), ip(1), ip(99))),
        ),
    );
    assert!(replies(&s).iter().all(|f| f.arp().is_none()));
}

#[test]
fn icmp_echo_is_answered_with_matching_id_and_seq() {
    let mut s = sim();
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            mac(2),
            Payload::Ipv4(Ipv4Packet::new(
                ip(1),
                ip(2),
                Transport::Icmp(IcmpPacket::echo_request(0x55, 9, vec![1, 2, 3])),
            )),
        ),
    );
    let r = replies(&s);
    let reply = r
        .iter()
        .find_map(|f| f.ipv4())
        .and_then(|p| match &p.transport {
            Transport::Icmp(i) if i.icmp_type == IcmpType::EchoReply => Some(i.clone()),
            _ => None,
        })
        .expect("echo reply");
    assert_eq!(reply.identifier, 0x55);
    assert_eq!(reply.sequence, 9);
    assert_eq!(reply.data, vec![1, 2, 3]);
}

#[test]
fn tcp_syn_to_closed_port_gets_rst_open_port_gets_syn_ack() {
    let mut s = sim();
    // Closed port.
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            mac(2),
            Payload::Ipv4(Ipv4Packet::new(
                ip(1),
                ip(2),
                Transport::Tcp(TcpSegment::syn(40_000, 81, 5)),
            )),
        ),
    );
    let rst = replies(&s)
        .iter()
        .filter_map(|f| f.ipv4().cloned())
        .find_map(|p| match p.transport {
            Transport::Tcp(t) if t.is_rst() => Some(t),
            _ => None,
        })
        .expect("RST for closed port");
    assert_eq!(rst.dst_port, 40_000);

    // Open port.
    s.with_host_app(TARGET, |_, ctx| ctx.listen_tcp(80));
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            mac(2),
            Payload::Ipv4(Ipv4Packet::new(
                ip(1),
                ip(2),
                Transport::Tcp(TcpSegment::syn(40_001, 80, 6)),
            )),
        ),
    );
    let syn_ack = replies(&s)
        .iter()
        .filter_map(|f| f.ipv4().cloned())
        .find_map(|p| match p.transport {
            Transport::Tcp(t) if t.is_syn_ack() => Some(t),
            _ => None,
        })
        .expect("SYN-ACK for open port");
    assert_eq!(syn_ack.ack, 7, "acks ISN+1");
}

#[test]
fn ip_ident_increments_per_originated_packet() {
    let mut s = sim();
    for seq in 0..3u16 {
        send(
            &mut s,
            EthernetFrame::new(
                mac(1),
                mac(2),
                Payload::Ipv4(Ipv4Packet::new(
                    ip(1),
                    ip(2),
                    Transport::Icmp(IcmpPacket::echo_request(1, seq, vec![])),
                )),
            ),
        );
    }
    let idents: Vec<u16> = replies(&s)
        .iter()
        .filter_map(|f| f.ipv4())
        .map(|p| p.ident)
        .collect();
    assert_eq!(idents.len(), 3);
    assert_eq!(idents[1], idents[0] + 1, "global sequential IP-ID");
    assert_eq!(idents[2], idents[1] + 1);
}

#[test]
fn responder_toggles_silence_the_stack() {
    let mut s = sim();
    s.with_host_app(TARGET, |_, ctx| {
        ctx.set_respond_arp(false);
        ctx.set_respond_icmp(false);
        ctx.set_respond_tcp(false);
    });
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            MacAddr::BROADCAST,
            Payload::Arp(ArpPacket::request(mac(1), ip(1), ip(2))),
        ),
    );
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            mac(2),
            Payload::Ipv4(Ipv4Packet::new(
                ip(1),
                ip(2),
                Transport::Icmp(IcmpPacket::echo_request(1, 1, vec![])),
            )),
        ),
    );
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            mac(2),
            Payload::Ipv4(Ipv4Packet::new(
                ip(1),
                ip(2),
                Transport::Tcp(TcpSegment::syn(40_000, 80, 1)),
            )),
        ),
    );
    assert!(
        replies(&s).is_empty(),
        "a silenced host answers nothing: {:?}",
        replies(&s).len()
    );
}

#[test]
fn frames_not_addressed_to_host_are_ignored() {
    let mut s = sim();
    // Unicast to a third MAC (flooded to everyone by the hub).
    send(
        &mut s,
        EthernetFrame::new(
            mac(1),
            mac(77),
            Payload::Ipv4(Ipv4Packet::new(
                ip(1),
                ip(2), // even though the IP matches, L2 dst does not
                Transport::Icmp(IcmpPacket::echo_request(1, 1, vec![])),
            )),
        ),
    );
    assert!(replies(&s).is_empty(), "stack must check L2 destination");
}
