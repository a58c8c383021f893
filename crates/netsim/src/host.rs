//! Simulated end hosts: a default network stack plus a pluggable
//! application hook through which benign workloads and attacks are scripted.

use std::any::Any;
use std::collections::BTreeSet;

use tm_rand::Rng;
use tm_rand::StdRng;

use sdn_types::packet::{
    ArpOp, ArpPacket, EthernetFrame, IcmpPacket, IcmpType, Ipv4Packet, Payload, TcpSegment,
    Transport,
};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime, SwitchPort};

use crate::engine::{Event, IfaceUp, OobDelivery, PulseDue, SimCore, SwitchDelivery, PULSE_WINDOW};
use crate::sim::NetState;
use crate::trace::TraceEvent;

/// What a [`HostApp`] did with an incoming frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameDisposition {
    /// The app consumed the frame; the default stack will not see it.
    Consume,
    /// Pass the frame on to the default stack (ARP/ICMP/TCP responders).
    Pass,
}

/// Public snapshot of a host's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// The host's id.
    pub id: HostId,
    /// Current MAC address.
    pub mac: MacAddr,
    /// Current IPv4 address.
    pub ip: IpAddr,
    /// Where the host is attached, if anywhere.
    pub attachment: Option<SwitchPort>,
    /// Whether the interface is up.
    pub iface_up: bool,
}

/// A host application: traffic generator, server workload, or attack
/// script. All interaction with the network goes through [`HostCtx`].
pub trait HostApp: crate::AsAny {
    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}

    /// Called for every frame delivered to the host (before the default
    /// stack). Return [`FrameDisposition::Consume`] to suppress default
    /// protocol handling.
    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: &EthernetFrame) -> FrameDisposition {
        FrameDisposition::Pass
    }

    /// Called for frames arriving over an out-of-band channel.
    fn on_oob_frame(&mut self, _ctx: &mut HostCtx<'_>, _from: HostId, _frame: EthernetFrame) {}

    /// Called when a timer set via [`HostCtx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _id: u64) {}

    /// Called when a scheduled interface bring-up completes.
    fn on_iface_up(&mut self, _ctx: &mut HostCtx<'_>) {}

    /// Downcasting support; a decorator overrides it to expose the value
    /// it wraps.
    fn as_any(&self) -> &dyn Any {
        self.any_ref()
    }

    /// Downcasting support, mutably.
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.any_mut()
    }
}

/// A host app that does nothing (the default stack still responds to
/// ARP/ICMP/TCP).
#[derive(Debug, Default)]
pub struct NullHostApp;

impl HostApp for NullHostApp {}

/// Internal host state.
pub(crate) struct HostState {
    pub(crate) id: HostId,
    pub(crate) mac: MacAddr,
    pub(crate) ip: IpAddr,
    pub(crate) attachment: Option<(DatapathId, PortNo, crate::link::LinkProfile)>,
    /// Latest delivery time already scheduled on the host's uplink (FIFO
    /// enforcement; see `PortState::next_delivery`).
    pub(crate) next_delivery: SimTime,
    pub(crate) iface_up: bool,
    /// Incremented each time the interface goes down; stale pulse checks
    /// compare against it.
    pub(crate) down_epoch: u64,
    /// Incremented each time a bring-up is scheduled; stale bring-ups are
    /// ignored.
    pub(crate) up_epoch: u64,
    /// IP identification counter (incremented per originated IPv4 packet —
    /// the idle-scan side channel).
    pub(crate) ip_ident: u16,
    /// TCP ports with a listener (SYN → SYN-ACK; others → RST).
    pub(crate) tcp_listeners: BTreeSet<u16>,
    /// Default-stack responder switches (attackers disable these to stay
    /// silent while impersonating).
    pub(crate) respond_arp: bool,
    pub(crate) respond_icmp: bool,
    pub(crate) respond_tcp: bool,
    pub(crate) app: Option<Box<dyn HostApp>>,
}

impl HostState {
    pub(crate) fn new(id: HostId, mac: MacAddr, ip: IpAddr) -> Self {
        HostState {
            id,
            mac,
            ip,
            attachment: None,
            next_delivery: SimTime::ZERO,
            iface_up: true,
            down_epoch: 0,
            up_epoch: 0,
            ip_ident: 0,
            tcp_listeners: BTreeSet::new(),
            respond_arp: true,
            respond_icmp: true,
            respond_tcp: true,
            app: None,
        }
    }

    pub(crate) fn info(&self) -> HostInfo {
        HostInfo {
            id: self.id,
            mac: self.mac,
            ip: self.ip,
            attachment: self
                .attachment
                .map(|(dpid, port, _)| SwitchPort::new(dpid, port)),
            iface_up: self.iface_up,
        }
    }
}

/// The capabilities the simulator grants a host application.
pub struct HostCtx<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) net: &'a mut NetState,
    pub(crate) host: HostId,
}

impl HostCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The seeded RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Snapshot of this host's state.
    pub fn info(&self) -> HostInfo {
        let host = self.net.hosts.get(&self.host);
        debug_assert!(
            host.is_some(),
            "HostCtx is only built for hosts already in the map"
        );
        host.map_or(
            HostInfo {
                id: self.host,
                mac: MacAddr::new([0; 6]),
                ip: IpAddr::UNSPECIFIED,
                attachment: None,
                iface_up: false,
            },
            HostState::info,
        )
    }

    fn state(&mut self) -> &mut HostState {
        // tm-lint: allow(unwrap-in-lib) -- HostCtx is only constructed for hosts already in the map (Simulator guards its public entry points)
        self.net.hosts.get_mut(&self.host).expect("ctx host exists")
    }

    /// Sends a raw frame out of the host's interface. Returns `false` if the
    /// interface is down or unattached (the frame is silently lost, as on a
    /// real NIC).
    pub fn send_frame(&mut self, frame: EthernetFrame) -> bool {
        let (dpid, port, link, up) = {
            let h = self.state();
            match h.attachment {
                Some((dpid, port, link)) => (dpid, port, link, h.iface_up),
                None => return false,
            }
        };
        if !up {
            self.net.trace.push(TraceEvent::Dropped {
                at: self.core.now(),
                reason: "host iface down",
            });
            return false;
        }
        let delay = link.sample(&mut self.core.rng);
        // FIFO enforcement: same rule as switch egress — no overtaking on
        // one wire.
        let sampled_at = self.core.now() + delay;
        let at = {
            let h = self.state();
            let at = sampled_at.max(h.next_delivery);
            debug_assert!(at >= h.next_delivery, "per-link FIFO violated at host");
            h.next_delivery = at;
            at
        };
        if at > sampled_at {
            self.core.telemetry.counter_inc("netsim.link.fifo_clamped");
        }
        self.core.metrics.host_tx_frames.inc();
        self.core.schedule_at(
            at,
            Event::DeliverToSwitch(Box::new(SwitchDelivery { dpid, port, frame })),
        );
        true
    }

    /// Builds and sends an IPv4 frame, stamping the host's IP-ID counter.
    /// `dst_mac` is the next-hop MAC. Returns `false` if the interface is
    /// down.
    pub fn send_ipv4(&mut self, dst_mac: MacAddr, mut pkt: Ipv4Packet) -> bool {
        let (mac, ident) = {
            let h = self.state();
            h.ip_ident = h.ip_ident.wrapping_add(1);
            (h.mac, h.ip_ident)
        };
        pkt.ident = ident;
        self.send_frame(EthernetFrame::new(mac, dst_mac, Payload::Ipv4(pkt)))
    }

    /// Takes the interface down immediately. The attached switch will
    /// declare the port down only if the interface stays down past the
    /// link-integrity-pulse window (16 ± 8 ms).
    pub fn iface_down(&mut self) {
        let (dpid, port, epoch) = {
            let h = self.state();
            if !h.iface_up {
                return;
            }
            h.iface_up = false;
            h.down_epoch += 1;
            match h.attachment {
                Some((dpid, port, _)) => (dpid, port, h.down_epoch),
                None => return,
            }
        };
        let (lo, hi) = PULSE_WINDOW;
        let window = Duration::from_nanos(self.core.rng.gen_range(lo.as_nanos()..hi.as_nanos()));
        self.core.schedule(
            window,
            Event::PulseCheck(Box::new(PulseDue {
                dpid,
                port,
                down_epoch: epoch,
            })),
        );
    }

    /// Schedules the interface to come up after `delay`, optionally
    /// assuming a new `(MAC, IP)` identity — the `ifconfig down; ifconfig
    /// up` cycle whose latency the attack toolkit models.
    pub fn schedule_iface_up(&mut self, delay: Duration, identity: Option<(MacAddr, IpAddr)>) {
        let (host, epoch) = {
            let h = self.state();
            h.up_epoch += 1;
            (h.id, h.up_epoch)
        };
        self.core.schedule(
            delay,
            Event::HostIfaceUp(Box::new(IfaceUp {
                host,
                epoch,
                identity,
            })),
        );
    }

    pub(crate) fn complete_iface_up(&mut self, identity: Option<(MacAddr, IpAddr)>) {
        let (dpid_port, was_up) = {
            let h = self.state();
            let was_up = h.iface_up;
            h.iface_up = true;
            if let Some((mac, ip)) = identity {
                h.mac = mac;
                h.ip = ip;
            }
            (h.attachment.map(|(d, p, _)| (d, p)), was_up)
        };
        if was_up {
            return;
        }
        if let Some((dpid, port)) = dpid_port {
            // Link pulses resume; the switch notices within one pulse
            // interval unless dataplane traffic arrives first.
            let detect = Duration::from_nanos(
                self.core
                    .rng
                    .gen_range(Duration::from_millis(1).as_nanos()..PULSE_WINDOW.1.as_nanos()),
            );
            self.core
                .schedule(detect, Event::PulseCheckUp { dpid, port });
        }
    }

    /// Registers a TCP listener (SYN to this port gets SYN-ACK).
    pub fn listen_tcp(&mut self, port: u16) {
        self.state().tcp_listeners.insert(port);
    }

    /// Enables/disables the default ARP responder.
    pub fn set_respond_arp(&mut self, on: bool) {
        self.state().respond_arp = on;
    }

    /// Enables/disables the default ICMP echo responder.
    pub fn set_respond_icmp(&mut self, on: bool) {
        self.state().respond_icmp = on;
    }

    /// Enables/disables the default TCP responder.
    pub fn set_respond_tcp(&mut self, on: bool) {
        self.state().respond_tcp = on;
    }

    /// Sets a timer; `HostApp::on_timer(id)` fires after `delay`.
    pub fn set_timer(&mut self, delay: Duration, id: u64) {
        let host = self.host;
        self.core.schedule(delay, Event::HostTimer { host, id });
    }

    /// Sends a frame over an out-of-band channel to `peer`. Returns `false`
    /// if no channel connects the two hosts.
    ///
    /// Delivery takes the channel's latency plus its per-packet
    /// encode/decode cost — the unavoidable overhead TopoGuard+'s Link
    /// Latency Inspector detects.
    pub fn oob_send(&mut self, peer: HostId, frame: EthernetFrame) -> bool {
        let me = self.host;
        let Some(ch) = self
            .net
            .oob_channels
            .iter()
            .find(|c| (c.a == me && c.b == peer) || (c.b == me && c.a == peer))
        else {
            return false;
        };
        let delay = ch.latency + ch.codec_cost;
        self.core.schedule(
            delay,
            Event::DeliverOob(Box::new(OobDelivery {
                to: peer,
                from: me,
                frame,
            })),
        );
        true
    }
}

/// Dispatches a frame delivered to a host: app hook first, then the default
/// protocol stack.
pub(crate) fn deliver_frame(
    core: &mut SimCore,
    net: &mut NetState,
    host: HostId,
    frame: EthernetFrame,
) {
    {
        let Some(h) = net.hosts.get(&host) else {
            return;
        };
        if !h.iface_up {
            net.trace.push(TraceEvent::Dropped {
                at: core.now(),
                reason: "rx while host iface down",
            });
            return;
        }
        net.trace.push(TraceEvent::HostRx {
            at: core.now(),
            host,
            ethertype: frame.ethertype().0,
        });
    }

    // App hook (take the app out to avoid aliasing).
    let mut app = net.hosts.get_mut(&host).and_then(|h| h.app.take());
    let disposition = match &mut app {
        Some(app) => {
            let mut ctx = HostCtx { core, net, host };
            app.on_frame(&mut ctx, &frame)
        }
        None => FrameDisposition::Pass,
    };
    if let Some(h) = net.hosts.get_mut(&host) {
        h.app = app;
    }
    if disposition == FrameDisposition::Consume {
        return;
    }

    default_stack(core, net, host, &frame);
}

/// The default protocol stack: ARP responder, ICMP echo responder, minimal
/// TCP (SYN → SYN-ACK or RST; stray SYN-ACK → RST, which is the idle-scan
/// side effect).
fn default_stack(core: &mut SimCore, net: &mut NetState, host: HostId, frame: &EthernetFrame) {
    // deliver_frame resolved this host.
    let Some(h) = net.hosts.get(&host) else {
        return;
    };
    let (my_mac, my_ip, respond_arp, respond_icmp, respond_tcp) =
        (h.mac, h.ip, h.respond_arp, h.respond_icmp, h.respond_tcp);

    let for_me = frame.dst == my_mac || frame.dst.is_broadcast() || frame.dst.is_multicast();
    if !for_me {
        return;
    }

    match &frame.payload {
        Payload::Arp(arp) if respond_arp && arp.op == ArpOp::Request && arp.target_ip == my_ip => {
            let reply = ArpPacket::reply_to(arp, my_mac);
            let out = EthernetFrame::new(my_mac, arp.sender_mac, Payload::Arp(reply));
            let mut ctx = HostCtx { core, net, host };
            ctx.send_frame(out);
        }
        Payload::Ipv4(ip) if ip.dst == my_ip => match &ip.transport {
            Transport::Icmp(icmp) if respond_icmp && icmp.icmp_type == IcmpType::EchoRequest => {
                let reply =
                    Ipv4Packet::new(my_ip, ip.src, Transport::Icmp(IcmpPacket::reply_to(icmp)));
                let mut ctx = HostCtx { core, net, host };
                ctx.send_ipv4(frame.src, reply);
            }
            Transport::Tcp(tcp) => {
                if !respond_tcp {
                    return;
                }
                let listening = net
                    .hosts
                    .get(&host)
                    .is_some_and(|h| h.tcp_listeners.contains(&tcp.dst_port));
                let reply_seg = if tcp.is_syn() {
                    if listening {
                        let isn = core.rng.gen::<u32>();
                        Some(TcpSegment::syn_ack_to(tcp, isn))
                    } else {
                        Some(TcpSegment::rst_to(tcp))
                    }
                } else if tcp.is_syn_ack() {
                    // Unsolicited SYN-ACK: RFC-mandated RST. This is the
                    // packet that increments the zombie's IP-ID during a
                    // TCP idle scan.
                    Some(TcpSegment::rst_to(tcp))
                } else {
                    None
                };
                if let Some(seg) = reply_seg {
                    let reply = Ipv4Packet::new(my_ip, ip.src, Transport::Tcp(seg));
                    let mut ctx = HostCtx { core, net, host };
                    ctx.send_ipv4(frame.src, reply);
                }
            }
            _ => {}
        },
        _ => {}
    }
}
