//! Built-in host applications: benign workloads and test instrumentation.

use std::any::Any;
use std::collections::VecDeque;

use sdn_types::packet::{
    ArpOp, ArpPacket, EthernetFrame, IcmpPacket, IcmpType, Ipv4Packet, Payload, Transport,
};
use sdn_types::{Duration, IpAddr, MacAddr, SimTime};

use crate::host::{FrameDisposition, HostApp, HostCtx};

const TIMER_TICK: u64 = 1;

/// A benign workload: resolves the target with ARP, then sends periodic
/// ICMP echo requests and records round-trip times.
///
/// This is the "normal dataplane traffic" used to mark ports as HOST in
/// TopoGuard's profiler and to verify fabricated links carry traffic.
pub struct PeriodicPinger {
    target_ip: IpAddr,
    period: Duration,
    start_delay: Duration,
    target_mac: Option<MacAddr>,
    next_seq: u16,
    in_flight: VecDeque<(u16, SimTime)>,
    /// Completed round-trip times, in milliseconds.
    pub rtts_ms: Vec<f64>,
    /// Echo requests sent.
    pub sent: u64,
    /// Echo replies received.
    pub received: u64,
}

impl PeriodicPinger {
    /// Creates a pinger targeting `target_ip` every `period`.
    pub fn new(target_ip: IpAddr, period: Duration) -> Self {
        PeriodicPinger {
            target_ip,
            period,
            start_delay: Duration::ZERO,
            target_mac: None,
            next_seq: 0,
            in_flight: VecDeque::new(),
            rtts_ms: Vec::new(),
            sent: 0,
            received: 0,
        }
    }

    /// Like [`PeriodicPinger::new`], but the first probe waits for
    /// `start_delay` after host start. Fabric scenarios use this to hold
    /// all dataplane broadcasts (the initial ARP resolution) until the
    /// controller's discovery has converged and floods are tree-scoped.
    pub fn starting_at(target_ip: IpAddr, period: Duration, start_delay: Duration) -> Self {
        let mut pinger = PeriodicPinger::new(target_ip, period);
        pinger.start_delay = start_delay;
        pinger
    }

    fn send_probe(&mut self, ctx: &mut HostCtx<'_>) {
        let info = ctx.info();
        match self.target_mac {
            None => {
                // Resolve first.
                let arp = ArpPacket::request(info.mac, info.ip, self.target_ip);
                ctx.send_frame(EthernetFrame::new(
                    info.mac,
                    MacAddr::BROADCAST,
                    Payload::Arp(arp),
                ));
            }
            Some(mac) => {
                self.next_seq = self.next_seq.wrapping_add(1);
                let seq = self.next_seq;
                let icmp =
                    IcmpPacket::echo_request((info.id.0 & 0xffff) as u16, seq, vec![0xAB; 16]);
                let pkt = Ipv4Packet::new(info.ip, self.target_ip, Transport::Icmp(icmp));
                if ctx.send_ipv4(mac, pkt) {
                    self.sent += 1;
                    self.in_flight.push_back((seq, ctx.now()));
                    if self.in_flight.len() > 64 {
                        self.in_flight.pop_front();
                    }
                }
            }
        }
    }
}

impl HostApp for PeriodicPinger {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // The first tick lands at `period` (unchanged historical behavior)
        // unless a start delay pushes it out.
        if self.start_delay > Duration::ZERO {
            ctx.set_timer(self.start_delay, TIMER_TICK);
        } else {
            ctx.set_timer(self.period, TIMER_TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        if id == TIMER_TICK {
            self.send_probe(ctx);
            ctx.set_timer(self.period, TIMER_TICK);
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        if let Some(arp) = frame.arp() {
            if arp.op == ArpOp::Reply && arp.sender_ip == self.target_ip {
                self.target_mac = Some(arp.sender_mac);
                return FrameDisposition::Pass;
            }
        }
        if let Some(ip) = frame.ipv4() {
            if ip.src == self.target_ip {
                if let Transport::Icmp(icmp) = &ip.transport {
                    if icmp.icmp_type == IcmpType::EchoReply {
                        if let Some(pos) =
                            self.in_flight.iter().position(|(s, _)| *s == icmp.sequence)
                        {
                            if let Some((_, sent_at)) = self.in_flight.remove(pos) {
                                self.received += 1;
                                self.rtts_ms.push(ctx.now().since(sent_at).as_millis_f64());
                            }
                        }
                        return FrameDisposition::Consume;
                    }
                }
            }
        }
        FrameDisposition::Pass
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records every frame delivered to the host (the default stack still
/// responds). Useful in tests and as a tap.
#[derive(Default)]
pub struct FrameRecorder {
    /// Captured frames with arrival times.
    pub frames: Vec<(SimTime, EthernetFrame)>,
}

impl FrameRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        FrameRecorder::default()
    }
}

impl HostApp for FrameRecorder {
    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        self.frames.push((ctx.now(), frame.clone()));
        FrameDisposition::Pass
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkProfile, NetworkSpec, Simulator};
    use sdn_types::{DatapathId, HostId, PortNo};

    /// With no controller logic, pings go nowhere (table miss, PacketIn to a
    /// NullController) — but ARP broadcast still reaches the other host via
    /// nothing... it does not: no flow rules and no controller flooding.
    /// This test just checks the app schedules and sends.
    #[test]
    fn pinger_arps_first() {
        let mut spec = NetworkSpec::new();
        spec.add_switch(DatapathId::new(1));
        spec.add_host(
            HostId::new(1),
            MacAddr::from_index(1),
            IpAddr::new(10, 0, 0, 1),
        );
        spec.add_host(
            HostId::new(2),
            MacAddr::from_index(2),
            IpAddr::new(10, 0, 0, 2),
        );
        spec.attach_host(
            HostId::new(1),
            DatapathId::new(1),
            PortNo::new(1),
            LinkProfile::fixed(Duration::from_millis(1)),
        );
        spec.attach_host(
            HostId::new(2),
            DatapathId::new(1),
            PortNo::new(2),
            LinkProfile::fixed(Duration::from_millis(1)),
        );
        spec.set_host_app(
            HostId::new(1),
            Box::new(PeriodicPinger::new(
                IpAddr::new(10, 0, 0, 2),
                Duration::from_millis(100),
            )),
        );
        let mut sim = Simulator::new(spec, 7);
        sim.run_for(Duration::from_secs(1));
        // Without a forwarding controller the ARP dies at the switch, but
        // the app must have tried (PacketIns observed at the switch).
        assert!(sim.trace().count("PacketIn") > 0);
        let pinger: &PeriodicPinger = sim.host_app_as(HostId::new(1)).expect("app installed");
        assert_eq!(pinger.sent, 0, "no ARP reply -> no pings yet");
    }
}
