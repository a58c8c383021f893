//! The simulated OpenFlow switch: dataplane forwarding, control-channel
//! handling, and the physical-layer port state machine.

use openflow::{
    Action, FlowEntry, FlowModCommand, FlowTable, MatchOutcome, OfMessage, PortDesc, PortLinkState,
    PortStatsEntry, PortStatusReason,
};
use sdn_types::packet::EthernetFrame;
use sdn_types::{DatapathId, Duration, HostId, MacAddr, PortNo, SimTime, Table};

use crate::engine::{CtrlDelivery, Event, HostDelivery, SimCore, SwitchDelivery};
use crate::link::LinkProfile;
use crate::sim::NetState;
use crate::trace::TraceEvent;

/// The flow-expiry scan grid: a switch that holds rules rescans its table
/// at every multiple of this period since time zero.
pub(crate) const EXPIRY_TICK: Duration = Duration::from_secs(1);

/// What is plugged into a switch port.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Peer {
    /// Another switch's port.
    Switch {
        /// The peer switch.
        dpid: DatapathId,
        /// The peer port.
        port: PortNo,
    },
    /// A host interface.
    Host {
        /// The host.
        host: HostId,
    },
}

/// Per-port switch state.
#[derive(Clone, Debug)]
pub(crate) struct PortState {
    pub(crate) peer: Peer,
    pub(crate) link: LinkProfile,
    pub(crate) hw_addr: MacAddr,
    /// The switch's physical-layer view of the link (updated by the
    /// link-integrity-pulse state machine).
    pub(crate) detected_up: bool,
    /// Administrative state (failure injection).
    pub(crate) admin_up: bool,
    /// Latest delivery time already scheduled on this egress channel. A
    /// physical link is a FIFO pipe: a frame sent later can never overtake
    /// one sent earlier, so jittered/bursty samples are clamped to this.
    pub(crate) next_delivery: SimTime,
    pub(crate) rx_packets: u64,
    pub(crate) tx_packets: u64,
    pub(crate) rx_bytes: u64,
    pub(crate) tx_bytes: u64,
}

impl PortState {
    fn is_up(&self) -> bool {
        self.detected_up && self.admin_up
    }

    fn desc(&self, port_no: PortNo) -> PortDesc {
        PortDesc {
            port_no,
            hw_addr: self.hw_addr,
            state: if self.is_up() {
                PortLinkState::Up
            } else {
                PortLinkState::Down
            },
        }
    }
}

/// A simulated switch.
pub(crate) struct SwitchState {
    pub(crate) dpid: DatapathId,
    pub(crate) table: FlowTable,
    /// The ports in number order, found by number in one step.
    pub(crate) ports: Table<PortNo, PortState>,
    pub(crate) ctrl_latency: Duration,
    /// Fixed processing delay for echo replies (models switch CPU).
    pub(crate) echo_processing: Duration,
    /// Whether an expiry scan is scheduled. One is pending exactly while
    /// the table holds a rule: a FlowMod Add arms it, and a scan that
    /// leaves the table empty does not re-arm.
    pub(crate) expiry_armed: bool,
}

impl SwitchState {
    pub(crate) fn new(dpid: DatapathId, ctrl_latency: Duration) -> Self {
        SwitchState {
            dpid,
            table: FlowTable::new(),
            ports: Table::new(),
            ctrl_latency,
            echo_processing: Duration::from_micros(50),
            expiry_armed: false,
        }
    }

    pub(crate) fn attach(&mut self, port: PortNo, peer: Peer, link: LinkProfile) {
        debug_assert!(
            self.dpid.raw() <= 0x00ff_ffff,
            "switch MACs encode a 24-bit dpid"
        );
        let hw = MacAddr::from_index((self.dpid.raw() as u32) << 8 | u32::from(port.raw()));
        self.ports.insert(
            port,
            PortState {
                peer,
                link,
                hw_addr: hw,
                detected_up: true,
                admin_up: true,
                next_delivery: SimTime::ZERO,
                rx_packets: 0,
                tx_packets: 0,
                rx_bytes: 0,
                tx_bytes: 0,
            },
        );
    }

    pub(crate) fn port_descs(&self) -> Vec<PortDesc> {
        self.ports.iter().map(|(no, p)| p.desc(no)).collect()
    }

    pub(crate) fn port_stats(&self) -> Vec<PortStatsEntry> {
        self.ports
            .iter()
            .map(|(no, p)| PortStatsEntry {
                port_no: no,
                rx_packets: p.rx_packets,
                tx_packets: p.tx_packets,
                rx_bytes: p.rx_bytes,
                tx_bytes: p.tx_bytes,
            })
            .collect()
    }
}

/// Sends `msg` from switch `dpid` up to the controller.
pub(crate) fn send_to_controller(
    core: &mut SimCore,
    net: &NetState,
    dpid: DatapathId,
    msg: OfMessage,
) {
    let latency = match net.switches.get(&dpid) {
        Some(sw) => sw.ctrl_latency,
        None => return,
    };
    // Control-channel congestion faults add queuing delay on the way up
    // (PacketIn direction).
    let latency = latency + net.faults.ctrl_extra_delay(dpid, &core.telemetry);
    core.schedule(
        latency,
        Event::CtrlToController(Box::new(CtrlDelivery { dpid, msg })),
    );
}

/// Marks a port down at the physical layer and notifies the controller
/// (the `PortStatus`/Port-Down message Port Amnesia relies on).
pub(crate) fn declare_port_down(
    core: &mut SimCore,
    net: &mut NetState,
    dpid: DatapathId,
    port: PortNo,
) {
    let desc = {
        let Some(sw) = net.switches.get_mut(&dpid) else {
            return;
        };
        let Some(p) = sw.ports.get_mut(&port) else {
            return;
        };
        if !p.detected_up {
            return; // already down
        }
        p.detected_up = false;
        p.desc(port)
    };
    net.trace.push(TraceEvent::PortDown {
        at: core.now(),
        dpid,
        port,
    });
    send_to_controller(
        core,
        net,
        dpid,
        OfMessage::PortStatus {
            reason: PortStatusReason::Modify,
            desc,
            observed_at: core.now(),
        },
    );
}

/// Marks a port up at the physical layer and notifies the controller.
pub(crate) fn declare_port_up(
    core: &mut SimCore,
    net: &mut NetState,
    dpid: DatapathId,
    port: PortNo,
) {
    let desc = {
        let Some(sw) = net.switches.get_mut(&dpid) else {
            return;
        };
        let Some(p) = sw.ports.get_mut(&port) else {
            return;
        };
        if p.detected_up {
            return; // already up
        }
        p.detected_up = true;
        p.desc(port)
    };
    net.trace.push(TraceEvent::PortUp {
        at: core.now(),
        dpid,
        port,
    });
    send_to_controller(
        core,
        net,
        dpid,
        OfMessage::PortStatus {
            reason: PortStatusReason::Modify,
            desc,
            observed_at: core.now(),
        },
    );
}

/// Emits `frame` out of physical port `port` on switch `dpid`.
pub(crate) fn emit_on_port(
    core: &mut SimCore,
    net: &mut NetState,
    dpid: DatapathId,
    port: PortNo,
    frame: &EthernetFrame,
) {
    let wire_len = frame.wire_len() as u64;
    // One port lookup does everything: stats, the jitter sample (core and
    // net are disjoint borrows), and the FIFO clamp.
    let (peer, at, sampled_at) = {
        let Some(sw) = net.switches.get_mut(&dpid) else {
            return;
        };
        let Some(p) = sw.ports.get_mut(&port) else {
            return;
        };
        if !p.is_up() {
            net.trace.push(TraceEvent::Dropped {
                at: core.now(),
                reason: "egress port down",
            });
            core.telemetry.counter_inc("netsim.switch.drop_egress_down");
            return;
        }
        p.tx_packets += 1;
        p.tx_bytes += wire_len;
        // Fault injection on the wire: the frame left the port (tx counted)
        // but an active loss fault may eat it before the peer sees it.
        // Disjoint field borrows: `p` lives in net.switches, the fault
        // state in net.faults, the RNG and telemetry in core.
        if net
            .faults
            .should_drop(dpid, port, &mut core.rng, &core.telemetry)
        {
            net.trace.push(TraceEvent::Dropped {
                at: core.now(),
                reason: "fault-injected loss",
            });
            return;
        }
        let delay = p.link.sample(&mut core.rng)
            + net
                .faults
                .extra_link_delay(dpid, port, &mut core.rng, &core.telemetry);
        // FIFO enforcement: a later frame on the same wire can never
        // arrive before an earlier one, however the jitter/burst samples
        // came out.
        let sampled_at = core.now() + delay;
        let at = sampled_at.max(p.next_delivery);
        debug_assert!(
            at >= p.next_delivery,
            "per-link FIFO violated on {dpid}:{port}"
        );
        p.next_delivery = at;
        (p.peer, at, sampled_at)
    };
    if at > sampled_at {
        core.telemetry.counter_inc("netsim.link.fifo_clamped");
    }
    core.metrics.switch_tx_frames.inc();
    core.metrics.link_transit_ns.observe(at.since(core.now()));
    match peer {
        Peer::Switch {
            dpid: peer_dpid,
            port: peer_port,
        } => core.schedule_at(
            at,
            Event::DeliverToSwitch(Box::new(SwitchDelivery {
                dpid: peer_dpid,
                port: peer_port,
                frame: frame.clone(),
            })),
        ),
        Peer::Host { host } => core.schedule_at(
            at,
            Event::DeliverToHost(Box::new(HostDelivery {
                host,
                frame: frame.clone(),
            })),
        ),
    }
}

/// Resolves output ports (which may include FLOOD / ALL / CONTROLLER)
/// into emissions, in order.
pub(crate) fn emit_outputs(
    core: &mut SimCore,
    net: &mut NetState,
    dpid: DatapathId,
    in_port: PortNo,
    outputs: impl IntoIterator<Item = PortNo>,
    frame: &EthernetFrame,
) {
    for out in outputs {
        match out {
            PortNo::FLOOD | PortNo::ALL => {
                let ports: Vec<PortNo> = match net.switches.get(&dpid) {
                    Some(sw) => sw
                        .ports
                        .iter()
                        .filter(|(no, p)| p.is_up() && (out == PortNo::ALL || *no != in_port))
                        .map(|(no, _)| no)
                        .collect(),
                    None => continue,
                };
                for p in ports {
                    emit_on_port(core, net, dpid, p, frame);
                }
            }
            PortNo::CONTROLLER => {
                net.trace.push(TraceEvent::PacketIn {
                    at: core.now(),
                    dpid,
                    port: in_port,
                    ethertype: frame.ethertype().0,
                });
                send_to_controller(
                    core,
                    net,
                    dpid,
                    OfMessage::PacketIn {
                        in_port,
                        frame: frame.clone(),
                    },
                );
            }
            // A frame never leaves by the port it came in on: OpenFlow 1.0
            // hairpins only through `OFPP_IN_PORT`, and Open vSwitch drops
            // an output naming the ingress port.
            physical if physical == in_port => {}
            physical => emit_on_port(core, net, dpid, physical, frame),
        }
    }
}

/// Handles a dataplane frame arriving at `(dpid, port)`.
pub(crate) fn handle_frame(
    core: &mut SimCore,
    net: &mut NetState,
    dpid: DatapathId,
    in_port: PortNo,
    frame: EthernetFrame,
) {
    let now = core.now();
    let wire_len = frame.wire_len() as u64;
    let (outcome, up_desc) = {
        let Some(sw) = net.switches.get_mut(&dpid) else {
            return;
        };
        let Some(p) = sw.ports.get_mut(&in_port) else {
            return;
        };
        if !p.admin_up {
            return; // administratively down: frame lost
        }
        let mut up_desc = None;
        if !p.detected_up {
            // Traffic implies the link is physically up: fast up-detection.
            p.detected_up = true;
            up_desc = Some(p.desc(in_port));
        }
        p.rx_packets += 1;
        p.rx_bytes += wire_len;
        (sw.table.process(&frame, in_port, now), up_desc)
    };

    if let Some(desc) = up_desc {
        net.trace.push(TraceEvent::PortUp {
            at: now,
            dpid,
            port: in_port,
        });
        send_to_controller(
            core,
            net,
            dpid,
            OfMessage::PortStatus {
                reason: PortStatusReason::Modify,
                desc,
                observed_at: now,
            },
        );
    }

    match outcome {
        MatchOutcome::Forward { ports } => {
            emit_outputs(core, net, dpid, in_port, ports, &frame);
        }
        MatchOutcome::Miss => {
            core.metrics.switch_table_miss.inc();
            net.trace.push(TraceEvent::PacketIn {
                at: now,
                dpid,
                port: in_port,
                ethertype: frame.ethertype().0,
            });
            send_to_controller(core, net, dpid, OfMessage::PacketIn { in_port, frame });
        }
    }
}

/// Handles a control message arriving at switch `dpid`.
pub(crate) fn handle_ctrl(
    core: &mut SimCore,
    net: &mut NetState,
    dpid: DatapathId,
    msg: OfMessage,
) {
    match msg {
        OfMessage::PacketOut {
            in_port,
            actions,
            frame,
        } => {
            let outputs = actions.iter().map(|&Action::Output(p)| p);
            emit_outputs(core, net, dpid, in_port, outputs, &frame);
        }
        OfMessage::FlowMod {
            command,
            flow_match,
            priority,
            idle_timeout_secs,
            hard_timeout_secs,
            actions,
            cookie,
        } => {
            let now = core.now();
            let Some(sw) = net.switches.get_mut(&dpid) else {
                return;
            };
            match command {
                FlowModCommand::Add => {
                    let mut entry = FlowEntry::new(flow_match, actions)
                        .with_priority(priority)
                        .with_cookie(cookie);
                    if idle_timeout_secs > 0 {
                        entry =
                            entry.with_idle_timeout(Duration::from_secs(idle_timeout_secs.into()));
                    }
                    if hard_timeout_secs > 0 {
                        entry =
                            entry.with_hard_timeout(Duration::from_secs(hard_timeout_secs.into()));
                    }
                    sw.table.insert(entry, now);
                    let arm = !sw.expiry_armed;
                    sw.expiry_armed = true;
                    net.trace.push(TraceEvent::FlowInstalled { at: now, dpid });
                    if arm {
                        core.schedule_at(next_expiry_scan(now), Event::SwitchExpiryTick { dpid });
                    }
                }
                FlowModCommand::Delete => {
                    let removed = sw.table.delete(&flow_match);
                    for r in removed {
                        send_to_controller(
                            core,
                            net,
                            dpid,
                            OfMessage::FlowRemoved {
                                flow_match: r.entry.flow_match,
                                priority: r.entry.priority,
                                reason: r.reason,
                                packet_count: r.entry.packet_count,
                                byte_count: r.entry.byte_count,
                            },
                        );
                    }
                }
            }
        }
        OfMessage::EchoRequest { xid, payload } => {
            let (processing, latency) = match net.switches.get(&dpid) {
                Some(sw) => (sw.echo_processing, sw.ctrl_latency),
                None => return,
            };
            core.schedule(
                processing + latency,
                Event::CtrlToController(Box::new(CtrlDelivery {
                    dpid,
                    msg: OfMessage::EchoReply { xid, payload },
                })),
            );
        }
        OfMessage::FeaturesRequest => {
            let reply = match net.switches.get(&dpid) {
                Some(sw) => OfMessage::FeaturesReply {
                    dpid,
                    ports: sw.port_descs(),
                },
                None => return,
            };
            send_to_controller(core, net, dpid, reply);
        }
        OfMessage::FlowStatsRequest { xid } => {
            let reply = match net.switches.get(&dpid) {
                Some(sw) => OfMessage::FlowStatsReply {
                    xid,
                    flows: sw.table.stats(),
                },
                None => return,
            };
            send_to_controller(core, net, dpid, reply);
        }
        OfMessage::PortStatsRequest { xid } => {
            let reply = match net.switches.get(&dpid) {
                Some(sw) => OfMessage::PortStatsReply {
                    xid,
                    ports: sw.port_stats(),
                },
                None => return,
            };
            send_to_controller(core, net, dpid, reply);
        }
        // Switches ignore messages that only flow switch -> controller.
        _ => {}
    }
}

/// The first scan instant on the [`EXPIRY_TICK`] grid strictly after
/// `now`: where a scan chain running since time zero would next fire.
fn next_expiry_scan(now: SimTime) -> SimTime {
    const TICK_NS: u64 = EXPIRY_TICK.as_nanos();
    SimTime::from_nanos((now.as_nanos() / TICK_NS + 1) * TICK_NS)
}

/// Periodic flow expiry scan: evicts expired rules and re-arms only while
/// the table still holds one, since a scan of an empty table changes
/// nothing. A rule past its deadline never matches before its scan
/// ([`FlowTable::process`] refuses it), so eviction only notifies.
pub(crate) fn handle_expiry_tick(core: &mut SimCore, net: &mut NetState, dpid: DatapathId) {
    let now = core.now();
    let (removed, rearm) = {
        let Some(sw) = net.switches.get_mut(&dpid) else {
            return;
        };
        let removed = sw.table.expire(now);
        sw.expiry_armed = !sw.table.is_empty();
        (removed, sw.expiry_armed)
    };
    for r in removed {
        send_to_controller(
            core,
            net,
            dpid,
            OfMessage::FlowRemoved {
                flow_match: r.entry.flow_match,
                priority: r.entry.priority,
                reason: r.reason,
                packet_count: r.entry.packet_count,
                byte_count: r.entry.byte_count,
            },
        );
    }
    if rearm {
        core.schedule(EXPIRY_TICK, Event::SwitchExpiryTick { dpid });
    }
}

/// When a `SimTime`-stamped pulse deadline fires: if the attached host's
/// interface has been continuously down since `down_epoch`, declare the
/// port down.
pub(crate) fn handle_pulse_check(
    core: &mut SimCore,
    net: &mut NetState,
    dpid: DatapathId,
    port: PortNo,
    down_epoch: u64,
) {
    let still_down = {
        let host_id = match net.switches.get(&dpid).and_then(|sw| sw.ports.get(&port)) {
            Some(PortState {
                peer: Peer::Host { host },
                ..
            }) => *host,
            _ => return,
        };
        match net.hosts.get(&host_id) {
            Some(h) => !h.iface_up && h.down_epoch == down_epoch,
            None => return,
        }
    };
    if still_down {
        declare_port_down(core, net, dpid, port);
    }
}
