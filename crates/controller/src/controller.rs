//! The [`SdnController`]: a Floodlight-style controller wired into
//! `netsim`, hosting the link-discovery, host-tracking, forwarding, and
//! latency services plus the defense-module pipeline.

use std::collections::BTreeMap;

use netsim::{ControllerCtx, ControllerLogic, TimerId};
use openflow::{Action, OfMessage, PortDesc, Xid};
use sdn_types::crypto::Key;
use sdn_types::packet::{EthernetFrame, Payload};
use sdn_types::{DatapathId, Duration, IpAddr, MacAddr, PortNo, SwitchPort};
use tm_telemetry::Telemetry;

use crate::alerts::AlertSink;
use crate::devices::{DeviceTable, Observation};
use crate::forwarding;
use crate::latency::CtrlLatencyTracker;
use crate::module::{
    Command, DefenseModule, LinkLatencySample, LldpReceive, ModuleCtx, PacketInCtx,
};
use crate::profile::ControllerProfile;
use crate::topology::{DirectedLink, Topology};

const TIMER_DISCOVERY: TimerId = TimerId(1);
const TIMER_ECHO: TimerId = TimerId(2);
const TIMER_TICK: TimerId = TimerId(3);
const TIMER_STATS: TimerId = TimerId(4);

/// How often modules receive `on_tick`.
const TICK_INTERVAL: Duration = Duration::from_millis(100);

/// Delay before the first LLDP round after startup.
const FIRST_DISCOVERY_DELAY: Duration = Duration::from_millis(100);

/// Host learning is suppressed until this long after startup. Floodlight
/// gates its DeviceManager on topology readiness for the same reason:
/// before the first discovery round, flooded broadcasts produce PacketIns
/// at inter-switch ports that are not yet known to be infrastructure, and
/// naive learning would register phantom host migrations along the flood
/// path.
const HOST_LEARNING_AFTER: Duration = Duration::from_millis(300);

/// Controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Timing personality (Table III).
    pub profile: ControllerProfile,
    /// Sign LLDP packets (TopoGuard authenticated LLDP).
    pub sign_lldp: bool,
    /// Embed encrypted departure timestamps in LLDP (TopoGuard+ LLI).
    pub timestamp_lldp: bool,
    /// The controller-owned key for signing/sealing.
    pub lldp_key: Key,
    /// Poll control-link latency with echoes at this interval.
    pub echo_interval: Option<Duration>,
    /// Poll switch flow/port statistics at this interval (SPHINX).
    pub stats_interval: Option<Duration>,
    /// Scope dataplane floods to a spanning tree of the discovered topology
    /// instead of the switch-native `FLOOD` action. Required on fabrics
    /// with physical cycles (fat-tree, ring, multi-core core–edge), where a
    /// per-switch re-flood would otherwise storm; off by default so the
    /// loop-free paper testbeds keep their original traces.
    pub tree_scoped_flood: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            profile: ControllerProfile::FLOODLIGHT,
            sign_lldp: false,
            timestamp_lldp: false,
            lldp_key: Key::from_seed(0xC0FF_EE00),
            echo_interval: None,
            stats_interval: None,
            tree_scoped_flood: false,
        }
    }
}

/// The controller.
pub struct SdnController {
    config: ControllerConfig,
    topology: Topology,
    devices: DeviceTable,
    latency: CtrlLatencyTracker,
    alerts: AlertSink,
    modules: Vec<Box<dyn DefenseModule>>,
    switch_ports: BTreeMap<DatapathId, Vec<PortDesc>>,
    next_xid: u64,
    /// The run's metrics handle; disabled until `on_start` clones the
    /// simulation-wide handle out of the context.
    telemetry: Telemetry,
    /// Count of LLDP probes emitted (diagnostics / Table II workload).
    pub lldp_emitted: u64,
    /// Count of LLDP packets received (diagnostics).
    pub lldp_received: u64,
    /// Count of dataplane PacketIns processed (diagnostics).
    pub packet_ins: u64,
}

impl SdnController {
    /// Creates a controller with the given configuration and no modules.
    pub fn new(config: ControllerConfig) -> Self {
        SdnController {
            config,
            topology: Topology::new(),
            devices: DeviceTable::new(),
            latency: CtrlLatencyTracker::new(),
            alerts: AlertSink::new(),
            modules: Vec::new(),
            switch_ports: BTreeMap::new(),
            next_xid: 1,
            telemetry: Telemetry::disabled(),
            lldp_emitted: 0,
            lldp_received: 0,
            packet_ins: 0,
        }
    }

    /// Builder-style module addition.
    pub fn with_module(mut self, module: Box<dyn DefenseModule>) -> Self {
        self.modules.push(module);
        self
    }

    /// The link table.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The host-tracking table.
    pub fn devices(&self) -> &DeviceTable {
        &self.devices
    }

    /// Control-link latency estimates.
    pub fn latency(&self) -> &CtrlLatencyTracker {
        &self.latency
    }

    /// The alert sink.
    pub fn alerts(&self) -> &AlertSink {
        &self.alerts
    }

    /// Downcasts a module by type.
    pub fn module_as<T: 'static>(&self) -> Option<&T> {
        self.modules
            .iter()
            .find_map(|m| m.as_any().downcast_ref::<T>())
    }

    /// Downcasts a module by type, mutably.
    pub fn module_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.modules
            .iter_mut()
            .find_map(|m| m.as_any_mut().downcast_mut::<T>())
    }

    fn fresh_xid(&mut self) -> Xid {
        let xid = Xid(self.next_xid);
        self.next_xid += 1;
        xid
    }

    /// Runs `f` over every module with a [`ModuleCtx`], sends any messages
    /// modules queued, and returns `Command::Block` if any module blocked.
    fn module_pass(
        &mut self,
        ctx: &mut ControllerCtx<'_>,
        mut f: impl FnMut(&mut dyn DefenseModule, &mut ModuleCtx<'_>) -> Command,
    ) -> Command {
        let mut modules = std::mem::take(&mut self.modules);
        let mut outbox: Vec<(DatapathId, OfMessage)> = Vec::new();
        let mut verdict = Command::Continue;
        for module in modules.iter_mut() {
            let mut mcx = ModuleCtx {
                now: ctx.now(),
                alerts: &mut self.alerts,
                topology: &self.topology,
                devices: &self.devices,
                latency: &self.latency,
                lldp_key: self.config.lldp_key,
                telemetry: &self.telemetry,
                outbox: &mut outbox,
            };
            if f(module.as_mut(), &mut mcx) == Command::Block {
                verdict = Command::Block;
            }
        }
        self.modules = modules;
        for (dpid, msg) in outbox {
            ctx.send(dpid, msg);
        }
        verdict
    }

    /// The ports on `dpid` a scoped flood may use: every up physical port
    /// that is either host-facing (not on any discovered link) or a trunk on
    /// the spanning tree of the discovered topology. Ascending port order,
    /// so flood fan-out is deterministic.
    fn tree_flood_ports(&self, dpid: DatapathId) -> Vec<PortNo> {
        let tree = self.topology.spanning_tree();
        self.switch_ports
            .get(&dpid)
            .map(|ports| {
                ports
                    .iter()
                    .filter(|p| p.port_no.is_physical() && p.is_up())
                    .map(|p| p.port_no)
                    .filter(|port| {
                        let sp = SwitchPort::new(dpid, *port);
                        !self.topology.is_infrastructure_port(sp) || tree.contains(&sp)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn emit_lldp_round(&mut self, ctx: &mut ControllerCtx<'_>) {
        let now = ctx.now();
        self.telemetry.counter_inc("controller.discovery.rounds");
        let targets: Vec<(DatapathId, PortDesc)> = self
            .switch_ports
            .iter()
            .flat_map(|(dpid, ports)| {
                ports
                    .iter()
                    .filter(|p| p.port_no.is_physical() && p.is_up())
                    .map(|p| (*dpid, *p))
            })
            .collect();
        for (dpid, port) in targets {
            let mut lldp = sdn_types::packet::LldpPacket::new(dpid, port.port_no);
            if self.config.timestamp_lldp {
                lldp = lldp.with_timestamp(self.config.lldp_key, now);
            }
            if self.config.sign_lldp {
                lldp = lldp.signed(self.config.lldp_key);
            }
            let frame =
                EthernetFrame::new(port.hw_addr, MacAddr::LLDP_MULTICAST, Payload::Lldp(lldp));
            self.module_pass(ctx, |m, cx| {
                m.on_lldp_emit(cx, dpid, port.port_no);
                Command::Continue
            });
            ctx.send(
                dpid,
                OfMessage::PacketOut {
                    in_port: PortNo::NONE,
                    actions: vec![Action::Output(port.port_no)],
                    frame,
                },
            );
            self.lldp_emitted += 1;
            self.telemetry.counter_inc("controller.lldp.emitted");
        }

        // Link expiry shares the discovery cadence.
        let expired = self.topology.expire(now, self.config.profile.link_timeout);
        self.telemetry
            .counter_add("controller.topology.links_expired", expired.len() as u64);
        for link in expired {
            self.module_pass(ctx, |m, cx| {
                m.on_link_removed(cx, link);
                Command::Continue
            });
        }
    }

    fn handle_lldp_in(
        &mut self,
        ctx: &mut ControllerCtx<'_>,
        dpid: DatapathId,
        in_port: PortNo,
        frame: &EthernetFrame,
    ) {
        let Some(lldp) = frame.lldp() else { return };
        self.lldp_received += 1;
        self.telemetry.counter_inc("controller.lldp.received");
        let now = ctx.now();
        let src = SwitchPort::new(lldp.dpid, lldp.port);
        let dst = SwitchPort::new(dpid, in_port);

        let signature_valid = if self.config.sign_lldp {
            Some(lldp.verify(self.config.lldp_key))
        } else {
            None
        };

        let sample = if self.config.timestamp_lldp {
            lldp.open_timestamp(self.config.lldp_key)
                .map(|departure| LinkLatencySample {
                    t_lldp: now.since(departure),
                    t_sw_src: self.latency.one_way(src.dpid),
                    t_sw_dst: self.latency.one_way(dpid),
                })
        } else {
            None
        };

        let receive = LldpReceive {
            lldp,
            src,
            dst,
            at: now,
            signature_valid,
            sample,
        };
        if self.module_pass(ctx, |m, cx| m.on_lldp_receive(cx, &receive)) == Command::Block {
            self.telemetry.counter_inc("controller.lldp.blocked");
            return;
        }

        // Core Floodlight behaviour: unsigned-mode controllers accept any
        // LLDP; signed-mode controllers drop invalid signatures silently
        // (TopoGuard raises the alert).
        if signature_valid == Some(false) {
            self.telemetry.counter_inc("controller.lldp.sig_invalid");
            return;
        }

        let link = DirectedLink::new(src, dst);
        let is_new = self.topology.get(&link).is_none();
        let latency_ms = sample.and_then(|s| s.link_latency_ms());
        if self.module_pass(ctx, |m, cx| m.on_link_update(cx, link, is_new, sample))
            == Command::Block
        {
            self.telemetry.counter_inc("controller.link_update.blocked");
            return;
        }
        if is_new {
            self.telemetry.counter_inc("controller.topology.links_new");
        }
        self.topology.observe(link, now, latency_ms);
    }

    fn handle_dataplane_in(
        &mut self,
        ctx: &mut ControllerCtx<'_>,
        dpid: DatapathId,
        in_port: PortNo,
        frame: &EthernetFrame,
    ) {
        let now = ctx.now();
        let location = SwitchPort::new(dpid, in_port);

        // Host tracking: learn/refresh/move from the source header, unless
        // the source is multicast, the port is infrastructure, or topology
        // discovery has not completed its first round yet.
        let learning_active = now.as_nanos() >= HOST_LEARNING_AFTER.as_nanos();
        if learning_active
            && frame.src.is_unicast()
            && !self.topology.is_infrastructure_port(location)
        {
            let ip = extract_src_ip(frame);
            match self.devices.classify(frame.src, ip, location, now) {
                Observation::New => {
                    self.telemetry.counter_inc("controller.host.new");
                    self.devices.commit(frame.src, ip, location, now);
                    self.module_pass(ctx, |m, cx| {
                        m.on_host_new(cx, frame.src, ip, location);
                        Command::Continue
                    });
                }
                Observation::Refresh => {
                    self.devices.commit(frame.src, ip, location, now);
                }
                Observation::Moved(mv) => {
                    self.telemetry.counter_inc("controller.host.moves");
                    let verdict = self.module_pass(ctx, |m, cx| m.on_host_move(cx, &mv));
                    if verdict == Command::Block {
                        self.telemetry.counter_inc("controller.host.moves_blocked");
                    }
                    if verdict == Command::Continue {
                        self.devices.commit(frame.src, ip, location, now);
                        // Stale rules still point at the old attachment:
                        // flush flows touching the moved MAC everywhere, as
                        // Floodlight's Forwarding module does on deviceMoved.
                        let dpids: Vec<DatapathId> = self.switch_ports.keys().copied().collect();
                        for target in dpids {
                            for pattern in [
                                openflow::FlowMatch::new().with_eth_dst(frame.src),
                                openflow::FlowMatch::new().with_eth_src(frame.src),
                            ] {
                                ctx.send(
                                    target,
                                    OfMessage::FlowMod {
                                        command: openflow::FlowModCommand::Delete,
                                        flow_match: pattern,
                                        priority: 0,
                                        idle_timeout_secs: 0,
                                        hard_timeout_secs: 0,
                                        actions: vec![],
                                        cookie: 0,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }

        // Reactive forwarding.
        let scope = if self.config.tree_scoped_flood {
            Some(self.tree_flood_ports(dpid))
        } else {
            None
        };
        let (msgs, _flooded) = forwarding::handle_table_miss(
            &self.topology,
            &self.devices,
            dpid,
            in_port,
            frame,
            scope.as_deref(),
        );
        for (target, msg) in msgs {
            if matches!(msg, OfMessage::FlowMod { .. }) {
                self.module_pass(ctx, |m, cx| {
                    m.on_flow_mod(cx, target, &msg);
                    Command::Continue
                });
            }
            ctx.send(target, msg);
        }
    }
}

fn extract_src_ip(frame: &EthernetFrame) -> Option<IpAddr> {
    match &frame.payload {
        Payload::Ipv4(ip) => Some(ip.src),
        Payload::Arp(arp) => Some(arp.sender_ip),
        _ => None,
    }
}

impl ControllerLogic for SdnController {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        self.telemetry = ctx.telemetry();
        ctx.set_timer(FIRST_DISCOVERY_DELAY, TIMER_DISCOVERY);
        ctx.set_timer(TICK_INTERVAL, TIMER_TICK);
        if let Some(interval) = self.config.echo_interval {
            // First echoes early so T_SW estimates exist before discovery.
            ctx.set_timer(interval.div(4).max(Duration::from_millis(10)), TIMER_ECHO);
        }
        if let Some(interval) = self.config.stats_interval {
            ctx.set_timer(interval, TIMER_STATS);
        }
    }

    fn on_message(&mut self, ctx: &mut ControllerCtx<'_>, dpid: DatapathId, msg: OfMessage) {
        match msg {
            OfMessage::Hello => {}
            OfMessage::FeaturesReply { dpid, ports } => {
                self.switch_ports.insert(dpid, ports);
                // Prime the control-link latency estimate immediately on
                // connect so LLDP latency samples are available from the
                // first discovery round.
                if self.config.echo_interval.is_some() {
                    let now = ctx.now();
                    for _ in 0..crate::latency::SAMPLES_AVERAGED {
                        let xid = self.fresh_xid();
                        self.latency.echo_sent(xid.0, dpid, now);
                        ctx.send(dpid, OfMessage::EchoRequest { xid, payload: 0 });
                    }
                }
            }
            OfMessage::PortStatus { reason, desc, .. } => {
                if let Some(ports) = self.switch_ports.get_mut(&dpid) {
                    match ports.iter_mut().find(|p| p.port_no == desc.port_no) {
                        Some(p) => *p = desc,
                        None => ports.push(desc),
                    }
                }
                self.module_pass(ctx, |m, cx| {
                    m.on_port_status(cx, dpid, &desc, reason);
                    Command::Continue
                });
                // A deleted/downed port invalidates host bindings slowly via
                // natural relearning; Floodlight keeps bindings (which is
                // exactly the race Port Probing exploits).
                let _ = reason;
            }
            OfMessage::PacketIn { in_port, frame } => {
                self.packet_ins += 1;
                self.telemetry.counter_inc("controller.packet_in.total");
                let pin = PacketInCtx {
                    dpid,
                    in_port,
                    frame: &frame,
                    at: ctx.now(),
                };
                if self.module_pass(ctx, |m, cx| m.on_packet_in(cx, &pin)) == Command::Block {
                    return;
                }
                if frame.is_lldp() {
                    self.handle_lldp_in(ctx, dpid, in_port, &frame);
                } else {
                    self.handle_dataplane_in(ctx, dpid, in_port, &frame);
                }
            }
            OfMessage::EchoReply { xid, .. } => {
                if let Some(rtt) = self.latency.echo_received(xid.0, ctx.now()) {
                    self.telemetry.counter_inc("controller.echo.replies");
                    self.telemetry
                        .observe_duration("controller.echo.rtt_ns", rtt);
                }
            }
            OfMessage::FlowStatsReply { flows, .. } => {
                self.module_pass(ctx, |m, cx| {
                    m.on_flow_stats(cx, dpid, &flows);
                    Command::Continue
                });
            }
            OfMessage::PortStatsReply { ports, .. } => {
                self.module_pass(ctx, |m, cx| {
                    m.on_port_stats(cx, dpid, &ports);
                    Command::Continue
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ControllerCtx<'_>, id: TimerId) {
        match id {
            TIMER_DISCOVERY => {
                self.emit_lldp_round(ctx);
                ctx.set_timer(self.config.profile.link_discovery_interval, TIMER_DISCOVERY);
            }
            TIMER_ECHO => {
                let dpids: Vec<DatapathId> = self.switch_ports.keys().copied().collect();
                let now = ctx.now();
                // An echo whose reply is lost or reordered would otherwise
                // stay in the outstanding map forever; drop anything older
                // than several echo intervals before sending the next batch.
                if let Some(interval) = self.config.echo_interval {
                    let horizon = interval.mul(8).max(Duration::from_secs(1));
                    let pruned = self.latency.prune_stale(now, horizon);
                    self.telemetry
                        .counter_add("controller.echo.pruned", pruned as u64);
                }
                for dpid in dpids {
                    let xid = self.fresh_xid();
                    self.latency.echo_sent(xid.0, dpid, now);
                    self.telemetry.counter_inc("controller.echo.sent");
                    ctx.send(dpid, OfMessage::EchoRequest { xid, payload: 0 });
                }
                if let Some(interval) = self.config.echo_interval {
                    ctx.set_timer(interval, TIMER_ECHO);
                }
            }
            TIMER_TICK => {
                self.module_pass(ctx, |m, cx| {
                    m.on_tick(cx);
                    Command::Continue
                });
                ctx.set_timer(TICK_INTERVAL, TIMER_TICK);
            }
            TIMER_STATS => {
                let dpids: Vec<DatapathId> = self.switch_ports.keys().copied().collect();
                for dpid in dpids {
                    let xid = self.fresh_xid();
                    ctx.send(dpid, OfMessage::FlowStatsRequest { xid });
                    let xid = self.fresh_xid();
                    ctx.send(dpid, OfMessage::PortStatsRequest { xid });
                }
                if let Some(interval) = self.config.stats_interval {
                    ctx.set_timer(interval, TIMER_STATS);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
