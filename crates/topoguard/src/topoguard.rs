//! The TopoGuard policy enforcer (§III-B), as a controller defense module.

use controller::{
    AlertKind, Command, DefenseModule, HostMove, LldpReceive, ModuleCtx, PacketInCtx,
};
use openflow::{Action, OfMessage, PortDesc, PortStatusReason};
use sdn_types::packet::{EthernetFrame, IcmpPacket, Ipv4Packet, Payload, Transport};
use sdn_types::{Duration, IpAddr, MacAddr, PortNo, SimTime, SwitchPort};

use crate::profiler::{PortProfiler, PortType};

/// TopoGuard configuration.
#[derive(Clone, Copy, Debug)]
pub struct TopoGuardConfig {
    /// How long the post-condition reachability probe waits for an answer
    /// from the host's old location before accepting the migration.
    pub reachability_timeout: Duration,
    /// How far back a Port-Down at the old location satisfies the
    /// migration pre-condition.
    pub precondition_window: Duration,
    /// Ignore dataplane traffic for profiling until this long after
    /// startup. Before the first LLDP discovery round, flooded broadcasts
    /// produce PacketIns at inter-switch ports that are not yet known to
    /// be infrastructure; profiling them as HOST would (wrongly) flag the
    /// first legitimate LLDP on every trunk. Floodlight gates device
    /// processing on topology readiness for the same reason.
    pub profile_after: Duration,
}

impl Default for TopoGuardConfig {
    fn default() -> Self {
        TopoGuardConfig {
            reachability_timeout: Duration::from_millis(500),
            precondition_window: Duration::from_secs(60),
            profile_after: Duration::from_millis(300),
        }
    }
}

/// An in-flight post-condition check: the controller pinged the migrating
/// host's *old* location; any answer before the deadline means the "host"
/// is still there and the move is a hijack.
#[derive(Clone, Copy, Debug)]
struct PendingReachabilityCheck {
    mac: MacAddr,
    old_location: SwitchPort,
    deadline: SimTime,
}

/// The TopoGuard module.
pub struct TopoGuard {
    config: TopoGuardConfig,
    /// The behavioral profiler.
    pub profiler: PortProfiler,
    /// Recent Port-Down events: `(port, at)`.
    recent_port_downs: Vec<(SwitchPort, SimTime)>,
    pending_checks: Vec<PendingReachabilityCheck>,
    probe_seq: u16,
}

/// The IP TopoGuard's reachability probes claim as their source.
const PROBE_SRC_IP: IpAddr = IpAddr::new(10, 255, 255, 254);
/// The MAC TopoGuard's reachability probes claim as their source.
const PROBE_SRC_MAC: MacAddr = MacAddr::new([0x02, 0xD0, 0, 0, 0, 0xFE]);

impl TopoGuard {
    /// Creates the module.
    pub fn new(config: TopoGuardConfig) -> Self {
        TopoGuard {
            config,
            profiler: PortProfiler::new(),
            recent_port_downs: Vec::new(),
            pending_checks: Vec::new(),
            probe_seq: 0,
        }
    }

    fn alert(&self, cx: &mut ModuleCtx<'_>, kind: AlertKind, detail: String) {
        cx.telemetry.counter_inc("topoguard.alerts");
        cx.raise(kind, detail);
    }

    fn port_down_seen_since(&self, port: SwitchPort, since: SimTime) -> bool {
        self.recent_port_downs
            .iter()
            .any(|(p, at)| *p == port && *at >= since)
    }
}

impl DefenseModule for TopoGuard {
    fn name(&self) -> &'static str {
        "topoguard"
    }

    fn on_packet_in(&mut self, cx: &mut ModuleCtx<'_>, ev: &PacketInCtx<'_>) -> Command {
        let port = SwitchPort::new(ev.dpid, ev.in_port);

        // Post-condition monitoring: an answer from a checked old location
        // means the "migrated" host is still reachable there.
        if let Some(idx) = self
            .pending_checks
            .iter()
            .position(|c| c.old_location == port && c.mac == ev.frame.src && cx.now <= c.deadline)
        {
            let check = self.pending_checks.remove(idx);
            self.alert(
                cx,
                AlertKind::HostMigrationPostcondition,
                format!(
                    "host {} migrated away from {} but still answers there",
                    check.mac, check.old_location
                ),
            );
        }

        if ev.frame.is_lldp() {
            // Profiling for LLDP happens in on_lldp_receive (validated).
            return Command::Continue;
        }

        // Only *first-hop* traffic profiles a port: traffic originated by a
        // host attached there. Transit traffic (src MAC bound to another
        // location, or an infrastructure port mid-path) does not — and
        // nothing does before topology discovery has had its first round.
        if cx.now.as_nanos() < self.config.profile_after.as_nanos() {
            return Command::Continue;
        }
        let first_hop = !cx.topology.is_infrastructure_port(port)
            && cx
                .devices
                .location_of(&ev.frame.src)
                .is_none_or(|bound| bound == port);
        if !first_hop {
            return Command::Continue;
        }
        let prev = self.profiler.saw_host_traffic(port, cx.now);
        if prev == PortType::Switch {
            self.alert(
                cx,
                AlertKind::TrafficFromSwitchPort,
                format!(
                    "first-hop traffic from SWITCH port {port} (src {})",
                    ev.frame.src
                ),
            );
        }
        Command::Continue
    }

    fn on_lldp_receive(&mut self, cx: &mut ModuleCtx<'_>, ev: &LldpReceive<'_>) -> Command {
        // Authenticated LLDP: reject forgeries outright. `None` means the
        // controller is not signing; fall through to profiling.
        if ev.signature_valid == Some(false) {
            self.alert(
                cx,
                AlertKind::LinkFabrication,
                format!("LLDP with invalid signature received at {}", ev.dst),
            );
            return Command::Block;
        }

        // Port Property check on the receiving port.
        let prev = self.profiler.saw_lldp(ev.dst, cx.now);
        if prev == PortType::Host {
            self.alert(
                cx,
                AlertKind::LinkFabrication,
                format!(
                    "LLDP received from HOST port {} (claimed link {} -> {})",
                    ev.dst, ev.src, ev.dst
                ),
            );
            return Command::Block;
        }
        Command::Continue
    }

    fn on_port_status(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: sdn_types::DatapathId,
        desc: &PortDesc,
        reason: PortStatusReason,
    ) {
        if reason != PortStatusReason::Modify {
            return;
        }
        let port = SwitchPort::new(dpid, desc.port_no);
        if !desc.is_up() {
            // Port-Down: reset the profile (the Port Amnesia lever) and
            // remember it for migration pre-conditions.
            self.profiler.port_down(port, cx.now);
            self.recent_port_downs.push((port, cx.now));
            // Bound memory: drop entries beyond the pre-condition window.
            let keep_after = SimTime::from_nanos(
                cx.now
                    .as_nanos()
                    .saturating_sub(self.config.precondition_window.as_nanos()),
            );
            self.recent_port_downs.retain(|(_, at)| *at >= keep_after);
        }
    }

    fn on_host_move(&mut self, cx: &mut ModuleCtx<'_>, mv: &HostMove) -> Command {
        // Pre-condition: the old location must have produced a Port-Down
        // recently. (Tying this to the host's last-seen time instead would
        // false-positive on packets that were already in flight when the
        // port dropped.)
        let window_start = SimTime::from_nanos(
            cx.now
                .as_nanos()
                .saturating_sub(self.config.precondition_window.as_nanos()),
        );
        if !self.port_down_seen_since(mv.from, window_start) {
            self.alert(
                cx,
                AlertKind::HostMigrationPrecondition,
                format!(
                    "host {} moved {} -> {} without a Port-Down at the old location",
                    mv.mac, mv.from, mv.to
                ),
            );
            // TopoGuard raises an alert but does not alter network state
            // (§IV-B "Alert Floods") — the move is still committed.
            return Command::Continue;
        }

        // Post-condition: probe the old location; an answer within the
        // timeout raises an alert (handled in on_packet_in).
        self.probe_seq = self.probe_seq.wrapping_add(1);
        let target_ip = mv
            .ip
            .or_else(|| {
                cx.devices
                    .get(&mv.mac)
                    .and_then(|d| d.ips.iter().next().copied())
            })
            .unwrap_or(IpAddr::UNSPECIFIED);
        let probe = EthernetFrame::new(
            PROBE_SRC_MAC,
            mv.mac,
            Payload::Ipv4(Ipv4Packet::new(
                PROBE_SRC_IP,
                target_ip,
                Transport::Icmp(IcmpPacket::echo_request(0x7061, self.probe_seq, vec![])),
            )),
        );
        cx.send(
            mv.from.dpid,
            OfMessage::PacketOut {
                in_port: PortNo::NONE,
                actions: vec![Action::Output(mv.from.port)],
                frame: probe,
            },
        );
        self.pending_checks.push(PendingReachabilityCheck {
            mac: mv.mac,
            old_location: mv.from,
            deadline: cx.now + self.config.reachability_timeout,
        });
        cx.telemetry.counter_inc("topoguard.reachability_probes");
        cx.telemetry.counter_inc("topoguard.migrations_accepted");
        Command::Continue
    }

    fn on_tick(&mut self, cx: &mut ModuleCtx<'_>) {
        // Expired checks: no answer from the old location — post-condition
        // satisfied, nothing to do.
        let now = cx.now;
        self.pending_checks.retain(|c| c.deadline >= now);
    }
}
