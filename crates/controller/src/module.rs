//! The defense-module pipeline.
//!
//! TopoGuard, TopoGuard+ and SPHINX are implemented (in their own crates) as
//! [`DefenseModule`]s plugged into the controller. Modules observe every
//! relevant controller event, may raise [`Alert`]s, and may
//! veto topology/host-table updates by returning [`Command::Block`] — the
//! distinction between *alert-only* defenses (TopoGuard, SPHINX: "this
//! alert does not alter network state", §IV-B) and TopoGuard+'s optional
//! blocking of suspicious link updates (§VI-D).

use openflow::{FlowStatsEntry, OfMessage, PortDesc, PortStatsEntry, PortStatusReason};
use sdn_types::packet::EthernetFrame;
use sdn_types::{DatapathId, Duration, IpAddr, MacAddr, PortNo, SimTime, SwitchPort};

use tm_telemetry::Telemetry;

use crate::alerts::{Alert, AlertKind, AlertSink};
use crate::devices::{DeviceTable, HostMove};
use crate::topology::{DirectedLink, Topology};

/// A module's verdict on a pending state update.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// Let the update proceed (other modules are still consulted).
    Continue,
    /// Veto the update (remaining modules are still notified, but the
    /// controller will not commit it).
    Block,
}

/// A dataplane packet delivered to the controller.
#[derive(Debug)]
pub struct PacketInCtx<'f> {
    /// The reporting switch.
    pub dpid: DatapathId,
    /// The ingress port.
    pub in_port: PortNo,
    /// The parsed frame.
    pub frame: &'f EthernetFrame,
    /// Arrival time at the controller.
    pub at: SimTime,
}

/// The latency evidence attached to one LLDP traversal (TopoGuard+).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkLatencySample {
    /// Total controller-to-controller LLDP propagation time (`T_LLDP`).
    pub t_lldp: Duration,
    /// Estimated one-way control-link delay at the emitting switch.
    pub t_sw_src: Option<Duration>,
    /// Estimated one-way control-link delay at the receiving switch.
    pub t_sw_dst: Option<Duration>,
}

impl LinkLatencySample {
    /// The switch-link latency estimate `T_LLDP − T_SW1 − T_SW2`, in
    /// milliseconds. `None` if either control-link estimate is missing.
    pub fn link_latency_ms(&self) -> Option<f64> {
        let sw1 = self.t_sw_src?;
        let sw2 = self.t_sw_dst?;
        Some(
            self.t_lldp
                .saturating_sub(sw1)
                .saturating_sub(sw2)
                .as_millis_f64(),
        )
    }
}

/// A verified LLDP reception, presented to modules before the link table is
/// updated.
#[derive(Debug)]
pub struct LldpReceive<'f> {
    /// The parsed LLDP payload.
    pub lldp: &'f sdn_types::packet::LldpPacket,
    /// The link endpoint the packet claims to come from.
    pub src: SwitchPort,
    /// Where the packet was actually received.
    pub dst: SwitchPort,
    /// Arrival time at the controller.
    pub at: SimTime,
    /// Signature verdict: `None` if LLDP signing is disabled, otherwise the
    /// verification result.
    pub signature_valid: Option<bool>,
    /// Latency evidence, if LLDP timestamping is enabled.
    pub sample: Option<LinkLatencySample>,
}

/// What modules can see and do during a callback.
pub struct ModuleCtx<'a> {
    /// Current controller time.
    pub now: SimTime,
    /// Read view of the link table.
    pub topology: &'a Topology,
    /// Read view of the host-tracking table.
    pub devices: &'a DeviceTable,
    /// The run's shared metrics handle (disabled handles no-op).
    pub telemetry: &'a Telemetry,
    /// The running module's [`DefenseModule::name`].
    pub(crate) source: &'static str,
    pub(crate) alerts: &'a mut AlertSink,
    pub(crate) outbox: &'a mut Vec<(DatapathId, OfMessage)>,
}

impl ModuleCtx<'_> {
    /// Raises an alert at the current time, with the running module's name
    /// as its `source`.
    pub fn raise(&mut self, kind: AlertKind, detail: String) {
        self.alerts.raise(Alert {
            at: self.now,
            source: self.source,
            kind,
            detail,
        });
    }

    /// Queues a control message to `dpid` (sent after the module pass).
    /// Used e.g. by TopoGuard's post-condition reachability probe.
    pub fn send(&mut self, dpid: DatapathId, msg: OfMessage) {
        self.outbox.push((dpid, msg));
    }
}

/// A controller security module. All hooks default to no-ops that
/// [`Command::Continue`].
#[allow(unused_variables)]
pub trait DefenseModule: netsim::AsAny {
    /// A stable name, stamped as the `source` of every alert the module
    /// raises through [`ModuleCtx::raise`].
    fn name(&self) -> &'static str;

    /// Every dataplane `PacketIn` (including LLDP), before any service
    /// processes it.
    fn on_packet_in(&mut self, cx: &mut ModuleCtx<'_>, ev: &PacketInCtx<'_>) -> Command {
        Command::Continue
    }

    /// An LLDP probe is being emitted on `(dpid, port)`.
    fn on_lldp_emit(&mut self, cx: &mut ModuleCtx<'_>, dpid: DatapathId, port: PortNo) {}

    /// An LLDP packet was received; runs before the link table is updated.
    fn on_lldp_receive(&mut self, cx: &mut ModuleCtx<'_>, ev: &LldpReceive<'_>) -> Command {
        Command::Continue
    }

    /// A `PortStatus` arrived from a switch.
    fn on_port_status(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        desc: &PortDesc,
        reason: PortStatusReason,
    ) {
    }

    /// A brand-new host was learned.
    fn on_host_new(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        mac: MacAddr,
        ip: Option<IpAddr>,
        location: SwitchPort,
    ) {
    }

    /// A known host appeared at a new location; runs before the binding is
    /// committed.
    fn on_host_move(&mut self, cx: &mut ModuleCtx<'_>, mv: &HostMove) -> Command {
        Command::Continue
    }

    /// A link observation passed LLDP validation; runs before the topology
    /// commits it. `is_new` distinguishes discovery from refresh.
    fn on_link_update(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        link: DirectedLink,
        is_new: bool,
        sample: Option<LinkLatencySample>,
    ) -> Command {
        Command::Continue
    }

    /// A link expired or was removed.
    fn on_link_removed(&mut self, cx: &mut ModuleCtx<'_>, link: DirectedLink) {}

    /// Periodic housekeeping (every controller tick, 100 ms).
    fn on_tick(&mut self, cx: &mut ModuleCtx<'_>) {}

    /// A flow-statistics reply arrived.
    fn on_flow_stats(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        flows: &[FlowStatsEntry],
    ) {
    }

    /// A port-statistics reply arrived.
    fn on_port_stats(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        ports: &[PortStatsEntry],
    ) {
    }

    /// The controller emitted a FlowMod (SPHINX treats these as trusted
    /// intent).
    fn on_flow_mod(&mut self, cx: &mut ModuleCtx<'_>, dpid: DatapathId, msg: &OfMessage) {}

    /// Downcasting support; a decorator overrides it to expose the module
    /// it wraps.
    fn as_any(&self) -> &dyn std::any::Any {
        self.any_ref()
    }

    /// Downcasting support, mutably.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_latency_formula() {
        let sample = LinkLatencySample {
            t_lldp: Duration::from_millis(9),
            t_sw_src: Some(Duration::from_millis(1)),
            t_sw_dst: Some(Duration::from_millis(1)),
        };
        assert_eq!(sample.link_latency_ms(), Some(7.0));
    }

    #[test]
    fn link_latency_saturates_at_zero() {
        let sample = LinkLatencySample {
            t_lldp: Duration::from_millis(1),
            t_sw_src: Some(Duration::from_millis(5)),
            t_sw_dst: Some(Duration::from_millis(5)),
        };
        assert_eq!(sample.link_latency_ms(), Some(0.0));
    }

    #[test]
    fn link_latency_requires_both_estimates() {
        let sample = LinkLatencySample {
            t_lldp: Duration::from_millis(9),
            t_sw_src: None,
            t_sw_dst: Some(Duration::from_millis(1)),
        };
        assert_eq!(sample.link_latency_ms(), None);
    }
}
