//! OpenFlow control-channel messages.
//!
//! These are the events the paper's whole analysis revolves around:
//!
//! * `PacketIn` — drives the Host Tracking Service (and is how relayed LLDP
//!   packets reach the controller during link fabrication).
//! * `PortStatus` with reason `Down`/`Up` — the messages an attacker
//!   generates at will to mount Port Amnesia.
//! * `EchoRequest`/`EchoReply` — used by TopoGuard+ to measure per-switch
//!   control-link latency (`T_SW`).
//! * `FlowStats`/`PortStats` — the switch counters SPHINX audits.

use sdn_types::packet::EthernetFrame;
use sdn_types::{DatapathId, PortNo, SimTime};

use crate::{Action, FlowMatch, PortDesc};

/// A transaction identifier correlating requests with replies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Xid(pub u64);

/// Why a PortStatus message was emitted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortStatusReason {
    /// A port was added.
    Add,
    /// A port was removed.
    Delete,
    /// A port's state changed (link up/down).
    Modify,
}

/// FlowMod commands (OpenFlow 1.0 subset).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowModCommand {
    /// Add a new rule.
    Add,
    /// Delete rules matching the given match.
    Delete,
}

/// Why a flow entry was removed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowRemovedReason {
    /// Idle timeout expired.
    IdleTimeout,
    /// Hard timeout expired.
    HardTimeout,
    /// Deleted by a controller FlowMod.
    Delete,
}

/// Per-flow statistics, as returned in a stats reply.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FlowStatsEntry {
    /// The rule's match.
    pub flow_match: FlowMatch,
    /// The rule's priority.
    pub priority: u16,
    /// Packets that hit the rule.
    pub packet_count: u64,
    /// Bytes that hit the rule.
    pub byte_count: u64,
}

/// Per-port statistics, as returned in a stats reply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortStatsEntry {
    /// The port.
    pub port_no: PortNo,
    /// Packets received on the port.
    pub rx_packets: u64,
    /// Packets transmitted on the port.
    pub tx_packets: u64,
    /// Bytes received on the port.
    pub rx_bytes: u64,
    /// Bytes transmitted on the port.
    pub tx_bytes: u64,
}

/// An OpenFlow control message, in either direction.
///
/// The `dpid` of the sending/receiving switch travels with the message in
/// the simulator's control-channel envelope, not inside the message itself
/// (matching how a real controller identifies messages by connection).
#[derive(Clone, PartialEq, Debug)]
pub enum OfMessage {
    /// Connection handshake.
    Hello,
    /// Controller-to-switch liveness/latency probe.
    EchoRequest {
        /// Transaction id.
        xid: Xid,
        /// Opaque payload echoed back (TopoGuard+ stores the send time
        /// controller-side, keyed by `xid`).
        payload: u64,
    },
    /// Switch's echo response.
    EchoReply {
        /// Transaction id copied from the request.
        xid: Xid,
        /// Payload copied from the request.
        payload: u64,
    },
    /// Controller requests switch features.
    FeaturesRequest,
    /// Switch describes itself.
    FeaturesReply {
        /// The switch's datapath id.
        dpid: DatapathId,
        /// The switch's ports.
        ports: Vec<PortDesc>,
    },
    /// A dataplane frame forwarded to the controller, on a table miss or
    /// an `Output(CONTROLLER)` action.
    PacketIn {
        /// The port the frame arrived on.
        in_port: PortNo,
        /// The frame, exactly as the switch received it.
        frame: EthernetFrame,
    },
    /// The controller injects a frame into the dataplane.
    PacketOut {
        /// Ingress port for FLOOD semantics ([`PortNo::NONE`] if none).
        in_port: PortNo,
        /// The ports to emit on (typically a single `Output`).
        actions: Vec<Action>,
        /// The frame to emit.
        frame: EthernetFrame,
    },
    /// The controller modifies the flow table.
    FlowMod {
        /// Add or delete.
        command: FlowModCommand,
        /// The rule's match.
        flow_match: FlowMatch,
        /// The rule's priority (higher wins).
        priority: u16,
        /// Idle timeout in seconds (0 = none).
        idle_timeout_secs: u16,
        /// Hard timeout in seconds (0 = none).
        hard_timeout_secs: u16,
        /// The rule's actions.
        actions: Vec<Action>,
        /// Opaque controller cookie.
        cookie: u64,
    },
    /// A rule was removed from the flow table.
    FlowRemoved {
        /// The removed rule's match.
        flow_match: FlowMatch,
        /// The removed rule's priority.
        priority: u16,
        /// Why it was removed.
        reason: FlowRemovedReason,
        /// Final packet count.
        packet_count: u64,
        /// Final byte count.
        byte_count: u64,
    },
    /// A port's status changed.
    PortStatus {
        /// Add/delete/modify.
        reason: PortStatusReason,
        /// The port's new description.
        desc: PortDesc,
        /// When the switch observed the change (diagnostic; defenses use
        /// their own receive timestamps).
        observed_at: SimTime,
    },
    /// Controller requests flow statistics.
    FlowStatsRequest {
        /// Transaction id.
        xid: Xid,
    },
    /// Switch returns flow statistics.
    FlowStatsReply {
        /// Transaction id copied from the request.
        xid: Xid,
        /// One entry per installed rule.
        flows: Vec<FlowStatsEntry>,
    },
    /// Controller requests port statistics.
    PortStatsRequest {
        /// Transaction id.
        xid: Xid,
    },
    /// Switch returns port statistics.
    PortStatsReply {
        /// Transaction id copied from the request.
        xid: Xid,
        /// One entry per port.
        ports: Vec<PortStatsEntry>,
    },
}

impl OfMessage {
    /// A short name for logging and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            OfMessage::Hello => "Hello",
            OfMessage::EchoRequest { .. } => "EchoRequest",
            OfMessage::EchoReply { .. } => "EchoReply",
            OfMessage::FeaturesRequest => "FeaturesRequest",
            OfMessage::FeaturesReply { .. } => "FeaturesReply",
            OfMessage::PacketIn { .. } => "PacketIn",
            OfMessage::PacketOut { .. } => "PacketOut",
            OfMessage::FlowMod { .. } => "FlowMod",
            OfMessage::FlowRemoved { .. } => "FlowRemoved",
            OfMessage::PortStatus { .. } => "PortStatus",
            OfMessage::FlowStatsRequest { .. } => "FlowStatsRequest",
            OfMessage::FlowStatsReply { .. } => "FlowStatsReply",
            OfMessage::PortStatsRequest { .. } => "PortStatsRequest",
            OfMessage::PortStatsReply { .. } => "PortStatsReply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_for_logging() {
        assert_eq!(OfMessage::Hello.kind(), "Hello");
        assert_eq!(
            OfMessage::EchoRequest {
                xid: Xid(1),
                payload: 0
            }
            .kind(),
            "EchoRequest"
        );
    }
}
