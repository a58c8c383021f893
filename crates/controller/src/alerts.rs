//! The shared alert channel defenses raise into.
//!
//! Per the paper (§IV-B, "Alert Floods"): alerts inform the operator but do
//! **not** alter network state — which is precisely what makes alert
//! flooding and attacker/victim ambiguity possible. The sink therefore only
//! records; it never blocks anything.

use std::fmt;

use sdn_types::SimTime;

/// The category of a defense alert.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AlertKind {
    /// TopoGuard: host migration pre-condition violated (no Port-Down
    /// before the move).
    HostMigrationPrecondition,
    /// TopoGuard: host migration post-condition violated (old location
    /// still reachable).
    HostMigrationPostcondition,
    /// TopoGuard: LLDP received from a port profiled as HOST, or with an
    /// invalid signature.
    LinkFabrication,
    /// TopoGuard: first-hop traffic from a port profiled as SWITCH.
    TrafficFromSwitchPort,
    /// TopoGuard+ CMM: Port-Up/Down observed from a port involved in an
    /// in-flight LLDP probe.
    AnomalousControlMessage,
    /// TopoGuard+ LLI: switch-link latency beyond `Q3 + 3·IQR`.
    AbnormalLinkLatency,
    /// SPHINX: flow-graph or counter-conservation violation.
    FlowInconsistency,
    /// SPHINX: the same identifier bound to multiple network locations.
    IdentifierConflict,
    /// SPHINX: an existing link changed unexpectedly.
    LinkChanged,
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AlertKind::HostMigrationPrecondition => "host-migration-precondition",
            AlertKind::HostMigrationPostcondition => "host-migration-postcondition",
            AlertKind::LinkFabrication => "link-fabrication",
            AlertKind::TrafficFromSwitchPort => "traffic-from-switch-port",
            AlertKind::AnomalousControlMessage => "anomalous-control-message",
            AlertKind::AbnormalLinkLatency => "abnormal-link-latency",
            AlertKind::FlowInconsistency => "flow-inconsistency",
            AlertKind::IdentifierConflict => "identifier-conflict",
            AlertKind::LinkChanged => "link-changed",
        };
        f.write_str(s)
    }
}

/// One alert raised by a defense module.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alert {
    /// When the alert was raised (controller clock).
    pub at: SimTime,
    /// The raising module (`"topoguard"`, `"topoguard+/cmm"`, `"sphinx"`, ...).
    pub source: &'static str,
    /// The category.
    pub kind: AlertKind,
    /// Human-readable detail, in the style of the paper's Fig. 12/13 log
    /// excerpts.
    pub detail: String,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ERROR [{}] {}: {}",
            self.at, self.source, self.kind, self.detail
        )
    }
}

/// An append-only record of raised alerts.
#[derive(Clone, Debug, Default)]
pub struct AlertSink {
    alerts: Vec<Alert>,
}

impl AlertSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        AlertSink::default()
    }

    /// Records an alert.
    pub fn raise(&mut self, alert: Alert) {
        self.alerts.push(alert);
    }

    /// All alerts, in order.
    pub fn all(&self) -> &[Alert] {
        &self.alerts
    }

    /// Number of alerts recorded.
    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    /// Returns `true` if no alerts were raised.
    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Alerts of a given kind.
    pub fn of_kind(&self, kind: AlertKind) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().filter(move |a| a.kind == kind)
    }

    /// Counts alerts of a given kind.
    pub fn count(&self, kind: AlertKind) -> usize {
        self.of_kind(kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(kind: AlertKind) -> Alert {
        Alert {
            at: SimTime::from_millis(5),
            source: "topoguard",
            kind,
            detail: "test".into(),
        }
    }

    #[test]
    fn sink_records_and_filters() {
        let mut sink = AlertSink::new();
        assert!(sink.is_empty());
        sink.raise(alert(AlertKind::LinkFabrication));
        sink.raise(alert(AlertKind::AbnormalLinkLatency));
        sink.raise(alert(AlertKind::LinkFabrication));
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.count(AlertKind::LinkFabrication), 2);
        assert_eq!(sink.count(AlertKind::IdentifierConflict), 0);
    }

    #[test]
    fn display_matches_log_style() {
        let a = Alert {
            at: SimTime::from_millis(1500),
            source: "topoguard+/lli",
            kind: AlertKind::AbnormalLinkLatency,
            detail: "link delay is abnormal. delay:22ms, threshold:14ms".into(),
        };
        let line = a.to_string();
        assert!(line.contains("ERROR"));
        assert!(line.contains("abnormal-link-latency"));
        assert!(line.contains("delay:22ms"));
    }
}
