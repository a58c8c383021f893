//! A SPHINX surrogate (Dhawan et al., NDSS 2015; §III-C of the DSN paper).
//!
//! The paper's authors could not obtain SPHINX and built a surrogate
//! implementing its invariants; we do the same. The module builds *flow
//! graphs* — the switches each `(src MAC, dst MAC)` flow traverses,
//! annotated with per-switch byte counters from flow statistics — and
//! checks:
//!
//! * **Counter conservation** — along a flow's path, per-switch byte counts
//!   must agree within a tolerance (a relay that drops or injects traffic
//!   diverges). `FlowMod` messages from the controller are trusted as the
//!   declaration of intent (the path).
//! * **Identifier uniqueness** — a MAC oscillating between network
//!   locations (more than one move inside a short window) indicates two
//!   live bearers of the same identity.
//! * **Link stability** — SPHINX "implicitly trusts new links, and only
//!   raises an alert when existing links are changed": a switch port that
//!   was an endpoint of one link becoming an endpoint of a *different*
//!   link raises an alert.
//!
//! Faithfully to the paper, SPHINX raises alerts but never blocks updates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use controller::DirectedLink;
use controller::{AlertKind, Command, DefenseModule, HostMove, LinkLatencySample, ModuleCtx};
use openflow::{FlowStatsEntry, OfMessage};
use sdn_types::{DatapathId, Duration, MacAddr, SimTime, SwitchPort};

/// SPHINX configuration.
#[derive(Clone, Copy, Debug)]
pub struct SphinxConfig {
    /// Relative divergence between per-switch byte counters on the same
    /// flow before alerting (e.g. `0.5` = 50 %).
    pub counter_tolerance: f64,
    /// Minimum bytes a flow must carry before counter checks apply.
    pub counter_min_bytes: u64,
    /// Two location changes for the same MAC within this window count as
    /// oscillation (identifier conflict).
    pub oscillation_window: Duration,
    /// Counter-conservation compares per-switch counters only when all of
    /// them were refreshed within this window of each other. Comparing a
    /// fresh counter against one from the previous polling round would
    /// false-positive on every growing flow.
    pub counter_staleness: Duration,
}

impl Default for SphinxConfig {
    fn default() -> Self {
        SphinxConfig {
            counter_tolerance: 0.5,
            counter_min_bytes: 500,
            oscillation_window: Duration::from_secs(10),
            counter_staleness: Duration::from_millis(500),
        }
    }
}

/// A flow key: source and destination MAC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowKey {
    /// Source MAC.
    pub src: MacAddr,
    /// Destination MAC.
    pub dst: MacAddr,
}

/// The flow graph for one flow: expected waypoints (from trusted FlowMods)
/// and observed per-switch counters (from flow statistics).
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    /// Switches the controller installed rules on for this flow.
    pub waypoints: Vec<DatapathId>,
    /// Latest per-switch byte counts, with the time each was refreshed.
    pub byte_counts: BTreeMap<DatapathId, (u64, SimTime)>,
}

/// The SPHINX surrogate module.
pub struct Sphinx {
    config: SphinxConfig,
    /// Flow graphs by flow key.
    pub flows: BTreeMap<FlowKey, FlowGraph>,
    /// Per-MAC recent moves (for oscillation detection).
    recent_moves: BTreeMap<MacAddr, Vec<SimTime>>,
    /// Which link each switch port was last an endpoint of.
    port_links: BTreeMap<SwitchPort, DirectedLink>,
}

impl Sphinx {
    /// Creates the module with default configuration.
    pub fn new(config: SphinxConfig) -> Self {
        Sphinx {
            config,
            flows: BTreeMap::new(),
            recent_moves: BTreeMap::new(),
            port_links: BTreeMap::new(),
        }
    }

    fn alert(&mut self, cx: &mut ModuleCtx<'_>, kind: AlertKind, detail: String) {
        cx.telemetry.counter_inc("sphinx.detections");
        cx.raise(kind, detail);
    }

    /// Checks counter conservation for one flow; returns the divergence
    /// ratio if it violates the tolerance. Only counters refreshed within
    /// the same polling epoch are compared.
    fn counter_violation(config: &SphinxConfig, graph: &FlowGraph) -> Option<f64> {
        let newest = graph.byte_counts.values().map(|(_, at)| *at).max()?;
        let fresh: Vec<u64> = graph
            .byte_counts
            .values()
            .filter(|(_, at)| newest.since(*at) <= config.counter_staleness)
            .map(|(v, _)| *v)
            .collect();
        if fresh.len() < 2 {
            return None;
        }
        let max = *fresh.iter().max()?;
        let min = *fresh.iter().min()?;
        if max < config.counter_min_bytes {
            return None;
        }
        let divergence = (max - min) as f64 / max as f64;
        (divergence > config.counter_tolerance).then_some(divergence)
    }
}

impl DefenseModule for Sphinx {
    fn name(&self) -> &'static str {
        "sphinx"
    }

    fn on_flow_mod(&mut self, _cx: &mut ModuleCtx<'_>, dpid: DatapathId, msg: &OfMessage) {
        // FlowMods are trusted: they declare the intended flow graph.
        if let OfMessage::FlowMod { flow_match, .. } = msg {
            if let (Some(src), Some(dst)) = (flow_match.eth_src, flow_match.eth_dst) {
                let graph = self.flows.entry(FlowKey { src, dst }).or_default();
                if !graph.waypoints.contains(&dpid) {
                    graph.waypoints.push(dpid);
                }
            }
        }
    }

    fn on_flow_stats(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        flows: &[FlowStatsEntry],
    ) {
        cx.telemetry.counter_inc("sphinx.flow_stats_replies");
        let mut violations = Vec::new();
        for entry in flows {
            let (Some(src), Some(dst)) = (entry.flow_match.eth_src, entry.flow_match.eth_dst)
            else {
                continue;
            };
            let key = FlowKey { src, dst };
            let now = cx.now;
            let graph = self.flows.entry(key).or_default();
            graph.byte_counts.insert(dpid, (entry.byte_count, now));
            if let Some(divergence) = Self::counter_violation(&self.config, graph) {
                violations.push((key, divergence));
            }
        }
        for (key, divergence) in violations {
            self.alert(
                cx,
                AlertKind::FlowInconsistency,
                format!(
                    "flow {} -> {}: per-switch byte counters diverge by {:.0}%",
                    key.src,
                    key.dst,
                    divergence * 100.0
                ),
            );
        }
    }

    fn on_host_move(&mut self, cx: &mut ModuleCtx<'_>, mv: &HostMove) -> Command {
        let moves = self.recent_moves.entry(mv.mac).or_default();
        moves.push(cx.now);
        let cutoff = SimTime::from_nanos(
            cx.now
                .as_nanos()
                .saturating_sub(self.config.oscillation_window.as_nanos()),
        );
        moves.retain(|at| *at >= cutoff);
        if moves.len() >= 2 {
            let detail = format!(
                "identifier {} oscillating between locations ({} moves in {}s window): {} <-> {}",
                mv.mac,
                moves.len(),
                self.config.oscillation_window.as_millis() / 1000,
                mv.from,
                mv.to
            );
            self.alert(cx, AlertKind::IdentifierConflict, detail);
        }
        // SPHINX never blocks.
        Command::Continue
    }

    fn on_link_update(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        link: DirectedLink,
        is_new: bool,
        _sample: Option<LinkLatencySample>,
    ) -> Command {
        if is_new {
            // "SPHINX implicitly trusts new links" — but an endpoint moving
            // from one link to a *different* link is a change.
            for port in [link.src, link.dst] {
                if let Some(previous) = self.port_links.get(&port) {
                    if *previous != link && previous.reversed() != link {
                        let detail = format!(
                            "port {} changed links: {} -> {} became {} -> {}",
                            port, previous.src, previous.dst, link.src, link.dst
                        );
                        self.alert(cx, AlertKind::LinkChanged, detail);
                    }
                }
            }
            self.port_links.insert(link.src, link);
            self.port_links.insert(link.dst, link);
        }
        Command::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_violation_thresholds() {
        let sphinx = Sphinx::new(SphinxConfig::default());
        let mut graph = FlowGraph::default();
        let t = SimTime::from_secs(1);
        graph.byte_counts.insert(DatapathId::new(1), (1000, t));
        graph.byte_counts.insert(DatapathId::new(2), (900, t));
        assert!(
            Sphinx::counter_violation(&sphinx.config, &graph).is_none(),
            "10% ok"
        );
        graph.byte_counts.insert(DatapathId::new(2), (100, t));
        assert!(
            Sphinx::counter_violation(&sphinx.config, &graph).is_some(),
            "90% violates"
        );
    }

    #[test]
    fn counter_check_needs_volume_and_two_switches() {
        let sphinx = Sphinx::new(SphinxConfig::default());
        let mut graph = FlowGraph::default();
        let t = SimTime::from_secs(1);
        graph.byte_counts.insert(DatapathId::new(1), (100, t));
        assert!(
            Sphinx::counter_violation(&sphinx.config, &graph).is_none(),
            "one switch"
        );
        graph.byte_counts.insert(DatapathId::new(2), (1, t));
        assert!(
            Sphinx::counter_violation(&sphinx.config, &graph).is_none(),
            "below min volume"
        );
    }
}
