//! TOPOGUARD+'s Control Message Monitor (§VI-C).
//!
//! In-band Port Amnesia requires the attacker to bounce its interface
//! *during* LLDP propagation so its port is re-profiled from HOST to
//! SWITCH in time to relay the probe. The CMM detects exactly that: when an
//! LLDP probe is in flight, receipt of a Port-Up or Port-Down from a port
//! involved in the probe (sender, or — retroactively, since the receiver is
//! not known in advance — the receiving port) raises an alert.

use controller::{AlertKind, Command, CounterHandle, DefenseModule, LldpReceive, ModuleCtx};
use openflow::{PortDesc, PortStatusReason};
use sdn_types::{DatapathId, Duration, PortNo, SimTime, SwitchPort, SwitchPortTable};

/// CMM configuration.
#[derive(Clone, Copy, Debug)]
pub struct CmmConfig {
    /// An in-flight probe is forgotten after this long (lost probes must
    /// not pin state forever). Must exceed the worst-case LLDP propagation
    /// time.
    pub probe_ttl: Duration,
    /// How long port-status events are retained for the retroactive
    /// receiver-side check.
    pub event_retention: Duration,
}

impl Default for CmmConfig {
    fn default() -> Self {
        CmmConfig {
            // Probes to host-facing ports never come back; forget them
            // quickly or every Port-Down near a discovery round would
            // false-positive. Real LLDP propagation completes within
            // milliseconds; 500 ms is a generous in-flight budget.
            probe_ttl: Duration::from_millis(500),
            event_retention: Duration::from_secs(30),
        }
    }
}

/// The Control Message Monitor.
pub struct Cmm {
    config: CmmConfig,
    /// Probes in flight: emitting port → emission time. A port's slot
    /// outlives its probe, so every round reuses the slots of the last.
    in_flight: SwitchPortTable<SimTime>,
    /// No probe in flight was emitted before this; `None` while none is
    /// in flight. `on_tick` scans `in_flight` only once it falls past the
    /// probe TTL: once per discovery round.
    oldest: Option<SimTime>,
    /// Recent Port-Up/Down events: `(port, at, went_up)`.
    port_events: Vec<(SwitchPort, SimTime, bool)>,
    /// `topoguard.cmm.probes_tracked`, resolved from the run's telemetry
    /// on the first probe.
    probes_tracked: Option<CounterHandle>,
}

impl Cmm {
    /// Creates the module.
    pub fn new(config: CmmConfig) -> Self {
        Cmm {
            config,
            in_flight: SwitchPortTable::new(),
            oldest: None,
            port_events: Vec::new(),
            probes_tracked: None,
        }
    }

    fn alert(&mut self, cx: &mut ModuleCtx<'_>, detail: String) {
        cx.telemetry.counter_inc("topoguard.cmm.detections");
        cx.raise(AlertKind::AnomalousControlMessage, detail);
    }

    fn events_in_window(
        &self,
        port: SwitchPort,
        start: SimTime,
        end: SimTime,
    ) -> Vec<(SimTime, bool)> {
        self.port_events
            .iter()
            .filter(|(p, at, _)| *p == port && *at >= start && *at <= end)
            .map(|(_, at, up)| (*at, *up))
            .collect()
    }
}

impl DefenseModule for Cmm {
    fn name(&self) -> &'static str {
        "topoguard+/cmm"
    }

    fn on_lldp_emit(&mut self, cx: &mut ModuleCtx<'_>, dpid: DatapathId, port: PortNo) {
        self.probes_tracked
            .get_or_insert_with(|| cx.telemetry.counter_handle("topoguard.cmm.probes_tracked"))
            .inc();
        self.in_flight.insert(SwitchPort::new(dpid, port), cx.now);
        self.oldest.get_or_insert(cx.now);
    }

    fn on_lldp_receive(&mut self, cx: &mut ModuleCtx<'_>, ev: &LldpReceive<'_>) -> Command {
        // Close the sender-side window.
        let emitted_at = self.in_flight.remove(&ev.src);
        let window_start = match emitted_at {
            Some(t) => t,
            // Unknown probe (e.g. relayed from a stale capture): use a
            // conservative window of one probe TTL.
            None => SimTime::from_nanos(
                cx.now
                    .as_nanos()
                    .saturating_sub(self.config.probe_ttl.as_nanos()),
            ),
        };

        // Retroactive check on both endpoints of the claimed link.
        let mut tainted = Vec::new();
        for port in [ev.src, ev.dst] {
            for (at, up) in self.events_in_window(port, window_start, cx.now) {
                tainted.push((port, at, up));
            }
        }
        if !tainted.is_empty() {
            let (port, _, up) = tainted[0];
            self.alert(
                cx,
                format!(
                    "detected suspicious link discovery: Port-{} from {} during LLDP propagation ({} -> {})",
                    if up { "Up" } else { "Down" },
                    port,
                    ev.src,
                    ev.dst,
                ),
            );
            return Command::Block;
        }
        Command::Continue
    }

    fn on_port_status(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        desc: &PortDesc,
        reason: PortStatusReason,
    ) {
        if reason != PortStatusReason::Modify {
            return;
        }
        let port = SwitchPort::new(dpid, desc.port_no);
        self.port_events.push((port, cx.now, desc.is_up()));

        // Immediate sender-side check: a port with an in-flight probe just
        // changed state.
        if self.in_flight.contains_key(&port) {
            self.alert(
                cx,
                format!(
                    "detected suspicious control message: Port-{} from {} while its LLDP probe is in flight",
                    if desc.is_up() { "Up" } else { "Down" },
                    port,
                ),
            );
        }
    }

    fn on_tick(&mut self, cx: &mut ModuleCtx<'_>) {
        let now = cx.now;
        let probe_cutoff = SimTime::from_nanos(
            now.as_nanos()
                .saturating_sub(self.config.probe_ttl.as_nanos()),
        );
        if self.oldest.is_some_and(|oldest| oldest < probe_cutoff) {
            let mut oldest: Option<SimTime> = None;
            self.in_flight.retain(|_, &mut at| {
                let live = at >= probe_cutoff;
                if live {
                    oldest = Some(oldest.map_or(at, |o| o.min(at)));
                }
                live
            });
            self.oldest = oldest;
        }
        let event_cutoff = SimTime::from_nanos(
            now.as_nanos()
                .saturating_sub(self.config.event_retention.as_nanos()),
        );
        self.port_events.retain(|(_, at, _)| *at >= event_cutoff);
    }
}
