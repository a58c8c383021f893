//! The simulator's hot-path metrics: the counters and the histogram
//! written once per event, frame or flow arrival, resolved from the run's
//! [`Telemetry`] once, in `SimCore::new`, so those writes skip the
//! registry's name lookup. Every name is a literal handed to
//! `counter_handle`/`histogram_handle`, where tm-lint's telemetry-names
//! pass checks it.

use tm_telemetry::{CounterHandle, HistogramHandle, Telemetry};

use crate::engine::Event;

/// One counter per event kind (`netsim.event.<kind>`), resolved once per
/// run.
pub(crate) struct EventCounters {
    deliver_to_switch: CounterHandle,
    deliver_to_host: CounterHandle,
    deliver_oob: CounterHandle,
    ctrl_to_switch: CounterHandle,
    ctrl_to_controller: CounterHandle,
    controller_timer: CounterHandle,
    host_timer: CounterHandle,
    switch_expiry_tick: CounterHandle,
    pulse_check: CounterHandle,
    pulse_check_up: CounterHandle,
    host_iface_up: CounterHandle,
    fault_window_start: CounterHandle,
    fault_window_end: CounterHandle,
    fault_link_down: CounterHandle,
    fault_link_up: CounterHandle,
    traffic_arrival: CounterHandle,
    traffic_phase: CounterHandle,
    fault_switch_restart: CounterHandle,
    fault_switch_reconnect: CounterHandle,
}

impl EventCounters {
    fn resolve(t: &Telemetry) -> Self {
        EventCounters {
            deliver_to_switch: t.counter_handle("netsim.event.deliver_to_switch"),
            deliver_to_host: t.counter_handle("netsim.event.deliver_to_host"),
            deliver_oob: t.counter_handle("netsim.event.deliver_oob"),
            ctrl_to_switch: t.counter_handle("netsim.event.ctrl_to_switch"),
            ctrl_to_controller: t.counter_handle("netsim.event.ctrl_to_controller"),
            controller_timer: t.counter_handle("netsim.event.controller_timer"),
            host_timer: t.counter_handle("netsim.event.host_timer"),
            switch_expiry_tick: t.counter_handle("netsim.event.switch_expiry_tick"),
            pulse_check: t.counter_handle("netsim.event.pulse_check"),
            pulse_check_up: t.counter_handle("netsim.event.pulse_check_up"),
            host_iface_up: t.counter_handle("netsim.event.host_iface_up"),
            fault_window_start: t.counter_handle("netsim.event.fault_window_start"),
            fault_window_end: t.counter_handle("netsim.event.fault_window_end"),
            fault_link_down: t.counter_handle("netsim.event.fault_link_down"),
            fault_link_up: t.counter_handle("netsim.event.fault_link_up"),
            traffic_arrival: t.counter_handle("netsim.event.traffic_arrival"),
            traffic_phase: t.counter_handle("netsim.event.traffic_phase"),
            fault_switch_restart: t.counter_handle("netsim.event.fault_switch_restart"),
            fault_switch_reconnect: t.counter_handle("netsim.event.fault_switch_reconnect"),
        }
    }

    /// The counter of `event`'s kind.
    pub(crate) fn of(&self, event: &Event) -> &CounterHandle {
        match event {
            Event::DeliverToSwitch(_) => &self.deliver_to_switch,
            Event::DeliverToHost(_) => &self.deliver_to_host,
            Event::DeliverOob(_) => &self.deliver_oob,
            Event::CtrlToSwitch(_) => &self.ctrl_to_switch,
            Event::CtrlToController(_) => &self.ctrl_to_controller,
            Event::ControllerTimer { .. } => &self.controller_timer,
            Event::HostTimer { .. } => &self.host_timer,
            Event::SwitchExpiryTick { .. } => &self.switch_expiry_tick,
            Event::PulseCheck(_) => &self.pulse_check,
            Event::PulseCheckUp { .. } => &self.pulse_check_up,
            Event::HostIfaceUp(_) => &self.host_iface_up,
            Event::FaultWindowStart { .. } => &self.fault_window_start,
            Event::FaultWindowEnd { .. } => &self.fault_window_end,
            Event::FaultLinkDown { .. } => &self.fault_link_down,
            Event::FaultLinkUp { .. } => &self.fault_link_up,
            Event::TrafficArrival { .. } => &self.traffic_arrival,
            Event::TrafficPhase { .. } => &self.traffic_phase,
            Event::FaultSwitchRestart { .. } => &self.fault_switch_restart,
            Event::FaultSwitchReconnect { .. } => &self.fault_switch_reconnect,
        }
    }
}

/// The flow-level traffic engine's per-arrival counters (`traffic.*`).
pub(crate) struct TrafficCounters {
    pub(crate) flows_offered: CounterHandle,
    pub(crate) bytes_offered: CounterHandle,
    pub(crate) packets_aggregated: CounterHandle,
    pub(crate) expansions_arp: CounterHandle,
    pub(crate) hosts_announced: CounterHandle,
    pub(crate) expansions_first_packet: CounterHandle,
    pub(crate) packets_expanded: CounterHandle,
}

/// The metrics written once per event, frame or flow arrival, resolved
/// once per run so those writes skip the registry's name lookup. Rarer
/// metrics (faults, drops, FIFO clamps) stay on the by-name calls.
pub(crate) struct HotMetrics {
    pub(crate) events: EventCounters,
    pub(crate) switch_tx_frames: CounterHandle,
    pub(crate) switch_table_miss: CounterHandle,
    pub(crate) link_transit_ns: HistogramHandle,
    pub(crate) host_tx_frames: CounterHandle,
    pub(crate) traffic: TrafficCounters,
}

impl HotMetrics {
    pub(crate) fn resolve(t: &Telemetry) -> Self {
        HotMetrics {
            events: EventCounters::resolve(t),
            switch_tx_frames: t.counter_handle("netsim.switch.tx_frames"),
            switch_table_miss: t.counter_handle("netsim.switch.table_miss"),
            link_transit_ns: t.histogram_handle("netsim.link.transit_ns"),
            host_tx_frames: t.counter_handle("netsim.host.tx_frames"),
            traffic: TrafficCounters {
                flows_offered: t.counter_handle("traffic.flows_offered"),
                bytes_offered: t.counter_handle("traffic.bytes_offered"),
                packets_aggregated: t.counter_handle("traffic.packets_aggregated"),
                expansions_arp: t.counter_handle("traffic.expansions_arp"),
                hosts_announced: t.counter_handle("traffic.hosts_announced"),
                expansions_first_packet: t.counter_handle("traffic.expansions_first_packet"),
                packets_expanded: t.counter_handle("traffic.packets_expanded"),
            },
        }
    }
}
