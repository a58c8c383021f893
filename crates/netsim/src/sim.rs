//! The top-level simulator: network construction and the event loop.

use std::collections::BTreeMap;

use openflow::OfMessage;
use sdn_types::packet::EthernetFrame;
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};
use tm_telemetry::{MetricsSnapshot, Telemetry};

use crate::controller_api::{ControllerCtx, ControllerLogic, NullController};
use crate::engine::{CtrlDelivery, Event, SimCore};
use crate::faults::{FaultPlan, FaultState, FaultWindowKind};
use crate::host::{deliver_frame, HostApp, HostCtx, HostInfo, HostState};
use crate::link::LinkProfile;
use crate::switch::{self, Peer, SwitchState};
use crate::trace::{Trace, TraceEvent};
use crate::traffic::{self, TrafficPlan, TrafficState};

/// An out-of-band channel between two colluding hosts (the paper's 802.11
/// side link, Fig. 1), with propagation latency and per-packet
/// encode/decode cost.
pub(crate) struct OobChannel {
    pub(crate) a: HostId,
    pub(crate) b: HostId,
    pub(crate) latency: Duration,
    pub(crate) codec_cost: Duration,
}

/// All network state (switches, hosts, channels, trace).
pub(crate) struct NetState {
    pub(crate) switches: BTreeMap<DatapathId, SwitchState>,
    pub(crate) hosts: BTreeMap<HostId, HostState>,
    pub(crate) oob_channels: Vec<OobChannel>,
    pub(crate) trace: Trace,
    /// Runtime state of the installed fault plan (empty by default:
    /// every query is rejected without touching the RNG).
    pub(crate) faults: FaultState,
    /// Runtime state of the installed traffic plan (empty by default:
    /// no groups, no RNG streams, no flow cache).
    pub(crate) traffic: TrafficState,
}

/// Declarative description of a network, consumed by [`Simulator::new`].
///
/// The default control-link latency is 1 ms per switch.
pub struct NetworkSpec {
    net: NetState,
    controller: Box<dyn ControllerLogic>,
    default_ctrl_latency: Duration,
    telemetry: Telemetry,
}

impl NetworkSpec {
    /// Creates an empty specification with a [`NullController`].
    pub fn new() -> Self {
        NetworkSpec {
            net: NetState {
                switches: BTreeMap::new(),
                hosts: BTreeMap::new(),
                oob_channels: Vec::new(),
                trace: Trace::default(),
                faults: FaultState::default(),
                traffic: TrafficState::default(),
            },
            controller: Box::new(NullController),
            default_ctrl_latency: Duration::from_millis(1),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; every layer of the simulation publishes
    /// metrics into it. The default is a disabled handle (all publishes are
    /// no-ops).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.telemetry = telemetry;
        self
    }

    /// Adds a switch with the default control-link latency.
    pub fn add_switch(&mut self, dpid: DatapathId) -> &mut Self {
        let latency = self.default_ctrl_latency;
        self.add_switch_with_ctrl_latency(dpid, latency)
    }

    /// Adds a switch with a specific control-link latency.
    ///
    /// # Panics
    /// Panics if the datapath id is already in use.
    pub fn add_switch_with_ctrl_latency(
        &mut self,
        dpid: DatapathId,
        ctrl_latency: Duration,
    ) -> &mut Self {
        let prev = self
            .net
            .switches
            .insert(dpid, SwitchState::new(dpid, ctrl_latency));
        assert!(prev.is_none(), "duplicate switch {dpid}");
        self
    }

    /// Adds a host with the given identifiers (initially unattached).
    ///
    /// # Panics
    /// Panics if the host id is already in use.
    pub fn add_host(&mut self, id: HostId, mac: MacAddr, ip: IpAddr) -> &mut Self {
        let prev = self.net.hosts.insert(id, HostState::new(id, mac, ip));
        assert!(prev.is_none(), "duplicate host {id}");
        self
    }

    /// Attaches a host to a switch port over `link`.
    ///
    /// # Panics
    /// Panics if host or switch does not exist, or the port is in use.
    pub fn attach_host(
        &mut self,
        host: HostId,
        dpid: DatapathId,
        port: PortNo,
        link: LinkProfile,
    ) -> &mut Self {
        // tm-lint: allow(unwrap-in-lib) -- documented builder panic ("# Panics"): a malformed spec must fail loudly at build time, not mid-simulation
        let sw = self.net.switches.get_mut(&dpid).expect("switch exists");
        assert!(
            !sw.ports.contains_key(&port),
            "port {port} on {dpid} already attached"
        );
        sw.attach(port, Peer::Host { host }, link);
        // tm-lint: allow(unwrap-in-lib) -- documented builder panic ("# Panics"): a malformed spec must fail loudly at build time, not mid-simulation
        let h = self.net.hosts.get_mut(&host).expect("host exists");
        assert!(h.attachment.is_none(), "host {host} already attached");
        h.attachment = Some((dpid, port, link));
        self
    }

    /// Connects two switch ports with a symmetric link.
    ///
    /// # Panics
    /// Panics if either switch is missing or a port is in use.
    pub fn link_switches(
        &mut self,
        a: DatapathId,
        port_a: PortNo,
        b: DatapathId,
        port_b: PortNo,
        link: LinkProfile,
    ) -> &mut Self {
        {
            // tm-lint: allow(unwrap-in-lib) -- documented builder panic ("# Panics"): a malformed spec must fail loudly at build time, not mid-simulation
            let sw_a = self.net.switches.get_mut(&a).expect("switch a exists");
            assert!(!sw_a.ports.contains_key(&port_a), "port in use on {a}");
            sw_a.attach(
                port_a,
                Peer::Switch {
                    dpid: b,
                    port: port_b,
                },
                link,
            );
        }
        {
            // tm-lint: allow(unwrap-in-lib) -- documented builder panic ("# Panics"): a malformed spec must fail loudly at build time, not mid-simulation
            let sw_b = self.net.switches.get_mut(&b).expect("switch b exists");
            assert!(!sw_b.ports.contains_key(&port_b), "port in use on {b}");
            sw_b.attach(
                port_b,
                Peer::Switch {
                    dpid: a,
                    port: port_a,
                },
                link,
            );
        }
        self
    }

    /// Adds an out-of-band channel between two hosts.
    pub fn add_oob_channel(
        &mut self,
        a: HostId,
        b: HostId,
        latency: Duration,
        codec_cost: Duration,
    ) -> &mut Self {
        self.net.oob_channels.push(OobChannel {
            a,
            b,
            latency,
            codec_cost,
        });
        self
    }

    /// Installs a host application.
    ///
    /// # Panics
    /// Panics if the host does not exist.
    pub fn set_host_app(&mut self, host: HostId, app: Box<dyn HostApp>) -> &mut Self {
        // tm-lint: allow(unwrap-in-lib) -- documented builder panic ("# Panics"): a malformed spec must fail loudly at build time, not mid-simulation
        self.net.hosts.get_mut(&host).expect("host exists").app = Some(app);
        self
    }

    /// Installs the controller.
    pub fn set_controller(&mut self, controller: Box<dyn ControllerLogic>) -> &mut Self {
        self.controller = controller;
        self
    }
}

impl Default for NetworkSpec {
    fn default() -> Self {
        NetworkSpec::new()
    }
}

/// The discrete-event simulator.
pub struct Simulator {
    core: SimCore,
    net: NetState,
    controller: Option<Box<dyn ControllerLogic>>,
}

impl Simulator {
    /// Builds a simulator from `spec`, seeds the RNG, performs the
    /// controller handshake (Hello + FeaturesReply per switch), and invokes
    /// `on_start` hooks.
    pub fn new(spec: NetworkSpec, seed: u64) -> Self {
        let mut sim = Simulator {
            core: SimCore::new(seed, spec.telemetry),
            net: spec.net,
            controller: Some(spec.controller),
        };

        // Switch handshake: each switch announces itself.
        let dpids: Vec<DatapathId> = sim.net.switches.keys().copied().collect();
        for dpid in &dpids {
            let sw = &sim.net.switches[dpid];
            let latency = sw.ctrl_latency;
            let ports = sw.port_descs();
            sim.core.schedule(
                latency,
                Event::CtrlToController(Box::new(CtrlDelivery {
                    dpid: *dpid,
                    msg: OfMessage::Hello,
                })),
            );
            sim.core.schedule(
                latency,
                Event::CtrlToController(Box::new(CtrlDelivery {
                    dpid: *dpid,
                    msg: OfMessage::FeaturesReply { dpid: *dpid, ports },
                })),
            );
            let tick = sw.expiry_tick;
            sim.core
                .schedule(tick, Event::SwitchExpiryTick { dpid: *dpid });
        }

        // Controller start hook.
        sim.with_controller(|logic, ctx| logic.on_start(ctx));

        // Host app start hooks.
        let hosts: Vec<HostId> = sim.net.hosts.keys().copied().collect();
        for host in hosts {
            sim.with_host_app(host, |app, ctx| app.on_start(ctx));
        }
        sim
    }

    /// Builds a simulator like [`Simulator::new`] and installs a fault
    /// plan: every entry becomes ordinary scheduled events in the
    /// deterministic queue (see [`crate::faults`]). An empty plan schedules
    /// nothing and draws nothing — the run is byte-identical to
    /// `Simulator::new(spec, seed)`.
    pub fn with_fault_plan(spec: NetworkSpec, seed: u64, plan: FaultPlan) -> Self {
        let mut sim = Simulator::new(spec, seed);
        sim.install_fault_plan(plan);
        sim
    }

    /// Builds a simulator like [`Simulator::new`] and installs a traffic
    /// plan: one aggregation host is attached per group (before the
    /// handshake, so the controller's `FeaturesReply` already lists the
    /// aggregation ports) and each group's arrival chain becomes ordinary
    /// scheduled events drawing from per-group RNG streams (see
    /// [`crate::traffic`]). An empty plan attaches nothing, schedules
    /// nothing and draws nothing — the run is byte-identical to
    /// `Simulator::new(spec, seed)`.
    ///
    /// # Panics
    /// Panics if a group names a missing switch or an occupied port.
    pub fn with_traffic_plan(spec: NetworkSpec, seed: u64, plan: TrafficPlan) -> Self {
        Simulator::with_plans(spec, seed, FaultPlan::new(), plan)
    }

    /// Builds a simulator with both a fault plan and a traffic plan
    /// installed (either may be empty; an empty plan changes nothing).
    ///
    /// # Panics
    /// Panics if a traffic group names a missing switch or an occupied
    /// port.
    pub fn with_plans(
        mut spec: NetworkSpec,
        seed: u64,
        faults: FaultPlan,
        traffic: TrafficPlan,
    ) -> Self {
        traffic::prepare_spec(&mut spec, &traffic);
        let mut sim = Simulator::new(spec, seed);
        if !faults.is_empty() {
            sim.install_fault_plan(faults);
        }
        sim.install_traffic_plan(seed, traffic);
        sim
    }

    /// Schedules each traffic group's window-start phase event and stores
    /// the runtime traffic state. An empty plan schedules zero events and
    /// constructs zero RNG streams.
    fn install_traffic_plan(&mut self, seed: u64, plan: TrafficPlan) {
        if plan.is_empty() {
            return;
        }
        for (index, g) in plan.groups().iter().enumerate() {
            self.core.schedule_at(
                g.window.from,
                Event::TrafficPhase {
                    group: index as u32,
                },
            );
        }
        self.net.traffic = TrafficState::install(plan, seed);
    }

    /// Schedules the plan's window/flap/restart edges and stores the
    /// runtime fault state.
    fn install_fault_plan(&mut self, plan: FaultPlan) {
        for (index, f) in plan.loss().iter().enumerate() {
            self.schedule_window(FaultWindowKind::Loss, index, f.window);
        }
        for (index, f) in plan.spikes().iter().enumerate() {
            self.schedule_window(FaultWindowKind::Spike, index, f.window);
        }
        for (index, f) in plan.congestion().iter().enumerate() {
            self.schedule_window(FaultWindowKind::Congestion, index, f.window);
        }
        for (index, f) in plan.flaps().iter().enumerate() {
            self.core
                .schedule_at(f.down_at, Event::FaultLinkDown { index });
            self.core.schedule_at(f.up_at, Event::FaultLinkUp { index });
        }
        for (index, f) in plan.restarts().iter().enumerate() {
            self.core
                .schedule_at(f.at, Event::FaultSwitchRestart { index });
            self.core
                .schedule_at(f.at + f.outage, Event::FaultSwitchReconnect { index });
        }
        self.net.faults = FaultState::install(plan);
    }

    fn schedule_window(
        &mut self,
        kind: FaultWindowKind,
        index: usize,
        window: crate::faults::FaultWindow,
    ) {
        self.core
            .schedule_at(window.from, Event::FaultWindowStart { kind, index });
        self.core
            .schedule_at(window.until, Event::FaultWindowEnd { kind, index });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Runs until the event queue is empty or `deadline` is reached; the
    /// clock ends exactly at `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(event) = self.core.pop_until(deadline) {
            self.dispatch(event);
        }
        self.core.advance_to(deadline);
    }

    /// Runs for `duration` of virtual time.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.now() + duration;
        self.run_until(deadline);
    }

    /// Takes a deterministic snapshot of every metric published so far,
    /// flushing the engine's hot-path counters first. Byte-identical across
    /// runs with the same seed.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.core.flush_engine_metrics();
        self.core.telemetry.snapshot()
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.net.trace
    }

    /// Snapshot of a host's state.
    pub fn host_info(&self, host: HostId) -> Option<HostInfo> {
        self.net.hosts.get(&host).map(|h| h.info())
    }

    /// Number of rules installed on a switch.
    pub fn flow_count(&self, dpid: DatapathId) -> Option<usize> {
        self.net.switches.get(&dpid).map(|sw| sw.table.len())
    }

    /// Per-port statistics for a switch.
    pub fn port_stats(&self, dpid: DatapathId) -> Option<Vec<openflow::PortStatsEntry>> {
        self.net.switches.get(&dpid).map(|sw| sw.port_stats())
    }

    /// Administratively disables or enables a switch port (failure
    /// injection). Generates the same PortStatus messages a cable pull
    /// would.
    pub fn set_switch_port_admin(&mut self, dpid: DatapathId, port: PortNo, up: bool) {
        // One lookup covers the change check and the admin-down
        // transition, so no re-lookup has to assert the port still exists.
        let down_desc = {
            let Some(sw) = self.net.switches.get_mut(&dpid) else {
                return;
            };
            let Some(p) = sw.ports.get_mut(&port) else {
                return;
            };
            if p.admin_up == up {
                return;
            }
            p.admin_up = up;
            if up {
                None
            } else {
                // Admin-down is observed immediately (no pulse wait).
                p.detected_up = false;
                Some(openflow::PortDesc {
                    port_no: port,
                    hw_addr: p.hw_addr,
                    state: openflow::PortLinkState::Down,
                })
            }
        };
        if up {
            switch::declare_port_up(&mut self.core, &mut self.net, dpid, port);
        } else if let Some(desc) = down_desc {
            let now = self.core.now();
            self.net.trace.push(TraceEvent::PortDown {
                at: now,
                dpid,
                port,
            });
            switch::send_to_controller(
                &mut self.core,
                &self.net,
                dpid,
                OfMessage::PortStatus {
                    reason: openflow::PortStatusReason::Modify,
                    desc,
                    observed_at: now,
                },
            );
        }
    }

    /// Downcasts the controller to a concrete type.
    pub fn controller_as<T: 'static>(&self) -> Option<&T> {
        self.controller
            .as_ref()
            .and_then(|c| c.as_any().downcast_ref())
    }

    /// Downcasts the controller to a concrete type, mutably.
    pub fn controller_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.controller
            .as_mut()
            .and_then(|c| c.as_any_mut().downcast_mut())
    }

    /// Downcasts a host's app to a concrete type.
    pub fn host_app_as<T: 'static>(&self, host: HostId) -> Option<&T> {
        self.net
            .hosts
            .get(&host)?
            .app
            .as_ref()
            .and_then(|a| a.as_any().downcast_ref())
    }

    /// Imperatively takes a host's interface down (scenario scripting).
    /// Unknown host ids are ignored (scenario input must not panic).
    pub fn host_iface_down(&mut self, host: HostId) {
        if !self.net.hosts.contains_key(&host) {
            return;
        }
        let mut ctx = HostCtx {
            core: &mut self.core,
            net: &mut self.net,
            host,
        };
        ctx.iface_down();
    }

    /// Imperatively schedules a host's interface to come up. Unknown host
    /// ids are ignored (scenario input must not panic).
    pub fn host_schedule_iface_up(
        &mut self,
        host: HostId,
        delay: Duration,
        identity: Option<(MacAddr, IpAddr)>,
    ) {
        if !self.net.hosts.contains_key(&host) {
            return;
        }
        let mut ctx = HostCtx {
            core: &mut self.core,
            net: &mut self.net,
            host,
        };
        ctx.schedule_iface_up(delay, identity);
    }

    /// Imperatively sends a frame from a host. Returns `false` for an
    /// unknown host id (scenario input must not panic).
    pub fn host_send_frame(&mut self, host: HostId, frame: EthernetFrame) -> bool {
        if !self.net.hosts.contains_key(&host) {
            return false;
        }
        let mut ctx = HostCtx {
            core: &mut self.core,
            net: &mut self.net,
            host,
        };
        ctx.send_frame(frame)
    }

    /// Runs `f` with mutable access to a host's app and its context —
    /// the escape hatch scenario drivers use to poke attack state machines.
    pub fn with_host_app<R>(
        &mut self,
        host: HostId,
        f: impl FnOnce(&mut dyn HostApp, &mut HostCtx<'_>) -> R,
    ) -> Option<R> {
        let mut app = self.net.hosts.get_mut(&host)?.app.take()?;
        let mut ctx = HostCtx {
            core: &mut self.core,
            net: &mut self.net,
            host,
        };
        let r = f(app.as_mut(), &mut ctx);
        if let Some(h) = self.net.hosts.get_mut(&host) {
            h.app = Some(app);
        }
        Some(r)
    }

    fn with_controller<R>(
        &mut self,
        f: impl FnOnce(&mut dyn ControllerLogic, &mut ControllerCtx<'_>) -> R,
    ) -> Option<R> {
        let mut controller = self.controller.take()?;
        let mut ctx = ControllerCtx {
            core: &mut self.core,
            net: &mut self.net,
        };
        let r = f(controller.as_mut(), &mut ctx);
        self.controller = Some(controller);
        Some(r)
    }

    fn dispatch(&mut self, event: Event) {
        self.core.telemetry.counter_inc(event.kind());
        match event {
            Event::DeliverToSwitch(d) => {
                switch::handle_frame(&mut self.core, &mut self.net, d.dpid, d.port, d.frame);
            }
            Event::DeliverToHost(d) => {
                deliver_frame(&mut self.core, &mut self.net, d.host, d.frame);
            }
            Event::DeliverOob(d) => {
                self.net.trace.push(TraceEvent::OobRelay {
                    at: self.core.now(),
                    from: d.from,
                    to: d.to,
                });
                self.with_host_app(d.to, |app, ctx| app.on_oob_frame(ctx, d.from, d.frame));
            }
            Event::CtrlToSwitch(d) => {
                switch::handle_ctrl(&mut self.core, &mut self.net, d.dpid, d.msg);
            }
            Event::CtrlToController(d) => {
                self.with_controller(|logic, ctx| logic.on_message(ctx, d.dpid, d.msg));
            }
            Event::ControllerTimer { id } => {
                self.with_controller(|logic, ctx| {
                    logic.on_timer(ctx, crate::controller_api::TimerId(id))
                });
            }
            Event::HostTimer { host, id } => {
                self.with_host_app(host, |app, ctx| app.on_timer(ctx, id));
            }
            Event::SwitchExpiryTick { dpid } => {
                switch::handle_expiry_tick(&mut self.core, &mut self.net, dpid);
            }
            Event::PulseCheck(d) => {
                switch::handle_pulse_check(
                    &mut self.core,
                    &mut self.net,
                    d.dpid,
                    d.port,
                    d.down_epoch,
                );
            }
            Event::PulseCheckUp { dpid, port } => {
                let host_up = match self
                    .net
                    .switches
                    .get(&dpid)
                    .and_then(|sw| sw.ports.get(&port))
                {
                    Some(p) => match p.peer {
                        Peer::Host { host } => self
                            .net
                            .hosts
                            .get(&host)
                            .map(|h| h.iface_up)
                            .unwrap_or(false),
                        Peer::Switch { .. } => true,
                    },
                    None => return,
                };
                if host_up {
                    switch::declare_port_up(&mut self.core, &mut self.net, dpid, port);
                }
            }
            Event::HostIfaceUp(d) => {
                let host = d.host;
                let current = match self.net.hosts.get(&host) {
                    Some(h) => h.up_epoch,
                    None => return,
                };
                if current != d.epoch {
                    return; // superseded by a later down/up cycle
                }
                {
                    let mut ctx = HostCtx {
                        core: &mut self.core,
                        net: &mut self.net,
                        host,
                    };
                    ctx.complete_iface_up(d.identity);
                }
                self.with_host_app(host, |app, ctx| app.on_iface_up(ctx));
            }
            Event::TrafficArrival { group, epoch } => {
                traffic::on_arrival(&mut self.core, &mut self.net, group, epoch);
            }
            Event::TrafficPhase { group } => {
                traffic::on_phase(&mut self.core, &mut self.net, group);
            }
            Event::FaultWindowStart { kind, index } => {
                self.core
                    .telemetry
                    .counter_inc("netsim.fault.windows_opened");
                self.net.faults.set_window(kind, index, true);
            }
            Event::FaultWindowEnd { kind, index } => {
                self.net.faults.set_window(kind, index, false);
            }
            Event::FaultLinkDown { index } => {
                let Some(f) = self.net.faults.plan.flaps().get(index).copied() else {
                    return;
                };
                self.core.telemetry.counter_inc("netsim.fault.link_flaps");
                self.set_switch_port_admin(f.dpid, f.port, false);
            }
            Event::FaultLinkUp { index } => {
                let Some(f) = self.net.faults.plan.flaps().get(index).copied() else {
                    return;
                };
                self.set_switch_port_admin(f.dpid, f.port, true);
            }
            Event::FaultSwitchRestart { index } => {
                let Some(f) = self.net.faults.plan.restarts().get(index).copied() else {
                    return;
                };
                let Some(sw) = self.net.switches.get_mut(&f.dpid) else {
                    return;
                };
                // The restart wipes all installed state; in-flight traffic
                // starts table-missing into PacketIns immediately.
                sw.table = openflow::FlowTable::new();
                self.core
                    .telemetry
                    .counter_inc("netsim.fault.switch_restarts");
            }
            Event::FaultSwitchReconnect { index } => {
                let Some(f) = self.net.faults.plan.restarts().get(index).copied() else {
                    return;
                };
                let Some(sw) = self.net.switches.get(&f.dpid) else {
                    return;
                };
                // The control channel comes back: the switch re-runs the
                // same handshake it performed at simulation start, so the
                // controller observes a reconnect. Routed through
                // send_to_controller so congestion faults apply to it too.
                let ports = sw.port_descs();
                switch::send_to_controller(&mut self.core, &self.net, f.dpid, OfMessage::Hello);
                switch::send_to_controller(
                    &mut self.core,
                    &self.net,
                    f.dpid,
                    OfMessage::FeaturesReply {
                        dpid: f.dpid,
                        ports,
                    },
                );
            }
        }
    }
}
