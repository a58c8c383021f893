//! Outside-in timing decorators for the traced rep.
//!
//! [`TracedController`] wraps the controller and [`TracedModule`] wraps
//! each defense module. Both delegate every call, `name()` and `as_any`,
//! so downcasts (`Simulator::controller_as`, `SdnController::module_as`)
//! and alert sources are unchanged, and the run's metrics snapshot is
//! byte-identical to an unwrapped run. Counts and busy ticks go into fixed
//! arrays indexed by message kind or hook: no allocation per call.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use controller::{
    Command, DefenseModule, DirectedLink, HostMove, LinkLatencySample, LldpReceive, ModuleCtx,
    PacketInCtx, SdnController,
};
use netsim::{ControllerCtx, ControllerLogic, TimerId};
use openflow::{FlowStatsEntry, OfMessage, PortDesc, PortStatsEntry, PortStatusReason};
use sdn_types::{DatapathId, IpAddr, MacAddr, PortNo, SwitchPort};

/// A timestamp in clock ticks. On x86-64 this is the time-stamp counter:
/// two reads bracket every traced call, and a read costs under half of an
/// `Instant::now`, which keeps tracing overhead on the soaks' millions of
/// sub-microsecond calls within its budget. Elsewhere it is nanoseconds
/// since the first read.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter. It accesses no
    // memory and every x86-64 CPU implements it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Converts ticks to nanoseconds, calibrated against `Instant` over the
/// span between [`Clock::start`] and [`Clock::ns_per_tick`].
pub struct Clock {
    instant: Instant,
    ticks: u64,
}

impl Clock {
    /// Starts a calibration span.
    pub fn start() -> Clock {
        Clock {
            instant: Instant::now(),
            ticks: ticks(),
        }
    }

    /// Nanoseconds per tick over the span so far.
    pub fn ns_per_tick(&self) -> f64 {
        let ns = self.instant.elapsed().as_nanos() as f64;
        let ticks = ticks().saturating_sub(self.ticks);
        if ticks == 0 {
            1.0
        } else {
            ns / ticks as f64
        }
    }
}

/// Call counts and busy ticks, one slot per kind.
#[derive(Clone, Copy, Debug)]
pub struct Tally<const N: usize> {
    /// Calls per kind.
    pub count: [u64; N],
    /// Clock ticks spent inside the calls, per kind.
    pub busy_ticks: [u64; N],
}

impl<const N: usize> Default for Tally<N> {
    fn default() -> Self {
        Tally {
            count: [0; N],
            busy_ticks: [0; N],
        }
    }
}

impl<const N: usize> Tally<N> {
    fn add(&mut self, kind: usize, since: u64) {
        let spent = ticks().saturating_sub(since);
        if let (Some(c), Some(b)) = (self.count.get_mut(kind), self.busy_ticks.get_mut(kind)) {
            *c += 1;
            *b += spent;
        }
    }

    /// Busy ticks over every kind.
    pub fn total_busy_ticks(&self) -> u64 {
        self.busy_ticks.iter().sum()
    }
}

/// The controller entry points timed separately; `other` covers Hello,
/// PortStatus and any message the controller ignores.
pub const CONTROLLER_KINDS: [&str; 7] = [
    "packet_in",
    "echo_reply",
    "features_reply",
    "flow_stats_reply",
    "port_stats_reply",
    "timer",
    "other",
];
const TIMER: usize = 5;

fn message_kind(msg: &OfMessage) -> usize {
    match msg {
        OfMessage::PacketIn { .. } => 0,
        OfMessage::EchoReply { .. } => 1,
        OfMessage::FeaturesReply { .. } => 2,
        OfMessage::FlowStatsReply { .. } => 3,
        OfMessage::PortStatsReply { .. } => 4,
        _ => 6,
    }
}

/// Per-kind controller tally.
pub type ControllerTally = Tally<{ CONTROLLER_KINDS.len() }>;

/// Times every controller callback after start-up.
pub struct TracedController {
    inner: SdnController,
    tally: Rc<RefCell<ControllerTally>>,
}

impl TracedController {
    /// Wraps `inner`; the returned handle reads the tally after the run.
    pub fn new(inner: SdnController) -> (Self, Rc<RefCell<ControllerTally>>) {
        let tally = Rc::new(RefCell::new(ControllerTally::default()));
        (
            TracedController {
                inner,
                tally: Rc::clone(&tally),
            },
            tally,
        )
    }
}

impl ControllerLogic for TracedController {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        // Runs inside `Simulator` construction, which is set-up time.
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut ControllerCtx<'_>, dpid: DatapathId, msg: OfMessage) {
        let kind = message_kind(&msg);
        let t = ticks();
        self.inner.on_message(ctx, dpid, msg);
        self.tally.borrow_mut().add(kind, t);
    }

    fn on_timer(&mut self, ctx: &mut ControllerCtx<'_>, id: TimerId) {
        let t = ticks();
        self.inner.on_timer(ctx, id);
        self.tally.borrow_mut().add(TIMER, t);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Every `DefenseModule` hook, in trait order; a hook's index is its slot
/// in a [`ModuleTally`].
pub const HOOKS: [&str; 12] = [
    "on_packet_in",
    "on_lldp_emit",
    "on_lldp_receive",
    "on_port_status",
    "on_host_new",
    "on_host_move",
    "on_link_update",
    "on_link_removed",
    "on_tick",
    "on_flow_stats",
    "on_port_stats",
    "on_flow_mod",
];

/// Per-hook module tally.
pub type ModuleTally = Tally<{ HOOKS.len() }>;

/// Times the chosen hooks of one defense module and delegates the rest.
pub struct TracedModule {
    inner: Box<dyn DefenseModule>,
    timed: [bool; HOOKS.len()],
    tally: Rc<RefCell<ModuleTally>>,
}

impl TracedModule {
    /// Wraps `inner`, timing the hooks named in `hooks`; the returned
    /// handle reads the tally after the run.
    pub fn new(inner: Box<dyn DefenseModule>, hooks: &[&str]) -> (Self, Rc<RefCell<ModuleTally>>) {
        let tally = Rc::new(RefCell::new(ModuleTally::default()));
        (
            TracedModule {
                inner,
                timed: HOOKS.map(|h| hooks.contains(&h)),
                tally: Rc::clone(&tally),
            },
            tally,
        )
    }

    fn timed<R>(&mut self, hook: usize, f: impl FnOnce(&mut dyn DefenseModule) -> R) -> R {
        if !self.timed.get(hook).copied().unwrap_or(false) {
            return f(self.inner.as_mut());
        }
        let t = ticks();
        let r = f(self.inner.as_mut());
        self.tally.borrow_mut().add(hook, t);
        r
    }
}

impl DefenseModule for TracedModule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_packet_in(&mut self, cx: &mut ModuleCtx<'_>, ev: &PacketInCtx<'_>) -> Command {
        self.timed(0, |m| m.on_packet_in(cx, ev))
    }

    fn on_lldp_emit(&mut self, cx: &mut ModuleCtx<'_>, dpid: DatapathId, port: PortNo) {
        self.timed(1, |m| m.on_lldp_emit(cx, dpid, port))
    }

    fn on_lldp_receive(&mut self, cx: &mut ModuleCtx<'_>, ev: &LldpReceive<'_>) -> Command {
        self.timed(2, |m| m.on_lldp_receive(cx, ev))
    }

    fn on_port_status(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        desc: &PortDesc,
        reason: PortStatusReason,
    ) {
        self.timed(3, |m| m.on_port_status(cx, dpid, desc, reason))
    }

    fn on_host_new(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        mac: MacAddr,
        ip: Option<IpAddr>,
        location: SwitchPort,
    ) {
        self.timed(4, |m| m.on_host_new(cx, mac, ip, location))
    }

    fn on_host_move(&mut self, cx: &mut ModuleCtx<'_>, mv: &HostMove) -> Command {
        self.timed(5, |m| m.on_host_move(cx, mv))
    }

    fn on_link_update(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        link: DirectedLink,
        is_new: bool,
        sample: Option<LinkLatencySample>,
    ) -> Command {
        self.timed(6, |m| m.on_link_update(cx, link, is_new, sample))
    }

    fn on_link_removed(&mut self, cx: &mut ModuleCtx<'_>, link: DirectedLink) {
        self.timed(7, |m| m.on_link_removed(cx, link))
    }

    fn on_tick(&mut self, cx: &mut ModuleCtx<'_>) {
        self.timed(8, |m| m.on_tick(cx))
    }

    fn on_flow_stats(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        flows: &[FlowStatsEntry],
    ) {
        self.timed(9, |m| m.on_flow_stats(cx, dpid, flows))
    }

    fn on_port_stats(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        ports: &[PortStatsEntry],
    ) {
        self.timed(10, |m| m.on_port_stats(cx, dpid, ports))
    }

    fn on_flow_mod(&mut self, cx: &mut ModuleCtx<'_>, dpid: DatapathId, msg: &OfMessage) {
        self.timed(11, |m| m.on_flow_mod(cx, dpid, msg))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
