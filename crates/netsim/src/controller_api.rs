//! The interface between the simulator and a controller implementation.
//!
//! The `controller` crate implements [`ControllerLogic`]; the simulator
//! delivers OpenFlow messages and timer callbacks through it, and the logic
//! acts on the network exclusively through [`ControllerCtx`] — mirroring how
//! a real controller only sees its control channels.

use std::any::Any;

use openflow::OfMessage;
use sdn_types::{DatapathId, Duration, SimTime};

use crate::engine::{CtrlDelivery, Event, SimCore};
use crate::sim::NetState;

/// A controller-chosen timer identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub u64);

/// The capabilities the simulator grants a controller.
pub struct ControllerCtx<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) net: &'a mut NetState,
}

impl ControllerCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The simulation's telemetry handle (cheap clone; controllers grab it
    /// in `on_start` and publish into it for the rest of the run).
    pub fn telemetry(&self) -> tm_telemetry::Telemetry {
        self.core.telemetry.clone()
    }

    /// Sends `msg` to switch `dpid` over its control channel. Returns
    /// `false` if no such switch exists.
    pub fn send(&mut self, dpid: DatapathId, msg: OfMessage) -> bool {
        let Some(sw) = self.net.switches.get(&dpid) else {
            return false;
        };
        // Control-channel congestion faults add queuing delay on the way
        // down (PacketOut direction).
        let latency =
            sw.ctrl_latency + self.net.faults.ctrl_extra_delay(dpid, &self.core.telemetry);
        self.core.schedule(
            latency,
            Event::CtrlToSwitch(Box::new(CtrlDelivery { dpid, msg })),
        );
        true
    }

    /// Schedules `ControllerLogic::on_timer(id)` to fire after `delay`.
    pub fn set_timer(&mut self, delay: Duration, id: TimerId) {
        self.core
            .schedule(delay, Event::ControllerTimer { id: id.0 });
    }
}

/// A controller implementation.
///
/// All methods receive a [`ControllerCtx`] granting access to control
/// channels and timers. Implementations must provide `as_any`/`as_any_mut`
/// so tests and experiments can downcast to the concrete controller type
/// and inspect its state.
pub trait ControllerLogic {
    /// Called once at simulation start, before any messages.
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>);

    /// Called for every control message arriving from a switch.
    fn on_message(&mut self, ctx: &mut ControllerCtx<'_>, dpid: DatapathId, msg: OfMessage);

    /// Called when a timer set via [`ControllerCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut ControllerCtx<'_>, id: TimerId);

    /// Downcasting support.
    fn as_any(&self) -> &dyn Any;

    /// Downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A controller that ignores everything — useful for dataplane-only tests.
#[derive(Debug, Default)]
pub struct NullController;

impl ControllerLogic for NullController {
    fn on_start(&mut self, _ctx: &mut ControllerCtx<'_>) {}
    fn on_message(&mut self, _ctx: &mut ControllerCtx<'_>, _dpid: DatapathId, _msg: OfMessage) {}
    fn on_timer(&mut self, _ctx: &mut ControllerCtx<'_>, _id: TimerId) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
