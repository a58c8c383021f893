//! A deterministic discrete-event network simulator for OpenFlow networks.
//!
//! `netsim` is the testbed substrate of the TopoMirage reproduction — the
//! stand-in for the paper's Mininet environment. It simulates:
//!
//! * **OpenFlow switches** with real flow tables, per-port counters, FLOOD
//!   semantics, table-miss `PacketIn`s, and a physical-layer port state
//!   machine implementing IEEE 802.3 link-integrity-pulse detection
//!   (16 ± 8 ms) — the mechanic that turns a host's interface bounce into
//!   the `PortStatus` messages Port Amnesia exploits.
//! * **End hosts** with a default network stack (ARP responder, ICMP echo,
//!   minimal TCP handshake, an IP-ID counter for idle scans) and a pluggable
//!   [`HostApp`] hook through which attacks inject and capture raw frames.
//! * **Links** with configurable latency, jitter, and micro-burst models
//!   (Fig. 10's latency spikes), **control channels** with their own
//!   latency, and **out-of-band channels** (the attackers' wireless side
//!   channel) with per-hop encode/decode cost.
//! * A **controller slot**: any [`ControllerLogic`] implementation (see the
//!   `controller` crate) receives OpenFlow messages and timers.
//! * A **fault-injection layer** ([`faults`]): a declarative [`FaultPlan`]
//!   (from the `tm-faults` crate) schedules per-link packet loss, latency
//!   spikes, link flaps, switch restarts, and control-channel congestion as
//!   ordinary events in the deterministic queue — see
//!   [`Simulator::with_fault_plan`].
//! * A **flow-level traffic engine** ([`traffic`]): a declarative
//!   [`TrafficPlan`] (from the `tm-traffic` crate) parks groups of virtual
//!   hosts behind edge aggregation ports and advances their load as flow
//!   records, expanding real packets only at detector-relevant boundaries
//!   (first-ARP announcements, first-packet `PacketIn`s) — see
//!   [`Simulator::with_traffic_plan`].
//!
//! Everything runs on a virtual nanosecond clock under a seeded RNG: the
//! same seed always produces the same trace — including every injected
//! fault, and an empty fault plan changes nothing at all.
//!
//! # Example
//!
//! ```
//! use netsim::{Simulator, NetworkSpec, LinkProfile};
//! use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo};
//!
//! let mut spec = NetworkSpec::new();
//! spec.add_switch(DatapathId::new(1));
//! spec.add_host(HostId::new(1), MacAddr::from_index(1), IpAddr::new(10, 0, 0, 1));
//! spec.attach_host(
//!     HostId::new(1),
//!     DatapathId::new(1),
//!     PortNo::new(1),
//!     LinkProfile::fixed(Duration::from_millis(5)),
//! );
//! let mut sim = Simulator::new(spec, 42);
//! sim.run_for(Duration::from_secs(1));
//! assert_eq!(sim.now(), sdn_types::SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller_api;
mod engine;
mod host;
mod link;
mod metrics;
mod sim;
mod switch;
mod trace;

pub mod apps;
pub mod faults;
pub mod pcap;
pub mod traffic;

pub use controller_api::{ControllerCtx, ControllerLogic, NullController, TimerId};
pub use engine::PULSE_WINDOW;
pub use faults::{FaultPlan, FaultWindow, LossModel};
pub use host::{FrameDisposition, HostApp, HostCtx, HostInfo, NullHostApp};
pub use link::{BurstModel, LinkProfile};
pub use sim::{NetworkSpec, Simulator};
pub use trace::{Trace, TraceKind};
pub use traffic::{DemandProfile, TrafficPlan, TrafficWindow};

/// The downcasting glue behind the plug-in traits' default `as_any` and
/// `as_any_mut` ([`HostApp`], [`ControllerLogic`] and the controller's
/// defense modules), implemented for every `'static` type. Its methods are
/// named apart from `as_any`: a `Box<dyn HostApp>` is itself `Any`, so a
/// same-named method would resolve on the box and downcast to the box.
#[doc(hidden)]
pub trait AsAny {
    /// `self` as `&dyn Any`.
    fn any_ref(&self) -> &dyn std::any::Any;
    /// `self` as `&mut dyn Any`.
    fn any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: std::any::Any> AsAny for T {
    fn any_ref(&self) -> &dyn std::any::Any {
        self
    }
    fn any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
