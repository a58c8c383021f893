//! A Floodlight-style SDN controller core.
//!
//! [`SdnController`] implements [`netsim::ControllerLogic`] and provides the
//! services the paper's attacks target and its defenses extend:
//!
//! * **Link Discovery** ([`topology`]) — the three-phase LLDP cycle
//!   (§III-A1): `PacketOut` LLDP probes on every switch port at the
//!   profile's discovery interval, link inference from the resulting
//!   `PacketIn`s, and expiry at the profile's link timeout (Table III).
//! * **Host Tracking** ([`devices`]) — the HTS that binds `(MAC, IP)` to a
//!   `(switch, port)` location from `PacketIn` source headers, registering
//!   migrations when a known identifier appears at a new location (§III-A2)
//!   — the state Host Location Hijacking poisons.
//! * **Reactive forwarding** ([`forwarding`]) — shortest-path rule
//!   installation over the discovered topology.
//! * **Control-link latency tracking** ([`latency`]) — OpenFlow echo RTTs,
//!   averaged over the last three measurements (TopoGuard+'s `T_SW`).
//! * A **defense-module pipeline** ([`module`]) — TopoGuard, TopoGuard+ and
//!   SPHINX (separate crates) observe every event and may veto topology
//!   updates. Alerts land in a shared [`AlertSink`].
//!
//! Controller personalities (Floodlight / POX / OpenDaylight timing
//! profiles) are in [`profile`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
mod controller;
pub mod devices;
pub mod forwarding;
pub mod latency;
pub mod module;
pub mod profile;
pub mod test_support;
pub mod topology;

pub use alerts::{Alert, AlertKind, AlertSink};
pub use controller::{ControllerConfig, SdnController};
pub use devices::{Device, DeviceTable, HostMove};
pub use latency::CtrlLatencyTracker;
pub use module::{Command, DefenseModule, LinkLatencySample, LldpReceive, ModuleCtx, PacketInCtx};
pub use profile::ControllerProfile;
/// Metric handles a module resolves once from [`ModuleCtx::telemetry`] and
/// then writes without a by-name lookup.
pub use tm_telemetry::{CounterHandle, HistogramHandle};
pub use topology::{DirectedLink, LinkState, LinkTable, Topology};
