//! TopoGuard and TOPOGUARD+ — topology-tampering defenses for the
//! [`controller`] crate's module pipeline.
//!
//! # TopoGuard (Hong et al., NDSS 2015; §III-B of the DSN paper)
//!
//! * [`profiler::PortProfiler`] — per-port behavioral classification:
//!   every port starts as `ANY`; first-hop dataplane traffic marks it
//!   `HOST`; LLDP marks it `SWITCH`; **a Port-Down resets it to `ANY`** —
//!   the reset Port Amnesia weaponizes.
//! * [`TopoGuard`] — the policy enforcer: Host Migration Verification
//!   (Port-Down pre-condition, old-location-unreachable post-condition),
//!   authenticated-LLDP validation, and Port Property checks (LLDP from a
//!   `HOST` port / first-hop traffic from a `SWITCH` port raise alerts).
//!
//! # TOPOGUARD+ (this paper's defense, §VI)
//!
//! * [`Cmm`] — the Control Message Monitor: logs Port-Up/Down during LLDP
//!   propagation windows and alerts when a port involved in an in-flight
//!   probe changed state (defeats **in-band** Port Amnesia).
//! * [`Lli`] — the Link Latency Inspector: estimates switch-link latency
//!   as `T_LLDP − T_SW1 − T_SW2` from encrypted LLDP timestamps and echo
//!   RTTs, keeps a fixed-size store, and flags latencies beyond
//!   `Q3 + 3·IQR` (defeats **out-of-band** Port Amnesia).
//!
//! Per the paper, TopoGuard raises alerts without altering network state;
//! TOPOGUARD+ may additionally *block* suspicious link updates
//! (configurable, enabled by default).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binding;
mod cmm;
mod lli;
pub mod profiler;
mod topoguard;

pub use binding::IdentifierBinding;
pub use cmm::{Cmm, CmmConfig};
pub use lli::{Lli, LliConfig, LliObservation};
pub use profiler::{PortProfiler, PortType};
pub use topoguard::{TopoGuard, TopoGuardConfig};
