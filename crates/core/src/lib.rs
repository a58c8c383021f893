//! The TopoMirage scenario and evaluation harness.
//!
//! This crate assembles the substrates (simulator, controller, defenses,
//! attacks) into the paper's experiments:
//!
//! * [`defense`] — the defense stacks under evaluation: none, TopoGuard,
//!   SPHINX, TopoGuard+SPHINX, and TOPOGUARD+.
//! * [`testbed`] — topology builders: Fig. 1's two-switch colluding-host
//!   network, Fig. 9's four-switch evaluation testbed (5 ms dataplane
//!   links, 10 ms out-of-band side channel), and the host-location-hijack
//!   testbed.
//! * [`linkfab`] — link-fabrication scenarios (out-of-band, stealthy
//!   out-of-band, in-band, and a naive no-amnesia baseline).
//! * [`hijack`] — the Port Probing / host-location-hijacking scenario with
//!   the full Fig. 3 timeline instrumentation.
//! * [`fabric`] — topology-parameterized elaboration: runs the same
//!   scenarios on generated fat-tree / core–edge / linear / ring fabrics
//!   (`tm-topo`), with attacker placement drawn from the spec's forked
//!   stream.
//! * [`matrix`] — the headline attack × defense detection matrix, on the
//!   paper testbeds or any generated fabric.
//! * [`robustness`] — fault profiles (trunk loss, jitter, flaps, control
//!   congestion, switch restarts) and benign-traffic false-positive
//!   scenarios; every scenario in this crate can run under a profile, and
//!   [`matrix::run_matrix_under`] re-runs the whole matrix per profile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defense;
pub mod fabric;
pub mod floodsc;
pub mod hijack;
pub mod induced;
pub mod linkfab;
pub mod load;
pub mod matrix;
pub mod robustness;
pub mod scale;
pub mod testbed;

pub use defense::DefenseStack;
pub use fabric::RelayEndpoints;
pub use floodsc::{FloodOutcome, FloodScenario};
pub use hijack::{HijackOutcome, HijackScenario};
pub use linkfab::{FabTopology, LinkFabOutcome, LinkFabScenario, RelayMode};
pub use load::{LoadOutcome, LoadPattern, LoadScenario, TrafficLoad};
pub use matrix::{run_matrix, run_matrix_on, run_matrix_under, MatrixEntry};
pub use robustness::{FaultProfile, ProfileTargets, RobustnessOutcome, RobustnessScenario};
pub use scale::{ScaleOutcome, ScaleScenario};
