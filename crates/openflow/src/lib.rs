//! An OpenFlow 1.0-style control protocol model.
//!
//! This crate defines the message vocabulary spoken between the simulated
//! switches ([`netsim`](../netsim/index.html)) and the controller
//! ([`controller`](../controller/index.html)):
//!
//! * [`OfMessage`] — the control-channel messages the paper's attacks and
//!   defenses revolve around: `PacketIn`, `PacketOut`, `FlowMod`,
//!   `PortStatus` (Port-Up / Port-Down — the trigger for Port Amnesia),
//!   `EchoRequest`/`EchoReply` (used by TopoGuard+ to measure control-link
//!   latency), and flow/port statistics (used by SPHINX).
//! * [`FlowMatch`] / [`Action`] — header matches and output-only action
//!   lists.
//! * [`FlowTable`] — a priority-ordered rule table with idle/hard timeouts
//!   and per-flow packet/byte counters.
//!
//! # Example
//!
//! ```
//! use openflow::{Action, FlowEntry, FlowMatch, FlowTable};
//! use sdn_types::{MacAddr, PortNo, SimTime};
//!
//! let mut table = FlowTable::new();
//! let entry = FlowEntry::new(
//!     FlowMatch::new().with_eth_dst(MacAddr::new([0xBB; 6])),
//!     vec![Action::Output(PortNo::new(2))],
//! );
//! table.insert(entry, SimTime::ZERO);
//! assert_eq!(table.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actions;
mod flow_match;
mod messages;
mod port;
mod table;

pub use actions::Action;
pub use flow_match::FlowMatch;
pub use messages::{
    FlowModCommand, FlowRemovedReason, FlowStatsEntry, OfMessage, PortStatsEntry, PortStatusReason,
    Xid,
};
pub use port::{PortDesc, PortLinkState};
pub use table::{FlowEntry, FlowTable, MatchOutcome, RemovedFlow};
