//! Topology tampering attacks (§IV of the paper).
//!
//! All attacks are implemented as [`netsim::HostApp`] state machines running
//! on compromised end hosts — exactly the paper's threat model: no
//! control-plane access, no software exploits, only protocol behaviour.
//!
//! * [`iface`] — the `ifconfig` timing model: identifier changes take a
//!   heavy-tailed ~10 ms (Fig. 4) and only interface bounces longer than
//!   the 802.3 link-pulse window trigger Port-Down events (§V-A).
//! * [`probe`] — liveness probes (Table I): ICMP ping, TCP SYN scan, ARP
//!   ping, and TCP idle scan, with per-technique timing overheads and
//!   stealth ratings, plus the quantile-based probe-timeout derivation
//!   (§V-B1).
//! * [`probing`] — **Port Probing** (§IV-B): ARP-probe a victim until it
//!   goes down, then win the migration race with a host-location hijack.
//! * [`amnesia`] — **Port Amnesia** (§IV-A): reset TopoGuard's port
//!   profile with interface bounces, enabling out-of-band (side channel)
//!   and in-band (context-switching) LLDP relay link fabrication, plus the
//!   post-fabrication man-in-the-middle bridge.
//! * [`flood`] — **Alert flooding** (§IV-B): spoof existing identifiers to
//!   bury real hijack alerts in noise.
//! * [`idle`] — the TCP idle-scan mechanics (IP-ID side channel via a
//!   zombie host).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amnesia;
pub mod flood;
pub mod idle;
pub mod iface;
pub mod probe;
pub mod probing;

pub use amnesia::{RelayAttacker, RelayConfig, RelayStats};
pub use flood::{AlertFloodAttacker, FloodConfig};
pub use idle::{IdleScanProber, IdleScanResult};
pub use iface::IdentChangeModel;
pub use probe::{derive_probe_timeout, ProbeKind, ProbeTiming};
pub use probing::{PortProbingAttacker, ProbingConfig, ProbingPhase, ProbingTimeline};
