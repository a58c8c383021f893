//! Packet and addressing model for the TopoMirage SDN simulation.
//!
//! This crate provides the wire-level vocabulary shared by every other crate
//! in the workspace:
//!
//! * Addressing newtypes — [`MacAddr`], [`IpAddr`], [`DatapathId`],
//!   [`PortNo`] — with ordering, formatting, and parsing.
//! * A byte-accurate packet model — [`packet::EthernetFrame`] carrying
//!   [`packet::ArpPacket`], [`packet::Ipv4Packet`] (with ICMP / TCP / UDP
//!   payloads), or [`packet::LldpPacket`].
//! * LLDP Type-Length-Value structures including the two custom TLVs the
//!   paper's defenses rely on: an HMAC authentication TLV (TopoGuard) and an
//!   encrypted departure-timestamp TLV (TopoGuard+'s Link Latency Inspector).
//! * [`Table`] and [`SwitchPortTable`] — maps keyed by those identifiers
//!   that find a key in one step and iterate in key order.
//!
//! All packet types encode to and parse from big-endian wire bytes. The
//! simulation passes frames as typed values and builds those images only
//! where bytes matter: frame lengths, pcap capture, and tunnels that carry
//! a frame inside another packet.
//!
//! # Example
//!
//! ```
//! use sdn_types::{MacAddr, IpAddr};
//! use sdn_types::packet::{EthernetFrame, EtherType, Payload, ArpPacket};
//!
//! let src = MacAddr::new([0xAA; 6]);
//! let arp = ArpPacket::request(src, IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2));
//! let frame = EthernetFrame::new(src, MacAddr::BROADCAST, Payload::Arp(arp));
//! let bytes = frame.encode();
//! let parsed = EthernetFrame::parse(&bytes).unwrap();
//! assert_eq!(parsed.ethertype(), EtherType::ARP);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod buf;
pub mod crypto;
mod error;
mod ids;
pub mod packet;
pub mod table;
pub mod time;

pub use addr::{IpAddr, MacAddr};
pub use error::ParseError;
pub use ids::{DatapathId, HostId, PortNo, SwitchPort};
pub use table::{SwitchPortSet, SwitchPortTable, Table, TableKey};
pub use time::{Duration, SimTime};
