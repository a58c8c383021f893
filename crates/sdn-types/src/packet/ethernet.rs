//! Ethernet II framing.

use crate::buf::BytesMut;

use crate::{MacAddr, ParseError};

use super::arp::ARP_LEN;
use super::{ArpPacket, Ipv4Packet, LldpPacket};

/// An EtherType value identifying the payload protocol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4 (`0x0800`).
    pub const IPV4: EtherType = EtherType(0x0800);
    /// ARP (`0x0806`).
    pub const ARP: EtherType = EtherType(0x0806);
    /// LLDP (`0x88cc`).
    pub const LLDP: EtherType = EtherType(0x88cc);
    /// A locally-assigned experimental EtherType used for opaque payloads.
    pub const EXPERIMENTAL: EtherType = EtherType(0x88b5);
}

/// The payload of an Ethernet frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Payload {
    /// An ARP packet.
    Arp(ArpPacket),
    /// An IPv4 packet.
    Ipv4(Ipv4Packet),
    /// An LLDP discovery packet.
    Lldp(LldpPacket),
    /// An opaque payload under an unrecognized EtherType.
    Opaque {
        /// The EtherType of the unrecognized payload.
        ethertype: u16,
        /// The raw payload bytes.
        data: Vec<u8>,
    },
}

impl Payload {
    /// Returns the EtherType this payload is carried under.
    pub fn ethertype(&self) -> EtherType {
        match self {
            Payload::Arp(_) => EtherType::ARP,
            Payload::Ipv4(_) => EtherType::IPV4,
            Payload::Lldp(_) => EtherType::LLDP,
            Payload::Opaque { ethertype, .. } => EtherType(*ethertype),
        }
    }
}

/// An Ethernet II frame: 6-byte destination, 6-byte source, 2-byte
/// EtherType, payload.
///
/// Frames are the unit of transmission on every dataplane link and
/// out-of-band channel in the simulation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EthernetFrame {
    /// Source MAC address.
    pub src: MacAddr,
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Typed payload.
    pub payload: Payload,
}

/// Minimum encoded size of a frame header.
pub(crate) const ETH_HEADER_LEN: usize = 14;

impl EthernetFrame {
    /// Creates a frame.
    pub fn new(src: MacAddr, dst: MacAddr, payload: Payload) -> Self {
        EthernetFrame { src, dst, payload }
    }

    /// Returns the payload's EtherType.
    pub fn ethertype(&self) -> EtherType {
        self.payload.ethertype()
    }

    /// Returns `true` if this frame carries LLDP.
    pub fn is_lldp(&self) -> bool {
        matches!(self.payload, Payload::Lldp(_))
    }

    /// Returns the LLDP payload if present.
    pub fn lldp(&self) -> Option<&LldpPacket> {
        match &self.payload {
            Payload::Lldp(lldp) => Some(lldp),
            _ => None,
        }
    }

    /// Returns the ARP payload if present.
    pub fn arp(&self) -> Option<&ArpPacket> {
        match &self.payload {
            Payload::Arp(arp) => Some(arp),
            _ => None,
        }
    }

    /// Returns the IPv4 payload if present.
    pub fn ipv4(&self) -> Option<&Ipv4Packet> {
        match &self.payload {
            Payload::Ipv4(ip) => Some(ip),
            _ => None,
        }
    }

    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(&self.dst.octets());
        buf.put_slice(&self.src.octets());
        buf.put_u16(self.ethertype().0);
        match &self.payload {
            Payload::Arp(arp) => arp.encode_into(&mut buf),
            Payload::Ipv4(ip) => ip.encode_into(&mut buf),
            Payload::Lldp(lldp) => lldp.encode_into(&mut buf),
            Payload::Opaque { data, .. } => buf.put_slice(data),
        }
        buf.into_vec()
    }

    /// The encoded length in bytes — `encode().len()`, summed from header
    /// and payload sizes without encoding. The simulated switches' port and
    /// flow-entry byte counters read it.
    pub fn wire_len(&self) -> usize {
        ETH_HEADER_LEN
            + match &self.payload {
                Payload::Arp(_) => ARP_LEN,
                Payload::Ipv4(ip) => ip.wire_len(),
                Payload::Lldp(lldp) => lldp.wire_len(),
                Payload::Opaque { data, .. } => data.len(),
            }
    }

    /// Parses a frame from wire bytes.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < ETH_HEADER_LEN {
            return Err(ParseError::truncated(
                "EthernetFrame",
                ETH_HEADER_LEN,
                bytes.len(),
            ));
        }
        let dst = super::mac_at(bytes, 0);
        let src = super::mac_at(bytes, 6);
        let ethertype = u16::from_be_bytes([bytes[12], bytes[13]]);
        let body = &bytes[ETH_HEADER_LEN..];
        let payload = match EtherType(ethertype) {
            EtherType::ARP => Payload::Arp(ArpPacket::parse(body)?),
            EtherType::IPV4 => Payload::Ipv4(Ipv4Packet::parse(body)?),
            EtherType::LLDP => Payload::Lldp(LldpPacket::parse(body)?),
            _ => Payload::Opaque {
                ethertype,
                data: body.to_vec(),
            },
        };
        Ok(EthernetFrame { src, dst, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpAddr;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([i; 6])
    }

    #[test]
    fn arp_frame_round_trips() {
        let frame = EthernetFrame::new(
            mac(1),
            MacAddr::BROADCAST,
            Payload::Arp(ArpPacket::request(
                mac(1),
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
            )),
        );
        let bytes = frame.encode();
        assert_eq!(EthernetFrame::parse(&bytes).unwrap(), frame);
    }

    #[test]
    fn opaque_frame_round_trips() {
        let frame = EthernetFrame::new(
            mac(1),
            mac(2),
            Payload::Opaque {
                ethertype: 0x1234,
                data: vec![1, 2, 3, 4, 5],
            },
        );
        let parsed = EthernetFrame::parse(&frame.encode()).unwrap();
        assert_eq!(parsed, frame);
        assert_eq!(parsed.ethertype(), EtherType(0x1234));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let err = EthernetFrame::parse(&[0; 5]).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { .. }));
    }

    #[test]
    fn accessors_select_payload() {
        let frame = EthernetFrame::new(
            mac(3),
            mac(4),
            Payload::Arp(ArpPacket::request(
                mac(3),
                IpAddr::new(10, 0, 0, 3),
                IpAddr::new(10, 0, 0, 4),
            )),
        );
        assert!(frame.arp().is_some());
        assert!(frame.ipv4().is_none());
        assert!(frame.lldp().is_none());
        assert!(!frame.is_lldp());
    }

    #[test]
    fn wire_len_matches_encoding() {
        let frame = EthernetFrame::new(
            mac(1),
            mac(2),
            Payload::Opaque {
                ethertype: 0x1234,
                data: vec![0; 100],
            },
        );
        assert_eq!(frame.wire_len(), ETH_HEADER_LEN + 100);
    }
}
