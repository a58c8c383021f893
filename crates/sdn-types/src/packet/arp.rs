//! ARP (RFC 826) for Ethernet/IPv4.

use crate::buf::BytesMut;

use crate::{IpAddr, MacAddr, ParseError};

/// ARP operation code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpOp {
    /// Who-has request (opcode 1).
    Request,
    /// Is-at reply (opcode 2).
    Reply,
}

impl ArpOp {
    fn to_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        }
    }

    fn from_u16(raw: u16) -> Result<Self, ParseError> {
        match raw {
            1 => Ok(ArpOp::Request),
            2 => Ok(ArpOp::Reply),
            _ => Err(ParseError::bad_field("ArpPacket", "unknown opcode")),
        }
    }
}

/// An ARP packet for IPv4 over Ethernet (fixed 28-byte body).
///
/// ARP is central to two parts of the paper: `arping`-based liveness probes
/// (Table I — the stealthiest practical probe) and MAC-address harvesting
/// before a host-location hijack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpPacket {
    /// Operation (request or reply).
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: IpAddr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: IpAddr,
}

pub(crate) const ARP_LEN: usize = 28;

impl ArpPacket {
    /// Builds a who-has request for `target_ip` from `sender`.
    pub fn request(sender_mac: MacAddr, sender_ip: IpAddr, target_ip: IpAddr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Builds the is-at reply answering `request`.
    pub fn reply_to(request: &ArpPacket, my_mac: MacAddr) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Appends the 28-byte wire encoding to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u16(1); // HTYPE: Ethernet
        buf.put_u16(0x0800); // PTYPE: IPv4
        buf.put_u8(6); // HLEN
        buf.put_u8(4); // PLEN
        buf.put_u16(self.op.to_u16());
        buf.put_slice(&self.sender_mac.octets());
        buf.put_slice(&self.sender_ip.octets());
        buf.put_slice(&self.target_mac.octets());
        buf.put_slice(&self.target_ip.octets());
    }

    /// Parses from wire bytes.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < ARP_LEN {
            return Err(ParseError::truncated("ArpPacket", ARP_LEN, bytes.len()));
        }
        let htype = u16::from_be_bytes([bytes[0], bytes[1]]);
        let ptype = u16::from_be_bytes([bytes[2], bytes[3]]);
        if htype != 1 || ptype != 0x0800 || bytes[4] != 6 || bytes[5] != 4 {
            return Err(ParseError::bad_field(
                "ArpPacket",
                "unsupported hardware/protocol type",
            ));
        }
        let op = ArpOp::from_u16(u16::from_be_bytes([bytes[6], bytes[7]]))?;
        Ok(ArpPacket {
            op,
            sender_mac: super::mac_at(bytes, 8),
            sender_ip: super::ip_at(bytes, 14),
            target_mac: super::mac_at(bytes, 18),
            target_ip: super::ip_at(bytes, 24),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_round_trip() {
        let req = ArpPacket::request(
            MacAddr::new([1; 6]),
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
        );
        let mut buf = BytesMut::new();
        req.encode_into(&mut buf);
        assert_eq!(buf.len(), ARP_LEN);
        assert_eq!(ArpPacket::parse(&buf).unwrap(), req);

        let rep = ArpPacket::reply_to(&req, MacAddr::new([2; 6]));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, req.target_ip);
        assert_eq!(rep.target_mac, req.sender_mac);
        assert_eq!(rep.target_ip, req.sender_ip);
    }

    #[test]
    fn rejects_bad_opcode() {
        let req = ArpPacket::request(
            MacAddr::new([1; 6]),
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
        );
        let mut buf = BytesMut::new();
        req.encode_into(&mut buf);
        let mut raw = buf.to_vec();
        raw[7] = 9;
        assert!(ArpPacket::parse(&raw).is_err());
    }

    #[test]
    fn rejects_truncated() {
        assert!(matches!(
            ArpPacket::parse(&[0; 10]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let req = ArpPacket::request(
            MacAddr::new([1; 6]),
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
        );
        let mut buf = BytesMut::new();
        req.encode_into(&mut buf);
        let mut raw = buf.to_vec();
        raw[1] = 6; // HTYPE = IEEE 802
        assert!(ArpPacket::parse(&raw).is_err());
    }
}
