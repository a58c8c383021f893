//! ICMP echo (RFC 792) — the basis of ping-style liveness probes.

use crate::buf::BytesMut;

use crate::ParseError;

use super::internet_checksum;

/// ICMP message type (echo subset).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IcmpType {
    /// Echo reply (type 0).
    EchoReply,
    /// Echo request (type 8).
    EchoRequest,
    /// Destination unreachable (type 3); code retained.
    Unreachable(u8),
}

impl IcmpType {
    fn to_wire(self) -> (u8, u8) {
        match self {
            IcmpType::EchoReply => (0, 0),
            IcmpType::EchoRequest => (8, 0),
            IcmpType::Unreachable(code) => (3, code),
        }
    }

    fn from_wire(ty: u8, code: u8) -> Result<Self, ParseError> {
        match ty {
            0 => Ok(IcmpType::EchoReply),
            8 => Ok(IcmpType::EchoRequest),
            3 => Ok(IcmpType::Unreachable(code)),
            _ => Err(ParseError::bad_field("IcmpPacket", "unsupported type")),
        }
    }
}

/// An ICMP message with echo identifier/sequence fields.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IcmpPacket {
    /// Message type.
    pub icmp_type: IcmpType,
    /// Echo identifier (used by probes to match replies to requests).
    pub identifier: u16,
    /// Echo sequence number.
    pub sequence: u16,
    /// Optional payload data.
    pub data: Vec<u8>,
}

pub(crate) const ICMP_HEADER_LEN: usize = 8;

impl IcmpPacket {
    /// Builds an echo request.
    pub fn echo_request(identifier: u16, sequence: u16, data: Vec<u8>) -> Self {
        IcmpPacket {
            icmp_type: IcmpType::EchoRequest,
            identifier,
            sequence,
            data,
        }
    }

    /// Builds an echo reply.
    pub fn echo_reply(identifier: u16, sequence: u16, data: Vec<u8>) -> Self {
        IcmpPacket {
            icmp_type: IcmpType::EchoReply,
            identifier,
            sequence,
            data,
        }
    }

    /// Builds the reply answering `request` (echoing id, seq, and data).
    pub fn reply_to(request: &IcmpPacket) -> Self {
        IcmpPacket::echo_reply(request.identifier, request.sequence, request.data.clone())
    }

    /// Appends the wire encoding to `buf`, computing the ICMP checksum.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let (ty, code) = self.icmp_type.to_wire();
        let mut msg = BytesMut::with_capacity(ICMP_HEADER_LEN + self.data.len());
        msg.put_u8(ty);
        msg.put_u8(code);
        msg.put_u16(0); // checksum placeholder
        msg.put_u16(self.identifier);
        msg.put_u16(self.sequence);
        msg.put_slice(&self.data);
        let csum = internet_checksum(&msg);
        msg[2..4].copy_from_slice(&csum.to_be_bytes());
        buf.put_slice(&msg);
    }

    /// Parses from wire bytes, verifying the checksum.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < ICMP_HEADER_LEN {
            return Err(ParseError::truncated(
                "IcmpPacket",
                ICMP_HEADER_LEN,
                bytes.len(),
            ));
        }
        if internet_checksum(bytes) != 0 {
            return Err(ParseError::bad_field("IcmpPacket", "bad checksum"));
        }
        let icmp_type = IcmpType::from_wire(bytes[0], bytes[1])?;
        Ok(IcmpPacket {
            icmp_type,
            identifier: u16::from_be_bytes([bytes[4], bytes[5]]),
            sequence: u16::from_be_bytes([bytes[6], bytes[7]]),
            data: bytes[ICMP_HEADER_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trips() {
        let req = IcmpPacket::echo_request(0x1234, 7, vec![0xde, 0xad]);
        let mut buf = BytesMut::new();
        req.encode_into(&mut buf);
        assert_eq!(IcmpPacket::parse(&buf).unwrap(), req);
    }

    #[test]
    fn reply_echoes_fields() {
        let req = IcmpPacket::echo_request(1, 2, vec![3]);
        let rep = IcmpPacket::reply_to(&req);
        assert_eq!(rep.icmp_type, IcmpType::EchoReply);
        assert_eq!(rep.identifier, 1);
        assert_eq!(rep.sequence, 2);
        assert_eq!(rep.data, vec![3]);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let req = IcmpPacket::echo_request(1, 2, vec![3, 4, 5]);
        let mut buf = BytesMut::new();
        req.encode_into(&mut buf);
        let mut raw = buf.to_vec();
        raw[9] ^= 0x01;
        assert!(IcmpPacket::parse(&raw).is_err());
    }

    #[test]
    fn unreachable_round_trips() {
        let pkt = IcmpPacket {
            icmp_type: IcmpType::Unreachable(1),
            identifier: 0,
            sequence: 0,
            data: vec![],
        };
        let mut buf = BytesMut::new();
        pkt.encode_into(&mut buf);
        assert_eq!(IcmpPacket::parse(&buf).unwrap(), pkt);
    }
}
