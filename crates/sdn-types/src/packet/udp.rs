//! Minimal UDP datagrams.

use crate::buf::BytesMut;

use crate::ParseError;

/// A UDP datagram (RFC 768).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload data.
    pub data: Vec<u8>,
}

pub(crate) const UDP_HEADER_LEN: usize = 8;

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, data: Vec<u8>) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            data,
        }
    }

    /// Appends the wire encoding to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16((UDP_HEADER_LEN + self.data.len()) as u16);
        buf.put_u16(0); // checksum optional in IPv4
        buf.put_slice(&self.data);
    }

    /// Parses from wire bytes.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < UDP_HEADER_LEN {
            return Err(ParseError::truncated(
                "UdpDatagram",
                UDP_HEADER_LEN,
                bytes.len(),
            ));
        }
        let length = usize::from(u16::from_be_bytes([bytes[4], bytes[5]]));
        if length < UDP_HEADER_LEN || length > bytes.len() {
            return Err(ParseError::bad_field("UdpDatagram", "bad length"));
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            data: bytes[UDP_HEADER_LEN..length].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let dgram = UdpDatagram::new(53, 33000, vec![1, 2, 3]);
        let mut buf = BytesMut::new();
        dgram.encode_into(&mut buf);
        assert_eq!(UdpDatagram::parse(&buf).unwrap(), dgram);
    }

    #[test]
    fn empty_payload_round_trips() {
        let dgram = UdpDatagram::new(1, 2, vec![]);
        let mut buf = BytesMut::new();
        dgram.encode_into(&mut buf);
        assert_eq!(UdpDatagram::parse(&buf).unwrap(), dgram);
    }

    #[test]
    fn bad_length_rejected() {
        let dgram = UdpDatagram::new(1, 2, vec![1]);
        let mut buf = BytesMut::new();
        dgram.encode_into(&mut buf);
        let mut raw = buf.to_vec();
        raw[5] = 200; // claims more bytes than present
        assert!(UdpDatagram::parse(&raw).is_err());
    }
}
