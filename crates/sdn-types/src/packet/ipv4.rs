//! IPv4 (RFC 791) with ICMP / TCP / UDP transport payloads.

use crate::buf::BytesMut;

use crate::{IpAddr, ParseError};

use super::{internet_checksum, IcmpPacket, TcpSegment, UdpDatagram};

/// An IP protocol number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IpProtocol(pub u8);

impl IpProtocol {
    /// ICMP (1).
    pub const ICMP: IpProtocol = IpProtocol(1);
    /// TCP (6).
    pub const TCP: IpProtocol = IpProtocol(6);
    /// UDP (17).
    pub const UDP: IpProtocol = IpProtocol(17);
}

/// The transport payload of an IPv4 packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Transport {
    /// An ICMP message.
    Icmp(IcmpPacket),
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// An unrecognized protocol carried opaquely.
    Raw {
        /// The IP protocol number.
        protocol: u8,
        /// The raw payload bytes.
        data: Vec<u8>,
    },
}

impl Transport {
    /// Returns the protocol number for this payload.
    pub fn protocol(&self) -> IpProtocol {
        match self {
            Transport::Icmp(_) => IpProtocol::ICMP,
            Transport::Tcp(_) => IpProtocol::TCP,
            Transport::Udp(_) => IpProtocol::UDP,
            Transport::Raw { protocol, .. } => IpProtocol(*protocol),
        }
    }
}

/// An IPv4 packet with a fixed 20-byte header (no options).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Time to live.
    pub ttl: u8,
    /// IP identification field. Hosts that increment this per packet expose
    /// the side channel TCP idle scans exploit (§IV-B1).
    pub ident: u16,
    /// Transport payload.
    pub transport: Transport,
}

const IPV4_HEADER_LEN: usize = 20;

impl Ipv4Packet {
    /// Creates a packet with the default TTL of 64.
    pub fn new(src: IpAddr, dst: IpAddr, transport: Transport) -> Self {
        Ipv4Packet {
            src,
            dst,
            ttl: 64,
            ident: 0,
            transport,
        }
    }

    /// Appends the wire encoding (header + payload) to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let mut body = BytesMut::new();
        match &self.transport {
            Transport::Icmp(icmp) => icmp.encode_into(&mut body),
            Transport::Tcp(tcp) => tcp.encode_into(&mut body),
            Transport::Udp(udp) => udp.encode_into(&mut body),
            Transport::Raw { data, .. } => body.put_slice(data),
        }

        let total_len = (IPV4_HEADER_LEN + body.len()) as u16;
        let mut header = [0u8; IPV4_HEADER_LEN];
        header[0] = 0x45; // version 4, IHL 5
        header[2..4].copy_from_slice(&total_len.to_be_bytes());
        header[4..6].copy_from_slice(&self.ident.to_be_bytes());
        header[8] = self.ttl;
        header[9] = self.transport.protocol().0;
        header[12..16].copy_from_slice(&self.src.octets());
        header[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&header);
        header[10..12].copy_from_slice(&csum.to_be_bytes());

        buf.put_slice(&header);
        buf.put_slice(&body);
    }

    /// Parses from wire bytes, verifying the header checksum.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < IPV4_HEADER_LEN {
            return Err(ParseError::truncated(
                "Ipv4Packet",
                IPV4_HEADER_LEN,
                bytes.len(),
            ));
        }
        if bytes[0] >> 4 != 4 {
            return Err(ParseError::bad_field("Ipv4Packet", "version is not 4"));
        }
        let ihl = usize::from(bytes[0] & 0x0f) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(ParseError::bad_field(
                "Ipv4Packet",
                "options are not supported",
            ));
        }
        if internet_checksum(&bytes[..IPV4_HEADER_LEN]) != 0 {
            return Err(ParseError::bad_field("Ipv4Packet", "bad header checksum"));
        }
        let total_len = usize::from(u16::from_be_bytes([bytes[2], bytes[3]]));
        if total_len > bytes.len() || total_len < IPV4_HEADER_LEN {
            return Err(ParseError::bad_field("Ipv4Packet", "bad total length"));
        }
        let ident = u16::from_be_bytes([bytes[4], bytes[5]]);
        let ttl = bytes[8];
        let protocol = bytes[9];
        let src = super::ip_at(bytes, 12);
        let dst = super::ip_at(bytes, 16);
        let body = &bytes[IPV4_HEADER_LEN..total_len];
        let transport = match IpProtocol(protocol) {
            IpProtocol::ICMP => Transport::Icmp(IcmpPacket::parse(body)?),
            IpProtocol::TCP => Transport::Tcp(TcpSegment::parse(body)?),
            IpProtocol::UDP => Transport::Udp(UdpDatagram::parse(body)?),
            _ => Transport::Raw {
                protocol,
                data: body.to_vec(),
            },
        };
        Ok(Ipv4Packet {
            src,
            dst,
            ttl,
            ident,
            transport,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::IcmpType;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
            Transport::Icmp(IcmpPacket::echo_request(7, 1, vec![1, 2, 3])),
        )
    }

    #[test]
    fn round_trips() {
        let pkt = sample();
        let mut buf = BytesMut::new();
        pkt.encode_into(&mut buf);
        assert_eq!(Ipv4Packet::parse(&buf).unwrap(), pkt);
    }

    #[test]
    fn detects_corrupted_header() {
        let pkt = sample();
        let mut buf = BytesMut::new();
        pkt.encode_into(&mut buf);
        let mut raw = buf.to_vec();
        raw[15] ^= 0xff; // flip src address byte -> checksum mismatch
        assert!(matches!(
            Ipv4Packet::parse(&raw),
            Err(ParseError::BadField { detail, .. }) if detail.contains("checksum")
        ));
    }

    #[test]
    fn raw_transport_round_trips() {
        let pkt = Ipv4Packet::new(
            IpAddr::new(1, 2, 3, 4),
            IpAddr::new(5, 6, 7, 8),
            Transport::Raw {
                protocol: 0x2f,
                data: vec![9, 9, 9],
            },
        );
        let mut buf = BytesMut::new();
        pkt.encode_into(&mut buf);
        let parsed = Ipv4Packet::parse(&buf).unwrap();
        assert_eq!(parsed, pkt);
        assert_eq!(parsed.transport.protocol(), IpProtocol(0x2f));
    }

    #[test]
    fn icmp_reply_type_survives() {
        let pkt = Ipv4Packet::new(
            IpAddr::new(10, 0, 0, 2),
            IpAddr::new(10, 0, 0, 1),
            Transport::Icmp(IcmpPacket::echo_reply(7, 1, vec![])),
        );
        let mut buf = BytesMut::new();
        pkt.encode_into(&mut buf);
        let parsed = Ipv4Packet::parse(&buf).unwrap();
        match parsed.transport {
            Transport::Icmp(icmp) => assert_eq!(icmp.icmp_type, IcmpType::EchoReply),
            other => panic!("expected ICMP, got {other:?}"),
        }
    }

    #[test]
    fn rejects_version_6() {
        let pkt = sample();
        let mut buf = BytesMut::new();
        pkt.encode_into(&mut buf);
        let mut raw = buf.to_vec();
        raw[0] = 0x65;
        assert!(Ipv4Packet::parse(&raw).is_err());
    }
}
