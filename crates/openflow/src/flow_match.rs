//! The OpenFlow 1.0 match structure (wildcard-based).

use sdn_types::packet::{EthernetFrame, Transport};
use sdn_types::{IpAddr, MacAddr, PortNo};

/// A flow match: each field is optional, `None` meaning wildcarded.
///
/// Matching follows OpenFlow 1.0 semantics: a packet matches if every
/// specified field equals the packet's corresponding header value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct FlowMatch {
    /// Ingress port.
    pub in_port: Option<PortNo>,
    /// Ethernet source address.
    pub eth_src: Option<MacAddr>,
    /// Ethernet destination address.
    pub eth_dst: Option<MacAddr>,
    /// EtherType.
    pub ethertype: Option<u16>,
    /// IPv4 source address.
    pub ip_src: Option<IpAddr>,
    /// IPv4 destination address.
    pub ip_dst: Option<IpAddr>,
    /// IP protocol number.
    pub ip_proto: Option<u8>,
    /// TCP/UDP source port.
    pub l4_src: Option<u16>,
    /// TCP/UDP destination port.
    pub l4_dst: Option<u16>,
}

impl FlowMatch {
    /// The fully-wildcarded match (matches every packet).
    pub fn new() -> Self {
        FlowMatch::default()
    }

    /// Restricts to packets arriving on `port`.
    pub fn with_in_port(mut self, port: PortNo) -> Self {
        self.in_port = Some(port);
        self
    }

    /// Restricts to the given Ethernet source.
    pub fn with_eth_src(mut self, mac: MacAddr) -> Self {
        self.eth_src = Some(mac);
        self
    }

    /// Restricts to the given Ethernet destination.
    pub fn with_eth_dst(mut self, mac: MacAddr) -> Self {
        self.eth_dst = Some(mac);
        self
    }

    /// Returns `true` if `frame` arriving on `in_port` matches this entry.
    pub fn matches(&self, frame: &EthernetFrame, in_port: PortNo) -> bool {
        if let Some(p) = self.in_port {
            if p != in_port {
                return false;
            }
        }
        if let Some(src) = self.eth_src {
            if src != frame.src {
                return false;
            }
        }
        if let Some(dst) = self.eth_dst {
            if dst != frame.dst {
                return false;
            }
        }
        if let Some(et) = self.ethertype {
            if et != frame.ethertype().0 {
                return false;
            }
        }
        let ip = frame.ipv4();
        if let Some(want) = self.ip_src {
            match ip {
                Some(ip) if ip.src == want => {}
                _ => return false,
            }
        }
        if let Some(want) = self.ip_dst {
            match ip {
                Some(ip) if ip.dst == want => {}
                _ => return false,
            }
        }
        if let Some(want) = self.ip_proto {
            match ip {
                Some(ip) if ip.transport.protocol().0 == want => {}
                _ => return false,
            }
        }
        if self.l4_src.is_some() || self.l4_dst.is_some() {
            let (src_port, dst_port) = match ip.map(|ip| &ip.transport) {
                Some(Transport::Tcp(tcp)) => (tcp.src_port, tcp.dst_port),
                Some(Transport::Udp(udp)) => (udp.src_port, udp.dst_port),
                _ => return false,
            };
            if let Some(want) = self.l4_src {
                if want != src_port {
                    return false;
                }
            }
            if let Some(want) = self.l4_dst {
                if want != dst_port {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if this (wildcard) pattern subsumes `other`: every
    /// field specified here is specified in `other` with the same value.
    /// This is OpenFlow 1.0 `DELETE` semantics — a delete pattern removes
    /// every rule it subsumes.
    pub fn subsumes(&self, other: &FlowMatch) -> bool {
        fn covered<T: PartialEq>(pattern: &Option<T>, field: &Option<T>) -> bool {
            match pattern {
                None => true,
                Some(want) => field.as_ref() == Some(want),
            }
        }
        covered(&self.in_port, &other.in_port)
            && covered(&self.eth_src, &other.eth_src)
            && covered(&self.eth_dst, &other.eth_dst)
            && covered(&self.ethertype, &other.ethertype)
            && covered(&self.ip_src, &other.ip_src)
            && covered(&self.ip_dst, &other.ip_dst)
            && covered(&self.ip_proto, &other.ip_proto)
            && covered(&self.l4_src, &other.l4_src)
            && covered(&self.l4_dst, &other.l4_dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::packet::{ArpPacket, IcmpPacket, Ipv4Packet, Payload, TcpSegment};

    fn icmp_frame() -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::new([1; 6]),
            MacAddr::new([2; 6]),
            Payload::Ipv4(Ipv4Packet::new(
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
                Transport::Icmp(IcmpPacket::echo_request(1, 1, vec![])),
            )),
        )
    }

    fn tcp_frame(dst_port: u16) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::new([1; 6]),
            MacAddr::new([2; 6]),
            Payload::Ipv4(Ipv4Packet::new(
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
                Transport::Tcp(TcpSegment::syn(40000, dst_port, 1)),
            )),
        )
    }

    #[test]
    fn wildcard_matches_everything() {
        let m = FlowMatch::new();
        assert!(m.matches(&icmp_frame(), PortNo::new(1)));
        assert!(m.matches(&tcp_frame(80), PortNo::new(9)));
    }

    #[test]
    fn in_port_is_checked() {
        let m = FlowMatch::new().with_in_port(PortNo::new(1));
        assert!(m.matches(&icmp_frame(), PortNo::new(1)));
        assert!(!m.matches(&icmp_frame(), PortNo::new(2)));
    }

    #[test]
    fn mac_fields_are_checked() {
        let m = FlowMatch::new().with_eth_dst(MacAddr::new([2; 6]));
        assert!(m.matches(&icmp_frame(), PortNo::new(1)));
        let m = FlowMatch::new().with_eth_dst(MacAddr::new([9; 6]));
        assert!(!m.matches(&icmp_frame(), PortNo::new(1)));
    }

    #[test]
    fn ip_fields_require_ipv4() {
        let arp = EthernetFrame::new(
            MacAddr::new([1; 6]),
            MacAddr::BROADCAST,
            Payload::Arp(ArpPacket::request(
                MacAddr::new([1; 6]),
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
            )),
        );
        let m = FlowMatch {
            ip_src: Some(IpAddr::new(10, 0, 0, 1)),
            ..FlowMatch::new()
        };
        assert!(!m.matches(&arp, PortNo::new(1)), "ARP has no IPv4 header");
        assert!(m.matches(&icmp_frame(), PortNo::new(1)));
    }

    #[test]
    fn l4_ports_are_checked() {
        let m = FlowMatch {
            l4_dst: Some(80),
            ..FlowMatch::new()
        };
        assert!(m.matches(&tcp_frame(80), PortNo::new(1)));
        assert!(!m.matches(&tcp_frame(443), PortNo::new(1)));
        assert!(
            !m.matches(&icmp_frame(), PortNo::new(1)),
            "ICMP has no ports"
        );
    }

    #[test]
    fn exact_match_matches_its_own_frame() {
        let frame = tcp_frame(80);
        let m = FlowMatch {
            in_port: Some(PortNo::new(3)),
            eth_src: Some(frame.src),
            eth_dst: Some(frame.dst),
            ethertype: Some(frame.ethertype().0),
            ip_src: Some(IpAddr::new(10, 0, 0, 1)),
            ip_dst: Some(IpAddr::new(10, 0, 0, 2)),
            ip_proto: Some(6),
            ..FlowMatch::new()
        };
        assert!(m.matches(&frame, PortNo::new(3)));
        assert!(!m.matches(&frame, PortNo::new(4)));
    }
}
