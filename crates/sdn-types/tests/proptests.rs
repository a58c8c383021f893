//! Property-based tests: every packet type must round-trip byte-exactly
//! through encode/parse for arbitrary field values.

use tm_prop::prelude::*;

use sdn_types::crypto::{Key, StreamCipher};
use sdn_types::packet::{
    ArpOp, ArpPacket, EthernetFrame, IcmpPacket, IcmpType, Ipv4Packet, LldpPacket, LldpTlv,
    Payload, TcpFlags, TcpSegment, TlvType, Transport, UdpDatagram,
};
use sdn_types::{DatapathId, IpAddr, MacAddr, PortNo, SimTime};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_ip() -> impl Strategy<Value = IpAddr> {
    any::<[u8; 4]>().prop_map(IpAddr::from)
}

fn arb_arp() -> impl Strategy<Value = ArpPacket> {
    (any::<bool>(), arb_mac(), arb_ip(), arb_mac(), arb_ip()).prop_map(
        |(is_req, sender_mac, sender_ip, target_mac, target_ip)| ArpPacket {
            op: if is_req { ArpOp::Request } else { ArpOp::Reply },
            sender_mac,
            sender_ip,
            target_mac,
            target_ip,
        },
    )
}

fn arb_icmp() -> impl Strategy<Value = IcmpPacket> {
    (
        prop_oneof![
            Just(IcmpType::EchoRequest),
            Just(IcmpType::EchoReply),
            any::<u8>().prop_map(IcmpType::Unreachable),
        ],
        any::<u16>(),
        any::<u16>(),
        collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(icmp_type, identifier, sequence, data)| IcmpPacket {
            icmp_type,
            identifier,
            sequence,
            data,
        })
}

fn arb_tcp() -> impl Strategy<Value = TcpSegment> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        any::<u16>(),
        collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(
            |(src_port, dst_port, seq, ack, flags, window, data)| TcpSegment {
                src_port,
                dst_port,
                seq,
                ack,
                flags: TcpFlags {
                    fin: flags & 1 != 0,
                    syn: flags & 2 != 0,
                    rst: flags & 4 != 0,
                    psh: flags & 8 != 0,
                    ack: flags & 16 != 0,
                },
                window,
                data,
            },
        )
}

fn arb_udp() -> impl Strategy<Value = UdpDatagram> {
    (
        any::<u16>(),
        any::<u16>(),
        collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(src_port, dst_port, data)| UdpDatagram {
            src_port,
            dst_port,
            data,
        })
}

fn arb_transport() -> impl Strategy<Value = Transport> {
    prop_oneof![
        arb_icmp().prop_map(Transport::Icmp),
        arb_tcp().prop_map(Transport::Tcp),
        arb_udp().prop_map(Transport::Udp),
        (200u8..250, collection::vec(any::<u8>(), 0..32))
            .prop_map(|(protocol, data)| Transport::Raw { protocol, data }),
    ]
}

fn arb_lldp() -> impl Strategy<Value = LldpPacket> {
    (
        any::<u64>(),
        any::<u16>(),
        1u16..=30000,
        option::of(any::<u64>()),
        option::of((any::<u64>(), any::<u64>())),
        collection::vec((4u8..120, collection::vec(any::<u8>(), 0..32)), 0..3),
    )
        .prop_map(|(dpid, port, ttl_secs, auth_tag, sealed, extras)| {
            let mut pkt = LldpPacket::new(DatapathId::new(dpid), PortNo::new(port));
            if let Some((seed, ns)) = sealed {
                pkt = pkt.with_timestamp(Key::from_seed(seed), SimTime::from_nanos(ns));
            }
            pkt.ttl_secs = ttl_secs;
            pkt.auth_tag = auth_tag;
            pkt.extra_tlvs = extras
                .into_iter()
                .map(|(t, v)| LldpTlv::new(TlvType(t), v))
                .collect();
            pkt
        })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        arb_arp().prop_map(Payload::Arp),
        (arb_ip(), arb_ip(), 1u8..=255, any::<u16>(), arb_transport()).prop_map(
            |(src, dst, ttl, ident, transport)| {
                Payload::Ipv4(Ipv4Packet {
                    src,
                    dst,
                    ttl,
                    ident,
                    transport,
                })
            },
        ),
        arb_lldp().prop_map(Payload::Lldp),
        (collection::vec(any::<u8>(), 0..64)).prop_map(|data| Payload::Opaque {
            ethertype: 0x1234,
            data
        }),
    ]
}

tm_prop! {
    #[test]
    fn ethernet_frame_round_trips(src in arb_mac(), dst in arb_mac(), payload in arb_payload()) {
        let frame = EthernetFrame::new(src, dst, payload);
        let wire = frame.encode();
        prop_assert_eq!(frame.wire_len(), wire.len());
        let parsed = EthernetFrame::parse(&wire).expect("encoded frame must parse");
        prop_assert_eq!(parsed, frame);
    }

    #[test]
    fn encoding_is_deterministic(src in arb_mac(), dst in arb_mac(), payload in arb_payload()) {
        let frame = EthernetFrame::new(src, dst, payload);
        prop_assert_eq!(frame.encode(), frame.encode());
    }

    #[test]
    fn lldp_signature_covers_identity(dpid in any::<u64>(), port in any::<u16>(), seed in any::<u64>()) {
        let key = Key::from_seed(seed);
        let pkt = LldpPacket::new(DatapathId::new(dpid), PortNo::new(port)).signed(key);
        prop_assert!(pkt.verify(key));
        let mut forged = pkt.clone();
        forged.dpid = DatapathId::new(dpid.wrapping_add(1));
        prop_assert!(!forged.verify(key));
        let mut forged_port = pkt;
        forged_port.port = PortNo::new(port.wrapping_add(1));
        prop_assert!(!forged_port.verify(key));
    }

    #[test]
    fn sealed_timestamps_round_trip(ns in any::<u64>(), seed in any::<u64>(), dpid in any::<u64>()) {
        let key = Key::from_seed(seed);
        let pkt = LldpPacket::new(DatapathId::new(dpid), PortNo::new(1))
            .with_timestamp(key, SimTime::from_nanos(ns));
        prop_assert_eq!(pkt.open_timestamp(key), Some(SimTime::from_nanos(ns)));
    }

    #[test]
    fn stream_cipher_is_an_involution(seed in any::<u64>(), nonce in any::<u64>(), mut data in collection::vec(any::<u8>(), 0..128)) {
        let cipher = StreamCipher::new(Key::from_seed(seed));
        let original = data.clone();
        cipher.apply(nonce, &mut data);
        cipher.apply(nonce, &mut data);
        prop_assert_eq!(data, original);
    }

    #[test]
    fn parse_arbitrary_bytes_never_panics(bytes in collection::vec(any::<u8>(), 0..256)) {
        // Parsing hostile input must fail gracefully, never panic.
        let _ = EthernetFrame::parse(&bytes);
        let _ = LldpPacket::parse(&bytes);
        let _ = ArpPacket::parse(&bytes);
        let _ = Ipv4Packet::parse(&bytes);
        let _ = TcpSegment::parse(&bytes);
        let _ = UdpDatagram::parse(&bytes);
        let _ = IcmpPacket::parse(&bytes);
    }
}
