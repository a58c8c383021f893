//! LLDP (IEEE 802.1AB) packets with the TLV extensions used by link
//! discovery and by the paper's defenses.
//!
//! A controller-emitted discovery LLDP packet carries:
//!
//! * **Chassis ID** (type 1) and **Port ID** (type 2) identifying the switch
//!   port the packet was sent out of;
//! * **TTL** (type 3);
//! * an org-specific **DPID TLV** carrying the full 64-bit datapath id, as
//!   Floodlight does;
//! * optionally an org-specific **authentication TLV** (TopoGuard: an HMAC
//!   over the packet body so hosts cannot forge LLDP);
//! * optionally an org-specific **timestamp TLV** (TopoGuard+'s Link Latency
//!   Inspector: the controller's departure time, encrypted under a
//!   controller-owned key so hosts cannot rewrite it).
//!
//! Crucially, *relaying* a byte-exact LLDP packet keeps every TLV — including
//! the HMAC — valid. That is exactly why authenticated LLDP alone does not
//! stop link fabrication, and why the LLI falls back to timing.

use crate::buf::BytesMut;

use crate::crypto::{Hmac, Key, StreamCipher, Tag};
use crate::{DatapathId, ParseError, PortNo, SimTime};

/// The 24-bit organizationally-unique identifier used for this project's
/// org-specific TLVs.
pub const LLDP_ORG_TOPOMIRAGE: [u8; 3] = [0x00, 0x26, 0xe1];

/// Org-specific TLV subtypes under [`LLDP_ORG_TOPOMIRAGE`].
mod subtype {
    /// Full 64-bit DPID (Floodlight-style).
    pub const DPID: u8 = 0x01;
    /// HMAC authentication tag (TopoGuard authenticated LLDP).
    pub const AUTH: u8 = 0x02;
    /// Encrypted departure timestamp (TopoGuard+ LLI).
    pub const TIMESTAMP: u8 = 0x03;
}

/// LLDP TLV type codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlvType(pub u8);

impl TlvType {
    /// End of LLDPDU (type 0).
    pub const END: TlvType = TlvType(0);
    /// Chassis ID (type 1).
    pub const CHASSIS_ID: TlvType = TlvType(1);
    /// Port ID (type 2).
    pub const PORT_ID: TlvType = TlvType(2);
    /// Time to live (type 3).
    pub const TTL: TlvType = TlvType(3);
    /// Organizationally specific (type 127).
    pub const ORG_SPECIFIC: TlvType = TlvType(127);
}

/// A raw LLDP TLV: 7-bit type, 9-bit length, value bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LldpTlv {
    /// TLV type code (0..=127).
    pub tlv_type: TlvType,
    /// Value bytes (up to 511).
    pub value: Vec<u8>,
}

impl LldpTlv {
    /// Creates a TLV. Panics if the value exceeds the 9-bit length field.
    pub fn new(tlv_type: TlvType, value: Vec<u8>) -> Self {
        assert!(value.len() <= 511, "LLDP TLV value exceeds 511 bytes");
        LldpTlv { tlv_type, value }
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        debug_assert!(
            self.value.len() <= 511,
            "new() enforces the 9-bit length field"
        );
        let header = (u16::from(self.tlv_type.0) << 9) | (self.value.len() as u16);
        buf.put_u16(header);
        buf.put_slice(&self.value);
    }
}

/// An encrypted departure timestamp carried in an LLDP packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SealedTimestamp {
    /// The nonce the timestamp was sealed under.
    pub nonce: u64,
    /// The encrypted nanosecond timestamp.
    pub sealed: u64,
}

/// A parsed LLDP packet.
///
/// The discovery-relevant fields are first-class; any TLVs this crate does
/// not understand are preserved byte-exact in `extra_tlvs` so that relaying
/// (the attack primitive) is always faithful.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LldpPacket {
    /// The emitting switch's datapath id (from the DPID org TLV, falling
    /// back to the chassis ID TLV).
    pub dpid: DatapathId,
    /// The emitting switch port (from the Port ID TLV).
    pub port: PortNo,
    /// Time to live, in seconds.
    pub ttl_secs: u16,
    /// HMAC tag, if the controller signs its LLDP packets.
    pub auth_tag: Option<Tag>,
    /// Encrypted departure timestamp, if the LLI extension is enabled.
    pub timestamp: Option<SealedTimestamp>,
    /// Unrecognized TLVs, preserved in order.
    pub extra_tlvs: Vec<LldpTlv>,
}

impl LldpPacket {
    /// Creates a plain discovery packet for `dpid`/`port` with the default
    /// 120-second TTL.
    pub fn new(dpid: DatapathId, port: PortNo) -> Self {
        LldpPacket {
            dpid,
            port,
            ttl_secs: 120,
            auth_tag: None,
            timestamp: None,
            extra_tlvs: Vec::new(),
        }
    }

    /// Attaches an encrypted departure timestamp (TopoGuard+ LLI).
    ///
    /// The nonce is derived from `(dpid, port, departure)` so each probe
    /// seals under a fresh nonce.
    pub fn with_timestamp(mut self, key: Key, departure: SimTime) -> Self {
        let cipher = StreamCipher::new(key);
        let nonce = self
            .dpid
            .raw()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(self.port.raw()))
            .wrapping_add(departure.as_nanos());
        self.timestamp = Some(SealedTimestamp {
            nonce,
            sealed: cipher.seal_u64(nonce, departure.as_nanos()),
        });
        self
    }

    /// Decrypts the departure timestamp, if present.
    pub fn open_timestamp(&self, key: Key) -> Option<SimTime> {
        let ts = self.timestamp?;
        let cipher = StreamCipher::new(key);
        Some(SimTime::from_nanos(cipher.open_u64(ts.nonce, ts.sealed)))
    }

    /// Signs the packet (TopoGuard authenticated LLDP). The tag covers the
    /// DPID, port, TTL, and timestamp TLV, so none can be modified — but a
    /// byte-exact relay of the whole packet remains valid.
    pub fn signed(mut self, key: Key) -> Self {
        let mac = Hmac::new(key);
        self.auth_tag = Some(self.with_signing_bytes(|data| mac.tag(data)));
        self
    }

    /// Verifies the authentication tag. Returns `false` if the packet is
    /// unsigned or the tag does not match.
    pub fn verify(&self, key: Key) -> bool {
        match self.auth_tag {
            Some(tag) => self.with_signing_bytes(|data| Hmac::new(key).verify(data, tag)),
            None => false,
        }
    }

    /// Runs `f` over the bytes the tag covers: DPID, port and TTL, then the
    /// sealed timestamp if present. At most 28 bytes, built on the stack.
    fn with_signing_bytes<T>(&self, f: impl FnOnce(&[u8]) -> T) -> T {
        let mut data = [0u8; 28];
        data[..8].copy_from_slice(&self.dpid.to_bytes());
        data[8..10].copy_from_slice(&self.port.raw().to_be_bytes());
        data[10..12].copy_from_slice(&self.ttl_secs.to_be_bytes());
        match self.timestamp {
            Some(ts) => {
                data[12..20].copy_from_slice(&ts.nonce.to_be_bytes());
                data[20..].copy_from_slice(&ts.sealed.to_be_bytes());
                f(&data)
            }
            None => f(&data[..12]),
        }
    }

    /// The encoded length in bytes, without encoding. Each TLV is a 2-byte
    /// header plus its value; the fixed four are Chassis ID (subtype + 16
    /// hex digits), Port ID (subtype + port), TTL and the DPID org TLV
    /// (OUI + subtype + 8 bytes).
    pub(crate) fn wire_len(&self) -> usize {
        const CHASSIS_PORT_TTL_DPID: usize = (2 + 17) + (2 + 3) + (2 + 2) + (2 + 12);
        const TIMESTAMP: usize = 2 + 4 + 16;
        const AUTH: usize = 2 + 4 + 8;
        const END: usize = 2;
        CHASSIS_PORT_TTL_DPID
            + self.timestamp.map_or(0, |_| TIMESTAMP)
            + self.auth_tag.map_or(0, |_| AUTH)
            + self
                .extra_tlvs
                .iter()
                .map(|tlv| 2 + tlv.value.len())
                .sum::<usize>()
            + END
    }

    /// Appends the wire encoding to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        // Chassis ID, subtype 7 (locally assigned): ASCII hex of the DPID.
        let mut chassis = vec![7u8];
        chassis.extend_from_slice(format!("{:016x}", self.dpid.raw()).as_bytes());
        LldpTlv::new(TlvType::CHASSIS_ID, chassis).encode_into(buf);

        // Port ID, subtype 2 (port component): big-endian port number.
        let mut port = vec![2u8];
        port.extend_from_slice(&self.port.raw().to_be_bytes());
        LldpTlv::new(TlvType::PORT_ID, port).encode_into(buf);

        LldpTlv::new(TlvType::TTL, self.ttl_secs.to_be_bytes().to_vec()).encode_into(buf);

        // DPID org TLV.
        let mut dpid = LLDP_ORG_TOPOMIRAGE.to_vec();
        dpid.push(subtype::DPID);
        dpid.extend_from_slice(&self.dpid.to_bytes());
        LldpTlv::new(TlvType::ORG_SPECIFIC, dpid).encode_into(buf);

        if let Some(ts) = self.timestamp {
            let mut v = LLDP_ORG_TOPOMIRAGE.to_vec();
            v.push(subtype::TIMESTAMP);
            v.extend_from_slice(&ts.nonce.to_be_bytes());
            v.extend_from_slice(&ts.sealed.to_be_bytes());
            LldpTlv::new(TlvType::ORG_SPECIFIC, v).encode_into(buf);
        }

        if let Some(tag) = self.auth_tag {
            let mut v = LLDP_ORG_TOPOMIRAGE.to_vec();
            v.push(subtype::AUTH);
            v.extend_from_slice(&tag.to_be_bytes());
            LldpTlv::new(TlvType::ORG_SPECIFIC, v).encode_into(buf);
        }

        for tlv in &self.extra_tlvs {
            tlv.encode_into(buf);
        }

        LldpTlv::new(TlvType::END, Vec::new()).encode_into(buf);
    }

    /// Parses from wire bytes.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        let mut offset = 0usize;
        let mut chassis_dpid: Option<DatapathId> = None;
        let mut org_dpid: Option<DatapathId> = None;
        let mut port: Option<PortNo> = None;
        let mut ttl_secs: Option<u16> = None;
        let mut auth_tag = None;
        let mut timestamp = None;
        let mut extra_tlvs = Vec::new();
        let mut saw_end = false;

        while offset + 2 <= bytes.len() {
            let header = u16::from_be_bytes([bytes[offset], bytes[offset + 1]]);
            let tlv_type = TlvType((header >> 9) as u8);
            let len = usize::from(header & 0x1ff);
            offset += 2;
            if offset + len > bytes.len() {
                return Err(ParseError::truncated(
                    "LldpPacket",
                    offset + len,
                    bytes.len(),
                ));
            }
            let value = &bytes[offset..offset + len];
            offset += len;

            match tlv_type {
                TlvType::END => {
                    saw_end = true;
                    break;
                }
                TlvType::CHASSIS_ID => {
                    // Subtype 7 (locally assigned): ASCII hex DPID.
                    if let Some((7, hex)) = value.split_first() {
                        if let Ok(s) = std::str::from_utf8(hex) {
                            if let Ok(raw) = u64::from_str_radix(s, 16) {
                                chassis_dpid = Some(DatapathId::new(raw));
                            }
                        }
                    }
                }
                TlvType::PORT_ID => {
                    if let Some((2, rest)) = value.split_first() {
                        if rest.len() >= 2 {
                            port = Some(PortNo::new(u16::from_be_bytes([rest[0], rest[1]])));
                        }
                    }
                }
                TlvType::TTL => {
                    if value.len() >= 2 {
                        ttl_secs = Some(u16::from_be_bytes([value[0], value[1]]));
                    }
                }
                TlvType::ORG_SPECIFIC if value.len() >= 4 && value[..3] == LLDP_ORG_TOPOMIRAGE => {
                    let body = &value[4..];
                    match value[3] {
                        subtype::DPID => {
                            org_dpid = DatapathId::from_slice(body);
                        }
                        subtype::AUTH => {
                            if body.len() >= 8 {
                                auth_tag = Some(super::u64_be_at(body, 0));
                            }
                        }
                        subtype::TIMESTAMP => {
                            if body.len() >= 16 {
                                timestamp = Some(SealedTimestamp {
                                    nonce: super::u64_be_at(body, 0),
                                    sealed: super::u64_be_at(body, 8),
                                });
                            }
                        }
                        _ => extra_tlvs.push(LldpTlv::new(tlv_type, value.to_vec())),
                    }
                }
                _ => extra_tlvs.push(LldpTlv::new(tlv_type, value.to_vec())),
            }
        }

        if !saw_end {
            return Err(ParseError::malformed("LldpPacket", "missing End TLV"));
        }
        let dpid = org_dpid
            .or(chassis_dpid)
            .ok_or_else(|| ParseError::malformed("LldpPacket", "no chassis/DPID TLV"))?;
        let port = port.ok_or_else(|| ParseError::malformed("LldpPacket", "no Port ID TLV"))?;
        Ok(LldpPacket {
            dpid,
            port,
            ttl_secs: ttl_secs.unwrap_or(120),
            auth_tag,
            timestamp,
            extra_tlvs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(pkt: &LldpPacket) -> Vec<u8> {
        let mut buf = BytesMut::new();
        pkt.encode_into(&mut buf);
        buf.into_vec()
    }

    #[test]
    fn plain_packet_round_trips() {
        let pkt = LldpPacket::new(DatapathId::new(0x2a), PortNo::new(3));
        assert_eq!(LldpPacket::parse(&encode(&pkt)).unwrap(), pkt);
    }

    #[test]
    fn signed_packet_verifies_after_round_trip() {
        let key = Key::from_seed(1);
        let pkt = LldpPacket::new(DatapathId::new(7), PortNo::new(1)).signed(key);
        let parsed = LldpPacket::parse(&encode(&pkt)).unwrap();
        assert!(parsed.verify(key));
        assert!(!parsed.verify(Key::from_seed(2)));
    }

    #[test]
    fn unsigned_packet_fails_verification() {
        let pkt = LldpPacket::new(DatapathId::new(7), PortNo::new(1));
        assert!(!pkt.verify(Key::from_seed(1)));
    }

    #[test]
    fn forged_dpid_breaks_signature() {
        let key = Key::from_seed(1);
        let pkt = LldpPacket::new(DatapathId::new(7), PortNo::new(1)).signed(key);
        let mut forged = LldpPacket::parse(&encode(&pkt)).unwrap();
        forged.dpid = DatapathId::new(8);
        assert!(!forged.verify(key));
    }

    #[test]
    fn timestamp_seals_and_opens() {
        let key = Key::from_seed(9);
        let departure = SimTime::from_millis(1234);
        let pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2))
            .with_timestamp(key, departure)
            .signed(key);
        let parsed = LldpPacket::parse(&encode(&pkt)).unwrap();
        assert!(parsed.verify(key));
        assert_eq!(parsed.open_timestamp(key), Some(departure));
        // A host without the key sees only ciphertext.
        let sealed = parsed.timestamp.unwrap().sealed;
        assert_ne!(sealed, departure.as_nanos());
    }

    #[test]
    fn tampered_timestamp_breaks_signature() {
        let key = Key::from_seed(9);
        let pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2))
            .with_timestamp(key, SimTime::from_millis(100))
            .signed(key);
        let mut tampered = LldpPacket::parse(&encode(&pkt)).unwrap();
        let ts = tampered.timestamp.as_mut().unwrap();
        ts.sealed ^= 1;
        assert!(!tampered.verify(key));
    }

    #[test]
    fn relayed_bytes_remain_valid() {
        // The attack primitive: a byte-exact copy keeps both the signature
        // and the timestamp valid.
        let key = Key::from_seed(4);
        let pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2))
            .with_timestamp(key, SimTime::from_millis(5))
            .signed(key);
        let wire = encode(&pkt);
        let relayed = wire.clone();
        let parsed = LldpPacket::parse(&relayed).unwrap();
        assert!(parsed.verify(key));
    }

    #[test]
    fn unknown_tlvs_are_preserved() {
        let mut pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2));
        pkt.extra_tlvs
            .push(LldpTlv::new(TlvType(8), b"sysname".to_vec()));
        let parsed = LldpPacket::parse(&encode(&pkt)).unwrap();
        assert_eq!(parsed.extra_tlvs, pkt.extra_tlvs);
    }

    #[test]
    fn missing_end_tlv_rejected() {
        let pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2));
        let wire = encode(&pkt);
        // Strip the End TLV (2 bytes).
        assert!(LldpPacket::parse(&wire[..wire.len() - 2]).is_err());
    }

    #[test]
    fn chassis_id_fallback_when_no_org_dpid() {
        // Build a packet manually with only standard TLVs.
        let mut buf = BytesMut::new();
        let mut chassis = vec![7u8];
        chassis.extend_from_slice(format!("{:016x}", 0x99).as_bytes());
        LldpTlv::new(TlvType::CHASSIS_ID, chassis).encode_into(&mut buf);
        let mut port = vec![2u8];
        port.extend_from_slice(&5u16.to_be_bytes());
        LldpTlv::new(TlvType::PORT_ID, port).encode_into(&mut buf);
        LldpTlv::new(TlvType::TTL, 120u16.to_be_bytes().to_vec()).encode_into(&mut buf);
        LldpTlv::new(TlvType::END, vec![]).encode_into(&mut buf);
        let parsed = LldpPacket::parse(&buf).unwrap();
        assert_eq!(parsed.dpid, DatapathId::new(0x99));
        assert_eq!(parsed.port, PortNo::new(5));
    }
}
