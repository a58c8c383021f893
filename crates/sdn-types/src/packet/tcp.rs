//! Minimal TCP segments — enough for SYN scans, handshakes, and idle scans.
//!
//! The paper's Port Probing attack evaluates TCP SYN scans and TCP idle
//! scans as liveness probes (Table I). Those techniques only require the
//! header fields modeled here: ports, sequence/acknowledgment numbers, the
//! flag byte, and the IP identification side channel (carried by the
//! simulator's host stack, see `netsim`).

use crate::buf::BytesMut;

use crate::ParseError;

/// TCP control flags (subset: FIN, SYN, RST, PSH, ACK).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct TcpFlags {
    /// No more data from sender.
    pub fin: bool,
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function.
    pub psh: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
}

impl TcpFlags {
    /// Only SYN set — the first packet of a handshake or a SYN scan probe.
    pub const SYN: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: false,
    };

    /// SYN+ACK — the listener's handshake response for an open port.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: true,
    };

    /// RST — the response for a closed port (and the idle-scan side effect).
    pub const RST: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: true,
        psh: false,
        ack: false,
    };

    /// RST+ACK — reset in response to an unexpected SYN/ACK.
    pub const RST_ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: true,
        psh: false,
        ack: true,
    };

    /// Plain ACK.
    pub const ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        psh: false,
        ack: true,
    };

    fn to_byte(self) -> u8 {
        u8::from(self.fin)
            | u8::from(self.syn) << 1
            | u8::from(self.rst) << 2
            | u8::from(self.psh) << 3
            | u8::from(self.ack) << 4
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP segment with a fixed 20-byte header (no options).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Window size.
    pub window: u16,
    /// Payload data.
    pub data: Vec<u8>,
}

pub(crate) const TCP_HEADER_LEN: usize = 20;

impl TcpSegment {
    /// Builds a SYN probe to `dst_port` from `src_port` with initial
    /// sequence number `seq`.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65_535,
            data: Vec::new(),
        }
    }

    /// Builds the SYN-ACK answering `syn` with our initial sequence `seq`.
    pub fn syn_ack_to(syn: &TcpSegment, seq: u32) -> Self {
        TcpSegment {
            src_port: syn.dst_port,
            dst_port: syn.src_port,
            seq,
            ack: syn.seq.wrapping_add(1),
            flags: TcpFlags::SYN_ACK,
            window: 65_535,
            data: Vec::new(),
        }
    }

    /// Builds the RST answering `segment` (closed port / teardown).
    pub fn rst_to(segment: &TcpSegment) -> Self {
        TcpSegment {
            src_port: segment.dst_port,
            dst_port: segment.src_port,
            seq: segment.ack,
            ack: segment.seq.wrapping_add(1),
            flags: TcpFlags::RST_ACK,
            window: 0,
            data: Vec::new(),
        }
    }

    /// Appends the wire encoding to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(5 << 4); // data offset = 5 words
        buf.put_u8(self.flags.to_byte());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum: requires pseudo-header; simulation links are reliable
        buf.put_u16(0); // urgent pointer
        buf.put_slice(&self.data);
    }

    /// Parses from wire bytes.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < TCP_HEADER_LEN {
            return Err(ParseError::truncated(
                "TcpSegment",
                TCP_HEADER_LEN,
                bytes.len(),
            ));
        }
        let offset = usize::from(bytes[12] >> 4) * 4;
        if offset != TCP_HEADER_LEN {
            return Err(ParseError::bad_field("TcpSegment", "options not supported"));
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            seq: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
            ack: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
            flags: TcpFlags::from_byte(bytes[13]),
            window: u16::from_be_bytes([bytes[14], bytes[15]]),
            data: bytes[TCP_HEADER_LEN..].to_vec(),
        })
    }

    /// Returns `true` if this is a bare SYN (a scan probe or handshake open).
    pub fn is_syn(&self) -> bool {
        self.flags.syn && !self.flags.ack
    }

    /// Returns `true` if this is a SYN-ACK.
    pub fn is_syn_ack(&self) -> bool {
        self.flags.syn && self.flags.ack
    }

    /// Returns `true` if RST is set.
    pub fn is_rst(&self) -> bool {
        self.flags.rst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syn_round_trips() {
        let seg = TcpSegment::syn(40000, 80, 0x01020304);
        let mut buf = BytesMut::new();
        seg.encode_into(&mut buf);
        assert_eq!(buf.len(), TCP_HEADER_LEN);
        let parsed = TcpSegment::parse(&buf).unwrap();
        assert_eq!(parsed, seg);
        assert!(parsed.is_syn());
        assert!(!parsed.is_syn_ack());
    }

    #[test]
    fn handshake_fields_are_consistent() {
        let syn = TcpSegment::syn(40000, 80, 100);
        let syn_ack = TcpSegment::syn_ack_to(&syn, 9000);
        assert_eq!(syn_ack.ack, 101);
        assert_eq!(syn_ack.src_port, 80);
        assert_eq!(syn_ack.dst_port, 40000);
        assert!(syn_ack.is_syn_ack());

        let rst = TcpSegment::rst_to(&syn);
        assert!(rst.is_rst());
        assert_eq!(rst.dst_port, 40000);
    }

    #[test]
    fn flags_round_trip_all_combinations() {
        for b in 0u8..32 {
            let flags = TcpFlags::from_byte(b);
            assert_eq!(flags.to_byte(), b);
        }
    }

    #[test]
    fn payload_survives() {
        let seg = TcpSegment {
            data: vec![1, 2, 3, 4],
            ..TcpSegment::syn(1, 2, 3)
        };
        let mut buf = BytesMut::new();
        seg.encode_into(&mut buf);
        assert_eq!(TcpSegment::parse(&buf).unwrap().data, vec![1, 2, 3, 4]);
    }

    #[test]
    fn truncated_rejected() {
        assert!(TcpSegment::parse(&[0; 10]).is_err());
    }
}
