//! Layer-2 and layer-3 address newtypes.

use std::fmt;
use std::str::FromStr;

use crate::ParseError;

/// A 48-bit IEEE 802 MAC address.
///
/// `MacAddr` is `Copy`, ordered, and hashable so it can serve as a key in
/// host-tracking tables. The all-ones address is exposed as
/// [`MacAddr::BROADCAST`]; the LLDP nearest-bridge multicast group used by
/// link discovery is [`MacAddr::LLDP_MULTICAST`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The Ethernet broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The IEEE 802.1AB "nearest bridge" multicast address used as the
    /// destination of LLDP frames, `01:80:c2:00:00:0e`.
    pub const LLDP_MULTICAST: MacAddr = MacAddr([0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e]);

    /// The all-zero address, used as a placeholder in ARP requests.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates a MAC address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Derives a deterministic locally-administered unicast address from an
    /// index, useful for generating distinct host addresses in tests and
    /// workload generators.
    pub const fn from_index(index: u32) -> Self {
        let b = index.to_be_bytes();
        // 0x02 sets the locally-administered bit and clears multicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns the six octets of the address.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Returns `true` if this is the broadcast address.
    pub const fn is_broadcast(&self) -> bool {
        matches!(self.0, [0xff, 0xff, 0xff, 0xff, 0xff, 0xff])
    }

    /// Returns `true` if the group (multicast) bit is set. The broadcast
    /// address is also a multicast address.
    pub const fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Returns `true` for unicast (non-multicast) addresses.
    pub const fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

impl FromStr for MacAddr {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| ParseError::bad_field("MacAddr", "too few octets"))?;
            *octet = u8::from_str_radix(part, 16)
                .map_err(|_| ParseError::bad_field("MacAddr", "invalid hex octet"))?;
        }
        if parts.next().is_some() {
            return Err(ParseError::bad_field("MacAddr", "too many octets"));
        }
        Ok(MacAddr(octets))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

/// An IPv4 address.
///
/// A thin newtype over four octets rather than [`std::net::Ipv4Addr`] so
/// wire encoding, text formatting, and `const` construction stay under
/// this crate's control.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpAddr([u8; 4]);

impl IpAddr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: IpAddr = IpAddr([0; 4]);

    /// The limited broadcast address `255.255.255.255`.
    pub const BROADCAST: IpAddr = IpAddr([0xff; 4]);

    /// Creates an address from its four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr([a, b, c, d])
    }

    /// Derives a deterministic `10.0.x.y` address from an index, mirroring
    /// Mininet's default host numbering.
    pub const fn from_index(index: u16) -> Self {
        let b = index.to_be_bytes();
        IpAddr([10, 0, b[0], b[1]])
    }

    /// Returns the four octets.
    pub const fn octets(&self) -> [u8; 4] {
        self.0
    }

    /// Builds an address from a big-endian `u32`.
    pub const fn from_u32(raw: u32) -> Self {
        IpAddr(raw.to_be_bytes())
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl fmt::Debug for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IpAddr({self})")
    }
}

impl FromStr for IpAddr {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for octet in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| ParseError::bad_field("IpAddr", "too few octets"))?;
            *octet = part
                .parse()
                .map_err(|_| ParseError::bad_field("IpAddr", "invalid decimal octet"))?;
        }
        if parts.next().is_some() {
            return Err(ParseError::bad_field("IpAddr", "too many octets"));
        }
        Ok(IpAddr(octets))
    }
}

impl From<[u8; 4]> for IpAddr {
    fn from(octets: [u8; 4]) -> Self {
        IpAddr(octets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_round_trips() {
        let mac = MacAddr::new([0xaa, 0xbb, 0x0c, 0x1d, 0x2e, 0x3f]);
        let shown = mac.to_string();
        assert_eq!(shown, "aa:bb:0c:1d:2e:3f");
        assert_eq!(shown.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn mac_parse_rejects_malformed() {
        assert!("aa:bb:cc".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee:ff:00".parse::<MacAddr>().is_err());
        assert!("zz:bb:cc:dd:ee:ff".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_classification() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(MacAddr::LLDP_MULTICAST.is_multicast());
        assert!(!MacAddr::LLDP_MULTICAST.is_broadcast());
        assert!(MacAddr::from_index(7).is_unicast());
    }

    #[test]
    fn mac_from_index_is_injective_for_small_indices() {
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        assert_ne!(a, b);
    }

    #[test]
    fn ip_display_round_trips() {
        let ip = IpAddr::new(10, 0, 0, 1);
        assert_eq!(ip.to_string(), "10.0.0.1");
        assert_eq!("10.0.0.1".parse::<IpAddr>().unwrap(), ip);
    }

    #[test]
    fn ip_parse_rejects_malformed() {
        assert!("10.0.0".parse::<IpAddr>().is_err());
        assert!("10.0.0.1.2".parse::<IpAddr>().is_err());
        assert!("10.0.0.256".parse::<IpAddr>().is_err());
    }

    #[test]
    fn ip_from_u32_is_big_endian() {
        assert_eq!(IpAddr::from_u32(0xC0A8_012A), IpAddr::new(192, 168, 1, 42));
    }
}
